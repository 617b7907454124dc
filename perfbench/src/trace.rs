//! In-memory wall-clock span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (the program itself carries no spans yet). They stay in
//! memory until the run ends, then are written out as one Chrome
//! `trace_event` file. A layer's self time is its span's duration minus the
//! part of that interval its child spans cover.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The job (or design point) the span belongs to.
    pub job: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span store: an open-span stack gives every span its parent.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, job: u32, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record an already-measured interval under `parent`; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        job: u32,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns_at(start), self.ns_at(end));
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total duration of the spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.dur_ns()).sum::<u64>() as f64 / 1e6
    }

    /// Total self time of the spans named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut child_ns = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut total = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                total += s.dur_ns() - covered_ns(&mut child_ns[i], s.start_ns, s.end_ns);
            }
        }
        total as f64 / 1e6
    }

    /// Spans that do not lie inside their parent (must be none).
    pub fn escaped_children(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| {
                s.parent.is_some_and(|p| {
                    let parent = &self.spans[p];
                    s.start_ns < parent.start_ns || s.end_ns > parent.end_ns
                })
            })
            .count()
    }

    /// The spans as Chrome `trace_event` JSON (one microsecond per unit).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"job\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.job
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Nanoseconds of `[from, to)` covered by the union of `intervals`.
fn covered_ns(intervals: &mut [(u64, u64)], from: u64, to: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut pos = from;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(pos), e.min(to));
        if e > s {
            covered += e - s;
            pos = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut iv = vec![(15, 30), (10, 20), (40, 50)];
        assert_eq!(covered_ns(&mut iv, 0, 45), 20 + 5);
    }

    #[test]
    fn children_nest_inside_parents() {
        let mut r = Recorder::new();
        r.span("outer", 0, |r| {
            r.span("inner", 0, |_| std::hint::black_box(1 + 1));
        });
        assert_eq!(r.escaped_children(), 0);
        assert_eq!(r.named("inner").next().unwrap().parent, Some(0));
        assert!(r.self_ms("outer") <= r.total_ms("outer"));
    }
}

//! The timed paths: a closed-loop client over `AlignmentService`, and the
//! design-point sweep over `BatchScheduler::run_parallel`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use wfasic_accel::RunReport;
use wfasic_driver::backend::{
    AlignPolicy, AlignmentBackend, BackendBatch, BackendCounters, Capabilities, MultiLaneBackend,
};
use wfasic_driver::batch::{BatchJob, BatchScheduler, LaneHealth};
use wfasic_driver::{AlignmentResult, DriverError};
use wfasic_service::{AlignmentService, ServiceConfig};
use wfasic_soc::fault::FaultPlan;
use wfasic_soc::perf::{attribute_window, PerfCounters, Span, Stage};

use crate::workload::{Round, WINDOW};

/// Per-pair routing tallies of one round (identical on every repeat).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Routes {
    pub pairs: u64,
    pub device: u64,
    pub recovered: u64,
    pub errors: u64,
}

impl Routes {
    fn between(before: &BackendCounters, after: &BackendCounters) -> Self {
        let pairs = after.pairs - before.pairs;
        let recovered = after.recovered_pairs - before.recovered_pairs;
        Routes {
            pairs,
            device: pairs - recovered,
            recovered,
            errors: after.errors - before.errors,
        }
    }
}

/// Wall-clock stamps of one job (or one sweep design point).
#[derive(Debug, Clone, Copy)]
pub struct JobTimes {
    pub submit: Instant,
    /// When the client asked for this job's completion (service only).
    pub start: Instant,
    pub done: Instant,
}

impl JobTimes {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.submit).as_secs_f64() * 1e3
    }
}

/// One pass over a round.
#[derive(Debug)]
pub struct RoundRun {
    pub wall: Duration,
    /// One entry per service job, or per sweep design point.
    pub times: Vec<JobTimes>,
    /// Per job: the answers, or `None` when the job was refused.
    pub results: Vec<Option<Vec<AlignmentResult>>>,
    /// Simulated device cycles the round took.
    pub sim_cycles: u64,
    pub routes: Routes,
    /// Per-stage attribution of `sim_cycles` (when perf collection is on).
    pub sim_stages: PerfCounters,
    /// Two independent tallies of Aligner work: the device reports' own
    /// per-Aligner busy counters, and the Aligner phase spans that perf
    /// collection recorded (0 when it is off).
    pub aligner_busy: u64,
    pub aligner_spans: u64,
}

/// Add a device report's Aligner busy cycles and, when it carries perf
/// spans, their Aligner-phase cycles; return its spans.
fn tally_aligners<'a>(r: &'a RunReport, busy: &mut u64, spans: &mut u64) -> &'a [Span] {
    *busy += r.aligner_busy.iter().sum::<u64>();
    let Some(perf) = &r.perf else { return &[] };
    *spans += perf
        .spans
        .iter()
        .filter(|s| matches!(s.stage, Stage::Compute | Stage::Extend | Stage::ScoreLoop))
        .map(|s| s.end - s.start)
        .sum::<u64>();
    &perf.spans
}

/// The traced run's delegating backend: stamps every `align_batch` call and
/// shares the backend so the benchmark can read its arbiter afterwards.
pub struct Probe {
    pub backend: Rc<RefCell<MultiLaneBackend>>,
    pub calls: Rc<RefCell<Vec<(Instant, Instant)>>>,
}

impl AlignmentBackend for Probe {
    fn capabilities(&self) -> Capabilities {
        self.backend.borrow().capabilities()
    }
    fn align_batch(&mut self, job: &BatchJob) -> Result<BackendBatch, DriverError> {
        let t0 = Instant::now();
        let out = self.backend.borrow_mut().align_batch(job);
        self.calls.borrow_mut().push((t0, Instant::now()));
        out
    }
    fn counters(&self) -> BackendCounters {
        self.backend.borrow().counters()
    }
    fn lane_health(&self) -> Vec<LaneHealth> {
        self.backend.borrow().lane_health()
    }
    fn set_lane_fault_plan(&mut self, lane: usize, plan: FaultPlan) {
        self.backend.borrow_mut().set_lane_fault_plan(lane, plan)
    }
    fn reset_counters(&mut self) {
        self.backend.borrow_mut().reset_counters()
    }
    fn apply_policy(&mut self, policy: &AlignPolicy) {
        self.backend.borrow_mut().apply_policy(policy)
    }
}

pub fn service_config(collect_perf: bool) -> ServiceConfig {
    ServiceConfig {
        policy: AlignPolicy {
            collect_perf,
            ..AlignPolicy::default()
        },
        ..ServiceConfig::default()
    }
}

/// A closed-loop client over the service: `WINDOW` jobs outstanding, the
/// next submitted as soon as one completes, the window drained at the end
/// of the round. `clock` is the SoC's simulated time so far: a long-lived
/// backend keeps one simulated timeline, so a batch reports the cycle at
/// which it ended and the round's cost is the clock's advance.
pub fn service_round(svc: &mut AlignmentService, jobs: &[BatchJob], clock: &mut u64) -> RoundRun {
    let n = jobs.len();
    let before = svc.backend_counters();
    let clock0 = *clock;
    let mut times = Vec::with_capacity(n);
    let mut results = vec![None; n];
    let mut sim_spans = Vec::new();
    let (mut aligner_busy, mut aligner_spans) = (0, 0);
    // Outstanding jobs in submission order: (job index, ticket, submit time).
    let mut window = std::collections::VecDeque::with_capacity(WINDOW);
    let mut next = 0;
    let t0 = Instant::now();
    loop {
        while next < n && window.len() < WINDOW {
            let job = jobs[next].clone();
            let at = Instant::now();
            // A refused submission leaves the job unanswered: it counts as
            // failed when the round is checked.
            if let Ok(ticket) = svc.submit(job) {
                window.push_back((next, ticket, at));
            }
            next += 1;
        }
        let start = Instant::now();
        let Some(done) = svc.try_next() else { break };
        let end = Instant::now();
        let (i, ticket, submit) = window
            .pop_front()
            .expect("a completion has a submitted job");
        assert_eq!(
            ticket, done.ticket,
            "the service completes jobs in submission order"
        );
        times.push(JobTimes {
            submit,
            start,
            done: end,
        });
        if let Ok(batch) = done.outcome {
            *clock = (*clock).max(batch.sim_cycles.unwrap_or(0));
            for r in &batch.reports {
                sim_spans.extend_from_slice(tally_aligners(
                    r,
                    &mut aligner_busy,
                    &mut aligner_spans,
                ));
            }
            results[i] = Some(batch.results);
        }
    }
    let wall = t0.elapsed();
    let sim_stages = attribute_window(&sim_spans, clock0, *clock);
    RoundRun {
        wall,
        times,
        results,
        sim_cycles: *clock - clock0,
        routes: Routes::between(&before, &svc.backend_counters()),
        sim_stages,
        aligner_busy,
        aligner_spans,
    }
}

/// One sweep round: one `run_parallel` call per design point, at `width`.
/// Every job runs on a private driver from cycle 0, so the round's cost is
/// the sum of the jobs' device cycles.
pub fn sweep_round(sched: &BatchScheduler, round: &Round, width: usize) -> RoundRun {
    let mut times = Vec::new();
    let mut results = Vec::with_capacity(round.jobs.len());
    let mut routes = Routes::default();
    let mut sim_cycles = 0;
    let mut sim_stages = PerfCounters::default();
    let (mut aligner_busy, mut aligner_spans) = (0, 0);
    let t0 = Instant::now();
    for point in round.points() {
        let submit = Instant::now();
        let out = sched.run_parallel(point, width);
        let done = Instant::now();
        times.push(JobTimes {
            submit,
            start: submit,
            done,
        });
        for (job, outcome) in point.iter().zip(out) {
            routes.pairs += job.pairs.len() as u64;
            match outcome {
                Ok(r) => {
                    sim_cycles += r.report.total_cycles;
                    tally_aligners(&r.report, &mut aligner_busy, &mut aligner_spans);
                    if let Some(perf) = &r.report.perf {
                        for (stage, c) in perf.counters.iter() {
                            sim_stages.add(stage, c);
                        }
                    }
                    let recovered = r.recovered_count() as u64;
                    routes.recovered += recovered;
                    routes.device += job.pairs.len() as u64 - recovered;
                    results.push(Some(r.results));
                }
                Err(_) => {
                    routes.errors += 1;
                    results.push(None);
                }
            }
        }
    }
    RoundRun {
        wall: t0.elapsed(),
        times,
        results,
        sim_cycles,
        routes,
        sim_stages,
        aligner_busy,
        aligner_spans,
    }
}

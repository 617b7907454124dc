//! Host-throughput benchmark (`report -- host`): wall-clock performance of
//! the simulator itself, as opposed to the simulated cycle counts every
//! other report measures.
//!
//! Three layers, bottom up:
//!
//! * the shared LCP kernel ([`wfa_core::kernel`]) — scalar vs word-parallel
//!   vs the widest SIMD tier the host CPU offers, in bases/sec;
//! * the software WFA oracle ([`CpuWfaBackend`] — the workspace's single
//!   software answer path) — aligns/sec with fresh allocations vs the
//!   reused [`wfa_core::WavefrontArena`];
//! * the end-to-end device path — a differential-sweep-shaped bucket pushed
//!   through [`BatchScheduler::run_parallel`] at 1 thread and at the
//!   requested width, reporting alignments/sec and DP-equivalent cells/sec
//!   (`|a|*|b|` per pair, the paper's §5.5 CUPS convention).
//!
//! Results print as a table and are also emitted as schema-versioned JSON
//! ([`SCHEMA`], default `BENCH_host.json`) so CI can archive them. A
//! committed ratio baseline (`bench/baselines/host.json`) gates the *speedup
//! ratios* — never absolute times, which depend on the machine — with a
//! generous one-sided floor: a ratio may grow freely but must not collapse
//! below [`RATIO_FLOOR`] of its blessed value. Thread counts change wall
//! clock only — every simulated result and cycle count is bit-identical at
//! any width, which the differential sweep and the `run_parallel`
//! bit-identity tests enforce.

use crate::baseline::Metric;
use crate::timing::{measure, measure_for};
use std::path::{Path, PathBuf};
use wfa_core::kernel::{self, KernelDispatch};
use wfa_core::pool::available_threads;
use wfa_core::rng::SmallRng;
use wfa_core::{PackedSeq, Penalties, WavefrontArena};
use wfasic_accel::AccelConfig;
use wfasic_driver::{BatchJob, BatchScheduler, CpuWfaBackend};
use wfasic_seqio::InputSetSpec;

/// Schema tag stamped into the JSON record (bump on layout changes).
pub const SCHEMA: &str = "wfasic-host/1";

/// One-sided gate floor: a measured speedup ratio must stay at or above
/// this fraction of its blessed baseline value (being faster never fails).
pub const RATIO_FLOOR: f64 = 0.5;

/// Least wall-clock sampled per device-path row (repeating the call).
const E2E_MIN_MS: f64 = 200.0;

/// The committed ratio baseline the `--check` gate compares against.
pub fn default_baseline_path() -> PathBuf {
    PathBuf::from("bench/baselines/host.json")
}

/// Options for the host-throughput report.
#[derive(Debug, Clone)]
pub struct HostOptions {
    /// Shrink the workload for CI smoke runs.
    pub quick: bool,
    /// Pool width for the parallel end-to-end measurement (0 = all host
    /// threads).
    pub threads: usize,
    /// Where to write the JSON record (`None` = `BENCH_host.json`).
    pub out: Option<PathBuf>,
    /// RNG seed for the generated workloads.
    pub seed: u64,
}

impl Default for HostOptions {
    fn default() -> Self {
        HostOptions {
            quick: false,
            threads: 0,
            out: None,
            seed: 0x1057_BEEF,
        }
    }
}

/// One measured throughput point.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    /// Wall-clock seconds for the measured unit of work (p50).
    pub seconds: f64,
    /// Alignments completed per second.
    pub aligns_per_sec: f64,
    /// DP-equivalent cells per second (`|a|*|b|` per pair).
    pub cells_per_sec: f64,
}

/// Everything one benchmark run measured, ready to render or gate.
#[derive(Debug, Clone)]
pub struct HostOutcome {
    /// Parallel width the device path was measured at.
    pub threads: usize,
    /// Quick (CI) tier or the full workload?
    pub quick: bool,
    /// Workload seed.
    pub seed: u64,
    /// Layer 1: scalar bytes kernel, Gbases/s.
    pub scalar_gbps: f64,
    /// Layer 1: word-parallel packed kernel, Gbases/s.
    pub word_gbps: f64,
    /// Layer 1: widest available SIMD tier on packed data, Gbases/s.
    pub simd_gbps: f64,
    /// Layer 1 peak: word-parallel kernel on long identical runs, Gbases/s.
    pub peak_word_gbps: f64,
    /// Layer 1 peak: SIMD tier on long identical runs, Gbases/s.
    pub peak_simd_gbps: f64,
    /// Which tier [`KernelDispatch::Auto`] resolved to on this host.
    pub simd_tier: &'static str,
    /// Layer 2: oracle with a fresh arena per pair, aligns/s.
    pub fresh_aps: f64,
    /// Layer 2: oracle with one arena threaded through the set, aligns/s.
    pub arena_aps: f64,
    /// Layer 3: device path at width 1.
    pub one: Throughput,
    /// Layer 3: device path at `threads`.
    pub many: Throughput,
    /// The human-readable table.
    pub text: String,
}

impl HostOutcome {
    /// SIMD-over-word kernel speedup on the realistic run-length workload.
    pub fn simd_over_word(&self) -> f64 {
        self.simd_gbps / self.word_gbps
    }

    /// SIMD-over-word kernel speedup at peak (long identical runs — the
    /// workload where vector width is the limit, not per-call overhead).
    pub fn simd_over_word_peak(&self) -> f64 {
        self.peak_simd_gbps / self.peak_word_gbps
    }

    /// Word-over-scalar kernel speedup.
    pub fn word_over_scalar(&self) -> f64 {
        self.word_gbps / self.scalar_gbps
    }

    /// Device-path speedup of width N over width 1.
    pub fn speedup_n_over_1(&self) -> f64 {
        self.one.seconds / self.many.seconds
    }
}

fn related_bytes(rng: &mut SmallRng, len: usize) -> (Vec<u8>, Vec<u8>) {
    let a: Vec<u8> = (0..len).map(|_| b"ACGT"[rng.gen_range(0, 4)]).collect();
    let mut b = a.clone();
    for base in b.iter_mut() {
        if rng.gen_bool(0.02) {
            *base = b"ACGT"[rng.gen_range(0, 4)];
        }
    }
    (a, b)
}

/// Sum LCPs from `probes` seeded start positions (the measured work unit
/// for the kernel layer). Both sequences are probed at the same position —
/// they are a mutated copy of each other, so runs have realistic
/// extend-step lengths instead of dying on the first unrelated base.
fn lcp_sweep(f: impl Fn(usize, usize) -> usize, len: usize, probes: usize, seed: u64) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut total = 0u64;
    for _ in 0..probes {
        let i = rng.gen_range(0, len);
        total += f(i, i) as u64;
    }
    total
}

/// Run the full measurement and return the structured outcome.
pub fn run(opts: &HostOptions) -> HostOutcome {
    let threads = if opts.threads == 0 {
        available_threads()
    } else {
        opts.threads
    };
    let mut out = String::new();
    out.push_str("== Host throughput (simulator wall clock) ==\n");
    out.push_str(&format!(
        "host threads available: {}; parallel width measured: {}\n\n",
        available_threads(),
        threads
    ));

    // --- Layer 1: the shared LCP kernel, scalar vs word vs SIMD. ---
    let kernel_len = if opts.quick { 20_000 } else { 100_000 };
    let probes = if opts.quick { 2_000 } else { 10_000 };
    let iters = if opts.quick { 3 } else { 8 };
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let (ka, kb) = related_bytes(&mut rng, kernel_len);
    let (pa, pb) = (
        PackedSeq::from_ascii(&ka).expect("ACGT only"),
        PackedSeq::from_ascii(&kb).expect("ACGT only"),
    );
    let simd_tier = KernelDispatch::Auto.resolve();

    let bases_scalar = lcp_sweep(
        |i, j| kernel::lcp_bytes_scalar(&ka, &kb, i, j),
        kernel_len,
        probes,
        opts.seed,
    );
    let t_scalar = measure(iters, || {
        lcp_sweep(
            |i, j| kernel::lcp_bytes_scalar(&ka, &kb, i, j),
            kernel_len,
            probes,
            opts.seed,
        )
    });
    let bases_word = lcp_sweep(
        |i, j| kernel::lcp_packed_word(&pa, &pb, i, j),
        kernel_len,
        probes,
        opts.seed,
    );
    let bases_simd = lcp_sweep(
        |i, j| kernel::lcp_packed_simd(&pa, &pb, i, j),
        kernel_len,
        probes,
        opts.seed,
    );
    assert!(
        bases_scalar == bases_word && bases_word == bases_simd,
        "kernel tiers must agree on the measured workload"
    );
    let t_word = measure(iters, || {
        lcp_sweep(
            |i, j| kernel::lcp_packed_word(&pa, &pb, i, j),
            kernel_len,
            probes,
            opts.seed,
        )
    });
    let t_simd = measure(iters, || {
        lcp_sweep(
            |i, j| kernel::lcp_packed_simd(&pa, &pb, i, j),
            kernel_len,
            probes,
            opts.seed,
        )
    });
    let scalar_gbps = bases_scalar as f64 / (t_scalar.p50_ms / 1e3) / 1e9;
    let word_gbps = bases_word as f64 / (t_word.p50_ms / 1e3) / 1e9;
    let simd_gbps = bases_simd as f64 / (t_simd.p50_ms / 1e3) / 1e9;
    out.push_str(&format!(
        "LCP kernel ({kernel_len} bp, {probes} probes, 2% divergence):\n\
         \x20 scalar        {scalar_gbps:6.2} Gbases/s\n\
         \x20 word-parallel {word_gbps:6.2} Gbases/s ({:.1}x scalar)\n\
         \x20 {:<13} {simd_gbps:6.2} Gbases/s ({:.1}x word)\n",
        word_gbps / scalar_gbps,
        simd_tier.name(),
        simd_gbps / word_gbps,
    ));

    // Peak kernel throughput: probe an identical copy, so every run goes to
    // the sequence end (mean length `kernel_len/2`). Short WFA-shaped runs
    // above are bounded by per-call overhead on every tier; long runs are
    // bounded by compare width, which is what separates the tiers.
    let peak_probes = if opts.quick { 40 } else { 200 };
    let bases_peak_word = lcp_sweep(
        |i, j| kernel::lcp_packed_word(&pa, &pa, i, j),
        kernel_len,
        peak_probes,
        opts.seed ^ 0x9E,
    );
    let bases_peak_simd = lcp_sweep(
        |i, j| kernel::lcp_packed_simd(&pa, &pa, i, j),
        kernel_len,
        peak_probes,
        opts.seed ^ 0x9E,
    );
    assert_eq!(
        bases_peak_word, bases_peak_simd,
        "kernel tiers must agree on the peak workload"
    );
    let t_peak_word = measure(iters, || {
        lcp_sweep(
            |i, j| kernel::lcp_packed_word(&pa, &pa, i, j),
            kernel_len,
            peak_probes,
            opts.seed ^ 0x9E,
        )
    });
    let t_peak_simd = measure(iters, || {
        lcp_sweep(
            |i, j| kernel::lcp_packed_simd(&pa, &pa, i, j),
            kernel_len,
            peak_probes,
            opts.seed ^ 0x9E,
        )
    });
    let peak_word_gbps = bases_peak_word as f64 / (t_peak_word.p50_ms / 1e3) / 1e9;
    let peak_simd_gbps = bases_peak_simd as f64 / (t_peak_simd.p50_ms / 1e3) / 1e9;
    out.push_str(&format!(
        "LCP kernel peak ({kernel_len} bp identical, {peak_probes} probes):\n\
         \x20 word-parallel {peak_word_gbps:6.2} Gbases/s\n\
         \x20 {:<13} {peak_simd_gbps:6.2} Gbases/s ({:.1}x word)\n",
        simd_tier.name(),
        peak_simd_gbps / peak_word_gbps,
    ));

    // --- Layer 2: the software WFA oracle, fresh vs arena-reused. ---
    let spec = if opts.quick {
        InputSetSpec {
            length: 150,
            error_pct: 5,
        }
    } else {
        InputSetSpec {
            length: 600,
            error_pct: 5,
        }
    };
    let oracle_pairs = spec
        .generate(if opts.quick { 16 } else { 64 }, opts.seed ^ 0x0A)
        .pairs;
    // Both variants route through the unified software answer path
    // ([`CpuWfaBackend::align_pair_in`]): fresh allocates a new arena per
    // pair; arena-reused threads one arena through the whole set.
    let t_fresh = measure(iters, || {
        let mut acc = 0u64;
        for p in &oracle_pairs {
            let mut arena = WavefrontArena::new();
            let r = CpuWfaBackend::align_pair_in(&mut arena, Penalties::default(), p, true, false);
            acc += r.score as u64;
        }
        acc
    });
    let t_arena = measure(iters, || {
        let mut cpu = CpuWfaBackend::new(Penalties::default());
        let mut acc = 0u64;
        for p in &oracle_pairs {
            acc += cpu.align_pair(p, true).score as u64;
        }
        acc
    });
    let fresh_aps = oracle_pairs.len() as f64 / (t_fresh.p50_ms / 1e3);
    let arena_aps = oracle_pairs.len() as f64 / (t_arena.p50_ms / 1e3);
    out.push_str(&format!(
        "WFA oracle ({} x {}): fresh {fresh_aps:.0} aligns/s, arena-reused \
         {arena_aps:.0} aligns/s ({:+.1}%)\n",
        oracle_pairs.len(),
        spec.name(),
        (arena_aps / fresh_aps - 1.0) * 100.0
    ));

    // --- Layer 3: end-to-end device path at 1 and N threads. ---
    let e2e_spec = if opts.quick {
        InputSetSpec {
            length: 150,
            error_pct: 5,
        }
    } else {
        InputSetSpec {
            length: 600,
            error_pct: 10,
        }
    };
    let e2e_pairs = e2e_spec
        .generate(if opts.quick { 56 } else { 224 }, opts.seed ^ 0xE2)
        .pairs;
    let e2e_cells: u64 = e2e_pairs
        .iter()
        .map(|p| p.a.len() as u64 * p.b.len() as u64)
        .sum();
    let jobs: Vec<BatchJob> = e2e_pairs
        .chunks(28)
        .map(|c| BatchJob::with_backtrace(c.to_vec()))
        .collect();
    let sched = BatchScheduler::new(AccelConfig::wfasic_chip(), 1);
    let e2e_iters = if opts.quick { 1 } else { 2 };
    let run_at = |width: usize| -> Throughput {
        // A quick-tier call takes a few ms: repeat it until at least
        // E2E_MIN_MS are sampled and take the median.
        let t = measure_for(e2e_iters, E2E_MIN_MS, || {
            let results = sched.run_parallel(&jobs, width);
            assert!(results.iter().all(|r| r.is_ok()), "device jobs must pass");
            results.len()
        });
        let secs = t.p50_ms / 1e3;
        Throughput {
            seconds: secs,
            aligns_per_sec: e2e_pairs.len() as f64 / secs,
            cells_per_sec: e2e_cells as f64 / secs,
        }
    };
    let one = run_at(1);
    // Width 1 *is* the inline path ([`wfa_core::pool::ThreadPool::map`]
    // runs single-width inline, no channels); re-measuring it would only
    // report wall-clock jitter as a fake speedup/slowdown.
    let many = if threads == 1 { one } else { run_at(threads) };
    out.push_str(&format!(
        "device path ({} x {}, BT on):\n",
        e2e_pairs.len(),
        e2e_spec.name()
    ));
    out.push_str(&format!(
        "  1 thread : {:>8.0} aligns/s  {:>7.3} GCells/s  ({:.3} s)\n",
        one.aligns_per_sec,
        one.cells_per_sec / 1e9,
        one.seconds
    ));
    out.push_str(&format!(
        "  {threads} threads: {:>8.0} aligns/s  {:>7.3} GCells/s  ({:.3} s, {:.2}x)\n",
        many.aligns_per_sec,
        many.cells_per_sec / 1e9,
        many.seconds,
        one.seconds / many.seconds
    ));

    HostOutcome {
        threads,
        quick: opts.quick,
        seed: opts.seed,
        scalar_gbps,
        word_gbps,
        simd_gbps,
        peak_word_gbps,
        peak_simd_gbps,
        simd_tier: simd_tier.name(),
        fresh_aps,
        arena_aps,
        one,
        many,
        text: out,
    }
}

/// Run the benchmark, print the table, and write the JSON record (the
/// plain `report -- host` path).
pub fn host_report(opts: &HostOptions) -> String {
    let outcome = run(opts);
    let mut out = outcome.text.clone();
    let json = render_json(&outcome);
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCH_host.json"));
    write_json(&path, &json, &mut out);
    out
}

fn write_json(path: &Path, json: &str, log: &mut String) {
    match std::fs::write(path, json) {
        Ok(()) => log.push_str(&format!("\nwrote {}\n", path.display())),
        Err(e) => log.push_str(&format!("\nfailed to write {}: {e}\n", path.display())),
    }
}

/// Render the schema-versioned JSON record.
pub fn render_json(o: &HostOutcome) -> String {
    // Hand-rolled JSON (no external crates in the offline build).
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"{}\",\n",
            "  \"host\": {{\"threads_available\": {}, \"threads_measured\": {}, ",
            "\"quick\": {}, \"seed\": {}}},\n",
            "  \"kernel\": {{\"scalar_gbases_per_sec\": {:.4}, ",
            "\"word_parallel_gbases_per_sec\": {:.4}, ",
            "\"simd_gbases_per_sec\": {:.4}, \"simd_tier\": \"{}\", ",
            "\"peak_word_gbases_per_sec\": {:.4}, ",
            "\"peak_simd_gbases_per_sec\": {:.4}, ",
            "\"speedup_word_over_scalar\": {:.3}, ",
            "\"speedup_simd_over_word\": {:.3}, ",
            "\"speedup_simd_over_word_peak\": {:.3}}},\n",
            "  \"oracle\": {{\"fresh_aligns_per_sec\": {:.2}, ",
            "\"arena_aligns_per_sec\": {:.2}}},\n",
            "  \"device_path\": {{\n",
            "    \"threads_1\": {{\"seconds\": {:.4}, \"aligns_per_sec\": {:.2}, ",
            "\"cells_per_sec\": {:.1}}},\n",
            "    \"threads_n\": {{\"threads\": {}, \"seconds\": {:.4}, ",
            "\"aligns_per_sec\": {:.2}, \"cells_per_sec\": {:.1}}},\n",
            "    \"speedup_n_over_1\": {:.3}\n",
            "  }}\n",
            "}}\n"
        ),
        SCHEMA,
        available_threads(),
        o.threads,
        o.quick,
        o.seed,
        o.scalar_gbps,
        o.word_gbps,
        o.simd_gbps,
        o.simd_tier,
        o.peak_word_gbps,
        o.peak_simd_gbps,
        o.word_over_scalar(),
        o.simd_over_word(),
        o.simd_over_word_peak(),
        o.fresh_aps,
        o.arena_aps,
        o.one.seconds,
        o.one.aligns_per_sec,
        o.one.cells_per_sec,
        o.threads,
        o.many.seconds,
        o.many.aligns_per_sec,
        o.many.cells_per_sec,
        o.speedup_n_over_1(),
    )
}

/// The gated metrics: *speedup ratios only*. Absolute throughput depends
/// on the machine and never gates.
pub fn metrics(o: &HostOutcome) -> Vec<Metric> {
    vec![
        Metric {
            name: "host/kernel/speedup_word_over_scalar".into(),
            value: o.word_over_scalar(),
        },
        Metric {
            name: "host/kernel/speedup_simd_over_word".into(),
            value: o.simd_over_word(),
        },
        Metric {
            name: "host/kernel/speedup_simd_over_word_peak".into(),
            value: o.simd_over_word_peak(),
        },
        Metric {
            name: "host/device/speedup_n_over_1".into(),
            value: o.speedup_n_over_1(),
        },
    ]
}

/// One-sided ratio-floor comparison: each measured ratio must be at least
/// [`RATIO_FLOOR`] × its baseline value. Returns the report text and the
/// number of failures. A baseline metric missing from the measurement (or
/// vice versa) fails — the gate must notice renames.
pub fn floor_check(base: &[Metric], measured: &[Metric]) -> (String, usize) {
    let mut text = String::new();
    let mut failures = 0usize;
    let find = |set: &[Metric], name: &str| set.iter().find(|m| m.name == name).map(|m| m.value);
    let mut names: Vec<String> = base.iter().map(|m| m.name.clone()).collect();
    for m in measured {
        if !names.contains(&m.name) {
            names.push(m.name.clone());
        }
    }
    for name in &names {
        match (find(base, name), find(measured, name)) {
            (Some(b), Some(m)) => {
                let floor = b * RATIO_FLOOR;
                let ok = m >= floor;
                if !ok {
                    failures += 1;
                }
                text.push_str(&format!(
                    "{}  {name:<42} baseline {b:>8.3}  measured {m:>8.3}  floor {floor:>8.3}\n",
                    if ok { "  ok " } else { "FAIL " },
                ));
            }
            (Some(b), None) => {
                failures += 1;
                text.push_str(&format!(
                    "FAIL  {name:<42} baseline {b:>8.3}  measured  (missing)\n"
                ));
            }
            (None, Some(m)) => {
                failures += 1;
                text.push_str(&format!(
                    "FAIL  {name:<42} baseline  (missing)  measured {m:>8.3}\n"
                ));
            }
            (None, None) => {}
        }
    }
    (text, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_host_report_runs_and_writes_json() {
        let dir = std::env::temp_dir().join("wfasic_host_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_host.json");
        let opts = HostOptions {
            quick: true,
            threads: 2,
            out: Some(path.clone()),
            ..HostOptions::default()
        };
        let report = host_report(&opts);
        assert!(report.contains("LCP kernel"));
        assert!(report.contains("device path"));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"schema\": \"wfasic-host/1\""));
        assert!(json.contains("\"threads_measured\": 2"));
        assert!(json.contains("\"simd_tier\""));
        assert!(json.contains("\"speedup_simd_over_word\""));
        assert!(json.contains("\"speedup_simd_over_word_peak\""));
        assert!(json.contains("\"speedup_n_over_1\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn width_1_speedup_is_exactly_one() {
        // The threads==1 path reuses the width-1 measurement instead of
        // re-measuring it (jitter used to report speedups like 0.974 for
        // identical work).
        let opts = HostOptions {
            quick: true,
            threads: 1,
            out: Some(std::env::temp_dir().join("wfasic_host_w1.json")),
            ..HostOptions::default()
        };
        let o = run(&opts);
        assert_eq!(o.speedup_n_over_1(), 1.0);
    }

    #[test]
    fn floor_check_passes_equal_and_better_fails_collapse() {
        let base = vec![
            Metric {
                name: "host/kernel/speedup_simd_over_word".into(),
                value: 2.0,
            },
            Metric {
                name: "host/device/speedup_n_over_1".into(),
                value: 1.0,
            },
        ];
        // Identical → pass; better → pass.
        let (_, f) = floor_check(&base, &base);
        assert_eq!(f, 0);
        let better = vec![
            Metric {
                name: "host/kernel/speedup_simd_over_word".into(),
                value: 3.5,
            },
            Metric {
                name: "host/device/speedup_n_over_1".into(),
                value: 1.0,
            },
        ];
        let (_, f) = floor_check(&base, &better);
        assert_eq!(f, 0);
        // Collapse below the floor → fail.
        let collapsed = vec![
            Metric {
                name: "host/kernel/speedup_simd_over_word".into(),
                value: 0.9,
            },
            Metric {
                name: "host/device/speedup_n_over_1".into(),
                value: 1.0,
            },
        ];
        let (text, f) = floor_check(&base, &collapsed);
        assert_eq!(f, 1, "{text}");
        // Missing metric → fail.
        let (_, f) = floor_check(&base, &base[..1]);
        assert_eq!(f, 1);
    }

    #[test]
    fn pool_helper_is_reexported() {
        // `wfasic_bench::pool` must expose the shared pool (ISSUE contract).
        let p = crate::pool::ThreadPool::new(3);
        assert_eq!(p.threads(), 3);
    }
}

//! The repository benchmark: two workloads through the program's public
//! entry points, every answer checked against the software oracle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload short-bt|sweep-nbt --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! jobs untraced, then traced, then replays part of a round layer by
//! layer, and prints the per-layer metrics. The last line of stdout is the result
//! object; the line before it is the run's record (host fingerprint, checks,
//! all figures). See `perfbench/README.md`.

mod calib;
mod replay;
mod run;
mod trace;
mod workload;

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use wfa_core::kernel::KernelDispatch;
use wfasic_driver::backend::{BackendKind, MultiLaneBackend};
use wfasic_driver::batch::BatchScheduler;
use wfasic_service::AlignmentService;
use wfasic_soc::arbiter::ArbiterStats;
use wfasic_soc::perf::Stage;

use calib::Calibration;
use replay::median;
use run::{service_config, service_round, sweep_round, Probe, RoundRun, Routes};
use trace::Recorder;
use workload::{accel, Round, Tally, Workload, LANES};

/// Set-ups timed at the start of a pass, and after each timed round;
/// `setup_s` is the median of them all, in reference seconds.
const SETUP_REPEATS: usize = 15;
const SETUP_PER_ROUND: usize = 5;
/// Fewest jobs (or design points) in a round, so that at least ten
/// latency samples lie beyond p90.
const MIN_SAMPLES: usize = 100;
/// Fewest timed rounds in a pass, for the repeat checks.
const MIN_ROUNDS: usize = 3;
/// Service jobs (or sweep design points) run before timing starts.
const WARMUP: usize = 6;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload short-bt|sweep-nbt --seed N --seconds S --trace 0|1");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Workload::parse(val),
            "--seed" => seed = val.parse::<u64>().ok(),
            "--seconds" => {
                seconds = val
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
            }
            "--trace" => trace = matches!(val.as_str(), "0" | "1").then(|| val == "1"),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is missing or unknown")),
        seed: seed.unwrap_or_else(|| usage("--seed is missing or not a number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is missing or not positive")),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
    }
}

/// Linear-interpolated percentile (`q` in 0..=1) of unsorted samples.
fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which a correct run never produces)
/// become `null` and fail the run.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The host and build a record was measured on.
fn fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .and_then(|r| r.split(':').nth(1))
        })
        .map_or("unknown", str::trim);
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    format!(
        "{{\"cpu\":{},\"nproc\":{},\"kernel_tier\":{},\"active_tier\":{},\"wfasic_kernel\":{},\"profile\":{},\"commit\":{},\"source_digest\":{}}}",
        json_str(cpu),
        wfa_core::pool::available_threads(),
        json_str(KernelDispatch::Auto.resolve().name()),
        json_str(wfa_core::kernel::kernel_dispatch().name()),
        std::env::var("WFASIC_KERNEL").map_or("null".into(), |v| json_str(&v)),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(&git_head(&root).unwrap_or_else(|| "unknown".into())),
        json_str(&source_digest(&root)),
    )
}

/// The checked-out commit, read from `.git` without running git (a
/// benchmark checkout usually has no `.git`).
fn git_head(root: &std::path::Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.trim().to_string()),
    }
}

/// FNV-1a over the workspace sources (`Cargo.*`, `crates/`, `perfbench/src`),
/// which identifies the code even where no commit is recorded.
fn source_digest(root: &std::path::Path) -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Time `n` constructions into `samples` and keep the last object.
/// `setup_s` is the median of samples taken at the start of the pass and
/// again after every timed round, so it does not rest on one moment of a
/// noisy host.
fn setup<T>(samples: &mut Vec<f64>, n: usize, mut build: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        samples.push(t.elapsed().as_secs_f64());
    }
    last.expect("set-up ran")
}

/// The timed rounds of one pass. The host figures cover the whole timed
/// region: every job latency in it, and its total wall time.
struct Pass {
    rounds: Vec<RoundRun>,
    tally: Tally,
    /// Jobs the client submitted, warm-up included.
    jobs: u64,
    round_pairs: usize,
    /// Calibration times in seconds: one before the first timed round and
    /// one after each, so round `k` lies between `calib[k]` and
    /// `calib[k + 1]`.
    calib: Vec<f64>,
    /// `VmHWM` once `MIN_ROUNDS` rounds have been timed: the peak for a
    /// fixed amount of work, however many rounds the host fits in the run.
    rss_mb: f64,
}

impl Pass {
    fn new() -> Self {
        Pass {
            rounds: Vec::new(),
            tally: Tally::default(),
            jobs: 0,
            round_pairs: 0,
            calib: Vec::new(),
            rss_mb: 0.0,
        }
    }

    /// Check a round's answers against the oracle (outside the timed
    /// region); `timed` rounds count towards the figures.
    fn absorb(&mut self, round: &Round, mut r: RoundRun, timed: bool) {
        let p = accel().penalties;
        for ((job, want), got) in round.jobs.iter().zip(&round.oracle).zip(&r.results) {
            self.tally
                .add(workload::check(job, want, got.as_deref(), &p));
            self.jobs += 1;
        }
        // Only one round's answers are held at a time, so peak memory does
        // not grow with the number of rounds the host fits in the run.
        r.results = Vec::new();
        if timed {
            self.round_pairs = round.pairs();
            self.rounds.push(r);
        }
    }

    /// With `to_ref`, reference seconds per wall second in timed round
    /// `k`: the reference host's calibration time over the mean of the two
    /// taken around the round. Otherwise 1.
    fn scale(&self, k: usize, to_ref: bool) -> f64 {
        if to_ref {
            calib::REFERENCE_S / ((self.calib[k] + self.calib[k + 1]) / 2.0)
        } else {
            1.0
        }
    }

    /// The latency of every job of the timed region, in ms; with `to_ref`,
    /// in reference ms.
    fn latencies_ms(&self, to_ref: bool) -> Vec<f64> {
        let mut out = Vec::new();
        for (k, r) in self.rounds.iter().enumerate() {
            let scale = self.scale(k, to_ref);
            out.extend(r.times.iter().map(|t| t.latency_ms() * scale));
        }
        out
    }

    /// Verified pairs per second over the timed region; with `to_ref`, per
    /// reference second.
    fn pairs_per_s(&self, to_ref: bool) -> f64 {
        let secs: f64 = self
            .rounds
            .iter()
            .enumerate()
            .map(|(k, r)| r.wall.as_secs_f64() * self.scale(k, to_ref))
            .sum();
        let verified = self.tally.verified() as f64 / self.tally.attempted as f64;
        verified * (self.round_pairs * self.rounds.len()) as f64 / secs
    }

    fn first(&self) -> &RoundRun {
        &self.rounds[0]
    }

    /// Every repeat of the round reproduced the first one's simulated
    /// cycles and routing.
    fn repeats_identical(&self) -> bool {
        let first = self.first();
        self.rounds
            .iter()
            .all(|r| r.sim_cycles == first.sim_cycles && r.routes == first.routes)
    }
}

/// Repeat `one` until `seconds` of timed work and at least `MIN_ROUNDS`
/// rounds have run, timing the calibration at `width` threads before the
/// first round and after each.
fn timed(
    round: &Round,
    seconds: f64,
    width: usize,
    pass: &mut Pass,
    mut one: impl FnMut() -> RoundRun,
) {
    let cal = Calibration::new();
    cal.measure(width); // warm-up
    pass.calib.push(cal.measure(width));
    let mut spent = 0.0;
    while spent < seconds || pass.rounds.len() < MIN_ROUNDS {
        let r = one();
        pass.calib.push(cal.measure(width));
        spent += r.wall.as_secs_f64();
        pass.absorb(round, r, true);
        if pass.rounds.len() == MIN_ROUNDS {
            pass.rss_mb = peak_rss_mb();
        }
    }
}

type Calls = Rc<RefCell<Vec<(Instant, Instant)>>>;

/// A service and, when traced, the probe's shared handles.
struct Service {
    svc: AlignmentService,
    probe: Option<(Rc<RefCell<MultiLaneBackend>>, Calls)>,
    clock: u64,
}

impl Service {
    fn build(traced: bool) -> Self {
        let cfg = service_config(traced);
        if !traced {
            let svc = AlignmentService::with_backend(BackendKind::MultiLane, accel(), LANES, cfg);
            return Service {
                svc,
                probe: None,
                clock: 0,
            };
        }
        let backend = Rc::new(RefCell::new(MultiLaneBackend::new(accel(), LANES)));
        let calls = Calls::default();
        let probe = Probe {
            backend: backend.clone(),
            calls: calls.clone(),
        };
        Service {
            svc: AlignmentService::new(Box::new(probe), cfg),
            probe: Some((backend, calls)),
            clock: 0,
        }
    }

    fn arbiter(&self) -> ArbiterStats {
        self.probe
            .as_ref()
            .map_or_else(ArbiterStats::default, |(b, _)| {
                b.borrow().sched.soc.arbiter_stats()
            })
    }
}

/// Arbiter activity between two snapshots: grants, wait and busy cycles.
fn arbiter_delta(a: &ArbiterStats, b: &ArbiterStats) -> [u64; 3] {
    [
        b.grants() - a.grants(),
        b.wait_cycles() - a.wait_cycles(),
        b.busy_cycles() - a.busy_cycles(),
    ]
}

/// One pass of the workload: set-up, warm-up, then timed rounds.
struct PassOut {
    pass: Pass,
    /// Median set-up time, wall clock.
    setup_wall_s: f64,
    /// The pass's first construction, the only one on a cold process.
    setup_cold_s: f64,
    service: Option<Service>,
    /// Per timed round (traced service passes only).
    arbiter: Vec<[u64; 3]>,
}

fn run_pass(workload: Workload, round: &Round, seconds: f64, traced: bool) -> PassOut {
    let mut pass = Pass::new();
    let mut setup_samples = Vec::new();
    let width = wfa_core::pool::available_threads();
    if !workload.is_service() {
        let build = || BatchScheduler::new(accel(), 1);
        let mut sched = setup(&mut setup_samples, SETUP_REPEATS, build);
        sched.collect_perf = traced;
        let warm = Round {
            jobs: round.jobs[..workload::SWEEP_JOBS_PER_POINT].to_vec(),
            oracle: round.oracle[..workload::SWEEP_JOBS_PER_POINT].to_vec(),
        };
        for _ in 0..WARMUP {
            pass.absorb(&warm, sweep_round(&sched, &warm, width), false);
        }
        timed(round, seconds, width, &mut pass, || {
            let r = sweep_round(&sched, round, width);
            setup(&mut setup_samples, SETUP_PER_ROUND, build);
            r
        });
        return PassOut {
            pass,
            setup_cold_s: setup_samples[0],
            setup_wall_s: median(setup_samples),
            service: None,
            arbiter: Vec::new(),
        };
    }
    let build = || Service::build(traced);
    let mut s = setup(&mut setup_samples, SETUP_REPEATS, build);
    let warm = Round {
        jobs: round.jobs[..WARMUP].to_vec(),
        oracle: round.oracle[..WARMUP].to_vec(),
    };
    let r = service_round(&mut s.svc, &warm.jobs, &mut s.clock);
    pass.absorb(&warm, r, false);
    if let Some((_, calls)) = &s.probe {
        calls.borrow_mut().clear();
    }
    let mut arbiter = Vec::new();
    // The client and the service share one thread.
    timed(round, seconds, 1, &mut pass, || {
        let a0 = s.arbiter();
        let r = service_round(&mut s.svc, &round.jobs, &mut s.clock);
        arbiter.push(arbiter_delta(&a0, &s.arbiter()));
        setup(&mut setup_samples, SETUP_PER_ROUND, build);
        r
    });
    PassOut {
        pass,
        setup_cold_s: setup_samples[0],
        setup_wall_s: median(setup_samples),
        service: Some(s),
        arbiter,
    }
}

/// Metric list entry: name, value, unit.
type Metric = (String, f64, &'static str);

/// End-to-end metrics the record carries but the result line leaves out:
/// the wall-clock figures. Across runs on a shared host their spread went
/// past the largest bound a listed metric may have; the listed figures are
/// the same in reference time (see README).
const RECORD_ONLY: [&str; 4] = ["pairs_per_s", "job_p50_ms", "job_p90_ms", "setup_wall_s"];

fn e2e_metrics(out: &PassOut) -> Vec<Metric> {
    let pass = &out.pass;
    let lat = pass.latencies_ms(false);
    let lat_ref = pass.latencies_ms(true);
    vec![
        (
            "pairs_per_ref_s".into(),
            pass.pairs_per_s(true),
            "pairs/ref_s",
        ),
        (
            "job_p50_ref_ms".into(),
            percentile(&lat_ref, 0.50),
            "ref_ms",
        ),
        (
            "job_p90_ref_ms".into(),
            percentile(&lat_ref, 0.90),
            "ref_ms",
        ),
        ("pairs_per_s".into(), pass.pairs_per_s(false), "pairs/s"),
        ("job_p50_ms".into(), percentile(&lat, 0.50), "ms"),
        ("job_p90_ms".into(), percentile(&lat, 0.90), "ms"),
        (
            "setup_s".into(),
            out.setup_wall_s * calib::REFERENCE_S / median(pass.calib.clone()),
            "s",
        ),
        ("setup_wall_s".into(), out.setup_wall_s, "s"),
        ("peak_rss_mb".into(), pass.rss_mb, "MiB"),
        (
            "sim_cycles".into(),
            pass.first().sim_cycles as f64,
            "cycles",
        ),
        (
            "verified_ratio".into(),
            pass.tally.verified() as f64 / pass.tally.attempted as f64,
            "ratio",
        ),
    ]
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Named pass/fail checks of a run.
#[derive(Default)]
struct Checks(Vec<(&'static str, bool)>);

impl Checks {
    fn add(&mut self, name: &'static str, ok: bool) {
        self.0.push((name, ok));
    }
    fn all(&self) -> bool {
        self.0.iter().all(|(_, ok)| *ok)
    }
    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, ok)| format!("{}:{ok}", json_str(n)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

fn routes_json(r: &Routes) -> String {
    format!(
        "{{\"pairs\":{},\"device\":{},\"recovered\":{},\"errors\":{}}}",
        r.pairs, r.device, r.recovered, r.errors
    )
}

/// The traced run: an untraced pass, a traced pass on a fresh set-up, the
/// layer replay, then the per-layer metrics. Also returns the traced pass
/// and the untraced pass's answer tally.
fn traced_run(
    args: &Args,
    round: &Round,
    checks: &mut Checks,
) -> (Vec<Metric>, PassOut, Tally, String) {
    let workload = args.workload;
    let width = wfa_core::pool::available_threads();
    let mut rec = Recorder::new();
    let plain = run_pass(workload, round, args.seconds / 2.0, false);
    let traced = run_pass(workload, round, args.seconds / 2.0, true);
    let (pp, tp) = (&plain.pass, &traced.pass);
    let first = tp.first();
    let routes = first.routes;
    checks.add(
        "traced_sim_cycles_match_untraced",
        first.sim_cycles == pp.first().sim_cycles,
    );
    checks.add("traced_routes_match_untraced", routes == pp.first().routes);
    checks.add("traced_repeats_identical", tp.repeats_identical());
    checks.add("untraced_repeats_identical", pp.repeats_identical());
    // Grants and port occupancy repeat exactly. Arbitration wait does not:
    // the backend keeps one port timeline for its lifetime while each batch
    // starts its lanes at cycle 0, so a batch's wait includes all earlier
    // traffic. The record lists the wait per round.
    let arb = traced.arbiter.first().copied().unwrap_or_default();
    checks.add(
        "arbiter_grants_and_busy_repeat",
        traced
            .arbiter
            .iter()
            .all(|a| a[0] == arb[0] && a[2] == arb[2]),
    );
    checks.add(
        "route_counts_sum_to_pairs",
        routes.pairs == round.pairs() as u64 && routes.device + routes.recovered == routes.pairs,
    );
    // The stage attribution covers the round's cycles by construction; what
    // can fail is the perf spans it is built from. The device reports count
    // each Aligner's busy cycles on their own, so the recorded Aligner spans
    // must add up to them, and the Aligner stages (the union of the
    // Aligners' activity) can be no more than their sum.
    checks.add(
        "sim_stages_sum_to_sim_cycles",
        first.sim_stages.total() == first.sim_cycles,
    );
    checks.add(
        "aligner_spans_match_aligner_busy",
        tp.rounds.iter().all(|r| {
            let s = &r.sim_stages;
            let union = s.get(Stage::Compute) + s.get(Stage::Extend) + s.get(Stage::ScoreLoop);
            r.aligner_busy > 0
                && r.aligner_spans == r.aligner_busy
                && 0 < union
                && union <= r.aligner_busy
        }),
    );

    // The traced pass as spans. Service: the client's job, its wait in the
    // queue, the service's `try_next`, and the backend call inside it.
    // Sweep: one span per `run_parallel` call.
    let mut rejected = 0;
    let times: Vec<_> = tp.rounds.iter().flat_map(|r| r.times.iter()).collect();
    if let Some(svc) = &traced.service {
        let (_, calls) = svc.probe.as_ref().expect("a traced service has a probe");
        let calls = calls.borrow();
        checks.add("one_backend_call_per_job", calls.len() == times.len());
        for (k, (t, &(c0, c1))) in times.iter().zip(calls.iter()).enumerate() {
            let k = k as u32;
            let job = rec.record("client.job", k, t.submit, t.done, None);
            rec.record("service.queue_wait", k, t.submit, t.start, Some(job));
            let next = rec.record("service.try_next", k, t.start, t.done, Some(job));
            rec.record("driver.backend.align_batch", k, c0, c1, Some(next));
        }
        let stats = svc.svc.stats();
        checks.add(
            "service_submitted_eq_completed_eq_jobs",
            stats.submitted == tp.jobs && stats.completed == tp.jobs,
        );
        rejected = stats.rejected;
    } else {
        for (k, t) in times.iter().enumerate() {
            rec.record(
                "driver.batch.run_parallel",
                k as u32,
                t.submit,
                t.done,
                None,
            );
        }
    }

    let rp = rec.span("replay", 0, |rec| replay::replay(rec, round, width));
    checks.add("replay_matches_end_to_end", rp.mismatches == 0);
    checks.add("child_spans_inside_parents", rec.escaped_children() == 0);

    // Times of the traced pass are per job it ran; those of the replay are
    // per replayed job, or per pair / call where named. `per_round` scales
    // a replayed per-job time to a whole round.
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let traced_jobs = times.len() as f64;
    let rounds = tp.rounds.len() as f64;
    let n = replay::REPLAY_JOBS.min(round.jobs.len()) as f64;
    let per_round = round.jobs.len() as f64 / n;
    let ms = |name: &str| rec.total_ms(name);
    let submit_ms = ms("driver.submit");
    let calls = rec.named("driver.batch.run_parallel").count() as f64;
    let call_ms = ms("driver.batch.run_parallel");
    let mut m: Vec<Metric> = vec![
        (
            "service.queue_wait_ms".into(),
            ratio(ms("service.queue_wait"), traced_jobs),
            "ms",
        ),
        (
            "service.self_ms".into(),
            ratio(rec.self_ms("service.try_next"), traced_jobs),
            "ms",
        ),
        ("service.rejected".into(), rejected as f64, "count"),
        (
            "driver.backend.align_batch_ms".into(),
            ratio(ms("driver.backend.align_batch"), traced_jobs),
            "ms",
        ),
        (
            "driver.backend.device_pairs".into(),
            routes.device as f64,
            "count",
        ),
        (
            "driver.backend.errors".into(),
            routes.errors as f64,
            "count",
        ),
    ];
    for stage in Stage::ALL {
        let name = format!("accel.sim.{}", stage.name().replace('-', "_"));
        m.push((name, first.sim_stages.get(stage) as f64, "cycles"));
    }
    m.extend([
        ("soc.arbiter.grants".into(), arb[0] as f64, "count"),
        ("soc.arbiter.wait_cycles".into(), arb[1] as f64, "cycles"),
        ("soc.arbiter.busy_cycles".into(), arb[2] as f64, "cycles"),
        ("driver.new_ms".into(), rp.driver_new_ms, "ms"),
        ("driver.submit_ms".into(), submit_ms / n, "ms"),
        (
            "driver.backtrace.decode_ms".into(),
            ms("driver.backtrace.decode") / n,
            "ms",
        ),
        ("seqio.encode_ms".into(), ms("seqio.encode") / n, "ms"),
        (
            "accel.device.run_ms".into(),
            ms("accel.device.run") / n,
            "ms",
        ),
        ("accel.aligner_ms".into(), ms("accel.aligner") / n, "ms"),
        (
            "accel.host_ns_per_sim_cycle".into(),
            ratio(ms("accel.device.run") * 1e6, rp.relaunch_cycles as f64),
            "ns/cycle",
        ),
        ("core.pool.map_overhead_us".into(), rp.pool_map_us, "us"),
        (
            "driver.batch.run_parallel_ms".into(),
            ratio(call_ms, calls),
            "ms",
        ),
        (
            "driver.batch.parallel_efficiency".into(),
            ratio(submit_ms * per_round, width as f64 * call_ms / rounds),
            "ratio",
        ),
        (
            "trace.overhead_pct".into(),
            100.0 * (pp.pairs_per_s(true) - tp.pairs_per_s(true)) / pp.pairs_per_s(true),
            "%",
        ),
    ]);
    let trace_path = write_trace(args, &rec);
    (m, traced, plain.pass.tally, trace_path)
}

/// Write the traced run's spans beside the benchmark, returning the path.
fn write_trace(args: &Args, rec: &Recorder) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, rec.chrome_json())) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("not written: {e}"),
    }
}

fn main() {
    let args = parse_args();
    let t_start = Instant::now();
    let round = workload::round(args.workload, args.seed);
    let mut checks = Checks::default();
    // Every answer of the run counts: with `--trace 1`, those of the
    // untraced pass too.
    let mut tally = Tally::default();
    let (metrics, out, trace_path) = if args.trace {
        let (m, out, plain, path) = traced_run(&args, &round, &mut checks);
        tally.add(plain);
        (m, out, Some(path))
    } else {
        let out = run_pass(args.workload, &round, args.seconds, false);
        let mut m = e2e_metrics(&out);
        m.retain(|(name, _, _)| !RECORD_ONLY.contains(&name.as_str()));
        (m, out, None)
    };
    let pass = &out.pass;
    tally.add(pass.tally);
    checks.add(
        "answers_match_oracle",
        tally.failed == 0 && tally.wrong == 0,
    );
    checks.add("repeats_identical", pass.repeats_identical());
    checks.add(
        "round_has_100_latency_samples",
        pass.first().times.len() >= MIN_SAMPLES,
    );
    checks.add(
        "metrics_finite",
        metrics.iter().all(|(_, v, _)| v.is_finite()),
    );
    let correct = checks.all();
    let t = &tally;
    let first = pass.first();
    let e2e = e2e_metrics(&out);
    println!(
        "{{\"record\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\"state\":{{\"setup_cold_s\":{},\"timed\":\"warm\",\"warmup\":{WARMUP}}},\"rounds\":{},\"round_jobs\":{},\"round_pairs\":{},\"attempted\":{},\"failed\":{},\"wrong\":{},\"error_rate\":{},\"sim_cycles_per_round\":{},\"routes_per_round\":{},\"end_to_end\":{},\"peak_rss_end_mb\":{},\"round_walls_s\":{:?},\"calibration_s\":{:?},\"arbiter_per_round\":{:?},\"checks\":{},\"trace_file\":{},\"elapsed_s\":{}}}}}",
        json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        args.trace as u8,
        fingerprint(),
        json_num(out.setup_cold_s),
        pass.rounds.len(),
        round.jobs.len(),
        round.pairs(),
        t.attempted,
        t.failed,
        t.wrong,
        json_num((t.failed + t.wrong) as f64 / t.attempted as f64),
        first.sim_cycles,
        routes_json(&first.routes),
        metrics_json(&e2e),
        json_num(peak_rss_mb()),
        pass.rounds.iter().map(|r| r.wall.as_secs_f64()).collect::<Vec<_>>(),
        pass.calib,
        out.arbiter,
        checks.json(),
        trace_path.as_deref().map_or("null".into(), json_str),
        json_num(t_start.elapsed().as_secs_f64()),
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        t.attempted,
        t.failed + t.wrong,
        metrics_json(&metrics)
    );
    if !correct {
        eprintln!("perfbench: a check failed: {}", checks.json());
        std::process::exit(1);
    }
}

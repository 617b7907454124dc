//! The workloads: their jobs, generated from the seed, and the
//! software oracle that checks every answer.
//!
//! A run replays one fixed *round* of jobs, generated once from `--seed`,
//! until its time is up. Simulated statistics are therefore exact per seed,
//! and every repeat of the round must reproduce them.

use wfa_core::rng::SmallRng;
use wfa_core::Penalties;
use wfasic_accel::AccelConfig;
use wfasic_driver::backend::CpuWfaBackend;
use wfasic_driver::batch::BatchJob;
use wfasic_driver::AlignmentResult;
use wfasic_seqio::dataset::InputSetSpec;
use wfasic_seqio::generate::Pair;

/// Pairs per job (the multilane backend's default sub-job size).
pub const JOB_PAIRS: usize = 28;
/// Device lanes behind the service backends.
pub const LANES: usize = 2;
/// Jobs a client keeps outstanding on the service workloads.
pub const WINDOW: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ShortBt,
    SweepNbt,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ShortBt, Workload::SweepNbt];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ShortBt => "short-bt",
            Workload::SweepNbt => "sweep-nbt",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Does the workload go through `AlignmentService`?
    pub fn is_service(self) -> bool {
        self != Workload::SweepNbt
    }
}

/// `short-bt` job classes, in round order. Each 100 bp class is followed by
/// a 1 kbp class, so with two jobs outstanding every job's latency is
/// dominated by one 1 kbp class: the latencies form three equal clusters,
/// and p50 and p90 fall inside a cluster rather than on an edge.
const SHORT_CLASSES: [(usize, u32); 6] = [
    (100, 1),
    (1000, 1),
    (100, 5),
    (1000, 5),
    (100, 10),
    (1000, 10),
];
/// Jobs per `short-bt` round (20 cycles over the six classes).
const SHORT_ROUND_JOBS: usize = 120;

/// `sweep-nbt`: design points per round, jobs per design point (one per
/// worker at width 2), class.
const SWEEP_POINTS: usize = 100;
pub const SWEEP_JOBS_PER_POINT: usize = 2;
const SWEEP_CLASS: (usize, u32) = (1000, 5);

/// One round of a workload.
#[derive(Debug)]
pub struct Round {
    pub jobs: Vec<BatchJob>,
    /// Oracle score of every pair, per job.
    pub oracle: Vec<Vec<u32>>,
}

impl Round {
    pub fn pairs(&self) -> usize {
        self.jobs.iter().map(|j| j.pairs.len()).sum()
    }

    /// `sweep-nbt` design points: consecutive job groups.
    pub fn points(&self) -> std::slice::Chunks<'_, BatchJob> {
        self.jobs.chunks(SWEEP_JOBS_PER_POINT)
    }
}

/// The penalties and device every workload uses (the taped-out chip).
pub fn accel() -> AccelConfig {
    AccelConfig::wfasic_chip()
}

/// A sub-seed for job `i` of the round.
fn job_seed(seed: u64, i: usize) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64()
}

fn short_pairs(class: (usize, u32), n: usize, seed: u64) -> Vec<Pair> {
    InputSetSpec {
        length: class.0,
        error_pct: class.1,
    }
    .generate(n, seed)
    .pairs
}

/// Generate the round's jobs from the seed (ids unique within the round).
pub fn generate(workload: Workload, seed: u64) -> Vec<BatchJob> {
    let mut jobs: Vec<BatchJob> = match workload {
        Workload::ShortBt => (0..SHORT_ROUND_JOBS)
            .map(|i| {
                let class = SHORT_CLASSES[i % SHORT_CLASSES.len()];
                BatchJob::with_backtrace(short_pairs(class, JOB_PAIRS, job_seed(seed, i)))
            })
            .collect(),
        Workload::SweepNbt => (0..SWEEP_POINTS * SWEEP_JOBS_PER_POINT)
            .map(|i| BatchJob::score_only(short_pairs(SWEEP_CLASS, JOB_PAIRS, job_seed(seed, i))))
            .collect(),
    };
    let mut id = 0u32;
    for job in &mut jobs {
        for p in &mut job.pairs {
            p.id = id;
            id += 1;
        }
    }
    jobs
}

/// Score every pair in software with `CpuWfaBackend`.
pub fn oracle(jobs: &[BatchJob], accel: &AccelConfig) -> Vec<Vec<u32>> {
    let mut cpu = CpuWfaBackend::new(accel.penalties);
    jobs.iter()
        .map(|job| {
            job.pairs
                .iter()
                .map(|pair| {
                    let r = cpu.align_pair(pair, false);
                    assert!(r.success, "the CPU oracle answers every pair");
                    r.score
                })
                .collect()
        })
        .collect()
}

pub fn round(workload: Workload, seed: u64) -> Round {
    let jobs = generate(workload, seed);
    let oracle = oracle(&jobs, &accel());
    Round { jobs, oracle }
}

/// The outcome of checking answers against the oracle.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    /// Answered `success == false`, or refused as a whole job.
    pub failed: u64,
    /// Score differs from the oracle, or the CIGAR does not replay to it.
    pub wrong: u64,
}

impl Tally {
    pub fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong += o.wrong;
    }

    pub fn verified(&self) -> u64 {
        self.attempted - self.failed - self.wrong
    }
}

/// Check one job's answers (`None`: the whole job was refused).
pub fn check(
    job: &BatchJob,
    want: &[u32],
    got: Option<&[AlignmentResult]>,
    p: &Penalties,
) -> Tally {
    let n = job.pairs.len() as u64;
    let Some(got) = got else {
        return Tally {
            attempted: n,
            failed: n,
            wrong: 0,
        };
    };
    let mut t = Tally {
        attempted: n,
        ..Tally::default()
    };
    if got.len() != job.pairs.len() {
        t.wrong = n;
        return t;
    }
    for ((pair, &score), r) in job.pairs.iter().zip(want).zip(got) {
        if !r.success {
            t.failed += 1;
        } else if r.id != pair.id || r.score != score || !cigar_ok(pair, r, job.backtrace, p) {
            t.wrong += 1;
        }
    }
    t
}

/// With backtrace on, the CIGAR must be a valid transcript of the pair
/// whose gap-affine cost is the reported score.
fn cigar_ok(pair: &Pair, r: &AlignmentResult, backtrace: bool, p: &Penalties) -> bool {
    if !backtrace {
        return true;
    }
    r.cigar.as_ref().is_some_and(|c| {
        c.check(&pair.a.bytes(), &pair.b.bytes()).is_ok() && c.score(p) == r.score as u64
    })
}

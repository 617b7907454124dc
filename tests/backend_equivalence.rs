//! Backend-equivalence suite: every execution backend is interchangeable.
//!
//! The same fixed-seed pair sets (the differential sweep's generator) run
//! through all six [`AlignmentBackend`]s and must agree:
//!
//! * **Scores are bit-identical across every backend.** All six engines
//!   (including `riscv`, whose in-envelope scores come out of the RV64IM
//!   interpreter running the hand-written WFA kernel) compute the exact
//!   gap-affine optimum, so a score mismatch anywhere is a real defect.
//! * **CIGARs are bit-identical across the device-backed backends**
//!   (`device`, `multilane`, `hetero`): they share the hardware backtrace
//!   stream and the CPU origin-walk, and lane count / chunking / bus
//!   contention must never change an answer.
//! * **Every CIGAR is optimal**: it replays cleanly against its sequences
//!   and costs exactly the optimal score. The software engines may emit a
//!   *different but equally-optimal* transcript than the hardware — optimal
//!   gap-affine alignments are not unique, and the WFA and SWG tie-break
//!   differently — so transcript identity across engine families is
//!   deliberately NOT asserted (measured on this generator: the software
//!   WFA picks a different optimal transcript than the device on ~20% of
//!   pairs). Optimal-cost replay is the property that matters.
//!
//! Plus: a 1-lane/1-job batch through the backend layer keeps the raw
//! driver's perf counters bit-exactly, and the heterogeneous backend never
//! drops, duplicates, or reorders a pair under random envelope violations
//! and fault plans.

use wfasic::accel::AccelConfig;
use wfasic::driver::batch::BatchJob;
use wfasic::driver::{AlignPolicy, AlignmentBackend, BackendKind, WaitMode, WfasicDriver};
use wfasic::seqio::{InputSetSpec, Pair};
use wfasic::wfa::{prop, swg_score, Penalties};

/// The differential sweep's shapes, shortened in debug builds the same way.
fn shapes() -> [InputSetSpec; 3] {
    let lengths: [usize; 3] = if cfg!(debug_assertions) {
        [48, 100, 150]
    } else {
        [100, 250, 400]
    };
    [
        InputSetSpec {
            length: lengths[0],
            error_pct: 2,
        },
        InputSetSpec {
            length: lengths[1],
            error_pct: 5,
        },
        InputSetSpec {
            length: lengths[2],
            error_pct: 10,
        },
    ]
}

fn fixed_seed_pairs() -> Vec<Pair> {
    let per_shape = if cfg!(debug_assertions) { 12 } else { 24 };
    let mut all = Vec::new();
    for (si, spec) in shapes().iter().enumerate() {
        let mut pairs = spec
            .generate(per_shape, 0xE0_0001 ^ ((si as u64) << 8))
            .pairs;
        for p in &mut pairs {
            p.id += all.len() as u32;
        }
        all.extend(pairs);
    }
    all
}

#[derive(Debug, PartialEq, Eq)]
struct Answer {
    id: u32,
    success: bool,
    score: u32,
    cigar: Option<String>,
}

fn run_backend(kind: BackendKind, pairs: &[Pair]) -> Vec<Answer> {
    let mut backend = kind.create(AccelConfig::wfasic_chip(), 2);
    let batch = backend
        .align_batch(&BatchJob::with_backtrace(pairs.to_vec()))
        .unwrap_or_else(|e| panic!("{}: batch failed: {e}", kind.name()));
    assert_eq!(batch.results.len(), pairs.len(), "{}", kind.name());
    batch
        .results
        .iter()
        .map(|r| Answer {
            id: r.id,
            success: r.success,
            score: r.score,
            cigar: r.cigar.as_ref().map(|c| c.to_rle_string()),
        })
        .collect()
}

#[test]
fn all_backends_agree_on_the_fixed_seed_sweep() {
    let pairs = fixed_seed_pairs();
    let penalties = Penalties::WFASIC_DEFAULT;

    let answers: Vec<(BackendKind, Vec<Answer>)> = BackendKind::ALL
        .iter()
        .map(|&kind| (kind, run_backend(kind, &pairs)))
        .collect();

    // Scores: bit-identical everywhere, and equal to the SWG oracle.
    let reference = &answers[0].1;
    for (kind, got) in &answers {
        for (a, pair) in got.iter().zip(&pairs) {
            assert!(a.success, "{}: pair {} failed", kind.name(), pair.id);
            assert_eq!(a.id, pair.id, "{}: ID mismatch", kind.name());
            let oracle = swg_score(&pair.a.bytes(), &pair.b.bytes(), &penalties);
            assert_eq!(
                a.score as u64,
                oracle,
                "{}: pair {} score diverges from the SWG oracle",
                kind.name(),
                pair.id
            );
        }
        let scores: Vec<u32> = got.iter().map(|a| a.score).collect();
        let want: Vec<u32> = reference.iter().map(|a| a.score).collect();
        assert_eq!(scores, want, "{}: scores diverge", kind.name());
    }

    // CIGARs: every one replays to the optimal cost (re-run each backend to
    // get the structured Cigar rather than the rendered string)...
    for (kind, _) in &answers {
        let mut backend = kind.create(AccelConfig::wfasic_chip(), 2);
        let batch = backend
            .align_batch(&BatchJob::with_backtrace(pairs.clone()))
            .unwrap();
        for (res, pair) in batch.results.iter().zip(&pairs) {
            let cigar = res
                .cigar
                .as_ref()
                .unwrap_or_else(|| panic!("{}: pair {} missing CIGAR", kind.name(), pair.id));
            cigar
                .check(&pair.a.bytes(), &pair.b.bytes())
                .unwrap_or_else(|e| {
                    panic!("{}: pair {} CIGAR invalid: {e:?}", kind.name(), pair.id)
                });
            assert_eq!(
                cigar.score(&penalties),
                res.score as u64,
                "{}: pair {} CIGAR is not optimal",
                kind.name(),
                pair.id
            );
        }
    }

    // ...and the three device-backed backends emit the *same* transcript.
    let device_families: Vec<&Vec<Answer>> = answers
        .iter()
        .filter(|(k, _)| {
            matches!(
                k,
                BackendKind::Device | BackendKind::MultiLane | BackendKind::Heterogeneous
            )
        })
        .map(|(_, a)| a)
        .collect();
    assert_eq!(device_families.len(), 3);
    for fam in &device_families[1..] {
        assert_eq!(
            *fam, device_families[0],
            "device-backed backends disagree on a transcript"
        );
    }
}

#[test]
fn one_lane_one_job_keeps_raw_driver_perf_counters() {
    let pairs = InputSetSpec {
        length: 100,
        error_pct: 5,
    }
    .generate(5, 0x9E2F)
    .pairs;

    let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
    drv.collect_perf = true;
    let want = drv.submit(&pairs, true, WaitMode::PollIdle).unwrap();

    for kind in [BackendKind::Device, BackendKind::MultiLane] {
        let mut backend = kind.create(AccelConfig::wfasic_chip(), 1);
        backend.apply_policy(&AlignPolicy {
            collect_perf: true,
            ..AlignPolicy::default()
        });
        let got = backend
            .align_batch(&BatchJob::with_backtrace(pairs.clone()))
            .unwrap();
        assert_eq!(
            got.sim_cycles,
            Some(want.report.total_cycles),
            "{}: cycle count changed through the backend layer",
            kind.name()
        );
        let got_perf = got.perf.as_ref().expect("perf was requested");
        assert_eq!(
            got_perf.counters,
            want.perf().unwrap().counters,
            "{}: per-stage perf counters changed through the backend layer",
            kind.name()
        );
        for (a, b) in got.results.iter().zip(&want.results) {
            assert_eq!((a.id, a.success, a.score), (b.id, b.success, b.score));
            assert_eq!(a.cigar, b.cigar);
        }
    }
}

/// The heterogeneous property: random mixes of in-envelope and
/// out-of-envelope pairs, random fault plans on random lanes — every pair
/// comes back exactly once, in order, successfully.
#[test]
fn hetero_never_drops_duplicates_or_reorders_under_violations_and_faults() {
    use wfasic::driver::HeterogeneousBackend;
    use wfasic::soc::fault::FaultPlan;

    let n_cases = if cfg!(debug_assertions) { 10 } else { 20 };
    prop::cases(n_cases, 0x8E7E_0D11, |rng, _| {
        // A small device envelope so random pairs genuinely violate it:
        // reads over 64 bases must take the CPU route.
        let mut cfg = AccelConfig::wfasic_chip();
        cfg.max_supported_len = 64;
        cfg.k_max = 200;
        let lanes = rng.gen_range(1, 5);
        let mut backend = HeterogeneousBackend::new(cfg, lanes);
        if rng.gen_bool(0.5) {
            let victim = rng.gen_range(0, lanes);
            backend.accel.sched.set_lane_fault_plan(
                victim,
                FaultPlan {
                    bit_flip_per_beat: rng.gen_range_f64(0.0, 0.3),
                    drop_beat: rng.gen_range_f64(0.0, 0.05),
                    bus_stall: rng.gen_range_f64(0.0, 0.05),
                    ..FaultPlan::none()
                },
            );
            backend.accel.sched.policy.max_retries = rng.gen_range(0, 3) as u32;
        }

        let n_pairs = rng.gen_range(4, 16);
        let backtrace = rng.gen_bool(0.5);
        let mut pairs = Vec::new();
        for id in 0..n_pairs {
            // ~40% of pairs are longer than the 64-base envelope.
            let len = if rng.gen_bool(0.4) {
                rng.gen_range(65, 160)
            } else {
                rng.gen_range(24, 65)
            };
            let mut p = InputSetSpec {
                length: len,
                error_pct: 5,
            }
            .generate(1, rng.next_u64())
            .pairs
            .remove(0);
            p.id = id as u32;
            pairs.push(p);
        }

        let batch = backend
            .align_batch(&BatchJob {
                pairs: pairs.clone(),
                backtrace,
                deadline: None,
            })
            .expect("the heterogeneous backend answers every batch");

        let ids: Vec<u32> = batch.results.iter().map(|r| r.id).collect();
        let want: Vec<u32> = pairs.iter().map(|p| p.id).collect();
        assert_eq!(ids, want, "dropped, duplicated, or reordered a pair");
        for (res, pair) in batch.results.iter().zip(&pairs) {
            assert!(res.success, "pair {} unanswered", pair.id);
            let oracle = swg_score(&pair.a.bytes(), &pair.b.bytes(), &Penalties::WFASIC_DEFAULT);
            assert_eq!(res.score as u64, oracle, "pair {} wrong score", pair.id);
            let oversized = pair.a.len().max(pair.b.len()) > 64;
            if oversized {
                assert!(res.recovered, "oversized pair {} not CPU-routed", pair.id);
            }
            if backtrace {
                let cigar = res.cigar.as_ref().expect("backtrace was on");
                cigar.check(&pair.a.bytes(), &pair.b.bytes()).unwrap();
                assert_eq!(cigar.score(&Penalties::WFASIC_DEFAULT), oracle);
            }
        }
    });
}

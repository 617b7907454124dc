//! Field-width and buffer-size limits of the driver's one attempt loop,
//! through both of its callers: the lone driver's `submit` and a 2-lane
//! `BatchScheduler::submit_batch`.
//!
//! * Pair IDs travel as 16 bits in score records and 23 bits in the
//!   backtrace stream, so IDs at and past 65,535 (and IDs 65,536 apart)
//!   must still come back in submission order with their own scores.
//! * `OUT_SIZE` bounds the output buffer: exactly the job's output size
//!   completes, one byte less aborts with `OUT_OVERRUN`.
//! * `max_supported_len` (10,000 bases) bounds a read: a pair at the limit
//!   completes with the SWG score, one base past it is refused per pair
//!   (`success == false`), or answered in software and marked `recovered`
//!   when the CPU fallback is on.

use wfa_core::{swg_score, Penalties};
use wfasic_accel::regs::error_code;
use wfasic_accel::AccelConfig;
use wfasic_driver::{
    AlignmentResult, BatchJob, BatchScheduler, DriverError, JobResult, WaitMode, WfasicDriver,
};
use wfasic_seqio::dataset::InputSetSpec;
use wfasic_seqio::generate::Pair;

/// IDs straddling the 16-bit record field; 0 and 65,536 alias in it.
const IDS: [u32; 4] = [0, 65_535, 65_536, 65_537];

fn wide_id_pairs() -> Vec<Pair> {
    InputSetSpec {
        length: 100,
        error_pct: 10,
    }
    .generate(IDS.len(), 0x1D5)
    .pairs
    .into_iter()
    .zip(IDS)
    .map(|(p, id)| Pair { id, ..p })
    .collect()
}

/// The same job twice: one per lane of a 2-lane batch.
fn two_jobs(pairs: &[Pair], backtrace: bool) -> Vec<BatchJob> {
    let job = BatchJob {
        pairs: pairs.to_vec(),
        backtrace,
        deadline: None,
    };
    vec![job.clone(), job]
}

fn assert_in_order_with_scores(results: &[AlignmentResult], pairs: &[Pair], what: &str) {
    assert_eq!(results.len(), pairs.len(), "{what}");
    for (res, pair) in results.iter().zip(pairs) {
        assert_eq!(res.id, pair.id, "{what}: results out of order");
        assert!(res.success && !res.recovered, "{what}: pair {}", pair.id);
        let want = swg_score(&pair.a.bytes(), &pair.b.bytes(), &Penalties::WFASIC_DEFAULT);
        assert_eq!(res.score as u64, want, "{what}: pair {} score", pair.id);
    }
}

#[test]
fn ids_past_16_bits_come_back_in_order_through_submit() {
    let pairs = wide_id_pairs();
    for backtrace in [false, true] {
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        let job = drv.submit(&pairs, backtrace, WaitMode::PollIdle).unwrap();
        assert_in_order_with_scores(&job.results, &pairs, &format!("submit bt={backtrace}"));
    }
}

#[test]
fn ids_past_16_bits_come_back_in_order_through_a_two_lane_batch() {
    let pairs = wide_id_pairs();
    for backtrace in [false, true] {
        let mut sched = BatchScheduler::new(AccelConfig::wfasic_chip(), 2);
        let batch = sched.submit_batch(&two_jobs(&pairs, backtrace));
        assert_eq!(batch.lanes, vec![0, 1], "one job per lane");
        for outcome in &batch.jobs {
            let job = outcome.as_ref().unwrap();
            assert_in_order_with_scores(&job.results, &pairs, &format!("batch bt={backtrace}"));
        }
    }
}

fn assert_overrun(outcome: &Result<JobResult, DriverError>, what: &str) {
    match outcome {
        Err(DriverError::Device(e)) => assert_eq!(e.code, error_code::OUT_OVERRUN, "{what}"),
        other => panic!("{what}: expected OUT_OVERRUN, got {other:?}"),
    }
}

#[test]
fn out_size_equal_to_the_output_completes_and_one_byte_less_overruns() {
    let pairs = wide_id_pairs();
    for backtrace in [false, true] {
        let what = format!("bt={backtrace}");
        let mut free = WfasicDriver::new(AccelConfig::wfasic_chip());
        let need = free
            .submit(&pairs, backtrace, WaitMode::PollIdle)
            .unwrap()
            .report
            .output_bytes;
        assert!(need > 0);

        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        drv.policy.out_size = need;
        let exact = drv.submit(&pairs, backtrace, WaitMode::PollIdle).unwrap();
        assert_eq!(exact.report.output_bytes, need, "{what}");
        assert_in_order_with_scores(&exact.results, &pairs, &what);
        drv.policy.out_size = need - 1;
        assert_overrun(&drv.submit(&pairs, backtrace, WaitMode::PollIdle), &what);

        let mut sched = BatchScheduler::new(AccelConfig::wfasic_chip(), 2);
        sched.policy.out_size = need;
        let jobs = two_jobs(&pairs, backtrace);
        for outcome in sched.submit_batch(&jobs).jobs {
            assert_in_order_with_scores(&outcome.unwrap().results, &pairs, &what);
        }
        sched.policy.out_size = need - 1;
        for outcome in &sched.submit_batch(&jobs).jobs {
            assert_overrun(outcome, &format!("batch {what}"));
        }
    }
}

/// One pair whose `a` is exactly `len` bases (the generator caps `b` at
/// `len`), at 1% divergence so the device run stays short.
fn pair_of_len(len: usize, id: u32) -> Pair {
    let pair = InputSetSpec {
        length: len,
        error_pct: 1,
    }
    .generate(1, 0x10_000)
    .pairs
    .remove(0);
    assert_eq!(pair.a.len(), len);
    assert!(pair.b.len() <= len);
    Pair { id, ..pair }
}

#[test]
fn a_pair_at_max_supported_len_completes_with_the_swg_score() {
    let max = AccelConfig::wfasic_chip().max_supported_len;
    assert_eq!(max, 10_000);
    let pairs = vec![pair_of_len(max, 7)];
    for backtrace in [false, true] {
        let what = format!("bt={backtrace}");
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        let job = drv.submit(&pairs, backtrace, WaitMode::PollIdle).unwrap();
        assert_in_order_with_scores(&job.results, &pairs, &format!("submit {what}"));
        let mut sched = BatchScheduler::new(AccelConfig::wfasic_chip(), 2);
        for outcome in sched.submit_batch(&two_jobs(&pairs, backtrace)).jobs {
            let job = outcome.unwrap();
            assert_in_order_with_scores(&job.results, &pairs, &format!("batch {what}"));
        }
    }
}

/// The over-length pair is refused (or recovered) alone; its in-envelope
/// neighbour in the same job still gets the device's answer.
fn assert_over_length_outcome(job: &JobResult, pairs: &[Pair], fallback: bool, what: &str) {
    assert_eq!(job.results.len(), 2, "{what}");
    assert_in_order_with_scores(&job.results[..1], &pairs[..1], what);
    let (res, pair) = (&job.results[1], &pairs[1]);
    assert_eq!(res.id, pair.id, "{what}");
    if fallback {
        assert!(
            res.success && res.recovered,
            "{what}: recovered in software"
        );
        let want = swg_score(&pair.a.bytes(), &pair.b.bytes(), &Penalties::WFASIC_DEFAULT);
        assert_eq!(res.score as u64, want, "{what}: recovered score");
    } else {
        assert!(!res.success && !res.recovered, "{what}: refused per pair");
        assert!(res.cigar.is_none(), "{what}");
    }
}

#[test]
fn a_pair_one_base_past_max_supported_len_is_refused_or_recovered() {
    let max = AccelConfig::wfasic_chip().max_supported_len;
    let pairs = vec![wide_id_pairs().remove(0), pair_of_len(max + 1, 9)];
    for (backtrace, fallback) in [(false, false), (true, false), (true, true)] {
        let what = format!("bt={backtrace} fallback={fallback}");
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        drv.policy.cpu_fallback = fallback;
        let job = drv.submit(&pairs, backtrace, WaitMode::PollIdle).unwrap();
        assert_over_length_outcome(&job, &pairs, fallback, &format!("submit {what}"));
        let mut sched = BatchScheduler::new(AccelConfig::wfasic_chip(), 2);
        sched.policy.cpu_fallback = fallback;
        for outcome in sched.submit_batch(&two_jobs(&pairs, backtrace)).jobs {
            assert_over_length_outcome(
                &outcome.unwrap(),
                &pairs,
                fallback,
                &format!("batch {what}"),
            );
        }
    }
}

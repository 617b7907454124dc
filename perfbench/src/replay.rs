//! The traced run's layer replay: the first `REPLAY_JOBS` jobs of the round
//! go through each layer's public functions in turn, inside spans recorded
//! here.
//!
//! Every replayed answer is compared with the answer the end-to-end path
//! gave (or the oracle), so a replay that drifts from the program fails
//! the run rather than reporting a number for different work.

use std::hint::black_box;
use std::time::Instant;

use wfa_core::pool::ThreadPool;
use wfasic_accel::{align_packed_in, offsets, AlignerScratch, WavefrontSchedule};
use wfasic_driver::backtrace::{
    backtrace_alignment_packed, separate_stream, split_consecutive_stream,
};
use wfasic_driver::{JobResult, WaitMode, WfasicDriver};
use wfasic_seqio::generate::Pair;
use wfasic_seqio::{round_up_16, InputImage};

use crate::trace::Recorder;
use crate::workload::{accel, Round};

/// Jobs of the round replayed: a whole number of `short-bt`'s six-job
/// cycles and of sweep design points, so every job class is represented as
/// in the round.
pub const REPLAY_JOBS: usize = 36;
/// Times a construction or pool call is repeated for its median.
const REPEATS: usize = 15;
/// `ThreadPool::map` calls timed for the pool overhead.
const POOL_CALLS: usize = 200;

/// What the replay measured besides its spans.
#[derive(Debug, Default)]
pub struct Replay {
    /// Mismatches between a replayed answer and the end-to-end one.
    pub mismatches: u64,
    /// Simulated cycles of the relaunched device jobs.
    pub relaunch_cycles: u64,
    pub driver_new_ms: f64,
    pub pool_map_us: f64,
}

pub fn median(v: Vec<f64>) -> f64 {
    crate::percentile(&v, 0.5)
}

fn timed_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Replay the round's first `REPLAY_JOBS` jobs layer by layer, checking
/// each answer against the oracle or the layer above.
pub fn replay(rec: &mut Recorder, round: &Round, width: usize) -> Replay {
    let cfg = accel();
    let p = cfg.penalties;
    let ps = cfg.parallel_sections;
    let schedule = WavefrontSchedule::for_config(&cfg);
    let driver_new_ms = median(
        (0..REPEATS)
            .map(|_| {
                rec.span("driver.new", 0, |_| {
                    timed_ms(|| drop(black_box(WfasicDriver::new(cfg))))
                })
            })
            .collect(),
    );
    let pool = ThreadPool::new(width);
    let items = vec![(); width];
    let pool_map_us = median(
        (0..POOL_CALLS)
            .map(|_| {
                rec.span("core.pool.map", 0, |_| {
                    timed_ms(|| drop(black_box(pool.map(&items, |_, _| ()))))
                }) * 1e3
            })
            .collect(),
    );
    let mut out = Replay {
        driver_new_ms,
        pool_map_us,
        ..Replay::default()
    };

    // A warm driver: one untimed submit first, as the timed paths run warm.
    let mut drv = WfasicDriver::new(cfg);
    let first = &round.jobs[0];
    drv.submit(&first.pairs, first.backtrace, WaitMode::PollIdle)
        .expect("the warm-up job completes");
    let mut scratch = AlignerScratch::new();

    let replayed = round.jobs.iter().zip(&round.oracle).take(REPLAY_JOBS);
    for (i, (job, want)) in replayed.enumerate() {
        let id = i as u32;
        let pairs = &job.pairs;
        rec.span("replay.job", id, |rec| {
            let max_len = pairs
                .iter()
                .map(|q| q.a.len().max(q.b.len()))
                .max()
                .unwrap_or(16);
            rec.span("seqio.encode", id, |_| {
                black_box(InputImage::encode_raw(pairs, round_up_16(max_len.max(16))))
            });
            let res = rec
                .span("driver.submit", id, |_| {
                    drv.submit(pairs, job.backtrace, WaitMode::PollIdle)
                })
                .expect("a fault-free device job completes");
            for (r, score) in res.results.iter().zip(want) {
                out.mismatches += u64::from(!r.success || r.score != *score);
            }
            if job.backtrace {
                out.mismatches += rec.span("driver.backtrace.decode", id, |_| {
                    decode_mismatches(&drv, &res, &schedule, pairs, &p, ps)
                });
            }
            let rerun = rec.span("accel.device.run", id, |_| {
                drv.device.mmio_write(offsets::START, 1);
                drv.device.run(&mut drv.mem)
            });
            out.mismatches += u64::from(rerun.total_cycles != res.report.total_cycles);
            out.relaunch_cycles += rerun.total_cycles;
            rec.span("accel.aligner", id, |_| {
                for (q, score) in pairs.iter().zip(want) {
                    let (a, b) = (q.a.as_packed(), q.b.as_packed());
                    let (Some(a), Some(b)) = (a, b) else {
                        out.mismatches += 1;
                        continue;
                    };
                    let o =
                        align_packed_in(&cfg, &schedule, q.id, a, b, job.backtrace, &mut scratch);
                    out.mismatches += u64::from(!o.success || o.score != *score);
                }
            });
        });
    }
    out
}

/// Re-decode the job's backtrace stream from the driver's memory and count
/// CIGARs that differ from the ones `submit` returned.
fn decode_mismatches(
    drv: &WfasicDriver,
    res: &JobResult,
    schedule: &WavefrontSchedule,
    pairs: &[Pair],
    p: &wfa_core::Penalties,
    ps: usize,
) -> u64 {
    let bytes = drv
        .mem
        .read(drv.layout.out_addr, res.report.output_bytes as usize);
    let stream = if res.separated {
        separate_stream(&bytes)
    } else {
        split_consecutive_stream(&bytes)
    };
    let Ok(stream) = stream else {
        return pairs.len() as u64;
    };
    let by_id: std::collections::HashMap<u32, _> = stream.iter().map(|bt| (bt.id, bt)).collect();
    let mut bad = 0;
    for (q, r) in pairs.iter().zip(&res.results) {
        let cigar = match (
            by_id.get(&(q.id & 0x7F_FFFF)),
            q.a.as_packed(),
            q.b.as_packed(),
        ) {
            (Some(bt), Some(a), Some(b)) => {
                backtrace_alignment_packed(schedule, bt, a, b, p, ps).ok()
            }
            _ => None,
        };
        bad += u64::from(cigar.is_none() || cigar != r.cigar);
    }
    bad
}

//! Host-speed calibration: a fixed CPU workload, independent of the
//! program, timed before the first timed round and after every round.
//!
//! The shared host this benchmark runs on alternates between a quiet state
//! and a contended one that lasts from seconds to minutes. In the
//! contended state the same round takes up to twice as long, and the
//! calibration slows with it, if not quite as much (see README). Dividing
//! each round's wall time by the calibration time around it converts it
//! into *reference seconds*: the time the round would take on the host in
//! the state the benchmark was tuned on. A change to the program moves
//! reference seconds as it moves wall seconds; a change in the host's
//! state largely cancels.

use std::hint::black_box;
use std::time::Instant;

/// Elements sorted by one calibration unit (800 KiB, inside one core's L2).
const ELEMENTS: usize = 200_000;
/// Sorts per calibration unit.
const SORTS: usize = 5;
/// Time of one calibration unit on one thread, in seconds, on the
/// reference host: the 2-vCPU Intel Xeon (AVX-512) the benchmark was tuned
/// on, in its quiet state. It only scales reference seconds; nothing compares it with
/// another host's figure.
pub const REFERENCE_S: f64 = 0.016;

/// The calibration workload: sorting copies of a fixed pseudo-random array.
pub struct Calibration {
    data: Vec<u32>,
}

impl Calibration {
    pub fn new() -> Self {
        // xorshift64 from a fixed state: the same array on every run.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let data = (0..ELEMENTS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect();
        Calibration { data }
    }

    fn unit(&self) {
        for _ in 0..SORTS {
            let mut v = self.data.clone();
            v.sort_unstable();
            black_box(&v);
        }
    }

    /// Wall time, in seconds, of one calibration unit on each of `width`
    /// threads at once: the parallel workloads run on `width` threads, so
    /// their rounds wait for the slowest processor, and so does this.
    pub fn measure(&self, width: usize) -> f64 {
        let t = Instant::now();
        std::thread::scope(|s| {
            for _ in 1..width {
                s.spawn(|| self.unit());
            }
            self.unit();
        });
        t.elapsed().as_secs_f64()
    }
}

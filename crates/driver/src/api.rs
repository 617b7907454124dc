//! The Linux-driver-style API (paper §3/§5.3: "We use a standard Linux
//! driver and API to configure the WFAsic accelerator").
//!
//! [`WfasicDriver`] owns the device and main memory, and exposes the flow
//! the paper's co-design uses: build the input image, program the
//! memory-mapped registers over AXI-Lite, start the job, wait (polling Idle
//! or taking the interrupt), then parse results — including the CPU-side
//! backtrace when enabled.
//!
//! Robustness (paper §5.1, made a driver contract): [`WfasicDriver::submit`]
//! returns a [`Result`] instead of asserting. A watchdog bounds how long the
//! driver will wait on a job; device-refused jobs, watchdog timeouts, and
//! unparseable result streams are retried up to
//! [`DriverPolicy::max_retries`] times (injected faults are transients, so a
//! resubmission can succeed). With [`DriverPolicy::cpu_fallback`] enabled,
//! pairs the hardware could not complete — and whole jobs that exhaust their
//! retries — are re-run through the software WFA ([`wfa_core::wfa_align`])
//! and marked [`AlignmentResult::recovered`], so the application always gets
//! answers.
//!
//! The lone driver and every lane of the batch scheduler share one
//! [`DriverPolicy`] type and one attempt loop (`Stage::run`); an
//! `AttemptPort` supplies only what differs between them — how an attempt
//! is launched on the device timeline and what the caller tracks around it.

use crate::backend::CpuWfaBackend;
use crate::backtrace::{
    backtrace_alignment, separate_stream, split_consecutive_stream, BtAlignment, BtError,
};
use crate::cpu_model::BacktraceCosts;
use crate::faults::{FaultClass, FaultLayer, Provenance};
use wfa_core::cigar::Cigar;
use wfa_core::{Penalties, SeqsRef};
use wfasic_accel::device::{RunReport, WfasicDevice};
use wfasic_accel::regs::{offsets, DeviceError};
use wfasic_accel::AccelConfig;
use wfasic_seqio::dataset::round_up_16;
use wfasic_seqio::generate::Pair;
use wfasic_seqio::memimage::InputImage;
use wfasic_soc::bus::AxiLite;
use wfasic_soc::clock::Cycle;
use wfasic_soc::mem::MainMemory;
use wfasic_soc::perf::{JobPerf, PerfCounters};

/// Where a driver stages a job in main memory. The defaults put the input
/// image at 1 MiB and results at 16 MiB. Main memory is paged, so a job
/// backs only the pages its image and results touch, however high the
/// windows sit. A multi-lane batch gives every lane its own layout so
/// concurrent jobs never collide — the driver used to hardcode one global
/// pair of addresses, a latent single-instance assumption.
///
/// `in_addr` must be below `out_addr`; the gap bounds the largest input
/// image ([`DriverError::BatchTooLarge`] guards it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLayout {
    /// Base address of the staged input image.
    pub in_addr: u64,
    /// Base address where the device writes results.
    pub out_addr: u64,
}

impl Default for MemLayout {
    fn default() -> Self {
        MemLayout {
            in_addr: 0x0010_0000,
            out_addr: 0x0100_0000,
        }
    }
}

impl MemLayout {
    /// The layout of lane `lane` in a multi-lane SoC: each lane's windows
    /// are the default layout shifted up by `lane * 32 MiB`, so lanes never
    /// share a byte of staging memory.
    pub fn for_lane(lane: usize) -> Self {
        let stride = lane as u64 * 0x0200_0000;
        let base = MemLayout::default();
        MemLayout {
            in_addr: base.in_addr + stride,
            out_addr: base.out_addr + stride,
        }
    }
}

/// One alignment's final result as the application sees it.
#[derive(Debug, Clone)]
pub struct AlignmentResult {
    /// Alignment ID.
    pub id: u32,
    /// Completed (by hardware, or by CPU fallback)?
    pub success: bool,
    /// Alignment score (valid when `success`).
    pub score: u32,
    /// CIGAR from the CPU backtrace (when backtrace was enabled and the
    /// alignment succeeded).
    pub cigar: Option<Cigar>,
    /// This result came from the CPU fallback path, not the accelerator.
    pub recovered: bool,
}

/// The outcome of one submitted job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Per-alignment results, in submission order.
    pub results: Vec<AlignmentResult>,
    /// The accelerator's run report (cycles, bus stats, per-pair details)
    /// from the last attempt.
    pub report: RunReport,
    /// AXI-Lite configuration cycles spent by the driver (all attempts).
    pub config_cycles: Cycle,
    /// Modeled CPU cycles for the backtrace step (0 when disabled).
    pub cpu_backtrace_cycles: Cycle,
    /// Whether the multi-Aligner data-separation method was used.
    pub separated: bool,
    /// How many times the job was resubmitted after a failure.
    pub retries: u32,
}

impl AlignmentResult {
    /// An unanswered pair: `success == false`, no score, no CIGAR.
    pub(crate) fn failed(id: u32) -> Self {
        AlignmentResult {
            id,
            success: false,
            score: 0,
            cigar: None,
            recovered: false,
        }
    }
}

impl JobResult {
    /// A job the CPU fallback answered in full: every pair realigned in
    /// software and marked `recovered`, with no device report behind it.
    pub(crate) fn recovered(
        penalties: Penalties,
        pairs: &[Pair],
        backtrace: bool,
        separated: bool,
    ) -> Self {
        let mut cpu = CpuWfaBackend::new(penalties);
        JobResult {
            results: pairs
                .iter()
                .map(|p| cpu.recover_pair(p, backtrace))
                .collect(),
            report: RunReport::default(),
            config_cycles: 0,
            cpu_backtrace_cycles: 0,
            separated,
            retries: 0,
        }
    }

    /// Pairs answered by the CPU fallback rather than the accelerator.
    pub fn recovered_count(&self) -> usize {
        self.results.iter().filter(|r| r.recovered).count()
    }

    /// Per-stage cycle attribution for the last attempt, when the driver was
    /// configured with [`WfasicDriver::collect_perf`]. The counters sum
    /// exactly to `report.total_cycles`.
    pub fn perf_breakdown(&self) -> Option<&PerfCounters> {
        self.report.perf.as_ref().map(|p| &p.counters)
    }

    /// The full per-stage trace for the last attempt (spans + counters).
    pub fn perf(&self) -> Option<&JobPerf> {
        self.report.perf.as_ref()
    }

    /// Chrome `trace_event` JSON for the last attempt, viewable in
    /// `chrome://tracing` or Perfetto (1 simulated cycle = 1 µs).
    pub fn chrome_trace(&self) -> Option<String> {
        self.report.perf.as_ref().map(|p| p.chrome_trace_json())
    }
}

/// Wait strategy after starting a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitMode {
    /// Poll the Idle register.
    PollIdle,
    /// Enable and take the completion interrupt.
    Interrupt,
}

/// Why a submission failed (after exhausting retries, with CPU fallback
/// disabled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// The device refused or aborted the job (`ERROR_CODE` latched).
    Device(DeviceError),
    /// The job outran the driver's watchdog.
    Timeout {
        /// Cycles the job actually took.
        waited: Cycle,
        /// The configured watchdog bound.
        watchdog: Cycle,
    },
    /// The result stream in memory did not parse (corrupted output).
    Stream(BtError),
    /// The input image would overlap the result region; split the batch.
    BatchTooLarge {
        /// Encoded image size in bytes.
        bytes: usize,
    },
    /// The job's cycle budget ran out before any attempt produced an
    /// answer. The driver stops waiting (and stops retrying) the moment the
    /// budget is spent — a deadline-bounded job never waits past it.
    DeadlineExceeded {
        /// The configured budget, in simulated cycles.
        budget: Cycle,
        /// Simulated cycles the job consumed (attempts + retry backoff)
        /// when the driver refused. May exceed `budget` by the tail of the
        /// attempt in flight — the caller's *wait* still ends at `budget`;
        /// the overshoot is charged to the device, not the caller.
        spent: Cycle,
    },
    /// Every lane that could run the job is quarantined or retired, and no
    /// degradation path (surviving lane, CPU fallback) was available.
    Quarantined {
        /// The lane the job was last assigned to.
        lane: usize,
    },
}

impl DriverError {
    /// Which layer / lane / fault class this error belongs to — the shared
    /// attribution key for `report -- faults` and the chaos soak.
    pub fn provenance(&self) -> Provenance {
        match self {
            DriverError::Device(_) => Provenance::of(FaultLayer::Device, FaultClass::DeviceError),
            DriverError::Timeout { .. } => Provenance::of(FaultLayer::Driver, FaultClass::Watchdog),
            DriverError::Stream(_) => Provenance::of(FaultLayer::Driver, FaultClass::CorruptStream),
            DriverError::BatchTooLarge { .. } => {
                Provenance::of(FaultLayer::Driver, FaultClass::Oversize)
            }
            DriverError::DeadlineExceeded { .. } => {
                Provenance::of(FaultLayer::Scheduler, FaultClass::DeadlineExceeded)
            }
            DriverError::Quarantined { lane } => {
                Provenance::of(FaultLayer::Scheduler, FaultClass::LaneQuarantined).on_lane(*lane)
            }
        }
    }
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Device(e) => write!(f, "device error: {e}"),
            DriverError::Timeout { waited, watchdog } => {
                write!(
                    f,
                    "watchdog timeout: job ran {waited} cycles (bound {watchdog})"
                )
            }
            DriverError::Stream(e) => write!(f, "result stream unparseable: {e:?}"),
            DriverError::BatchTooLarge { bytes } => {
                write!(
                    f,
                    "input image ({bytes} bytes) would overlap the result region"
                )
            }
            DriverError::DeadlineExceeded { budget, spent } => {
                write!(
                    f,
                    "deadline exceeded: budget {budget} cycles spent ({spent} consumed)"
                )
            }
            DriverError::Quarantined { lane } => {
                write!(f, "lane {lane} is quarantined and no fallback remains")
            }
        }
    }
}

impl std::error::Error for DriverError {}

/// The driver's job policy: how long to wait on the device, how often to
/// retry, and what to do when the hardware cannot answer. One value, shared
/// by the lone [`WfasicDriver`], every lane of a
/// [`crate::batch::BatchScheduler`], and the private drivers of
/// [`crate::batch::BatchScheduler::run_parallel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverPolicy {
    /// Give up on an attempt whose duration exceeds this bound (the
    /// driver's watchdog timer against a wedged device).
    pub watchdog_cycles: Cycle,
    /// Resubmit a failed job this many times before giving up (injected
    /// faults are transient, so retries genuinely help).
    pub max_retries: u32,
    /// Simulated cycles of deterministic backoff charged before each retry
    /// (a real driver sleeps between resubmissions instead of hammering a
    /// faulting device). Counts against the deadline budget; on a
    /// scheduler lane it also shifts the retry's DMA start.
    pub retry_backoff_cycles: Cycle,
    /// Optional cycle budget for the whole job (all attempts + backoff).
    /// When the budget runs out the driver refuses with
    /// [`DriverError::DeadlineExceeded`] instead of waiting or retrying
    /// further — CPU fallback does **not** rescue a blown deadline; the
    /// refusal is the contract. `None` = no deadline (the watchdog is then
    /// the only bound). A scheduler job's own `deadline` overrides it.
    pub deadline_cycles: Option<Cycle>,
    /// Re-run failed pairs (and fully-failed jobs) through the software WFA
    /// so the application always gets answers.
    pub cpu_fallback: bool,
    /// Output-buffer size programmed into `OUT_SIZE` (0 = unbounded).
    pub out_size: u64,
    /// Force the data-separation method even with one Aligner (Fig. 11's
    /// `[Sep]` configurations). Multi-Aligner jobs always separate.
    pub force_separation: bool,
}

impl Default for DriverPolicy {
    fn default() -> Self {
        DriverPolicy {
            watchdog_cycles: 1 << 40,
            max_retries: 1,
            retry_backoff_cycles: 0,
            deadline_cycles: None,
            cpu_fallback: false,
            out_size: 0,
            force_separation: false,
        }
    }
}

impl DriverPolicy {
    /// Does a job on a device of shape `cfg` use data separation?
    pub fn separates(&self, cfg: &AccelConfig) -> bool {
        self.force_separation || cfg.num_aligners > 1
    }
}

/// The driver: device + memory + policy.
#[derive(Debug)]
pub struct WfasicDriver {
    /// The accelerator.
    pub device: WfasicDevice,
    /// Main memory shared between CPU and accelerator.
    pub mem: MainMemory,
    /// Watchdog / retry / deadline / fallback / staging policy.
    pub policy: DriverPolicy,
    /// Program `PERF_CTRL` so every job collects per-stage cycle
    /// attribution, readable via [`JobResult::perf_breakdown`]. Attribution
    /// is observational: it never changes cycle results.
    pub collect_perf: bool,
    /// Where jobs are staged in main memory.
    pub layout: MemLayout,
}

impl WfasicDriver {
    /// Bring up a device with the given configuration.
    pub fn new(cfg: AccelConfig) -> Self {
        WfasicDriver {
            device: WfasicDevice::new(cfg),
            mem: MainMemory::with_default_cap(),
            policy: DriverPolicy::default(),
            collect_perf: false,
            layout: MemLayout::default(),
        }
    }

    /// Submit a batch of pairs and run to completion from cycle 0.
    ///
    /// Failures (device refusal, watchdog timeout, unparseable results) are
    /// retried up to [`DriverPolicy::max_retries`] times; if every attempt
    /// fails the job is either recovered entirely on the CPU (when
    /// [`DriverPolicy::cpu_fallback`] is set) or reported as an error.
    pub fn submit(
        &mut self,
        pairs: &[Pair],
        backtrace: bool,
        wait: WaitMode,
    ) -> Result<JobResult, DriverError> {
        let stage = Stage {
            dev: &mut self.device,
            mem: &mut self.mem,
            layout: self.layout,
            policy: self.policy,
            collect_perf: self.collect_perf,
        };
        stage.run(pairs, backtrace, &mut LonePort { wait })
    }
}

/// How one attempt loop ended, as its [`AttemptPort`] sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobEnd {
    /// The hardware answered (some pairs may have been recovered per pair).
    Answered,
    /// The deadline budget ran out; the job was refused.
    Refused,
    /// Every attempt failed; the job was recovered on the CPU or surfaced
    /// its last error.
    Exhausted,
}

/// What differs between the callers of the attempt loop: how an attempt is
/// launched on the device timeline, and what the caller tracks around it.
pub(crate) trait AttemptPort {
    /// The value programmed into `IRQ_ENABLE`.
    fn irq_enable(&self) -> bool;
    /// Run the job latched in `dev`'s registers. `backoff` is the retry
    /// backoff charged before this attempt (0 on the first).
    fn launch(&mut self, dev: &mut WfasicDevice, mem: &mut MainMemory, backoff: Cycle)
        -> RunReport;
    /// An attempt failed (watchdog, device error, or unparseable stream)
    /// and will be retried if the policy allows.
    fn attempt_failed(&mut self, _report: &RunReport) {}
    /// The job is over; `report` is its last attempt's.
    fn settle(&mut self, _report: &RunReport, _end: JobEnd) {}
}

/// The lone driver's port: every attempt runs from cycle 0 on a private
/// device, waits the way the caller asked, and acks any stray interrupt.
struct LonePort {
    wait: WaitMode,
}

impl AttemptPort for LonePort {
    fn irq_enable(&self) -> bool {
        self.wait == WaitMode::Interrupt
    }

    fn launch(&mut self, dev: &mut WfasicDevice, mem: &mut MainMemory, _: Cycle) -> RunReport {
        let report = dev.run(mem);
        // Completion: take the interrupt, falling back to polling Idle if
        // the interrupt was lost (e.g. a corrupted IRQ_ENABLE write).
        debug_assert_eq!(dev.mmio_read(offsets::IDLE), 1);
        // Acknowledge any pending interrupt (write-1-to-clear) once the
        // status registers have been collected. Always check, even when
        // polling: a corrupted IRQ_ENABLE write can raise an interrupt the
        // driver never asked for. The ack value itself travels over MMIO
        // too and can arrive corrupted (a flipped bit 0 drops the clear),
        // so verify the pending bit dropped and re-arm if not.
        for _ in 0..4 {
            if dev.mmio_read(offsets::IRQ_PENDING) == 0 {
                break;
            }
            dev.mmio_write(offsets::IRQ_PENDING, 1);
        }
        report
    }
}

/// One job's staging context: the device it runs on, the memory it reads
/// and writes, where it is staged, and the policy it runs under.
pub(crate) struct Stage<'a> {
    pub dev: &'a mut WfasicDevice,
    pub mem: &'a mut MainMemory,
    pub layout: MemLayout,
    pub policy: DriverPolicy,
    pub collect_perf: bool,
}

impl Stage<'_> {
    /// **The** attempt loop (paper §5.1 made a driver contract). Each
    /// attempt restages the image, reprograms every register over AXI-Lite
    /// (a fault may have corrupted the configuration path), and runs; then
    /// checks, in order: the deadline budget, the watchdog, the device
    /// error, the result parse, and per-pair CPU fallback. On exhaustion
    /// the whole job is recovered on the CPU or the last error surfaces.
    pub(crate) fn run(
        self,
        pairs: &[Pair],
        backtrace: bool,
        port: &mut impl AttemptPort,
    ) -> Result<JobResult, DriverError> {
        let (policy, layout) = (self.policy, self.layout);
        let max_read_len = round_up_16(
            pairs
                .iter()
                .map(|p| p.a.len().max(p.b.len()))
                .max()
                .unwrap_or(16)
                .max(16),
        );
        // The CPU parses the input and stores it in main memory (Fig. 4
        // step 1), padding every sequence to MAX_READ_LEN with dummy bases.
        let img = InputImage::encode_raw(pairs, max_read_len);
        if layout.in_addr + img.bytes.len() as u64 > layout.out_addr {
            return Err(DriverError::BatchTooLarge {
                bytes: img.bytes.len(),
            });
        }

        let separated = policy.separates(&self.dev.cfg);
        let mut config_cycles: Cycle = 0;
        // Cycle budget accounting: every attempt's duration and every retry
        // backoff counts against the (optional) deadline.
        let mut spent: Cycle = 0;
        let mut attempt = 0;
        loop {
            let backoff = if attempt > 0 {
                policy.retry_backoff_cycles
            } else {
                0
            };
            spent += backoff;
            self.mem.write(layout.in_addr, &img.bytes);
            let regs = [
                (offsets::BT_ENABLE, backtrace as u64),
                (offsets::MAX_READ_LEN, max_read_len as u64),
                (offsets::IN_ADDR, layout.in_addr),
                (offsets::IN_SIZE, img.bytes.len() as u64),
                (offsets::OUT_ADDR, layout.out_addr),
                (offsets::OUT_SIZE, policy.out_size),
                (offsets::PERF_CTRL, self.collect_perf as u64),
                (offsets::IRQ_ENABLE, port.irq_enable() as u64),
                (offsets::START, 1),
            ];
            for (off, val) in regs {
                self.dev.mmio_write(off, val);
            }
            config_cycles += AxiLite::default().cycles_for(regs.len() as u64);

            let report = port.launch(self.dev, self.mem, backoff);
            let waited = report.duration();
            spent += waited;
            if let Some(budget) = policy.deadline_cycles {
                // The caller stopped waiting the moment the budget ran out:
                // refuse with the typed error instead of parsing, retrying
                // or falling back — a late answer is still a missed
                // deadline.
                if spent > budget {
                    port.settle(&report, JobEnd::Refused);
                    return Err(DriverError::DeadlineExceeded { budget, spent });
                }
            }
            let answer = if waited > policy.watchdog_cycles {
                Err(DriverError::Timeout {
                    waited,
                    watchdog: policy.watchdog_cycles,
                })
            } else if let Some(e) = report.error {
                Err(DriverError::Device(e))
            } else {
                self.parse(pairs, backtrace, &report, separated)
                    .map_err(DriverError::Stream)
            };
            match answer {
                Ok((mut results, cpu_backtrace_cycles)) => {
                    if policy.cpu_fallback {
                        let mut cpu = CpuWfaBackend::new(self.dev.cfg.penalties);
                        for (res, pair) in results.iter_mut().zip(pairs) {
                            if !res.success {
                                *res = cpu.recover_pair(pair, backtrace);
                            }
                        }
                    }
                    port.settle(&report, JobEnd::Answered);
                    return Ok(JobResult {
                        results,
                        report,
                        config_cycles,
                        cpu_backtrace_cycles,
                        separated,
                        retries: attempt,
                    });
                }
                Err(failure) => {
                    port.attempt_failed(&report);
                    if attempt < policy.max_retries {
                        attempt += 1;
                        continue;
                    }
                    // Every attempt failed. Recover the whole batch on the
                    // CPU, or surface the last failure.
                    port.settle(&report, JobEnd::Exhausted);
                    if !policy.cpu_fallback {
                        return Err(failure);
                    }
                    let penalties = self.dev.cfg.penalties;
                    return Ok(JobResult {
                        report,
                        config_cycles,
                        retries: attempt,
                        ..JobResult::recovered(penalties, pairs, backtrace, separated)
                    });
                }
            }
        }
    }

    /// Parse the job's results from `OUT_ADDR`: the score records, or the
    /// backtrace stream replayed by the CPU backtrace (returning its
    /// modeled CPU cycles).
    fn parse(
        &self,
        pairs: &[Pair],
        backtrace: bool,
        report: &RunReport,
        separated: bool,
    ) -> Result<(Vec<AlignmentResult>, Cycle), BtError> {
        let bytes = self
            .mem
            .read(self.layout.out_addr, report.output_bytes as usize);
        if !backtrace {
            let recs = wfasic_accel::collector::parse_nbt_records(&bytes, pairs.len());
            // A short or ID-mismatched record set (torn/corrupted output)
            // leaves the affected pairs marked failed rather than crashing;
            // the CPU fallback can then recover them.
            let results = pairs
                .iter()
                .enumerate()
                .map(|(i, pair)| match recs.get(i) {
                    Some(rec) if rec.id as u32 == pair.id & 0xFFFF => AlignmentResult {
                        success: rec.success,
                        score: rec.score as u32,
                        ..AlignmentResult::failed(pair.id)
                    },
                    _ => AlignmentResult::failed(pair.id),
                })
                .collect();
            return Ok((results, 0));
        }
        let alignments: Vec<BtAlignment> = if separated {
            separate_stream(&bytes)?
        } else {
            split_consecutive_stream(&bytes)?
        };
        let by_id: std::collections::HashMap<u32, &BtAlignment> =
            alignments.iter().map(|a| (a.id, a)).collect();

        let (schedule, cfg) = (self.dev.schedule(), &self.dev.cfg);
        let p = cfg.penalties;
        let ps = cfg.parallel_sections;
        let bt_costs = BacktraceCosts::default();
        let mut cycles: Cycle = 0;
        let mut results = Vec::with_capacity(pairs.len());
        for pair in pairs {
            let bt = by_id
                .get(&(pair.id & 0x7F_FFFF))
                .ok_or(BtError::TruncatedStream)?;
            if !bt.record.success {
                results.push(AlignmentResult::failed(pair.id));
                continue;
            }
            let cigar = SeqsRef::with_seqs(&pair.a, &pair.b, |seqs| {
                backtrace_alignment(schedule, bt, seqs, &p, ps)
            })?;
            cycles += bt_costs.cycles(
                (bt.txns * 16) as u64,
                cigar.stats().edits(),
                (pair.a.len() + pair.b.len()) as u64,
                separated,
            );
            results.push(AlignmentResult {
                id: pair.id,
                success: true,
                score: bt.record.score as u32,
                cigar: Some(cigar),
                recovered: false,
            });
        }
        Ok((results, cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfa_core::{swg_score, Penalties};
    use wfasic_accel::regs::error_code;
    use wfasic_seqio::dataset::InputSetSpec;
    use wfasic_soc::fault::FaultPlan;

    #[test]
    fn a_cold_submit_backs_only_the_pages_it_touches() {
        // The output window sits at 16 MiB; a flat memory model zero-filled
        // everything below it before the first result byte.
        let pairs = InputSetSpec {
            length: 1000,
            error_pct: 5,
        }
        .generate(28, 7)
        .pairs;
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        let job = drv.submit(&pairs, false, WaitMode::PollIdle).unwrap();
        assert!(job.results.iter().all(|r| r.success));
        assert!(drv.mem.len() < 1 << 20, "backed {} bytes", drv.mem.len());
    }

    #[test]
    fn nbt_job_results_match_software() {
        let pairs = InputSetSpec {
            length: 100,
            error_pct: 10,
        }
        .generate(5, 42)
        .pairs;
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        let job = drv.submit(&pairs, false, WaitMode::PollIdle).unwrap();
        assert_eq!(job.results.len(), 5);
        assert!(job.config_cycles > 0);
        assert_eq!(job.retries, 0);
        for (res, pair) in job.results.iter().zip(&pairs) {
            assert!(res.success);
            assert!(!res.recovered);
            assert_eq!(
                res.score as u64,
                swg_score(&pair.a.bytes(), &pair.b.bytes(), &Penalties::WFASIC_DEFAULT)
            );
            assert!(res.cigar.is_none());
        }
    }

    #[test]
    fn bt_job_produces_valid_cigars() {
        let pairs = InputSetSpec {
            length: 100,
            error_pct: 10,
        }
        .generate(4, 7)
        .pairs;
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        let job = drv.submit(&pairs, true, WaitMode::PollIdle).unwrap();
        assert!(job.cpu_backtrace_cycles > 0);
        assert!(!job.separated, "single aligner defaults to no separation");
        for (res, pair) in job.results.iter().zip(&pairs) {
            assert!(res.success);
            let cigar = res.cigar.as_ref().expect("bt job yields cigars");
            cigar.check(&pair.a.bytes(), &pair.b.bytes()).unwrap();
            assert_eq!(cigar.score(&Penalties::WFASIC_DEFAULT), res.score as u64);
        }
    }

    #[test]
    fn multi_aligner_bt_separates_and_still_works() {
        let pairs = InputSetSpec {
            length: 100,
            error_pct: 5,
        }
        .generate(6, 3)
        .pairs;
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip().with_aligners(3));
        let job = drv.submit(&pairs, true, WaitMode::PollIdle).unwrap();
        assert!(job.separated);
        for (res, pair) in job.results.iter().zip(&pairs) {
            assert!(res.success);
            res.cigar
                .as_ref()
                .unwrap()
                .check(&pair.a.bytes(), &pair.b.bytes())
                .unwrap();
        }
    }

    #[test]
    fn forced_separation_single_aligner() {
        let pairs = InputSetSpec {
            length: 100,
            error_pct: 5,
        }
        .generate(2, 5)
        .pairs;
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        drv.policy.force_separation = true;
        let sep_job = drv.submit(&pairs, true, WaitMode::PollIdle).unwrap();
        assert!(sep_job.separated);

        let mut drv2 = WfasicDriver::new(AccelConfig::wfasic_chip());
        let nosep_job = drv2.submit(&pairs, true, WaitMode::PollIdle).unwrap();
        assert!(
            sep_job.cpu_backtrace_cycles > nosep_job.cpu_backtrace_cycles,
            "separation must cost more CPU cycles"
        );
        // Same CIGARs either way.
        for (a, b) in sep_job.results.iter().zip(&nosep_job.results) {
            assert_eq!(a.score, b.score);
            assert_eq!(a.cigar, b.cigar);
        }
    }

    #[test]
    fn interrupt_wait_mode() {
        let pairs = InputSetSpec {
            length: 100,
            error_pct: 5,
        }
        .generate(1, 1)
        .pairs;
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        let job = drv.submit(&pairs, false, WaitMode::Interrupt).unwrap();
        assert!(job.report.interrupt_raised);
        assert_eq!(
            drv.device.mmio_read(offsets::IRQ_PENDING),
            0,
            "driver cleared the irq"
        );
    }

    #[test]
    fn unsupported_pair_flows_through_with_success_false() {
        let mut pairs = InputSetSpec {
            length: 100,
            error_pct: 5,
        }
        .generate(3, 8)
        .pairs;
        pairs[1].b.set_byte(5, b'N');
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        let job = drv.submit(&pairs, true, WaitMode::PollIdle).unwrap();
        assert!(job.results[0].success);
        assert!(!job.results[1].success);
        assert!(job.results[1].cigar.is_none());
        assert!(job.results[2].success);
    }

    #[test]
    fn cpu_fallback_recovers_unsupported_pairs() {
        let mut pairs = InputSetSpec {
            length: 100,
            error_pct: 5,
        }
        .generate(3, 8)
        .pairs;
        pairs[1].b.set_byte(5, b'N');
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        drv.policy.cpu_fallback = true;
        let job = drv.submit(&pairs, true, WaitMode::PollIdle).unwrap();
        assert_eq!(job.recovered_count(), 1);
        for res in &job.results {
            assert!(res.success, "fallback answers every pair");
            assert!(res.cigar.is_some());
        }
        assert!(job.results[1].recovered);
        let pair = &pairs[1];
        assert_eq!(
            job.results[1].score as u64,
            swg_score(&pair.a.bytes(), &pair.b.bytes(), &Penalties::WFASIC_DEFAULT),
            "recovered score is the software optimum"
        );
    }

    #[test]
    fn watchdog_timeout_surfaces_after_retries() {
        let pairs = InputSetSpec {
            length: 100,
            error_pct: 5,
        }
        .generate(2, 9)
        .pairs;
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        drv.policy.watchdog_cycles = 1; // everything times out
        let err = drv.submit(&pairs, false, WaitMode::PollIdle).unwrap_err();
        assert!(
            matches!(err, DriverError::Timeout { watchdog: 1, .. }),
            "{err}"
        );
        // Device is still usable afterwards.
        drv.policy.watchdog_cycles = 1 << 40;
        assert!(drv.submit(&pairs, false, WaitMode::PollIdle).is_ok());
    }

    #[test]
    fn watchdog_timeout_with_fallback_still_answers() {
        let pairs = InputSetSpec {
            length: 100,
            error_pct: 5,
        }
        .generate(2, 9)
        .pairs;
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        drv.policy.watchdog_cycles = 1;
        drv.policy.cpu_fallback = true;
        let job = drv.submit(&pairs, false, WaitMode::PollIdle).unwrap();
        assert_eq!(job.recovered_count(), 2);
        assert_eq!(job.retries, drv.policy.max_retries);
        for (res, pair) in job.results.iter().zip(&pairs) {
            assert!(res.success);
            assert_eq!(
                res.score as u64,
                swg_score(&pair.a.bytes(), &pair.b.bytes(), &Penalties::WFASIC_DEFAULT)
            );
        }
    }

    #[test]
    fn device_error_surfaces_as_driver_error() {
        let pairs = InputSetSpec {
            length: 400,
            error_pct: 10,
        }
        .generate(4, 11)
        .pairs;
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        drv.policy.out_size = 32; // too small for a BT stream -> OUT_OVERRUN
        let err = drv.submit(&pairs, true, WaitMode::PollIdle).unwrap_err();
        match err {
            DriverError::Device(e) => assert_eq!(e.code, error_code::OUT_OVERRUN),
            other => panic!("expected a device error, got {other}"),
        }
    }

    #[test]
    fn heavy_faults_with_fallback_always_complete() {
        // The headline robustness property: under aggressive injected
        // faults, retry + CPU fallback still answers every pair with the
        // exact software score, and the device ends Idle.
        let pairs = InputSetSpec {
            length: 100,
            error_pct: 10,
        }
        .generate(6, 21)
        .pairs;
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        drv.policy.cpu_fallback = true;
        drv.device.set_fault_plan(FaultPlan {
            bit_flip_per_beat: 0.2,
            drop_beat: 0.02,
            bus_stall: 0.05,
            ..FaultPlan::none()
        });
        for wait in [WaitMode::PollIdle, WaitMode::Interrupt] {
            let job = drv.submit(&pairs, false, wait).unwrap();
            assert_eq!(job.results.len(), pairs.len());
            for (res, pair) in job.results.iter().zip(&pairs) {
                assert!(res.success, "every pair is answered");
                if res.recovered {
                    // CPU-recovered pairs realign the original input, so
                    // they are exact. (A bit flip that maps one valid base
                    // to another can leave a hardware pair "successful" but
                    // silently corrupted — exactly like ECC-less silicon.)
                    assert_eq!(
                        res.score as u64,
                        swg_score(&pair.a.bytes(), &pair.b.bytes(), &Penalties::WFASIC_DEFAULT)
                    );
                }
            }
            assert_eq!(drv.device.mmio_read(offsets::IDLE), 1);
            assert_eq!(drv.device.mmio_read(offsets::IRQ_PENDING), 0);
        }
        assert!(
            drv.device.fault_counters().total() > 0,
            "faults were injected"
        );
    }

    #[test]
    fn perf_breakdown_flows_through_the_driver() {
        let pairs = InputSetSpec {
            length: 100,
            error_pct: 10,
        }
        .generate(4, 13)
        .pairs;
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        drv.collect_perf = true;
        let job = drv.submit(&pairs, false, WaitMode::PollIdle).unwrap();
        let counters = job.perf_breakdown().expect("collect_perf was set");
        assert_eq!(counters.total(), job.report.total_cycles);
        let trace = job.chrome_trace().unwrap();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("aligner-0"));

        // Same job without perf: identical cycles, no breakdown.
        let mut plain = WfasicDriver::new(AccelConfig::wfasic_chip());
        let job2 = plain.submit(&pairs, false, WaitMode::PollIdle).unwrap();
        assert!(job2.perf_breakdown().is_none());
        assert_eq!(job2.report.total_cycles, job.report.total_cycles);
    }

    #[test]
    fn custom_memory_layout_relocates_the_job_without_changing_results() {
        // Regression for the hardcoded IN_ADDR/OUT_ADDR single-instance
        // assumption: a relocated layout (as every lane of a batch uses)
        // must produce bit-identical scores, CIGARs, and cycle counts.
        let pairs = InputSetSpec {
            length: 100,
            error_pct: 10,
        }
        .generate(4, 15)
        .pairs;
        let mut base = WfasicDriver::new(AccelConfig::wfasic_chip());
        let job_a = base.submit(&pairs, true, WaitMode::PollIdle).unwrap();
        let mut moved = WfasicDriver::new(AccelConfig::wfasic_chip());
        moved.layout = MemLayout::for_lane(3);
        assert_ne!(moved.layout, MemLayout::default());
        let job_b = moved.submit(&pairs, true, WaitMode::PollIdle).unwrap();
        assert_eq!(job_a.report.total_cycles, job_b.report.total_cycles);
        for (a, b) in job_a.results.iter().zip(&job_b.results) {
            assert_eq!((a.id, a.score, a.success), (b.id, b.score, b.success));
            assert_eq!(a.cigar, b.cigar);
        }
    }

    #[test]
    fn oversized_batch_is_refused_not_asserted() {
        let pairs: Vec<Pair> = (0..16)
            .map(|i| Pair::new(i, vec![b'A'; 600_000], vec![b'C'; 600_000]))
            .collect();
        let mut drv = WfasicDriver::new(AccelConfig::wfasic_chip());
        let err = drv.submit(&pairs, false, WaitMode::PollIdle).unwrap_err();
        assert!(matches!(err, DriverError::BatchTooLarge { .. }));
    }
}

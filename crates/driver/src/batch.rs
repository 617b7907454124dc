//! The batch scheduler: a queue of alignment jobs dispatched across the
//! lanes of a [`MultiLaneSoc`].
//!
//! The paper's co-design drives one WFAsic instance one job at a time; a
//! production SoC serves many alignment requests concurrently. The
//! [`BatchScheduler`] is the driver-side answer: it accepts a queue of
//! [`BatchJob`]s, spreads them over N lanes ([`DispatchPolicy::RoundRobin`]
//! or [`DispatchPolicy::ShortestQueue`]), and on each lane overlaps the
//! DMA-in of job *k+1* with the compute of job *k* (the lane's input port
//! is free once the last record has arrived — [`RunReport::input_done`] —
//! long before the Aligners drain).
//!
//! Cycle accounting stays honest end to end: every lane's transfers are
//! granted slots by the shared memory-controller arbiter (contention is
//! visible in [`BatchResult::arbiter`]), each job's `JOB_CYCLES` is a true
//! duration, and with [`BatchScheduler::collect_perf`] set the per-lane
//! counters each attribute *every* cycle of the batch window — so each
//! lane's breakdown sums exactly to [`BatchResult::total_cycles`].
//!
//! Faults follow the single-device [`DriverPolicy`] per lane: every lane
//! job runs through the driver's one attempt loop — retries (with fresh
//! per-lane fault streams), a watchdog bound, deadline refusal and optional
//! CPU fallback — so one faulting lane degrades to software answers without
//! stalling the rest of the batch. The lane supplies only its timeline
//! (DMA start, compute gate, per-lane spans) and its health ledger.
//!
//! A 1-lane batch of one job is bit-identical to
//! [`crate::WfasicDriver::submit`]: same register programming, same memory
//! layout, same uncontended bus timing. The differential suite pins this.

use crate::api::{
    AttemptPort, DriverError, DriverPolicy, JobEnd, JobResult, MemLayout, Stage, WaitMode,
    WfasicDriver,
};
use wfa_core::pool::ThreadPool;
use wfasic_accel::device::{RunReport, WfasicDevice};
use wfasic_accel::multilane::MultiLaneSoc;
use wfasic_accel::AccelConfig;
use wfasic_seqio::generate::Pair;
use wfasic_soc::arbiter::ArbiterStats;
use wfasic_soc::clock::Cycle;
use wfasic_soc::fault::{FaultCounters, FaultPlan};
use wfasic_soc::mem::MainMemory;
use wfasic_soc::perf::{attribute_window, PerfCounters, Span};

/// How jobs are spread across lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Job `i` goes to lane `i mod N`.
    RoundRobin,
    /// Each job (in submission order) goes to the lane with the least
    /// estimated queued work (total sequence bytes); ties break to the
    /// lowest lane ID. Deterministic.
    ShortestQueue,
}

/// One alignment job in a batch queue.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// The pairs to align.
    pub pairs: Vec<Pair>,
    /// Generate backtrace data (CIGARs) for this job?
    pub backtrace: bool,
    /// Optional cycle budget for this job (all attempts + retry backoff).
    /// Overrides the scheduler-level [`DriverPolicy::deadline_cycles`];
    /// when the budget runs out the job gets a typed
    /// [`DriverError::DeadlineExceeded`] refusal instead of waiting longer.
    pub deadline: Option<Cycle>,
}

impl BatchJob {
    /// A score-only job.
    pub fn score_only(pairs: Vec<Pair>) -> Self {
        BatchJob {
            pairs,
            backtrace: false,
            deadline: None,
        }
    }

    /// A job with backtrace (CIGAR) generation.
    pub fn with_backtrace(pairs: Vec<Pair>) -> Self {
        BatchJob {
            pairs,
            backtrace: true,
            deadline: None,
        }
    }

    /// Attach a per-job deadline (cycle budget).
    pub fn with_deadline(mut self, budget: Cycle) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Dispatch-cost estimate: total sequence bytes.
    fn cost(&self) -> u64 {
        self.pairs
            .iter()
            .map(|p| (p.a.len() + p.b.len()) as u64)
            .sum()
    }
}

/// Circuit-breaker state of one lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LaneState {
    /// In rotation, no open circuit.
    #[default]
    Healthy,
    /// Open circuit: the lane takes no jobs until the epoch clock reaches
    /// `until`, at which point it is re-admitted on probation.
    Quarantined {
        /// Epoch cycle at which the cooldown elapses.
        until: Cycle,
    },
    /// Re-admitted after a cooldown: back in rotation, but one more failure
    /// re-opens the circuit immediately (no K-strike grace) and one
    /// hardware success restores [`LaneState::Healthy`].
    Probation,
    /// Permanently out of rotation ([`BatchScheduler::retire_after`]
    /// quarantines exhausted). Never re-admitted.
    Retired,
}

/// Rolling health record for one lane, fed by every job outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneHealth {
    /// Circuit-breaker state.
    pub state: LaneState,
    /// Consecutive jobs on this lane that failed to produce a hardware
    /// answer (reset by any hardware success).
    pub consecutive_failures: u32,
    /// Total jobs on this lane that exhausted their retries (whether or not
    /// the CPU then recovered them).
    pub failed_jobs: u64,
    /// Total failed *attempts*, including ones a later retry recovered.
    pub failed_attempts: u64,
    /// Times this lane has been quarantined.
    pub quarantines: u32,
    /// Times this lane has been re-admitted from quarantine.
    pub readmissions: u32,
    /// Epoch cycle of the most recent quarantine (valid when
    /// `quarantines > 0`).
    pub quarantined_at: Cycle,
    /// Epoch cycles from the most recent quarantine to its re-admission —
    /// the lane's last recovery time (valid when `readmissions > 0`).
    pub last_recovery_cycles: Cycle,
}

impl LaneHealth {
    /// Is the lane accepting jobs right now?
    pub fn available(&self) -> bool {
        matches!(self.state, LaneState::Healthy | LaneState::Probation)
    }
}

/// The outcome of a batch submission.
#[derive(Debug)]
pub struct BatchResult {
    /// Per-job outcomes, in submission order. A job fails individually
    /// (its lane's retries exhausted, CPU fallback off) without failing
    /// the batch.
    pub jobs: Vec<Result<JobResult, DriverError>>,
    /// Cycle at which the whole batch completed (the slowest lane).
    pub total_cycles: Cycle,
    /// Which lane each job ran on, in submission order.
    pub lanes: Vec<usize>,
    /// Per-lane completion cycle.
    pub lane_done: Vec<Cycle>,
    /// Shared-port arbitration statistics (per-lane grants/waits).
    pub arbiter: ArbiterStats,
    /// Per-lane per-stage attribution of the *entire* batch window
    /// `[0, total_cycles)`, when perf collection was on: each lane's
    /// counters sum exactly to `total_cycles` (idle cycles included).
    pub lane_perf: Option<Vec<PerfCounters>>,
}

impl BatchResult {
    /// Alignments completed successfully across all jobs.
    pub fn alignments(&self) -> usize {
        self.jobs
            .iter()
            .filter_map(|j| j.as_ref().ok())
            .map(|j| j.results.iter().filter(|r| r.success).count())
            .sum()
    }

    /// Aggregate throughput in alignments per cycle.
    pub fn throughput(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.alignments() as f64 / self.total_cycles as f64
        }
    }
}

/// The batch scheduler: a [`MultiLaneSoc`], its memory, and the dispatch /
/// recovery policy.
#[derive(Debug)]
pub struct BatchScheduler {
    /// The multi-lane SoC.
    pub soc: MultiLaneSoc,
    /// Main memory shared by the CPU and every lane.
    pub mem: MainMemory,
    /// How jobs are spread across lanes.
    pub dispatch: DispatchPolicy,
    /// Per-job watchdog / retry / deadline / fallback / staging policy,
    /// applied on every lane (and to `run_parallel`'s private drivers).
    pub policy: DriverPolicy,
    /// Quarantine a lane after this many consecutive job failures
    /// (0 = circuit breaker disabled; health counters still accumulate).
    pub quarantine_threshold: u32,
    /// Epoch cycles a quarantined lane sits out before probation.
    pub quarantine_cooldown: Cycle,
    /// Retire a lane permanently after this many quarantines (0 = never).
    pub retire_after: u32,
    /// Collect per-stage attribution on every lane.
    pub collect_perf: bool,
    cfg: AccelConfig,
    layouts: Vec<MemLayout>,
    health: Vec<LaneHealth>,
    /// Monotone cross-batch clock: per-batch timelines restart at 0, so
    /// quarantine cooldowns are measured on this accumulated clock instead.
    epoch: Cycle,
    /// Epoch cycles charged by CPU-degraded jobs in the current batch (the
    /// clock must advance even when no lane ran, or a fully-quarantined
    /// scheduler could never reach a cooldown).
    epoch_extra: Cycle,
    degraded_jobs: u64,
    deadline_refusals: u64,
}

impl BatchScheduler {
    /// A scheduler over `lanes` identically-configured lanes.
    pub fn new(cfg: AccelConfig, lanes: usize) -> Self {
        BatchScheduler {
            soc: MultiLaneSoc::new(cfg, lanes),
            mem: MainMemory::with_default_cap(),
            dispatch: DispatchPolicy::RoundRobin,
            policy: DriverPolicy::default(),
            quarantine_threshold: 0,
            quarantine_cooldown: 0,
            retire_after: 0,
            collect_perf: false,
            cfg,
            layouts: (0..lanes).map(MemLayout::for_lane).collect(),
            health: vec![LaneHealth::default(); lanes],
            epoch: 0,
            epoch_extra: 0,
            degraded_jobs: 0,
            deadline_refusals: 0,
        }
    }

    /// Number of lanes.
    pub fn num_lanes(&self) -> usize {
        self.soc.num_lanes()
    }

    /// Install a fault plan on one lane; the other lanes stay clean.
    pub fn set_lane_fault_plan(&mut self, lane: usize, plan: FaultPlan) {
        self.soc.set_lane_fault_plan(lane, plan);
    }

    /// Per-lane health records (circuit-breaker state, rolling counts).
    pub fn lane_health(&self) -> &[LaneHealth] {
        &self.health
    }

    /// The monotone cross-batch clock: total cycles of every batch run so
    /// far (plus the modeled cost of CPU-degraded work).
    pub fn epoch(&self) -> Cycle {
        self.epoch
    }

    /// Times any lane opened its circuit.
    pub fn quarantine_events(&self) -> u64 {
        self.health.iter().map(|h| h.quarantines as u64).sum()
    }

    /// Times any lane was re-admitted from quarantine.
    pub fn readmissions(&self) -> u64 {
        self.health.iter().map(|h| h.readmissions as u64).sum()
    }

    /// Whole jobs answered by the CPU because no lane would take them.
    pub fn degraded_jobs(&self) -> u64 {
        self.degraded_jobs
    }

    /// Jobs refused with [`DriverError::DeadlineExceeded`].
    pub fn deadline_refusals(&self) -> u64 {
        self.deadline_refusals
    }

    /// Injected-fault counters merged across every lane's device.
    pub fn fault_counters(&self) -> FaultCounters {
        let mut total = FaultCounters::default();
        for lane in 0..self.num_lanes() {
            total.merge(&self.soc.lane(lane).fault_counters());
        }
        total
    }

    /// Run a queue of **independent single-lane jobs** across host threads.
    ///
    /// Each job runs on a private one-lane [`WfasicDriver`] carrying this
    /// scheduler's [`DriverPolicy`] and perf collection (the job's own
    /// deadline overriding the policy's), so jobs share no simulated state:
    /// every job's device starts at cycle 0 with a private port. Host
    /// threads only change wall-clock — results come back in submission
    /// order and each [`JobResult`] (cycles, perf counters, everything) is
    /// bit-identical to a sequential `WfasicDriver::submit` of the same
    /// pairs, at any `threads` value.
    ///
    /// Worker threads keep no state between jobs. A fresh driver is cheap:
    /// the simulated DRAM is paged, so results at the 16 MiB output window
    /// back only the pages the job touches.
    ///
    /// This is the throughput path for embarrassingly-parallel work. It is
    /// deliberately distinct from [`BatchScheduler::submit_batch`]: the
    /// shared-bus multi-lane timeline is inherently serial (the arbiter
    /// allocates one port's cycles across lanes), so that path stays
    /// sequential. Per-lane fault plans belong to the shared SoC and do not
    /// apply here — the private drivers are fault-free.
    pub fn run_parallel(
        &self,
        jobs: &[BatchJob],
        threads: usize,
    ) -> Vec<Result<JobResult, DriverError>> {
        // Copy the policy out of `self`: the worker closure must not
        // capture the scheduler itself (the shared SoC is single-threaded
        // state and is not touched by this path).
        let (cfg, policy, collect_perf) = (self.cfg, self.policy, self.collect_perf);
        ThreadPool::new(threads).map(jobs, move |_, job| {
            let mut drv = WfasicDriver::new(cfg);
            drv.policy = DriverPolicy {
                deadline_cycles: job.deadline.or(policy.deadline_cycles),
                ..policy
            };
            drv.collect_perf = collect_perf;
            drv.submit(&job.pairs, job.backtrace, WaitMode::PollIdle)
        })
    }

    /// Submit a queue of jobs and run the whole batch to completion.
    /// Results come back in submission order regardless of which lane ran
    /// each job or how the lanes' timelines interleaved.
    ///
    /// Containment: jobs are dispatched only to available lanes (healthy or
    /// on probation). A lane that opens its circuit mid-batch hands its
    /// remaining queue to the not-yet-run lanes after it; when no lane
    /// remains the leftovers are answered by the CPU fallback (marked
    /// `recovered`) or refused with [`DriverError::Quarantined`]. With the
    /// breaker disabled (`quarantine_threshold == 0`, the default) dispatch
    /// and cycle results are bit-identical to the pre-quarantine scheduler.
    pub fn submit_batch(&mut self, jobs: &[BatchJob]) -> BatchResult {
        let n = self.num_lanes();
        self.readmit_due_lanes();
        let avail: Vec<usize> = (0..n).filter(|&l| self.health[l].available()).collect();
        let mut results: Vec<Option<Result<JobResult, DriverError>>> =
            jobs.iter().map(|_| None).collect();
        let mut lanes = vec![0usize; jobs.len()];
        let mut lane_done = vec![0 as Cycle; n];
        let mut lane_spans: Vec<Vec<Span>> = vec![Vec::new(); n];
        let mut total: Cycle = 0;

        // Phase 1: dispatch jobs to the available lanes' queues. With every
        // lane open-circuit, fall through with empty queues — each job then
        // degrades to the CPU (or a typed refusal) below.
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); n];
        if avail.is_empty() {
            for (i, _) in jobs.iter().enumerate() {
                lanes[i] = i % n;
            }
        } else {
            match self.dispatch {
                DispatchPolicy::RoundRobin => {
                    for i in 0..jobs.len() {
                        let lane = avail[i % avail.len()];
                        queues[lane].push(i);
                        lanes[i] = lane;
                    }
                }
                DispatchPolicy::ShortestQueue => {
                    let mut load = vec![0u64; n];
                    for (i, job) in jobs.iter().enumerate() {
                        let lane = *avail
                            .iter()
                            .min_by_key(|&&l| (load[l], l))
                            .expect("avail is non-empty");
                        queues[lane].push(i);
                        lanes[i] = lane;
                        load[lane] += job.cost().max(1);
                    }
                }
            }
        }

        // Phase 2: run each lane's queue in order, overlapping each job's
        // DMA-in with its predecessor's compute. Lanes are simulated one
        // after another; the shared arbiter's gap allocation keeps the
        // port timeline identical to a truly concurrent execution.
        for (ai, &lane) in avail.iter().enumerate() {
            let mut dma_free: Cycle = 0;
            let mut compute_free: Cycle = 0;
            let mut qi = 0;
            while qi < queues[lane].len() {
                let ji = queues[lane][qi];
                qi += 1;
                let outcome = self.run_job(
                    lane,
                    &jobs[ji],
                    &mut dma_free,
                    &mut compute_free,
                    &mut lane_spans[lane],
                );
                results[ji] = Some(outcome);
                if !self.health[lane].available() {
                    // The circuit opened: shift this lane's remaining queue
                    // to the lanes that have not run yet, round-robin.
                    let rest: Vec<usize> = queues[lane].drain(qi..).collect();
                    let later = &avail[ai + 1..];
                    for (k, ji2) in rest.into_iter().enumerate() {
                        if later.is_empty() {
                            results[ji2] = Some(self.degrade_job(&jobs[ji2], lane));
                        } else {
                            let tgt = later[k % later.len()];
                            queues[tgt].push(ji2);
                            lanes[ji2] = tgt;
                        }
                    }
                }
            }
            lane_done[lane] = compute_free.max(dma_free);
            total = total.max(lane_done[lane]);
        }

        // Jobs never queued (every lane was open-circuit at dispatch).
        for (ji, slot) in results.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(self.degrade_job(&jobs[ji], lanes[ji]));
            }
        }

        // Advance the epoch clock past this batch, including the modeled
        // cost of any CPU-degraded work (otherwise a fully-quarantined
        // scheduler would freeze time and never reach a cooldown).
        self.epoch += total + self.epoch_extra;
        self.epoch_extra = 0;

        let lane_perf = self.collect_perf.then(|| {
            lane_spans
                .iter()
                .map(|spans| attribute_window(spans, 0, total))
                .collect()
        });

        BatchResult {
            jobs: results
                .into_iter()
                .map(|r| r.expect("every job ran"))
                .collect(),
            total_cycles: total,
            lanes,
            lane_done,
            arbiter: self.soc.arbiter_stats(),
            lane_perf,
        }
    }

    /// Re-admit quarantined lanes whose cooldown has elapsed on the epoch
    /// clock: open circuit → probation. Called at every batch boundary.
    fn readmit_due_lanes(&mut self) {
        for h in &mut self.health {
            if let LaneState::Quarantined { until } = h.state {
                if self.epoch >= until {
                    h.state = LaneState::Probation;
                    h.consecutive_failures = 0;
                    h.readmissions += 1;
                    h.last_recovery_cycles = self.epoch.saturating_sub(h.quarantined_at);
                }
            }
        }
    }

    /// Record a job-level lane failure (retries exhausted) at epoch cycle
    /// `now` and open the circuit when the breaker trips. Deadline and
    /// oversize refusals are policy refusals, not lane faults — they never
    /// reach here.
    fn note_lane_failure(&mut self, lane: usize, now: Cycle) {
        let h = &mut self.health[lane];
        h.consecutive_failures += 1;
        h.failed_jobs += 1;
        if self.quarantine_threshold == 0 {
            return;
        }
        let trips = match h.state {
            // One strike on probation.
            LaneState::Probation => true,
            LaneState::Healthy => h.consecutive_failures >= self.quarantine_threshold,
            LaneState::Quarantined { .. } | LaneState::Retired => false,
        };
        if trips {
            h.quarantines += 1;
            if self.retire_after > 0 && h.quarantines >= self.retire_after {
                h.state = LaneState::Retired;
            } else {
                h.quarantined_at = now;
                h.state = LaneState::Quarantined {
                    until: now + self.quarantine_cooldown,
                };
            }
        }
    }

    /// Answer a job that no lane would take: whole-job CPU recovery when
    /// the fallback is enabled (every result marked `recovered`), a typed
    /// [`DriverError::Quarantined`] refusal otherwise. Charges a modeled
    /// software cost to the epoch clock so degraded time still passes.
    fn degrade_job(&mut self, job: &BatchJob, lane: usize) -> Result<JobResult, DriverError> {
        if !self.policy.cpu_fallback {
            return Err(DriverError::Quarantined { lane });
        }
        self.degraded_jobs += 1;
        let costs = crate::cpu_model::CpuCosts::sargantana_scalar();
        self.epoch_extra += job
            .pairs
            .iter()
            .map(|p| {
                costs.per_alignment + ((p.a.len() + p.b.len()) as f64 * costs.per_base) as Cycle
            })
            .sum::<Cycle>();
        Ok(JobResult::recovered(
            self.cfg.penalties,
            &job.pairs,
            job.backtrace,
            self.policy.separates(&self.cfg),
        ))
    }

    /// Run one job on `lane` through the driver's attempt loop, starting
    /// its DMA at `*dma_free` and its compute at `*compute_free`; advance
    /// both past the job, then feed the outcome to the lane's health.
    fn run_job(
        &mut self,
        lane: usize,
        job: &BatchJob,
        dma_free: &mut Cycle,
        compute_free: &mut Cycle,
        lane_spans: &mut Vec<Span>,
    ) -> Result<JobResult, DriverError> {
        let stage = Stage {
            dev: self.soc.lane_mut(lane),
            mem: &mut self.mem,
            layout: self.layouts[lane],
            policy: DriverPolicy {
                deadline_cycles: job.deadline.or(self.policy.deadline_cycles),
                ..self.policy
            },
            collect_perf: self.collect_perf,
        };
        let mut port = LanePort {
            dma_start: *dma_free,
            dma_free,
            compute_free,
            spans: lane_spans,
            failed_attempts: 0,
            end: None,
        };
        let outcome = stage.run(&job.pairs, job.backtrace, &mut port);
        let h = &mut self.health[lane];
        h.failed_attempts += port.failed_attempts;
        match port.end {
            // A hardware answer closes the breaker window: the
            // consecutive-failure count resets, and a probation lane has
            // earned back full health.
            Some(JobEnd::Answered) => {
                h.consecutive_failures = 0;
                if h.state == LaneState::Probation {
                    h.state = LaneState::Healthy;
                }
            }
            // A deadline refusal is a policy outcome, not a lane fault: it
            // never feeds the circuit breaker.
            Some(JobEnd::Refused) => self.deadline_refusals += 1,
            // The lane burned every retry, which is what the circuit
            // breaker counts (whether or not the CPU then recovered).
            Some(JobEnd::Exhausted) => {
                let now = self.epoch + *port.compute_free;
                self.note_lane_failure(lane, now);
            }
            // Refused before staging (oversized image): the lane never ran.
            None => {}
        }
        outcome
    }
}

/// One scheduler lane's side of the attempt loop: attempts run on the
/// lane's overlapped timeline (the first overlaps the previous job's
/// compute; a retry replays after the failed attempt plus the backoff), and
/// the lane's free cycles move past the job however it ends. Unlike the
/// lone driver it never acks a stray `IRQ_PENDING`: lanes always poll.
struct LanePort<'a> {
    dma_start: Cycle,
    dma_free: &'a mut Cycle,
    compute_free: &'a mut Cycle,
    spans: &'a mut Vec<Span>,
    failed_attempts: u64,
    end: Option<JobEnd>,
}

impl AttemptPort for LanePort<'_> {
    fn irq_enable(&self) -> bool {
        false
    }

    fn launch(
        &mut self,
        dev: &mut WfasicDevice,
        mem: &mut MainMemory,
        backoff: Cycle,
    ) -> RunReport {
        self.dma_start += backoff;
        let report = dev.run_at(mem, self.dma_start, *self.compute_free);
        if let Some(perf) = &report.perf {
            self.spans.extend_from_slice(&perf.spans);
        }
        report
    }

    fn attempt_failed(&mut self, report: &RunReport) {
        self.dma_start = report.total_cycles;
        self.failed_attempts += 1;
    }

    fn settle(&mut self, report: &RunReport, end: JobEnd) {
        if end == JobEnd::Answered {
            *self.dma_free = report.input_done;
            *self.compute_free = report.total_cycles;
        } else {
            // The silicon ran regardless: the timeline advances past the
            // refused or failed attempts, so the rest of the batch is not
            // stalled.
            *self.dma_free = (*self.dma_free).max(report.input_done);
            *self.compute_free = (*self.compute_free).max(report.total_cycles);
        }
        self.end = Some(end);
    }
}

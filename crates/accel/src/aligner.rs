//! The Aligner module (paper §4.3): per-score extend/compute iteration over
//! batches of `P` parallel sections, with cycle accounting and backtrace
//! origin-block emission.
//!
//! The Aligner follows the deterministic [`crate::schedule::WavefrontSchedule`]:
//! for every computed score it (1) computes the frame column in batches of
//! `P` cells (emitting one origin block per batch when backtrace is
//! enabled), (2) extends the new M cells — each parallel section extends the
//! cells of its stripe back-to-back — and (3) checks termination. An
//! alignment whose score exceeds `Score_max = 2*k_max + 4` (Eq. 6) is
//! terminated with `Success = 0`.

use crate::config::AccelConfig;
use crate::extend::{compare_cycles, extend_cell, section_run_cycles};
use crate::extractor::ExtractedPair;
use crate::schedule::WavefrontSchedule;
use wfa_core::arena::WavefrontArena;
use wfa_core::bitpack::PackedSeq;
use wfa_core::kernel::{compute_row, compute_row_with_origins, lcp_packed_batch};
use wfa_core::wavefront::{offset_is_valid, Wavefront, OFFSET_NULL};
use wfasic_seqio::memimage::{bt_block_bytes, pack_code_into, pack_codes_dense};
use wfasic_soc::clock::Cycle;

/// Reusable host-side scratch for the Aligner datapath: the wavefront
/// buffer arena plus the per-step section/origin staging vectors.
///
/// Purely a wall-clock optimization — reusing scratch across pairs changes
/// no outcome field and no cycle count (the `ci-check` gate and the
/// differential sweep pin this). One scratch per device/lane; it reaches
/// the workload's high-water mark on the first pair and stops allocating.
#[derive(Debug, Default)]
pub struct AlignerScratch {
    /// Wavefront offset-buffer pool (shared with the software WFA oracle's
    /// [`wfa_core::wfa_align_seqs_with_arena`] when the driver falls back).
    pub arena: WavefrontArena,
    section_sum: Vec<Cycle>,
    section_cnt: Vec<Cycle>,
    code_row: Vec<u8>,
    sub_row: Vec<i32>,
    open_row: Vec<i32>,
    iext_row: Vec<i32>,
    dext_row: Vec<i32>,
    // Staging for the batched extend: one entry per valid M cell of the
    // current frame column (cell index, section, (i, j) start, LCP result).
    ext_idx: Vec<u32>,
    ext_sec: Vec<u32>,
    ext_is: Vec<i32>,
    ext_js: Vec<i32>,
    ext_lcp: Vec<u32>,
}

impl AlignerScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Work counters for one alignment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlignerStats {
    /// Frame-column cells computed (each computes I, D and M).
    pub cells: u64,
    /// Compute batches issued.
    pub batches: u64,
    /// Extend operations performed (valid M cells).
    pub extends: u64,
    /// Bases compared across all extends.
    pub bases_compared: u64,
    /// Computed score steps executed.
    pub score_steps: u64,
}

/// The outcome of aligning one pair (or rejecting it).
#[derive(Debug, Clone)]
pub struct AlignerOutcome {
    /// Alignment ID.
    pub id: u32,
    /// Completed within the hardware limits?
    pub success: bool,
    /// Alignment score (valid when `success`).
    pub score: u32,
    /// Terminal diagonal `k_end = |b| - |a|`.
    pub k_end: i32,
    /// Total alignment cycles (compute + extend + per-score overhead).
    pub cycles: Cycle,
    /// Cycles in the extend phases.
    pub extend_cycles: Cycle,
    /// Cycles in the compute phases.
    pub compute_cycles: Cycle,
    /// Packed origin blocks in emission order, concatenated into one flat
    /// stream of [`wfasic_seqio::memimage::bt_block_bytes`]`(P)`-byte blocks
    /// (empty when backtrace is disabled or the pair was rejected). The flat
    /// form is exactly what Collector BT streams out, so nothing downstream
    /// ever re-concatenates per-block allocations.
    pub bt_blocks: Vec<u8>,
    /// Work counters.
    pub stats: AlignerStats,
}

impl AlignerOutcome {
    /// Decompose this alignment's busy interval `[t0, t0 + cycles)` into
    /// its three pipeline phases for perf attribution: compute, extend,
    /// then per-score loop overhead, laid out back to back. The phase
    /// lengths are the outcome's exact cycle accounting, so the spans
    /// always cover the busy interval with no gap or overlap.
    pub fn phase_spans(&self, t0: Cycle, aligner: usize) -> [wfasic_soc::perf::Span; 3] {
        use wfasic_soc::perf::{track, Span, Stage};
        let t1 = t0 + self.compute_cycles;
        let t2 = t1 + self.extend_cycles;
        let tr = track::ALIGNER0 + aligner as u16;
        [
            Span {
                stage: Stage::Compute,
                track: tr,
                start: t0,
                end: t1,
                id: self.id,
            },
            Span {
                stage: Stage::Extend,
                track: tr,
                start: t1,
                end: t2,
                id: self.id,
            },
            Span {
                stage: Stage::ScoreLoop,
                track: tr,
                start: t2,
                end: t0 + self.cycles,
                id: self.id,
            },
        ]
    }
}

/// Borrowed view of a wavefront for the per-cell hot loop: the same
/// semantics as [`Wavefront::get`] (NULL outside the stored range) without
/// the per-access `Option` chain. A missing source becomes the empty view
/// (`lo > hi`), so every lookup resolves to NULL through the one range
/// check the access needs anyway.
#[derive(Clone, Copy)]
struct WfView<'a> {
    lo: i32,
    hi: i32,
    offs: &'a [i32],
}

impl<'a> WfView<'a> {
    fn of(w: Option<&'a Wavefront>) -> Self {
        match w {
            Some(w) => WfView {
                lo: w.lo,
                hi: w.hi,
                offs: &w.offsets,
            },
            None => WfView {
                lo: 0,
                hi: -1,
                offs: &[],
            },
        }
    }

    /// Gather the wavefront's offsets for `k in lo..=hi` into `row` with
    /// [`Wavefront::get`] semantics (NULL outside the stored range): NULL
    /// fill plus one block copy of the overlap (the batched compute
    /// kernel's source form).
    fn fill_row(&self, row: &mut Vec<i32>, lo: i32, hi: i32) {
        let len = (hi - lo + 1) as usize;
        row.resize(len, OFFSET_NULL);
        let s = lo.max(self.lo);
        let e = hi.min(self.hi);
        if s <= e {
            // Write each slot exactly once: NULL head, overlap copy, NULL
            // tail (a clear + full NULL resize would write the overlap twice).
            let dst = (s - lo) as usize;
            let src = (s - self.lo) as usize;
            let count = (e - s + 1) as usize;
            row[..dst].fill(OFFSET_NULL);
            row[dst..dst + count].copy_from_slice(&self.offs[src..src + count]);
            row[dst + count..].fill(OFFSET_NULL);
        } else {
            row.fill(OFFSET_NULL);
        }
    }
}

/// One score's wavefront storage inside the Aligner window.
#[derive(Debug, Clone)]
struct WfSet {
    score: u32,
    m: Wavefront,
    i: Wavefront,
    d: Wavefront,
}

/// Retained window of recent wavefronts (the hardware keeps only the
/// lookback needed by Eq. 3: 4 M columns + 1 I + 1 D for (4,6,2)).
#[derive(Debug, Default)]
struct Window {
    sets: Vec<WfSet>,
}

impl Window {
    fn get(&self, score: i64) -> Option<&WfSet> {
        if score < 0 {
            return None;
        }
        self.sets.iter().find(|s| s.score as i64 == score)
    }

    /// Push a new set, retiring everything older than the lookback into the
    /// arena pool.
    fn push(&mut self, set: WfSet, lookback: u32, arena: &mut WavefrontArena) {
        let min_keep = set.score.saturating_sub(lookback);
        let mut idx = 0;
        while idx < self.sets.len() {
            if self.sets[idx].score < min_keep {
                let old = self.sets.remove(idx);
                arena.recycle(old.m);
                arena.recycle(old.i);
                arena.recycle(old.d);
            } else {
                idx += 1;
            }
        }
        self.sets.push(set);
    }

    /// Return every retained set's buffers to the arena.
    fn drain_into(&mut self, arena: &mut WavefrontArena) {
        for set in self.sets.drain(..) {
            arena.recycle(set.m);
            arena.recycle(set.i);
            arena.recycle(set.d);
        }
    }
}

/// Align an extracted pair. `bt` enables origin-block emission.
///
/// Convenience wrapper over [`align_extracted_in`] with throwaway scratch.
pub fn align_extracted(
    cfg: &AccelConfig,
    schedule: &WavefrontSchedule,
    ex: &ExtractedPair,
    bt: bool,
) -> AlignerOutcome {
    align_extracted_in(cfg, schedule, ex, bt, &mut AlignerScratch::new())
}

/// [`align_extracted`] with caller-provided reusable scratch.
pub fn align_extracted_in(
    cfg: &AccelConfig,
    schedule: &WavefrontSchedule,
    ex: &ExtractedPair,
    bt: bool,
    scratch: &mut AlignerScratch,
) -> AlignerOutcome {
    let Some((ram_a, ram_b)) = &ex.rams else {
        // Unsupported read: Success = 0, no processing beyond a couple of
        // control cycles.
        return AlignerOutcome {
            id: ex.id,
            success: false,
            score: 0,
            k_end: 0,
            cycles: 2,
            extend_cycles: 0,
            compute_cycles: 0,
            bt_blocks: Vec::new(),
            stats: AlignerStats::default(),
        };
    };
    let a = ram_a.to_packed();
    let b = ram_b.to_packed();
    align_packed_in(cfg, schedule, ex.id, &a, &b, bt, scratch)
}

/// Align two packed sequences (the Aligner datapath proper).
///
/// Convenience wrapper over [`align_packed_in`] with throwaway scratch.
pub fn align_packed(
    cfg: &AccelConfig,
    schedule: &WavefrontSchedule,
    id: u32,
    a: &PackedSeq,
    b: &PackedSeq,
    bt: bool,
) -> AlignerOutcome {
    align_packed_in(cfg, schedule, id, a, b, bt, &mut AlignerScratch::new())
}

/// [`align_packed`] with caller-provided reusable scratch (wavefront arena
/// + staging vectors). Bit-identical outcomes; just fewer allocations.
pub fn align_packed_in(
    cfg: &AccelConfig,
    schedule: &WavefrontSchedule,
    id: u32,
    a: &PackedSeq,
    b: &PackedSeq,
    bt: bool,
    scratch: &mut AlignerScratch,
) -> AlignerOutcome {
    let n = a.len() as i32;
    let m = b.len() as i32;
    let k_end = m - n;
    let p = cfg.parallel_sections;
    let lookback = cfg.penalties.x.max(cfg.penalties.o + cfg.penalties.e);

    let mut out = AlignerOutcome {
        id,
        success: false,
        score: 0,
        k_end,
        cycles: 0,
        extend_cycles: 0,
        compute_cycles: 0,
        bt_blocks: Vec::new(),
        stats: AlignerStats::default(),
    };

    let mut window = Window::default();

    // --- Score 0: the initial wavefront, extended. ---
    let mut m0 = scratch.arena.initial();
    {
        out.stats.score_steps += 1;
        let r = extend_cell(cfg, a, b, 0, 0);
        out.stats.extends += 1;
        out.stats.bases_compared += r.matches as u64 + 1;
        m0.set(0, r.matches as i32);
        out.extend_cycles += section_run_cycles(cfg, &[r.compare_cycles]);
        out.cycles = out.extend_cycles + cfg.score_loop_overhead;
    }
    if k_end == 0 && m0.get(0) == m {
        out.success = true;
        out.score = 0;
        scratch.arena.recycle(m0);
        return out;
    }
    let i0 = scratch.arena.wavefront(0, 0);
    let d0 = scratch.arena.wavefront(0, 0);
    window.push(
        WfSet {
            score: 0,
            m: m0,
            i: i0,
            d: d0,
        },
        lookback,
        &mut scratch.arena,
    );

    // --- Scheduled score steps. ---
    let px = cfg.penalties.x as i64;
    let poe = (cfg.penalties.o + cfg.penalties.e) as i64;
    let pe = cfg.penalties.e as i64;

    for step in &schedule.steps()[1..] {
        let s = step.score as i64;
        let depth = step.depth as i32;
        out.stats.score_steps += 1;

        // The batched kernel stores to every slot in [-depth, depth], so the
        // buffers need sizing only, not the arena's NULL fill.
        let mut wm = scratch.arena.wavefront_overwritten(-depth, depth);
        let mut wi = scratch.arena.wavefront_overwritten(-depth, depth);
        let mut wd = scratch.arena.wavefront_overwritten(-depth, depth);

        // Hoist the window lookups out of the per-cell loop: the three
        // source sets are fixed for the whole score step, so resolve each
        // once — and flatten them to slice views so the per-cell fetch is a
        // single range check instead of an `Option` chain.
        let set_sub = window.get(s - px);
        let set_open = window.get(s - poe);
        let set_ext = window.get(s - pe);
        let sub_m = WfView::of(set_sub.map(|t| &t.m));
        let open_m = WfView::of(set_open.map(|t| &t.m));
        let ext_i = WfView::of(set_ext.map(|t| &t.i));
        let ext_d = WfView::of(set_ext.map(|t| &t.d));

        // Compute phase: P-aligned row groups of the wavefront matrix
        // covering the frame column's range (row = k + k_max; the Fig. 6
        // bank distribution serves aligned batches).
        let center = cfg.k_max as i32;
        let row_lo = (center - depth) as usize;
        let row_hi = (center + depth) as usize;
        let first_group = row_lo / p;
        let last_group = row_hi / p;
        let batches = last_group - first_group + 1;
        out.stats.batches += batches as u64;
        out.stats.cells += (row_hi - row_lo + 1) as u64;
        out.compute_cycles += batches as Cycle * cfg.compute_batch_cycles;

        // Output stores are unconditional: an invalid component is exactly
        // OFFSET_NULL (see `compute_cell_bare`), identical to the untouched
        // arena fill, so skipping the validity branches changes nothing.
        // The whole frame column runs through the batched SIMD kernel either
        // way. Values are bit-identical to `compute_cell_bare` per cell, and
        // the batch/cycle accounting above depends only on the row range —
        // host vector width never reaches the simulated cycle counts.
        let wm_offs = &mut wm.offsets[..];
        let wi_offs = &mut wi.offsets[..];
        let wd_offs = &mut wd.offsets[..];
        sub_m.fill_row(&mut scratch.sub_row, -depth - 1, depth + 1);
        open_m.fill_row(&mut scratch.open_row, -depth - 1, depth + 1);
        ext_i.fill_row(&mut scratch.iext_row, -depth - 1, depth + 1);
        ext_d.fill_row(&mut scratch.dext_row, -depth - 1, depth + 1);
        if bt {
            // Backtrace on: the kernel also emits each cell's 5-bit origin
            // code (identical to `compute_cell().origin.code()`), which the
            // P-lane batches below pack into the hardware block layout.
            let code_row = &mut scratch.code_row;
            code_row.clear();
            code_row.resize(wm_offs.len(), 0);
            compute_row_with_origins(
                &scratch.sub_row,
                &scratch.open_row,
                &scratch.iext_row,
                &scratch.dext_row,
                -depth,
                n,
                m,
                wi_offs,
                wd_offs,
                wm_offs,
                code_row,
            );
            // Pack each P-lane batch straight into the tail of the flat
            // stream: lanes outside the frame column pack code 0 (NONE),
            // which is a no-op on the zeroed block bytes.
            let bb = bt_block_bytes(p);
            for group in first_group..=last_group {
                let gstart = group * p;
                let base = out.bt_blocks.len();
                out.bt_blocks.resize(base + bb, 0);
                let block = &mut out.bt_blocks[base..];
                let s = gstart.max(row_lo);
                let e = (gstart + p - 1).min(row_hi);
                if s == gstart {
                    // Group aligned with the frame column: one dense pack
                    // (PEXT-accelerated) over its codes. All but the first
                    // group of every step take this path.
                    pack_codes_dense(block, &code_row[s - row_lo..=e - row_lo]);
                } else {
                    for row in s..=e {
                        pack_code_into(block, row - gstart, code_row[row - row_lo]);
                    }
                }
            }
        } else {
            compute_row(
                &scratch.sub_row,
                &scratch.open_row,
                &scratch.iext_row,
                &scratch.dext_row,
                -depth,
                n,
                m,
                wi_offs,
                wd_offs,
                wm_offs,
            );
        }

        // Extend phase: each section extends its stripe's valid M cells.
        // Per-section cycles are accumulated as (sum, count) pairs:
        // `section_run_cycles` over a run is fill + sum + count * issue, so
        // the pairs carry everything the max needs without staging vectors.
        if scratch.section_sum.len() < p {
            scratch.section_sum.resize(p, 0);
            scratch.section_cnt.resize(p, 0);
        }
        let section_sum = &mut scratch.section_sum[..p];
        let section_cnt = &mut scratch.section_cnt[..p];
        section_sum.fill(0);
        section_cnt.fill(0);
        // Pass 1 — collect the valid cells' coordinates. `sec` tracks
        // `idx % p` incrementally (striping over the *full* row range, so
        // the section assignment is exactly the hardware's bank mapping,
        // independent of which cells are valid).
        scratch.ext_idx.clear();
        scratch.ext_sec.clear();
        scratch.ext_is.clear();
        scratch.ext_js.clear();
        let mut sec = 0usize;
        for (idx, &off) in wm.offsets.iter().enumerate() {
            let cur = sec;
            sec += 1;
            if sec == p {
                sec = 0;
            }
            if !offset_is_valid(off) {
                continue;
            }
            let k = idx as i32 - depth;
            scratch.ext_idx.push(idx as u32);
            scratch.ext_sec.push(cur as u32);
            scratch.ext_is.push(off - k);
            scratch.ext_js.push(off);
        }
        // Pass 2 — resolve every cell's LCP through the batched SIMD
        // kernel (bit-identical to per-cell `extend_cell`).
        let cells = scratch.ext_idx.len();
        scratch.ext_lcp.resize(cells, 0);
        lcp_packed_batch(
            a,
            b,
            &scratch.ext_is,
            &scratch.ext_js,
            &mut scratch.ext_lcp[..cells],
        );
        // Pass 3 — apply results: offsets, per-section cycle pairs, stats.
        // `stopped_inside` (both coordinates still in range after the run)
        // is exactly `matches < limit`, since matches ≤ limit = min(n-i, m-j).
        let mut bases: u64 = 0;
        for t in 0..cells {
            let matches = scratch.ext_lcp[t] as usize;
            let limit = (n - scratch.ext_is[t]).min(m - scratch.ext_js[t]);
            bases += matches as u64 + (((matches as i32) < limit) as u64);
            wm.offsets[scratch.ext_idx[t] as usize] += matches as i32;
            section_sum[scratch.ext_sec[t] as usize] += compare_cycles(cfg, matches);
            section_cnt[scratch.ext_sec[t] as usize] += 1;
        }
        out.stats.bases_compared += bases;
        // Every valid M cell was extended exactly once.
        out.stats.extends += section_cnt.iter().sum::<Cycle>();
        let extend_phase = section_sum
            .iter()
            .zip(section_cnt.iter())
            .filter(|(_, &cnt)| cnt > 0)
            .map(|(&sum, &cnt)| cfg.extend_fill_cycles + sum + cnt * cfg.extend_issue_cycles)
            .max()
            .unwrap_or(0);
        out.extend_cycles += extend_phase;

        // Termination check.
        let done = k_end.abs() <= depth && wm.get(k_end) == m;
        if done {
            out.success = true;
            out.score = step.score;
        }
        window.push(
            WfSet {
                score: step.score,
                m: wm,
                i: wi,
                d: wd,
            },
            lookback,
            &mut scratch.arena,
        );
        if done {
            break;
        }
    }

    window.drain_into(&mut scratch.arena);
    out.cycles =
        out.extend_cycles + out.compute_cycles + out.stats.score_steps * cfg.score_loop_overhead;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfa_core::{swg_score, Penalties};

    fn cfg() -> AccelConfig {
        AccelConfig::wfasic_chip()
    }

    fn run(a: &[u8], b: &[u8], bt: bool) -> AlignerOutcome {
        let c = cfg();
        let schedule = WavefrontSchedule::for_config(&c);
        let pa = PackedSeq::from_ascii(a).unwrap();
        let pb = PackedSeq::from_ascii(b).unwrap();
        align_packed(&c, &schedule, 1, &pa, &pb, bt)
    }

    #[test]
    fn identical_pair_scores_zero() {
        let out = run(b"ACGTACGTACGT", b"ACGTACGTACGT", false);
        assert!(out.success);
        assert_eq!(out.score, 0);
        assert!(out.cycles > 0);
    }

    #[test]
    fn scores_match_software_wfa() {
        let cases: [(&[u8], &[u8]); 6] = [
            (b"GATTACA", b"GACTACA"),
            (b"GATTACA", b"GATTTACA"),
            (b"AAAA", b"AAAATTTT"),
            (b"ACGTACGTACGTACGT", b"TGCATGCA"),
            (b"GATTACAGATTACAGATTACA", b"GATCACAGATAACAGATTACA"),
            (b"A", b"T"),
        ];
        for (a, b) in cases {
            let out = run(a, b, false);
            assert!(out.success, "a={:?}", a);
            assert_eq!(
                out.score as u64,
                swg_score(a, b, &Penalties::WFASIC_DEFAULT),
                "a={:?} b={:?}",
                std::str::from_utf8(a).unwrap(),
                std::str::from_utf8(b).unwrap()
            );
        }
    }

    #[test]
    fn empty_sequences() {
        let out = run(b"", b"", false);
        assert!(out.success);
        assert_eq!(out.score, 0);
        let out = run(b"", b"ACG", false);
        assert!(out.success);
        assert_eq!(out.score, 6 + 3 * 2);
        let out = run(b"ACG", b"", false);
        assert!(out.success);
        assert_eq!(out.score, 6 + 3 * 2);
    }

    #[test]
    fn score_limit_sets_success_zero() {
        // A tiny k_max bounds the score at 2*k+4; wildly different sequences
        // blow past it and must come back with Success = 0.
        let mut c = cfg();
        c.k_max = 3;
        let schedule = WavefrontSchedule::for_config(&c);
        let a = PackedSeq::from_ascii(&[b'A'; 40]).unwrap();
        let b = PackedSeq::from_ascii(&[b'T'; 40]).unwrap();
        let out = align_packed(&c, &schedule, 9, &a, &b, false);
        assert!(!out.success);
    }

    #[test]
    fn bt_blocks_follow_schedule() {
        let c = cfg();
        let schedule = WavefrontSchedule::for_config(&c);
        let a = PackedSeq::from_ascii(b"GATTACAGATTACA").unwrap();
        let b = PackedSeq::from_ascii(b"GATCACAGATAACA").unwrap();
        let out = align_packed(&c, &schedule, 1, &a, &b, true);
        assert!(out.success);
        // The flat stream is whole blocks of P*5 bits each, and the block
        // count must match the deterministic schedule.
        let bb = wfasic_seqio::memimage::bt_block_bytes(c.parallel_sections);
        assert_eq!(out.bt_blocks.len() % bb, 0);
        assert_eq!(
            (out.bt_blocks.len() / bb) as u64,
            schedule.total_blocks_through(out.score),
            "emitted blocks must match the deterministic schedule"
        );
    }

    #[test]
    fn bt_disabled_emits_nothing() {
        let out = run(b"GATTACA", b"GACTACA", false);
        assert!(out.bt_blocks.is_empty());
    }

    #[test]
    fn phase_spans_tile_the_busy_interval_exactly() {
        for (a, b) in [
            (b"GATTACAGATTACA".as_slice(), b"GATCACAGATAACA".as_slice()),
            (b"ACGT".as_slice(), b"ACGT".as_slice()), // score-0 early return
        ] {
            let out = run(a, b, false);
            let t0 = 1000;
            let spans = out.phase_spans(t0, 2);
            assert_eq!(spans[0].start, t0);
            assert_eq!(spans[0].end, spans[1].start);
            assert_eq!(spans[1].end, spans[2].start);
            assert_eq!(spans[2].end, t0 + out.cycles, "no gap, no overlap");
            assert!(spans
                .iter()
                .all(|s| s.track == wfasic_soc::perf::track::ALIGNER0 + 2));
            assert!(spans.iter().all(|s| s.id == out.id));
        }
    }

    #[test]
    fn cycle_accounting_is_consistent() {
        let out = run(
            b"GATTACAGATTACAGATTACAGATTACA",
            b"GATCACAGATAACAGATTACAGATTACA",
            false,
        );
        assert_eq!(
            out.cycles,
            out.extend_cycles
                + out.compute_cycles
                + out.stats.score_steps * cfg().score_loop_overhead
        );
        assert!(out.stats.cells > 0);
        assert!(out.stats.batches > 0);
    }

    #[test]
    fn more_parallel_sections_fewer_cycles_on_wide_wavefronts() {
        // A long, noisy pair produces wide wavefronts; 64 sections must beat
        // 8 sections in cycles.
        let a: Vec<u8> = (0..600).map(|i| b"ACGT"[i % 4]).collect();
        let mut b = a.clone();
        for idx in (7..580).step_by(13) {
            b[idx] = if b[idx] == b'A' { b'C' } else { b'A' };
        }
        let c64 = cfg();
        let c8 = cfg().with_parallel_sections(8);
        let pa = PackedSeq::from_ascii(&a).unwrap();
        let pb = PackedSeq::from_ascii(&b).unwrap();
        let o64 = align_packed(
            &c64,
            &WavefrontSchedule::for_config(&c64),
            0,
            &pa,
            &pb,
            false,
        );
        let o8 = align_packed(&c8, &WavefrontSchedule::for_config(&c8), 0, &pa, &pb, false);
        assert!(o64.success && o8.success);
        assert_eq!(o64.score, o8.score, "parallelism must not change results");
        assert!(
            o64.cycles * 2 < o8.cycles,
            "64 PS ({}) should be much faster than 8 PS ({})",
            o64.cycles,
            o8.cycles
        );
    }

    #[test]
    fn rejected_pair_outcome() {
        let c = cfg();
        let schedule = WavefrontSchedule::for_config(&c);
        let ex = ExtractedPair {
            id: 5,
            rams: None,
            reject: Some(crate::extractor::RejectReason::UnknownBase),
            decode_cycles: 5,
        };
        let out = align_extracted(&c, &schedule, &ex, true);
        assert!(!out.success);
        assert_eq!(out.id, 5);
        assert!(out.bt_blocks.is_empty());
    }
}

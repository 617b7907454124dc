//! Bidirectional linear-memory WFA (the `BiWfa` strategy).
//!
//! The exact full-history WFA retains every wavefront so the backtrace can
//! replay the optimal path — `O(s²)` cells for a score-`s` alignment, which
//! is what makes the CPU oracle choke on realistic PacBio/ONT long reads.
//! This module produces the *same optimal score and a valid optimal CIGAR*
//! in `O(s)` retained wavefront memory, BiWFA-style (Marco-Sola et al.):
//!
//! 1. **Score phase** — one unidirectional *score-only* pass (already
//!    windowed to the penalty lookback, hence linear memory) establishes
//!    the exact optimal score `s*` up front. Every later phase is checked
//!    against this ground truth, so no heuristic below can silently cost
//!    optimality.
//! 2. **Meet phase** — a forward machine over `(a, b)` and a reverse
//!    machine over the reversed sequences advance in lock-step (always the
//!    lower-score side), each keeping only a short window of recent
//!    wavefronts. When the two frontiers touch on a diagonal, the touch is
//!    recorded as a *split candidate*: an M–M touch of front costs
//!    `(c1, c2)` witnesses an alignment of cost `c1 + c2` through that
//!    cell; an I–I or D–D touch witnesses `c1 + c2 - o` (a split inside a
//!    gap run pays the open on both sides).
//! 3. **Recurse + verify** — the best candidates are tried in balance
//!    order: the pair is split at the candidate cell, both halves are
//!    aligned recursively, and the spliced CIGAR is *re-scored as a
//!    whole*. The top level accepts a splice only if it re-scores to
//!    exactly `s*`; interior nodes accept a splice that re-scores no worse
//!    than its candidate claimed. Candidates that fail are discarded and
//!    the next is tried; a node that runs out of candidates falls back to
//!    the exact full-history engine (correct, just not linear-memory for
//!    that — empirically rare — subtree).
//!
//! Because a spliced CIGAR is a real alignment of the full pair, its cost
//! can never be below `s*`; the top level returns it only when it equals
//! `s*`, so the result is optimal by construction, with the exact engine
//! as the universal fallback.
//!
//! Small subproblems (`n + m ≤ 1 kb` or expected score within a few
//! penalty lookbacks) drop straight to the exact engine: at that size full
//! history *is* linear memory, and it terminates the recursion.

use crate::arena::WavefrontArena;
use crate::cigar::{Cigar, Op};
use crate::penalties::Penalties;
use crate::wavefront::{offset_is_valid, Wavefront};
use crate::wfa::{
    wfa_align_seqs_ref, Retention, SeqsRef, WfaAlignment, WfaError, WfaMachine, WfaOptions,
    WfaStats,
};

/// Subproblems at or below this total length are aligned exactly.
const EXACT_CUTOFF_LEN: usize = 1024;

/// Split candidates tried per recursion node before falling back to the
/// exact engine.
const MAX_SPLIT_TRIES: usize = 6;

/// Split candidates retained per recursion node.
const MAX_CANDIDATES: usize = 24;

/// Which wavefront components touched to produce a split candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Touch {
    /// M–M: the witnessed path crosses the split cell between operations.
    Mm,
    /// I–I: the split lies inside an insertion run (open paid twice).
    Ii,
    /// D–D: the split lies inside a deletion run (open paid twice).
    Dd,
}

/// A recorded frontier touch: a candidate split of the pair.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// Cost of an alignment through this split (`c1 + c2`, minus `o` for
    /// gap-interior touches).
    value: u64,
    /// Forward-side front cost.
    c_fwd: u32,
    /// Reverse-side front cost.
    c_rev: u32,
    /// Split row in `a` (forward coordinates).
    i: usize,
    /// Split column in `b` (forward coordinates).
    j: usize,
    touch: Touch,
}

impl Candidate {
    fn balance(&self) -> i64 {
        (self.c_fwd as i64 - self.c_rev as i64).abs()
    }
}

/// Aggregate `rhs` into `lhs`: work counters add, watermark stats max.
/// BiWFA phases run sequentially (the meet-phase machines are torn down
/// before the recursion), so the peak retained memory of the whole run is
/// the max — not the sum — of the per-phase peaks.
fn absorb_stats(lhs: &mut WfaStats, rhs: &WfaStats) {
    lhs.cells_computed += rhs.cells_computed;
    lhs.bases_compared += rhs.bases_compared;
    lhs.extend_calls += rhs.extend_calls;
    lhs.score_steps += rhs.score_steps;
    lhs.max_wavefront_len = lhs.max_wavefront_len.max(rhs.max_wavefront_len);
    lhs.peak_memory_bytes = lhs.peak_memory_bytes.max(rhs.peak_memory_bytes);
}

/// Entry point for the `BiWfa` strategy (called by
/// [`crate::wfa::wfa_align_seqs_ref`] when a CIGAR is requested).
pub(crate) fn biwfa_align(
    seqs: SeqsRef<'_>,
    opts: &WfaOptions,
    arena: &mut WavefrontArena,
) -> Result<WfaAlignment, WfaError> {
    opts.penalties.validate().map_err(WfaError::BadPenalties)?;
    let p = opts.penalties;

    // Phase 1: the exact optimal score, from a strictly-windowed
    // score-only pass. Runs on the caller's representation (packed stays
    // packed) and honors the caller's score limit.
    let (target, mut stats) = exact_score(seqs, &p, opts.score_limit, arena)?;
    let target = target as u64;

    // Phases 2 and 3 run on plain bytes: the recursion needs arbitrary
    // sub-slices and reversed copies, which the packed representation
    // cannot lend.
    let (a_buf, b_buf);
    let (a, b): (&[u8], &[u8]) = match seqs {
        SeqsRef::Bytes(a, b) => (a, b),
        SeqsRef::Packed(pa, pb) => {
            a_buf = pa.to_ascii();
            b_buf = pb.to_ascii();
            (&a_buf, &b_buf)
        }
    };

    let mut cigar = Cigar::new();
    let achieved = biwfa_rec(a, b, target, true, &p, arena, &mut cigar, &mut stats)?;
    debug_assert!(cigar.check(a, b).is_ok(), "BiWFA produced an invalid CIGAR");

    if achieved != target {
        // Every splice the recursion could have accepted re-scores to the
        // ground-truth optimum, and the exact fallback is optimal by
        // definition — so this is unreachable; keep a guarded fallback
        // rather than a panic in release builds.
        debug_assert_eq!(achieved, target, "BiWFA diverged from the score phase");
        let (exact, _) = exact_node(a, b, &p, arena, &mut stats)?;
        cigar = exact;
    }

    Ok(WfaAlignment {
        score: target as u32,
        cigar: Some(cigar),
        stats,
    })
}

/// The exact optimal score in strictly-bounded memory: a unidirectional
/// score-only machine that retains only the penalty-lookback window.
fn exact_score(
    seqs: SeqsRef<'_>,
    p: &Penalties,
    score_limit: Option<u32>,
    arena: &mut WavefrontArena,
) -> Result<(u32, WfaStats), WfaError> {
    let lookback = p.x.max(p.o + p.e) as usize;
    let mut mach = WfaMachine::new(seqs, *p, None, score_limit, arena);
    loop {
        if mach.extend_current() && mach.reached_end() {
            let (score, stats) = (mach.s as u32, mach.stats);
            mach.finish(arena);
            return Ok((score, stats));
        }
        if let Err(e) = mach.step(arena, Retention::Strict(lookback)) {
            mach.finish(arena);
            return Err(e);
        }
    }
}

/// Align `a` vs `b` exactly (full-history engine), absorbing its work
/// stats. Returns the CIGAR and its exact cost.
fn exact_node(
    a: &[u8],
    b: &[u8],
    p: &Penalties,
    arena: &mut WavefrontArena,
    stats: &mut WfaStats,
) -> Result<(Cigar, u64), WfaError> {
    let r = wfa_align_seqs_ref(SeqsRef::Bytes(a, b), &WfaOptions::exact(*p), arena)?;
    absorb_stats(stats, &r.stats);
    Ok((
        r.cigar.expect("exact mode produces a CIGAR"),
        r.score as u64,
    ))
}

/// Recursively align `a` vs `b`, appending the transcript to `out`.
///
/// `expected` is the believed optimal cost of this subproblem. At the top
/// level it comes from the score phase and is `trusted`: only splices that
/// re-score to exactly `expected` are accepted. Below the top it is
/// inherited from the parent's candidate — a hint that sizes the meet
/// phase, not a trusted fact. Returns the actual re-scored cost of the
/// appended transcript.
#[allow(clippy::too_many_arguments)]
fn biwfa_rec(
    a: &[u8],
    b: &[u8],
    expected: u64,
    trusted: bool,
    p: &Penalties,
    arena: &mut WavefrontArena,
    out: &mut Cigar,
    stats: &mut WfaStats,
) -> Result<u64, WfaError> {
    let n = a.len();
    let m = b.len();

    // Degenerate bases: one side empty — the transcript is forced.
    if n == 0 || m == 0 {
        if m > 0 {
            out.push_run(Op::Ins, m as u32);
        }
        if n > 0 {
            out.push_run(Op::Del, n as u32);
        }
        return Ok(p.gap_cost(n.max(m) as u32) as u64);
    }

    let lookback = p.x.max(p.o + p.e) as u64;
    // Small or nearly-converged subproblems: full history is already
    // linear-memory at this scale, and this terminates the recursion.
    if n + m <= EXACT_CUTOFF_LEN || expected <= 8 * lookback {
        let (cigar, cost) = exact_node(a, b, p, arena, stats)?;
        splice(out, &cigar);
        return Ok(cost);
    }

    let mut candidates = meet_phase(a, b, expected, p, arena, stats)?;
    if trusted {
        // The score phase already told us the optimum: a touch claiming
        // less is provably spurious, one claiming more is provably
        // suboptimal. Only exact-value splits are worth recursing on.
        candidates.retain(|c| c.value == expected);
    }

    // Try the most balanced candidates first: balanced splits halve the
    // problem, and their touch cells sit where the two frontiers met —
    // overwhelmingly a cell of an optimal path.
    for cand in candidates.iter().take(MAX_SPLIT_TRIES) {
        let mut spliced = Cigar::new();
        let mut try_stats = *stats;
        let got = try_split(a, b, cand, p, arena, &mut spliced, &mut try_stats)?;
        // A splice is a real alignment of the full pair, so `got` can
        // never be below this subproblem's true optimum: accepting
        // `got <= cand.value` keeps only genuine witnesses.
        let accept = if trusted {
            got == expected
        } else {
            got <= cand.value
        };
        if accept {
            *stats = try_stats;
            splice(out, &spliced);
            return Ok(got);
        }
    }

    // No candidate verified (or none found): exact fallback. Correctness
    // is unaffected; only this subtree loses the memory bound.
    let (cigar, cost) = exact_node(a, b, p, arena, stats)?;
    splice(out, &cigar);
    Ok(cost)
}

/// Split at `cand` and align both halves recursively; appends to `out`
/// and returns the re-scored cost of the whole spliced transcript.
fn try_split(
    a: &[u8],
    b: &[u8],
    cand: &Candidate,
    p: &Penalties,
    arena: &mut WavefrontArena,
    out: &mut Cigar,
    stats: &mut WfaStats,
) -> Result<u64, WfaError> {
    let (i, j) = (cand.i, cand.j);
    match cand.touch {
        Touch::Mm => {
            biwfa_rec(
                &a[..i],
                &b[..j],
                cand.c_fwd as u64,
                false,
                p,
                arena,
                out,
                stats,
            )?;
            biwfa_rec(
                &a[i..],
                &b[j..],
                cand.c_rev as u64,
                false,
                p,
                arena,
                out,
                stats,
            )?;
        }
        Touch::Ii => {
            // The split lies inside an insertion run: peel one explicit
            // `I` so the halves splice back into a single gap run.
            let hint = (cand.c_fwd as u64).saturating_sub(p.e as u64);
            biwfa_rec(&a[..i], &b[..j - 1], hint, false, p, arena, out, stats)?;
            out.push_run(Op::Ins, 1);
            let hint = (cand.c_rev as u64).saturating_sub(p.e as u64);
            biwfa_rec(&a[i..], &b[j..], hint, false, p, arena, out, stats)?;
        }
        Touch::Dd => {
            let hint = (cand.c_fwd as u64).saturating_sub(p.e as u64);
            biwfa_rec(&a[..i - 1], &b[..j], hint, false, p, arena, out, stats)?;
            out.push_run(Op::Del, 1);
            let hint = (cand.c_rev as u64).saturating_sub(p.e as u64);
            biwfa_rec(&a[i..], &b[j..], hint, false, p, arena, out, stats)?;
        }
    }
    // Re-score the spliced transcript as a whole: `Cigar::score` sees the
    // merged runs, so a gap run healed across the split point is charged
    // exactly one open.
    Ok(out.score(p))
}

/// Append `piece` to `out`, merging adjacent same-op runs at the seam.
fn splice(out: &mut Cigar, piece: &Cigar) {
    for &(len, op) in piece.runs() {
        out.push_run(op, len);
    }
}

/// Drive a forward and a reverse [`WfaMachine`] toward each other and
/// collect frontier-touch candidates, best (lowest value, then most
/// balanced) first.
fn meet_phase(
    a: &[u8],
    b: &[u8],
    expected: u64,
    p: &Penalties,
    arena: &mut WavefrontArena,
    stats: &mut WfaStats,
) -> Result<Vec<Candidate>, WfaError> {
    let n = a.len();
    let m = b.len();
    let lookback = p.x.max(p.o + p.e) as usize;
    // Retention window: a touch pairs the newest front on one side with a
    // front up to `window` scores old on the other. Optimal splits have a
    // representative within `lookback + o` of perfect balance (consecutive
    // split cells along a path differ by at most `max(x, o+e)` in cost,
    // plus `o` once inside gap runs), so this window never ages one out.
    let window = lookback + p.o as usize + 4;
    // Advance both sides to `horizon`: past the balanced representative of
    // any optimal split, with slack for an imperfect `expected` hint.
    let horizon = ((expected as usize + p.o as usize + window) / 2 + 2).max(window);

    let ar: Vec<u8> = a.iter().rev().copied().collect();
    let br: Vec<u8> = b.iter().rev().copied().collect();

    let mut fwd = WfaMachine::new(SeqsRef::Bytes(a, b), *p, None, None, arena);
    let mut rev = WfaMachine::new(SeqsRef::Bytes(&ar, &br), *p, None, None, arena);

    let mut cands: Vec<Candidate> = Vec::new();
    let mut phase_peak: u64 = 0;

    // Extend the two score-0 fronts, then alternate: step the lower-score
    // side, extend its new front, and scan that front against the other
    // side's retained window.
    fwd.extend_current();
    rev.extend_current();
    scan_touches(&fwd, &rev, n, m, p, window, true, &mut cands);

    loop {
        phase_peak = phase_peak.max(fwd.live_memory() + rev.live_memory());
        let fwd_turn = fwd.s <= rev.s;
        let (mover, fixed) = if fwd_turn {
            (&mut fwd, &rev)
        } else {
            (&mut rev, &fwd)
        };
        if mover.at_cap() {
            // The score cap is the all-gaps bound, which admits every
            // pair — reaching it without a touch means the hint starved
            // us; surface "no candidates" and let the caller fall back.
            break;
        }
        mover.step(arena, Retention::Strict(window))?;
        let mut met_end = false;
        if mover.extend_current() {
            met_end = mover.reached_end();
            scan_touches(mover, fixed, n, m, p, window, fwd_turn, &mut cands);
        }
        let depth = fwd.s.min(rev.s);
        if met_end || (depth >= horizon && !cands.is_empty()) {
            break;
        }
        if depth >= 2 * horizon + 8 {
            // Hint was badly low and nothing ever touched — bail to the
            // exact fallback rather than crawl to the score cap.
            break;
        }
    }

    let fwd_stats = fwd.stats;
    let rev_stats = rev.stats;
    fwd.finish(arena);
    rev.finish(arena);
    absorb_stats(stats, &fwd_stats);
    absorb_stats(stats, &rev_stats);
    stats.peak_memory_bytes = stats.peak_memory_bytes.max(phase_peak);

    cands.sort_by_key(|c| (c.value, c.balance(), c.touch != Touch::Mm));
    Ok(cands)
}

/// Scan `mover`'s newest (just-extended) front against every front still
/// retained by `fixed`, recording each diagonal touch as a candidate.
#[allow(clippy::too_many_arguments)]
fn scan_touches(
    mover: &WfaMachine<'_>,
    fixed: &WfaMachine<'_>,
    n: usize,
    m: usize,
    p: &Penalties,
    window: usize,
    mover_is_fwd: bool,
    cands: &mut Vec<Candidate>,
) {
    // Cheap reachability gate: M offsets dominate I/D on the same
    // diagonal, so until the two sides' best anti-diagonals span the
    // matrix no component can touch.
    if mover.max_antidiag + fixed.max_antidiag < (n + m) as i64 {
        return;
    }
    let c_mover = mover.s;
    let Some(mover_set) = mover.front(c_mover) else {
        return;
    };
    for c_fixed in fixed.s.saturating_sub(window)..=fixed.s {
        let Some(fixed_set) = fixed.front(c_fixed) else {
            continue;
        };
        // M–M touch: witnesses cost c_mover + c_fixed.
        record_component_touches(
            Some(&mover_set.m),
            Some(&fixed_set.m),
            c_mover,
            c_fixed,
            n,
            m,
            0,
            Touch::Mm,
            mover_is_fwd,
            cands,
        );
        // I–I / D–D touch: both halves pay the open, so the witnessed
        // alignment (one gap run crossing the split) costs `o` less.
        record_component_touches(
            mover_set.i.as_ref(),
            fixed_set.i.as_ref(),
            c_mover,
            c_fixed,
            n,
            m,
            p.o as u64,
            Touch::Ii,
            mover_is_fwd,
            cands,
        );
        record_component_touches(
            mover_set.d.as_ref(),
            fixed_set.d.as_ref(),
            c_mover,
            c_fixed,
            n,
            m,
            p.o as u64,
            Touch::Dd,
            mover_is_fwd,
            cands,
        );
    }
}

/// Record every diagonal on which `mover`'s component overlaps `fixed`'s.
#[allow(clippy::too_many_arguments)]
fn record_component_touches(
    mover_w: Option<&Wavefront>,
    fixed_w: Option<&Wavefront>,
    c_mover: usize,
    c_fixed: usize,
    n: usize,
    m: usize,
    open_credit: u64,
    touch: Touch,
    mover_is_fwd: bool,
    cands: &mut Vec<Candidate>,
) {
    let (Some(mw), Some(fw)) = (mover_w, fixed_w) else {
        return;
    };
    // mover diagonal k ↔ fixed diagonal (m-n) - k: reversing both
    // sequences maps diagonal k to (m-n)-k, in either direction.
    let shift = m as i32 - n as i32;
    let klo = mw.lo.max(shift - fw.hi);
    let khi = mw.hi.min(shift - fw.lo);
    for k in klo..=khi {
        let f = mw.get(k);
        let r = fw.get(shift - k);
        if !offset_is_valid(f) || !offset_is_valid(r) {
            continue;
        }
        if f as i64 + r as i64 >= m as i64 {
            let (c_fwd, c_rev, k_fwd, off_fwd) = if mover_is_fwd {
                (c_mover, c_fixed, k, f)
            } else {
                (c_fixed, c_mover, shift - k, r)
            };
            let value = ((c_fwd + c_rev) as u64).saturating_sub(open_credit);
            let j = off_fwd as usize;
            let i = (off_fwd - k_fwd) as usize;
            // Gap-interior splits peel one op off the forward half, so
            // the touch cell must not sit on the matrix edge for that op.
            let usable = match touch {
                Touch::Mm => true,
                Touch::Ii => j >= 1,
                Touch::Dd => i >= 1,
            };
            if usable && i <= n && j <= m {
                push_candidate(
                    cands,
                    Candidate {
                        value,
                        c_fwd: c_fwd as u32,
                        c_rev: c_rev as u32,
                        i,
                        j,
                        touch,
                    },
                );
            }
        }
    }
}

/// How far above the best-seen value a candidate may sit and still be
/// retained: a spurious touch can undercut every true split by up to a
/// gap-open, so keeping a one-open band preserves the true tier as retry
/// material.
const VALUE_TIER_SLACK: u64 = 8;

/// Keep the candidate list small: values within [`VALUE_TIER_SLACK`] of
/// the best seen, capped at [`MAX_CANDIDATES`] by (value, balance).
fn push_candidate(cands: &mut Vec<Candidate>, cand: Candidate) {
    let best = cands.iter().map(|c| c.value).min().unwrap_or(u64::MAX);
    if cand.value > best.saturating_add(VALUE_TIER_SLACK) {
        return;
    }
    if cand.value < best {
        // A strictly better tier evicts everything beyond its own band.
        let cutoff = cand.value + VALUE_TIER_SLACK;
        cands.retain(|c| c.value <= cutoff);
    }
    if cands.len() < MAX_CANDIDATES {
        cands.push(cand);
    } else if let Some((idx, worst)) = cands
        .iter()
        .enumerate()
        .max_by_key(|&(_, c)| (c.value, c.balance()))
    {
        if (cand.value, cand.balance()) < (worst.value, worst.balance()) {
            cands[idx] = cand;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;
    use crate::wfa::{wfa_align, AlignStrategy};

    const P: Penalties = Penalties::WFASIC_DEFAULT;

    fn random_seq(len: usize, rng: &mut SmallRng) -> Vec<u8> {
        const BASES: [u8; 4] = *b"ACGT";
        (0..len).map(|_| BASES[rng.gen_range(0, 4)]).collect()
    }

    fn mutate(a: &[u8], error_pct: usize, rng: &mut SmallRng) -> Vec<u8> {
        const BASES: [u8; 4] = *b"ACGT";
        let mut b = Vec::with_capacity(a.len() + 8);
        for &ch in a {
            if rng.gen_range(0, 100) < error_pct {
                match rng.gen_range(0, 3) {
                    0 => b.push(BASES[rng.gen_range(0, 4)]), // substitute
                    1 => {
                        b.push(BASES[rng.gen_range(0, 4)]); // insert
                        b.push(ch);
                    }
                    _ => {} // delete
                }
            } else {
                b.push(ch);
            }
        }
        b
    }

    fn biwfa_opts() -> WfaOptions {
        WfaOptions::biwfa(P)
    }

    #[test]
    fn matches_exact_on_small_pairs() {
        let cases: &[(&[u8], &[u8])] = &[
            (b"GATTACA", b"GATTACA"),
            (b"GATTACA", b"GACTATA"),
            (b"AAAA", b"AAAATTTTAAAA"),
            (b"ACGTACGTACGT", b"ACGT"),
            (b"A", b"T"),
            (b"", b"ACGT"),
            (b"ACGT", b""),
        ];
        for (a, b) in cases {
            let exact = wfa_align(a, b, &WfaOptions::exact(P)).unwrap();
            let bi = wfa_align(a, b, &biwfa_opts()).unwrap();
            assert_eq!(bi.score, exact.score, "score mismatch on {a:?} vs {b:?}");
            let cigar = bi.cigar.expect("BiWFA must produce a CIGAR");
            cigar.check(a, b).unwrap();
            assert_eq!(cigar.score(&P), exact.score as u64);
        }
    }

    #[test]
    fn matches_exact_on_mutated_pairs_past_the_cutoff() {
        let mut rng = SmallRng::seed_from_u64(0x5EED_B1F4);
        for &(len, err) in &[(700usize, 5usize), (1500, 5), (2500, 10), (4000, 2)] {
            let a = random_seq(len, &mut rng);
            let b = mutate(&a, err, &mut rng);
            let exact = wfa_align(&a, &b, &WfaOptions::exact(P)).unwrap();
            let bi = wfa_align(&a, &b, &biwfa_opts()).unwrap();
            assert_eq!(bi.score, exact.score, "len={len} err={err}%");
            let cigar = bi.cigar.unwrap();
            cigar.check(&a, &b).unwrap();
            assert_eq!(cigar.score(&P), exact.score as u64, "len={len} err={err}%");
        }
    }

    #[test]
    fn linear_memory_on_a_long_pair() {
        let mut rng = SmallRng::seed_from_u64(0xB1F4_0001);
        let a = random_seq(8_000, &mut rng);
        let b = mutate(&a, 5, &mut rng);
        let exact = wfa_align(&a, &b, &WfaOptions::exact(P)).unwrap();
        let bi = wfa_align(&a, &b, &biwfa_opts()).unwrap();
        assert_eq!(bi.score, exact.score);
        assert!(
            bi.stats.peak_memory_bytes * 4 <= exact.stats.peak_memory_bytes,
            "BiWFA peak {} not ≥4× below exact peak {}",
            bi.stats.peak_memory_bytes,
            exact.stats.peak_memory_bytes,
        );
    }

    #[test]
    fn score_only_biwfa_requests_use_the_windowed_engine() {
        let opts = WfaOptions {
            compute_cigar: false,
            ..biwfa_opts()
        };
        let r = wfa_align(b"GATTACAGATTACA", b"GATCACAGATTACA", &opts).unwrap();
        assert_eq!(r.score, 4);
        assert!(r.cigar.is_none());

        // On a long pair the strict window shows: same score as the
        // legacy score-only engine, far smaller retained-memory peak.
        let mut rng = SmallRng::seed_from_u64(0x5C02E);
        let a = random_seq(6000, &mut rng);
        let b = mutate(&a, 5, &mut rng);
        let bi = wfa_align(&a, &b, &opts).unwrap();
        let legacy = wfa_align(&a, &b, &WfaOptions::score_only(Penalties::WFASIC_DEFAULT)).unwrap();
        assert_eq!(bi.score, legacy.score);
        assert!(
            bi.stats.peak_memory_bytes * 8 <= legacy.stats.peak_memory_bytes,
            "strict window peak {} vs legacy peak {}",
            bi.stats.peak_memory_bytes,
            legacy.stats.peak_memory_bytes
        );
    }

    #[test]
    fn respects_the_score_limit() {
        let mut rng = SmallRng::seed_from_u64(7);
        let a = random_seq(2000, &mut rng);
        let b = random_seq(2000, &mut rng);
        let opts = WfaOptions {
            score_limit: Some(10),
            ..biwfa_opts()
        };
        assert!(matches!(
            wfa_align(&a, &b, &opts),
            Err(WfaError::ScoreLimitExceeded { limit: 10 })
        ));
    }

    #[test]
    fn packed_inputs_round_trip_through_biwfa() {
        use crate::bitpack::PackedSeq;
        let mut rng = SmallRng::seed_from_u64(0xACC7);
        let a = random_seq(1800, &mut rng);
        let b = mutate(&a, 5, &mut rng);
        let pa = PackedSeq::from_ascii(&a).unwrap();
        let pb = PackedSeq::from_ascii(&b).unwrap();
        let exact = wfa_align(&a, &b, &WfaOptions::exact(P)).unwrap();
        let bi = wfa_align_seqs_ref(
            SeqsRef::Packed(&pa, &pb),
            &biwfa_opts(),
            &mut WavefrontArena::new(),
        )
        .unwrap();
        assert_eq!(bi.score, exact.score);
        bi.cigar.unwrap().check(&a, &b).unwrap();
    }

    #[test]
    fn strategy_parsing_round_trips() {
        for s in AlignStrategy::ALL {
            assert_eq!(AlignStrategy::parse(s.name()), Some(s));
            assert_eq!(s.name().parse::<AlignStrategy>().unwrap(), s);
        }
        assert!("bogus".parse::<AlignStrategy>().is_err());
    }
}

//! The exact gap-affine WaveFront Alignment algorithm (paper §2.3, Eq. 3/4).
//!
//! WFA computes the same optimal score and alignment as Smith-Waterman-Gotoh
//! but visits only `O(n*s)` cells: for each score `s` (in increasing order) it
//! keeps, per diagonal `k`, the farthest DP cell reachable with exactly that
//! score, then alternates two operators:
//!
//! * `extend()` — advance each M offset along its diagonal while bases match
//!   (matches are free, so the farthest cell of the same score moves);
//! * `compute()` — build the next score's wavefronts from the wavefronts at
//!   `s - x`, `s - o - e`, and `s - e` (Eq. 3).
//!
//! The iteration stops when the wavefront reaches the cell `(n, m)`.

use crate::adaptive::{reduce_wavefront, AdaptiveParams};
use crate::arena::WavefrontArena;
use crate::backtrace;
use crate::bitpack::PackedSeq;
use crate::cigar::Cigar;
use crate::kernel;
use crate::penalties::Penalties;
use crate::seq::Seq;
use crate::wavefront::{offset_is_valid, WavefrontSet, OFFSET_NULL};

/// Which algorithm answers an alignment call — the strategy axis of the
/// engine. All three strategies share the same wavefront kernels, arena
/// and extend ladder; they differ in what they *retain* and what they
/// *guarantee*:
///
/// * [`AlignStrategy::Exact`] — today's full-history WFA: optimal score
///   and CIGAR, `O(s²)` retained wavefront memory in CIGAR mode.
/// * [`AlignStrategy::BiWfa`] — bidirectional linear-memory WFA: forward
///   and reverse score-only wavefronts meet in the middle and the engine
///   recurses on the split point. Optimal score and a valid optimal
///   CIGAR, `O(s)` retained wavefront memory — the long-read mode.
/// * [`AlignStrategy::AdaptiveBand`] — the WFA-adaptive heuristic
///   reduction ([`crate::adaptive`]) as a first-class mode: the returned
///   score is an upper bound on the optimal (equal on realistic error
///   distributions), with narrower wavefronts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AlignStrategy {
    /// Exact full-history WFA (the default).
    #[default]
    Exact,
    /// Bidirectional linear-memory WFA (exact score, `O(s)` memory).
    BiWfa,
    /// Heuristic adaptive wavefront reduction (upper-bound score).
    AdaptiveBand,
}

impl AlignStrategy {
    /// Every strategy, in CLI presentation order.
    pub const ALL: [AlignStrategy; 3] = [
        AlignStrategy::Exact,
        AlignStrategy::BiWfa,
        AlignStrategy::AdaptiveBand,
    ];

    /// The stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            AlignStrategy::Exact => "exact",
            AlignStrategy::BiWfa => "biwfa",
            AlignStrategy::AdaptiveBand => "adaptive",
        }
    }

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Option<Self> {
        AlignStrategy::ALL
            .iter()
            .copied()
            .find(|s| s.name() == name)
    }
}

impl std::fmt::Display for AlignStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for AlignStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AlignStrategy::parse(s).ok_or_else(|| {
            let names: Vec<&str> = AlignStrategy::ALL.iter().map(|s| s.name()).collect();
            format!("unknown strategy '{s}' (one of: {})", names.join(", "))
        })
    }
}

/// Options controlling a WFA run.
#[derive(Debug, Clone, Copy)]
pub struct WfaOptions {
    /// Penalty model.
    pub penalties: Penalties,
    /// Algorithm strategy (see [`AlignStrategy`]).
    pub strategy: AlignStrategy,
    /// Keep all wavefronts and produce a CIGAR (otherwise score-only with
    /// bounded memory, like the accelerator with backtrace disabled).
    pub compute_cigar: bool,
    /// Abort if the score exceeds this limit (models the hardware
    /// `Score_max = 2*k_max + 4`, Eq. 6). `None` = unbounded.
    pub score_limit: Option<u32>,
    /// Clamp wavefronts to diagonals `-band..=band` (models the hardware
    /// `k_max` storage bound). `None` = unbounded. Ignored by the
    /// [`AlignStrategy::BiWfa`] CIGAR path, whose memory bound comes from
    /// the bidirectional window instead.
    pub band: Option<i32>,
    /// Parameters of the heuristic wavefront reduction. Setting this on an
    /// otherwise-[`AlignStrategy::Exact`] run implies
    /// [`AlignStrategy::AdaptiveBand`] (the pre-strategy configuration
    /// surface, kept for compatibility); `None` under `AdaptiveBand` uses
    /// [`AdaptiveParams::default`].
    pub adaptive: Option<AdaptiveParams>,
}

impl WfaOptions {
    /// Exact, unbounded alignment with a CIGAR.
    pub fn exact(penalties: Penalties) -> Self {
        WfaOptions {
            penalties,
            strategy: AlignStrategy::Exact,
            compute_cigar: true,
            score_limit: None,
            band: None,
            adaptive: None,
        }
    }

    /// Score-only (bounded-memory) exact alignment.
    pub fn score_only(penalties: Penalties) -> Self {
        WfaOptions {
            compute_cigar: false,
            ..Self::exact(penalties)
        }
    }

    /// Bidirectional linear-memory alignment with a CIGAR — the long-read
    /// configuration: exact scores and valid optimal CIGARs in `O(s)`
    /// retained wavefront memory.
    pub fn biwfa(penalties: Penalties) -> Self {
        WfaOptions {
            strategy: AlignStrategy::BiWfa,
            ..Self::exact(penalties)
        }
    }

    /// Heuristic adaptive-band alignment (upper-bound score; equal to the
    /// optimum on realistic error distributions).
    pub fn adaptive(penalties: Penalties, params: AdaptiveParams) -> Self {
        WfaOptions {
            strategy: AlignStrategy::AdaptiveBand,
            adaptive: Some(params),
            ..Self::exact(penalties)
        }
    }

    /// Hardware-like configuration: score limit from `k_max` via Eq. 6 and
    /// banded wavefront storage.
    pub fn hardware(penalties: Penalties, k_max: u32) -> Self {
        WfaOptions {
            penalties,
            strategy: AlignStrategy::Exact,
            compute_cigar: false,
            score_limit: Some(Penalties::hardware_score_max(k_max)),
            band: Some(k_max as i32),
            adaptive: None,
        }
    }

    /// The strategy that will actually run: `adaptive` params on an
    /// `Exact` run promote it to [`AlignStrategy::AdaptiveBand`].
    pub fn effective_strategy(&self) -> AlignStrategy {
        match self.strategy {
            AlignStrategy::Exact if self.adaptive.is_some() => AlignStrategy::AdaptiveBand,
            s => s,
        }
    }

    /// The adaptive-reduction parameters in effect (None unless the
    /// effective strategy is [`AlignStrategy::AdaptiveBand`]).
    pub fn effective_adaptive(&self) -> Option<AdaptiveParams> {
        match self.effective_strategy() {
            AlignStrategy::AdaptiveBand => Some(self.adaptive.unwrap_or_default()),
            _ => None,
        }
    }
}

impl Default for WfaOptions {
    fn default() -> Self {
        Self::exact(Penalties::default())
    }
}

/// Work statistics of a WFA run — the basis for the CPU cycle models and for
/// CUPS accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WfaStats {
    /// Wavefront component cells computed by `compute()` (M + I + D).
    pub cells_computed: u64,
    /// Base comparisons performed by `extend()` (matches + the terminating
    /// mismatch where applicable).
    pub bases_compared: u64,
    /// Individual diagonal extensions performed.
    pub extend_calls: u64,
    /// Scores for which a (non-null) wavefront set exists.
    pub score_steps: u64,
    /// Widest wavefront (number of diagonals) seen.
    pub max_wavefront_len: u64,
    /// Peak retained wavefront memory in bytes.
    pub peak_memory_bytes: u64,
}

/// The result of a WFA alignment.
#[derive(Debug, Clone)]
pub struct WfaAlignment {
    /// Optimal gap-affine score (exact, equal to SWG).
    pub score: u32,
    /// Optimal transcript (present iff `compute_cigar` was set).
    pub cigar: Option<Cigar>,
    /// Work statistics.
    pub stats: WfaStats,
}

/// WFA failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WfaError {
    /// The optimal score exceeds the configured `score_limit` (the hardware
    /// sets `Success = 0` in this case).
    ScoreLimitExceeded { limit: u32 },
    /// The alignment needs diagonals beyond the configured band; with banded
    /// storage the end diagonal can be unreachable.
    BandExceeded { band: i32, needed: i32 },
    /// Invalid penalties.
    BadPenalties(crate::penalties::PenaltyError),
}

impl std::fmt::Display for WfaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WfaError::ScoreLimitExceeded { limit } => {
                write!(f, "alignment score exceeds the configured limit {limit}")
            }
            WfaError::BandExceeded { band, needed } => {
                write!(
                    f,
                    "end diagonal {needed} outside the configured band ±{band}"
                )
            }
            WfaError::BadPenalties(e) => write!(f, "invalid penalties: {e}"),
        }
    }
}

impl std::error::Error for WfaError {}

/// Validate a candidate offset for diagonal `k` against the DP-matrix bounds:
/// the cell `(i, j) = (offset - k, offset)` must lie inside the matrix.
#[inline]
pub fn validated_offset(off: i32, k: i32, n: i32, m: i32) -> i32 {
    if !offset_is_valid(off) {
        return OFFSET_NULL;
    }
    let j = off;
    let i = off - k;
    if j < 0 || j > m || i < 0 || i > n {
        OFFSET_NULL
    } else {
        off
    }
}

/// Eq. 3, insertion component: `I[s][k] = max(M[s-o-e][k-1], I[s-e][k-1]) + 1`.
///
/// Each candidate is bounds-validated *before* the max: a larger source
/// offset whose successor cell falls outside the matrix must not shadow a
/// smaller one whose successor is valid (this matters at the right/bottom
/// matrix edges).
#[inline]
pub fn compute_cell_i(m_open: i32, i_ext: i32, k: i32, n: i32, m: i32) -> i32 {
    let open = if offset_is_valid(m_open) {
        validated_offset(m_open + 1, k, n, m)
    } else {
        OFFSET_NULL
    };
    let ext = if offset_is_valid(i_ext) {
        validated_offset(i_ext + 1, k, n, m)
    } else {
        OFFSET_NULL
    };
    open.max(ext)
}

/// Eq. 3, deletion component: `D[s][k] = max(M[s-o-e][k+1], D[s-e][k+1])`.
/// Candidates validate before the max, as in [`compute_cell_i`].
#[inline]
pub fn compute_cell_d(m_open: i32, d_ext: i32, k: i32, n: i32, m: i32) -> i32 {
    let open = if offset_is_valid(m_open) {
        validated_offset(m_open, k, n, m)
    } else {
        OFFSET_NULL
    };
    let ext = if offset_is_valid(d_ext) {
        validated_offset(d_ext, k, n, m)
    } else {
        OFFSET_NULL
    };
    open.max(ext)
}

/// Eq. 3, match component: `M[s][k] = max(M[s-x][k] + 1, I[s][k], D[s][k])`.
#[inline]
pub fn compute_cell_m(m_sub: i32, i_cur: i32, d_cur: i32, k: i32, n: i32, m: i32) -> i32 {
    let sub = if offset_is_valid(m_sub) {
        validated_offset(m_sub + 1, k, n, m)
    } else {
        OFFSET_NULL
    };
    sub.max(i_cur).max(d_cur)
}

/// A borrowed pair of input sequences in either representation. The WFA
/// core is representation-agnostic: the only sequence-dependent operation
/// it performs is the `extend()` LCP, which dispatches here to the byte or
/// packed kernel tier.
#[derive(Clone, Copy)]
pub enum SeqsRef<'s> {
    /// ASCII bytes (1 byte/base) — any alphabet.
    Bytes(&'s [u8], &'s [u8]),
    /// 2-bit packed ACGT — the hot-path representation (4 bases/byte,
    /// wider effective SIMD lanes in the LCP kernel).
    Packed(&'s PackedSeq, &'s PackedSeq),
}

impl SeqsRef<'_> {
    /// Borrow a [`Seq`] pair and run `f` on it: packed when both sides are
    /// packed (the hot path), bytes otherwise. A raw side (broken data,
    /// non-ACGT alphabets) forces the byte kernels, so a packed partner is
    /// unpacked here and nowhere else.
    pub fn with_seqs<R>(a: &Seq, b: &Seq, f: impl FnOnce(SeqsRef<'_>) -> R) -> R {
        match (a, b) {
            (Seq::Packed(pa), Seq::Packed(pb)) => f(SeqsRef::Packed(pa, pb)),
            _ => f(SeqsRef::Bytes(&a.bytes(), &b.bytes())),
        }
    }

    /// Length of the first (vertical, `i`-indexed) sequence.
    #[inline]
    pub fn a_len(&self) -> usize {
        match self {
            SeqsRef::Bytes(a, _) => a.len(),
            SeqsRef::Packed(a, _) => a.len(),
        }
    }

    /// Length of the second (horizontal, `j`-indexed) sequence.
    #[inline]
    pub fn b_len(&self) -> usize {
        match self {
            SeqsRef::Bytes(_, b) => b.len(),
            SeqsRef::Packed(_, b) => b.len(),
        }
    }

    /// Matching bases of `a[i..]` vs `b[j..]` in the representation's
    /// fastest kernel tier.
    #[inline]
    pub fn lcp(&self, i: usize, j: usize) -> usize {
        match self {
            SeqsRef::Bytes(a, b) => kernel::lcp_bytes(a, b, i, j),
            SeqsRef::Packed(a, b) => kernel::lcp_packed(a, b, i, j),
        }
    }

    /// Whether base `a[i]` equals base `b[j]`. Both must be in bounds.
    #[inline]
    pub fn same_base(&self, i: usize, j: usize) -> bool {
        match self {
            SeqsRef::Bytes(a, b) => a[i] == b[j],
            SeqsRef::Packed(a, b) => a.get(i) == b.get(j),
        }
    }
}

/// Fill `row` with `w.get(k)` for `k in lo..=hi`: NULL everywhere, then one
/// block copy of the overlap with the source's stored range. The gathered
/// form the batched [`kernel::compute_row`] consumes.
fn fill_source_row(row: &mut Vec<i32>, lo: i32, hi: i32, w: Option<&crate::wavefront::Wavefront>) {
    row.clear();
    row.resize((hi - lo + 1) as usize, OFFSET_NULL);
    if let Some(w) = w {
        let s = lo.max(w.lo);
        let e = hi.min(w.hi);
        if s <= e {
            let dst = (s - lo) as usize;
            let src = (s - w.lo) as usize;
            let count = (e - s + 1) as usize;
            row[dst..dst + count].copy_from_slice(&w.offsets[src..src + count]);
        }
    }
}

/// Align `a` against `b` end-to-end with the exact WFA.
///
/// Allocates a private [`WavefrontArena`] per call; sweeps aligning many
/// pairs should reuse one arena via [`wfa_align_seqs_ref`].
pub fn wfa_align(a: &[u8], b: &[u8], opts: &WfaOptions) -> Result<WfaAlignment, WfaError> {
    wfa_align_seqs_ref(SeqsRef::Bytes(a, b), opts, &mut WavefrontArena::new())
}

/// Align a [`Seq`] pair, picking the representation-appropriate kernel
/// through [`SeqsRef::with_seqs`].
pub fn wfa_align_seqs(a: &Seq, b: &Seq, opts: &WfaOptions) -> Result<WfaAlignment, WfaError> {
    wfa_align_seqs_with_arena(a, b, opts, &mut WavefrontArena::new())
}

/// [`wfa_align_seqs`] with caller-provided scratch.
pub fn wfa_align_seqs_with_arena(
    a: &Seq,
    b: &Seq,
    opts: &WfaOptions,
    arena: &mut WavefrontArena,
) -> Result<WfaAlignment, WfaError> {
    SeqsRef::with_seqs(a, b, |seqs| wfa_align_seqs_ref(seqs, opts, arena))
}

/// The lowest-level entry: align an already-borrowed [`SeqsRef`] with
/// caller-provided scratch: wavefront buffers come from (and return to)
/// `arena`, so aligning a stream of pairs stops hitting the allocator after
/// the first few. Results and statistics are bit-identical to a fresh arena.
pub fn wfa_align_seqs_ref(
    seqs: SeqsRef<'_>,
    opts: &WfaOptions,
    arena: &mut WavefrontArena,
) -> Result<WfaAlignment, WfaError> {
    match opts.effective_strategy() {
        // Bidirectional CIGAR path: the linear-memory engine. Score-only
        // BiWfa requests fall through to the unidirectional loop below,
        // which is already O(s) memory in score-only mode and computes the
        // identical (exact) score.
        AlignStrategy::BiWfa if opts.compute_cigar => crate::biwfa::biwfa_align(seqs, opts, arena),
        _ => wfa_align_inner(seqs, opts, arena),
    }
}

/// How a [`WfaMachine`] retains old wavefronts across score steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Retention {
    /// Keep every wavefront (the full-history mode the backtrace needs).
    Full,
    /// The seed score-only policy, preserved bit-for-bit because its
    /// `peak_memory_bytes` feeds the blessed cycle baselines: drop the
    /// single slot `s - w - 1`, and only on steps that actually compute a
    /// front. Under the default all-even penalty costs every front sits
    /// at an even score while `s - w - 1` is odd on compute steps, so in
    /// practice this retains the full history — the model the gated
    /// metrics were calibrated against.
    Legacy(usize),
    /// True bounded-memory mode for the bidirectional engine: every step
    /// drops *all* fronts older than `s - w`, including on source-less
    /// and all-null steps.
    Strict(usize),
}

/// The incremental unidirectional WFA engine: one score step at a time
/// over an arena-backed spine of per-score wavefront sets.
///
/// [`wfa_align_inner`] drives it straight to termination (the classic
/// single-pass WFA); the bidirectional engine ([`crate::biwfa`]) drives a
/// forward and a reverse machine in lock-step and reads their fronts to
/// find the meet point. Work statistics are accounted exactly as the
/// pre-refactor monolithic loop did, so cycle models and gated metrics are
/// bit-identical.
pub(crate) struct WfaMachine<'s> {
    seqs: SeqsRef<'s>,
    pub(crate) n: i32,
    pub(crate) m: i32,
    p: Penalties,
    band: Option<i32>,
    /// Hard score cap: min(score_limit, all-gaps alignment cost).
    cap: u64,
    /// The limit to report in [`WfaError::ScoreLimitExceeded`].
    limit_for_error: u32,
    /// `fronts[s]` is the wavefront set for score `s` (None once dropped
    /// by the retention window or never materialized).
    pub(crate) fronts: Vec<Option<WavefrontSet>>,
    /// Current score.
    pub(crate) s: usize,
    /// First spine slot not yet reclaimed by [`Retention::Strict`].
    drop_floor: usize,
    live_memory: u64,
    /// Farthest anti-diagonal `i + j` any M offset has reached (monotone;
    /// the bidirectional engine uses it to gate overlap scans).
    pub(crate) max_antidiag: i64,
    pub(crate) stats: WfaStats,
}

impl<'s> WfaMachine<'s> {
    pub(crate) fn new(
        seqs: SeqsRef<'s>,
        p: Penalties,
        band: Option<i32>,
        score_limit: Option<u32>,
        arena: &mut WavefrontArena,
    ) -> Self {
        let n = seqs.a_len() as i32;
        let m = seqs.b_len() as i32;
        // Hard cap: the all-gaps alignment is always available, so the
        // optimal score can never exceed it.
        let natural_cap = p.gap_cost(n as u32) as u64 + p.gap_cost(m as u32) as u64;
        let cap = match score_limit {
            Some(lim) => (lim as u64).min(natural_cap),
            None => natural_cap,
        };
        let mut fronts = arena.take_spine();
        fronts.push(Some(WavefrontSet {
            m: arena.initial(),
            i: None,
            d: None,
        }));
        let live_memory = fronts[0].as_ref().unwrap().memory_bytes() as u64;
        let stats = WfaStats {
            peak_memory_bytes: live_memory,
            ..WfaStats::default()
        };
        WfaMachine {
            seqs,
            n,
            m,
            p,
            band,
            cap,
            limit_for_error: score_limit.unwrap_or(cap as u32),
            fronts,
            s: 0,
            drop_floor: 0,
            live_memory,
            max_antidiag: 0,
            stats,
        }
    }

    #[inline]
    pub(crate) fn k_end(&self) -> i32 {
        self.m - self.n
    }

    /// Wavefront set at score `score`, if still retained.
    #[inline]
    pub(crate) fn front(&self, score: usize) -> Option<&WavefrontSet> {
        self.fronts.get(score).and_then(|f| f.as_ref())
    }

    /// Retained wavefront bytes right now.
    #[inline]
    pub(crate) fn live_memory(&self) -> u64 {
        self.live_memory
    }

    /// Has the score cap been reached (the next [`Self::step`] would
    /// fail)?
    #[inline]
    pub(crate) fn at_cap(&self) -> bool {
        self.s as u64 >= self.cap
    }

    /// `extend()` the current front's M offsets along their diagonals
    /// (matches are free). Returns true when a front exists at the
    /// current score.
    pub(crate) fn extend_current(&mut self) -> bool {
        let (n, m) = (self.n, self.m);
        let seqs = self.seqs;
        let Some(set) = self.fronts[self.s].as_mut() else {
            return false;
        };
        self.stats.score_steps += 1;
        self.stats.max_wavefront_len = self.stats.max_wavefront_len.max(set.m.len() as u64);
        let lo = set.m.lo;
        for idx in 0..set.m.offsets.len() {
            let off = set.m.offsets[idx];
            if !offset_is_valid(off) {
                continue;
            }
            let k = lo + idx as i32;
            let i = (off - k) as usize;
            let j = off as usize;
            let matches = seqs.lcp(i, j);
            self.stats.extend_calls += 1;
            // Count the terminating comparison too when we stopped on a
            // mismatch inside both sequences.
            let stopped_inside = i + matches < n as usize && j + matches < m as usize;
            self.stats.bases_compared += matches as u64 + stopped_inside as u64;
            let new_off = off + matches as i32;
            set.m.offsets[idx] = new_off;
            let antidiag = 2 * new_off as i64 - k as i64;
            self.max_antidiag = self.max_antidiag.max(antidiag);
        }
        true
    }

    /// Apply the heuristic wavefront reduction to the current front,
    /// never pruning the terminal cell.
    pub(crate) fn reduce_adaptive(&mut self, params: &AdaptiveParams) {
        let (n, m) = (self.n, self.m);
        let k_end = self.k_end();
        let target = m;
        let Some(set) = self.fronts[self.s].as_mut() else {
            return;
        };
        if set.m.get(k_end) != target && reduce_wavefront(&mut set.m, n, m, params) > 0 {
            // Trim the I/D components to the surviving band so future
            // ranges (unions over all components) narrow too.
            let (lo, hi) = (set.m.lo, set.m.hi);
            if let Some(w) = set.i.as_mut() {
                if !w.clamp_range(lo, hi) {
                    set.i = None;
                }
            }
            if let Some(w) = set.d.as_mut() {
                if !w.clamp_range(lo, hi) {
                    set.d = None;
                }
            }
        }
    }

    /// Has the current front's M component reached the end cell `(n, m)`?
    pub(crate) fn reached_end(&self) -> bool {
        self.front(self.s)
            .is_some_and(|set| set.m.get(self.k_end()) == self.m)
    }

    /// Advance the score by one and `compute()` the next wavefront set
    /// (Eq. 3, batched kernel). `retention` governs which old fronts are
    /// recycled — see [`Retention`].
    pub(crate) fn step(
        &mut self,
        arena: &mut WavefrontArena,
        retention: Retention,
    ) -> Result<(), WfaError> {
        let (n, m, p) = (self.n, self.m, self.p);
        self.s += 1;
        let s = self.s;
        if s as u64 > self.cap {
            return Err(WfaError::ScoreLimitExceeded {
                limit: self.limit_for_error,
            });
        }

        if let Retention::Strict(w) = retention {
            // Reclaim everything older than the window, on every step —
            // including the source-less and all-null early-outs below.
            while self.drop_floor + w < s {
                if let Some(old) = self.fronts[self.drop_floor].take() {
                    self.live_memory -= old.memory_bytes() as u64;
                    arena.recycle_set(old);
                }
                self.drop_floor += 1;
            }
        }

        let fronts = &mut self.fronts;
        let get = |fronts: &[Option<WavefrontSet>], back: u32| -> Option<usize> {
            let back = back as usize;
            if s >= back && fronts[s - back].is_some() {
                Some(s - back)
            } else {
                None
            }
        };
        let src_sub = get(fronts, p.x);
        let src_open = get(fronts, p.o + p.e);
        let src_ext = get(fronts, p.e);
        // A wavefront for this score exists only if some source exists.
        if src_sub.is_none() && src_open.is_none() && src_ext.is_none() {
            fronts.push(None);
            return Ok(());
        }

        // New diagonal range: sources widen by one on each side through the
        // I (k-1 -> k) and D (k+1 -> k) transitions.
        let mut lo = i32::MAX;
        let mut hi = i32::MIN;
        let mut consider = |idx: Option<usize>, fronts: &[Option<WavefrontSet>]| {
            if let Some(i) = idx {
                let set = fronts[i].as_ref().unwrap();
                lo = lo.min(set.m.lo);
                hi = hi.max(set.m.hi);
                if let Some(w) = &set.i {
                    lo = lo.min(w.lo);
                    hi = hi.max(w.hi);
                }
                if let Some(w) = &set.d {
                    lo = lo.min(w.lo);
                    hi = hi.max(w.hi);
                }
            }
        };
        consider(src_sub, fronts);
        consider(src_open, fronts);
        consider(src_ext, fronts);
        let mut lo = lo - 1;
        let mut hi = hi + 1;
        if let Some(band) = self.band {
            lo = lo.max(-band);
            hi = hi.min(band);
            if lo > hi {
                fronts.push(None);
                return Ok(());
            }
        }

        let mut wi = arena.wavefront(lo, hi);
        let mut wd = arena.wavefront(lo, hi);
        let mut wm = arena.wavefront(lo, hi);

        // Hoist the source-wavefront lookups out of the per-diagonal loop:
        // the sources are fixed for the whole score step.
        let sub_m = src_sub.map(|i| &fronts[i].as_ref().unwrap().m);
        let open_m = src_open.map(|i| &fronts[i].as_ref().unwrap().m);
        let (ext_i, ext_d) = match src_ext {
            Some(i) => {
                let set = fronts[i].as_ref().unwrap();
                (set.i.as_ref(), set.d.as_ref())
            }
            None => (None, None),
        };

        // Gather the four Eq. 3 source rows (with a one-diagonal halo on
        // each side) and compute the whole run of adjacent diagonals in one
        // batched kernel call. The outputs are written unconditionally: an
        // invalid component is exactly OFFSET_NULL, identical to the arena's
        // NULL fill, so the per-cell validity branches are unnecessary.
        let mut sub_row = arena.take_row();
        let mut open_row = arena.take_row();
        let mut iext_row = arena.take_row();
        let mut dext_row = arena.take_row();
        fill_source_row(&mut sub_row, lo - 1, hi + 1, sub_m);
        fill_source_row(&mut open_row, lo - 1, hi + 1, open_m);
        fill_source_row(&mut iext_row, lo - 1, hi + 1, ext_i);
        fill_source_row(&mut dext_row, lo - 1, hi + 1, ext_d);
        kernel::compute_row(
            &sub_row,
            &open_row,
            &iext_row,
            &dext_row,
            lo,
            n,
            m,
            &mut wi.offsets,
            &mut wd.offsets,
            &mut wm.offsets,
        );
        arena.recycle_row(sub_row);
        arena.recycle_row(open_row);
        arena.recycle_row(iext_row);
        arena.recycle_row(dext_row);
        self.stats.cells_computed += 3 * wm.offsets.len() as u64;
        let any_i = !wi.is_all_null();
        let any_d = !wd.is_all_null();
        let any_m = !wm.is_all_null();

        if !any_m && !any_i && !any_d {
            arena.recycle(wm);
            arena.recycle(wi);
            arena.recycle(wd);
            fronts.push(None);
            return Ok(());
        }
        let set = WavefrontSet {
            m: wm,
            i: if any_i {
                Some(wi)
            } else {
                arena.recycle(wi);
                None
            },
            d: if any_d {
                Some(wd)
            } else {
                arena.recycle(wd);
                None
            },
        };
        self.live_memory += set.memory_bytes() as u64;
        fronts.push(Some(set));

        // Bounded-memory modes: drop wavefronts beyond the retention
        // window (their buffers go straight back to the arena pool).
        if let Retention::Legacy(window) = retention {
            if s > window {
                if let Some(old) = fronts[s - window - 1].take() {
                    self.live_memory -= old.memory_bytes() as u64;
                    arena.recycle_set(old);
                }
            }
        }
        self.stats.peak_memory_bytes = self.stats.peak_memory_bytes.max(self.live_memory);
        Ok(())
    }

    /// Tear the machine down, returning every retained buffer to the
    /// arena.
    pub(crate) fn finish(self, arena: &mut WavefrontArena) {
        arena.recycle_spine(self.fronts);
    }
}

pub(crate) fn wfa_align_inner(
    seqs: SeqsRef<'_>,
    opts: &WfaOptions,
    arena: &mut WavefrontArena,
) -> Result<WfaAlignment, WfaError> {
    opts.penalties.validate().map_err(WfaError::BadPenalties)?;
    let p = opts.penalties;
    let n = seqs.a_len() as i32;
    let m = seqs.b_len() as i32;
    let k_end = m - n;

    if let Some(band) = opts.band {
        if k_end.abs() > band {
            return Err(WfaError::BandExceeded {
                band,
                needed: k_end,
            });
        }
    }

    let lookback = p.x.max(p.o + p.e) as usize;
    let retention = if opts.compute_cigar {
        Retention::Full
    } else if opts.strategy == AlignStrategy::BiWfa {
        // Score-only BiWfa requests have no backtrace to serve, so the
        // strictly-windowed schedule applies: genuinely O(lookback)
        // retained wavefronts, unlike the legacy schedule below.
        Retention::Strict(lookback)
    } else {
        Retention::Legacy(lookback)
    };
    let adaptive = opts.effective_adaptive();

    let mut mach = WfaMachine::new(seqs, p, opts.band, opts.score_limit, arena);
    loop {
        // --- extend() + termination check ---
        if mach.extend_current() {
            if let Some(params) = &adaptive {
                // Heuristic mode: never prune the terminal cell (the
                // machine checks before any source use).
                mach.reduce_adaptive(params);
            }
            if mach.reached_end() {
                let score = mach.s as u32;
                let stats = mach.stats;
                let cigar = if opts.compute_cigar {
                    Some(backtrace::backtrace(n, m, &mach.fronts, score, &p))
                } else {
                    None
                };
                mach.finish(arena);
                return Ok(WfaAlignment {
                    score,
                    cigar,
                    stats,
                });
            }
        }

        // --- advance the score and compute() the next wavefront set ---
        if let Err(e) = mach.step(arena, retention) {
            mach.finish(arena);
            return Err(e);
        }
    }
}

/// Convenience wrapper: exact alignment with CIGAR under the given penalties.
pub fn align(a: &[u8], b: &[u8], penalties: Penalties) -> Result<WfaAlignment, WfaError> {
    wfa_align(a, b, &WfaOptions::exact(penalties))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swg::swg_align;

    const P: Penalties = Penalties::WFASIC_DEFAULT;

    fn check_against_swg(a: &[u8], b: &[u8]) {
        let wfa = align(a, b, P).unwrap();
        let swg = swg_align(a, b, &P);
        assert_eq!(wfa.score as u64, swg.score, "a={:?} b={:?}", a, b);
        let cigar = wfa.cigar.expect("cigar requested");
        cigar.check(a, b).unwrap();
        assert_eq!(cigar.score(&P), wfa.score as u64);
    }

    #[test]
    fn identical() {
        let r = align(b"ACGTACGTAC", b"ACGTACGTAC", P).unwrap();
        assert_eq!(r.score, 0);
        assert_eq!(r.cigar.unwrap().to_op_string(), "MMMMMMMMMM");
    }

    #[test]
    fn empty_both() {
        let r = align(b"", b"", P).unwrap();
        assert_eq!(r.score, 0);
    }

    #[test]
    fn empty_one_side() {
        check_against_swg(b"", b"ACGT");
        check_against_swg(b"ACGT", b"");
    }

    #[test]
    fn single_base_cases() {
        check_against_swg(b"A", b"A");
        check_against_swg(b"A", b"C");
        check_against_swg(b"A", b"AC");
        check_against_swg(b"CA", b"A");
    }

    #[test]
    fn mismatches_and_gaps() {
        check_against_swg(b"GATTACA", b"GACTACA");
        check_against_swg(b"GATTACA", b"GATTTACA");
        check_against_swg(b"GATTACA", b"GTTACA");
        check_against_swg(b"AAAAAAAA", b"TTTTTTTT");
        check_against_swg(b"ACGT", b"TGCA");
    }

    #[test]
    fn long_gap_preferred() {
        check_against_swg(b"AAAA", b"AAAATTTTTTTT");
        check_against_swg(b"AAAATTTTTTTT", b"AAAA");
    }

    #[test]
    fn score_only_matches_full() {
        let a = b"GATTACAGATTACAGGGCCC";
        let b = b"GATCACAGAGTTACAGGCCC";
        let full = align(a, b, P).unwrap();
        let so = wfa_align(a, b, &WfaOptions::score_only(P)).unwrap();
        assert_eq!(full.score, so.score);
        assert!(so.cigar.is_none());
        // Score-only retains at most lookback+1 wavefronts: less memory.
        assert!(so.stats.peak_memory_bytes <= full.stats.peak_memory_bytes);
    }

    #[test]
    fn score_limit_enforced() {
        let opts = WfaOptions {
            score_limit: Some(4),
            ..WfaOptions::exact(P)
        };
        // Needs 2 mismatches (8) > 4.
        let err = wfa_align(b"AATT", b"TTTTT", &opts).unwrap_err();
        assert!(matches!(err, WfaError::ScoreLimitExceeded { .. }));
    }

    #[test]
    fn band_exceeded_rejects_skewed_lengths() {
        let opts = WfaOptions {
            band: Some(2),
            ..WfaOptions::exact(P)
        };
        let err = wfa_align(b"AC", b"ACGTACGT", &opts).unwrap_err();
        assert!(matches!(err, WfaError::BandExceeded { needed: 6, .. }));
    }

    #[test]
    fn hardware_options_align_within_limits() {
        // k_max = 10 supports scores up to 24: a 3-mismatch alignment fits.
        let opts = WfaOptions::hardware(P, 10);
        let r = wfa_align(b"GATTACAGAT", b"GACTACAGTT", &opts).unwrap();
        let swg = swg_align(b"GATTACAGAT", b"GACTACAGTT", &P);
        assert_eq!(r.score as u64, swg.score);
    }

    #[test]
    fn stats_are_populated() {
        let r = align(b"GATTACAGATTACA", b"GACTACAGATTACA", P).unwrap();
        assert!(r.stats.extend_calls > 0);
        assert!(r.stats.bases_compared >= 13);
        assert!(r.stats.score_steps >= 1);
        assert!(r.stats.peak_memory_bytes > 0);
        if r.score > 0 {
            assert!(r.stats.cells_computed > 0);
        }
    }

    #[test]
    fn wfa_visits_far_fewer_cells_than_swg() {
        // The headline property: O(ns) vs O(n^2).
        let a: Vec<u8> = (0..400).map(|i| b"ACGT"[i % 4]).collect();
        let mut b = a.clone();
        b[101] = b'A'; // a[101] = 'C': one mismatch vs the periodic pattern
        let wfa = align(&a, &b, P).unwrap();
        let swg = swg_align(&a, &b, &P);
        assert_eq!(wfa.score as u64, swg.score);
        assert!(
            wfa.stats.cells_computed * 10 < swg.cells_computed,
            "wfa={} swg={}",
            wfa.stats.cells_computed,
            swg.cells_computed
        );
    }
}

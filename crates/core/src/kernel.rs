//! The shared host kernels used by every aligner in the workspace: the LCP
//! ("extend") comparison and the batched Eq. 3 compute row, each with a
//! runtime-dispatched SIMD ladder.
//!
//! WFA's `extend()` operator is a longest-common-prefix computation:
//! starting from `(i, j)`, count how many bases of `a[i..]` and `b[j..]`
//! match. The hardware compares 16 bases per cycle (paper §4.3.2); the host
//! analogue climbs a dispatch ladder resolved once at runtime:
//!
//! * **Scalar** — one base per iteration. The property-test oracle.
//! * **Word** — one `u64` per iteration: 8 ASCII bases ([`lcp_bytes_word`])
//!   or 32 packed bases ([`lcp_packed_word`]) via XOR + `trailing_zeros`.
//!   The portable fast path and the fallback on non-x86_64 hosts.
//! * **Avx2** — `std::arch::x86_64` kernels comparing 128 packed bases per
//!   iteration ([`lcp_packed_simd`]) and computing 8 Eq. 3 cells per
//!   iteration ([`compute_row`]), selected with `is_x86_feature_detected!`.
//!   The byte LCP stays on the word kernel at this tier: a 32-byte compare
//!   measured no faster on the byte path's long-read (BiWFA) workloads.
//!
//! The active tier comes from [`kernel_dispatch`]: `Auto` (the default)
//! picks the widest tier the CPU supports; the `WFASIC_KERNEL` environment
//! variable or [`set_kernel_dispatch`] pins any tier (CI runs the test
//! suite once per tier). A pinned tier the CPU lacks falls back down the
//! ladder rather than faulting.
//!
//! Every tier computes the exact same value on every input — the property
//! tests in this module (and `crates/core/tests/proptest_wfa.rs`) pin that
//! across unaligned starts, word/vector-boundary mismatches, empty
//! sequences and length-limited tails. Simulated accelerator cycles are
//! derived from the modeled 16-base blocks ([`crate::bitpack::hw_extend_blocks`]),
//! never from host word width, so the dispatch tier cannot leak into cycle
//! counts.
//!
//! [`compute_row`] is the batched form of Eq. 3 (paper §2.3): it computes a
//! whole run of adjacent diagonals' I/D/M offsets from padded source rows,
//! with the same dispatch ladder (`_mm256_max_epi32` candidate reduction on
//! AVX2). [`compute_row_scalar`] delegates to the per-cell
//! [`crate::wfa::compute_cell_i`]/`_d`/`_m` functions and is the oracle.

use crate::bitpack::PackedSeq;
use crate::wavefront::OFFSET_NULL;
use std::sync::atomic::{AtomicU8, Ordering};

/// Bytes (= bases) compared per machine word by [`lcp_bytes_word`].
pub const BYTES_PER_WORD: usize = 8;

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Host kernel tier selection.
///
/// `Auto` resolves to the widest tier the running CPU supports; the other
/// variants pin a tier (falling back down the ladder when the CPU lacks
/// the instruction set). Controlled per-process by the `WFASIC_KERNEL`
/// environment variable (`auto`/`scalar`/`word`/`avx2`) or
/// programmatically via [`set_kernel_dispatch`].
///
/// The discriminants are fixed: tests seed per-tier cases with
/// `tier as u64`, so renumbering a tier would silently re-seed its cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum KernelDispatch {
    /// Pick the best available tier at runtime (the default).
    Auto = 0,
    /// One base per iteration (the property-test oracle).
    Scalar = 1,
    /// One `u64` per iteration (portable fast path).
    Word = 2,
    /// 256-bit `std::arch::x86_64` kernels.
    Avx2 = 4,
}

impl KernelDispatch {
    /// Parse an override string (the `WFASIC_KERNEL` format).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(KernelDispatch::Auto),
            "scalar" => Some(KernelDispatch::Scalar),
            "word" => Some(KernelDispatch::Word),
            "avx2" => Some(KernelDispatch::Avx2),
            _ => None,
        }
    }

    /// Stable lowercase name (round-trips through [`KernelDispatch::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            KernelDispatch::Auto => "auto",
            KernelDispatch::Scalar => "scalar",
            KernelDispatch::Word => "word",
            KernelDispatch::Avx2 => "avx2",
        }
    }

    /// Can the running CPU execute this tier?
    pub fn available(self) -> bool {
        match self {
            KernelDispatch::Auto | KernelDispatch::Scalar | KernelDispatch::Word => true,
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            KernelDispatch::Avx2 => false,
        }
    }

    /// Resolve to a concrete, available tier (never `Auto`): a requested
    /// tier the CPU lacks falls back down the ladder (`Avx2 → Word → Scalar`).
    pub fn resolve(self) -> Self {
        let want = match self {
            KernelDispatch::Auto => KernelDispatch::Avx2,
            other => other,
        };
        let ladder = [
            KernelDispatch::Avx2,
            KernelDispatch::Word,
            KernelDispatch::Scalar,
        ];
        let start = ladder.iter().position(|&t| t == want).unwrap_or(0);
        for &tier in &ladder[start..] {
            if tier.available() {
                return tier;
            }
        }
        KernelDispatch::Scalar
    }

    fn from_code(code: u8) -> Self {
        match code {
            1 => KernelDispatch::Scalar,
            2 => KernelDispatch::Word,
            4 => KernelDispatch::Avx2,
            _ => KernelDispatch::Auto,
        }
    }
}

/// 0 = unresolved; otherwise a resolved `KernelDispatch` discriminant.
static ACTIVE_TIER: AtomicU8 = AtomicU8::new(0);

fn resolve_from_env() -> KernelDispatch {
    let requested = match std::env::var("WFASIC_KERNEL") {
        Ok(s) => KernelDispatch::parse(&s).unwrap_or_else(|| {
            eprintln!("WFASIC_KERNEL={s:?} is not one of auto, scalar, word, avx2; using auto");
            KernelDispatch::Auto
        }),
        Err(_) => KernelDispatch::Auto,
    };
    requested.resolve()
}

/// The active, resolved kernel tier (never `Auto`). Resolved once per
/// process from `WFASIC_KERNEL` / CPU features; [`set_kernel_dispatch`]
/// overrides it.
#[inline]
pub fn kernel_dispatch() -> KernelDispatch {
    let code = ACTIVE_TIER.load(Ordering::Relaxed);
    if code != 0 {
        return KernelDispatch::from_code(code);
    }
    let resolved = resolve_from_env();
    ACTIVE_TIER.store(resolved as u8, Ordering::Relaxed);
    resolved
}

/// Pin the kernel tier for this process (resolving `Auto` / unavailable
/// tiers down the ladder). Every tier computes identical values, so
/// changing the tier mid-run is always safe — only throughput changes.
pub fn set_kernel_dispatch(d: KernelDispatch) {
    ACTIVE_TIER.store(d.resolve() as u8, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// LCP over ASCII bytes
// ---------------------------------------------------------------------------

/// Count matching bases of `a[i..]` vs `b[j..]` through the active
/// dispatch tier: the scalar oracle when `Scalar` is pinned, the word
/// kernel otherwise. The byte path serves sequences that cannot pack
/// (non-ACGT bytes reach the software WFA oracle, [`crate::wfa::wfa_align`]).
#[inline]
pub fn lcp_bytes(a: &[u8], b: &[u8], i: usize, j: usize) -> usize {
    match kernel_dispatch() {
        KernelDispatch::Scalar => lcp_bytes_scalar(a, b, i, j),
        _ => lcp_bytes_word(a, b, i, j),
    }
}

/// Count matching bases of `a[i..]` vs `b[j..]`, one byte at a time.
///
/// The scalar reference implementation; every other tier must match it
/// exactly on every input.
#[inline]
pub fn lcp_bytes_scalar(a: &[u8], b: &[u8], i: usize, j: usize) -> usize {
    let (sa, sb) = (&a[i..], &b[j..]);
    let limit = sa.len().min(sb.len());
    let mut count = 0;
    while count < limit && sa[count] == sb[count] {
        count += 1;
    }
    count
}

/// Count matching bases of `a[i..]` vs `b[j..]`, 8 bytes per `u64`.
///
/// Whole words are compared with a single XOR; the first differing byte is
/// located with `trailing_zeros / 8` (sequences are compared little-endian,
/// so the lowest differing byte lane is the earliest mismatch). The
/// sub-word tail falls back to the scalar loop.
#[inline]
pub fn lcp_bytes_word(a: &[u8], b: &[u8], i: usize, j: usize) -> usize {
    let (sa, sb) = (&a[i..], &b[j..]);
    let limit = sa.len().min(sb.len());
    let mut k = 0;
    while k + BYTES_PER_WORD <= limit {
        let wa = u64::from_le_bytes(sa[k..k + BYTES_PER_WORD].try_into().unwrap());
        let wb = u64::from_le_bytes(sb[k..k + BYTES_PER_WORD].try_into().unwrap());
        let diff = wa ^ wb;
        if diff != 0 {
            return k + (diff.trailing_zeros() / 8) as usize;
        }
        k += BYTES_PER_WORD;
    }
    while k < limit && sa[k] == sb[k] {
        k += 1;
    }
    k
}

// ---------------------------------------------------------------------------
// LCP over 2-bit packed sequences
// ---------------------------------------------------------------------------

/// Count matching bases of `a[i..]` vs `b[j..]` on 2-bit-packed sequences
/// through the active dispatch tier. The hot entry point used by the
/// accelerator model's Extend sub-module and the packed CPU backend.
#[inline]
pub fn lcp_packed(a: &PackedSeq, b: &PackedSeq, i: usize, j: usize) -> usize {
    // One 32-base window resolves the vast majority of WFA extends (at
    // realistic error rates the mean run is a couple of bases); only runs
    // that clear the whole window enter a tier loop. Values are unchanged —
    // this is the first iteration of the word kernel, hoisted.
    let limit = (a.len() - i).min(b.len() - j);
    if limit == 0 {
        return 0;
    }
    let diff = a.window(i) ^ b.window(j);
    if diff != 0 {
        return ((diff.trailing_zeros() / 2) as usize).min(limit);
    }
    if limit <= crate::bitpack::BASES_PER_WORD {
        return limit;
    }
    match kernel_dispatch() {
        KernelDispatch::Scalar => lcp_packed_scalar(a, b, i, j),
        #[cfg(target_arch = "x86_64")]
        KernelDispatch::Avx2 => lcp_packed_simd(a, b, i, j),
        _ => lcp_packed_word(a, b, i, j),
    }
}

/// One-base-at-a-time reference for the packed kernels (property-test
/// oracle).
#[inline]
pub fn lcp_packed_scalar(a: &PackedSeq, b: &PackedSeq, i: usize, j: usize) -> usize {
    let limit = (a.len() - i).min(b.len() - j);
    let mut count = 0;
    while count < limit && a.get(i + count) == b.get(j + count) {
        count += 1;
    }
    count
}

/// Count matching bases of `a[i..]` vs `b[j..]` on 2-bit-packed sequences,
/// 32 bases per `u64`.
///
/// Each iteration reads one 32-base window from each sequence (shifting
/// across the word boundary, like the hardware's REG_1/REG_2 concatenate
/// network), XORs them, and counts trailing zero *base pairs*. Garbage
/// bits past a sequence's end never flow into the result: the count is
/// clamped to the in-bounds limit.
#[inline]
pub fn lcp_packed_word(a: &PackedSeq, b: &PackedSeq, i: usize, j: usize) -> usize {
    let limit = (a.len() - i).min(b.len() - j);
    let mut matched = 0;
    while matched < limit {
        let wa = a.window(i + matched);
        let wb = b.window(j + matched);
        let diff = wa ^ wb;
        if diff == 0 {
            matched += crate::bitpack::BASES_PER_WORD;
        } else {
            matched += (diff.trailing_zeros() / 2) as usize;
            break;
        }
    }
    matched.min(limit)
}

/// AVX2 packed LCP, 128 bases per compare, or the word kernel on a CPU
/// without AVX2. Callers normally go through [`lcp_packed`].
///
/// Both packed streams are bit-aligned in registers with a per-lane
/// `srl/sll` pair — the vector form of the word path's cross-word window
/// shift. The bits the two shifted loads contribute at overlapping lane
/// positions are the *same stream bits*, so OR-combining them is exact.
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn lcp_packed_simd(a: &PackedSeq, b: &PackedSeq, i: usize, j: usize) -> usize {
    if is_x86_feature_detected!("avx2") {
        // SAFETY: feature checked above.
        unsafe { lcp_packed_avx2(a, b, i, j) }
    } else {
        lcp_packed_word(a, b, i, j)
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lcp_packed_avx2(a: &PackedSeq, b: &PackedSeq, i: usize, j: usize) -> usize {
    use std::arch::x86_64::*;
    let limit = (a.len() - i).min(b.len() - j);
    let ab = a.as_raw_bytes();
    let bb = b.as_raw_bytes();
    // Bit phase within the starting byte of each stream; constant across
    // the loop because each hit advances by whole bytes (32 = 128 bases).
    let sa = _mm_cvtsi32_si128(2 * (i % 4) as i32);
    let sb_sh = _mm_cvtsi32_si128(2 * (j % 4) as i32);
    let ca = _mm_cvtsi32_si128(8 - 2 * (i % 4) as i32);
    let cb = _mm_cvtsi32_si128(8 - 2 * (j % 4) as i32);
    let mut abyte = i / 4;
    let mut bbyte = j / 4;
    let mut matched = 0usize;
    // Each iteration needs loads at byte and byte+1 (33 bytes in-bounds).
    while matched < limit && abyte + 33 <= ab.len() && bbyte + 33 <= bb.len() {
        let a0 = _mm256_loadu_si256(ab.as_ptr().add(abyte) as *const __m256i);
        let a1 = _mm256_loadu_si256(ab.as_ptr().add(abyte + 1) as *const __m256i);
        let va = _mm256_or_si256(_mm256_srl_epi64(a0, sa), _mm256_sll_epi64(a1, ca));
        let b0 = _mm256_loadu_si256(bb.as_ptr().add(bbyte) as *const __m256i);
        let b1 = _mm256_loadu_si256(bb.as_ptr().add(bbyte + 1) as *const __m256i);
        let vb = _mm256_or_si256(_mm256_srl_epi64(b0, sb_sh), _mm256_sll_epi64(b1, cb));
        let diff = _mm256_xor_si256(va, vb);
        if _mm256_testz_si256(diff, diff) == 0 {
            let mut lanes = [0u64; 4];
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, diff);
            for (lane, &d) in lanes.iter().enumerate() {
                if d != 0 {
                    matched += lane * 32 + (d.trailing_zeros() / 2) as usize;
                    return matched.min(limit);
                }
            }
        }
        matched += 128;
        abyte += 32;
        bbyte += 32;
    }
    if matched >= limit {
        return limit;
    }
    (matched + lcp_packed_word(a, b, i + matched, j + matched)).min(limit)
}

/// Batched packed LCP: `out[t] = lcp_packed(a, b, is[t], js[t])` for every
/// lane. Lane coordinates are `i32` (the aligner's native offset type);
/// each must satisfy `0 <= is[t] <= a.len()` and `0 <= js[t] <= b.len()`.
///
/// This is the vector form of the Extend phase: the aligner collects a
/// whole frame column's valid cells, then resolves their extends four at a
/// time. On the AVX2 tier each iteration fetches four 32-base windows per
/// sequence with masked gathers (lanes at a sequence end never touch
/// memory), bit-aligns them with variable 64-bit shifts, and XORs; only
/// the rare lane whose entire first window matches escalates to the
/// long-run kernel. Every other tier falls back to a scalar loop over
/// [`lcp_packed`], so values are identical on every tier.
pub fn lcp_packed_batch(a: &PackedSeq, b: &PackedSeq, is: &[i32], js: &[i32], out: &mut [u32]) {
    assert_eq!(is.len(), js.len(), "lane vectors must have equal length");
    assert_eq!(is.len(), out.len(), "lane vectors must have equal length");
    #[cfg(target_arch = "x86_64")]
    if kernel_dispatch() == KernelDispatch::Avx2 && is_x86_feature_detected!("avx2") {
        // SAFETY: feature checked above.
        unsafe { lcp_packed_batch_avx2(a, b, is, js, out) };
        return;
    }
    for t in 0..is.len() {
        out[t] = lcp_packed(a, b, is[t] as usize, js[t] as usize) as u32;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lcp_packed_batch_avx2(
    a: &PackedSeq,
    b: &PackedSeq,
    is: &[i32],
    js: &[i32],
    out: &mut [u32],
) {
    use std::arch::x86_64::*;
    let aw = a.words();
    let bw = b.words();
    let n_v = _mm_set1_epi32(a.len() as i32);
    let m_v = _mm_set1_epi32(b.len() as i32);
    let awlen = _mm_set1_epi32(aw.len() as i32);
    let bwlen = _mm_set1_epi32(bw.len() as i32);
    let zero = _mm_setzero_si128();
    let zero256 = _mm256_setzero_si256();
    let mask31 = _mm_set1_epi32(31);
    let one = _mm_set1_epi32(1);
    let v63 = _mm256_set1_epi64x(63);

    // One sequence's four 32-base windows at base positions `v`, as the
    // register form of `PackedSeq::window`: gather word `v/32` (lo) and
    // word `v/32 + 1` (hi, masked off at the last word — hardware reads 0
    // there), then `(lo >> sh) | (((hi << (63-sh)) << 1))` per 64-bit lane.
    // Gather masks guarantee an inactive or out-of-range lane never touches
    // memory, so lanes with `i == len` are safe with any index.
    macro_rules! windows {
        ($words:expr, $wlen:expr, $v:expr, $active:expr) => {{
            let wi = _mm_srli_epi32::<5>($v);
            let wi1 = _mm_add_epi32(wi, one);
            let sh = _mm256_cvtepi32_epi64(_mm_slli_epi32::<1>(_mm_and_si128($v, mask31)));
            let lo_mask = _mm256_cvtepi32_epi64($active);
            let lo = _mm256_mask_i32gather_epi64::<8>(
                zero256,
                $words.as_ptr() as *const i64,
                wi,
                lo_mask,
            );
            let hi_mask =
                _mm256_cvtepi32_epi64(_mm_and_si128($active, _mm_cmpgt_epi32($wlen, wi1)));
            let hi = _mm256_mask_i32gather_epi64::<8>(
                zero256,
                $words.as_ptr() as *const i64,
                wi1,
                hi_mask,
            );
            _mm256_or_si256(
                _mm256_srlv_epi64(lo, sh),
                _mm256_slli_epi64::<1>(_mm256_sllv_epi64(hi, _mm256_sub_epi64(v63, sh))),
            )
        }};
    }

    let mut t = 0usize;
    while t + 4 <= is.len() {
        let vi = _mm_loadu_si128(is.as_ptr().add(t) as *const __m128i);
        let vj = _mm_loadu_si128(js.as_ptr().add(t) as *const __m128i);
        let limit = _mm_min_epi32(_mm_sub_epi32(n_v, vi), _mm_sub_epi32(m_v, vj));
        // active ⇔ limit > 0 ⇔ i < a.len() and j < b.len(): the lo-word
        // gather is in bounds exactly on active lanes.
        let active = _mm_cmpgt_epi32(limit, zero);
        let diff = _mm256_xor_si256(
            windows!(aw, awlen, vi, active),
            windows!(bw, bwlen, vj, active),
        );
        let mut dl = [0u64; 4];
        _mm256_storeu_si256(dl.as_mut_ptr() as *mut __m256i, diff);
        let mut ll = [0i32; 4];
        _mm_storeu_si128(ll.as_mut_ptr() as *mut __m128i, limit);
        for lane in 0..4 {
            let lim = ll[lane];
            out[t + lane] = if lim <= 0 {
                0
            } else if dl[lane] != 0 {
                ((dl[lane].trailing_zeros() / 2) as i32).min(lim) as u32
            } else if lim <= crate::bitpack::BASES_PER_WORD as i32 {
                lim as u32
            } else {
                // The whole first window matched and the run continues past
                // it — rare at realistic error rates; resolve with the
                // long-run kernel (identical to `lcp_packed`'s tier call).
                lcp_packed_avx2(a, b, is[t + lane] as usize, js[t + lane] as usize) as u32
            };
        }
        t += 4;
    }
    for t in t..is.len() {
        out[t] = lcp_packed(a, b, is[t] as usize, js[t] as usize) as u32;
    }
}

// ---------------------------------------------------------------------------
// Batched Eq. 3 compute row
// ---------------------------------------------------------------------------

/// Compute a run of adjacent diagonals' I/D/M offsets (Eq. 3) in one call.
///
/// The four source rows each cover diagonals `k_lo - 1 ..= k_lo + L` where
/// `L = out_i.len()` (one halo cell on each side, [`OFFSET_NULL`]-filled
/// where the source wavefront has no storage):
///
/// * `sub`  — `M[s-x]`, read at `k` (index `t + 1`);
/// * `open` — `M[s-o-e]`, read at `k-1` (insertion) and `k+1` (deletion);
/// * `iext` — `I[s-e]`, read at `k-1`;
/// * `dext` — `D[s-e]`, read at `k+1`.
///
/// Outputs are written unconditionally; an invalid component is exactly
/// [`OFFSET_NULL`], bit-identical to the per-cell
/// [`crate::wfa::compute_cell_i`]/`_d`/`_m` functions on every input.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn compute_row(
    sub: &[i32],
    open: &[i32],
    iext: &[i32],
    dext: &[i32],
    k_lo: i32,
    n: i32,
    m: i32,
    out_i: &mut [i32],
    out_d: &mut [i32],
    out_m: &mut [i32],
) {
    let len = out_i.len();
    assert_eq!(out_d.len(), len);
    assert_eq!(out_m.len(), len);
    assert_eq!(sub.len(), len + 2);
    assert_eq!(open.len(), len + 2);
    assert_eq!(iext.len(), len + 2);
    assert_eq!(dext.len(), len + 2);
    match kernel_dispatch() {
        #[cfg(target_arch = "x86_64")]
        KernelDispatch::Avx2 => {
            // SAFETY: the Avx2 tier is only ever resolved when the CPU
            // reports the feature.
            unsafe { compute_row_avx2(sub, open, iext, dext, k_lo, n, m, out_i, out_d, out_m) }
        }
        _ => compute_row_scalar(sub, open, iext, dext, k_lo, n, m, out_i, out_d, out_m),
    }
}

/// Per-cell reference for [`compute_row`]: delegates every cell to the
/// property-tested [`crate::wfa::compute_cell_i`]/`_d`/`_m` functions.
#[allow(clippy::too_many_arguments)]
pub fn compute_row_scalar(
    sub: &[i32],
    open: &[i32],
    iext: &[i32],
    dext: &[i32],
    k_lo: i32,
    n: i32,
    m: i32,
    out_i: &mut [i32],
    out_d: &mut [i32],
    out_m: &mut [i32],
) {
    use crate::wfa::{compute_cell_d, compute_cell_i, compute_cell_m};
    for t in 0..out_i.len() {
        let k = k_lo + t as i32;
        let iv = compute_cell_i(open[t], iext[t], k, n, m);
        let dv = compute_cell_d(open[t + 2], dext[t + 2], k, n, m);
        let mv = compute_cell_m(sub[t + 1], iv, dv, k, n, m);
        out_i[t] = iv;
        out_d[t] = dv;
        out_m[t] = mv;
    }
}

/// [`compute_row`] plus per-cell backtrace origin codes, for the
/// backtrace-enabled accelerator datapath.
///
/// `out_code[t]` is the 5-bit origin bundle of cell `t` in the hardware
/// BT-stream encoding (`wfasic_seqio::memimage::CellOrigin::code`):
/// bits 0..2 hold the M origin (0 none, 1 substitution, 2 insertion-open,
/// 3 insertion-extend, 4 deletion-open, 5 deletion-extend), bit 3 is set
/// when I came from `I[s-e][k-1]`, bit 4 when D came from `D[s-e][k+1]`.
/// Ties prefer the extension source and M ties prefer substitution then
/// insertion, exactly like the per-cell encoder.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn compute_row_with_origins(
    sub: &[i32],
    open: &[i32],
    iext: &[i32],
    dext: &[i32],
    k_lo: i32,
    n: i32,
    m: i32,
    out_i: &mut [i32],
    out_d: &mut [i32],
    out_m: &mut [i32],
    out_code: &mut [u8],
) {
    let len = out_i.len();
    assert_eq!(out_d.len(), len);
    assert_eq!(out_m.len(), len);
    assert_eq!(out_code.len(), len);
    assert_eq!(sub.len(), len + 2);
    assert_eq!(open.len(), len + 2);
    assert_eq!(iext.len(), len + 2);
    assert_eq!(dext.len(), len + 2);
    match kernel_dispatch() {
        #[cfg(target_arch = "x86_64")]
        KernelDispatch::Avx2 => {
            // SAFETY: the Avx2 tier is only ever resolved when the CPU
            // reports the feature.
            unsafe {
                compute_row_with_origins_avx2(
                    sub, open, iext, dext, k_lo, n, m, out_i, out_d, out_m, out_code,
                )
            }
        }
        _ => compute_row_with_origins_scalar(
            sub, open, iext, dext, k_lo, n, m, out_i, out_d, out_m, out_code,
        ),
    }
}

/// Per-cell reference for [`compute_row_with_origins`]: the Eq. 3
/// candidate arithmetic with the origin-priority chain spelled out.
#[allow(clippy::too_many_arguments)]
pub fn compute_row_with_origins_scalar(
    sub: &[i32],
    open: &[i32],
    iext: &[i32],
    dext: &[i32],
    k_lo: i32,
    n: i32,
    m: i32,
    out_i: &mut [i32],
    out_d: &mut [i32],
    out_m: &mut [i32],
    out_code: &mut [u8],
) {
    use crate::wavefront::offset_is_valid;
    use crate::wfa::validated_offset;
    for t in 0..out_i.len() {
        let k = k_lo + t as i32;
        let validate_inc = |off: i32| {
            if offset_is_valid(off) {
                validated_offset(off + 1, k, n, m)
            } else {
                OFFSET_NULL
            }
        };
        let validate = |off: i32| {
            if offset_is_valid(off) {
                validated_offset(off, k, n, m)
            } else {
                OFFSET_NULL
            }
        };
        let i_open = validate_inc(open[t]);
        let i_ext = validate_inc(iext[t]);
        let (iv, i_from_ext) = if i_ext >= i_open {
            (i_ext, true)
        } else {
            (i_open, false)
        };
        let d_open = validate(open[t + 2]);
        let d_ext = validate(dext[t + 2]);
        let (dv, d_from_ext) = if d_ext >= d_open {
            (d_ext, true)
        } else {
            (d_open, false)
        };
        let sub_v = validate_inc(sub[t + 1]);
        let mv = sub_v.max(iv).max(dv);
        let m_code: u8 = if !offset_is_valid(mv) {
            0
        } else if offset_is_valid(sub_v) && sub_v == mv {
            1
        } else if offset_is_valid(iv) && iv == mv {
            if i_from_ext {
                3
            } else {
                2
            }
        } else if d_from_ext {
            5
        } else {
            4
        };
        out_i[t] = iv;
        out_d[t] = dv;
        out_m[t] = mv;
        out_code[t] = m_code
            | ((i_from_ext && offset_is_valid(iv)) as u8) << 3
            | ((d_from_ext && offset_is_valid(dv)) as u8) << 4;
    }
}

// The SIMD rows validate each Eq. 3 candidate with the bounds test alone:
// a NULL source bumped by +1 is still hugely negative, so `0 <= j` already
// rejects it — the scalar path's explicit `offset_is_valid` pre-check is
// subsumed, and the lane result (candidate or exact OFFSET_NULL) matches
// the scalar functions bit for bit.
//
// The origin variants derive the flag bits from the computed maxima: a
// validated candidate is either in-matrix (`>= 0`) or exactly NULL, so
// "the extension source won (ties included)" is `candidate == max` and
// "the component is valid" is `max > -1`. Because NULL lanes compare equal
// to each other, every equality mask is ANDed with the validity mask of
// its component before it selects an origin.

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn compute_row_avx2(
    sub: &[i32],
    open: &[i32],
    iext: &[i32],
    dext: &[i32],
    k_lo: i32,
    n: i32,
    m: i32,
    out_i: &mut [i32],
    out_d: &mut [i32],
    out_m: &mut [i32],
) {
    use std::arch::x86_64::*;
    let len = out_i.len();
    let null = _mm256_set1_epi32(OFFSET_NULL);
    let ones = _mm256_set1_epi32(1);
    let neg1 = _mm256_set1_epi32(-1);
    let m_lim = _mm256_set1_epi32(m + 1);
    let n_lim = _mm256_set1_epi32(n + 1);
    let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mut t = 0usize;
    while t + 8 <= len {
        let kv = _mm256_add_epi32(_mm256_set1_epi32(k_lo + t as i32), iota);
        let validate = |v: __m256i| {
            let iv = _mm256_sub_epi32(v, kv);
            let ok = _mm256_and_si256(
                _mm256_and_si256(_mm256_cmpgt_epi32(v, neg1), _mm256_cmpgt_epi32(m_lim, v)),
                _mm256_and_si256(_mm256_cmpgt_epi32(iv, neg1), _mm256_cmpgt_epi32(n_lim, iv)),
            );
            _mm256_blendv_epi8(null, v, ok)
        };
        let ld = |row: &[i32], off: usize| {
            _mm256_loadu_si256(row.as_ptr().add(t + off) as *const __m256i)
        };
        let i_open = validate(_mm256_add_epi32(ld(open, 0), ones));
        let i_ext = validate(_mm256_add_epi32(ld(iext, 0), ones));
        let ivv = _mm256_max_epi32(i_open, i_ext);
        let d_open = validate(ld(open, 2));
        let d_ext = validate(ld(dext, 2));
        let dvv = _mm256_max_epi32(d_open, d_ext);
        let sub_v = validate(_mm256_add_epi32(ld(sub, 1), ones));
        let mvv = _mm256_max_epi32(_mm256_max_epi32(sub_v, ivv), dvv);
        _mm256_storeu_si256(out_i.as_mut_ptr().add(t) as *mut __m256i, ivv);
        _mm256_storeu_si256(out_d.as_mut_ptr().add(t) as *mut __m256i, dvv);
        _mm256_storeu_si256(out_m.as_mut_ptr().add(t) as *mut __m256i, mvv);
        t += 8;
    }
    if t < len {
        compute_row_scalar(
            &sub[t..],
            &open[t..],
            &iext[t..],
            &dext[t..],
            k_lo + t as i32,
            n,
            m,
            &mut out_i[t..],
            &mut out_d[t..],
            &mut out_m[t..],
        );
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn compute_row_with_origins_avx2(
    sub: &[i32],
    open: &[i32],
    iext: &[i32],
    dext: &[i32],
    k_lo: i32,
    n: i32,
    m: i32,
    out_i: &mut [i32],
    out_d: &mut [i32],
    out_m: &mut [i32],
    out_code: &mut [u8],
) {
    use std::arch::x86_64::*;
    let len = out_i.len();
    let null = _mm256_set1_epi32(OFFSET_NULL);
    let ones = _mm256_set1_epi32(1);
    let neg1 = _mm256_set1_epi32(-1);
    let m_lim = _mm256_set1_epi32(m + 1);
    let n_lim = _mm256_set1_epi32(n + 1);
    let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let two = _mm256_set1_epi32(2);
    let four = _mm256_set1_epi32(4);
    let bit3 = _mm256_set1_epi32(8);
    let bit4 = _mm256_set1_epi32(16);
    let mut t = 0usize;
    while t + 8 <= len {
        let kv = _mm256_add_epi32(_mm256_set1_epi32(k_lo + t as i32), iota);
        let validate = |v: __m256i| {
            let iv = _mm256_sub_epi32(v, kv);
            let ok = _mm256_and_si256(
                _mm256_and_si256(_mm256_cmpgt_epi32(v, neg1), _mm256_cmpgt_epi32(m_lim, v)),
                _mm256_and_si256(_mm256_cmpgt_epi32(iv, neg1), _mm256_cmpgt_epi32(n_lim, iv)),
            );
            _mm256_blendv_epi8(null, v, ok)
        };
        let ld = |row: &[i32], off: usize| {
            _mm256_loadu_si256(row.as_ptr().add(t + off) as *const __m256i)
        };
        let i_open = validate(_mm256_add_epi32(ld(open, 0), ones));
        let i_ext = validate(_mm256_add_epi32(ld(iext, 0), ones));
        let ivv = _mm256_max_epi32(i_open, i_ext);
        let d_open = validate(ld(open, 2));
        let d_ext = validate(ld(dext, 2));
        let dvv = _mm256_max_epi32(d_open, d_ext);
        let sub_v = validate(_mm256_add_epi32(ld(sub, 1), ones));
        let mvv = _mm256_max_epi32(_mm256_max_epi32(sub_v, ivv), dvv);
        _mm256_storeu_si256(out_i.as_mut_ptr().add(t) as *mut __m256i, ivv);
        _mm256_storeu_si256(out_d.as_mut_ptr().add(t) as *mut __m256i, dvv);
        _mm256_storeu_si256(out_m.as_mut_ptr().add(t) as *mut __m256i, mvv);

        let i_valid = _mm256_cmpgt_epi32(ivv, neg1);
        let d_valid = _mm256_cmpgt_epi32(dvv, neg1);
        let m_valid = _mm256_cmpgt_epi32(mvv, neg1);
        let i_ext_m = _mm256_and_si256(_mm256_cmpeq_epi32(i_ext, ivv), i_valid);
        let d_ext_m = _mm256_and_si256(_mm256_cmpeq_epi32(d_ext, dvv), d_valid);
        let sub_sel = _mm256_and_si256(_mm256_cmpeq_epi32(sub_v, mvv), m_valid);
        let i_sel = _mm256_and_si256(_mm256_cmpeq_epi32(ivv, mvv), m_valid);
        // Priority chain, lowest first: deletion (2 - mask = 4/5 via `four`),
        // then insertion (2/3), then substitution (1); invalid M stays 0.
        let d_code = _mm256_sub_epi32(four, d_ext_m);
        let i_code = _mm256_sub_epi32(two, i_ext_m);
        let mut code = _mm256_and_si256(d_code, m_valid);
        code = _mm256_blendv_epi8(code, i_code, i_sel);
        code = _mm256_blendv_epi8(code, ones, sub_sel);
        code = _mm256_or_si256(code, _mm256_and_si256(bit3, i_ext_m));
        code = _mm256_or_si256(code, _mm256_and_si256(bit4, d_ext_m));
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, code);
        for (l, &c) in lanes.iter().enumerate() {
            out_code[t + l] = c as u8;
        }
        t += 8;
    }
    if t < len {
        compute_row_with_origins_scalar(
            &sub[t..],
            &open[t..],
            &iext[t..],
            &dext[t..],
            k_lo + t as i32,
            n,
            m,
            &mut out_i[t..],
            &mut out_d[t..],
            &mut out_m[t..],
            &mut out_code[t..],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop;
    use crate::rng::SmallRng;
    use crate::wavefront::offset_is_valid;

    fn random_dna(rng: &mut SmallRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| b"ACGT"[rng.gen_range(0, 4)]).collect()
    }

    /// A pair of related sequences: b is a mutated copy of a, so LCPs have
    /// realistic long runs instead of dying within 2 bases.
    fn related_pair(rng: &mut SmallRng, len: usize) -> (Vec<u8>, Vec<u8>) {
        let a = random_dna(rng, len);
        let mut b = a.clone();
        for base in b.iter_mut() {
            if rng.gen_bool(0.03) {
                *base = b"ACGT"[rng.gen_range(0, 4)];
            }
        }
        (a, b)
    }

    type ByteLcpFn = fn(&[u8], &[u8], usize, usize) -> usize;
    type PackedLcpFn = fn(&PackedSeq, &PackedSeq, usize, usize) -> usize;

    /// Every byte-LCP tier besides the scalar oracle, by name.
    fn byte_tiers() -> Vec<(&'static str, ByteLcpFn)> {
        vec![("word", lcp_bytes_word)]
    }

    /// Every compiled packed-LCP tier, by name.
    fn packed_tiers() -> Vec<(&'static str, PackedLcpFn)> {
        let mut tiers: Vec<(&'static str, PackedLcpFn)> = vec![("word", lcp_packed_word)];
        #[cfg(target_arch = "x86_64")]
        tiers.push(("simd", lcp_packed_simd));
        tiers
    }

    #[test]
    fn dispatch_parses_and_resolves() {
        for d in [
            KernelDispatch::Auto,
            KernelDispatch::Scalar,
            KernelDispatch::Word,
            KernelDispatch::Avx2,
        ] {
            assert_eq!(KernelDispatch::parse(d.name()), Some(d));
            let r = d.resolve();
            assert_ne!(r, KernelDispatch::Auto, "resolve() never returns Auto");
            assert!(r.available(), "resolved tier must be runnable");
        }
        assert_eq!(KernelDispatch::parse("AVX2"), Some(KernelDispatch::Avx2));
        assert_eq!(KernelDispatch::parse("mmx"), None);
        assert_eq!(KernelDispatch::parse("sse2"), None);
        for name in ["scalar", "word", "avx2", "auto"] {
            assert_eq!(
                KernelDispatch::parse(name).map(KernelDispatch::name),
                Some(name)
            );
        }
        // Per-tier test seeds use the discriminant; it must not move.
        assert_eq!(KernelDispatch::Avx2 as u8, 4);
        for d in [
            KernelDispatch::Scalar,
            KernelDispatch::Word,
            KernelDispatch::Avx2,
        ] {
            assert_eq!(KernelDispatch::from_code(d as u8), d);
        }
        // Scalar and Word pins always hold exactly.
        assert_eq!(KernelDispatch::Scalar.resolve(), KernelDispatch::Scalar);
        assert_eq!(KernelDispatch::Word.resolve(), KernelDispatch::Word);
    }

    #[test]
    fn active_dispatch_is_resolved_and_available() {
        let d = kernel_dispatch();
        assert_ne!(d, KernelDispatch::Auto);
        assert!(d.available());
    }

    #[test]
    fn all_byte_tiers_match_scalar() {
        prop::cases(200, 0x1C_B17E5, |rng, _| {
            let len = rng.gen_range(0, 200);
            let (a, b) = if len == 0 {
                let blen = rng.gen_range(0, 4);
                (Vec::new(), random_dna(rng, blen))
            } else {
                related_pair(rng, len)
            };
            for _ in 0..16 {
                let i = rng.gen_range(0, a.len() + 1);
                let j = rng.gen_range(0, b.len() + 1);
                let want = lcp_bytes_scalar(&a, &b, i, j);
                for (name, f) in byte_tiers() {
                    assert_eq!(f(&a, &b, i, j), want, "{name}: len={len} i={i} j={j}");
                }
            }
        });
    }

    #[test]
    fn all_packed_tiers_match_scalar() {
        prop::cases(200, 0x1C_9AC4ED, |rng, _| {
            let len = rng.gen_range(1, 200);
            let (a, b) = related_pair(rng, len);
            let pa = PackedSeq::from_ascii(&a).unwrap();
            let pb = PackedSeq::from_ascii(&b).unwrap();
            for _ in 0..16 {
                let i = rng.gen_range(0, a.len() + 1);
                let j = rng.gen_range(0, b.len() + 1);
                let want = lcp_packed_scalar(&pa, &pb, i, j);
                assert_eq!(
                    want,
                    lcp_bytes_scalar(&a, &b, i, j),
                    "packed and byte oracles must agree, len={len} i={i} j={j}"
                );
                for (name, f) in packed_tiers() {
                    assert_eq!(f(&pa, &pb, i, j), want, "{name}: len={len} i={i} j={j}");
                }
            }
        });
    }

    #[test]
    fn batch_lcp_matches_scalar_oracle_per_lane() {
        prop::cases(200, 0x1C_BA7C4, |rng, _| {
            let len = rng.gen_range(1, 300);
            let (a, b) = related_pair(rng, len);
            let pa = PackedSeq::from_ascii(&a).unwrap();
            let pb = PackedSeq::from_ascii(&b).unwrap();
            // Lane count sweeps the SIMD body, the scalar tail, and empty.
            let lanes = rng.gen_range(0, 11);
            let mut is = Vec::with_capacity(lanes);
            let mut js = Vec::with_capacity(lanes);
            for _ in 0..lanes {
                // Bias toward the i == n / j == m ends so the inactive-lane
                // (limit <= 0) path is exercised every few cases.
                is.push(if rng.gen_bool(0.15) {
                    a.len() as i32
                } else {
                    rng.gen_range(0, a.len() + 1) as i32
                });
                js.push(if rng.gen_bool(0.15) {
                    b.len() as i32
                } else {
                    rng.gen_range(0, b.len() + 1) as i32
                });
            }
            let mut got = vec![u32::MAX; lanes];
            lcp_packed_batch(&pa, &pb, &is, &js, &mut got);
            for t in 0..lanes {
                assert_eq!(
                    got[t],
                    lcp_packed_scalar(&pa, &pb, is[t] as usize, js[t] as usize) as u32,
                    "lane {t}: len={len} i={} j={}",
                    is[t],
                    js[t]
                );
            }
        });
    }

    #[test]
    fn batch_lcp_long_run_escalation() {
        // Identical 200-base sequences from aligned and unaligned starts:
        // every lane's first window matches fully (limit > 32), forcing the
        // long-run escalation path.
        let a = vec![b'G'; 200];
        let pa = PackedSeq::from_ascii(&a).unwrap();
        let is: Vec<i32> = (0..8).collect();
        let js: Vec<i32> = (0..8).map(|t| t * 3).collect();
        let mut got = vec![0u32; 8];
        lcp_packed_batch(&pa, &pa, &is, &js, &mut got);
        for t in 0..8 {
            assert_eq!(
                got[t],
                lcp_packed_scalar(&pa, &pa, is[t] as usize, js[t] as usize) as u32,
                "lane {t}"
            );
        }
    }

    #[test]
    fn long_identical_runs_hit_every_tier_fast_path() {
        // 1000 identical bases from every phase combination: the AVX2 loop
        // runs many full iterations and the tail must still clamp exactly.
        let a = vec![b'G'; 1000];
        let pa = PackedSeq::from_ascii(&a).unwrap();
        for i in 0..8 {
            for j in 0..8 {
                let want = 1000 - i.max(j);
                for (name, f) in byte_tiers() {
                    assert_eq!(f(&a, &a, i, j), want, "{name} i={i} j={j}");
                }
                for (name, f) in packed_tiers() {
                    assert_eq!(f(&pa, &pa, i, j), want, "{name} i={i} j={j}");
                }
            }
        }
    }

    #[test]
    fn mismatch_at_every_word_boundary() {
        // Mismatch placed exactly at k, for k spanning byte-word, packed-word
        // and vector boundary positions.
        let len = 300;
        let a = vec![b'A'; len];
        for k in [
            0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 96, 127, 128, 129, 255, 256,
            299,
        ] {
            let mut b = a.clone();
            b[k] = b'T';
            let pa = PackedSeq::from_ascii(&a).unwrap();
            let pb = PackedSeq::from_ascii(&b).unwrap();
            for (name, f) in byte_tiers() {
                assert_eq!(f(&a, &b, 0, 0), k, "{name} byte kernel, k={k}");
            }
            for (name, f) in packed_tiers() {
                assert_eq!(f(&pa, &pb, 0, 0), k, "{name} packed kernel, k={k}");
            }
        }
    }

    #[test]
    fn empty_and_exhausted_sequences() {
        let p = PackedSeq::from_ascii(b"ACGT").unwrap();
        let e = PackedSeq::from_ascii(b"").unwrap();
        for (name, f) in byte_tiers() {
            assert_eq!(f(b"", b"", 0, 0), 0, "{name}");
            assert_eq!(f(b"ACGT", b"", 0, 0), 0, "{name}");
            assert_eq!(f(b"ACGT", b"ACGT", 4, 4), 0, "{name}");
            assert_eq!(f(b"ACGT", b"ACGT", 4, 0), 0, "{name}");
        }
        for (name, f) in packed_tiers() {
            assert_eq!(f(&p, &e, 0, 0), 0, "{name}");
            assert_eq!(f(&p, &p, 4, 4), 0, "{name}");
        }
    }

    #[test]
    fn unaligned_tails_clamp_to_limit() {
        // 70 identical bases from unaligned starts: the final window reads
        // garbage bits past the end that must never count.
        let a = vec![b'G'; 70];
        let pa = PackedSeq::from_ascii(&a).unwrap();
        for (i, j) in [(0, 0), (5, 0), (31, 33), (69, 1), (1, 69), (3, 2)] {
            let want = 70 - i.max(j);
            for (name, f) in byte_tiers() {
                assert_eq!(f(&a, &a, i, j), want, "{name} i={i} j={j}");
            }
            for (name, f) in packed_tiers() {
                assert_eq!(f(&pa, &pa, i, j), want, "{name} i={i} j={j}");
            }
        }
    }

    #[test]
    fn non_acgt_bytes_flow_through_the_byte_kernels() {
        // The oracle must handle arbitrary bytes ('N' reads reach the CPU
        // fallback path); every byte tier compares them literally.
        let a = b"ACGNNNGT";
        let b = b"ACGNNNGA";
        assert_eq!(lcp_bytes_scalar(a, b, 0, 0), 7);
        for (name, f) in byte_tiers() {
            assert_eq!(f(a, b, 0, 0), 7, "{name}");
        }
        // And across a full vector of arbitrary bytes.
        let long_a: Vec<u8> = (0..100u8).collect();
        let mut long_b = long_a.clone();
        long_b[37] = 0xFF;
        for (name, f) in byte_tiers() {
            assert_eq!(f(&long_a, &long_b, 0, 0), 37, "{name}");
        }
    }

    #[test]
    fn dispatched_entry_points_follow_the_pin() {
        // Whatever tier is pinned, the dispatched entry points must agree
        // with the scalar oracle (the values are tier-invariant).
        let (a, b) = (b"GATTACAGATTACA", b"GATTACAGATCACA");
        let pa = PackedSeq::from_ascii(a).unwrap();
        let pb = PackedSeq::from_ascii(b).unwrap();
        let before = kernel_dispatch();
        for d in [
            KernelDispatch::Scalar,
            KernelDispatch::Word,
            KernelDispatch::Avx2,
            KernelDispatch::Auto,
        ] {
            set_kernel_dispatch(d);
            assert_eq!(lcp_bytes(a, b, 0, 0), lcp_bytes_scalar(a, b, 0, 0));
            assert_eq!(
                lcp_packed(&pa, &pb, 0, 0),
                lcp_packed_scalar(&pa, &pb, 0, 0)
            );
        }
        set_kernel_dispatch(before);
    }

    // --- compute_row ---

    /// Random source row mixing NULLs and plausible offsets.
    fn random_row(rng: &mut SmallRng, len: usize, m: i32) -> Vec<i32> {
        (0..len)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    OFFSET_NULL
                } else {
                    rng.gen_range(0, (m + 3) as usize) as i32 - 1
                }
            })
            .collect()
    }

    #[allow(clippy::type_complexity)]
    fn run_row(
        f: &dyn Fn(
            &[i32],
            &[i32],
            &[i32],
            &[i32],
            i32,
            i32,
            i32,
            &mut [i32],
            &mut [i32],
            &mut [i32],
        ),
        rows: &(Vec<i32>, Vec<i32>, Vec<i32>, Vec<i32>),
        k_lo: i32,
        n: i32,
        m: i32,
        len: usize,
    ) -> (Vec<i32>, Vec<i32>, Vec<i32>) {
        let mut oi = vec![0; len];
        let mut od = vec![0; len];
        let mut om = vec![0; len];
        f(
            &rows.0, &rows.1, &rows.2, &rows.3, k_lo, n, m, &mut oi, &mut od, &mut om,
        );
        (oi, od, om)
    }

    #[test]
    fn compute_row_tiers_match_scalar_oracle() {
        prop::cases(300, 0xC0_33B0, |rng, _| {
            let len = rng.gen_range(1, 40);
            let n = rng.gen_range(0, 60) as i32;
            let m = rng.gen_range(0, 60) as i32;
            let k_lo = rng.gen_range(0, 30) as i32 - 15;
            let rows = (
                random_row(rng, len + 2, m),
                random_row(rng, len + 2, m),
                random_row(rng, len + 2, m),
                random_row(rng, len + 2, m),
            );
            let want = run_row(&compute_row_scalar, &rows, k_lo, n, m, len);
            let got = run_row(&compute_row, &rows, k_lo, n, m, len);
            assert_eq!(got, want, "len={len} k_lo={k_lo} n={n} m={m}");
            #[cfg(target_arch = "x86_64")]
            {
                if KernelDispatch::Avx2.available() {
                    let got = run_row(
                        &|s, o, ie, de, k, n, m, oi, od, om| unsafe {
                            compute_row_avx2(s, o, ie, de, k, n, m, oi, od, om)
                        },
                        &rows,
                        k_lo,
                        n,
                        m,
                        len,
                    );
                    assert_eq!(got, want, "avx2: len={len} k_lo={k_lo} n={n} m={m}");
                }
            }
        });
    }

    #[test]
    fn compute_row_with_origins_tiers_match_scalar_oracle() {
        type OriginRowFn = dyn Fn(
            &[i32],
            &[i32],
            &[i32],
            &[i32],
            i32,
            i32,
            i32,
            &mut [i32],
            &mut [i32],
            &mut [i32],
            &mut [u8],
        );
        let run = |f: &OriginRowFn,
                   rows: &(Vec<i32>, Vec<i32>, Vec<i32>, Vec<i32>),
                   k_lo: i32,
                   n: i32,
                   m: i32,
                   len: usize| {
            let mut oi = vec![0; len];
            let mut od = vec![0; len];
            let mut om = vec![0; len];
            let mut oc = vec![0u8; len];
            f(
                &rows.0, &rows.1, &rows.2, &rows.3, k_lo, n, m, &mut oi, &mut od, &mut om, &mut oc,
            );
            (oi, od, om, oc)
        };
        prop::cases(300, 0xC0_44B1, |rng, _| {
            let len = rng.gen_range(1, 40);
            let n = rng.gen_range(0, 60) as i32;
            let m = rng.gen_range(0, 60) as i32;
            let k_lo = rng.gen_range(0, 30) as i32 - 15;
            let rows = (
                random_row(rng, len + 2, m),
                random_row(rng, len + 2, m),
                random_row(rng, len + 2, m),
                random_row(rng, len + 2, m),
            );
            let want = run(&compute_row_with_origins_scalar, &rows, k_lo, n, m, len);
            // Values agree with the origin-free row oracle.
            let plain = run_row(&compute_row_scalar, &rows, k_lo, n, m, len);
            assert_eq!(
                (want.0.clone(), want.1.clone(), want.2.clone()),
                plain,
                "origin variant changed values: len={len} k_lo={k_lo} n={n} m={m}"
            );
            let got = run(&compute_row_with_origins, &rows, k_lo, n, m, len);
            assert_eq!(got, want, "len={len} k_lo={k_lo} n={n} m={m}");
            #[cfg(target_arch = "x86_64")]
            {
                if KernelDispatch::Avx2.available() {
                    let got = run(
                        &|s, o, ie, de, k, n, m, oi, od, om, oc| unsafe {
                            compute_row_with_origins_avx2(s, o, ie, de, k, n, m, oi, od, om, oc)
                        },
                        &rows,
                        k_lo,
                        n,
                        m,
                        len,
                    );
                    assert_eq!(got, want, "avx2: len={len} k_lo={k_lo} n={n} m={m}");
                }
            }
        });
    }

    #[test]
    fn compute_row_scalar_matches_cell_functions_on_all_null() {
        let len = 9;
        let rows = (
            vec![OFFSET_NULL; len + 2],
            vec![OFFSET_NULL; len + 2],
            vec![OFFSET_NULL; len + 2],
            vec![OFFSET_NULL; len + 2],
        );
        let (oi, od, om) = run_row(&compute_row, &rows, -4, 50, 50, len);
        assert!(oi.iter().all(|&v| v == OFFSET_NULL));
        assert!(od.iter().all(|&v| v == OFFSET_NULL));
        assert!(om.iter().all(|&v| v == OFFSET_NULL));
    }

    #[test]
    fn compute_row_bounds_reject_out_of_matrix_candidates() {
        // One valid source whose successor lands outside a tiny matrix on
        // some lanes: those lanes must be exactly NULL, in-bounds lanes real.
        let len = 8;
        let sub = vec![2; len + 2];
        let open = vec![OFFSET_NULL; len + 2];
        let iext = vec![OFFSET_NULL; len + 2];
        let dext = vec![OFFSET_NULL; len + 2];
        let mut oi = vec![0; len];
        let mut od = vec![0; len];
        let mut om = vec![0; len];
        // n = 2, m = 3: cell (i, j) = (3 - k, 3) valid only for 1 <= k <= 3.
        compute_row(
            &sub, &open, &iext, &dext, -2, 2, 3, &mut oi, &mut od, &mut om,
        );
        for (t, &mv) in om.iter().enumerate() {
            let k = -2 + t as i32;
            if (1..=3).contains(&k) {
                assert_eq!(mv, 3, "k={k}");
            } else {
                assert_eq!(mv, OFFSET_NULL, "k={k}");
            }
            assert!(offset_is_valid(mv) == (1..=3).contains(&k));
        }
    }
}

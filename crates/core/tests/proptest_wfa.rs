//! Property-based tests for the WFA core: the exactness invariants the paper
//! relies on ("identical results to the SWG algorithm", §2.3).
//!
//! Runs on the in-repo harness (`wfa_core::prop`) — the build environment is
//! offline, so `proptest` is not available.

use wfa_core::bitpack::PackedSeq;
use wfa_core::kernel::{lcp_bytes, lcp_packed};
use wfa_core::prop::cases;
use wfa_core::rng::SmallRng;
use wfa_core::wfa::{wfa_align, WfaOptions};
use wfa_core::{align, swg_align, swg_score, Penalties};

const CASES: usize = 200;
const BASES: &[u8] = b"ACGT";

/// Random DNA of length 0..=max.
fn dna(rng: &mut SmallRng, max: usize) -> Vec<u8> {
    let len = rng.gen_range(0, max + 1);
    (0..len).map(|_| *rng.pick(BASES)).collect()
}

/// A mutated copy of a sequence (bounded random edits) — keeps the pair
/// similar so scores stay small and the WFA advantage is realistic.
fn dna_pair(rng: &mut SmallRng, max: usize) -> (Vec<u8>, Vec<u8>) {
    let a = dna(rng, max);
    let mut b = a.clone();
    for _ in 0..rng.gen_range(0, 8) {
        let base = *rng.pick(BASES);
        if b.is_empty() {
            b.push(base);
            continue;
        }
        let p = rng.gen_range(0, b.len());
        match rng.gen_range(0, 3) {
            0 => b[p] = base,
            1 => b.insert(p, base),
            _ => {
                b.remove(p);
            }
        }
    }
    (a, b)
}

/// WFA score equals the full-DP SWG score on arbitrary pairs.
#[test]
fn wfa_equals_swg_arbitrary() {
    cases(CASES, 0x57FA_0001, |rng, _| {
        let (a, b) = (dna(rng, 48), dna(rng, 48));
        let p = Penalties::WFASIC_DEFAULT;
        let wfa = align(&a, &b, p).unwrap();
        assert_eq!(wfa.score as u64, swg_align(&a, &b, &p).score);
    });
}

/// WFA score equals SWG on realistic mutated pairs, and the CIGAR is a
/// valid transcript that costs exactly the score.
#[test]
fn wfa_cigar_valid_and_optimal() {
    cases(CASES, 0x57FA_0002, |rng, _| {
        let (a, b) = dna_pair(rng, 96);
        let p = Penalties::WFASIC_DEFAULT;
        let wfa = align(&a, &b, p).unwrap();
        let cigar = wfa.cigar.unwrap();
        cigar.check(&a, &b).unwrap();
        assert_eq!(cigar.score(&p), wfa.score as u64);
        assert_eq!(wfa.score as u64, swg_score(&a, &b, &p));
    });
}

/// Exactness holds for other penalty sets too.
#[test]
fn wfa_equals_swg_other_penalties() {
    cases(CASES, 0x57FA_0003, |rng, _| {
        let (a, b) = dna_pair(rng, 40);
        let x = rng.gen_range(1, 8) as u32;
        let o = rng.gen_range(0, 10) as u32;
        let e = rng.gen_range(1, 5) as u32;
        let p = Penalties::new(x, o, e).unwrap();
        let wfa = align(&a, &b, p).unwrap();
        assert_eq!(wfa.score as u64, swg_score(&a, &b, &p));
        let cigar = wfa.cigar.unwrap();
        cigar.check(&a, &b).unwrap();
        assert_eq!(cigar.score(&p), wfa.score as u64);
    });
}

/// Score-only mode agrees with CIGAR mode.
#[test]
fn score_only_agrees() {
    cases(CASES, 0x57FA_0004, |rng, _| {
        let (a, b) = dna_pair(rng, 96);
        let p = Penalties::WFASIC_DEFAULT;
        let full = align(&a, &b, p).unwrap();
        let so = wfa_align(&a, &b, &WfaOptions::score_only(p)).unwrap();
        assert_eq!(full.score, so.score);
    });
}

/// The packed-word extend equals the byte-wise extend at every position.
#[test]
fn packed_extend_equals_naive() {
    cases(CASES, 0x57FA_0005, |rng, _| {
        let (a, b) = (dna(rng, 80), dna(rng, 80));
        let i = rng.gen_range(0, a.len() + 1);
        let j = rng.gen_range(0, b.len() + 1);
        let pa = PackedSeq::from_ascii(&a).unwrap();
        let pb = PackedSeq::from_ascii(&b).unwrap();
        assert_eq!(lcp_packed(&pa, &pb, i, j), lcp_bytes(&a, &b, i, j));
    });
}

/// Packing round-trips.
#[test]
fn pack_roundtrip() {
    cases(CASES, 0x57FA_0006, |rng, _| {
        let a = dna(rng, 200);
        let p = PackedSeq::from_ascii(&a).unwrap();
        assert_eq!(p.to_ascii(), a);
    });
}

/// The score is symmetric in (a, b) up to swapping I and D.
#[test]
fn score_symmetric() {
    cases(CASES, 0x57FA_0007, |rng, _| {
        let (a, b) = dna_pair(rng, 64);
        let p = Penalties::WFASIC_DEFAULT;
        let fwd = align(&a, &b, p).unwrap();
        let rev = align(&b, &a, p).unwrap();
        assert_eq!(fwd.score, rev.score);
    });
}

/// Triangle-ish sanity: score is bounded by the all-gaps alignment.
#[test]
fn score_bounded_by_all_gaps() {
    cases(CASES, 0x57FA_0008, |rng, _| {
        let (a, b) = (dna(rng, 60), dna(rng, 60));
        let p = Penalties::WFASIC_DEFAULT;
        let r = align(&a, &b, p).unwrap();
        let bound = p.gap_cost(a.len() as u32) as u64 + p.gap_cost(b.len() as u32) as u64;
        assert!(r.score as u64 <= bound);
    });
}

/// The whole exactness sweep holds at every kernel dispatch tier: forcing
/// scalar, word or AVX2 through the same alignments must not change
/// a score, a CIGAR, or an extend count. Tiers the host CPU lacks are
/// skipped (the CI matrix still forces each one where available).
#[test]
fn wfa_exactness_holds_at_every_dispatch_tier() {
    use wfa_core::kernel::{
        kernel_dispatch, lcp_packed_batch, set_kernel_dispatch, KernelDispatch,
    };
    for tier in [
        KernelDispatch::Scalar,
        KernelDispatch::Word,
        KernelDispatch::Avx2,
    ] {
        if !tier.available() {
            continue;
        }
        set_kernel_dispatch(tier);
        assert_eq!(kernel_dispatch(), tier);
        cases(64, 0x57FA_0010 ^ tier as u64, |rng, _| {
            let (a, b) = dna_pair(rng, 96);
            let p = Penalties::WFASIC_DEFAULT;
            let wfa = align(&a, &b, p).unwrap();
            let cigar = wfa.cigar.unwrap();
            cigar.check(&a, &b).unwrap();
            assert_eq!(cigar.score(&p), wfa.score as u64);
            assert_eq!(wfa.score as u64, swg_score(&a, &b, &p));

            // Single-cell and batched extends agree with the byte oracle
            // at this tier too.
            let pa = PackedSeq::from_ascii(&a).unwrap();
            let pb = PackedSeq::from_ascii(&b).unwrap();
            let i = rng.gen_range(0, a.len() + 1);
            let j = rng.gen_range(0, b.len() + 1);
            assert_eq!(lcp_packed(&pa, &pb, i, j), lcp_bytes(&a, &b, i, j));
            let is: Vec<i32> = (0..5)
                .map(|_| rng.gen_range(0, a.len() + 1) as i32)
                .collect();
            let js: Vec<i32> = (0..5)
                .map(|_| rng.gen_range(0, b.len() + 1) as i32)
                .collect();
            let mut out = [0u32; 5];
            lcp_packed_batch(&pa, &pb, &is, &js, &mut out);
            for t in 0..5 {
                assert_eq!(
                    out[t] as usize,
                    lcp_bytes(&a, &b, is[t] as usize, js[t] as usize),
                    "tier {tier:?} lane {t}"
                );
            }
        });
    }
    set_kernel_dispatch(KernelDispatch::Auto);
}

/// BiWFA is score-identical to the exact engine and its CIGAR replays to
/// exactly the optimal score — at every kernel dispatch tier, so the
/// packed extend ladder under the bidirectional machines is covered the
/// same way the exact engine's is.
#[test]
fn biwfa_matches_exact_at_every_dispatch_tier() {
    use wfa_core::kernel::{set_kernel_dispatch, KernelDispatch};
    use wfa_core::AlignStrategy;
    for tier in [
        KernelDispatch::Scalar,
        KernelDispatch::Word,
        KernelDispatch::Avx2,
    ] {
        if !tier.available() {
            continue;
        }
        set_kernel_dispatch(tier);
        cases(48, 0x57FA_0020 ^ tier as u64, |rng, _| {
            let (a, b) = dna_pair(rng, 96);
            let p = Penalties::WFASIC_DEFAULT;
            let exact = align(&a, &b, p).unwrap();
            let opts = WfaOptions::biwfa(p);
            assert_eq!(opts.strategy, AlignStrategy::BiWfa);
            let bi = wfa_align(&a, &b, &opts).unwrap();
            assert_eq!(bi.score, exact.score, "tier {tier:?}");
            let cigar = bi.cigar.unwrap();
            cigar.check(&a, &b).unwrap();
            assert_eq!(cigar.score(&p), bi.score as u64, "tier {tier:?}");
        });
    }
    set_kernel_dispatch(KernelDispatch::Auto);
}

/// BiWFA stays exact on non-default penalty sets (odd costs exercise
/// wavefront schedules the default even-cost grid never produces).
#[test]
fn biwfa_matches_exact_on_other_penalties() {
    cases(CASES, 0x57FA_0021, |rng, _| {
        let (a, b) = dna_pair(rng, 72);
        let x = rng.gen_range(1, 8) as u32;
        let o = rng.gen_range(0, 10) as u32;
        let e = rng.gen_range(1, 5) as u32;
        let p = Penalties::new(x, o, e).unwrap();
        let bi = wfa_align(&a, &b, &WfaOptions::biwfa(p)).unwrap();
        assert_eq!(bi.score as u64, swg_score(&a, &b, &p));
        let cigar = bi.cigar.unwrap();
        cigar.check(&a, &b).unwrap();
        assert_eq!(cigar.score(&p), bi.score as u64);
    });
}

/// The adaptive band is an upper bound: it never reports a score below the
/// exact optimum, its CIGAR is always a valid transcript that replays to
/// the reported score, and at realistic error rates (the co-sim grid's
/// regime) the heuristic loses nothing.
#[test]
fn adaptive_band_is_an_upper_bound_and_exact_at_low_error() {
    use wfa_core::AdaptiveParams;
    // Arbitrary pairs: upper-bound + validity only.
    cases(CASES, 0x57FA_0022, |rng, _| {
        let (a, b) = dna_pair(rng, 96);
        let p = Penalties::WFASIC_DEFAULT;
        let exact = swg_score(&a, &b, &p);
        let opts = WfaOptions::adaptive(p, AdaptiveParams::default());
        let ad = wfa_align(&a, &b, &opts).unwrap();
        assert!(
            ad.score as u64 >= exact,
            "adaptive {} beat exact {exact}",
            ad.score
        );
        let cigar = ad.cigar.unwrap();
        cigar.check(&a, &b).unwrap();
        assert_eq!(cigar.score(&p), ad.score as u64);
    });
    // Realistic mutated pairs (bounded edit count over 200+ bp is a
    // low-single-digit error rate, the co-sim grid's regime): the band
    // never clips the optimal path, so adaptive == exact.
    cases(CASES, 0x57FA_0023, |rng, _| {
        let mut a = dna(rng, 320);
        while a.len() < 200 {
            a.push(*rng.pick(BASES));
        }
        let mut b = a.clone();
        for _ in 0..rng.gen_range(0, 6) {
            let base = *rng.pick(BASES);
            let pos = rng.gen_range(0, b.len());
            match rng.gen_range(0, 3) {
                0 => b[pos] = base,
                1 => b.insert(pos, base),
                _ => {
                    b.remove(pos);
                }
            }
        }
        let p = Penalties::WFASIC_DEFAULT;
        let opts = WfaOptions::adaptive(p, AdaptiveParams::default());
        let ad = wfa_align(&a, &b, &opts).unwrap();
        assert_eq!(ad.score as u64, swg_score(&a, &b, &p));
    });
}

#[test]
fn lcp_bytes_edge_positions() {
    let a = b"ACGT";
    let b = b"ACGT";
    assert_eq!(lcp_bytes(a, b, 4, 4), 0);
    assert_eq!(lcp_bytes(a, b, 0, 4), 0);
    assert_eq!(lcp_bytes(a, b, 0, 0), 4);
}

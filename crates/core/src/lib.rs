//! # wfa-core — exact gap-affine WaveFront Alignment
//!
//! The algorithm library at the heart of the WFAsic reproduction
//! (Haghi et al., *WFAsic: A High-Performance ASIC Accelerator for DNA
//! Sequence Alignment on a RISC-V SoC*, ICPP 2023).
//!
//! It implements, from scratch:
//!
//! * the exact gap-affine **WFA** (paper Eq. 3/4) with full backtrace,
//!   score-only bounded-memory mode, hardware-style score/band limits, and
//!   work statistics ([`wfa`], [`wavefront`], [`backtrace`]);
//! * the **Smith-Waterman-Gotoh** full-DP baseline (Eq. 2) and the gap-linear
//!   DP (Eq. 1) as correctness oracles and CUPS references ([`swg`]);
//! * 2-bit **packed sequences** with machine-word extension — the functional
//!   model of the hardware Extend sub-module and of vectorized CPU code
//!   ([`bitpack`]);
//! * the heuristic **adaptive** wavefront reduction as an extension
//!   ([`adaptive`]).
//!
//! ## Quickstart
//!
//! ```
//! use wfa_core::{align, Penalties};
//!
//! let a = b"GATTACAGATTACA";
//! let b = b"GATCACAGATTACA";
//! let r = align(a, b, Penalties::WFASIC_DEFAULT).unwrap();
//! assert_eq!(r.score, 4); // one mismatch under (x, o, e) = (4, 6, 2)
//! let cigar = r.cigar.unwrap();
//! assert_eq!(cigar.to_rle_string(), "3M1X10M");
//! cigar.check(a, b).unwrap();
//! ```

pub mod adaptive;
pub mod arena;
pub mod backtrace;
pub mod bitpack;
pub mod biwfa;
pub mod cigar;
pub mod kernel;
pub mod penalties;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod seq;
pub mod swg;
pub mod wavefront;
pub mod wfa;

pub use adaptive::AdaptiveParams;
pub use arena::{ArenaStats, WavefrontArena};
pub use bitpack::PackedSeq;
pub use cigar::{Cigar, CigarError, EditStats, Op};
pub use penalties::{Penalties, PenaltyError};
pub use rng::SmallRng;
pub use seq::Seq;
pub use swg::{gap_linear_score, swg_align, swg_score, DpAlignment};
pub use wavefront::{Wavefront, WavefrontSet, OFFSET_NULL};
pub use wfa::{
    align, wfa_align, wfa_align_seqs, wfa_align_seqs_ref, wfa_align_seqs_with_arena, AlignStrategy,
    SeqsRef, WfaAlignment, WfaError, WfaOptions, WfaStats,
};

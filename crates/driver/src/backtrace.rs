//! CPU-side backtrace over the accelerator's origin stream (paper §4.5).
//!
//! The accelerator emits, per computed wavefront cell, a 5-bit origin code;
//! the CPU turns that stream back into full alignments in three steps:
//!
//! 1. **Locate** each alignment's transactions. With multiple Aligners the
//!    streams interleave in memory and must be *separated* (bucketed by the
//!    23-bit ID and ordered by counter — the expensive step Fig. 11
//!    measures); with a single Aligner the data is already consecutive and
//!    only the boundaries must be found (the "no separation" method).
//! 2. **Walk** the origins backwards from the final cell `(score, k_end)`,
//!    using the deterministic [`WavefrontSchedule`] to find each cell's
//!    block, producing the edit list (mismatches/indels — no matches yet).
//!    Each edit records whether it was taken from an M cell (so matches may
//!    precede it) or mid gap-chain (no matches possible before it).
//! 3. **Insert matches**: replay the edits forward over the two sequences,
//!    extending greedily wherever the path passed through an (always
//!    maximally-extended) M cell.

use wfa_core::cigar::{Cigar, Op};
use wfa_core::{PackedSeq, Penalties, SeqsRef};
use wfasic_accel::schedule::WavefrontSchedule;
use wfasic_seqio::memimage::{
    unpack_bt_cell, BtScoreRecord, BtTxn, MOrigin, BT_PAYLOAD_BYTES, SECTION,
};

/// One alignment's reassembled backtrace data.
#[derive(Debug, Clone)]
pub struct BtAlignment {
    /// 23-bit alignment ID.
    pub id: u32,
    /// Final score record from the Last transaction.
    pub record: BtScoreRecord,
    /// Concatenated origin-block payload bytes (transaction payloads in
    /// counter order, excluding the Last/score transaction).
    pub payload: Vec<u8>,
    /// Transactions this alignment contributed (for cost accounting).
    pub txns: usize,
}

/// Errors in stream parsing or the origin walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BtError {
    /// The stream ended without a Last transaction for an alignment.
    TruncatedStream,
    /// Transaction counters are not contiguous for an alignment.
    BadCounters { id: u32 },
    /// The walk needed a cell outside the emitted schedule.
    WalkOutOfSchedule { score: u32, k: i32 },
    /// An origin code was inconsistent with the walk state.
    BadOrigin { score: u32, k: i32 },
    /// Match insertion failed to consume the sequences exactly.
    ReconstructionMismatch,
}

impl std::fmt::Display for BtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BtError::TruncatedStream => {
                write!(f, "backtrace stream ended without a Last transaction")
            }
            BtError::BadCounters { id } => {
                write!(f, "non-contiguous transaction counters for alignment {id}")
            }
            BtError::WalkOutOfSchedule { score, k } => {
                write!(
                    f,
                    "origin walk left the schedule at score {score}, diagonal {k}"
                )
            }
            BtError::BadOrigin { score, k } => {
                write!(f, "inconsistent origin code at score {score}, diagonal {k}")
            }
            BtError::ReconstructionMismatch => {
                write!(f, "match insertion failed to consume the sequences exactly")
            }
        }
    }
}

impl std::error::Error for BtError {}

/// Parse a raw BT output region (multi-Aligner case): bucket transactions by
/// ID, order by counter, reassemble payloads — the *data separation* step.
pub fn separate_stream(bytes: &[u8]) -> Result<Vec<BtAlignment>, BtError> {
    let mut order: Vec<u32> = Vec::new();
    let mut buckets: std::collections::HashMap<u32, Vec<BtTxn>> = std::collections::HashMap::new();
    for chunk in bytes.chunks_exact(SECTION) {
        let txn = BtTxn::decode(chunk);
        let bucket = buckets.entry(txn.id).or_insert_with(|| {
            order.push(txn.id);
            Vec::new()
        });
        bucket.push(txn);
    }
    let mut out = Vec::with_capacity(order.len());
    for id in order {
        let mut txns = buckets.remove(&id).unwrap();
        txns.sort_by_key(|t| t.counter);
        out.push(assemble(id, txns)?);
    }
    Ok(out)
}

/// Parse a single-Aligner BT region (the "no separation" method): data is
/// consecutive; split at Last flags.
pub fn split_consecutive_stream(bytes: &[u8]) -> Result<Vec<BtAlignment>, BtError> {
    // Single pass: consecutive data needs no reordering, so payload bytes
    // stream straight into the current alignment's buffer and counters are
    // checked as they arrive — no per-transaction structs are materialized
    // (a counter gap is therefore reported at the offending transaction
    // rather than at the end of its segment).
    let mut out = Vec::new();
    let mut payload: Vec<u8> = Vec::new();
    let mut count: usize = 0;
    for chunk in bytes.chunks_exact(SECTION) {
        // Decode the 6 info bytes in place (`BtTxn::decode` layout); the
        // payload streams straight from the chunk, copied exactly once.
        let counter = chunk[10] as u32 | (chunk[11] as u32) << 8 | (chunk[12] as u32) << 16;
        let tail = chunk[13] as u32 | (chunk[14] as u32) << 8 | (chunk[15] as u32) << 16;
        let id = tail & 0x7F_FFFF;
        if counter != count as u32 {
            return Err(BtError::BadCounters { id });
        }
        count += 1;
        if tail >> 23 & 1 == 1 {
            let mut rec = [0u8; BT_PAYLOAD_BYTES];
            rec.copy_from_slice(&chunk[..BT_PAYLOAD_BYTES]);
            out.push(BtAlignment {
                id,
                record: BtScoreRecord::decode(&rec),
                payload: std::mem::take(&mut payload),
                txns: count,
            });
            count = 0;
        } else {
            payload.extend_from_slice(&chunk[..BT_PAYLOAD_BYTES]);
        }
    }
    if count != 0 {
        return Err(BtError::TruncatedStream);
    }
    Ok(out)
}

fn assemble(id: u32, txns: Vec<BtTxn>) -> Result<BtAlignment, BtError> {
    let Some(last) = txns.last() else {
        return Err(BtError::TruncatedStream);
    };
    if !last.last {
        return Err(BtError::TruncatedStream);
    }
    for (i, t) in txns.iter().enumerate() {
        if t.counter != i as u32 {
            return Err(BtError::BadCounters { id });
        }
    }
    let record = BtScoreRecord::decode(&last.payload);
    let mut payload = Vec::with_capacity((txns.len() - 1) * BT_PAYLOAD_BYTES);
    for t in &txns[..txns.len() - 1] {
        payload.extend_from_slice(&t.payload);
    }
    Ok(BtAlignment {
        id,
        record,
        payload,
        txns: txns.len(),
    })
}

/// One edit from the origin walk, in forward order after reversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edit {
    /// The operation (Mismatch, Ins or Del — never Match).
    pub op: Op,
    /// May matches precede this edit? True when the path reached this edit
    /// from an M cell (which is always maximally extended), false mid
    /// gap-chain.
    pub extend_before: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Comp {
    M,
    I,
    D,
}

/// Walk the origin stream backwards from `(score, k_end)`.
/// Returns the edits in *forward* order.
pub fn walk_origins(
    schedule: &WavefrontSchedule,
    bt: &BtAlignment,
    p: &Penalties,
    parallel_sections: usize,
) -> Result<Vec<Edit>, BtError> {
    let block_bytes = wfasic_seqio::memimage::bt_block_bytes(parallel_sections);
    let origin_at = |score: u32, k: i32| -> Result<wfasic_seqio::CellOrigin, BtError> {
        let (block, cell) = schedule
            .locate(score, k)
            .ok_or(BtError::WalkOutOfSchedule { score, k })?;
        let start = block as usize * block_bytes;
        let end = start + block_bytes;
        if end > bt.payload.len() {
            return Err(BtError::TruncatedStream);
        }
        Ok(unpack_bt_cell(&bt.payload[start..end], cell))
    };

    let mut edits_rev: Vec<Edit> = Vec::new();
    let mut s = bt.record.score as i64;
    let mut k = bt.record.k as i32;
    let mut comp = Comp::M;
    let x = p.x as i64;
    let oe = (p.o + p.e) as i64;
    let e = p.e as i64;

    while s > 0 {
        let bad = BtError::BadOrigin { score: s as u32, k };
        match comp {
            Comp::M => {
                let o = origin_at(s as u32, k)?;
                match o.m {
                    MOrigin::Sub => {
                        edits_rev.push(Edit {
                            op: Op::Mismatch,
                            extend_before: true,
                        });
                        s -= x;
                    }
                    MOrigin::InsOpen => {
                        edits_rev.push(Edit {
                            op: Op::Ins,
                            extend_before: true,
                        });
                        s -= oe;
                        k -= 1;
                    }
                    MOrigin::InsExt => {
                        edits_rev.push(Edit {
                            op: Op::Ins,
                            extend_before: false,
                        });
                        s -= e;
                        k -= 1;
                        comp = Comp::I;
                    }
                    MOrigin::DelOpen => {
                        edits_rev.push(Edit {
                            op: Op::Del,
                            extend_before: true,
                        });
                        s -= oe;
                        k += 1;
                    }
                    MOrigin::DelExt => {
                        edits_rev.push(Edit {
                            op: Op::Del,
                            extend_before: false,
                        });
                        s -= e;
                        k += 1;
                        comp = Comp::D;
                    }
                    MOrigin::None => return Err(bad),
                }
            }
            Comp::I => {
                let o = origin_at(s as u32, k)?;
                if o.i_ext {
                    edits_rev.push(Edit {
                        op: Op::Ins,
                        extend_before: false,
                    });
                    s -= e;
                    k -= 1;
                } else {
                    edits_rev.push(Edit {
                        op: Op::Ins,
                        extend_before: true,
                    });
                    s -= oe;
                    k -= 1;
                    comp = Comp::M;
                }
            }
            Comp::D => {
                let o = origin_at(s as u32, k)?;
                if o.d_ext {
                    edits_rev.push(Edit {
                        op: Op::Del,
                        extend_before: false,
                    });
                    s -= e;
                    k += 1;
                } else {
                    edits_rev.push(Edit {
                        op: Op::Del,
                        extend_before: true,
                    });
                    s -= oe;
                    k += 1;
                    comp = Comp::M;
                }
            }
        }
        if s < 0 {
            return Err(bad);
        }
    }
    if k != 0 || comp != Comp::M {
        return Err(BtError::BadOrigin { score: 0, k });
    }
    edits_rev.reverse();
    Ok(edits_rev)
}

/// Insert matches: replay the edits forward over the sequences
/// (paper §4.5: "the CPU traverses the two sequences and inserts all the
/// necessary matches between the differences"). A packed pair replays
/// without decoding to ASCII.
pub fn insert_matches(seqs: SeqsRef<'_>, edits: &[Edit]) -> Result<Cigar, BtError> {
    let (n, m) = (seqs.a_len(), seqs.b_len());
    let mut cigar = Cigar::new();
    let (mut i, mut j) = (0usize, 0usize);
    for edit in edits {
        if edit.extend_before {
            let run = seqs.lcp(i, j);
            cigar.push_run(Op::Match, run as u32);
            i += run;
            j += run;
        }
        match edit.op {
            Op::Mismatch => {
                if i >= n || j >= m || seqs.same_base(i, j) {
                    return Err(BtError::ReconstructionMismatch);
                }
                cigar.push(Op::Mismatch);
                i += 1;
                j += 1;
            }
            Op::Ins => {
                if j >= m {
                    return Err(BtError::ReconstructionMismatch);
                }
                cigar.push(Op::Ins);
                j += 1;
            }
            Op::Del => {
                if i >= n {
                    return Err(BtError::ReconstructionMismatch);
                }
                cigar.push(Op::Del);
                i += 1;
            }
            Op::Match => unreachable!("the walk never emits Match edits"),
        }
    }
    // Trailing matches to the ends.
    let run = seqs.lcp(i, j);
    cigar.push_run(Op::Match, run as u32);
    i += run;
    j += run;
    if i != n || j != m {
        return Err(BtError::ReconstructionMismatch);
    }
    Ok(cigar)
}

/// Full per-alignment CPU backtrace: walk + match insertion.
pub fn backtrace_alignment(
    schedule: &WavefrontSchedule,
    bt: &BtAlignment,
    seqs: SeqsRef<'_>,
    p: &Penalties,
    parallel_sections: usize,
) -> Result<Cigar, BtError> {
    let edits = walk_origins(schedule, bt, p, parallel_sections)?;
    insert_matches(seqs, &edits)
}

/// [`backtrace_alignment`] over a packed pair; the benchmark's layer replay
/// (`perfbench/src/replay.rs`) calls it by this name.
pub fn backtrace_alignment_packed(
    schedule: &WavefrontSchedule,
    bt: &BtAlignment,
    a: &PackedSeq,
    b: &PackedSeq,
    p: &Penalties,
    parallel_sections: usize,
) -> Result<Cigar, BtError> {
    backtrace_alignment(schedule, bt, SeqsRef::Packed(a, b), p, parallel_sections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfasic_accel::aligner::align_packed;
    use wfasic_accel::collector::{bt_txns_to_bytes, collect_bt};
    use wfasic_accel::AccelConfig;

    fn hw_backtrace(a: &[u8], b: &[u8]) -> (u32, Cigar) {
        let cfg = AccelConfig::wfasic_chip();
        let schedule = WavefrontSchedule::for_config(&cfg);
        let pa = PackedSeq::from_ascii(a).unwrap();
        let pb = PackedSeq::from_ascii(b).unwrap();
        let outcome = align_packed(&cfg, &schedule, 3, &pa, &pb, true);
        assert!(outcome.success);
        let bytes = bt_txns_to_bytes(&collect_bt(&outcome));
        let alignments = split_consecutive_stream(&bytes).unwrap();
        assert_eq!(alignments.len(), 1);
        let cigar = backtrace_alignment(
            &schedule,
            &alignments[0],
            SeqsRef::Bytes(a, b),
            &cfg.penalties,
            cfg.parallel_sections,
        )
        .unwrap();
        (outcome.score, cigar)
    }

    fn check(a: &[u8], b: &[u8]) {
        let (score, cigar) = hw_backtrace(a, b);
        cigar.check(a, b).unwrap();
        assert_eq!(
            cigar.score(&Penalties::WFASIC_DEFAULT),
            score as u64,
            "CIGAR must cost the hardware score: a={:?} b={:?} cigar={}",
            std::str::from_utf8(a).unwrap(),
            std::str::from_utf8(b).unwrap(),
            cigar
        );
        assert_eq!(
            score as u64,
            wfa_core::swg_score(a, b, &Penalties::WFASIC_DEFAULT)
        );
    }

    #[test]
    fn identical_sequences() {
        check(b"ACGTACGTACGT", b"ACGTACGTACGT");
    }

    #[test]
    fn single_edits() {
        check(b"GATTACA", b"GACTACA");
        check(b"GATTACA", b"GATTTACA");
        check(b"GATTTACA", b"GATTACA");
    }

    #[test]
    fn gap_chains_with_matching_interiors() {
        // The adversarial case for greedy match insertion: a gap chain whose
        // interior cells sit on matching bases (extend_before must gate the
        // greedy extension).
        check(b"AG", b"ATGG");
        check(b"ATGG", b"AG");
        check(b"AAAA", b"AAAAAAAA");
        check(b"ACAC", b"ACACAC");
    }

    #[test]
    fn mixed_edit_soup() {
        check(b"GATTACAGATTACAGATTACA", b"GATCACAGGATTACAGATACA");
        check(b"CCCCAAAATTTT", b"CCCCTTTT");
        check(b"ACGT", b"TGCA");
    }

    #[test]
    fn longer_random_style_pair() {
        let a: Vec<u8> = (0..300).map(|i| b"ACGT"[(i * 7 + 3) % 4]).collect();
        let mut b = a.clone();
        b[50] = b'A';
        b.insert(120, b'G');
        b.remove(200);
        b[250] = b'T';
        check(&a, &b);
    }

    #[test]
    fn packed_backtrace_equals_byte_backtrace() {
        let cfg = AccelConfig::wfasic_chip();
        let schedule = WavefrontSchedule::for_config(&cfg);
        for (a, b) in [
            (
                b"GATTACAGATTACAGATTACA".as_slice(),
                b"GATCACAGGATTACAGATACA".as_slice(),
            ),
            (b"AG".as_slice(), b"ATGG".as_slice()),
            (b"CCCCAAAATTTT".as_slice(), b"CCCCTTTT".as_slice()),
        ] {
            let pa = PackedSeq::from_ascii(a).unwrap();
            let pb = PackedSeq::from_ascii(b).unwrap();
            let outcome = align_packed(&cfg, &schedule, 3, &pa, &pb, true);
            assert!(outcome.success);
            let bytes = bt_txns_to_bytes(&collect_bt(&outcome));
            let alignments = split_consecutive_stream(&bytes).unwrap();
            let byte_cigar = backtrace_alignment(
                &schedule,
                &alignments[0],
                SeqsRef::Bytes(a, b),
                &cfg.penalties,
                cfg.parallel_sections,
            )
            .unwrap();
            let packed_cigar = backtrace_alignment(
                &schedule,
                &alignments[0],
                SeqsRef::Packed(&pa, &pb),
                &cfg.penalties,
                cfg.parallel_sections,
            )
            .unwrap();
            assert_eq!(byte_cigar, packed_cigar);
        }
    }

    #[test]
    fn separation_equals_no_separation_for_one_stream() {
        let cfg = AccelConfig::wfasic_chip();
        let schedule = WavefrontSchedule::for_config(&cfg);
        let a = PackedSeq::from_ascii(b"GATTACAGATTACA").unwrap();
        let b = PackedSeq::from_ascii(b"GATCACAGATAACA").unwrap();
        let outcome = align_packed(&cfg, &schedule, 77, &a, &b, true);
        let bytes = bt_txns_to_bytes(&collect_bt(&outcome));
        let sep = separate_stream(&bytes).unwrap();
        let nosep = split_consecutive_stream(&bytes).unwrap();
        assert_eq!(sep.len(), 1);
        assert_eq!(sep[0].id, nosep[0].id);
        assert_eq!(sep[0].payload, nosep[0].payload);
        assert_eq!(sep[0].record, nosep[0].record);
    }

    #[test]
    fn truncated_stream_detected() {
        let cfg = AccelConfig::wfasic_chip();
        let schedule = WavefrontSchedule::for_config(&cfg);
        let a = PackedSeq::from_ascii(b"GATTACA").unwrap();
        let b = PackedSeq::from_ascii(b"GACTACA").unwrap();
        let outcome = align_packed(&cfg, &schedule, 1, &a, &b, true);
        let bytes = bt_txns_to_bytes(&collect_bt(&outcome));
        // Drop the Last transaction.
        let err = split_consecutive_stream(&bytes[..bytes.len() - 16]).unwrap_err();
        assert_eq!(err, BtError::TruncatedStream);
    }

    #[test]
    fn interleaved_streams_separate_correctly() {
        // Fabricate a two-Aligner interleave by zipping two streams.
        let cfg = AccelConfig::wfasic_chip();
        let schedule = WavefrontSchedule::for_config(&cfg);
        let mk = |id: u32, a: &[u8], b: &[u8]| {
            let pa = PackedSeq::from_ascii(a).unwrap();
            let pb = PackedSeq::from_ascii(b).unwrap();
            collect_bt(&align_packed(&cfg, &schedule, id, &pa, &pb, true))
        };
        let t1 = mk(1, b"GATTACAGATTACA", b"GATCACAGATAACA");
        let t2 = mk(2, b"CCCCAAAATTTT", b"CCCCTTTT");
        let mut bytes = Vec::new();
        let (mut i1, mut i2) = (0, 0);
        while i1 < t1.len() || i2 < t2.len() {
            if i1 < t1.len() {
                bytes.extend_from_slice(&t1[i1].encode());
                i1 += 1;
            }
            if i2 < t2.len() {
                bytes.extend_from_slice(&t2[i2].encode());
                i2 += 1;
            }
        }
        let alignments = separate_stream(&bytes).unwrap();
        assert_eq!(alignments.len(), 2);
        let by_id: std::collections::HashMap<u32, &BtAlignment> =
            alignments.iter().map(|a| (a.id, a)).collect();
        let c1 = backtrace_alignment(
            &schedule,
            by_id[&1],
            SeqsRef::Bytes(b"GATTACAGATTACA", b"GATCACAGATAACA"),
            &cfg.penalties,
            64,
        )
        .unwrap();
        c1.check(b"GATTACAGATTACA", b"GATCACAGATAACA").unwrap();
        let c2 = backtrace_alignment(
            &schedule,
            by_id[&2],
            SeqsRef::Bytes(b"CCCCAAAATTTT", b"CCCCTTTT"),
            &cfg.penalties,
            64,
        )
        .unwrap();
        c2.check(b"CCCCAAAATTTT", b"CCCCTTTT").unwrap();
    }
}

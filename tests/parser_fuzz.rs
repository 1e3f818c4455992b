//! The one synopsis parser under hostile input.
//!
//! A payload reaches a collector's `decode_batch_into` or a leaf's
//! `CheckedPayload::parse` only after its frame's CRC passed, so what is
//! fed here is what a buggy or hostile peer can send: random bytes, and
//! valid payloads with a bit flipped, cut short, or followed by a row that
//! breaks one rule of the format — a definition index that skips ahead, a
//! tag with its reserved bit set, a definition of more than 65 536 points,
//! an id past 16 bits, a visit count past 32. For every input:
//!
//! * neither reader panics;
//! * a refused payload leaves the batch at the length it had on entry;
//! * both readers accept exactly the same inputs, with the same error or
//!   the same rows.
//!
//! The case count is the vendored proptest's fixed 256 per property,
//! seeded from the property's name, so a failure reproduces as it is.

use proptest::prelude::*;
use saad::core::batch::SynopsisBatch;
use saad::core::codec::{decode_batch_into, encode_batch, CheckedPayload, DecodeError};
use saad::core::intern::SignatureInterner;
use saad::core::synopsis::TaskSynopsis;
use saad::core::{HostId, StageId, TaskUid};
use saad::logging::LogPointId;
use saad::sim::{SimDuration, SimTime};

/// LEB128, one byte at a time.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Both readers on `payload`, the batch already holding rows: they agree,
/// and a refusal appends nothing. Returns the verdict.
fn both_readers(payload: &[u8], interner: &SignatureInterner) -> Result<usize, DecodeError> {
    let mut batch = SynopsisBatch::new();
    let seed = encode_batch(&[synopsis(1, 5, vec![(2, 3)], 0, 40)]);
    decode_batch_into(&seed, &mut batch, interner).expect("the seed row decodes");
    let entry = batch.len();

    let decoded = decode_batch_into(payload, &mut batch, interner);
    let mut marks = Vec::new();
    let checked =
        CheckedPayload::parse(payload, &mut marks).map(|v| v.starts().collect::<Vec<_>>());
    match (&decoded, &checked) {
        (Ok(n), Ok(starts)) => {
            assert_eq!(*n, starts.len(), "both readers count the same rows");
            assert_eq!(batch.len(), entry + n);
            assert_eq!(
                &batch.starts[entry..],
                &starts[..],
                "and read the same starts"
            );
        }
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "both readers refuse with the same error");
            assert_eq!(batch.len(), entry, "a refused payload appended rows");
        }
        (a, b) => panic!("the readers disagree: decode {a:?}, parse {b:?}"),
    }
    decoded
}

fn synopsis(host: u16, stage: u16, points: Vec<(u16, u32)>, uid: u64, start: u64) -> TaskSynopsis {
    TaskSynopsis {
        host: HostId(host),
        stage: StageId(stage),
        uid: TaskUid(uid),
        start: SimTime::from_micros(start),
        duration: SimDuration::from_micros(uid % 9_000),
        log_points: points
            .into_iter()
            .map(|(p, c)| (LogPointId(p), c))
            .collect(),
    }
}

/// One generated row: which of four flows it runs (a flow is a stage and
/// its points), and its uid and start.
type RawRow = (usize, u64, u64);

/// The payload of `rows` on `flows`, and the definitions it makes. With
/// up to seven rows on four flows, most payloads name a definition again.
fn payload(flows: &[Vec<(u16, u32)>], rows: &[RawRow]) -> (Vec<u8>, u64) {
    let synopses: Vec<TaskSynopsis> = rows
        .iter()
        .map(|&(flow, uid, start)| synopsis(7, flow as u16, flows[flow].clone(), uid, start))
        .collect();
    let mut defined: Vec<usize> = rows.iter().map(|&(flow, ..)| flow).collect();
    defined.sort_unstable();
    defined.dedup();
    (encode_batch(&synopses).to_vec(), defined.len() as u64)
}

fn flows() -> impl Strategy<Value = Vec<Vec<(u16, u32)>>> {
    collection::vec(
        collection::vec((0u16..u16::MAX, 0u32..u32::MAX), 0..5),
        4..5,
    )
}

fn rows() -> impl Strategy<Value = Vec<RawRow>> {
    collection::vec((0usize..4, 0u64..u64::MAX, 0u64..u64::MAX), 1..8)
}

/// A row that breaks one rule after a payload of `defs` definitions.
fn bad_row(kind: u8, defs: u64, wide: u64) -> Vec<u8> {
    let mut row = Vec::new();
    let define = |row: &mut Vec<u8>, host: u64, stage: u64, points: &[(u64, u64)]| {
        put_varint(row, defs << 1);
        put_varint(row, host);
        put_varint(row, stage);
        put_varint(row, points.len() as u64);
        for &(delta, count) in points {
            put_varint(row, delta);
            put_varint(row, count);
        }
    };
    match kind {
        // A definition index past the next one.
        0 => put_varint(&mut row, (defs + 1 + wide % 5) << 1),
        // The reserved low bit, on a new definition or on a name.
        1 => put_varint(&mut row, (defs - wide % (defs + 1)) << 1 | 1),
        // More points than a synopsis may have.
        2 => {
            put_varint(&mut row, defs << 1);
            for field in [7, 1, 65_537 + wide % 1_000] {
                put_varint(&mut row, field);
            }
        }
        // A host, a stage or a point id past 16 bits.
        3 => define(&mut row, 65_536 + wide % 1_000, 1, &[]),
        4 => define(&mut row, 7, 65_536 + wide % 1_000, &[(1, 1)]),
        5 => define(&mut row, 7, 1, &[(3, 1), (65_536 + wide % 1_000, 1)]),
        // A visit count past 32 bits.
        _ => define(&mut row, 7, 1, &[(3, (1 << 32) + wide % 1_000)]),
    }
    // Fields that would complete the row.
    for field in [2, 2, 9] {
        put_varint(&mut row, field);
    }
    row
}

proptest! {
    /// Bytes with no structure: whatever they are, the readers agree.
    #[test]
    fn random_bytes_are_read_alike_by_both_readers(
        bytes in collection::vec(0u16..256, 0..96),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        both_readers(&bytes, &SignatureInterner::new()).ok();
    }

    /// A valid payload reads whole; cut at every offset, or with any one
    /// bit flipped, the readers still agree. (A cut on a row boundary is a
    /// shorter valid payload; a flip may still read, as other rows.)
    #[test]
    fn a_valid_payload_cut_or_flipped_anywhere_is_read_alike(
        flows in flows(),
        rows in rows(),
    ) {
        let interner = SignatureInterner::new();
        let (wire, _) = payload(&flows, &rows);
        prop_assert_eq!(both_readers(&wire, &interner), Ok(rows.len()));
        for cut in 0..wire.len() {
            let _ = both_readers(&wire[..cut], &interner);
        }
        for bit in 0..wire.len() * 8 {
            let mut flipped = wire.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = both_readers(&flipped, &interner);
        }
    }

    /// A row that breaks a rule of the format, after any valid payload
    /// or as the first row, is refused by both readers.
    #[test]
    fn a_row_breaking_a_rule_is_refused_by_both_readers(
        flows in flows(),
        rows in rows(),
        empty in 0u8..4,
        kind in 0u8..7,
        wide in 0u64..u64::MAX,
    ) {
        let (mut wire, defs) = if empty == 0 {
            (Vec::new(), 0)
        } else {
            payload(&flows, &rows)
        };
        wire.extend(bad_row(kind, defs, wide));
        let verdict = both_readers(&wire, &SignatureInterner::new());
        prop_assert!(verdict.is_err(), "kind {} after {} definitions", kind, defs);
    }
}

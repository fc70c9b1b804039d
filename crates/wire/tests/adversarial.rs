//! Byte-level adversarial harness: for a corpus of full, delta, and
//! columnar snapshots (the test names keep the `v1`/`v2`/`v3` labels of
//! the formats that first introduced each shape; all three are now the
//! one format), **every** truncation boundary and every header bit flip
//! — plus every payload bit flip, which on this corpus size is denser
//! than sampling — must come back as a typed [`WireError`]: never a
//! panic, never a silently-wrong object.
//!
//! Why this is the contract and not "best effort": the checksum covers
//! every header field after the magic as well as the payload, so any
//! corruption past the magic is caught — by the structural header checks
//! (magic, version, count plausibility) when it lands there first, by
//! the checksum otherwise. That includes the inspector, which decodes no
//! node table. Each case runs under `catch_unwind` so a panic fails the
//! suite with the exact offending byte, and every error's `Display` must
//! render non-empty (the typed-rendering contract `tests/errors.rs` pins
//! string-by-string).

use co_object::{obj, Object};
use co_wire::{
    describe_snapshot, read_chain, read_snapshot, write_delta_snapshot, write_snapshot,
    write_snapshot_columnar, BaseId, Snapshot, SnapshotHandle, WireError, FORMAT_VERSION,
    HEADER_LEN, MAGIC,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A full snapshot exercising every value tag: ⊥/⊤ roots, bools, ints
/// (negative too), floats, strings, shared subtrees, repeated roots.
fn full_corpus_bytes() -> Vec<u8> {
    let shared = obj!({[k: 1, v: {alpha, beta}], [k: 2, v: {alpha, beta}]});
    let roots = vec![
        shared.clone(),
        co_object::Object::Bottom,
        co_object::Object::Top,
        obj!(-42),
        co_object::Object::float(2.5),
        co_object::Object::bool(true),
        co_object::Object::str("héllo"),
        shared,
    ];
    let mut bytes = Vec::new();
    write_snapshot(&mut bytes, &roots, b"adversarial-meta").unwrap();
    bytes
}

/// A base + delta pair: the delta adds one fact to the base's relation.
fn chain_corpus_bytes() -> (Vec<u8>, Vec<u8>) {
    let v1 = obj!([r: {[a: 1, b: {x, y}], [a: 2, b: {x, y}]}]);
    let mut base = Vec::new();
    let (_, handle) = write_delta_snapshot(
        &mut base,
        std::slice::from_ref(&v1),
        b"base-meta",
        &SnapshotHandle::empty(),
    )
    .unwrap();
    let v2 = obj!([r: {[a: 1, b: {x, y}], [a: 2, b: {x, y}], [a: 3, b: {x, y}]}]);
    let mut delta = Vec::new();
    write_delta_snapshot(
        &mut delta,
        std::slice::from_ref(&v2),
        b"delta-meta",
        &handle,
    )
    .unwrap();
    (base, delta)
}

/// Runs one read attempt, asserting it cannot panic, and returns the
/// typed outcome. The `label` names the exact corruption for failures.
fn sound_read<T>(label: &str, read: impl FnOnce() -> Result<T, WireError>) -> Result<T, WireError> {
    match catch_unwind(AssertUnwindSafe(read)) {
        Ok(outcome) => outcome,
        Err(_) => panic!("reader panicked on {label}"),
    }
}

/// Asserts the read fails with a typed error whose Display renders.
fn assert_typed_failure<T>(label: &str, read: impl FnOnce() -> Result<T, WireError>) {
    match sound_read(label, read) {
        Ok(_) => panic!("expected a typed error on {label}, got Ok"),
        Err(e) => {
            let text = e.to_string();
            assert!(!text.is_empty(), "empty error rendering on {label}");
        }
    }
}

/// Every strict prefix of a readable snapshot must fail typed: the
/// header declares the payload length, so no truncation can look
/// complete.
fn assert_all_truncations_fail(
    name: &str,
    bytes: &[u8],
    read: &dyn Fn(&[u8]) -> Result<Snapshot, WireError>,
) {
    for len in 0..bytes.len() {
        assert_typed_failure(
            &format!("{name}: truncation to {len}/{} bytes", bytes.len()),
            || read(&bytes[..len]),
        );
    }
}

/// Every single-bit flip in `range` must fail typed.
fn assert_bit_flips_fail(
    name: &str,
    bytes: &[u8],
    range: std::ops::Range<usize>,
    read: &dyn Fn(&[u8]) -> Result<Snapshot, WireError>,
) {
    for ix in range {
        for bit in 0..8 {
            let mut corrupt = bytes.to_vec();
            corrupt[ix] ^= 1 << bit;
            assert_typed_failure(&format!("{name}: bit {bit} of byte {ix} flipped"), || {
                read(&corrupt)
            });
        }
    }
}

#[test]
fn v1_reader_survives_every_truncation_and_bit_flip() {
    let bytes = full_corpus_bytes();
    // Sanity: the pristine blob reads back.
    let original = read_snapshot(bytes.as_slice()).unwrap();
    assert_eq!(original.roots.len(), 8);

    let read: &dyn Fn(&[u8]) -> Result<Snapshot, WireError> = &|b| read_snapshot(b);
    assert_all_truncations_fail("full", &bytes, read);
    assert_bit_flips_fail("full header", &bytes, 0..HEADER_LEN, read);
    assert_bit_flips_fail("full payload", &bytes, HEADER_LEN..bytes.len(), read);
}

#[test]
fn v2_reader_survives_every_truncation_and_bit_flip_of_the_delta() {
    let (base, delta) = chain_corpus_bytes();
    // Sanity: the pristine chain restores.
    let (snap, _) = read_chain([base.as_slice(), delta.as_slice()]).unwrap();
    assert_eq!(snap.meta, b"delta-meta");

    let read_with_base: &dyn Fn(&[u8]) -> Result<Snapshot, WireError> =
        &|d| read_chain([base.as_slice(), d]).map(|(snap, _)| snap);
    assert_all_truncations_fail("delta", &delta, read_with_base);
    assert_bit_flips_fail("delta header", &delta, 0..HEADER_LEN, read_with_base);
    assert_bit_flips_fail(
        "delta payload",
        &delta,
        HEADER_LEN..delta.len(),
        read_with_base,
    );
}

#[test]
fn v2_chain_survives_every_corruption_of_the_base_layer() {
    let (base, delta) = chain_corpus_bytes();
    // Corrupting the *base* under an intact delta must also fail typed:
    // either the base itself fails to decode, or its checksum changes
    // and the delta's base link no longer matches.
    let read_as_base: &dyn Fn(&[u8]) -> Result<Snapshot, WireError> =
        &|b| read_chain([b, delta.as_slice()]).map(|(snap, _)| snap);
    assert_all_truncations_fail("base", &base, read_as_base);
    assert_bit_flips_fail("base header", &base, 0..HEADER_LEN, read_as_base);
    assert_bit_flips_fail("base payload", &base, HEADER_LEN..base.len(), read_as_base);
}

#[test]
fn the_v1_entry_point_always_rejects_deltas_however_corrupt() {
    // `read_snapshot` can never restore a delta (it has no base), so
    // every variant of the delta blob — intact included — must fail
    // typed through the single-layer entry point.
    let (_, delta) = chain_corpus_bytes();
    assert_typed_failure("delta via read_snapshot: intact", || {
        read_snapshot(delta.as_slice())
    });
    let read: &dyn Fn(&[u8]) -> Result<Snapshot, WireError> = &|b| read_snapshot(b);
    assert_all_truncations_fail("delta via read_snapshot", &delta, read);
    assert_bit_flips_fail(
        "delta via read_snapshot header",
        &delta,
        0..HEADER_LEN,
        read,
    );
    assert_bit_flips_fail(
        "delta via read_snapshot payload",
        &delta,
        HEADER_LEN..delta.len(),
        read,
    );
}

#[test]
fn the_inspector_never_panics_and_catches_what_the_checksum_covers() {
    // `describe` reports the header's claims without decoding the node
    // table, but the checksum covers every header field after the magic:
    // every truncation and every bit flip, header or payload, must fail
    // typed.
    let bytes = full_corpus_bytes();
    let pristine = describe_snapshot(bytes.as_slice()).unwrap();
    assert_eq!(pristine.nodes, 4);
    assert_inspector_rejects_every_corruption("describe", &bytes);
}

/// Every truncation and every single-bit flip of `bytes` must fail
/// [`describe_snapshot`] typed.
fn assert_inspector_rejects_every_corruption(name: &str, bytes: &[u8]) {
    for len in 0..bytes.len() {
        assert_typed_failure(&format!("{name}: truncation to {len}"), || {
            describe_snapshot(&bytes[..len])
        });
    }
    for ix in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.to_vec();
            corrupt[ix] ^= 1 << bit;
            assert_typed_failure(&format!("{name}: bit {bit} of byte {ix}"), || {
                describe_snapshot(corrupt.as_slice())
            });
        }
    }
}

/// A columnar snapshot: a flat relation large enough for the
/// default `columnar_min_rows` threshold, mixing every atom kind the
/// columns can carry, plus one ordinary root alongside.
fn columnar_corpus_bytes() -> Vec<u8> {
    let rel = Object::set((0..100i64).map(|i| {
        Object::tuple([
            ("flag", Object::bool(i % 2 == 0)),
            ("id", Object::int(i)),
            ("name", Object::str(format!("row{}", i % 5))),
            ("score", Object::float(i as f64 * 0.5)),
        ])
    }));
    let roots = vec![rel, obj!({extra, 7})];
    let mut bytes = Vec::new();
    let (stats, _) = write_snapshot_columnar(&mut bytes, &roots, b"columnar-meta").unwrap();
    assert!(!stats.is_delta());
    assert_eq!(stats.columnar_sets, 1);
    bytes
}

#[test]
fn v3_reader_survives_every_truncation_and_bit_flip() {
    let bytes = columnar_corpus_bytes();
    // Sanity: the pristine blob reads back.
    let original = read_snapshot(bytes.as_slice()).unwrap();
    assert_eq!(original.roots.len(), 2);
    assert_eq!(original.meta, b"columnar-meta");

    let read: &dyn Fn(&[u8]) -> Result<Snapshot, WireError> = &|b| read_snapshot(b);
    assert_all_truncations_fail("columnar", &bytes, read);
    assert_bit_flips_fail("columnar header", &bytes, 0..HEADER_LEN, read);
    assert_bit_flips_fail("columnar payload", &bytes, HEADER_LEN..bytes.len(), read);
}

#[test]
fn the_inspector_is_as_strict_on_v3_headers_as_on_v1() {
    let bytes = columnar_corpus_bytes();
    let pristine = describe_snapshot(bytes.as_slice()).unwrap();
    assert!(!pristine.is_delta());
    assert_eq!(
        pristine.nodes, 2,
        "the relation and the extra set; rows are pruned"
    );
    assert_inspector_rejects_every_corruption("describe columnar", &bytes);
}

/// Hand-crafts a layer on `base` from parts — header fields and a raw
/// payload — with a **correct** checksum, so the corruption under test
/// is the only thing wrong with the bytes.
fn craft(base: BaseId, node_count: u64, root_count: u64, payload: &[u8]) -> Vec<u8> {
    let mut fields = Vec::new();
    fields.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    fields.extend_from_slice(&node_count.to_le_bytes());
    fields.extend_from_slice(&root_count.to_le_bytes());
    fields.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    fields.extend_from_slice(&base.checksum.to_le_bytes());
    fields.extend_from_slice(&base.nodes.to_le_bytes());
    let sum = co_wire::codec::checksum(&[fields.as_slice(), payload].concat());
    let bytes = [&MAGIC[..], &fields, &sum.to_le_bytes(), payload].concat();
    assert_eq!(bytes.len(), HEADER_LEN + payload.len());
    bytes
}

/// [`craft`] on the empty base: a full snapshot.
fn craft_full(node_count: u64, root_count: u64, payload: &[u8]) -> Vec<u8> {
    craft(BaseId::EMPTY, node_count, root_count, payload)
}

/// The payload of a minimal columnar snapshot — symbols `a`, `b`; one columnar
/// record (`schema` and `rows` overridable); one root referencing it —
/// so each semantic corruption below changes exactly one knob.
fn craft_columnar_payload(schema: &[u64], cells: &[&[u8]]) -> Vec<u8> {
    use co_wire::codec::{put_str, put_varint};
    let mut p = Vec::new();
    put_varint(&mut p, 2); // symbol table: "a", "b"
    put_str(&mut p, "a");
    put_str(&mut p, "b");
    p.push(0x12); // NODE_FLAT_SET
    put_varint(&mut p, schema.len() as u64);
    for &ix in schema {
        put_varint(&mut p, ix);
    }
    let rows = cells.first().map_or(0, |c| c.len());
    put_varint(&mut p, rows as u64);
    for column in cells {
        for &v in *column {
            p.push(0x04); // VAL_INT
            put_varint(&mut p, u64::from(v) << 1); // zigzag, non-negative
        }
    }
    p.push(0x07); // root table: VAL_NODE
    put_varint(&mut p, 0);
    put_varint(&mut p, 0); // empty metadata
    p
}

#[test]
fn hand_crafted_columnar_corruptions_fail_typed() {
    // Sanity: the pristine crafted snapshot decodes to the real relation.
    let good = craft_full(
        1,
        1,
        &craft_columnar_payload(&[0, 1], &[&[1, 2], &[10, 20]]),
    );
    let snap = read_snapshot(good.as_slice()).unwrap();
    assert_eq!(snap.roots, vec![obj!({[a: 1, b: 10], [a: 2, b: 20]})]);

    // Zero columns.
    assert_typed_failure("columnar record with zero arity", || {
        read_snapshot(craft_full(1, 1, &craft_columnar_payload(&[], &[])).as_slice())
    });
    // Zero rows.
    assert_typed_failure("columnar record with zero rows", || {
        read_snapshot(craft_full(1, 1, &craft_columnar_payload(&[0, 1], &[&[], &[]])).as_slice())
    });
    // A schema symbol index beyond the symbol table.
    assert_typed_failure("columnar schema symbol out of range", || {
        read_snapshot(craft_full(1, 1, &craft_columnar_payload(&[0, 9], &[&[1], &[2]])).as_slice())
    });
    // The same attribute twice: no canonical tuple has that.
    assert_typed_failure("columnar schema with a duplicate attribute", || {
        read_snapshot(craft_full(1, 1, &craft_columnar_payload(&[0, 0], &[&[1], &[2]])).as_slice())
    });
    // A row count the remaining payload cannot possibly satisfy.
    {
        use co_wire::codec::{put_str, put_varint};
        let mut p = Vec::new();
        put_varint(&mut p, 1);
        put_str(&mut p, "a");
        p.push(0x12);
        put_varint(&mut p, 1); // arity 1
        put_varint(&mut p, 0); // attr "a"
        put_varint(&mut p, 1_000_000); // a million rows in a dozen bytes
        assert_typed_failure("columnar record with an implausible row count", || {
            read_snapshot(craft_full(1, 0, &p).as_slice())
        });
    }
    // A cell that is a node reference (rows must be atoms) and a cell
    // that is ⊥ (canonical nodes contain neither extreme).
    for (label, tag) in [("node-reference cell", 0x07u8), ("bottom cell", 0x00u8)] {
        use co_wire::codec::{put_str, put_varint};
        let mut p = Vec::new();
        put_varint(&mut p, 1);
        put_str(&mut p, "a");
        p.push(0x12);
        put_varint(&mut p, 1);
        put_varint(&mut p, 0);
        put_varint(&mut p, 1); // one row
        p.push(tag);
        put_varint(&mut p, 0); // the reference/ignored operand
        assert_typed_failure(label, || read_snapshot(craft_full(1, 0, &p).as_slice()));
    }
}

#[test]
fn random_tail_garbage_after_a_valid_header_is_typed() {
    // A valid header whose payload is replaced by pseudo-random bytes of
    // the declared length: the checksum rejects essentially all of them,
    // and none may panic. (Deterministic xorshift so failures reproduce.)
    let bytes = full_corpus_bytes();
    let payload_len = bytes.len() - HEADER_LEN;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for case in 0..64 {
        let mut corrupt = bytes[..HEADER_LEN].to_vec();
        for _ in 0..payload_len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            corrupt.push(state as u8);
        }
        assert_typed_failure(&format!("random payload #{case}"), || {
            read_snapshot(corrupt.as_slice())
        });
    }
}

#[test]
fn a_hand_crafted_delta_layer_with_a_flat_set_record_restores_bit_identically() {
    // The node table admits flat-set records in every layer, deltas
    // included. The base holds `{7}` (local id 0) and `[old: {7}]` (id 1).
    let base_db = obj!([old: { 7 }]);
    let mut base = Vec::new();
    let (_, handle) = write_delta_snapshot(
        &mut base,
        std::slice::from_ref(&base_db),
        b"",
        &SnapshotHandle::empty(),
    )
    .unwrap();
    assert_eq!(handle.nodes(), 2);

    // The delta: a flat-set record (id 2) and a tuple (id 3) naming it
    // and the base's `{7}` by id; the root references the tuple.
    use co_wire::codec::{put_str, put_varint};
    let mut p = Vec::new();
    put_varint(&mut p, 4);
    for s in ["a", "b", "new", "old"] {
        put_str(&mut p, s);
    }
    p.push(0x12); // NODE_FLAT_SET
    put_varint(&mut p, 2); // arity
    put_varint(&mut p, 0); // "a"
    put_varint(&mut p, 1); // "b"
    put_varint(&mut p, 2); // rows
    for v in [1u64, 2, 10, 20] {
        p.push(0x04); // VAL_INT
        put_varint(&mut p, v << 1);
    }
    p.push(0x10); // NODE_TUPLE
    put_varint(&mut p, 2);
    put_varint(&mut p, 2); // "new" → the flat set
    p.push(0x07);
    put_varint(&mut p, 2);
    put_varint(&mut p, 3); // "old" → the base's {7}
    p.push(0x07);
    put_varint(&mut p, 0);
    p.push(0x07); // root table: the tuple
    put_varint(&mut p, 3);
    put_varint(&mut p, 0); // empty metadata
    let delta = craft(handle.base_id(), 2, 1, &p);

    let expected = obj!([new: {[a: 1, b: 10], [a: 2, b: 20]}, old: { 7 }]);
    let (snap, restored) = read_chain([base.as_slice(), delta.as_slice()]).unwrap();
    assert_eq!(snap.roots, vec![expected.clone()]);
    assert_eq!(snap.roots[0].node_id(), expected.node_id());
    assert_eq!(restored.nodes(), 4);
    // Read alone, the same layer demands its base.
    assert!(matches!(
        read_snapshot(delta.as_slice()),
        Err(WireError::BaseRequired { checksum, nodes: 2 }) if checksum == handle.checksum()
    ));
}

#[test]
fn base_links_reroute_to_typed_errors() {
    // A full layer in the middle of a chain declares the empty base,
    // which is not the chain read so far.
    let bytes = full_corpus_bytes();
    let (base, delta) = chain_corpus_bytes();
    for chain in [
        [base.as_slice(), bytes.as_slice()],
        [bytes.as_slice(), bytes.as_slice()],
    ] {
        let err = read_chain(chain).unwrap_err();
        assert!(
            matches!(
                err,
                WireError::BaseMismatch {
                    expected_checksum: 0,
                    expected_nodes: 0,
                    ..
                }
            ),
            "got: {err}"
        );
    }
    // A delta after the wrong layer is a mismatch too.
    assert!(matches!(
        read_chain([bytes.as_slice(), delta.as_slice()]),
        Err(WireError::BaseMismatch { .. })
    ));

    // A layer with a non-zero link read alone — through either entry
    // point — needs its base, whatever that link names.
    let link = BaseId {
        checksum: 0x0123_4567_89ab_cdef,
        nodes: 5,
    };
    let empty_payload = [0u8, 0]; // no symbols, no metadata
    let orphan = craft(link, 0, 0, &empty_payload);
    for err in [
        read_snapshot(orphan.as_slice()).unwrap_err(),
        read_chain([orphan.as_slice()]).unwrap_err(),
        read_chain([delta.as_slice(), base.as_slice()]).unwrap_err(),
    ] {
        assert!(matches!(err, WireError::BaseRequired { .. }), "got: {err}");
    }
    assert!(matches!(
        read_snapshot(orphan.as_slice()),
        Err(WireError::BaseRequired {
            checksum: 0x0123_4567_89ab_cdef,
            nodes: 5
        })
    ));
    // The same link on the empty base reads as a full snapshot.
    assert!(read_snapshot(craft_full(0, 0, &empty_payload).as_slice()).is_ok());
}

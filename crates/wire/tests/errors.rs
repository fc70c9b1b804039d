//! Every way a snapshot can be unreadable returns a typed [`WireError`]
//! with a pinned `Display` rendering — never a panic. Each test builds a
//! valid snapshot, damages it in one precise way, and snapshots the
//! exact error text.

use co_object::obj;
use co_wire::{read_snapshot, write_snapshot, WireError, FORMAT_VERSION, HEADER_LEN, MAGIC};

/// A healthy snapshot of a small nested object, as bytes.
fn healthy() -> Vec<u8> {
    let o = obj!([r: {[a: 1, b: {x, y}], [a: 2, b: {x, y}]}]);
    let mut bytes = Vec::new();
    write_snapshot(&mut bytes, &[o], b"meta").unwrap();
    bytes
}

#[test]
fn empty_input_is_a_truncated_header() {
    let err = read_snapshot([].as_slice()).unwrap_err();
    assert_eq!(
        err.to_string(),
        "truncated snapshot: unexpected end of input while reading header"
    );
}

#[test]
fn short_header_is_truncated() {
    let bytes = healthy();
    let err = read_snapshot(&bytes[..HEADER_LEN - 1]).unwrap_err();
    assert_eq!(
        err.to_string(),
        "truncated snapshot: unexpected end of input while reading header"
    );
}

#[test]
fn corrupt_magic_is_a_bad_magic_error() {
    let mut bytes = healthy();
    bytes[0] = b'X';
    let err = read_snapshot(bytes.as_slice()).unwrap_err();
    assert!(matches!(err, WireError::BadMagic { .. }));
    assert_eq!(
        err.to_string(),
        "corrupt snapshot header: bad magic [58 4f 57 49 52 45 0d 0a]"
    );
}

#[test]
fn a_text_file_is_not_a_snapshot() {
    let err = read_snapshot(
        b"[r: {1, 2, 3}] % definitely not a binary snapshot, but long enough for a header\n"
            .as_slice(),
    )
    .unwrap_err();
    assert_eq!(
        err.to_string(),
        "corrupt snapshot header: bad magic [5b 72 3a 20 7b 31 2c 20]"
    );
}

#[test]
fn unknown_version_is_rejected_before_the_payload() {
    let mut bytes = healthy();
    // Version field: little-endian u32 right after the 8-byte magic.
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    let err = read_snapshot(bytes.as_slice()).unwrap_err();
    assert!(matches!(err, WireError::UnsupportedVersion { found: 99 }));
    assert_eq!(
        err.to_string(),
        "unsupported snapshot format version 99 (this reader supports versions 1-2)"
    );
}

#[test]
fn nonzero_reserved_bytes_are_rejected() {
    // The header is not covered by the payload checksum; the reserved
    // field being pinned to zero is part of what makes every header bit
    // detectable (see tests/adversarial.rs).
    let mut bytes = healthy();
    bytes[13] = 0x01; // reserved u32 lives at offset 12..16
    let err = read_snapshot(bytes.as_slice()).unwrap_err();
    assert_eq!(
        err.to_string(),
        "malformed snapshot: reserved header bytes are not zero (0x00000100)"
    );
}

#[test]
fn implausible_header_counts_are_rejected_before_decoding() {
    // Each node record is at least one payload byte, so a node count
    // larger than the payload cannot be honest — same for roots.
    let mut bytes = healthy();
    bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
    let err = read_snapshot(bytes.as_slice()).unwrap_err();
    let text = err.to_string();
    assert!(
        text.starts_with("malformed snapshot: declared node count 18446744073709551615 exceeds"),
        "got: {text}"
    );
    let mut bytes = healthy();
    bytes[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
    let err = read_snapshot(bytes.as_slice()).unwrap_err();
    assert!(
        err.to_string()
            .starts_with("malformed snapshot: declared root count 18446744073709551615 exceeds"),
        "got: {err}"
    );
}

#[test]
fn base_required_is_typed_with_the_base_identity() {
    let mut base = Vec::new();
    let (_, handle) = co_wire::write_snapshot_handle(&mut base, &[obj!({1, 2})], b"").unwrap();
    let mut delta = Vec::new();
    co_wire::write_delta_snapshot(&mut delta, &[obj!({1, 2, 3})], b"", &handle).unwrap();
    let err = read_snapshot(delta.as_slice()).unwrap_err();
    assert!(matches!(err, WireError::BaseRequired { .. }));
    assert_eq!(
        err.to_string(),
        format!(
            "delta snapshot requires its base (checksum {:#018x}, {} nodes): \
             restore the chain base-first",
            handle.checksum(),
            handle.nodes()
        )
    );
}

#[test]
fn base_mismatch_is_typed_with_both_identities() {
    let mut base_a = Vec::new();
    let (_, handle_a) = co_wire::write_snapshot_handle(&mut base_a, &[obj!({ 1 })], b"").unwrap();
    let mut base_b = Vec::new();
    let (_, handle_b) = co_wire::write_snapshot_handle(&mut base_b, &[obj!({2, 3})], b"").unwrap();
    let mut delta = Vec::new();
    co_wire::write_delta_snapshot(&mut delta, &[obj!({1, 9})], b"", &handle_a).unwrap();
    let err = co_wire::read_chain([base_b.as_slice(), delta.as_slice()]).unwrap_err();
    assert!(matches!(err, WireError::BaseMismatch { .. }));
    assert_eq!(
        err.to_string(),
        format!(
            "delta snapshot base mismatch: written against base {:#018x} with {} nodes, \
             but the supplied base is {:#018x} with {} nodes",
            handle_a.checksum(),
            handle_a.nodes(),
            handle_b.checksum(),
            handle_b.nodes()
        )
    );
}

#[test]
fn chain_too_deep_display_is_pinned() {
    let err = WireError::ChainTooDeep { depth: 17 };
    assert_eq!(
        err.to_string(),
        "snapshot chain of 17 layers exceeds the maximum depth 16 — compact it \
         into a full snapshot first"
    );
}

#[test]
fn a_full_snapshot_mid_chain_is_malformed() {
    let mut base = Vec::new();
    co_wire::write_snapshot_handle(&mut base, &[obj!({ 1 })], b"").unwrap();
    let err = co_wire::read_chain([base.as_slice(), base.as_slice()]).unwrap_err();
    assert_eq!(
        err.to_string(),
        "malformed snapshot: full snapshot in the middle of a chain — \
         only the first layer may be full"
    );
}

#[test]
fn truncated_node_table_is_detected() {
    let bytes = healthy();
    // Cut the file mid-payload: the declared payload length no longer
    // arrives in full.
    let err = read_snapshot(&bytes[..bytes.len() - 7]).unwrap_err();
    assert_eq!(
        err.to_string(),
        "truncated snapshot: unexpected end of input while reading payload"
    );
}

#[test]
fn bit_rot_in_the_payload_fails_the_checksum() {
    let mut bytes = healthy();
    // Flip one bit somewhere in the middle of the payload.
    let ix = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
    bytes[ix] ^= 0x01;
    let err = read_snapshot(bytes.as_slice()).unwrap_err();
    let WireError::ChecksumMismatch { expected, actual } = &err else {
        panic!("expected a checksum mismatch, got: {err}");
    };
    assert_ne!(expected, actual);
    assert_eq!(
        err.to_string(),
        format!(
            "snapshot checksum mismatch: header declares {expected:#018x}, \
             payload hashes to {actual:#018x}"
        )
    );
}

/// Builds a snapshot by hand with a patched payload, fixing up length and
/// checksum so only the intended defect is visible to the reader.
fn with_payload(node_count: u64, root_count: u64, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&node_count.to_le_bytes());
    bytes.extend_from_slice(&root_count.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&co_wire::codec::checksum(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

#[test]
fn dangling_forward_reference_is_typed() {
    // One set node whose element references local id 5 — but it is node 0,
    // so nothing is defined yet.
    let payload: &[u8] = &[
        0x00, // 0 symbols
        0x11, // set node
        0x01, // 1 element
        0x07, 0x05, // node ref → local id 5
    ];
    let err = read_snapshot(with_payload(1, 0, payload).as_slice()).unwrap_err();
    assert!(matches!(err, WireError::DanglingRef { id: 5, defined: 0 }));
    assert_eq!(
        err.to_string(),
        "dangling node reference: local id 5 referenced before definition (only 0 nodes decoded)"
    );
}

#[test]
fn self_reference_is_dangling_too() {
    // A set node referencing itself (local id 0 while decoding node 0):
    // the node table must be strictly bottom-up.
    let payload: &[u8] = &[
        0x00, // 0 symbols
        0x11, 0x01, 0x07, 0x00, // set { node #0 }
    ];
    let err = read_snapshot(with_payload(1, 0, payload).as_slice()).unwrap_err();
    assert!(matches!(err, WireError::DanglingRef { id: 0, defined: 0 }));
}

#[test]
fn unknown_node_tag_is_typed() {
    let payload: &[u8] = &[0x00, 0x42];
    let err = read_snapshot(with_payload(1, 0, payload).as_slice()).unwrap_err();
    assert_eq!(
        err.to_string(),
        "malformed snapshot: invalid node table tag 0x42"
    );
}

#[test]
fn unknown_value_tag_is_typed() {
    let payload: &[u8] = &[
        0x00, // 0 symbols
        0x11, 0x01, 0x3f, // set with one element of tag 0x3f
    ];
    let err = read_snapshot(with_payload(1, 0, payload).as_slice()).unwrap_err();
    assert_eq!(
        err.to_string(),
        "malformed snapshot: invalid node table tag 0x3f"
    );
}

#[test]
fn extremes_inside_a_node_are_rejected() {
    // Canonical composites never contain ⊥/⊤; a snapshot claiming so is
    // malformed, not silently normalized.
    let payload: &[u8] = &[0x00, 0x11, 0x01, 0x01]; // set { ⊤ }
    let err = read_snapshot(with_payload(1, 0, payload).as_slice()).unwrap_err();
    assert_eq!(
        err.to_string(),
        "malformed snapshot: ⊤ inside a composite node (canonical nodes contain neither)"
    );
}

#[test]
fn out_of_range_symbol_is_malformed() {
    let payload: &[u8] = &[
        0x00, // 0 symbols
        0x10, 0x01, 0x03, 0x04, 0x02, // tuple { attr #3: int 1 }
    ];
    let err = read_snapshot(with_payload(1, 0, payload).as_slice()).unwrap_err();
    assert_eq!(
        err.to_string(),
        "malformed snapshot: attribute symbol index 3 out of range (0 symbols)"
    );
}

#[test]
fn trailing_bytes_are_malformed() {
    let mut payload = vec![
        0x00, // 0 symbols
        0x00, // 0-length metadata
    ];
    payload.push(0xAB); // junk after the declared end
    let err = read_snapshot(with_payload(0, 0, &payload).as_slice()).unwrap_err();
    assert_eq!(
        err.to_string(),
        "malformed snapshot: 1 trailing bytes after the snapshot payload"
    );
}

#[test]
fn dir_sync_failure_display_is_pinned_and_keeps_its_source() {
    use std::error::Error;
    let err = WireError::DirSync {
        dir: "/snapshots".into(),
        source: std::io::Error::other("EIO"),
    };
    assert_eq!(
        err.to_string(),
        "snapshot renamed into place, but syncing directory /snapshots failed: EIO \
         (the new name may not survive a power loss)"
    );
    assert_eq!(err.source().unwrap().to_string(), "EIO");
}

#[test]
fn missing_file_is_an_io_error() {
    let err = co_wire::load_from_path("/nonexistent/dir/snapshot.cow").unwrap_err();
    assert!(matches!(err, WireError::Io(_)));
    assert!(err.to_string().starts_with("snapshot io error: "));
}

#[test]
fn cross_restore_dedupes_against_live_nodes() {
    // Intern overlapping content *before* loading: restoration must find
    // the existing nodes, not duplicate them.
    let shared = obj!({[k: 1, v: {alpha, beta}], [k: 2, v: {alpha, beta}]});
    let snapshot_obj = obj!([left: {[k: 1, v: {alpha, beta}], [k: 2, v: {alpha, beta}]},
                             right: {fresh_only_in_snapshot}]);
    let mut bytes = Vec::new();
    write_snapshot(&mut bytes, std::slice::from_ref(&snapshot_obj), b"").unwrap();

    let before = co_object::store::stats();
    let snap = read_snapshot(bytes.as_slice()).unwrap();
    let after = co_object::store::stats();

    assert_eq!(snap.roots[0], snapshot_obj);
    // The overlapping relation re-interned to the *same* node as the
    // pre-existing value…
    assert_eq!(snap.roots[0].dot("left").node_id(), shared.node_id());
    // …so loading added far fewer nodes than the snapshot contains: only
    // the genuinely new right-hand relation and the fresh wrapper.
    let added = (after.tuple_nodes + after.set_nodes) as i64
        - (before.tuple_nodes + before.set_nodes) as i64;
    assert!(
        (0..=4).contains(&added),
        "expected ≤ 4 new nodes (wrapper + right relation), got {added}"
    );
}

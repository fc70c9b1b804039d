//! The delta counters are a ledger, not a vibe: `nodes` (written) plus
//! the base nodes still reachable must equal a full write of the same
//! roots, `base_nodes_reused` must count exactly the distinct base
//! nodes referenced by id, and the `Display` renderings of
//! [`WriteStats`] and [`SnapshotInfo`] are pinned by exact snapshots —
//! `stats_accounting.rs` style, extended to the wire crate.

use co_object::walk::{visit_unique_postorder, visit_unique_postorder_pruned};
use co_object::{obj, Object};
use co_wire::{
    describe_snapshot, write_delta_snapshot, write_snapshot, BaseId, SnapshotHandle, SnapshotInfo,
    WriteStats, HEADER_LEN,
};

/// `[k: <i>, v: {100, 200}]` — every tuple shares one `v` set.
fn fact(i: i64) -> Object {
    Object::tuple([("k", Object::int(i)), ("v", obj!({100, 200}))])
}

/// `[r: {fact(0), …, fact(n-1)}]`.
fn relation_db(n: i64) -> Object {
    Object::tuple([("r", Object::set((0..n).map(fact)))])
}

/// Distinct composite nodes reachable from `roots` that are resident in
/// `base` — the full walk the delta writer prunes away, recomputed here
/// as the ledger's other column.
fn reachable_base_nodes(roots: &[Object], base: &SnapshotHandle) -> u64 {
    let mut count = 0u64;
    visit_unique_postorder(roots.iter(), |o| {
        if base.contains(o.node_id().expect("walk yields composites")) {
            count += 1;
        }
    });
    count
}

#[test]
fn delta_nodes_plus_reachable_base_equals_a_full_write() {
    let base_db = relation_db(40);
    let mut base_bytes = Vec::new();
    let (base_stats, handle) = write_delta_snapshot(
        &mut base_bytes,
        std::slice::from_ref(&base_db),
        b"",
        &SnapshotHandle::empty(),
    )
    .unwrap();
    // 40 tuples + the shared {100,200} + the relation set + the wrapper.
    assert_eq!(base_stats.nodes, 43);
    assert_eq!(base_stats.base_nodes_reused, 0, "full writes reuse nothing");
    assert_eq!(handle.nodes(), 43);

    // Grow the relation by two facts: the new tuples, the grown set, and
    // the grown wrapper are new; everything else rides on base ids.
    let ext_db = Object::tuple([("r", Object::set((0..40).chain([97, 98]).map(fact)))]);
    let mut delta_bytes = Vec::new();
    let (delta_stats, handle2) = write_delta_snapshot(
        &mut delta_bytes,
        std::slice::from_ref(&ext_db),
        b"",
        &handle,
    )
    .unwrap();

    // Column 1 — nodes written: exactly what a pruned walk enumerates.
    let mut expected_new = 0u64;
    visit_unique_postorder_pruned([&ext_db], |id| handle.contains(id), |_| expected_new += 1);
    assert_eq!(delta_stats.nodes, expected_new);
    assert_eq!(delta_stats.nodes, 4, "2 tuples + grown set + grown wrapper");

    // Column 2 — base nodes this database still reaches. Together the
    // columns must reproduce a full write of the same roots exactly.
    let reachable = reachable_base_nodes(std::slice::from_ref(&ext_db), &handle);
    let mut full_bytes = Vec::new();
    let full_stats = write_snapshot(&mut full_bytes, std::slice::from_ref(&ext_db), b"").unwrap();
    assert_eq!(full_stats.nodes, delta_stats.nodes + reachable);

    // `base_nodes_reused` counts the *directly referenced* distinct base
    // nodes: the 40 old tuples (children of the grown set) and the
    // shared value set (child of each new tuple). The old relation set
    // and old wrapper are reachable in the base but referenced by
    // nothing new — reused ≤ reachable strictly here.
    assert_eq!(delta_stats.base_nodes_reused, 41);
    assert_eq!(reachable, 41);

    // Chain handle accounting: the combined id space grew by exactly the
    // written nodes.
    assert_eq!(handle2.nodes(), handle.nodes() + delta_stats.nodes);
    assert_eq!(handle2.base_id().nodes, 47);

    // And the economics the feature exists for. On this deliberately
    // adversarial shape — one flat root set, so the grown set re-lists
    // every member as a ~2-byte reference — the delta still undercuts
    // the full write by 2×; `benches/snapshot.rs` measures the realistic
    // deep-facts workload where it lands under 10% (BENCH_pr5.json).
    assert!(
        delta_stats.payload_bytes * 2 < full_stats.payload_bytes,
        "delta {} vs full {}",
        delta_stats.payload_bytes,
        full_stats.payload_bytes
    );
}

#[test]
fn indirect_base_references_do_not_count_as_reused() {
    // A new wrapper referencing one base tuple directly: the tuple's own
    // children are reachable through the base only, so `reused` stays at
    // the direct references while the full-write ledger still balances.
    let base_db = relation_db(10);
    let mut bytes = Vec::new();
    let (_, handle) = write_delta_snapshot(
        &mut bytes,
        std::slice::from_ref(&base_db),
        b"",
        &SnapshotHandle::empty(),
    )
    .unwrap();
    let ext_db = Object::tuple([("r", base_db.dot("r").clone()), ("pinned", fact(5))]);
    let mut delta_bytes = Vec::new();
    let (stats, _) = write_delta_snapshot(
        &mut delta_bytes,
        std::slice::from_ref(&ext_db),
        b"",
        &handle,
    )
    .unwrap();
    assert_eq!(stats.nodes, 1, "only the new wrapper tuple");
    // Direct references: the old relation set and fact(5). The other
    // nine tuples and the shared {100,200} are only reached *through*
    // base nodes.
    assert_eq!(stats.base_nodes_reused, 2);
    let reachable = reachable_base_nodes(std::slice::from_ref(&ext_db), &handle);
    assert_eq!(reachable, 12, "set + 10 tuples + shared value set");
    let mut full_bytes = Vec::new();
    let full_stats = write_snapshot(&mut full_bytes, std::slice::from_ref(&ext_db), b"").unwrap();
    assert_eq!(full_stats.nodes, stats.nodes + reachable);
}

#[test]
fn describe_agrees_with_write_stats_for_both_versions() {
    let base_db = relation_db(12);
    let mut base_bytes = Vec::new();
    let (base_stats, handle) = write_delta_snapshot(
        &mut base_bytes,
        std::slice::from_ref(&base_db),
        b"meta!",
        &SnapshotHandle::empty(),
    )
    .unwrap();
    let info = describe_snapshot(base_bytes.as_slice()).unwrap();
    assert!(!base_stats.is_delta());
    assert!(!info.is_delta());
    assert_eq!(info.nodes, base_stats.nodes);
    assert_eq!(info.roots, base_stats.roots);
    assert_eq!(info.payload_bytes, base_stats.payload_bytes);
    assert_eq!(info.total_bytes, base_stats.total_bytes);
    assert_eq!(info.total_bytes, info.payload_bytes + HEADER_LEN as u64);
    assert_eq!(info.checksum, handle.checksum());
    assert_eq!(info.base, BaseId::EMPTY);
    assert_eq!(info.base, base_stats.base);

    let ext_db = Object::tuple([("r", Object::set((0..13).map(fact)))]);
    let mut delta_bytes = Vec::new();
    let (delta_stats, handle2) = write_delta_snapshot(
        &mut delta_bytes,
        std::slice::from_ref(&ext_db),
        b"",
        &handle,
    )
    .unwrap();
    let info = describe_snapshot(delta_bytes.as_slice()).unwrap();
    assert!(delta_stats.is_delta());
    assert!(info.is_delta());
    assert_eq!(info.nodes, delta_stats.nodes);
    assert_eq!(info.base, handle.base_id());
    assert_eq!(info.base, delta_stats.base);
    assert_eq!(info.checksum, handle2.checksum());
}

#[test]
fn display_renderings_are_pinned() {
    let full = WriteStats {
        base: BaseId::EMPTY,
        nodes: 43,
        roots: 2,
        symbols: 3,
        payload_bytes: 412,
        total_bytes: 472,
        base_nodes_reused: 0,
        columnar_sets: 0,
    };
    assert_eq!(
        full.to_string(),
        "snapshot: 43 nodes, 2 roots, 3 symbols, 412 payload bytes (472 total)"
    );
    let delta = WriteStats {
        base: BaseId {
            checksum: 0x00ab_cdef_0123_4567,
            nodes: 43,
        },
        nodes: 4,
        roots: 2,
        symbols: 2,
        payload_bytes: 61,
        total_bytes: 121,
        base_nodes_reused: 41,
        columnar_sets: 0,
    };
    assert_eq!(
        delta.to_string(),
        "delta snapshot: 4 new nodes (+41 referenced from base), 2 roots, 2 symbols, \
         61 payload bytes (121 total)"
    );

    let full_info = SnapshotInfo {
        nodes: 43,
        roots: 2,
        payload_bytes: 412,
        total_bytes: 472,
        checksum: 0x00ab_cdef_0123_4567,
        base: BaseId::EMPTY,
    };
    assert_eq!(
        full_info.to_string(),
        "co-wire v4 full snapshot: 43 nodes, 2 roots, 412 payload bytes (472 total), \
         checksum 0x00abcdef01234567"
    );
    let delta_info = SnapshotInfo {
        nodes: 4,
        roots: 2,
        payload_bytes: 61,
        total_bytes: 121,
        checksum: 0x1122_3344_5566_7788,
        base: BaseId {
            checksum: 0x00ab_cdef_0123_4567,
            nodes: 43,
        },
    };
    assert_eq!(
        delta_info.to_string(),
        "co-wire v4 delta snapshot: 4 new nodes over base 0x00abcdef01234567 (43 nodes), \
         2 roots, 61 payload bytes (121 total), checksum 0x1122334455667788"
    );
}

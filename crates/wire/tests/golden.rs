//! Golden bytes: the writer's output is pinned by length and FNV-1a-64
//! checksum for a full snapshot, a delta layer and a columnar snapshot,
//! so an encoder change that alters a single byte fails here.
//!
//! Tuple entries are ordered by attribute *interning id*, which depends
//! on the order names are first interned in the process. This binary
//! therefore holds exactly one test, and that test interns every
//! attribute it uses up front in a fixed order.

use co_object::{Attr, Object};
use co_wire::codec::checksum;
use co_wire::{write_delta_snapshot, write_snapshot, write_snapshot_columnar, SnapshotHandle};

/// `co_bench::tree_family(n, fanout)`: a family tree of `p0..p{n-1}`
/// where `p{i}`'s children are `p{i*fanout+1}..=p{i*fanout+fanout}`.
fn tree_family(n: usize, fanout: usize) -> Object {
    let family = Object::set((0..n).map(|parent| {
        let children = Object::set(
            (1..=fanout)
                .map(|k| parent * fanout + k)
                .filter(|c| *c < n)
                .map(|c| Object::tuple([(Attr::new("name"), Object::str(format!("p{c}")))])),
        );
        Object::tuple([
            (Attr::new("name"), Object::str(format!("p{parent}"))),
            (Attr::new("children"), children),
        ])
    }));
    Object::tuple([(Attr::new("family"), family)])
}

/// The fixpoint of the descendants program rooted at `p0` over
/// `tree_family(1000, 4)`: every `p{i}` descends from `p0`, so the closed
/// object is the family plus `doa: {p0, …, p999}`.
fn closure_eval_p0_fixpoint() -> Object {
    let doa = Object::set((0..1000).map(|i| Object::str(format!("p{i}"))));
    co_object::lattice::union(
        &tree_family(1000, 4),
        &Object::tuple([(Attr::new("doa"), doa)]),
    )
}

/// A flat relation of `rows` same-schema rows: columnar-eligible once
/// `rows` reaches the default arena threshold.
fn relation(rows: i64) -> Object {
    Object::set((0..rows).map(|i| {
        Object::tuple([
            (Attr::new("k"), Object::int(i)),
            (Attr::new("v"), Object::str(format!("s{}", i % 7))),
            (Attr::new("w"), Object::float(i as f64 / 4.0)),
        ])
    }))
}

fn fingerprint(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), checksum(bytes))
}

#[test]
fn writer_output_is_byte_identical_to_the_pinned_goldens() {
    for name in ["family", "name", "children", "doa", "k", "v", "w", "r", "s"] {
        Attr::new(name);
    }

    // The reply an objbench closure_eval `Eval` of p0 ships.
    let fixpoint = closure_eval_p0_fixpoint();
    let mut full = Vec::new();
    write_snapshot(
        &mut full,
        std::slice::from_ref(&fixpoint),
        b"co-server result",
    )
    .unwrap();
    assert_eq!(
        fingerprint(&full),
        (30003, 12728337007928846550),
        "full snapshot"
    );

    // A delta: the family as the base, then the fixpoint on top.
    let mut base = Vec::new();
    let (_, handle) = write_delta_snapshot(
        &mut base,
        &[tree_family(1000, 4)],
        b"base",
        &SnapshotHandle::empty(),
    )
    .unwrap();
    let mut delta = Vec::new();
    let (stats, _) = write_delta_snapshot(
        &mut delta,
        std::slice::from_ref(&fixpoint),
        b"delta",
        &handle,
    )
    .unwrap();
    assert!(stats.is_delta());
    assert_eq!(
        fingerprint(&delta),
        (7859, 12656600194977174285),
        "delta snapshot"
    );

    // A columnar snapshot: one flat relation large enough for an arena,
    // one too small for it, and a row tuple also referenced as a root.
    let db = Object::tuple([
        (Attr::new("r"), relation(300)),
        (Attr::new("s"), relation(5)),
    ]);
    let row = relation(300).as_set().unwrap().elements()[17].clone();
    let mut columnar = Vec::new();
    let (stats, _) = write_snapshot_columnar(&mut columnar, &[db, row], b"columnar").unwrap();
    assert_eq!(stats.columnar_sets, 1);
    assert_eq!(
        fingerprint(&columnar),
        (4376, 14214085662748566948),
        "columnar snapshot"
    );
}

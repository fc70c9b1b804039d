//! F10 — persistence: `co-wire` snapshot write/read throughput, on-disk
//! bytes per node, and the sharing ratio (naive tree encoding vs the
//! hash-cons-aware node table) on three shapes:
//!
//! - a *flat relation* (no sharing beyond attribute names — the format's
//!   floor);
//! - a *closed genealogy database* (the engine's natural output, with
//!   organic substructure sharing);
//! - a *shared tower* (2^16 tree expansion over 17 nodes — the ceiling).
//!
//! Plus — PR 5 — the **delta** economics on a slowly-drifting bucketed
//! database: delta payload vs full payload when <5% of the nodes are
//! new, delta write speed vs full write speed, and base+3-delta chain
//! restore vs single-full restore (asserted bit-identical before any
//! timing).
//!
//! Run with `--save-json BENCH_pr5.json` (or `CRITERION_SAVE_JSON`) to
//! record every measurement plus the derived ratios; relative paths land
//! at the workspace root.

use co_bench::{chain_family, flat_relation};
use co_engine::Engine;
use co_object::walk::visit_unique_postorder;
use co_object::{measure, Object};
use co_parser::parse_program;
use co_wire::{
    naive_encoding_len, read_chain, read_snapshot, write_delta_snapshot, write_snapshot,
    SnapshotHandle,
};
use criterion::{
    criterion_group, criterion_main, save_json_record, BenchmarkId, Criterion, Throughput,
};
use std::hint::black_box;

/// A tower where each level contains the previous twice: n + 1 distinct
/// nodes, 2^n leaf occurrences — maximal sharing.
fn tower(levels: usize) -> Object {
    let mut level = Object::set([Object::str("base")]);
    for _ in 0..levels {
        level = Object::tuple([("left", level.clone()), ("right", level)]);
    }
    level
}

/// The closed descendants database over a 90-person chain.
fn closed_genealogy() -> Object {
    let program = parse_program(
        "[doa: {p0}].
         [doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].",
    )
    .unwrap();
    Engine::new(program)
        .run(&chain_family(90))
        .unwrap()
        .database
}

/// Each workload with its pinned payload size in bytes: the node table
/// encoding is deterministic, so any change to these is a format change.
fn workloads() -> Vec<(&'static str, Object, u64)> {
    vec![
        (
            "flat_relation_5000",
            flat_relation(5_000, 97, "k", "v"),
            61_503,
        ),
        ("closed_genealogy_90", closed_genealogy(), 2_432),
        ("shared_tower_16", tower(16), 152),
    ]
}

fn bench_write_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot");
    for (name, root, pinned_payload) in workloads() {
        let roots = [root];
        let mut bytes = Vec::new();
        let stats = write_snapshot(&mut bytes, &roots, b"").unwrap();
        assert_eq!(stats.payload_bytes, pinned_payload, "{name} payload bytes");

        group.throughput(Throughput::Bytes(stats.total_bytes));
        group.bench_with_input(BenchmarkId::new("write", name), &roots, |b, roots| {
            b.iter(|| {
                let mut out = Vec::with_capacity(bytes.len());
                write_snapshot(&mut out, black_box(roots), b"").unwrap();
                out
            })
        });
        group.bench_with_input(BenchmarkId::new("read", name), &bytes, |b, bytes| {
            b.iter(|| read_snapshot(black_box(bytes.as_slice())).unwrap())
        });

        // Derived, machine-readable: the on-disk economics of sharing.
        let naive = naive_encoding_len(&roots);
        let ratio = naive as f64 / stats.payload_bytes as f64;
        let tree_nodes = measure::size(&roots[0]);
        println!(
            "snapshot/{name}: {} distinct nodes ({tree_nodes} tree nodes), \
             {} payload bytes ({:.1} B/node), naive {naive} B, sharing ratio {ratio:.2}x",
            stats.nodes,
            stats.payload_bytes,
            stats.bytes_per_node().unwrap_or(0.0),
        );
        save_json_record(&format!(
            "{{\"bench\": \"snapshot\", \"id\": \"sharing/{name}\", \
             \"nodes\": {}, \"tree_nodes\": {tree_nodes}, \"payload_bytes\": {}, \
             \"bytes_per_node\": {:.2}, \"naive_bytes\": {naive}, \
             \"sharing_ratio\": {ratio:.3}}}",
            stats.nodes,
            stats.payload_bytes,
            stats.bytes_per_node().unwrap_or(0.0),
        ));
    }
    group.finish();
}

fn bench_checkpoint_restore(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot/checkpoint");
    let program = parse_program(
        "[doa: {p0}].
         [doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].",
    )
    .unwrap();
    let engine = Engine::new(program);
    let db = closed_genealogy();
    let path = std::env::temp_dir().join(format!("co_bench_ckpt_{}.cow", std::process::id()));

    // checkpoint_full, not checkpoint: the auto API would chain deltas
    // across bench iterations and measure something else entirely.
    group.bench_function("checkpoint/genealogy90", |b| {
        b.iter(|| engine.checkpoint_full(black_box(&db), &path).unwrap())
    });
    engine.checkpoint_full(&db, &path).unwrap();
    group.bench_function("restore/genealogy90", |b| {
        b.iter(|| Engine::restore(black_box(&path)).unwrap())
    });
    let _ = std::fs::remove_file(&path);
    group.finish();
}

// ---------------------------------------------------------------------------
// Delta snapshots (PR 5)
// ---------------------------------------------------------------------------

/// One "user record": a handful of distinct nodes and ~35 payload
/// bytes, so a node *reference* (2–3 bytes) is an order of magnitude
/// cheaper than re-encoding the record.
fn record(i: i64) -> Object {
    Object::tuple([
        ("id", Object::int(i)),
        (
            "profile",
            Object::tuple([
                ("name", Object::str(format!("user-{i}"))),
                ("score", Object::int(i * 17 % 1000)),
            ]),
        ),
        ("tags", Object::set([Object::int(i), Object::int(i + 1)])),
    ])
}

/// A bucketed database of records `0..n` plus `extra` drift records
/// (ids `n..n+extra`, landing in two buckets) — the slowly-drifting
/// store shape delta snapshots exist for: most buckets are byte-for-byte
/// the sets the base already has.
fn bucketed_db(n: i64, extra: i64, buckets: i64) -> Object {
    let mut sets: Vec<Vec<Object>> = (0..buckets).map(|_| Vec::new()).collect();
    for i in 0..n {
        sets[(i % buckets) as usize].push(record(i));
    }
    for i in n..n + extra {
        sets[(i % 2) as usize].push(record(i));
    }
    Object::tuple(
        sets.into_iter()
            .enumerate()
            .map(|(b, records)| (format!("bucket{b}"), Object::set(records))),
    )
}

fn distinct_nodes(o: &Object) -> u64 {
    let mut count = 0u64;
    visit_unique_postorder([o], |_| count += 1);
    count
}

fn bench_delta(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot/delta");
    const N: i64 = 2_000;
    const DRIFT: i64 = 25;
    const BUCKETS: i64 = 32;

    let base_db = bucketed_db(N, 0, BUCKETS);
    let mut base_bytes = Vec::new();
    let (base_stats, base_handle) = write_delta_snapshot(
        &mut base_bytes,
        std::slice::from_ref(&base_db),
        b"",
        &SnapshotHandle::empty(),
    )
    .unwrap();

    // One drift step: <5% of the nodes are new.
    let drifted = bucketed_db(N, DRIFT, BUCKETS);
    let mut full_bytes = Vec::new();
    let full_stats = write_snapshot(&mut full_bytes, std::slice::from_ref(&drifted), b"").unwrap();
    let mut delta_bytes = Vec::new();
    let (delta_stats, _) = write_delta_snapshot(
        &mut delta_bytes,
        std::slice::from_ref(&drifted),
        b"",
        &base_handle,
    )
    .unwrap();
    // Pinned sizes: the full payload is the node table alone; the delta
    // carries its base link in the header, not the payload.
    assert_eq!(
        full_stats.payload_bytes, 89_978,
        "drifted full payload bytes"
    );
    assert_eq!(
        delta_stats.payload_bytes, 1_876,
        "drift delta payload bytes"
    );
    let new_fraction = delta_stats.nodes as f64 / distinct_nodes(&drifted) as f64;
    let payload_ratio = delta_stats.payload_bytes as f64 / full_stats.payload_bytes as f64;
    assert!(
        new_fraction < 0.05,
        "workload contract: <5% new nodes, got {:.2}%",
        new_fraction * 100.0
    );
    assert!(
        payload_ratio <= 0.10,
        "acceptance: delta ≤10% of the full payload, got {:.1}%",
        payload_ratio * 100.0
    );
    println!(
        "snapshot/delta: drift {} records → {} new nodes ({:.2}% of {}), \
         delta {} B vs full {} B ({:.1}%), {} base nodes referenced",
        DRIFT,
        delta_stats.nodes,
        new_fraction * 100.0,
        distinct_nodes(&drifted),
        delta_stats.payload_bytes,
        full_stats.payload_bytes,
        payload_ratio * 100.0,
        delta_stats.base_nodes_reused,
    );
    save_json_record(&format!(
        "{{\"bench\": \"snapshot\", \"id\": \"delta/drift_{DRIFT}_of_{N}\", \
         \"new_nodes\": {}, \"new_node_fraction\": {new_fraction:.5}, \
         \"delta_payload_bytes\": {}, \"full_payload_bytes\": {}, \
         \"delta_to_full_ratio\": {payload_ratio:.4}, \"base_nodes_reused\": {}}}",
        delta_stats.nodes,
        delta_stats.payload_bytes,
        full_stats.payload_bytes,
        delta_stats.base_nodes_reused,
    ));

    // Write speed: the delta write prunes its walk at base-resident
    // nodes, so it should beat the full write by roughly the size ratio.
    group.throughput(Throughput::Bytes(full_stats.total_bytes));
    group.bench_function(BenchmarkId::new("write_full", "drifted_2000"), |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(full_bytes.len());
            write_snapshot(&mut out, black_box(std::slice::from_ref(&drifted)), b"").unwrap();
            out
        })
    });
    group.throughput(Throughput::Bytes(delta_stats.total_bytes));
    group.bench_function(BenchmarkId::new("write_delta", "drifted_2000"), |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(delta_bytes.len());
            write_delta_snapshot(
                &mut out,
                black_box(std::slice::from_ref(&drifted)),
                b"",
                &base_handle,
            )
            .unwrap();
            out
        })
    });

    // Chain restore: base + 3 drift deltas vs one full snapshot of the
    // final state — asserted bit-identical before timing anything.
    let mut layers: Vec<Vec<u8>> = vec![base_bytes];
    let mut handle = base_handle;
    let mut final_db = base_db;
    for step in 1..=3 {
        final_db = bucketed_db(N, DRIFT * step, BUCKETS);
        let mut bytes = Vec::new();
        let (_, next) =
            write_delta_snapshot(&mut bytes, std::slice::from_ref(&final_db), b"", &handle)
                .unwrap();
        layers.push(bytes);
        handle = next;
    }
    let mut final_full = Vec::new();
    write_snapshot(&mut final_full, std::slice::from_ref(&final_db), b"").unwrap();
    let (from_chain, _) = read_chain(layers.iter().map(|l| l.as_slice())).unwrap();
    let from_full = read_snapshot(final_full.as_slice()).unwrap();
    assert_eq!(from_chain.roots, from_full.roots);
    assert_eq!(
        from_chain.roots[0].node_id(),
        from_full.roots[0].node_id(),
        "chain restore must re-intern to the very node the full restore does"
    );
    assert_eq!(from_chain.roots[0], final_db);
    save_json_record(&format!(
        "{{\"bench\": \"snapshot\", \"id\": \"delta/chain_restore_identity\", \
         \"layers\": {}, \"bit_identical\": true, \
         \"chain_bytes\": {}, \"full_bytes\": {}}}",
        layers.len(),
        layers.iter().map(|l| l.len()).sum::<usize>(),
        final_full.len(),
    ));

    group.bench_function(BenchmarkId::new("restore_chain", "base_plus_3"), |b| {
        b.iter(|| read_chain(black_box(&layers).iter().map(|l| l.as_slice())).unwrap())
    });
    group.bench_function(BenchmarkId::new("restore_full", "final_state"), |b| {
        b.iter(|| read_snapshot(black_box(final_full.as_slice())).unwrap())
    });
    let _ = base_stats;
    group.finish();
}

criterion_group!(
    benches,
    bench_write_read,
    bench_checkpoint_restore,
    bench_delta
);
criterion_main!(benches);

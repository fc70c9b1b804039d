//! F9 — object-store lifecycle: sweep cost under churn, idle-sweep
//! overhead, reclamation ratio, and the steady-state memo hit rate of
//! second-chance eviction on a fixpoint workload under memo-capacity
//! pressure.
//!
//! Run with `--save-json BENCH_pr3.json` (or `CRITERION_SAVE_JSON`) to
//! record every measurement — including the derived reclaim ratios and
//! hit rates this file computes itself — as JSON.

use co_bench::chain_family;
use co_engine::{Engine, Guard, Strategy};
use co_object::store::{self, MemoStats};
use co_object::Object;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// One transient tuple + set pair, distinct per `(salt, i)`.
fn transient(salt: i64, i: i64) -> Object {
    Object::tuple([
        ("gc_bench_salt", Object::int(salt)),
        ("gc_bench_key", Object::int(i)),
        (
            "gc_bench_payload",
            Object::set([Object::int(i), Object::int(i + 1)]),
        ),
    ])
}

/// A burst of distinct memo-worthy `≤`/`∪` queries: pure cold traffic
/// that pressures both memo tables into evicting.
fn cold_memo_stream(salt: i64) {
    let make = |tag: i64| {
        Object::set((0..13).map(move |j| {
            Object::tuple([
                ("gc_bench_cold", Object::int(tag)),
                ("member", Object::int(j)),
            ])
        }))
    };
    for i in 0..128 {
        let a = make(salt * 100_000 + i * 2);
        let b = make(salt * 100_000 + i * 2 + 1);
        let _ = black_box(co_object::order::le(&a, &b));
        let _ = black_box(co_object::lattice::union(&a, &b));
    }
}

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("gc/sweep");
    // A live working set every sweep must examine and retain.
    let live: Vec<Object> = (0..10_000).map(|i| transient(-1, i)).collect();
    for &n in &[10_000usize, 50_000] {
        group.bench_with_input(BenchmarkId::new("churn", n), &n, |b, &n| {
            b.iter(|| {
                {
                    let _garbage: Vec<Object> = (0..n as i64).map(|i| transient(7, i)).collect();
                }
                black_box(store::collect())
            })
        });
    }
    group.bench_function("idle", |b| b.iter(|| black_box(store::collect())));
    group.finish();

    // Reclamation ratio, recorded as a derived JSON record.
    let before = store::stats();
    {
        let _garbage: Vec<Object> = (0..50_000).map(|i| transient(9, i)).collect();
    }
    let mid = store::stats();
    let created = (mid.tuple_nodes + mid.set_nodes) - (before.tuple_nodes + before.set_nodes);
    let sweep = store::collect();
    let ratio = sweep.freed_nodes() as f64 / created.max(1) as f64;
    println!(
        "gc/sweep/reclaim: created {created} transient nodes, freed {} ({:.1}%), {}",
        sweep.freed_nodes(),
        ratio * 100.0,
        sweep
    );
    criterion::save_json_record(&format!(
        "{{\"bench\": \"gc/sweep\", \"id\": \"reclaim_50k\", \"created_nodes\": {created}, \
         \"freed_nodes\": {}, \"reclaim_ratio\": {ratio:.4}, \"passes\": {}, \
         \"memo_entries_swept\": {}}}",
        sweep.freed_nodes(),
        sweep.passes,
        sweep.memo_entries_swept,
    ));
    drop(live);
    store::collect();
}

/// Combined `≤`/`∪`/`∩` lookups and hits between two snapshots.
fn memo_delta(before: &MemoStats, after: &MemoStats) -> (u64, u64) {
    (after.hits - before.hits, after.misses - before.misses)
}

fn bench_memo_eviction(c: &mut Criterion) {
    // Tight capacity so the fixpoint's memo traffic plus the cold stream
    // overflows the shards — the regime where eviction matters.
    store::set_memo_shard_cap(64);
    let db = chain_family(90);
    // Descendants over the chain, with a payload-carrying head: every
    // round derives a large `doapay` row, so the round union
    // `current ∪ applied` (and the nested `doapay` set union) are
    // memoizable big×big pairs. Re-running the same fixpoint replays the
    // identical pair sequence — the hot working set that second-chance
    // eviction is supposed to keep alive under cold pressure.
    let program = co_parser::parse_program(
        "[doa: {p0}, doapay: {[name: p0, pay: {c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12}]}].
         [doa: {X}, doapay: {[name: X, pay: {c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12}]}] :-
             [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].",
    )
    .unwrap();
    let engine = Engine::new(program)
        .strategy(Strategy::SemiNaive)
        .indexes(false)
        .guard(Guard::unlimited());

    let label = "second_chance";
    let mut group = c.benchmark_group("gc/fixpoint_memo");
    store::clear_memo_tables();
    let _ = engine.run(&db).unwrap(); // warm the hot pairs
    let salt = std::cell::Cell::new(0i64);
    group.bench_function(BenchmarkId::new("run", label), |b| {
        b.iter(|| {
            let s = salt.get();
            salt.set(s + 1);
            cold_memo_stream(s); // eviction pressure between runs
            black_box(engine.run(&db).unwrap())
        })
    });

    // Steady-state hit rate over a fixed post-warm cycle.
    let before = store::stats();
    for i in 0..8 {
        cold_memo_stream(1_000_000 + salt.get() * 100 + i);
        let _ = engine.run(&db).unwrap();
    }
    let after = store::stats();
    let (mut hits, mut lookups) = (0u64, 0u64);
    for (b, a) in [
        (&before.le_memo, &after.le_memo),
        (&before.union_memo, &after.union_memo),
        (&before.intersect_memo, &after.intersect_memo),
    ] {
        let (h, m) = memo_delta(b, a);
        hits += h;
        lookups += h + m;
    }
    let rate = hits as f64 / lookups.max(1) as f64;
    let evicted = after.le_memo.evicted + after.union_memo.evicted
        - (before.le_memo.evicted + before.union_memo.evicted);
    println!(
        "gc/fixpoint_memo/{label}: steady-state hit rate {:.1}% \
         ({hits}/{lookups} lookups, {evicted} evicted)",
        rate * 100.0
    );
    criterion::save_json_record(&format!(
        "{{\"bench\": \"gc/fixpoint_memo\", \"id\": \"hit_rate/{label}\", \
         \"hit_rate\": {rate:.4}, \"hits\": {hits}, \"lookups\": {lookups}, \
         \"evicted\": {evicted}}}"
    ));
    group.finish();
}

criterion_group!(benches, bench_sweep, bench_memo_eviction);
criterion_main!(benches);

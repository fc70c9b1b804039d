//! Size-triggered garbage collection: crossing the high-water mark on the
//! intern path makes the collector thread sweep, with hysteresis, and
//! never touches reachable objects.
//!
//! These tests drive process-global store state (the mark, the live-node
//! gauge), so they serialize on a local mutex and always restore the
//! disabled default before finishing.
//!
//! The collector sweeps asynchronously, so each test interns its churn
//! with collection paused and drops its thread-local cache: every churned
//! node is garbage by the time the pause ends, and the one sweep the
//! crossing asked for is awaited with a bounded wait.

use co_object::store::{self, StoreStats};
use co_object::{obj, Object};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static GATE: Mutex<()> = Mutex::new(());

/// Runs `f` with the high-water mark set to `live + headroom`, restoring
/// the disabled default afterwards (even on panic, via a drop guard).
fn with_high_water<R>(headroom: u64, f: impl FnOnce(u64) -> R) -> R {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            store::set_gc_high_water(0);
            // Lets an automatic sweep already under way finish before the
            // next test reads the counters.
            store::collect();
        }
    }
    let _reset = Reset;
    let s = store::stats();
    let live = (s.tuple_nodes + s.set_nodes) as u64;
    let mark = live + headroom;
    store::set_gc_high_water(mark);
    f(mark)
}

fn churn(salt: i64, n: i64) {
    for i in 0..n {
        let _ = obj!([gc_hw_churn: (salt), k: (i), pad: {(i), (i + 1)}]);
    }
}

/// Interns `n` transient tuples (two fresh nodes each) while collection is
/// paused, then drops this thread's L1 so that every churned node is
/// unreachable when the pause ends.
fn churn_paused(salt: i64, n: i64) {
    store::with_gc_paused(|| {
        churn(salt, n);
        store::flush_thread_caches();
    });
}

/// Waits until an automatic sweep has both started and finished since
/// `before`, failing after ten seconds.
fn await_auto_sweep(before: &StoreStats) -> StoreStats {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = store::stats();
        if now.gc_auto_triggers > before.gc_auto_triggers && now.gc_sweeps > before.gc_sweeps {
            return now;
        }
        assert!(
            Instant::now() < deadline,
            "no automatic sweep finished within 10s: triggers {} -> {}, sweeps {} -> {}",
            before.gc_auto_triggers,
            now.gc_auto_triggers,
            before.gc_sweeps,
            now.gc_sweeps
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn crossing_the_mark_triggers_a_collection() {
    let _gate = GATE.lock().unwrap();
    let before = store::stats();
    let after = with_high_water(256, |_| {
        // Far more transient garbage than the headroom: the collector
        // must sweep without any explicit `collect()` call.
        churn_paused(1, 2_000);
        await_auto_sweep(&before)
    });
    assert!(
        after.gc_freed_nodes > before.gc_freed_nodes,
        "the churn garbage must actually be reclaimed"
    );
}

#[test]
fn disabled_mark_never_triggers() {
    let _gate = GATE.lock().unwrap();
    store::set_gc_high_water(0);
    let before = store::stats();
    churn_paused(2, 2_000);
    // An explicit cycle queues behind anything the collector has started.
    store::collect();
    let after = store::stats();
    assert_eq!(
        after.gc_auto_triggers, before.gc_auto_triggers,
        "high-water 0 must disable automatic collection"
    );
}

#[test]
fn reachable_objects_survive_automatic_sweeps() {
    let _gate = GATE.lock().unwrap();
    // A working set we keep holding across the auto sweeps.
    let kept: Vec<Object> = (0..128)
        .map(|i| obj!([gc_hw_kept: (i), v: {(i), (i + 1), (i + 2)}]))
        .collect();
    let kept_ids: Vec<_> = kept.iter().map(|o| o.node_id().unwrap()).collect();
    let before = store::stats();
    let after = with_high_water(128, |_| {
        churn_paused(3, 2_000);
        await_auto_sweep(&before)
    });
    assert!(after.gc_freed_nodes > before.gc_freed_nodes);
    for (o, id) in kept.iter().zip(&kept_ids) {
        assert_eq!(o.node_id(), Some(*id), "held objects keep their identity");
        assert!(
            store::contains_node(*id),
            "held objects must survive auto sweeps"
        );
    }
    // Rebuilding one is an intern hit on the same node, not a new id.
    assert_eq!(
        obj!([gc_hw_kept: 5, v: {5, 6, 7}]).node_id(),
        kept[5].node_id()
    );
}

#[test]
fn trigger_rearms_at_the_mark_when_survivors_fit_below_it() {
    let _gate = GATE.lock().unwrap();
    // A big held working set, so a buggy hysteresis that always re-arms
    // half a mark above the *survivors* would push the next trigger
    // thousands of nodes past the configured mark. With survivors below
    // the mark, re-arming must happen AT the mark: every batch of 400
    // transient nodes against 200 headroom then fires its own sweep.
    let _held: Vec<Object> = (0..2_000)
        .map(|i| obj!([gc_hw_rearm: (i), p: {(i), (i + 1)}]))
        .collect();
    // Start from a garbage-free store: residue from earlier tests would
    // otherwise be reclaimed by the first auto sweep, dropping the live
    // count far below the mark and masking the re-arm behaviour.
    store::collect();
    with_high_water(200, |_| {
        for round in 0..5 {
            let before = store::stats();
            churn_paused(5 + round, 200);
            await_auto_sweep(&before);
        }
    });
}

#[test]
fn crossing_during_a_parked_sweep_is_not_dropped() {
    let _gate = GATE.lock().unwrap();
    // Regression: a crossing of the high-water mark while the GC
    // gate was held used to be silently dropped — no sweep, no re-arm —
    // so the mark could be overshot unboundedly for as long as another
    // collection stayed parked. The crossing must be absorbed the moment
    // the gate frees.
    store::collect(); // start from a garbage-free store
    let before = store::stats();
    let after = with_high_water(200, |mark| {
        // Park the gate (as a long explicit sweep would) and blow through
        // the mark while it is held.
        store::with_gc_paused(|| {
            churn(6, 2_000); // ≈ 4000 transients vs 200 headroom
            store::flush_thread_caches();
            assert_eq!(
                store::stats().gc_sweeps,
                before.gc_sweeps,
                "no sweep can run while the gate is paused"
            );
            assert!(
                store::live_nodes() > mark,
                "the churn must actually overshoot the mark while parked"
            );
        });
        // The crossing nudged the collector, which sweeps once the pause
        // ends.
        await_auto_sweep(&before)
    });
    assert!(
        after.gc_freed_nodes > before.gc_freed_nodes,
        "the absorbed trigger must reclaim the parked churn"
    );
}

#[test]
fn oversized_working_set_does_not_collect_per_intern() {
    let _gate = GATE.lock().unwrap();
    // Hold a working set bigger than the mark: after the first auto sweep
    // the survivors still exceed it, so hysteresis must re-arm the trigger
    // half a mark higher instead of sweeping on every later intern.
    let _held: Vec<Object> = (0..1_500)
        .map(|i| obj!([gc_hw_big: (i), w: {(i), (i * 7)}]))
        .collect();
    store::collect(); // the mark below is then exactly the held set
    let before = store::stats();
    with_high_water(0, |_| {
        // Mark is exactly the current live count: already at the mark.
        churn_paused(4, 1_000);
        await_auto_sweep(&before);
        // 400 more nodes stay under the re-armed trigger (half a mark
        // above ≥3000 survivors); the explicit cycle queues behind any
        // automatic sweep they would have caused.
        churn_paused(7, 200);
        store::collect();
    });
    // One sweep for the crossing, plus at most one for the nudges queued
    // while it waited behind the pause.
    let triggers = store::stats().gc_auto_triggers - before.gc_auto_triggers;
    assert!(
        (1..=2).contains(&triggers),
        "hysteresis must stop a collect-per-intern storm, got {triggers} automatic sweeps"
    );
}

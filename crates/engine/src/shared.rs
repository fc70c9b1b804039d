//! A shared, concurrently-readable engine head: the serving primitive.
//!
//! A [`SharedEngine`] owns one *head* database that many threads use at
//! once. Readers take a [`PinnedDb`] — a cheap snapshot of the head
//! (interned objects make the clone an `Arc` bump) pinned as a GC root —
//! and evaluate queries against it for as long as they like while writers
//! advance the head underneath them. Writers serialize among themselves
//! but never wait for readers, and readers never wait for an in-flight
//! fixpoint: the head lock is held only to swap an object handle.
//!
//! # Snapshot isolation, from the store's invariants
//!
//! This is MVCC without a version table, paid for by two properties the
//! object store already guarantees:
//!
//! - **immutability**: objects are interned and never mutated, so a head
//!   swap cannot change what a reader's handle points at;
//! - **never-recycled `NodeId`s**: a pinned snapshot keeps its node (and
//!   transitively its subtree) alive across [`co_object::store::collect`]
//!   sweeps, and any id a reader cached stays permanently detectable.
//!
//! A reader holding a [`PinnedDb`] therefore sees, for every query, the
//! exact frozen database of the moment it pinned — bit-identical (same
//! `NodeId`s) to what a single-threaded run quiesced at that version
//! would see, no matter how many writers advance or how often the store
//! collects in between. `crates/server/tests/snapshot_isolation.rs`
//! proves exactly this differentially.
//!
//! ```
//! use co_engine::{Engine, SharedEngine};
//! use co_parser::{parse_formula, parse_object, parse_program};
//! use co_calculus::interpret;
//!
//! let db = parse_object("[edge: {[s: a, t: b]}]").unwrap();
//! let shared = SharedEngine::new(Engine::new(Default::default()), db);
//!
//! // A reader pins the head…
//! let snap = shared.head();
//! let q = parse_formula("[edge: {[s: X, t: Y]}]").unwrap();
//! let before = interpret(&q, snap.object(), shared.policy());
//!
//! // …a writer advances it…
//! let p = parse_program("[edge: {[s: b, t: c]}].").unwrap();
//! shared.advance(&p).unwrap();
//!
//! // …and the pinned reader still sees its frozen version.
//! assert_eq!(interpret(&q, snap.object(), shared.policy()), before);
//! assert_eq!(shared.head().version(), snap.version() + 1);
//! ```

use crate::checkpoint::CheckpointError;
use crate::{Engine, EngineError, EvalStats, Parallelism};
use co_calculus::{MatchPolicy, Program};
use co_object::{store, NodeId, Object};
use co_wire::WriteStats;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};

/// A database snapshot pinned against garbage collection: the per-session
/// read view of a [`SharedEngine`].
///
/// Holding one guarantees that every node reachable from
/// [`PinnedDb::object`] stays live and keeps its `NodeId` across any
/// number of [`co_object::store::collect`] sweeps — the snapshot a
/// query evaluates against cannot be freed or mutated mid-read. Dropping
/// the guard releases the pin; cloning re-pins (so a clone is safe to
/// ship to another thread with the same guarantee).
#[derive(Debug)]
pub struct PinnedDb {
    db: Object,
    version: u64,
    /// The GC pin. `None` only for atom/⊥/⊤ heads, which have no node a
    /// sweep could free.
    root: Option<store::Root>,
}

impl PinnedDb {
    fn new(db: Object, version: u64) -> PinnedDb {
        let root = store::pin(&db);
        PinnedDb { db, version, root }
    }

    /// The frozen database object.
    pub fn object(&self) -> &Object {
        &self.db
    }

    /// The head version this snapshot was taken at (the seed database is
    /// version 1; every committed write increments it).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The interned id of the snapshot root, `None` for atoms/⊥/⊤.
    pub fn root_id(&self) -> Option<NodeId> {
        self.root.as_ref().map(store::Root::id)
    }
}

impl Clone for PinnedDb {
    fn clone(&self) -> PinnedDb {
        PinnedDb::new(self.db.clone(), self.version)
    }
}

/// What a committed write did: the new head and the run statistics.
#[derive(Clone, Debug)]
pub struct AdvanceOutcome {
    /// The head version after the commit.
    pub version: u64,
    /// The committed database (the fixpoint of the program over the
    /// previous head).
    pub database: Object,
    /// The fixpoint run's statistics ([`EvalStats::default`] for a
    /// [`SharedEngine::merge`], which runs no fixpoint).
    pub stats: EvalStats,
}

/// The head state: swapped atomically under the `RwLock` in
/// [`SharedInner`]. The `Root` pin keeps the committed generation's ids
/// stable even when no session currently holds a snapshot of it.
struct Head {
    db: Object,
    root: Option<store::Root>,
    version: u64,
}

struct SharedInner {
    template: Engine,
    head: RwLock<Head>,
    /// Writers serialize here so each fixpoint runs against the latest
    /// committed head; held across a full `advance` run, **never** by
    /// readers.
    writer: Mutex<()>,
}

/// One engine configuration plus one mutable head database, shared by any
/// number of reader and writer threads. See the module docs for the
/// isolation contract.
///
/// The `template` engine supplies the configuration — match policy,
/// closure mode, guard, indexes, GC cadence — that every
/// [`SharedEngine::advance`] and [`SharedEngine::eval`] runs with; its
/// own program is ignored (each request carries one). Its parallelism
/// applies with one change: [`Parallelism::Auto`] runs on the worker that
/// took the request. The serving layer's worker pool already covers the
/// cores, and a pool spawned per request cost more CPU than it saved
/// (about 1.1 ms against 0.5 ms per descendants fixpoint on a 2-vCPU
/// VM), so only an explicit [`Parallelism::Threads`] template fans
/// requests out.
#[derive(Clone)]
pub struct SharedEngine {
    inner: Arc<SharedInner>,
}

impl std::fmt::Debug for SharedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let head = self.read_head();
        f.debug_struct("SharedEngine")
            .field("version", &head.version)
            .field("root", &head.root.as_ref().map(store::Root::id))
            .finish_non_exhaustive()
    }
}

impl SharedEngine {
    /// A shared engine whose head starts at `db` (version 1), configured
    /// by `template` (see the type docs).
    pub fn new(template: Engine, db: Object) -> SharedEngine {
        let root = store::pin(&db);
        SharedEngine {
            inner: Arc::new(SharedInner {
                template,
                head: RwLock::new(Head {
                    db,
                    root,
                    version: 1,
                }),
                writer: Mutex::new(()),
            }),
        }
    }

    /// The configuration template (its program is never run).
    pub fn template(&self) -> &Engine {
        &self.inner.template
    }

    /// The template's match policy — what readers should interpret
    /// queries with to agree with the engine's own matching.
    pub fn policy(&self) -> MatchPolicy {
        self.inner.template.match_policy()
    }

    fn read_head(&self) -> std::sync::RwLockReadGuard<'_, Head> {
        self.inner
            .head
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Pins and returns the current head. This is the per-session read
    /// API: the lock is held only for the clone (an `Arc` bump), and the
    /// returned snapshot stays frozen and GC-protected for its lifetime.
    pub fn head(&self) -> PinnedDb {
        let head = self.read_head();
        PinnedDb::new(head.db.clone(), head.version)
    }

    /// The current head version without pinning.
    pub fn version(&self) -> u64 {
        self.read_head().version
    }

    /// Runs `program` to its fixpoint over the current head and commits
    /// the result as the new head. Writers serialize (the fixpoint runs
    /// against the latest committed state), but readers are never blocked:
    /// the head lock is taken for writing only to swap the object handle.
    ///
    /// On [`EngineError`] (divergence), nothing is committed.
    pub fn advance(&self, program: &Program) -> Result<AdvanceOutcome, EngineError> {
        let _writer = self
            .inner
            .writer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // The base is this writer's own frozen snapshot: pinned, so the
        // template's GC cadence can sweep mid-run without freeing it.
        let base = self.head();
        let out = self.request_engine(program).run(base.object())?;
        let outcome = self.commit(out.database, out.stats);
        if co_obs::trace_enabled() {
            use co_obs::FieldValue as F;
            co_obs::emit(
                "engine.advance",
                &[
                    ("version", F::U64(outcome.version)),
                    ("iterations", F::U64(outcome.stats.iterations)),
                    (
                        "elapsed_ns",
                        F::U64(outcome.stats.elapsed.as_nanos() as u64),
                    ),
                    ("gc_sweeps", F::U64(outcome.stats.gc_sweeps)),
                ],
            );
        }
        Ok(outcome)
    }

    /// Commits `union(head, delta)` as the new head without running a
    /// fixpoint — the cheap write path for plain fact insertion.
    pub fn merge(&self, delta: &Object) -> AdvanceOutcome {
        let _writer = self
            .inner
            .writer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let base = self.head();
        let next = co_object::lattice::union(base.object(), delta);
        self.commit(next, EvalStats::default())
    }

    /// The commit point: caller holds the writer lock, so `db` was
    /// derived from the latest committed head.
    fn commit(&self, db: Object, stats: EvalStats) -> AdvanceOutcome {
        let root = store::pin(&db);
        let mut head = self
            .inner
            .head
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        head.version += 1;
        head.db = db.clone();
        head.root = root;
        let version = head.version;
        drop(head);
        AdvanceOutcome {
            version,
            database: db,
            stats,
        }
    }

    /// Evaluates `program` to its fixpoint over `snapshot` **without
    /// committing** — a read-only what-if against a frozen version.
    pub fn eval(&self, program: &Program, snapshot: &PinnedDb) -> Result<EvalStats, EngineError> {
        self.eval_db(program, snapshot).map(|(_, stats)| stats)
    }

    /// [`SharedEngine::eval`] returning the result database too.
    pub fn eval_db(
        &self,
        program: &Program,
        snapshot: &PinnedDb,
    ) -> Result<(Object, EvalStats), EngineError> {
        let out = self.request_engine(program).run(snapshot.object())?;
        Ok((out.database, out.stats))
    }

    /// The engine one request runs: the template's configuration with the
    /// request's program, [`Parallelism::Auto`] resolved to sequential
    /// rounds on the calling thread (see the type docs).
    fn request_engine(&self, program: &Program) -> Engine {
        let engine = self.inner.template.with_program(program.clone());
        match engine.parallelism {
            Parallelism::Auto => engine.parallelism(Parallelism::Sequential),
            _ => engine,
        }
    }

    /// Checkpoints the current head to `path` via
    /// [`Engine::checkpoint`] (auto full/delta against the template's
    /// live chain) **without blocking readers or writers**: the head is
    /// pinned and cloned out of the lock first, and the serialization —
    /// however slow the disk — runs with no `SharedEngine` lock held.
    /// Sessions holding [`PinnedDb`]s stay fully live throughout
    /// (regression-tested in `crates/server/tests/checkpoint_live.rs`).
    ///
    /// Returns the write stats and the pinned snapshot that was written
    /// (a concurrent [`SharedEngine::advance`] may already have moved the
    /// head past it — the checkpoint is of a consistent version, not
    /// necessarily the newest).
    pub fn checkpoint(
        &self,
        path: impl AsRef<Path>,
    ) -> Result<(WriteStats, PinnedDb), CheckpointError> {
        let pinned = self.head();
        let stats = self.inner.template.checkpoint(pinned.object(), path)?;
        Ok((stats, pinned))
    }

    /// [`SharedEngine::checkpoint`] into any writer (always a full
    /// snapshot, via [`Engine::checkpoint_full_to`]): the transport hook
    /// for shipping a consistent head over a socket, and the lever the
    /// non-blocking regression test uses to hold a checkpoint mid-write
    /// while proving readers stay live.
    pub fn checkpoint_to<W: Write>(&self, w: W) -> Result<(WriteStats, PinnedDb), CheckpointError> {
        let pinned = self.head();
        let stats = self.inner.template.checkpoint_full_to(pinned.object(), w)?;
        Ok((stats, pinned))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GcCadence;
    use co_object::obj;
    use co_parser::{parse_formula, parse_program};

    fn shared() -> SharedEngine {
        SharedEngine::new(
            Engine::new(Program::new()).gc_cadence(GcCadence::EveryRounds(1)),
            obj!([edge: {[s: a, t: b], [s: b, t: c]}]),
        )
    }

    fn paths_program() -> Program {
        parse_program(
            "[path: {[s: X, t: Y]}] :- [edge: {[s: X, t: Y]}].
             [path: {[s: X, t: Z]}] :- [edge: {[s: X, t: Y]}, path: {[s: Y, t: Z]}].",
        )
        .unwrap()
    }

    #[test]
    fn pinned_readers_are_isolated_from_advances() {
        let shared = shared();
        let snap = shared.head();
        assert_eq!(snap.version(), 1);
        let q = parse_formula("[edge: {[s: X, t: Y]}]").unwrap();
        let before = co_calculus::interpret(&q, snap.object(), shared.policy());
        let before_id = snap.object().node_id();

        let out = shared.advance(&paths_program()).unwrap();
        assert_eq!(out.version, 2);
        assert!(out.stats.iterations >= 2);
        // The reader's frozen view is bit-identical after the advance…
        assert_eq!(snap.object().node_id(), before_id);
        assert_eq!(
            co_calculus::interpret(&q, snap.object(), shared.policy()),
            before
        );
        // …and a fresh head sees the new version.
        let head = shared.head();
        assert_eq!(head.version(), 2);
        assert_eq!(&out.database, head.object());
    }

    #[test]
    fn pins_survive_explicit_collection() {
        let shared = shared();
        let snap = shared.head();
        let id = snap.root_id().unwrap();
        // Advance twice so the version-1 generation is superseded, then
        // sweep: the pinned snapshot must survive with its id.
        shared.merge(&obj!([edge: {[s: c, t: d]}]));
        shared.advance(&paths_program()).unwrap();
        store::collect();
        assert!(store::contains_node(id));
        assert_eq!(snap.root_id(), Some(id));
        // Dropped pin + dropped object: now it is collectable (the head
        // pin only protects the *current* generation).
        drop(snap);
        store::collect();
        assert!(store::contains_node(
            shared.head().root_id().expect("composite head")
        ));
    }

    #[test]
    fn merge_is_a_cheap_committed_union() {
        let shared = shared();
        let out = shared.merge(&obj!([edge: {[s: z, t: a]}]));
        assert_eq!(out.version, 2);
        assert_eq!(out.stats.iterations, 0);
        assert_eq!(
            shared.head().object().dot("edge").as_set().unwrap().len(),
            3
        );
    }

    /// A shared engine over a four-edge chain with `parallelism`.
    fn shared_with(parallelism: Parallelism) -> SharedEngine {
        SharedEngine::new(
            Engine::new(Program::new()).parallelism(parallelism),
            obj!([edge: {[s: a, t: b], [s: b, t: c], [s: c, t: d], [s: d, t: e]}]),
        )
    }

    #[test]
    fn auto_requests_run_on_the_calling_thread() {
        let auto = shared_with(Parallelism::Auto);
        let threads = shared_with(Parallelism::Threads(4));
        let program = paths_program();

        let (db, stats) = auto.eval_db(&program, &auto.head()).unwrap();
        assert_eq!(stats.work_units, stats.rule_applications);
        assert_eq!(stats.fanout_skipped_rounds, 0);
        let (fanned_db, fanned) = threads.eval_db(&program, &threads.head()).unwrap();
        assert!(fanned.work_units > fanned.rule_applications);
        assert_eq!(db.node_id(), fanned_db.node_id());

        let out = auto.advance(&program).unwrap();
        assert_eq!(out.stats.work_units, out.stats.rule_applications);
        assert_eq!(out.stats.fanout_skipped_rounds, 0);
        let fanned = threads.advance(&program).unwrap();
        assert!(fanned.stats.work_units > fanned.stats.rule_applications);
        assert_eq!(out.database.node_id(), fanned.database.node_id());
        assert_eq!(out.database.node_id(), db.node_id());
    }

    #[test]
    fn eval_does_not_commit() {
        let shared = shared();
        let snap = shared.head();
        let (db, stats) = shared.eval_db(&paths_program(), &snap).unwrap();
        assert!(stats.iterations >= 2);
        assert!(db.dot("path").as_set().is_some());
        assert_eq!(shared.version(), 1, "eval must leave the head untouched");
    }

    #[test]
    fn writers_serialize_and_readers_see_monotone_versions() {
        let shared = shared();
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let shared = shared.clone();
                std::thread::spawn(move || {
                    let fact = parse_program(&format!("[edge: {{[s: w{i}, t: a]}}].")).unwrap();
                    shared.advance(&fact).unwrap().version
                })
            })
            .collect();
        let mut versions: Vec<u64> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        versions.sort_unstable();
        assert_eq!(versions, vec![2, 3, 4, 5]);
        // All four writer facts are in the final head (serialized writers
        // each ran over the previous commit).
        assert_eq!(
            shared.head().object().dot("edge").as_set().unwrap().len(),
            6
        );
    }
}

//! Attribute-value indexes over set objects.
//!
//! Matching a tuple-shaped member formula like `[a: 5, b: Y]` against a
//! large set is a scan; an index from `(attribute, atomic value)` to element
//! positions turns the constant (and bound-variable) constraints into hash
//! probes. This is the classic access-path substrate of a database engine,
//! adapted to complex objects: indexes are built per *set node*, keyed by
//! the set's stable [`NodeId`] from the hash-consed store. Because node ids
//! identify canonical *values* (equal sets are the same interned node) and
//! are never recycled, unchanged relations keep their index across fixpoint
//! iterations even when a later iteration *re-derives* an equal set through
//! a different code path — and a dropped set's id can never alias a new
//! allocation (the ABA hazard of raw `Arc` addresses).
//!
//! Soundness contract (required by [`Prefilter`]): a returned candidate list
//! contains **every** element the member formula could match. Constant-atom
//! constraints are exact in every policy (an atom matches only itself — ⊤
//! cannot occur inside a canonical set). Bound-variable constraints are used
//! only under [`MatchPolicy::Strict`]: under `Literal`, a variable may bind
//! ⊥ against a mismatching element, so the probe would be unsound.

use co_calculus::{Formula, MatchPolicy, Prefilter, Var};
use co_object::{Atom, Attr, NodeId, Object, Set};
use rustc_hash::{FxHashMap, FxHashSet};

/// An index over one set object: `attr → atom → positions`.
///
/// Nested maps (rather than a composite `(Attr, Atom)` key) let the hot
/// probe path look up by `&Atom` — no per-probe clone of string atoms.
#[derive(Debug, Default)]
pub struct SetIndex {
    by_attr: FxHashMap<Attr, FxHashMap<Atom, Vec<usize>>>,
}

impl SetIndex {
    /// Builds the index for `set`: every top-level atomic attribute value of
    /// every tuple element is indexed.
    ///
    /// Flat relations large enough to have a columnar arena (see
    /// `co_object::columnar`) are indexed column-major from the dense
    /// arena — one contiguous pass per attribute instead of a pointer
    /// chase per element. Arena row order is element order, so the
    /// positions are identical to the scan path's.
    pub fn build(set: &Set) -> SetIndex {
        let mut by_attr: FxHashMap<Attr, FxHashMap<Atom, Vec<usize>>> = FxHashMap::default();
        if let Some(cols) = co_object::columnar::arena_for(set) {
            for (c, &a) in cols.schema().iter().enumerate() {
                let by_atom = by_attr.entry(a).or_default();
                for (i, atom) in cols.column(c).iter().enumerate() {
                    by_atom.entry(atom.clone()).or_default().push(i);
                }
            }
            return SetIndex { by_attr };
        }
        for (i, e) in set.elements().iter().enumerate() {
            if let Object::Tuple(t) = e {
                for (a, v) in t.entries() {
                    if let Object::Atom(atom) = v {
                        by_attr
                            .entry(*a)
                            .or_default()
                            .entry(atom.clone())
                            .or_default()
                            .push(i);
                    }
                }
            }
        }
        SetIndex { by_attr }
    }

    /// Positions of elements whose attribute `a` equals `atom`.
    /// Allocation-free: probes borrow the caller's atom.
    pub fn probe(&self, a: Attr, atom: &Atom) -> &[usize] {
        self.by_attr
            .get(&a)
            .and_then(|m| m.get(atom))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of distinct `(attr, atom)` keys.
    pub fn keys(&self) -> usize {
        self.by_attr.values().map(FxHashMap::len).sum()
    }
}

/// A registry of [`SetIndex`]es keyed by interned set [`NodeId`], with lazy
/// construction and cross-iteration reuse: because equal sets are the same
/// interned node, an index built in one iteration serves every later
/// occurrence of that *value* — including re-derivations through different
/// code paths, which distinct-allocation keying would miss.
#[derive(Default)]
pub struct IndexRegistry {
    indexes: FxHashMap<NodeId, SetIndex>,
    /// Sets smaller than this are scanned — index bookkeeping would cost
    /// more than it saves.
    pub min_set_len: usize,
}

impl IndexRegistry {
    /// Creates an empty registry with the default size threshold.
    pub fn new() -> IndexRegistry {
        IndexRegistry {
            indexes: FxHashMap::default(),
            min_set_len: 16,
        }
    }

    /// Returns (building if necessary) the index for `set`, or `None` for
    /// sets below the size threshold.
    pub fn index_for(&mut self, set: &Set) -> Option<&SetIndex> {
        if set.len() < self.min_set_len {
            return None;
        }
        Some(
            self.indexes
                .entry(set.node_id())
                .or_insert_with(|| SetIndex::build(set)),
        )
    }

    /// The already-built index for `set`, if any — never builds. The
    /// shared-lock fast path of [`IndexedPrefilter`] uses this so
    /// concurrent probes of existing indexes don't serialize.
    pub fn existing(&self, set: &Set) -> Option<&SetIndex> {
        if set.len() < self.min_set_len {
            return None;
        }
        self.indexes.get(&set.node_id())
    }

    /// Drops indexes for sets no longer reachable from `db` (call once per
    /// iteration to bound memory; node ids are never recycled, so — unlike
    /// the old pointer-keyed scheme — a stale entry can go *unused* but can
    /// never alias a different set).
    ///
    /// Only sets of at least `min_set_len` elements are ever indexed, so
    /// the walk skips every subtree whose cached `max_fanout` is below
    /// that: no set inside it is large enough to have an index.
    pub fn retain_reachable(&mut self, db: &Object) {
        if self.indexes.is_empty() {
            return;
        }
        let mut live: FxHashSet<NodeId> = FxHashSet::default();
        collect_set_keys(db, self.min_set_len, &mut live);
        self.indexes.retain(|k, _| live.contains(k));
    }

    /// Number of materialized indexes.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// True when no index is materialized.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }
}

/// Collects the ids of the sets of at least `min_len` elements reachable
/// from `o` (plus possibly smaller ones; the caller only looks up indexed
/// ids).
fn collect_set_keys(o: &Object, min_len: usize, out: &mut FxHashSet<NodeId>) {
    match o {
        Object::Set(s) if s.meta().max_fanout >= min_len => {
            out.insert(s.node_id());
            // Flat sets (cached flag) contain no nested composites.
            if !s.meta().flat {
                for e in s.iter() {
                    collect_set_keys(e, min_len, out);
                }
            }
        }
        Object::Tuple(t) if t.meta().contains_set && t.meta().max_fanout >= min_len => {
            for (_, v) in t.entries() {
                collect_set_keys(v, min_len, out);
            }
        }
        _ => {}
    }
}

/// A [`Prefilter`] backed by an [`IndexRegistry`].
///
/// Interior mutability (the registry builds indexes lazily during matching)
/// is confined to a reader-writer lock, so one prefilter — and hence one
/// registry of indexes — is shared by all workers of a parallel evaluation
/// round: an index built by any worker serves every later probe of that
/// set value, and probes of *existing* indexes (the steady state after the
/// first iteration) take only the shared lock and run concurrently.
pub struct IndexedPrefilter {
    registry: parking_lot::RwLock<IndexRegistry>,
    policy: MatchPolicy,
}

impl IndexedPrefilter {
    /// Creates a prefilter for the given policy.
    pub fn new(policy: MatchPolicy) -> IndexedPrefilter {
        IndexedPrefilter {
            registry: parking_lot::RwLock::new(IndexRegistry::new()),
            policy,
        }
    }

    /// See [`IndexRegistry::retain_reachable`].
    pub fn retain_reachable(&self, db: &Object) {
        self.registry.write().retain_reachable(db);
    }

    /// Number of materialized indexes (diagnostics).
    pub fn index_count(&self) -> usize {
        self.registry.read().len()
    }
}

/// Probes `index` with the most selective constant/bound-atom constraint
/// of a tuple member formula. Constant atoms probe by reference — no clone
/// on the hot path.
fn probe_best(
    index: &SetIndex,
    entries: &[(Attr, Formula)],
    bindings: &dyn Fn(Var) -> Option<Object>,
    policy: MatchPolicy,
) -> Option<Vec<usize>> {
    let mut best: Option<&[usize]> = None;
    for (a, f) in entries {
        let hits = match f {
            Formula::Atom(atom) => Some(index.probe(*a, atom)),
            Formula::Var(v) if policy == MatchPolicy::Strict => {
                match bindings(*v) {
                    // Only an *atomic* binding pins the element's value:
                    // σX already = that atom, and shrinking to ⊥ prunes
                    // under Strict.
                    Some(Object::Atom(atom)) => Some(index.probe(*a, &atom)),
                    _ => None,
                }
            }
            _ => None,
        };
        if let Some(hits) = hits {
            if best.map(|b| hits.len() < b.len()).unwrap_or(true) {
                best = Some(hits);
            }
        }
    }
    best.map(|b| b.to_vec())
}

impl Prefilter for IndexedPrefilter {
    fn candidates(
        &self,
        set: &Set,
        member: &Formula,
        bindings: &dyn Fn(Var) -> Option<Object>,
    ) -> Option<Vec<usize>> {
        let Formula::Tuple(entries) = member else {
            return None;
        };
        // Fast path: shared-lock probe of an already-built index — the
        // steady state once the first iteration has indexed the large
        // sets. Workers of a parallel round run this concurrently.
        {
            let registry = self.registry.read();
            // Early out for small sets *here*, not just inside
            // `existing`: otherwise every probe of a below-threshold set
            // would fall through to the exclusive-lock build path below.
            if set.len() < registry.min_set_len {
                return None;
            }
            if let Some(index) = registry.existing(set) {
                return probe_best(index, entries, bindings, self.policy);
            }
        }
        // Miss: build (or lose the race to another builder — `index_for`
        // re-checks under the exclusive lock) and probe.
        let mut registry = self.registry.write();
        let index = registry.index_for(set)?;
        probe_best(index, entries, bindings, self.policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_calculus::{match_with, matches, wff};
    use co_object::obj;

    fn x() -> Var {
        Var::new("X")
    }
    fn y() -> Var {
        Var::new("Y")
    }

    fn big_relation(n: i64) -> Object {
        Object::set((0..n).map(|i| {
            Object::tuple([
                (Attr::new("k"), Object::int(i)),
                (Attr::new("v"), Object::int(i % 10)),
            ])
        }))
    }

    #[test]
    fn set_index_probes_exactly() {
        let rel = big_relation(100);
        let idx = SetIndex::build(rel.as_set().unwrap());
        let hits = idx.probe(Attr::new("v"), &Atom::Int(3));
        assert_eq!(hits.len(), 10);
        for &i in hits {
            assert_eq!(
                rel.as_set().unwrap().elements()[i].dot("v"),
                &Object::int(3)
            );
        }
        assert!(idx.probe(Attr::new("v"), &Atom::Int(99)).is_empty());
        assert!(idx.keys() > 0);
    }

    #[test]
    fn columnar_built_index_matches_element_scan() {
        // 200 rows is past the default arena threshold, so this index is
        // built column-major; every probe must still return exactly the
        // element positions a scan would.
        let rel = big_relation(200);
        let set = rel.as_set().unwrap();
        assert!(
            co_object::columnar::arena_for(set).is_some(),
            "expected the arena fast path to be exercised"
        );
        let idx = SetIndex::build(set);
        for attr in [Attr::new("k"), Attr::new("v")] {
            for value in 0..10 {
                let atom = Atom::Int(value);
                let expected: Vec<usize> = set
                    .elements()
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.dot(attr) == &Object::Atom(atom.clone()))
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(idx.probe(attr, &atom), expected.as_slice());
            }
        }
    }

    #[test]
    fn registry_reuses_indexes_by_node_id() {
        let rel = big_relation(50);
        let set = rel.as_set().unwrap();
        let mut reg = IndexRegistry::new();
        let p1 = reg.index_for(set).unwrap() as *const SetIndex;
        let p2 = reg.index_for(set).unwrap() as *const SetIndex;
        assert_eq!(p1, p2);
        assert_eq!(reg.len(), 1);
        // Clones share the interned node — same index.
        let rel2 = rel.clone();
        reg.index_for(rel2.as_set().unwrap()).unwrap();
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn registry_reuses_indexes_across_rederivation() {
        // The same *value* built twice through independent constructor
        // calls (as semi-naive iterations do) interns to one node and
        // therefore hits one index — the robustness the pointer-keyed
        // scheme lacked.
        let mut reg = IndexRegistry::new();
        let rel1 = big_relation(50);
        reg.index_for(rel1.as_set().unwrap()).unwrap();
        let rel2 = big_relation(50);
        assert_eq!(
            rel1.as_set().unwrap().node_id(),
            rel2.as_set().unwrap().node_id()
        );
        reg.index_for(rel2.as_set().unwrap()).unwrap();
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn small_sets_are_not_indexed() {
        let rel = big_relation(4);
        let mut reg = IndexRegistry::new();
        assert!(reg.index_for(rel.as_set().unwrap()).is_none());
        assert!(reg.is_empty());
    }

    #[test]
    fn retain_reachable_evicts_dead_indexes() {
        let rel = big_relation(50);
        let mut reg = IndexRegistry::new();
        reg.index_for(rel.as_set().unwrap()).unwrap();
        assert_eq!(reg.len(), 1);
        let other_db = obj!([r: {1}]);
        reg.retain_reachable(&other_db);
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn indexed_matching_agrees_with_scanning() {
        let db = Object::tuple([(Attr::new("r"), big_relation(200))]);
        let f = wff!([r: {[v: 3, k: (x())]}]);
        let scan = matches(&f, &db, MatchPolicy::Strict);
        let pf = IndexedPrefilter::new(MatchPolicy::Strict);
        let (indexed, stats) = match_with(&f, &db, MatchPolicy::Strict, &pf);
        assert_eq!(scan, indexed);
        // The index probe must try far fewer candidates than the scan.
        assert!(
            stats.candidates_tried <= 20,
            "tried {}",
            stats.candidates_tried
        );
    }

    #[test]
    fn indexed_join_with_bound_variable_agrees() {
        let db = Object::tuple([
            (Attr::new("r1"), big_relation(100)),
            (Attr::new("r2"), big_relation(100)),
        ]);
        // Y is bound by the first member before the second is matched.
        let f = wff!([r1: {[k: 5, v: (y())]}, r2: {[v: (y()), k: (x())]}]);
        let scan = matches(&f, &db, MatchPolicy::Strict);
        let pf = IndexedPrefilter::new(MatchPolicy::Strict);
        let (indexed, _) = match_with(&f, &db, MatchPolicy::Strict, &pf);
        assert_eq!(scan, indexed);
        assert!(!indexed.is_empty());
    }

    #[test]
    fn literal_policy_skips_bound_variable_probes() {
        // Under Literal, Y↦⊥ joins must survive: the prefilter may only use
        // constant constraints. Equivalence is the requirement.
        let db = Object::tuple([
            (Attr::new("r1"), big_relation(60)),
            (Attr::new("r2"), big_relation(60)),
        ]);
        let f = wff!([r1: {[k: 5, v: (y())]}, r2: {[v: (y()), k: (x())]}]);
        let scan = matches(&f, &db, MatchPolicy::Literal);
        let pf = IndexedPrefilter::new(MatchPolicy::Literal);
        let (indexed, _) = match_with(&f, &db, MatchPolicy::Literal, &pf);
        assert_eq!(scan, indexed);
    }

    #[test]
    fn non_tuple_members_fall_back_to_scan() {
        let db = Object::tuple([(Attr::new("r"), big_relation(50))]);
        let f = wff!([r: {(x())}]);
        let pf = IndexedPrefilter::new(MatchPolicy::Strict);
        let (indexed, _) = match_with(&f, &db, MatchPolicy::Strict, &pf);
        assert_eq!(indexed.len(), 50);
    }
}

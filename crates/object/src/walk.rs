//! Child-walk helpers over the object graph.
//!
//! Interned objects form a DAG: canonically-equal subtrees are one shared
//! node (see [`crate::store`]). Consumers that serialize, analyze, or
//! otherwise traverse that DAG — the `co-wire` snapshot writer is the
//! canonical example — need two stable primitives:
//!
//! - [`Object::children`] — the immediate sub-objects of a composite, in
//!   canonical order (tuple entries by attribute id, set elements by the
//!   canonical total order);
//! - [`visit_unique_postorder`] — every **distinct** composite node
//!   reachable from a set of roots, children strictly before parents,
//!   each node exactly once regardless of how often it is shared.
//!
//! Both are cheap: children iterate borrowed slices, and the unique walk
//! deduplicates on [`NodeId`], so a deeply shared structure is traversed
//! in time proportional to its *node count*, not its tree expansion.
//!
//! The walk borrows rather than clones: its callback receives
//! `&'a Object`, a reference with the lifetime of the roots. Every node
//! reachable from a root lives at least as long as the root (its
//! ancestors hold it), so a consumer can collect the visited nodes as
//! `Vec<&'a Object>` — no `Arc` bump per node — and keep them while the
//! roots are alive.

use crate::store::NodeId;
use crate::{Attr, Object};
use rustc_hash::FxHashSet;

/// Iterator over the immediate sub-objects of an object, in canonical
/// order. Atoms, ⊥, and ⊤ have no children. See [`Object::children`].
pub struct Children<'a> {
    inner: ChildrenInner<'a>,
}

enum ChildrenInner<'a> {
    None,
    Tuple(std::slice::Iter<'a, (Attr, Object)>),
    Set(std::slice::Iter<'a, Object>),
}

impl<'a> Iterator for Children<'a> {
    type Item = &'a Object;

    fn next(&mut self) -> Option<&'a Object> {
        match &mut self.inner {
            ChildrenInner::None => None,
            ChildrenInner::Tuple(it) => it.next().map(|(_, o)| o),
            ChildrenInner::Set(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            ChildrenInner::None => (0, Some(0)),
            ChildrenInner::Tuple(it) => it.size_hint(),
            ChildrenInner::Set(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for Children<'_> {}

impl Object {
    /// Iterates the immediate sub-objects of this object in canonical
    /// order: tuple values by attribute id, set elements by the canonical
    /// total order. Atoms, ⊥, and ⊤ yield nothing.
    ///
    /// ```
    /// use co_object::obj;
    ///
    /// let o = obj!([a: 1, b: {2, 3}]);
    /// let kinds: Vec<_> = o.children().map(|c| c.kind_name()).collect();
    /// assert_eq!(kinds, ["atom", "set"]);
    /// ```
    pub fn children(&self) -> Children<'_> {
        let inner = match self {
            Object::Tuple(t) => ChildrenInner::Tuple(t.entries().iter()),
            Object::Set(s) => ChildrenInner::Set(s.elements().iter()),
            _ => ChildrenInner::None,
        };
        Children { inner }
    }
}

/// Visits every **distinct** composite (tuple/set) node reachable from
/// `roots`, in a postorder: a node's composite children are always visited
/// before the node itself, and each node is visited exactly once even when
/// it is shared by many parents (or repeated across roots).
///
/// This is precisely the order a serializer needs to emit a
/// topologically-ordered node table in one pass — every child reference
/// points backwards. Atom/⊥/⊤ roots contribute nothing.
///
/// ```
/// use co_object::{obj, walk::visit_unique_postorder};
///
/// let shared = obj!({1, 2});
/// let a = obj!([left: {1, 2}, right: {1, 2}]);
/// let mut seen = Vec::new();
/// visit_unique_postorder([&a, &shared], |o| seen.push(o.clone()));
/// // The shared set appears once, before its parent tuple.
/// assert_eq!(seen, vec![shared, a]);
/// ```
pub fn visit_unique_postorder<'a, I, F>(roots: I, visit: F)
where
    I: IntoIterator<Item = &'a Object>,
    F: FnMut(&'a Object),
{
    visit_unique_postorder_pruned(roots, |_| false, visit)
}

/// [`visit_unique_postorder`] with a prune predicate: any composite for
/// which `prune` returns `true` is neither visited nor descended into —
/// its entire subtree is cut off (unless some part of it is also
/// reachable through a non-pruned path).
///
/// This is the primitive a **delta** serializer needs: pruning on
/// "`NodeId` is already in the base snapshot" enumerates exactly the
/// nodes the base lacks. Because every snapshot is closed under children
/// (a node's descendants are always written with it), a base-resident
/// node can never shadow a missing descendant, so the pruned walk is
/// complete — and it runs in O(new nodes), not O(reachable nodes).
///
/// ```
/// use co_object::{obj, walk::visit_unique_postorder_pruned};
///
/// let old = obj!({1, 2});
/// let db = obj!([stale: {1, 2}, fresh: {3}]);
/// let base = old.node_id().unwrap();
/// let mut new_nodes = Vec::new();
/// visit_unique_postorder_pruned([&db], |id| id == base, |o| {
///     new_nodes.push(o.clone())
/// });
/// // Only the fresh set and the wrapper tuple are new.
/// assert_eq!(new_nodes, vec![obj!({3}), db.clone()]);
/// ```
pub fn visit_unique_postorder_pruned<'a, I, P, F>(roots: I, mut prune: P, mut visit: F)
where
    I: IntoIterator<Item = &'a Object>,
    P: FnMut(NodeId) -> bool,
    F: FnMut(&'a Object),
{
    let mut seen: FxHashSet<NodeId> = FxHashSet::default();
    // Marks `o` seen and asks the predicate — at most once per distinct
    // node, however shared it is. True when the walk should descend.
    let mut enter = |o: &Object| o.node_id().is_some_and(|id| seen.insert(id) && !prune(id));
    // Explicit stack of entered nodes and their not-yet-walked children:
    // every child borrows from its parent, which borrows from a root, so
    // the walk neither clones a handle nor buffers a child list.
    let mut stack: Vec<(&'a Object, Children<'a>)> = Vec::new();
    for root in roots {
        if enter(root) {
            stack.push((root, root.children()));
        }
        while let Some((_, children)) = stack.last_mut() {
            match children.next() {
                // Canonical-order children are entered first. Any
                // postorder is topological, but snapshot bytes follow
                // this order, so it is part of the format.
                Some(child) => {
                    if enter(child) {
                        stack.push((child, child.children()));
                    }
                }
                None => {
                    let (o, _) = stack.pop().expect("the stack is non-empty");
                    visit(o);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obj;

    #[test]
    fn children_of_leaves_are_empty() {
        assert_eq!(obj!(5).children().count(), 0);
        assert_eq!(Object::Bottom.children().count(), 0);
        assert_eq!(Object::Top.children().count(), 0);
    }

    #[test]
    fn children_follow_canonical_order() {
        let o = obj!([b: 2, a: 1]);
        let vals: Vec<_> = o.children().cloned().collect();
        // Entries are sorted by attribute id (a interned before b in this
        // test's literal, but order is by id — compare against entries()).
        let expected: Vec<_> = o
            .as_tuple()
            .unwrap()
            .entries()
            .iter()
            .map(|(_, v)| v.clone())
            .collect();
        assert_eq!(vals, expected);
        assert_eq!(o.children().len(), 2);
    }

    #[test]
    fn postorder_emits_children_before_parents_once() {
        let leaf = obj!({1, 2});
        let mid = obj!([x: {1, 2}]);
        let top = obj!({[x: {1, 2}], {1, 2}});
        let mut order: Vec<Object> = Vec::new();
        visit_unique_postorder([&top], |o| order.push(o.clone()));
        // Every distinct node once…
        assert_eq!(order.len(), 3);
        // …children strictly before parents.
        let pos = |o: &Object| order.iter().position(|x| x == o).unwrap();
        assert!(pos(&leaf) < pos(&mid));
        assert!(pos(&mid) < pos(&top));
        assert!(pos(&leaf) < pos(&top));
    }

    #[test]
    fn postorder_dedups_across_roots() {
        let a = obj!({1, 2});
        let b = obj!([k: {1, 2}]);
        let mut count = 0;
        visit_unique_postorder([&a, &b, &a], |_| count += 1);
        assert_eq!(count, 2); // the set node + the tuple node
    }

    #[test]
    fn pruned_walk_skips_whole_subtrees_but_keeps_shared_survivors() {
        // base: {1, 2} and its wrapper [k: {1, 2}] — a closed id-set.
        let leaf = obj!({1, 2});
        let wrapped = obj!([k: {1, 2}]);
        let base: Vec<_> = [&leaf, &wrapped]
            .iter()
            .map(|o| o.node_id().unwrap())
            .collect();
        // New structure referencing the base leaf and a fresh set.
        let db = obj!({[k: {1, 2}], [fresh: {3, 4}]});
        let mut new_nodes = Vec::new();
        visit_unique_postorder_pruned(
            [&db],
            |id| base.contains(&id),
            |o| new_nodes.push(o.clone()),
        );
        // The base leaf and wrapper are pruned; only {3,4}, its wrapper
        // tuple, and the outer set are new — children before parents.
        assert_eq!(new_nodes.len(), 3);
        assert_eq!(new_nodes[0], obj!({3, 4}));
        assert_eq!(new_nodes[2], db);
        assert!(!new_nodes.contains(&leaf));
        assert!(!new_nodes.contains(&wrapped));
    }

    #[test]
    fn pruned_walk_on_an_exponential_tower_is_linear_in_new_nodes() {
        // Base: a 30-level tower. New: 10 more levels on top. The pruned
        // walk must touch only the 10 new nodes, not re-enumerate the 31
        // base nodes (let alone the 2^40 tree expansion).
        let mut level = obj!({ 1 });
        let mut base_ids = Vec::new();
        base_ids.push(level.node_id().unwrap());
        for _ in 0..30 {
            level = Object::tuple([("l", level.clone()), ("r", level)]);
            base_ids.push(level.node_id().unwrap());
        }
        let base_set: std::collections::HashSet<_> = base_ids.into_iter().collect();
        for _ in 0..10 {
            level = Object::tuple([("l", level.clone()), ("r", level)]);
        }
        let mut count = 0u64;
        visit_unique_postorder_pruned([&level], |id| base_set.contains(&id), |_| count += 1);
        assert_eq!(count, 10);
    }

    #[test]
    fn deeply_shared_structure_is_linear_in_nodes() {
        // A tower where each level contains the previous twice: 2^n tree
        // expansion, n + 1 distinct nodes.
        let mut level = obj!({ 1 });
        for i in 0..40 {
            level = Object::tuple([("l", level.clone()), ("r", level), ("tag", obj!((i)))]);
        }
        let mut count = 0u64;
        visit_unique_postorder([&level], |_| count += 1);
        assert_eq!(count, 41);
    }
}

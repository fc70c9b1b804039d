//! The borrowing unique-postorder walk against a plain recursive
//! reference: on random DAGs with heavy sharing, with and without a
//! prune predicate, both must yield the same nodes in the same order.

use co_object::walk::{visit_unique_postorder, visit_unique_postorder_pruned};
use co_object::{Attr, NodeId, Object};
use proptest::prelude::*;
use rustc_hash::FxHashSet;

/// The reference: recursive descent, children in canonical order, each
/// distinct node entered once; a pruned node is neither visited nor
/// descended into.
fn reference<'a>(
    o: &'a Object,
    prune: &dyn Fn(NodeId) -> bool,
    seen: &mut FxHashSet<NodeId>,
    out: &mut Vec<&'a Object>,
) {
    let Some(id) = o.node_id() else { return };
    if !seen.insert(id) || prune(id) {
        return;
    }
    for child in o.children() {
        reference(child, prune, seen, out);
    }
    out.push(o);
}

/// Random roots over a shared pool: every new composite draws its
/// children from everything built so far, so nodes are shared by many
/// parents and across roots.
fn shared_dag(seed: u64, composites: usize) -> Vec<Object> {
    // SplitMix64, drawing `below(n)` in `0..n`.
    let mut state = seed;
    let mut below = |n: usize| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    let attrs: Vec<Attr> = (0..5).map(|i| Attr::new(format!("walk_a{i}"))).collect();
    let mut pool: Vec<Object> = (0..6).map(Object::int).collect();
    for _ in 0..composites {
        let width = below(5);
        let picks: Vec<Object> = (0..width)
            .map(|_| pool[below(pool.len())].clone())
            .collect();
        let o = if below(2) == 0 {
            Object::set(picks)
        } else {
            Object::tuple(attrs.iter().copied().zip(picks))
        };
        pool.push(o);
    }
    (0..1 + below(4))
        .map(|_| pool[below(pool.len())].clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn borrowing_walk_matches_the_recursive_reference(
        seed in any::<u64>(),
        composites in 1usize..60,
        prune_mod in 0u64..5,
    ) {
        let roots = shared_dag(seed, composites);
        // `prune_mod == 0` prunes nothing; otherwise roughly one node in
        // `prune_mod` is cut off with its subtree.
        let prune = |id: NodeId| prune_mod > 0 && id.get().is_multiple_of(prune_mod);

        let mut expected = Vec::new();
        let mut seen = FxHashSet::default();
        for root in &roots {
            reference(root, &prune, &mut seen, &mut expected);
        }
        let mut walked: Vec<&Object> = Vec::new();
        visit_unique_postorder_pruned(roots.iter(), prune, |o| walked.push(o));
        prop_assert_eq!(&walked, &expected);

        let mut expected = Vec::new();
        let mut seen = FxHashSet::default();
        for root in &roots {
            reference(root, &|_| false, &mut seen, &mut expected);
        }
        let mut walked: Vec<&Object> = Vec::new();
        visit_unique_postorder(roots.iter(), |o| walked.push(o));
        prop_assert_eq!(walked, expected);
    }
}

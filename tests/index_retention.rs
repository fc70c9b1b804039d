//! Index retention prunes small subtrees: `IndexRegistry::retain_reachable`
//! skips every subtree whose cached `max_fanout` is below the registry's
//! `min_set_len`, and must still keep exactly the indexes an unpruned walk
//! of the database keeps.

use co_engine::index::IndexRegistry;
use co_object::random::{Generator, Profile};
use co_object::{NodeId, Object};
use proptest::prelude::*;
use std::collections::HashSet;

/// Every set in the tree expansion of `o`, found without consulting any
/// cached metadata.
fn all_sets(o: &Object, out: &mut Vec<Object>) {
    if matches!(o, Object::Set(_)) {
        out.push(o.clone());
    }
    for child in o.children() {
        all_sets(child, out);
    }
}

fn nested_db(gen: &mut Generator) -> Object {
    Object::tuple([("live", gen.object()), ("more", gen.object())])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pruned_retention_keeps_exactly_the_reachable_indexes(
        seed in any::<u64>(),
        min_set_len in 2usize..6,
    ) {
        let profile = Profile {
            max_depth: 5,
            max_fanout: 7,
            attr_pool: 6,
            atom_pool: 20,
            set_bias: 0.6,
        };
        let mut gen = Generator::new(seed, profile);
        let db = nested_db(&mut gen);
        let gone = nested_db(&mut gen);

        // Index every large-enough set of the current and a superseded
        // database, as matching over both rounds would have.
        let mut reg = IndexRegistry::new();
        reg.min_set_len = min_set_len;
        let mut candidates = Vec::new();
        all_sets(&db, &mut candidates);
        all_sets(&gone, &mut candidates);
        for set in &candidates {
            reg.index_for(set.as_set().unwrap());
        }

        let mut reachable = Vec::new();
        all_sets(&db, &mut reachable);
        let reachable: HashSet<NodeId> = reachable.iter().filter_map(Object::node_id).collect();
        let expected: HashSet<NodeId> = candidates
            .iter()
            .filter(|s| s.as_set().unwrap().len() >= min_set_len)
            .filter_map(Object::node_id)
            .filter(|id| reachable.contains(id))
            .collect();

        reg.retain_reachable(&db);
        prop_assert_eq!(reg.len(), expected.len());
        for set in &candidates {
            let kept = reg.existing(set.as_set().unwrap()).is_some();
            prop_assert_eq!(kept, expected.contains(&set.node_id().unwrap()));
        }
    }
}

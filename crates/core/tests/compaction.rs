//! Properties of `HenkinVector::compact_small_functions`, the rebuild of
//! small functions from their truth tables that Manthan3 applies to every
//! realized vector after `substitute_down`.
//!
//! Random vectors are built the way Manthan3 builds them: candidates over
//! universal inputs and earlier outputs, expanded by `substitute_down`, so
//! later cones inline earlier ones. Compaction must keep every function's
//! exact truth table, never grow a cone, only shrink supports, and leave
//! functions over more than eight inputs alone. On the full-observation
//! controllers it must shrink Manthan3's vectors and keep them certified.

use manthan3_aig::{AigRef, ShannonMemo, MAX_TRUTH_TABLE_INPUTS};
use manthan3_cnf::Var;
use manthan3_core::{Manthan3, Manthan3Config, SynthesisOutcome};
use manthan3_dqbf::{verify, HenkinVector};
use manthan3_gen::controller::{controller, ControllerParams};
use proptest::prelude::*;

/// Universal inputs use labels `0..n`; output `k` is `Var(OUTPUTS + k)`.
const OUTPUTS: u32 = 32;

/// One random gate: `(operator, left pick, right pick, complement bits)`.
type Gate = (u8, usize, usize, u8);

/// Builds a vector of `outputs` functions over `inputs` universal inputs.
/// Each output's candidate is a random gate network over the inputs and the
/// earlier outputs; `substitute_down` then inlines the earlier cones.
fn random_vector(inputs: usize, outputs: &[Vec<Gate>]) -> HenkinVector {
    let mut v = HenkinVector::new();
    let order: Vec<Var> = (0..outputs.len() as u32)
        .map(|k| Var::new(OUTPUTS + k))
        .collect();
    for (k, gates) in outputs.iter().enumerate() {
        let mut pool: Vec<AigRef> = (0..inputs).map(|i| v.aig_mut().input(i)).collect();
        pool.extend(order[..k].iter().map(|y| v.aig_mut().input(y.index())));
        for &(op, i, j, negs) in gates {
            let mut a = pool[i % pool.len()];
            let mut b = pool[j % pool.len()];
            if negs & 1 == 1 {
                a = !a;
            }
            if negs & 2 == 2 {
                b = !b;
            }
            let aig = v.aig_mut();
            let g = match op % 3 {
                0 => aig.and(a, b),
                1 => aig.or(a, b),
                _ => aig.xor(a, b),
            };
            pool.push(g);
        }
        // invariant: the pool always holds at least the inputs.
        let root = *pool.last().expect("non-empty pool");
        v.set(order[k], root);
    }
    v.substitute_down(&order);
    v
}

/// The function's values on every assignment of the universal inputs.
fn exhaustive_table(v: &HenkinVector, y: Var, inputs: usize) -> Vec<bool> {
    (0..1usize << inputs)
        .map(|row| {
            let values: Vec<bool> = (0..inputs).map(|i| row >> i & 1 == 1).collect();
            // invariant: every output of the vector is defined.
            v.eval_one(y, &values).expect("defined output")
        })
        .collect()
}

fn gates() -> impl Strategy<Value = Vec<Gate>> {
    collection::vec((0u8..3, 0usize..1024, 0usize..1024, 0u8..4), 1..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compaction_keeps_semantics_and_never_grows(
        inputs in 1usize..=10,
        outputs in collection::vec(gates(), 1..5),
    ) {
        let before = random_vector(inputs, &outputs);
        let mut after = before.clone();
        after.compact_small_functions();
        prop_assert_eq!(after.len(), before.len());
        for (&y, &old) in before.functions() {
            // invariant: compaction keeps every output defined.
            let new = after.get(y).expect("output kept");
            prop_assert!(
                exhaustive_table(&after, y, inputs) == exhaustive_table(&before, y, inputs),
                "{:?} changed its truth table", y
            );
            prop_assert!(
                after.aig().cone_size(new) <= before.aig().cone_size(old),
                "{:?} grew from {} to {} gates",
                y, before.aig().cone_size(old), after.aig().cone_size(new)
            );
            let old_support = before.aig().support(old);
            let new_support = after.aig().support(new);
            prop_assert!(
                new_support.iter().all(|label| old_support.contains(label)),
                "{:?} support {:?} is not within {:?}", y, new_support, old_support
            );
            if old_support.len() > MAX_TRUTH_TABLE_INPUTS {
                prop_assert!(new == old, "{:?} over {} inputs was rebuilt", y, old_support.len());
            } else {
                // The rebuild is exact whether or not compaction keeps it.
                let mut aig = before.aig().clone();
                let table = aig.truth_table(old, &old_support);
                let rebuilt = aig.from_truth_table(table, &old_support, &mut ShannonMemo::default());
                for row in 0..1usize << inputs {
                    let values: Vec<bool> = (0..inputs).map(|i| row >> i & 1 == 1).collect();
                    prop_assert!(
                        aig.eval(rebuilt, &values) == aig.eval(old, &values),
                        "the rebuild of {:?} differs in row {}", y, row
                    );
                }
            }
        }
        prop_assert!(after.total_size() <= before.total_size());
    }
}

#[test]
fn compacted_controller_vectors_are_certified_and_smaller() {
    for k in 5..=8 {
        let params = ControllerParams {
            num_clients: k,
            observation_window: k,
        };
        let instance = controller(&params, 1);
        let result = Manthan3::new(Manthan3Config::default()).synthesize(&instance.dqbf);
        let SynthesisOutcome::Realizable(vector) = result.outcome else {
            panic!(
                "controller_k{k}: expected Realizable, got {:?}",
                result.outcome
            );
        };
        assert!(
            verify::check(&instance.dqbf, &vector).is_valid(),
            "controller_k{k}: compacted vector fails the Lemma 1 check"
        );
        assert!(
            vector.total_size() < result.stats.expanded_size,
            "controller_k{k}: {} gates after compaction, {} before",
            vector.total_size(),
            result.stats.expanded_size
        );
    }
}

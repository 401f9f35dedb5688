//! The stress gate must catch — and shrink — every planted delta mutant,
//! and OptBSearch's planted bound mutant.
//!
//! This is the in-repo mirror of the CI planted-bug checks: for each of
//! the three delta-specific faults and the double-credited Lemma 3 bound
//! (with the machine's helper count and with three helpers forced on),
//! sweep the same seeded scenario space the stress binary uses (seed 42)
//! until the mutant diverges from the reference truth, then run the
//! greedy shrinker on the failing case and assert the minimal case still
//! fails. A mutant that survives the sweep, or a shrink that loses the
//! failure, means the conformance net has a hole.

use conformance::{check_case_with, scenario, shrink, Case, FaultyOracle, Mutation, Oracle};
use egobtw_core::opt_search::{opt_bsearch_with_fault, OptFault, OptParams};
use egobtw_graph::{CsrGraph, VertexId};

/// Sweeps seeded scenarios until the mutant is caught, then shrinks.
fn catch_and_shrink(mutation: Mutation) {
    catch_and_shrink_oracle(mutation, Box::new(FaultyOracle(mutation)));
}

fn catch_and_shrink_oracle(mutation: Mutation, oracle: Box<dyn Oracle>) {
    let oracles: Vec<Box<dyn Oracle>> = vec![oracle];
    // Same scenario space as `stress --seed 42 --budget 200`, but the
    // sweep stops at the first catch (debug builds run this in tier-1).
    let caught = (0..200).map(|idx| scenario(42, idx)).find_map(|case| {
        check_case_with(&case, &oracles)
            .err()
            .map(|mismatch| (case, mismatch))
    });
    let Some((case, mismatch)) = caught else {
        panic!("{mutation:?} survived 200 scenarios — the net has a hole");
    };
    assert!(
        mismatch.oracle.contains("mutant"),
        "{mutation:?}: unexpected oracle {}",
        mismatch.oracle
    );

    let fails = |c: &conformance::Case| check_case_with(c, &oracles).is_err();
    let minimal = shrink(&case, &fails, 8);
    assert!(fails(&minimal), "{mutation:?}: shrunk case no longer fails");
    assert!(
        minimal.weight() <= case.weight(),
        "{mutation:?}: shrinking grew the case"
    );
}

#[test]
fn stale_pair_on_delete_is_caught_and_shrunk() {
    catch_and_shrink(Mutation::DeltaStalePair);
}

#[test]
fn missed_ego_is_caught_and_shrunk() {
    catch_and_shrink(Mutation::DeltaMissedEgo);
}

#[test]
fn no_recert_is_caught_and_shrunk() {
    catch_and_shrink(Mutation::DeltaNoRecert);
}

#[test]
fn opt_double_credit_is_caught_and_shrunk() {
    catch_and_shrink(Mutation::OptDoubleCredit);
}

/// The double-credit mutant with three helper threads, whatever the
/// machine's CPU count: egos finishing out of order on other threads must
/// not hide the broken bound.
struct DoubleCreditWithHelpers;

impl Oracle for DoubleCreditWithHelpers {
    fn name(&self) -> String {
        "mutant::OptDoubleCredit(3 helpers)".into()
    }
    fn topk(&self, case: &Case, final_g: &CsrGraph) -> Vec<(VertexId, f64)> {
        opt_bsearch_with_fault(
            final_g,
            case.k,
            OptParams::default(),
            OptFault::DoubleCredit,
            Some(3),
        )
        .entries
    }
}

#[test]
fn opt_double_credit_with_helpers_is_caught_and_shrunk() {
    catch_and_shrink_oracle(Mutation::OptDoubleCredit, Box::new(DoubleCreditWithHelpers));
}

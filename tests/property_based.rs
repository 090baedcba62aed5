//! Property-based tests (proptest) over the core data structures and the
//! synthesis invariants.

use proptest::prelude::*;
use proptest::strategy::ValueTree;
use qudit_core::lowering::lower_circuit;
use qudit_core::{
    Circuit, Control, ControlPredicate, Dimension, Gate, Permutation, QuditId, SingleQuditOp,
};
use qudit_sim::basis::{all_basis_states, digits_to_index, index_to_digits};
use qudit_sim::circuit_permutation;
use qudit_sim::equivalence::{verify_mct_sampled, MctSpec};
use qudit_sim::SimBackend;
use qudit_synthesis::KToffoli;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a dimension between 3 and 7.
fn dimension_strategy() -> impl Strategy<Value = Dimension> {
    (3u32..=7).prop_map(|d| Dimension::new(d).unwrap())
}

/// Strategy: a random permutation table of the given length.
fn permutation_strategy(len: usize) -> impl Strategy<Value = Vec<u32>> {
    Just((0..len as u32).collect::<Vec<u32>>()).prop_shuffle()
}

/// Strategy: a random classical circuit over `width` qudits of dimension `d`
/// with up to `max_gates` singly-controlled gates.
fn classical_circuit_strategy(
    dimension: Dimension,
    width: usize,
    max_gates: usize,
) -> impl Strategy<Value = Circuit> {
    let d = dimension.get();
    let gate = (
        0..width,
        0..width,
        0u32..d,
        0u32..d,
        1u32..d,
        prop::sample::select(vec![0u8, 1, 2, 3]),
    )
        .prop_filter_map("distinct qudits", move |(t, c, i, j, y, kind)| {
            if t == c {
                return None;
            }
            let op = match kind {
                0 => {
                    if i == j {
                        return None;
                    }
                    SingleQuditOp::Swap(i, j)
                }
                1 => SingleQuditOp::Add(y),
                2 => {
                    if dimension.is_even() {
                        SingleQuditOp::ParityFlipEven
                    } else {
                        SingleQuditOp::ParityFlipOdd
                    }
                }
                _ => SingleQuditOp::Swap(0, (y).max(1)),
            };
            let predicate = match kind {
                0 => ControlPredicate::Level(i),
                1 => ControlPredicate::Odd,
                2 => ControlPredicate::EvenNonzero,
                _ => ControlPredicate::NonZero,
            };
            Some(Gate::controlled(
                op,
                QuditId::new(t),
                vec![Control::new(QuditId::new(c), predicate)],
            ))
        });
    prop::collection::vec(gate, 0..max_gates).prop_map(move |gates| {
        let mut circuit = Circuit::new(dimension, width);
        for gate in gates {
            circuit
                .push(gate)
                .expect("strategy only builds valid gates");
        }
        circuit
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Permutations compose with their inverses to the identity.
    #[test]
    fn permutation_inverse_roundtrip(table in permutation_strategy(6)) {
        let p = Permutation::from_map(table).unwrap();
        prop_assert!(p.compose(&p.inverse()).is_identity());
        prop_assert!(p.inverse().compose(&p).is_identity());
    }

    /// The transposition decomposition of a permutation rebuilds it.
    #[test]
    fn transposition_decomposition_rebuilds(table in permutation_strategy(7)) {
        let d = Dimension::new(7).unwrap();
        let p = Permutation::from_map(table).unwrap();
        let mut rebuilt = Permutation::identity(d);
        for (i, j) in p.transpositions() {
            rebuilt = Permutation::transposition(d, i, j).compose(&rebuilt);
        }
        prop_assert_eq!(rebuilt, p);
    }

    /// Mixed-radix indexing round-trips.
    #[test]
    fn basis_indexing_roundtrip(d in 2u32..=6, width in 1usize..=4, seed in 0usize..10_000) {
        let dimension = Dimension::new(d).unwrap();
        let size = dimension.register_size(width);
        let index = seed % size;
        let digits = index_to_digits(index, dimension, width);
        prop_assert_eq!(digits_to_index(&digits, dimension), index);
    }

    /// A random classical circuit composed with its inverse is the identity
    /// on every basis state.
    #[test]
    fn circuit_inverse_is_identity(
        dimension in dimension_strategy(),
        seed in any::<u64>(),
    ) {
        let circuit = {
            let mut runner = proptest::test_runner::TestRunner::new_with_rng(
                ProptestConfig::default(),
                proptest::test_runner::TestRng::from_seed(
                    proptest::test_runner::RngAlgorithm::ChaCha,
                    &seed.to_le_bytes().repeat(4)[..32],
                ),
            );
            classical_circuit_strategy(dimension, 3, 12)
                .new_tree(&mut runner)
                .unwrap()
                .current()
        };
        let mut combined = circuit.clone();
        combined.append(&circuit.inverse()).unwrap();
        for state in all_basis_states(dimension, 3) {
            prop_assert_eq!(combined.apply_to_basis(&state).unwrap(), state);
        }
    }

    /// Lowering a singly-controlled circuit to G-gates preserves its action.
    #[test]
    fn core_lowering_preserves_semantics(
        dimension in dimension_strategy(),
        seed in any::<u64>(),
    ) {
        let circuit = {
            let mut runner = proptest::test_runner::TestRunner::new_with_rng(
                ProptestConfig::default(),
                proptest::test_runner::TestRng::from_seed(
                    proptest::test_runner::RngAlgorithm::ChaCha,
                    &seed.to_le_bytes().repeat(4)[..32],
                ),
            );
            classical_circuit_strategy(dimension, 2, 8)
                .new_tree(&mut runner)
                .unwrap()
                .current()
        };
        let lowered = lower_circuit(&circuit).unwrap();
        prop_assert!(lowered.gates().iter().all(Gate::is_g_gate));
        prop_assert_eq!(
            circuit_permutation(&circuit).unwrap(),
            circuit_permutation(&lowered).unwrap()
        );
    }

    /// The synthesised k-Toffoli satisfies its specification on random
    /// inputs for arbitrary (d, k) pairs.
    #[test]
    fn toffoli_specification_holds_for_random_parameters(
        d in 3u32..=6,
        k in 1usize..=9,
        seed in any::<u64>(),
    ) {
        let dimension = Dimension::new(d).unwrap();
        let synthesis = KToffoli::new(dimension, k).unwrap().synthesize().unwrap();
        let spec = MctSpec::toffoli(synthesis.layout().controls.clone(), synthesis.layout().target);
        let mut rng = StdRng::seed_from_u64(seed);
        let verdict = verify_mct_sampled(synthesis.circuit(), &spec, 40, &mut rng, SimBackend::Auto).unwrap();
        prop_assert!(verdict.is_pass(), "{verdict:?}");
    }

    /// Ancilla policy invariant: odd dimensions are ancilla-free, even
    /// dimensions use exactly one borrowed ancilla (for k ≥ 2).
    #[test]
    fn ancilla_policy_matches_the_theorems(d in 3u32..=8, k in 2usize..=10) {
        let dimension = Dimension::new(d).unwrap();
        let synthesis = KToffoli::new(dimension, k).unwrap().synthesize().unwrap();
        let borrowed = synthesis.resources().borrowed_ancillas();
        if dimension.is_odd() {
            prop_assert_eq!(borrowed, 0);
        } else {
            prop_assert_eq!(borrowed, 1);
        }
        prop_assert_eq!(synthesis.resources().clean_ancillas(), 0);
    }
}

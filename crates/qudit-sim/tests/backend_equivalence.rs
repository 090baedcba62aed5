//! Property-based equivalence of the simulation backends: random circuits —
//! fully classical, mixed (classical prefix plus unitaries), and fully
//! non-classical — must produce *identical* final states under the dense,
//! sparse and auto backends, and the `VerifyEquivalence` pass must return
//! the same verdict whichever backend it simulates on.

use proptest::prelude::*;
use qudit_core::pipeline::{pass_fn, PassManager};
use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
use qudit_sim::pipeline::VerifyEquivalence;
use qudit_sim::random::random_single_qudit_unitary;
use qudit_sim::{basis, classical_prefix_len, simulate_basis, SimBackend};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The circuit families the properties quantify over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    /// Permutation gates only (the synthesis output shape).
    Classical,
    /// A classical prefix with unitaries sprinkled into the suffix.
    Mixed,
    /// A non-classical gate in (almost) every slot.
    Quantum,
}

/// Builds a deterministic random circuit of the given family from a list of
/// gate seeds.
fn build_circuit(dimension: Dimension, width: usize, family: Family, seeds: &[u64]) -> Circuit {
    let d = dimension.get();
    let mut circuit = Circuit::new(dimension, width);
    for (slot, &seed) in seeds.iter().enumerate() {
        let target = QuditId::new((seed % width as u64) as usize);
        let other = QuditId::new(((seed / 7 + 1) as usize % width.max(2)).min(width - 1));
        let control_qudit = if other == target {
            QuditId::new((target.index() + 1) % width)
        } else {
            other
        };
        let non_classical = match family {
            Family::Classical => false,
            // Keep the first third classical so the circuit has a real
            // classical prefix for the hybrid engine to exploit.
            Family::Mixed => seed % 3 == 0 && slot >= seeds.len() / 3,
            Family::Quantum => seed % 4 != 3,
        };
        let gate = if non_classical && width >= 1 {
            let mut rng = StdRng::seed_from_u64(seed);
            let unitary = SingleQuditOp::Unitary(random_single_qudit_unitary(dimension, &mut rng));
            if seed % 2 == 0 && width >= 2 {
                Gate::controlled(
                    unitary,
                    target,
                    vec![Control::level(
                        control_qudit,
                        (seed / 3 % u64::from(d)) as u32,
                    )],
                )
            } else {
                Gate::single(unitary, target)
            }
        } else {
            match seed % 4 {
                0 => Gate::single(SingleQuditOp::Add(1 + (seed / 5) as u32 % (d - 1)), target),
                1 => Gate::single(
                    SingleQuditOp::Swap(0, 1 + (seed / 5) as u32 % (d - 1)),
                    target,
                ),
                2 if width >= 2 => Gate::controlled(
                    SingleQuditOp::Add(1 + (seed / 11) as u32 % (d - 1)),
                    target,
                    vec![Control::level(
                        control_qudit,
                        (seed / 3 % u64::from(d)) as u32,
                    )],
                ),
                _ if width >= 2 => Gate::add_from(control_qudit, seed % 2 == 0, target, vec![]),
                _ => Gate::single(SingleQuditOp::Add(1), target),
            }
        };
        circuit.push(gate).expect("generated gates are valid");
    }
    circuit
}

fn any_family() -> impl Strategy<Value = Family> {
    (0u8..3).prop_map(|tag| match tag {
        0 => Family::Classical,
        1 => Family::Mixed,
        _ => Family::Quantum,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All three backends produce bit-identical final states on every basis
    /// input, for every circuit family.
    #[test]
    fn backends_agree_on_final_states(
        d in 3u32..=5,
        width in 2usize..=3,
        family in any_family(),
        seeds in prop::collection::vec(0u64..100_000, 1..24),
        input_picks in prop::collection::vec(0usize..10_000, 4),
    ) {
        let dimension = Dimension::new(d).unwrap();
        let circuit = build_circuit(dimension, width, family, &seeds);
        if family == Family::Classical {
            prop_assert!(circuit.is_classical());
            prop_assert_eq!(classical_prefix_len(&circuit), circuit.len());
        }
        let size = dimension.register_size(width);
        for pick in input_picks {
            let input = basis::index_to_digits(pick % size, dimension, width);
            let dense = simulate_basis(&circuit, &input, SimBackend::Dense).unwrap();
            let sparse = simulate_basis(&circuit, &input, SimBackend::Sparse).unwrap();
            let auto = simulate_basis(&circuit, &input, SimBackend::Auto).unwrap();
            prop_assert_eq!(&dense, &sparse, "sparse differs on {:?}", &input);
            prop_assert_eq!(&dense, &auto, "auto differs on {:?}", &input);
            // Sanity: the state stays normalised either way.
            prop_assert!((dense.norm_sqr() - 1.0).abs() < 1e-6);
        }
    }

    /// `VerifyEquivalence` returns the same verdict on every backend: a
    /// faithful (identity) pass passes everywhere, and an unfaithful pass
    /// (dropping the last gate) produces the same accept/reject decision on
    /// dense, sparse and auto.
    #[test]
    fn verify_equivalence_verdicts_match_across_backends(
        d in 3u32..=4,
        width in 2usize..=3,
        family in any_family(),
        seeds in prop::collection::vec(0u64..100_000, 1..12),
    ) {
        let dimension = Dimension::new(d).unwrap();
        let circuit = build_circuit(dimension, width, family, &seeds);

        let mut faithful = Vec::new();
        let mut unfaithful = Vec::new();
        for backend in [SimBackend::Dense, SimBackend::Sparse, SimBackend::Auto] {
            let identity = pass_fn("identity", Ok);
            let manager = PassManager::new()
                .with_pass(VerifyEquivalence::wrap(Box::new(identity), backend));
            faithful.push(manager.run(circuit.clone()).is_ok());

            let drop_last = pass_fn("drop-last", |c: Circuit| {
                let mut out = Circuit::new(c.dimension(), c.width());
                for gate in c.gates().iter().take(c.len().saturating_sub(1)) {
                    out.push(gate.clone())?;
                }
                Ok(out)
            });
            let manager = PassManager::new()
                .with_pass(VerifyEquivalence::wrap(Box::new(drop_last), backend));
            unfaithful.push(manager.run(circuit.clone()).is_ok());
        }
        // The identity pass must verify on every backend.
        prop_assert_eq!(faithful, vec![true, true, true]);
        // Whatever the drop-last verdict is, it must not depend on the
        // backend.
        prop_assert!(
            unfaithful.iter().all(|&ok| ok == unfaithful[0]),
            "verdicts diverged: {:?}",
            unfaithful
        );
    }
}

//! Differential test harness for the stabilizer verification backend.
//!
//! Random all-Clifford circuits over prime dimensions must agree with the
//! Dense and Sparse state-vector engines on final states (up to the
//! stabilizer representation's arbitrary global phase), on basis-state
//! probabilities, and on `VerifyEquivalence` verdicts — across worker pools
//! of 1 and 4 threads.  Non-Clifford gates must be rejected with the typed
//! `QuditError::NonClifford`, and the `Auto` backend must fall back to the
//! state-vector paths with an unchanged verdict on the E10 circuit family.

use proptest::prelude::*;
use qudit_core::math::{Complex, SquareMatrix};
use qudit_core::pipeline::{pass_fn, PassManager};
use qudit_core::pool::WorkStealingPool;
use qudit_core::{Circuit, Control, Dimension, Gate, QuditError, QuditId, SingleQuditOp};
use qudit_sim::basis::index_to_digits;
use qudit_sim::random::{random_clifford_circuit, random_single_qudit_unitary};
use qudit_sim::stabilizer::clifford_circuits_equal_on;
use qudit_sim::{
    classify_gate, clifford_circuits_equal, is_clifford_circuit, SimBackend, SimState, StateVector,
    VerifyEquivalence,
};
use qudit_synthesis::KToffoli;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dim(d: u32) -> Dimension {
    Dimension::new(d).unwrap()
}

/// Width cap per dimension keeping `d^width` small enough for the dense
/// reference (`2^10 = 1024`, `3^7 = 2187`, `5^5 = 3125`).
fn width_cap(d: u32) -> usize {
    match d {
        2 => 10,
        3 => 7,
        _ => 5,
    }
}

/// The qudit Fourier matrix — the canonical non-classical Clifford gate.
fn fourier(d: u32) -> SquareMatrix {
    let omega = 2.0 * std::f64::consts::PI / f64::from(d);
    let s = 1.0 / f64::from(d).sqrt();
    let mut entries = Vec::new();
    for r in 0..d {
        for c in 0..d {
            entries.push(Complex::from_phase(omega * f64::from(r * c)).scale(s));
        }
    }
    SquareMatrix::from_rows(d as usize, entries).unwrap()
}

/// Simulates `circuit` on a basis input through the given backend and
/// returns the final state vector.
fn final_state(circuit: &Circuit, input: &[u32], backend: SimBackend) -> StateVector {
    let mut state = SimState::from_basis(circuit.dimension(), input, backend).unwrap();
    state.apply_circuit(circuit).unwrap();
    state.into_statevector()
}

/// Runs `VerifyEquivalence` around a gate-dropping pass and reports whether
/// the verdict was "equivalent", on an explicit backend and pool width.
fn drop_last_verdict(circuit: &Circuit, backend: SimBackend, threads: usize) -> bool {
    let drop_last = pass_fn("drop-last", |c: Circuit| {
        let mut out = Circuit::new(c.dimension(), c.width());
        for gate in c.gates().iter().take(c.len().saturating_sub(1)) {
            out.push(gate.clone())?;
        }
        Ok(out)
    });
    let manager = PassManager::new()
        .with_pool(WorkStealingPool::with_threads(threads))
        .with_pass(VerifyEquivalence::wrap(Box::new(drop_last), backend));
    match manager.run(circuit.clone()) {
        Ok(_) => true,
        Err(QuditError::PassFailed { .. }) => false,
        Err(other) => panic!("unexpected error: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Final states of random Clifford circuits agree between the
    /// stabilizer engine and the Dense/Sparse engines on every overlapping
    /// width, up to global phase, and probabilities are thread-invariant.
    #[test]
    fn stabilizer_matches_dense_and_sparse_on_final_states(
        d in prop::sample::select(vec![2u32, 3, 5]),
        width_seed in 0usize..1000,
        seed in any::<u64>(),
    ) {
        let width = 1 + width_seed % width_cap(d);
        let dimension = dim(d);
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_clifford_circuit(dimension, width, 24, &mut rng);
        let size = dimension.register_size(width);
        let input = index_to_digits(seed as usize % size, dimension, width);

        let dense = final_state(&circuit, &input, SimBackend::Dense);
        let sparse = final_state(&circuit, &input, SimBackend::Sparse);
        prop_assert!(dense.fidelity(&sparse) > 1.0 - 1e-9);

        // The stabilizer state carries an arbitrary global phase, so the
        // state comparison is by fidelity; probabilities are phase-free and
        // must match the dense reference everywhere, exactly across thread
        // counts (the tableau arithmetic is integer-only).
        let mut probs_per_pool = Vec::new();
        for threads in [1usize, 4] {
            let pool = WorkStealingPool::with_threads(threads);
            let mut state =
                SimState::from_basis(dimension, &input, SimBackend::Stabilizer).unwrap();
            state.apply_circuit_on(&circuit, Some(&pool)).unwrap();
            let probs: Vec<f64> = (0..size)
                .map(|i| state.probability(&index_to_digits(i, dimension, width)))
                .collect();
            for (i, &p) in probs.iter().enumerate() {
                let reference = dense
                    .probability(&index_to_digits(i, dimension, width));
                prop_assert!(
                    (p - reference).abs() < 1e-9,
                    "threads={threads} state {i}: stabilizer {p} vs dense {reference}"
                );
            }
            let sv = state.into_statevector();
            prop_assert!(sv.fidelity(&dense) > 1.0 - 1e-9);
            probs_per_pool.push(probs);
        }
        prop_assert_eq!(&probs_per_pool[0], &probs_per_pool[1]);
    }

    /// `VerifyEquivalence` returns the same verdict on every backend and
    /// pool width for random Clifford circuits.
    #[test]
    fn verify_equivalence_verdicts_agree_across_backends(
        d in prop::sample::select(vec![2u32, 3, 5]),
        width_seed in 0usize..1000,
        seed in any::<u64>(),
    ) {
        let width = 1 + width_seed % width_cap(d);
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_clifford_circuit(dim(d), width, 12, &mut rng);

        // The identity pass passes everywhere.
        for backend in [
            SimBackend::Auto,
            SimBackend::Dense,
            SimBackend::Sparse,
            SimBackend::Stabilizer,
        ] {
            let identity = pass_fn("identity", Ok);
            let manager = PassManager::new()
                .with_pass(VerifyEquivalence::wrap(Box::new(identity), backend));
            prop_assert!(manager.run(circuit.clone()).is_ok(), "backend {backend}");
        }

        // Dropping the last gate may or may not preserve the operator (the
        // gate could be an identity permutation) — but the verdict must not
        // depend on the backend or the pool width.
        let reference = drop_last_verdict(&circuit, SimBackend::Dense, 1);
        for backend in [SimBackend::Auto, SimBackend::Sparse, SimBackend::Stabilizer] {
            for threads in [1usize, 4] {
                prop_assert_eq!(
                    drop_last_verdict(&circuit, backend, threads),
                    reference,
                    "backend {} threads {}", backend, threads
                );
            }
        }
    }
}

#[test]
fn non_clifford_repertoire_is_rejected_with_typed_errors() {
    let assert_non_clifford = |gate: Gate, dimension: Dimension, label: &str| {
        match classify_gate(&gate, dimension) {
            Err(QuditError::NonClifford { .. }) => {}
            other => panic!("{label}: expected NonClifford, got {other:?}"),
        }
        // The forced-stabilizer engine surfaces the same typed error
        // instead of panicking.
        let mut circuit = Circuit::new(dimension, 3);
        circuit
            .push(Gate::single(
                SingleQuditOp::Unitary(fourier(dimension.get())),
                QuditId::new(0),
            ))
            .unwrap();
        circuit.push(gate).unwrap();
        let mut state = SimState::from_basis(dimension, &[0; 3], SimBackend::Stabilizer).unwrap();
        match state.apply_circuit(&circuit) {
            Err(QuditError::NonClifford { .. }) => {}
            other => panic!("{label}: engine should reject, got {other:?}"),
        }
        assert!(!is_clifford_circuit(&circuit), "{label}");
    };

    // Level-controlled gates are block-diagonal with unequal blocks.
    assert_non_clifford(
        Gate::controlled(
            SingleQuditOp::Add(1),
            QuditId::new(1),
            vec![Control::level(QuditId::new(0), 1)],
        ),
        dim(3),
        "controlled add",
    );
    // Three-qudit support exceeds the classifier's arity.
    assert_non_clifford(
        Gate::add_from(
            QuditId::new(0),
            false,
            QuditId::new(1),
            vec![Control::level(QuditId::new(2), 1)],
        ),
        dim(3),
        "controlled SUM",
    );
    // A level transposition is not affine for d = 5.
    assert_non_clifford(
        Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(0)),
        dim(5),
        "transposition at d=5",
    );
    // A Haar-random unitary is (overwhelmingly, and for this seed:
    // verifiably) not a Clifford.
    let mut rng = StdRng::seed_from_u64(3);
    assert_non_clifford(
        Gate::single(
            SingleQuditOp::Unitary(random_single_qudit_unitary(dim(3), &mut rng)),
            QuditId::new(0),
        ),
        dim(3),
        "haar unitary",
    );
    // Composite dimensions have no stabilizer formalism at all.
    match classify_gate(
        &Gate::single(SingleQuditOp::Add(1), QuditId::new(0)),
        dim(4),
    ) {
        Err(QuditError::NonClifford { .. }) => {}
        other => panic!("composite dimension: expected NonClifford, got {other:?}"),
    }
}

#[test]
fn auto_falls_back_on_the_e10_family_with_unchanged_verdicts() {
    // The E10 sweep circuits (synthesised k-Toffolis) contain level-controlled
    // gates, so they are not Clifford: Auto must route them to the
    // state-vector engines and every backend must return the same verdict.
    for (d, k) in [(3u32, 2usize), (4, 2), (5, 2), (3, 3)] {
        let synthesis = KToffoli::new(dim(d), k).unwrap().synthesize().unwrap();
        let circuit = synthesis.circuit();
        assert!(!is_clifford_circuit(circuit), "d={d} k={k}");
        let resolved = SimBackend::Auto.resolve(circuit);
        assert!(
            matches!(resolved, SimBackend::Dense | SimBackend::Sparse),
            "d={d} k={k}: Auto must fall back, got {resolved}"
        );
        for backend in [
            SimBackend::Auto,
            SimBackend::Dense,
            SimBackend::Sparse,
            SimBackend::Stabilizer,
        ] {
            // Faithful pass: accepted.
            let identity = pass_fn("identity", Ok);
            let manager =
                PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(identity), backend));
            assert!(
                manager.run(circuit.clone()).is_ok(),
                "d={d} k={k} backend {backend}"
            );
            // Gate-dropping pass: rejected (a k-Toffoli is never a no-op).
            let drop_all = pass_fn("drop-all", |c: Circuit| {
                Ok(Circuit::new(c.dimension(), c.width()))
            });
            let manager =
                PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(drop_all), backend));
            assert!(
                matches!(
                    manager.run(circuit.clone()),
                    Err(QuditError::PassFailed { .. })
                ),
                "d={d} k={k} backend {backend}"
            );
        }
    }
}

#[test]
fn stabilizer_verifies_random_clifford_circuits_at_width_24() {
    // 3^24 ≈ 2.8·10¹¹ basis states: beyond every state-vector strategy.
    let dimension = dim(3);
    let width = 24;
    let mut rng = StdRng::seed_from_u64(17);
    let mut circuit = random_clifford_circuit(dimension, width, 96, &mut rng);
    // Pin a Fourier gate so the circuit is certainly non-classical and the
    // tableau branch (not the classical permutation sweep) is exercised.
    circuit
        .push(Gate::single(
            SingleQuditOp::Unitary(fourier(3)),
            QuditId::new(0),
        ))
        .unwrap();
    assert!(is_clifford_circuit(&circuit));
    assert_eq!(SimBackend::Auto.resolve(&circuit), SimBackend::Stabilizer);

    // Exact self-equivalence, on 1 and 4 worker threads.
    for threads in [1usize, 4] {
        let pool = WorkStealingPool::with_threads(threads);
        assert!(clifford_circuits_equal_on(&circuit, &circuit.clone(), Some(&pool)).unwrap());
    }
    // Tampering is detected.
    let mut tampered = circuit.clone();
    tampered
        .push(Gate::single(SingleQuditOp::Add(1), QuditId::new(5)))
        .unwrap();
    assert!(!clifford_circuits_equal(&circuit, &tampered).unwrap());

    // The same verdicts through the `VerifyEquivalence` pass.
    for backend in [SimBackend::Auto, SimBackend::Stabilizer] {
        for threads in [1usize, 4] {
            let identity = pass_fn("identity", Ok);
            let manager = PassManager::new()
                .with_pool(WorkStealingPool::with_threads(threads))
                .with_pass(VerifyEquivalence::wrap(Box::new(identity), backend));
            assert!(manager.run(circuit.clone()).is_ok());

            let drop_all = pass_fn("drop-all", |c: Circuit| {
                Ok(Circuit::new(c.dimension(), c.width()))
            });
            let manager = PassManager::new()
                .with_pool(WorkStealingPool::with_threads(threads))
                .with_pass(VerifyEquivalence::wrap(Box::new(drop_all), backend));
            match manager.run(circuit.clone()) {
                Err(QuditError::PassFailed { reason, .. }) => {
                    assert!(reason.contains("stabilizer"), "{reason}");
                }
                other => panic!("expected PassFailed, got {other:?}"),
            }
        }
    }

    // Probability queries stay cheap at width 24.
    let mut state =
        SimState::from_basis(dimension, &vec![0u32; width], SimBackend::Stabilizer).unwrap();
    state.apply_circuit(&circuit).unwrap();
    let dominant = state.dominant_basis_state();
    assert!(state.probability(&dominant) > 0.0);
}

#[test]
fn classical_prefix_with_clifford_suffix_promotes_at_width_24() {
    // The resolution crossover at scale: a circuit opening with classical
    // gates and closing with non-classical Clifford gates must pick the
    // stabilizer engine rather than densifying at the first unitary.
    let dimension = dim(3);
    let width = 24;
    let mut circuit = Circuit::new(dimension, width);
    for q in 0..width - 1 {
        circuit
            .push(Gate::add_from(
                QuditId::new(q),
                false,
                QuditId::new(q + 1),
                vec![],
            ))
            .unwrap();
    }
    circuit
        .push(Gate::single(
            SingleQuditOp::Unitary(fourier(3)),
            QuditId::new(width - 1),
        ))
        .unwrap();
    assert_eq!(SimBackend::Auto.resolve(&circuit), SimBackend::Stabilizer);

    let mut state =
        SimState::from_basis(dimension, &vec![1u32; width], SimBackend::Stabilizer).unwrap();
    state.apply_circuit(&circuit).unwrap();
    assert!(state.is_stabilizer());
    let dominant = state.dominant_basis_state();
    assert!(state.probability(&dominant) > 0.0);
}

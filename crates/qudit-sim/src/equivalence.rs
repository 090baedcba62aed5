//! Equivalence and specification checkers used to verify syntheses.
//!
//! The paper's constructions are verified functionally: a synthesised
//! circuit must implement its multi-controlled gate specification for every
//! computational basis state (borrowed-ancilla semantics) or for every basis
//! state with the clean ancilla in `|0⟩` (clean-ancilla semantics).

use qudit_core::math::MATRIX_TOLERANCE;
use qudit_core::{Circuit, Dimension, QuditId, Result, SingleQuditOp};
use rand::Rng;

use crate::basis::all_basis_states;
use crate::sparse::{circuit_unitary_with, SimBackend, SimState};

/// Specification of a multi-controlled gate `|0^k⟩-op`.
///
/// The circuit under test may be wider than `controls ∪ {target}`; every
/// additional qudit is treated as a borrowed ancilla and must be returned to
/// its initial state.
#[derive(Debug, Clone, PartialEq)]
pub struct MctSpec {
    /// The control qudits (all `|0⟩`-controls).
    pub controls: Vec<QuditId>,
    /// The target qudit.
    pub target: QuditId,
    /// The operation applied to the target when every control is `|0⟩`.
    pub op: SingleQuditOp,
}

impl MctSpec {
    /// Creates a specification for the k-Toffoli gate (`op = X01`).
    pub fn toffoli(controls: Vec<QuditId>, target: QuditId) -> Self {
        MctSpec {
            controls,
            target,
            op: SingleQuditOp::Swap(0, 1),
        }
    }

    /// Computes the expected output basis state for a given input.
    ///
    /// # Errors
    ///
    /// Returns an error if `op` is not classical.
    pub fn expected_output(&self, input: &[u32], dimension: Dimension) -> Result<Vec<u32>> {
        let mut output = input.to_vec();
        let all_zero = self.controls.iter().all(|c| input[c.index()] == 0);
        if all_zero {
            let t = self.target.index();
            output[t] = self.op.apply_level(output[t], dimension)?;
        }
        Ok(output)
    }
}

/// The outcome of a functional verification.
#[derive(Debug, Clone, PartialEq)]
pub enum Verification {
    /// Every checked input behaved as specified.
    Pass {
        /// Number of basis states checked.
        inputs_checked: usize,
    },
    /// Some input produced the wrong output.
    Fail {
        /// The offending input basis state.
        input: Vec<u32>,
        /// The expected output.
        expected: Vec<u32>,
        /// The output the circuit produced.
        actual: Vec<u32>,
    },
}

impl Verification {
    /// Returns `true` for a passing verification.
    pub fn is_pass(&self) -> bool {
        matches!(self, Verification::Pass { .. })
    }
}

/// The shared verification loop: for every generated input, compares the
/// spec's expected output against `actual_of(input, expected)`, which
/// returns the observed output digits on a mismatch and `None` on
/// agreement.
fn run_verification<I, F>(
    dimension: Dimension,
    spec: &MctSpec,
    inputs: I,
    mut actual_of: F,
) -> Result<Verification>
where
    I: IntoIterator<Item = Vec<u32>>,
    F: FnMut(&[u32], &[u32]) -> Result<Option<Vec<u32>>>,
{
    let mut checked = 0usize;
    for input in inputs {
        let expected = spec.expected_output(&input, dimension)?;
        if let Some(actual) = actual_of(&input, &expected)? {
            return Ok(Verification::Fail {
                input,
                expected,
                actual,
            });
        }
        checked += 1;
    }
    Ok(Verification::Pass {
        inputs_checked: checked,
    })
}

/// The per-input checker every verifier shares, selected by an observable
/// property of the circuit: a classical circuit propagates each basis state
/// directly (the cheapest exact check); any other circuit is simulated on
/// the engine `backend` resolves to, and the verdict is read off the final
/// state *without densifying it*.  This is the rule
/// [`VerifyEquivalence`](crate::VerifyEquivalence) follows too.
fn checker(
    circuit: &Circuit,
    backend: SimBackend,
) -> impl FnMut(&[u32], &[u32]) -> Result<Option<Vec<u32>>> + '_ {
    let engine = (!circuit.is_classical()).then(|| backend.resolve(circuit));
    move |input, expected| match engine {
        None => {
            let actual = circuit.apply_to_basis(input)?;
            Ok((actual != expected).then_some(actual))
        }
        Some(resolved) => {
            let mut state = SimState::from_basis(circuit.dimension(), input, resolved)?;
            state.apply_circuit(circuit)?;
            Ok((state.probability(expected) < 1.0 - 1e-9).then(|| state.dominant_basis_state()))
        }
    }
}

/// The random basis states the sampled verifiers check: uniform draws, with
/// every other sample biased onto all-zero controls so the "fire" branch is
/// exercised even for large k.
fn sampled_inputs<'a, R: Rng>(
    dimension: Dimension,
    width: usize,
    spec: &MctSpec,
    samples: usize,
    rng: &'a mut R,
) -> impl Iterator<Item = Vec<u32>> + 'a {
    let spec_controls: Vec<qudit_core::Control> = spec
        .controls
        .iter()
        .map(|&q| qudit_core::Control::zero(q))
        .collect();
    (0..samples).map(move |sample| {
        let mut input = crate::sampling::uniform_basis_state(dimension, width, rng);
        if sample % 2 == 0 {
            crate::sampling::force_controls_matching(&mut input, &spec_controls, dimension, rng);
        }
        input
    })
}

/// Exhaustively verifies that a circuit implements an [`MctSpec`] with
/// borrowed-ancilla semantics (every non-target qudit restored).
///
/// Classical circuits are checked by direct basis-state propagation; any
/// other circuit is simulated on the engine `backend` resolves to (`Auto`
/// picks one by scanning the circuit).
///
/// # Errors
///
/// Returns an error when the specification is non-classical or refers to
/// qudits outside the circuit.
pub fn verify_mct_exhaustive(
    circuit: &Circuit,
    spec: &MctSpec,
    backend: SimBackend,
) -> Result<Verification> {
    let dimension = circuit.dimension();
    run_verification(
        dimension,
        spec,
        all_basis_states(dimension, circuit.width()),
        checker(circuit, backend),
    )
}

/// [`verify_mct_exhaustive`] on `samples` random basis states.
///
/// Use this for registers too large for exhaustive checking.  For classical
/// circuits every sample costs `O(gates)` time and `O(width)` memory,
/// whatever the register size.
///
/// # Errors
///
/// Returns an error when the specification is non-classical or refers to
/// qudits outside the circuit.
pub fn verify_mct_sampled<R: Rng>(
    circuit: &Circuit,
    spec: &MctSpec,
    samples: usize,
    rng: &mut R,
    backend: SimBackend,
) -> Result<Verification> {
    let dimension = circuit.dimension();
    let inputs: Vec<Vec<u32>> =
        sampled_inputs(dimension, circuit.width(), spec, samples, rng).collect();
    run_verification(dimension, spec, inputs, checker(circuit, backend))
}

/// [`verify_mct_exhaustive`] for a circuit that uses one clean ancilla: only
/// inputs with the ancilla in `|0⟩` are checked, and the ancilla must be
/// returned to `|0⟩`.
///
/// # Errors
///
/// Returns an error when the specification is non-classical or refers to
/// qudits outside the circuit.
pub fn verify_mct_with_clean_ancilla(
    circuit: &Circuit,
    spec: &MctSpec,
    clean: QuditId,
    backend: SimBackend,
) -> Result<Verification> {
    let dimension = circuit.dimension();
    run_verification(
        dimension,
        spec,
        all_basis_states(dimension, circuit.width()).filter(|input| input[clean.index()] == 0),
        checker(circuit, backend),
    )
}

/// Checks that two circuits implement the same unitary up to global phase,
/// simulating on `backend`.
///
/// Under [`Auto`](SimBackend::Auto) or
/// [`Stabilizer`](SimBackend::Stabilizer), a pair of all-Clifford circuits
/// over a prime dimension is compared by exact stabilizer tableaus instead of
/// dense unitaries, which stays tractable at any register width.  Otherwise
/// `Auto` walks each circuit's classical prefix sparsely (see
/// [`circuit_unitary`](crate::circuit_unitary())).
///
/// # Errors
///
/// Returns an error when either circuit cannot be simulated.
pub fn circuits_equal_up_to_phase(a: &Circuit, b: &Circuit, backend: SimBackend) -> Result<bool> {
    if matches!(backend, SimBackend::Auto | SimBackend::Stabilizer)
        && crate::stabilizer::is_clifford_circuit(a)
        && crate::stabilizer::is_clifford_circuit(b)
    {
        return crate::stabilizer::clifford_circuits_equal(a, b);
    }
    let ua = circuit_unitary_with(a, backend)?;
    let ub = circuit_unitary_with(b, backend)?;
    Ok(ua.approx_eq_up_to_phase(&ub, MATRIX_TOLERANCE.max(1e-7)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::{Control, Gate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    fn macro_toffoli(d: Dimension, k: usize) -> Circuit {
        let mut c = Circuit::new(d, k + 1);
        c.push(Gate::controlled(
            SingleQuditOp::Swap(0, 1),
            QuditId::new(k),
            (0..k).map(|i| Control::zero(QuditId::new(i))).collect(),
        ))
        .unwrap();
        c
    }

    #[test]
    fn macro_toffoli_satisfies_its_own_spec() {
        let d = dim(3);
        let circuit = macro_toffoli(d, 2);
        let spec = MctSpec::toffoli(vec![QuditId::new(0), QuditId::new(1)], QuditId::new(2));
        assert!(verify_mct_exhaustive(&circuit, &spec, SimBackend::Auto)
            .unwrap()
            .is_pass());
    }

    #[test]
    fn wrong_circuit_is_rejected() {
        let d = dim(3);
        let circuit = macro_toffoli(d, 2);
        // Spec with swapped roles should fail.
        let spec = MctSpec::toffoli(vec![QuditId::new(0), QuditId::new(2)], QuditId::new(1));
        let verdict = verify_mct_exhaustive(&circuit, &spec, SimBackend::Auto).unwrap();
        assert!(!verdict.is_pass());
        if let Verification::Fail {
            input,
            expected,
            actual,
        } = verdict
        {
            assert_ne!(expected, actual);
            assert_eq!(input.len(), 3);
        }
    }

    #[test]
    fn sampled_verification_agrees_with_exhaustive() {
        let d = dim(3);
        let circuit = macro_toffoli(d, 3);
        let spec = MctSpec::toffoli(
            vec![QuditId::new(0), QuditId::new(1), QuditId::new(2)],
            QuditId::new(3),
        );
        let mut rng = StdRng::seed_from_u64(7);
        assert!(
            verify_mct_sampled(&circuit, &spec, 64, &mut rng, SimBackend::Auto)
                .unwrap()
                .is_pass()
        );
    }

    #[test]
    fn clean_ancilla_semantics_ignores_nonzero_ancilla_inputs() {
        let d = dim(3);
        // A circuit that garbles the ancilla whenever it starts in |1⟩ is
        // still accepted by the clean-ancilla check, because only ancilla
        // inputs equal to |0⟩ are part of the contract.
        let mut circuit = macro_toffoli(d, 2).widened(4).unwrap();
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Add(1),
                QuditId::new(3),
                vec![Control::level(QuditId::new(0), 1)],
            ))
            .unwrap();
        let spec = MctSpec::toffoli(vec![QuditId::new(0), QuditId::new(1)], QuditId::new(2));
        // Borrowed semantics fail (the extra qudit is modified for some inputs)…
        assert!(!verify_mct_exhaustive(&circuit, &spec, SimBackend::Auto)
            .unwrap()
            .is_pass());
        // …but clean-ancilla semantics still hold? No: the ancilla is changed
        // even when it starts in |0⟩ (whenever x0 = 1), so this also fails.
        assert!(
            !verify_mct_with_clean_ancilla(&circuit, &spec, QuditId::new(3), SimBackend::Auto)
                .unwrap()
                .is_pass()
        );
        // The untouched widened circuit satisfies both contracts.
        let clean_circuit = macro_toffoli(d, 2).widened(4).unwrap();
        assert!(
            verify_mct_exhaustive(&clean_circuit, &spec, SimBackend::Auto)
                .unwrap()
                .is_pass()
        );
        assert!(verify_mct_with_clean_ancilla(
            &clean_circuit,
            &spec,
            QuditId::new(3),
            SimBackend::Auto
        )
        .unwrap()
        .is_pass());
    }

    #[test]
    fn phase_equivalence_of_identical_circuits() {
        let d = dim(3);
        let a = macro_toffoli(d, 2);
        let b = macro_toffoli(d, 2);
        for backend in [SimBackend::Dense, SimBackend::Sparse, SimBackend::Auto] {
            assert!(circuits_equal_up_to_phase(&a, &b, backend).unwrap());
        }
    }

    #[test]
    fn clifford_pairs_compare_by_tableau_at_any_width() {
        // Width 20 over qutrits: 3^20 ≈ 3.5·10⁹ — the dense unitary path
        // would need exabytes, so a verdict proves the tableau fast path ran.
        let d = dim(3);
        let width = 20;
        let mut a = Circuit::new(d, width);
        for q in 0..width - 1 {
            a.push(Gate::add_from(
                QuditId::new(q),
                false,
                QuditId::new(q + 1),
                vec![],
            ))
            .unwrap();
        }
        let b = a.clone();
        for backend in [SimBackend::Auto, SimBackend::Stabilizer] {
            assert!(circuits_equal_up_to_phase(&a, &b, backend).unwrap());
        }
        // Appending one more SUM gate breaks equality.
        let mut c = a.clone();
        c.push(Gate::add_from(
            QuditId::new(0),
            false,
            QuditId::new(1),
            vec![],
        ))
        .unwrap();
        assert!(!circuits_equal_up_to_phase(&a, &c, SimBackend::Auto).unwrap());
    }

    #[test]
    fn engine_routed_sampling_never_densifies_classical_circuits() {
        // Width 30 over qutrits: 3^30 ≈ 2·10^14 basis states — any code
        // path that densifies the state would attempt a petabyte-scale
        // allocation.  A classical circuit must verify samples in O(width)
        // memory whatever backend the caller names.
        let d = dim(3);
        let k = 29;
        let circuit = macro_toffoli(d, k);
        let spec = MctSpec::toffoli((0..k).map(QuditId::new).collect(), QuditId::new(k));
        let mut rng = StdRng::seed_from_u64(11);
        assert!(
            verify_mct_sampled(&circuit, &spec, 16, &mut rng, SimBackend::Dense)
                .unwrap()
                .is_pass()
        );
    }

    /// The engine branch of the shared checker agrees with the direct one.
    /// A Toffoli whose X01 is written as a permutation `Unitary`, followed
    /// by a Fourier gate and its inverse on a spare qudit, is non-classical
    /// gate by gate, so every verifier simulates it on the engine; its
    /// classical twin (the plain macro Toffoli) takes the direct path.  Both
    /// implement the same spec, so every verdict — witness included — must
    /// match on every backend.
    #[test]
    fn backend_routed_verification_agrees_with_the_direct_sweep() {
        let d = dim(3);
        let direct = macro_toffoli(d, 2).widened(4).unwrap();
        let x01 = qudit_core::math::SquareMatrix::from_permutation(&[1, 0, 2]).unwrap();
        let fourier = SingleQuditOp::fourier(d);
        let mut routed = Circuit::new(d, 4);
        routed
            .push(Gate::controlled(
                SingleQuditOp::unitary(d, x01).unwrap(),
                QuditId::new(2),
                vec![
                    Control::zero(QuditId::new(0)),
                    Control::zero(QuditId::new(1)),
                ],
            ))
            .unwrap();
        routed
            .push(Gate::single(fourier.inverse(d), QuditId::new(3)))
            .unwrap();
        routed.push(Gate::single(fourier, QuditId::new(3))).unwrap();
        assert!(direct.is_classical() && !routed.is_classical());

        let spare = QuditId::new(3);
        let verdicts = |circuit: &Circuit, spec: &MctSpec, backend: SimBackend| {
            let mut rng = StdRng::seed_from_u64(9);
            [
                verify_mct_exhaustive(circuit, spec, backend).unwrap(),
                verify_mct_sampled(circuit, spec, 32, &mut rng, backend).unwrap(),
                verify_mct_with_clean_ancilla(circuit, spec, spare, backend).unwrap(),
            ]
        };
        let spec = MctSpec::toffoli(vec![QuditId::new(0), QuditId::new(1)], QuditId::new(2));
        let wrong = MctSpec::toffoli(vec![QuditId::new(0), QuditId::new(2)], QuditId::new(1));
        for backend in [SimBackend::Dense, SimBackend::Sparse, SimBackend::Auto] {
            let passing = verdicts(&routed, &spec, backend);
            assert!(passing.iter().all(Verification::is_pass), "{backend}");
            assert_eq!(passing, verdicts(&direct, &spec, backend), "{backend}");
            // A wrong spec fails with a concrete witness on every backend.
            let failing = verdicts(&routed, &wrong, backend);
            for verdict in &failing {
                match verdict {
                    Verification::Fail {
                        expected, actual, ..
                    } => assert_ne!(expected, actual, "{backend}"),
                    other => panic!("{backend}: expected a failure, got {other:?}"),
                }
            }
            assert_eq!(failing, verdicts(&direct, &wrong, backend), "{backend}");
        }
    }
}

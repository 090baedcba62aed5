//! Simulation-backed pipeline passes: the [`VerifyEquivalence`] wrapper.
//!
//! [`VerifyEquivalence`] decorates any [`Pass`] with a semantics-preservation
//! check in the spirit of refinement checking: after the inner pass runs,
//! the input and output circuits are compared —
//!
//! * **classical circuits** via the permutation simulator (exhaustively when
//!   the register is small, on deterministic random basis states otherwise);
//! * **all-Clifford circuits** over prime dimensions via exact stabilizer
//!   tableau comparison ([`crate::stabilizer`]) — complete up to global
//!   phase at *any* register width;
//! * **other non-classical circuits** via the state-vector simulator — full
//!   unitary comparison up to global phase on small registers, fidelity on
//!   random dense input states (which are sensitive to relative-phase
//!   changes) on larger ones.
//!
//! A detected mismatch surfaces as [`QuditError::PassFailed`], naming the
//! wrapped pass and the offending basis state.
//!
//! State-vector comparisons run on the [`SimBackend`] passed to
//! [`VerifyEquivalence::wrap`]; the `Auto` backend walks
//! each circuit's classical prefix sparsely with bit-identical results, so
//! verification of the paper's (mostly classical) pipelines no longer pays
//! the dense `O(d^width)`-per-gate walk over the long permutation prefixes.

use qudit_core::math::MATRIX_TOLERANCE;
use qudit_core::pipeline::{Pass, PassContext, PassManager};
use qudit_core::pool::WorkStealingPool;
use qudit_core::{Circuit, QuditError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sparse::{circuit_unitary_with, SimBackend, SimState};
use crate::statevector::StateVector;

/// Default register-size bound for exhaustive classical checking.
const DEFAULT_MAX_EXHAUSTIVE_STATES: usize = 4096;
/// Default number of sampled basis states above the exhaustive bound.
const DEFAULT_SAMPLES: usize = 256;
/// Register-size bound for full-unitary checking of non-classical circuits.
const MAX_UNITARY_STATES: usize = 256;
/// Register-size bound for the sampled state-vector fallback (each sample
/// costs one full state-vector simulation of both circuits).
const MAX_SAMPLED_STATEVECTOR_STATES: usize = 1 << 20;
/// Cap on state-vector samples (they are much more expensive than the
/// classical basis-state samples, and dense random inputs are maximally
/// sensitive, so a handful suffices).
const MAX_STATEVECTOR_SAMPLES: usize = 8;
/// Fixed seed so verification failures are reproducible.
const SAMPLE_SEED: u64 = 0x5EED_CAFE;
/// Basis-state count above which the exhaustive classical sweep fans out
/// over a work-stealing pool (each state checks independently).
const PARALLEL_VERIFY_THRESHOLD: usize = 1024;

/// A [`Pass`] decorator that checks the wrapped pass preserved the circuit's
/// semantics.
///
/// # Example
///
/// ```
/// use qudit_core::pipeline::{LowerToGGates, PassManager};
/// use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
/// use qudit_sim::pipeline::VerifyEquivalence;
/// use qudit_sim::SimBackend;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Dimension::new(3)?;
/// let mut circuit = Circuit::new(d, 2);
/// circuit.push(Gate::controlled(
///     SingleQuditOp::Add(1),
///     QuditId::new(1),
///     vec![Control::level(QuditId::new(0), 1)],
/// ))?;
///
/// // Every pass in the pipeline self-checks after running.
/// let manager = VerifyEquivalence::wrap_manager_with_backend(
///     PassManager::new().with_pass(LowerToGGates),
///     SimBackend::Auto,
/// );
/// let report = manager.run(circuit)?;
/// assert_eq!(report.stats[0].pass, "verify(lower-to-g-gates)");
/// # Ok(())
/// # }
/// ```
pub struct VerifyEquivalence {
    name: String,
    inner: Box<dyn Pass>,
    max_exhaustive_states: usize,
    samples: usize,
    backend: SimBackend,
}

impl VerifyEquivalence {
    /// Wraps a pass with the default verification limits, running the
    /// state-vector comparisons on `backend`.
    ///
    /// [`SimBackend::Auto`] scans each circuit for a classical prefix and
    /// simulates that prefix sparsely; `Dense` forces the dense engine and
    /// `Sparse` the hybrid one.  Under `Auto` and [`SimBackend::Stabilizer`],
    /// a pair of all-Clifford circuits over a prime dimension is compared
    /// exactly via their stabilizer tableaus instead — at any register
    /// width.  Every path is exact (up to global phase), so the verdicts
    /// never depend on the backend — only the wall time and the reachable
    /// widths do.
    pub fn wrap(inner: Box<dyn Pass>, backend: SimBackend) -> Self {
        VerifyEquivalence {
            name: format!("verify({})", inner.name()),
            inner,
            max_exhaustive_states: DEFAULT_MAX_EXHAUSTIVE_STATES,
            samples: DEFAULT_SAMPLES,
            backend,
        }
    }

    /// Sets the register-size bound below which classical circuits are
    /// checked exhaustively, and the number of sampled basis states used
    /// above it.
    #[must_use]
    pub fn with_limits(mut self, max_exhaustive_states: usize, samples: usize) -> Self {
        self.max_exhaustive_states = max_exhaustive_states;
        self.samples = samples;
        self
    }

    /// Wraps every pass of a [`PassManager`] in a [`VerifyEquivalence`]
    /// decorator on `backend`, turning the pipeline into a self-checking one.
    #[must_use]
    pub fn wrap_manager_with_backend(manager: PassManager, backend: SimBackend) -> PassManager {
        manager.map_passes(|inner| Box::new(VerifyEquivalence::wrap(inner, backend)))
    }

    fn fail(&self, reason: String) -> QuditError {
        QuditError::PassFailed {
            pass: self.inner.name().to_string(),
            reason,
        }
    }

    fn check_equivalent(
        &self,
        before: &Circuit,
        after: &Circuit,
        pinned_pool: Option<WorkStealingPool>,
    ) -> Result<()> {
        if before.dimension() != after.dimension() || before.width() != after.width() {
            return Err(self.fail(format!(
                "pass changed the register: d={}, width={} -> d={}, width={}",
                before.dimension(),
                before.width(),
                after.dimension(),
                after.width()
            )));
        }
        let dimension = before.dimension();
        let size = dimension.register_size(before.width());
        // Tableau fast path: when both circuits are all-Clifford over a
        // prime dimension, their stabilizer tableaus compare exactly (up to
        // global phase) in `O(gates · width²)` — independent of `d^width`,
        // so this is the branch that verifies at widths the dense engine
        // cannot touch.  Classical pairs keep the permutation sweep below
        // (it is cheaper and never pays for classification); the Dense and
        // Sparse backends keep their historical paths.
        if matches!(self.backend, SimBackend::Auto | SimBackend::Stabilizer)
            && dimension.is_prime()
            && !(before.is_classical() && after.is_classical())
            && crate::stabilizer::is_clifford_circuit(before)
            && crate::stabilizer::is_clifford_circuit(after)
        {
            let parallel = !qudit_core::pool::in_worker();
            let pool = parallel.then(|| pinned_pool.unwrap_or_default());
            let equal =
                crate::stabilizer::clifford_circuits_equal_on(before, after, pool.as_ref())?;
            if !equal {
                return Err(self.fail(
                    "output circuit is not equivalent to its input (stabilizer tableaus differ)"
                        .to_string(),
                ));
            }
            return Ok(());
        }
        if before.is_classical() && after.is_classical() {
            if size <= self.max_exhaustive_states {
                // One sweep over the basis yields the witness directly.
                // Each state checks independently, so large sweeps fan out
                // over the run's pinned pool — or an environment-sized one
                // when the manager pinned none — never nested inside a
                // batch worker (see qudit_core::pool); the witness (if any)
                // is the first in basis order regardless of which worker
                // found it.  Small sweeps stream the iterator without
                // collecting.
                let parallel = size >= PARALLEL_VERIFY_THRESHOLD && !qudit_core::pool::in_worker();
                let pool = parallel.then(|| pinned_pool.unwrap_or_default());
                match pool.filter(|pool| pool.threads() > 1) {
                    Some(pool) => {
                        let states: Vec<Vec<u32>> =
                            crate::basis::all_basis_states(dimension, before.width()).collect();
                        let chunk_size = states
                            .len()
                            .div_ceil(pool.threads().saturating_mul(4))
                            .max(1);
                        let chunks: Vec<&[Vec<u32>]> = states.chunks(chunk_size).collect();
                        let witnesses = pool.map(chunks, |chunk| {
                            for input in chunk {
                                if before.apply_to_basis(input)? != after.apply_to_basis(input)? {
                                    return Ok(Some(input.clone()));
                                }
                            }
                            Ok::<_, QuditError>(None)
                        });
                        for witness in witnesses {
                            if let Some(input) = witness? {
                                return Err(self.fail(format!(
                                    "output circuit is not equivalent to its input (basis state {input:?})"
                                )));
                            }
                        }
                    }
                    None => {
                        for input in crate::basis::all_basis_states(dimension, before.width()) {
                            if before.apply_to_basis(&input)? != after.apply_to_basis(&input)? {
                                return Err(self.fail(format!(
                                    "output circuit is not equivalent to its input (basis state {input:?})"
                                )));
                            }
                        }
                    }
                }
            } else {
                // Uniform basis states almost never satisfy a deep
                // multi-controlled gate (probability d^-k), so bias half of
                // the samples: force the controls of one randomly chosen gate
                // (from either circuit) onto matching levels.
                let mut rng = StdRng::seed_from_u64(SAMPLE_SEED);
                let gate_pool: Vec<&qudit_core::Gate> =
                    before.gates().iter().chain(after.gates()).collect();
                for sample in 0..self.samples {
                    let mut input =
                        crate::sampling::uniform_basis_state(dimension, before.width(), &mut rng);
                    if sample % 2 == 0 && !gate_pool.is_empty() {
                        let gate = gate_pool[rng.gen_range(0..gate_pool.len())];
                        crate::sampling::force_controls_matching(
                            &mut input,
                            gate.controls(),
                            dimension,
                            &mut rng,
                        );
                    }
                    if before.apply_to_basis(&input)? != after.apply_to_basis(&input)? {
                        return Err(self.fail(format!(
                            "output circuit is not equivalent to its input (basis state {input:?})"
                        )));
                    }
                }
            }
        } else if size <= MAX_UNITARY_STATES {
            // Column states are basis states, so the backend's sparse
            // fast-path covers each circuit's classical prefix.
            let before_unitary = circuit_unitary_with(before, self.backend)?;
            let after_unitary = circuit_unitary_with(after, self.backend)?;
            if !before_unitary.approx_eq_up_to_phase(&after_unitary, MATRIX_TOLERANCE.max(1e-7)) {
                return Err(self.fail(
                    "output unitary differs from the input unitary (up to phase)".to_string(),
                ));
            }
        } else if size <= MAX_SAMPLED_STATEVECTOR_STATES {
            // Apply both circuits to random *dense* states and require unit
            // fidelity.  A dense input mixes every column of the unitary, so
            // a relative (per-basis-state) phase change — invisible to
            // basis-state inputs — destroys the fidelity with probability 1;
            // only a consistent global phase survives, matching the
            // small-register comparison above.
            let mut rng = StdRng::seed_from_u64(SAMPLE_SEED);
            let samples = self.samples.clamp(1, MAX_STATEVECTOR_SAMPLES);
            for sample in 0..samples {
                let amplitudes: Vec<qudit_core::math::Complex> = (0..size)
                    .map(|_| {
                        qudit_core::math::Complex::new(
                            rng.gen_range(-1.0..1.0),
                            rng.gen_range(-1.0..1.0),
                        )
                    })
                    .collect();
                let norm = amplitudes.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
                let amplitudes: Vec<qudit_core::math::Complex> =
                    amplitudes.iter().map(|a| a.scale(1.0 / norm)).collect();
                // Routed through the hybrid engine for uniformity; a dense
                // random input resolves to the dense representation, where
                // the fused panel engine runs — fanned over the run's
                // pinned pool on registers large enough to pay (never
                // nested inside a batch worker; the fused result is
                // byte-identical for every pool width).
                let sim_pool = pinned_pool.as_ref();
                let mut state_before = SimState::from_statevector(
                    StateVector::from_amplitudes(dimension, before.width(), amplitudes.clone())?,
                    self.backend,
                );
                state_before.apply_circuit_on(before, sim_pool)?;
                let mut state_after = SimState::from_statevector(
                    StateVector::from_amplitudes(dimension, before.width(), amplitudes)?,
                    self.backend,
                );
                state_after.apply_circuit_on(after, sim_pool)?;
                let state_before = state_before.into_statevector();
                let state_after = state_after.into_statevector();
                if (state_before.fidelity(&state_after) - 1.0).abs() > 1e-9 {
                    return Err(self.fail(format!(
                        "output circuit is not equivalent to its input \
                         (random dense state sample {sample}, seed {SAMPLE_SEED:#x})"
                    )));
                }
            }
        } else {
            return Err(self.fail(format!(
                "cannot verify a non-classical circuit over {size} basis states; \
                 register is too large for state-vector comparison"
            )));
        }
        Ok(())
    }
}

impl Pass for VerifyEquivalence {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, circuit: Circuit) -> Result<Circuit> {
        let output = self.inner.run(circuit.clone())?;
        self.check_equivalent(&circuit, &output, None)?;
        Ok(output)
    }

    fn run_with(&self, circuit: Circuit, ctx: &mut PassContext) -> Result<Circuit> {
        // Forward the context so the wrapped pass keeps its cache access
        // (and its cache statistics) under verification, and so the
        // exhaustive sweep honours the run's pinned worker pool.
        let output = self.inner.run_with(circuit.clone(), ctx)?;
        self.check_equivalent(&circuit, &output, ctx.pool())?;
        Ok(output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::pipeline::{pass_fn, CancelInversePairs, LowerToGGates};
    use qudit_core::{Control, Dimension, Gate, QuditId, SingleQuditOp};

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    fn sample_circuit() -> Circuit {
        let mut circuit = Circuit::new(dim(3), 2);
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Add(2),
                QuditId::new(1),
                vec![Control::level(QuditId::new(0), 1)],
            ))
            .unwrap();
        circuit
    }

    #[test]
    fn faithful_passes_verify() {
        let manager = VerifyEquivalence::wrap_manager_with_backend(
            PassManager::new()
                .with_pass(LowerToGGates)
                .with_pass(CancelInversePairs),
            SimBackend::Auto,
        );
        assert_eq!(
            manager.pass_names(),
            vec!["verify(lower-to-g-gates)", "verify(cancel-inverse-pairs)"]
        );
        let report = manager.run(sample_circuit()).unwrap();
        assert!(report.circuit.gates().iter().all(Gate::is_g_gate));
    }

    #[test]
    fn unfaithful_passes_are_caught() {
        // A "pass" that drops every gate: semantics clearly not preserved.
        let drop_all = pass_fn("drop-all", |c: Circuit| {
            Ok(Circuit::new(c.dimension(), c.width()))
        });
        let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(
            Box::new(drop_all),
            SimBackend::Auto,
        ));
        let result = manager.run(sample_circuit());
        match result {
            Err(QuditError::PassFailed { pass, reason }) => {
                assert_eq!(pass, "drop-all");
                assert!(reason.contains("not equivalent"), "{reason}");
            }
            other => panic!("expected PassFailed, got {other:?}"),
        }
    }

    #[test]
    fn register_changes_are_caught() {
        let shrink = pass_fn("shrink", |c: Circuit| {
            Ok(Circuit::new(c.dimension(), c.width() - 1))
        });
        let manager = PassManager::new()
            .with_pass(VerifyEquivalence::wrap(Box::new(shrink), SimBackend::Auto));
        assert!(matches!(
            manager.run(sample_circuit()),
            Err(QuditError::PassFailed { .. })
        ));
    }

    #[test]
    fn sampled_verification_covers_large_registers() {
        // Force the sampled path with a tiny exhaustive bound.
        let verified =
            VerifyEquivalence::wrap(Box::new(LowerToGGates), SimBackend::Auto).with_limits(1, 64);
        let manager = PassManager::new().with_pass(verified);
        assert!(manager.run(sample_circuit()).is_ok());
    }

    #[test]
    fn sampled_verification_fires_deep_multi_controlled_gates() {
        // d=3, 9-control Toffoli on width 10: 3^10 = 59049 basis states, far
        // above the exhaustive bound, and a uniform sample satisfies all nine
        // |0⟩-controls with probability 3^-9.  The control-biased samples
        // must still catch a pass that deletes the gate.
        let d = dim(3);
        let mut circuit = Circuit::new(d, 10);
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Swap(0, 1),
                QuditId::new(9),
                (0..9).map(|i| Control::zero(QuditId::new(i))).collect(),
            ))
            .unwrap();
        let drop_all = pass_fn("drop-all", |c: Circuit| {
            Ok(Circuit::new(c.dimension(), c.width()))
        });
        let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(
            Box::new(drop_all),
            SimBackend::Auto,
        ));
        match manager.run(circuit) {
            Err(QuditError::PassFailed { pass, .. }) => assert_eq!(pass, "drop-all"),
            other => panic!("expected PassFailed, got {other:?}"),
        }
    }

    #[test]
    fn non_classical_circuits_use_the_statevector_path() {
        use qudit_core::math::{Complex, SquareMatrix};
        let s = 1.0 / 2.0f64.sqrt();
        let mut m = SquareMatrix::identity(3);
        m[(0, 0)] = Complex::from_real(s);
        m[(0, 1)] = Complex::from_real(s);
        m[(1, 0)] = Complex::from_real(s);
        m[(1, 1)] = Complex::from_real(-s);
        let mut circuit = Circuit::new(dim(3), 1);
        circuit
            .push(Gate::single(SingleQuditOp::Unitary(m), QuditId::new(0)))
            .unwrap();

        // The identity pass trivially preserves the unitary.
        let identity = pass_fn("identity", Ok);
        let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(
            Box::new(identity),
            SimBackend::Auto,
        ));
        assert!(manager.run(circuit.clone()).is_ok());

        // Dropping the gate does not.
        let drop_all = pass_fn("drop-all", |c: Circuit| {
            Ok(Circuit::new(c.dimension(), c.width()))
        });
        let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(
            Box::new(drop_all),
            SimBackend::Auto,
        ));
        assert!(matches!(
            manager.run(circuit),
            Err(QuditError::PassFailed { .. })
        ));
    }

    #[test]
    fn large_non_classical_circuits_use_the_sampled_statevector_path() {
        use qudit_core::math::{Complex, SquareMatrix};
        let s = 1.0 / 2.0f64.sqrt();
        let mut m = SquareMatrix::identity(3);
        m[(0, 0)] = Complex::from_real(s);
        m[(0, 1)] = Complex::from_real(s);
        m[(1, 0)] = Complex::from_real(s);
        m[(1, 1)] = Complex::from_real(-s);
        // Width 6 over qutrits: 3^6 = 729 > MAX_UNITARY_STATES, so the
        // sampled column-fidelity fallback must kick in rather than erroring.
        let mut circuit = Circuit::new(dim(3), 6);
        circuit
            .push(Gate::single(SingleQuditOp::Unitary(m), QuditId::new(2)))
            .unwrap();
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Add(1),
                QuditId::new(5),
                vec![Control::zero(QuditId::new(0))],
            ))
            .unwrap();

        let identity = pass_fn("identity", Ok);
        let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(
            Box::new(identity),
            SimBackend::Auto,
        ));
        assert!(manager.run(circuit.clone()).is_ok());

        let drop_all = pass_fn("drop-all", |c: Circuit| {
            Ok(Circuit::new(c.dimension(), c.width()))
        });
        let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(
            Box::new(drop_all),
            SimBackend::Auto,
        ));
        match manager.run(circuit) {
            Err(QuditError::PassFailed { pass, .. }) => assert_eq!(pass, "drop-all"),
            other => panic!("expected PassFailed, got {other:?}"),
        }
    }

    #[test]
    fn clifford_circuits_verify_via_tableaus_beyond_dense_reach() {
        use qudit_core::math::{Complex, SquareMatrix};
        // Width 24 over qutrits: 3^24 ≈ 2.8·10¹¹ basis states — every
        // state-vector path would refuse or exhaust memory, so a passing
        // verdict proves the tableau branch ran.
        let omega = 2.0 * std::f64::consts::PI / 3.0;
        let s = 1.0 / 3.0f64.sqrt();
        let mut entries = Vec::new();
        for r in 0..3u32 {
            for c in 0..3u32 {
                entries.push(Complex::from_phase(omega * f64::from(r * c)).scale(s));
            }
        }
        let fourier = SquareMatrix::from_rows(3, entries).unwrap();
        let width = 24;
        let mut circuit = Circuit::new(dim(3), width);
        for q in 0..width {
            circuit
                .push(Gate::single(
                    SingleQuditOp::Unitary(fourier.clone()),
                    QuditId::new(q),
                ))
                .unwrap();
            if q + 1 < width {
                circuit
                    .push(Gate::add_from(
                        QuditId::new(q),
                        false,
                        QuditId::new(q + 1),
                        vec![],
                    ))
                    .unwrap();
            }
        }

        for backend in [SimBackend::Auto, SimBackend::Stabilizer] {
            let identity = pass_fn("identity", Ok);
            let manager =
                PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(identity), backend));
            assert!(manager.run(circuit.clone()).is_ok(), "backend {backend}");

            // Dropping one gate flips the verdict (the "pass" output is
            // still all-Clifford, so the tableau branch is the one that
            // catches it).
            let drop_last = pass_fn("drop-last", |c: Circuit| {
                let mut out = Circuit::new(c.dimension(), c.width());
                for gate in c.gates().iter().take(c.len() - 1) {
                    out.push(gate.clone())?;
                }
                Ok(out)
            });
            let manager =
                PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(drop_last), backend));
            match manager.run(circuit.clone()) {
                Err(QuditError::PassFailed { pass, reason }) => {
                    assert_eq!(pass, "drop-last");
                    assert!(reason.contains("stabilizer"), "{reason}");
                }
                other => panic!("expected PassFailed, got {other:?}"),
            }
        }
    }

    #[test]
    fn verdicts_are_backend_independent() {
        // The same faithful and unfaithful passes must pass/fail identically
        // under Dense, Sparse and Auto.
        for backend in [SimBackend::Dense, SimBackend::Sparse, SimBackend::Auto] {
            let ok = PassManager::new()
                .with_pass(VerifyEquivalence::wrap(Box::new(LowerToGGates), backend));
            assert!(ok.run(sample_circuit()).is_ok(), "backend {backend}");

            let drop_all = pass_fn("drop-all", |c: Circuit| {
                Ok(Circuit::new(c.dimension(), c.width()))
            });
            let bad =
                PassManager::new().with_pass(VerifyEquivalence::wrap(Box::new(drop_all), backend));
            assert!(
                matches!(
                    bad.run(sample_circuit()),
                    Err(QuditError::PassFailed { .. })
                ),
                "backend {backend}"
            );
        }
    }

    #[test]
    fn wrap_manager_with_backend_wraps_every_pass() {
        let manager = VerifyEquivalence::wrap_manager_with_backend(
            PassManager::new()
                .with_pass(LowerToGGates)
                .with_pass(CancelInversePairs),
            SimBackend::Sparse,
        );
        assert_eq!(
            manager.pass_names(),
            vec!["verify(lower-to-g-gates)", "verify(cancel-inverse-pairs)"]
        );
        assert!(manager.run(sample_circuit()).is_ok());
    }

    #[test]
    fn sampled_statevector_path_catches_relative_phase_changes() {
        use qudit_core::math::{Complex, SquareMatrix};
        // Width 6 over qutrits (729 states) forces the sampled fallback; the
        // extra unitary gate keeps the circuit non-classical on both sides.
        let hadamard_like = {
            let s = 1.0 / 2.0f64.sqrt();
            let mut m = SquareMatrix::identity(3);
            m[(0, 0)] = Complex::from_real(s);
            m[(0, 1)] = Complex::from_real(s);
            m[(1, 0)] = Complex::from_real(s);
            m[(1, 1)] = Complex::from_real(-s);
            m
        };
        let mut circuit = Circuit::new(dim(3), 6);
        circuit
            .push(Gate::single(
                SingleQuditOp::Unitary(hadamard_like),
                QuditId::new(0),
            ))
            .unwrap();
        circuit
            .push(Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(5)))
            .unwrap();

        // A pass that replaces the trailing X01 with a phase-twisted swap:
        // |0> -> |1>, |1> -> e^{i phi}|0>.  Basis-state inputs cannot see the
        // relative phase; random dense inputs must.
        let twist = pass_fn("phase-twist", |c: Circuit| {
            let mut twisted = SquareMatrix::identity(3);
            twisted[(0, 0)] = Complex::ZERO;
            twisted[(1, 1)] = Complex::ZERO;
            twisted[(1, 0)] = Complex::ONE;
            twisted[(0, 1)] = Complex::from_phase(1.0);
            let mut out = Circuit::new(c.dimension(), c.width());
            for gate in c.gates().iter().take(c.len() - 1) {
                out.push(gate.clone())?;
            }
            out.push(Gate::single(
                SingleQuditOp::Unitary(twisted),
                QuditId::new(5),
            ))?;
            Ok(out)
        });
        let manager = PassManager::new()
            .with_pass(VerifyEquivalence::wrap(Box::new(twist), SimBackend::Auto));
        match manager.run(circuit) {
            Err(QuditError::PassFailed { pass, reason }) => {
                assert_eq!(pass, "phase-twist");
                assert!(reason.contains("random dense state"), "{reason}");
            }
            other => panic!("expected PassFailed, got {other:?}"),
        }
    }
}

//! Integration tests of the compilation pipeline:
//!
//! * property-based: for random multi-controlled circuits, every stage of
//!   the standard flow (the default `CompileOptions`) preserves semantics
//!   (checked both by the `Verify::Exhaustive` wrappers *inside* the
//!   pipeline and by an outside permutation-table comparison), and the
//!   final circuit consists purely of G-gates;
//! * regression: the pipeline's G-gate counts equal the pre-refactor manual
//!   `lower_to_g_gates` / `cancel_inverse_pairs` chains on the paper's
//!   benchmark cases.

use proptest::prelude::*;
use qudit_core::{Circuit, Dimension, Gate, QuditId, SingleQuditOp};
use qudit_sim::circuit_permutation;
use qudit_synthesis::{emit_multi_controlled, CompileOptions, KToffoli, OptLevel, Verify};

/// Builds a circuit of `specs.len()` multi-controlled gates over `width`
/// qudits, with one spare qudit reserved as the borrowed pool for even `d`.
///
/// Each spec `(k, target_offset, op_kind, shift, level_seed)` places a gate
/// with `k` controls at pseudo-random levels.
fn build_mct_circuit(dimension: Dimension, specs: &[(usize, usize, u8, u32, u32)]) -> Circuit {
    let d = dimension.get();
    // The strategy always generates at least one spec.
    let max_controls = specs
        .iter()
        .map(|s| s.0)
        .max()
        .expect("specs are non-empty");
    // controls + target + one spare for the even-d borrowed ancilla.
    let width = max_controls + 2;
    let mut circuit = Circuit::new(dimension, width);
    for &(k, target_offset, op_kind, shift, level_seed) in specs {
        let op = match op_kind % 3 {
            0 => SingleQuditOp::Swap(0, 1 + shift % (d - 1)),
            1 => SingleQuditOp::Add(1 + shift % (d - 1)),
            _ => SingleQuditOp::Swap(shift % d, (shift + 1) % d),
        };
        // Controls on qudits 0..k, target on one of the remaining qudits.
        let target = QuditId::new(k + (target_offset % (width - k)));
        let controls: Vec<(QuditId, u32)> = (0..k)
            .map(|i| (QuditId::new(i), (level_seed.wrapping_add(i as u32 * 7)) % d))
            .collect();
        let pool: Vec<QuditId> = (0..width)
            .map(QuditId::new)
            .filter(|q| *q != target && !controls.iter().any(|(c, _)| c == q))
            .collect();
        // The pool always holds a spare qudit (width = max k + 2), so
        // emission cannot fail; a failure here is a real regression.
        emit_multi_controlled(&mut circuit, &controls, target, &op, &pool)
            .expect("multi-controlled emission succeeds for valid specs");
    }
    circuit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every stage of the standard pipeline preserves the circuit's action on
    /// the computational basis, and the result is all G-gates.  The pipeline
    /// is run with `VerifyEquivalence` around every stage, so a stage that
    /// changed semantics would fail the run itself; the output permutation is
    /// additionally compared against the input from the outside.
    #[test]
    fn standard_pipeline_stages_preserve_semantics(
        d in 3u32..=5,
        specs in prop::collection::vec((1usize..=3, 0usize..4, 0u8..3, 0u32..8, 0u32..8), 1..3),
    ) {
        let dimension = Dimension::new(d).unwrap();
        let circuit = build_mct_circuit(dimension, &specs);
        let compiler = CompileOptions::new()
            .verify(Verify::Exhaustive)
            .shape(dimension, circuit.width())
            .compiler();
        let report = compiler.compile(&circuit).unwrap();
        prop_assert!(report.verification.is_verified());
        prop_assert!(report.circuit.gates().iter().all(Gate::is_g_gate));
        prop_assert_eq!(
            circuit_permutation(&circuit).unwrap(),
            circuit_permutation(&report.circuit).unwrap()
        );
        // One verified stats entry per stage, in flow order.
        let names: Vec<&str> = report.stats.iter().map(|s| s.pass.as_str()).collect();
        prop_assert_eq!(names, vec![
            "verify(gate-fusion)",
            "verify(lower-to-elementary)",
            "verify(lower-to-g-gates)",
            "verify(cancel-inverse-pairs)",
        ]);
    }

    /// The lowering pipeline agrees with the synthesis resource report for
    /// random k-Toffolis.
    #[test]
    fn lowering_pipeline_matches_resources(d in 3u32..=5, k in 1usize..=6) {
        let dimension = Dimension::new(d).unwrap();
        let synthesis = KToffoli::new(dimension, k).unwrap().synthesize().unwrap();
        let report = CompileOptions::new()
            .opt_level(OptLevel::O0)
            .shape(dimension, synthesis.layout().width)
            .compiler()
            .compile(synthesis.circuit())
            .unwrap();
        prop_assert_eq!(report.circuit.len(), synthesis.resources().g_gates);
        prop_assert_eq!(report.stats[0].after.gates, synthesis.resources().elementary_gates);
    }
}

/// The paper's benchmark cases: pipeline G-gate counts must be identical to
/// the pre-refactor manual chains (`lower_to_g_gates`, then
/// `cancel_inverse_pairs`).
#[test]
fn pipeline_g_gate_counts_match_the_manual_chains() {
    let benchmark_cases = [
        (3u32, 2usize),
        (3, 4),
        (3, 8),
        (3, 16),
        (4, 2),
        (4, 4),
        (4, 8),
        (5, 3),
        (5, 6),
    ];
    for (d, k) in benchmark_cases {
        let dimension = Dimension::new(d).unwrap();
        let synthesis = KToffoli::new(dimension, k).unwrap().synthesize().unwrap();
        let width = synthesis.layout().width;
        let macro_circuit = synthesis.circuit().clone();

        // Pre-refactor manual chain.
        let manual_g = qudit_synthesis::lower::lower_to_g_gates(&macro_circuit).unwrap();
        let manual_optimized = qudit_core::optimize::cancel_inverse_pairs(&manual_g);

        // Facade equivalents.
        let lowered = CompileOptions::new()
            .opt_level(OptLevel::O0)
            .shape(dimension, width)
            .compiler()
            .compile(&macro_circuit)
            .unwrap()
            .circuit;
        let standard = CompileOptions::new()
            .shape(dimension, width)
            .compiler()
            .compile(&macro_circuit)
            .unwrap();

        assert_eq!(
            lowered.len(),
            manual_g.len(),
            "lowering count (d={d}, k={k})"
        );
        assert_eq!(lowered, manual_g, "lowered circuit (d={d}, k={k})");
        assert_eq!(
            standard.circuit.len(),
            manual_optimized.len(),
            "optimised count (d={d}, k={k})"
        );
        assert_eq!(
            standard.circuit, manual_optimized,
            "optimised circuit (d={d}, k={k})"
        );
        // The resource report (now pipeline-backed) agrees as well.
        assert_eq!(
            synthesis.resources().g_gates,
            manual_g.len(),
            "resources (d={d}, k={k})"
        );
    }
}

/// The pipeline statistics chain consistently: each stage's input profile is
/// the previous stage's output profile, and the gate counts match the
/// returned circuit.
#[test]
fn pipeline_statistics_are_consistent() {
    let dimension = Dimension::new(3).unwrap();
    let synthesis = KToffoli::new(dimension, 5).unwrap().synthesize().unwrap();
    let report = synthesis.compile().unwrap();
    assert_eq!(report.stats.len(), 4);
    for window in report.stats.windows(2) {
        assert_eq!(window[0].after, window[1].before);
    }
    assert_eq!(
        report.stats.first().unwrap().before.gates,
        synthesis.circuit().len()
    );
    assert_eq!(
        report.stats.last().unwrap().after.gates,
        report.circuit.len()
    );
    // Cancellation only removes gates.
    let cancel = report.stats_for("cancel-inverse-pairs").unwrap();
    assert!(cancel.gate_delta() <= 0);
}

/// `VerifyEquivalence` rejects a pipeline stage that breaks semantics, even
/// when embedded in an otherwise-correct pipeline.
#[test]
fn verified_pipeline_catches_a_broken_stage() {
    use qudit_core::pipeline::{pass_fn, PassManager};
    use qudit_sim::pipeline::VerifyEquivalence;

    let dimension = Dimension::new(3).unwrap();
    let synthesis = KToffoli::new(dimension, 2).unwrap().synthesize().unwrap();

    // A "cancellation" that also deletes a real gate.
    let broken = pass_fn("broken-cancel", |c: Circuit| {
        let mut out = Circuit::new(c.dimension(), c.width());
        for gate in c.gates().iter().skip(1) {
            out.push(gate.clone())?;
        }
        Ok(out)
    });
    let manager = PassManager::new().with_pass(VerifyEquivalence::wrap(
        Box::new(broken),
        qudit_sim::SimBackend::Auto,
    ));
    let result = manager.run(synthesis.circuit().clone());
    assert!(matches!(
        result,
        Err(qudit_core::QuditError::PassFailed { .. })
    ));
}

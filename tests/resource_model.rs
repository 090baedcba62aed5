//! The resource model (`Resources::for_circuit`, which counts per gate kind
//! instead of compiling) against built `O0` circuits, and the paper's
//! linear-size law pinned exactly through the model.

use qudit_baselines::CleanAncillaMct;
use qudit_core::math::{Complex, SquareMatrix};
use qudit_core::{AncillaUsage, Circuit, Control, Dimension, Gate, Permutation, QuditId};
use qudit_core::{QuditError, SingleQuditOp};
use qudit_reversible::{ReversibleFunction, ReversibleSynthesizer};
use qudit_synthesis::{
    CompileOptions, KToffoli, MultiControlledGate, OptLevel, Resources, SynthesisError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dim(d: u32) -> Dimension {
    Dimension::new(d).unwrap()
}

fn o0_compile(circuit: &Circuit) -> qudit_core::Result<qudit_synthesis::CompileResult> {
    CompileOptions::new()
        .opt_level(OptLevel::O0)
        .compiler()
        .compile(circuit)
}

/// The model's counts equal those of the built `O0` compile: the first
/// stage's output profile for the elementary levels, the final circuit for
/// the G-gates.
fn assert_model_matches_compile(resources: &Resources, circuit: &Circuit, label: &str) {
    let result = o0_compile(circuit).unwrap();
    let elementary = &result.stats[0].after;
    assert_eq!(resources.macro_gates, circuit.len(), "{label}");
    assert_eq!(resources.elementary_gates, elementary.gates, "{label}");
    assert_eq!(
        resources.two_qudit_gates, elementary.two_qudit_gates,
        "{label}"
    );
    assert_eq!(resources.g_gates, result.circuit.len(), "{label}");
}

/// One target of every kind the constructions accept at dimension `d`.
fn targets(d: u32) -> Vec<SingleQuditOp> {
    let parity = if dim(d).is_even() {
        SingleQuditOp::ParityFlipEven
    } else {
        SingleQuditOp::ParityFlipOdd
    };
    let cycle: Vec<u32> = (0..d)
        .map(|x| [1, 2, 0].get(x as usize).map_or(x, |&y| y))
        .collect();
    vec![
        SingleQuditOp::Swap(1, d - 1),
        SingleQuditOp::Add(1),
        SingleQuditOp::Perm(Permutation::from_map(cycle).unwrap()),
        parity,
    ]
}

#[test]
fn model_matches_the_o0_compile_of_every_construction() {
    let mut rng = StdRng::seed_from_u64(16);
    for d in 3u32..=7 {
        // Both parities of the construction, kept small at the heavy d.
        let max_k = if d >= 5 { 3 } else { 4 };
        for k in 1..=max_k {
            let toffoli = KToffoli::new(dim(d), k).unwrap().synthesize().unwrap();
            assert_model_matches_compile(
                toffoli.resources(),
                toffoli.circuit(),
                &format!("KToffoli d={d} k={k}"),
            );
        }
        for op in targets(d) {
            let label = format!("d={d} op={op}");
            let gate = MultiControlledGate::new(dim(d), 3, op.clone())
                .unwrap()
                .synthesize()
                .unwrap();
            assert_model_matches_compile(gate.resources(), gate.circuit(), &label);
            let baseline = CleanAncillaMct::new(dim(d), 3, op)
                .unwrap()
                .synthesize()
                .unwrap();
            assert_model_matches_compile(baseline.resources(), baseline.circuit(), &label);
        }
        let variables = if d >= 5 { 2 } else { 3 };
        let function = ReversibleFunction::random(dim(d), variables, &mut rng);
        let reversible = ReversibleSynthesizer::new(dim(d))
            .unwrap()
            .synthesize(&function)
            .unwrap();
        assert_model_matches_compile(
            reversible.resources(),
            reversible.circuit(),
            &format!("reversible d={d} n={variables}"),
        );
    }
}

/// A circuit the model must refuse exactly as the compile does.
fn assert_model_fails_like_compile(circuit: &Circuit, label: &str) {
    let model = Resources::for_circuit(circuit, AncillaUsage::none()).unwrap_err();
    let compiled = o0_compile(circuit).unwrap_err();
    assert_eq!(model, SynthesisError::from(compiled), "{label}");
}

#[test]
fn model_fails_where_the_compile_fails() {
    let q = QuditId::new;
    let swap = || SingleQuditOp::Swap(0, 1);
    let zero = |i| Control::zero(q(i));

    // Three controls: such gates must be synthesised, not lowered.
    let mut three_controls = Circuit::new(dim(3), 4);
    three_controls
        .push(Gate::controlled(
            swap(),
            q(3),
            vec![zero(0), zero(1), zero(2)],
        ))
        .unwrap();
    assert_model_fails_like_compile(&three_controls, "three controls");

    // Even d, two controls and no free wire for the borrowed qudit.
    let mut no_free_wire = Circuit::new(dim(4), 3);
    no_free_wire
        .push(Gate::controlled(swap(), q(2), vec![zero(0), zero(1)]))
        .unwrap();
    assert_model_fails_like_compile(&no_free_wire, "no free wire");

    // A non-classical target (here the phase gate diag(1, 1, i)) has no
    // G-gate expansion.
    let (o, l, i) = (Complex::ZERO, Complex::ONE, Complex::I);
    let phase = SquareMatrix::from_rows(3, vec![l, o, o, o, l, o, o, o, i]).unwrap();
    let unitary_op = SingleQuditOp::Unitary(phase);
    let mut unitary = Circuit::new(dim(3), 2);
    unitary
        .push(Gate::controlled(unitary_op.clone(), q(1), vec![zero(0)]))
        .unwrap();
    assert_model_fails_like_compile(&unitary, "non-classical target");
    assert!(matches!(
        Resources::for_circuit(&unitary, AncillaUsage::none()),
        Err(SynthesisError::Core(QuditError::NotClassical))
    ));

    // The elementary stage runs over the whole circuit first, so its error
    // wins over an earlier gate's G-stage error.
    let mut both = Circuit::new(dim(3), 4);
    both.push(Gate::single(unitary_op, q(0))).unwrap();
    both.push(Gate::controlled(
        swap(),
        q(3),
        vec![zero(0), zero(1), zero(2)],
    ))
    .unwrap();
    assert_model_fails_like_compile(&both, "both stages fail");
}

/// Theorems III.2 / III.6: past k ≈ 16 the G-gate count of the k-Toffoli is
/// exactly affine in k, with these slopes per control for d = 3 … 7.
#[test]
fn k_toffoli_g_gates_are_exactly_affine_in_k() {
    const KS: [usize; 9] = [16, 24, 32, 48, 64, 128, 256, 512, 1000];
    const SLOPES: [(u32, usize); 5] = [(3, 3754), (4, 2784), (5, 47_068), (6, 8976), (7, 220_086)];
    for (d, slope) in SLOPES {
        let g_gates = |k: usize| {
            KToffoli::new(dim(d), k)
                .unwrap()
                .synthesize()
                .unwrap()
                .resources()
                .g_gates
        };
        let base = g_gates(KS[0]);
        for k in &KS[1..] {
            assert_eq!(
                g_gates(*k),
                base + slope * (k - KS[0]),
                "d={d}, k={k}: not on the affine line through k={}",
                KS[0]
            );
        }
    }
}

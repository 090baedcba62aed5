//! Property-based tests for the core data structures: permutations, gates,
//! circuits, lowering, the peephole optimiser and the depth metric.

use proptest::prelude::*;
use qudit_core::depth::circuit_depth;
use qudit_core::lowering::lower_circuit;
use qudit_core::math::SquareMatrix;
use qudit_core::pipeline::{CancelInversePairs, LowerToGGates, PassManager};
use qudit_core::{
    Circuit, Control, ControlPredicate, Dimension, Gate, GateOp, Permutation, QuditId,
    SingleQuditOp,
};

/// A strategy for dimensions 3..=8.
fn any_dimension() -> impl Strategy<Value = Dimension> {
    (3u32..=8).prop_map(|d| Dimension::new(d).unwrap())
}

/// A strategy producing a valid singly-controlled classical gate description
/// for a register of `width` qudits of dimension `d`.
#[derive(Debug, Clone)]
struct GateSpec {
    target: usize,
    control: usize,
    kind: u8,
    level_a: u32,
    level_b: u32,
    shift: u32,
}

fn gate_spec(width: usize, d: u32) -> impl Strategy<Value = GateSpec> {
    (0..width, 0..width, 0u8..4, 0..d, 0..d, 1..d).prop_map(
        |(target, control, kind, level_a, level_b, shift)| GateSpec {
            target,
            control,
            kind,
            level_a,
            level_b,
            shift,
        },
    )
}

fn build_gate(spec: &GateSpec, dimension: Dimension) -> Option<Gate> {
    if spec.target == spec.control {
        return None;
    }
    let op = match spec.kind {
        0 => {
            if spec.level_a == spec.level_b {
                return None;
            }
            SingleQuditOp::Swap(spec.level_a, spec.level_b)
        }
        1 => SingleQuditOp::Add(spec.shift),
        2 => {
            if dimension.is_even() {
                SingleQuditOp::ParityFlipEven
            } else {
                SingleQuditOp::ParityFlipOdd
            }
        }
        _ => SingleQuditOp::Add(dimension.get() - spec.shift),
    };
    let predicate = match spec.kind {
        0 => ControlPredicate::Level(spec.level_a),
        1 => ControlPredicate::Odd,
        2 => ControlPredicate::EvenNonzero,
        _ => ControlPredicate::NonZero,
    };
    Some(Gate::controlled(
        op,
        QuditId::new(spec.target),
        vec![Control::new(QuditId::new(spec.control), predicate)],
    ))
}

fn build_circuit(specs: &[GateSpec], dimension: Dimension, width: usize) -> Circuit {
    let mut circuit = Circuit::new(dimension, width);
    for spec in specs {
        if let Some(gate) = build_gate(spec, dimension) {
            circuit.push(gate).unwrap();
        }
    }
    circuit
}

fn all_states(dimension: Dimension, width: usize) -> Vec<Vec<u32>> {
    let d = dimension.as_usize();
    (0..dimension.register_size(width))
        .map(|mut index| {
            let mut digits = vec![0u32; width];
            for slot in digits.iter_mut().rev() {
                *slot = (index % d) as u32;
                index /= d;
            }
            digits
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Permutation composition is associative and respects inverses.
    #[test]
    fn permutation_algebra(
        a in Just((0u32..7).collect::<Vec<u32>>()).prop_shuffle(),
        b in Just((0u32..7).collect::<Vec<u32>>()).prop_shuffle(),
        c in Just((0u32..7).collect::<Vec<u32>>()).prop_shuffle(),
    ) {
        let pa = Permutation::from_map(a).unwrap();
        let pb = Permutation::from_map(b).unwrap();
        let pc = Permutation::from_map(c).unwrap();
        prop_assert_eq!(pa.compose(&pb).compose(&pc), pa.compose(&pb.compose(&pc)));
        prop_assert!(pa.compose(&pa.inverse()).is_identity());
        prop_assert_eq!(pa.compose(&pb).inverse(), pb.inverse().compose(&pa.inverse()));
    }

    /// Permutation parity is multiplicative under composition.
    #[test]
    fn permutation_parity_is_multiplicative(
        a in Just((0u32..6).collect::<Vec<u32>>()).prop_shuffle(),
        b in Just((0u32..6).collect::<Vec<u32>>()).prop_shuffle(),
    ) {
        let pa = Permutation::from_map(a).unwrap();
        let pb = Permutation::from_map(b).unwrap();
        let product = pa.compose(&pb);
        prop_assert_eq!(product.is_even(), pa.is_even() == pb.is_even());
    }

    /// Classical single-qudit operations invert correctly on every level.
    #[test]
    fn single_qudit_ops_invert(dimension in any_dimension(), level_seed in 0u32..100, shift in 1u32..8) {
        let d = dimension.get();
        let level = level_seed % d;
        let ops = vec![
            SingleQuditOp::Add(shift % d),
            SingleQuditOp::Swap(0, d - 1),
            if dimension.is_even() { SingleQuditOp::ParityFlipEven } else { SingleQuditOp::ParityFlipOdd },
        ];
        for op in ops {
            let forward = op.apply_level(level, dimension).unwrap();
            let back = op.inverse(dimension).apply_level(forward, dimension).unwrap();
            prop_assert_eq!(back, level, "op {} level {}", op, level);
        }
    }

    /// Lowering, inversion and optimisation all preserve the circuit's action
    /// on the computational basis.
    #[test]
    fn circuit_transformations_preserve_semantics(
        dimension in any_dimension(),
        specs in prop::collection::vec(gate_spec(3, 8), 0..10),
    ) {
        // Clamp levels to the chosen dimension.
        let specs: Vec<GateSpec> = specs
            .into_iter()
            .map(|mut s| {
                s.level_a %= dimension.get();
                s.level_b %= dimension.get();
                s.shift = 1 + (s.shift % (dimension.get() - 1));
                s
            })
            .collect();
        let circuit = build_circuit(&specs, dimension, 3);
        // Route the lower-then-cancel chain through the pass pipeline.
        let manager = PassManager::new()
            .with_pass(LowerToGGates)
            .with_pass(CancelInversePairs);
        let report = manager.run(circuit.clone()).unwrap();
        let lowered = lower_circuit(&circuit).unwrap();
        prop_assert_eq!(&report.stats[0].after.gates, &lowered.len());
        let optimized = report.circuit;
        let mut round_trip = circuit.clone();
        round_trip.append(&circuit.inverse()).unwrap();
        for state in all_states(dimension, 3) {
            let expected = circuit.apply_to_basis(&state).unwrap();
            prop_assert_eq!(lowered.apply_to_basis(&state).unwrap(), expected.clone());
            prop_assert_eq!(optimized.apply_to_basis(&state).unwrap(), expected);
            prop_assert_eq!(round_trip.apply_to_basis(&state).unwrap(), state);
        }
        prop_assert!(optimized.len() <= lowered.len());
        prop_assert!(circuit_depth(&optimized) <= circuit_depth(&lowered).max(1));
    }

    /// Depth is bounded by the gate count and monotone under concatenation.
    #[test]
    fn depth_bounds(
        dimension in any_dimension(),
        specs in prop::collection::vec(gate_spec(4, 8), 1..12),
    ) {
        let specs: Vec<GateSpec> = specs
            .into_iter()
            .map(|mut s| {
                s.level_a %= dimension.get();
                s.level_b %= dimension.get();
                s.shift = 1 + (s.shift % (dimension.get() - 1));
                s
            })
            .collect();
        let circuit = build_circuit(&specs, dimension, 4);
        let depth = circuit_depth(&circuit);
        prop_assert!(depth <= circuit.len());
        let mut doubled = circuit.clone();
        doubled.append(&circuit).unwrap();
        prop_assert!(circuit_depth(&doubled) >= depth);
        prop_assert!(circuit_depth(&doubled) <= 2 * depth.max(1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cache correctness: cached lowering output is gate-for-gate identical
    /// to uncached lowering across random dimensions and widths, and the
    /// reported counters equal the cache's own delta, on a fresh and on a
    /// warm cache.
    #[test]
    fn cached_lowering_matches_uncached(
        dimension in any_dimension(),
        width in 2usize..=6,
        specs in prop::collection::vec(gate_spec(6, 8), 1..16),
    ) {
        use qudit_core::cache::{CacheCounters, LoweringCache};
        use qudit_core::lowering::lower_circuit_cached;

        // Clamp the specs to the chosen dimension and width.
        let specs: Vec<GateSpec> = specs
            .into_iter()
            .map(|mut s| {
                s.target %= width;
                s.control %= width;
                s.level_a %= dimension.get();
                s.level_b %= dimension.get();
                s.shift = 1 + (s.shift % (dimension.get() - 1));
                s
            })
            .collect();
        let circuit = build_circuit(&specs, dimension, width);
        let reference = lower_circuit(&circuit).unwrap();

        // Every non-G-gate consults the cache exactly once.
        let lookups = circuit.gates().iter().filter(|g| !g.is_g_gate()).count() as u64;
        let cache = LoweringCache::new();
        // The first pass runs on a fresh cache, the second on a warm one.
        for _ in 0..2 {
            let before = cache.counters();
            let mut counters = CacheCounters::default();
            let cached = lower_circuit_cached(&circuit, &cache, &mut counters).unwrap();
            let after = cache.counters();
            prop_assert_eq!(&cached, &reference);
            prop_assert_eq!(counters.total(), lookups);
            prop_assert_eq!(counters.hits, after.hits - before.hits);
            prop_assert_eq!(counters.misses, after.misses - before.misses);
        }
        // Only the fresh pass missed, once per cached kind.
        prop_assert_eq!(cache.counters().misses, cache.len() as u64);
    }
}

/// Parameters of one random gate for [`random_gate`].
type RawGate = (usize, u8, u32, u32, Vec<u32>);

fn raw_gate() -> impl Strategy<Value = RawGate> {
    (
        0usize..=3,
        0u8..7,
        0u32..1000,
        0u32..1000,
        Just((0u32..6).collect::<Vec<u32>>()).prop_shuffle(),
    )
}

/// A valid gate on a 6-qudit register of dimension `d`: up to three
/// controls with level or predicate tests, and every operation kind
/// (`Swap`, `Add`, parity flips, `Perm`, `Unitary`, `AddFrom`).
fn random_gate(raw: &RawGate, dimension: Dimension) -> Gate {
    let &(controls, kind, a, b, ref wires) = raw;
    let d = dimension.get();
    let wire = |i: usize| QuditId::new(wires[i] as usize);
    let predicates = [
        ControlPredicate::Level(a % d),
        ControlPredicate::Odd,
        ControlPredicate::EvenNonzero,
        ControlPredicate::NonZero,
    ];
    let controls: Vec<Control> = (0..controls)
        .map(|i| Control::new(wire(i), predicates[(b as usize + i) % 4]))
        .collect();
    let target = wire(4);
    let (i, j) = (a % d, (a % d + 1 + b % (d - 1)) % d);
    let op = match kind {
        0 => SingleQuditOp::Swap(i, j),
        1 => SingleQuditOp::Add(b % d),
        2 if dimension.is_even() => SingleQuditOp::ParityFlipEven,
        2 => SingleQuditOp::ParityFlipOdd,
        3 => {
            let map: Vec<u32> = (0..d).map(|x| (x * (1 + 2 * (a % 2)) + b) % d).collect();
            SingleQuditOp::Perm(
                Permutation::from_map(map).unwrap_or_else(|_| Permutation::identity(dimension)),
            )
        }
        4 => {
            let map: Vec<usize> = (0..d as usize)
                .map(|x| (x + b as usize) % d as usize)
                .collect();
            SingleQuditOp::Unitary(SquareMatrix::from_permutation(&map).unwrap())
        }
        _ => return Gate::add_from(wire(5), kind == 6, target, controls),
    };
    Gate::controlled(op, target, controls)
}

/// Candidates for `is_inverse_of`: the exact inverse, the gate itself, the
/// gate with its `Swap` levels or `AddFrom` sign flipped, or an unrelated
/// gate.
fn partner(gate: &Gate, other: &Gate, choice: u8, dimension: Dimension) -> Gate {
    match choice {
        0 => gate.inverse(dimension),
        1 => gate.clone(),
        2 => match gate.op() {
            GateOp::Single(SingleQuditOp::Swap(i, j)) => Gate::controlled(
                SingleQuditOp::Swap(*j, *i),
                gate.target(),
                gate.controls().to_vec(),
            ),
            GateOp::AddFrom { source, negate } => {
                Gate::add_from(*source, *negate, gate.target(), gate.controls().to_vec())
            }
            _ => other.clone(),
        },
        _ => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `wires`, `arity` and `is_inverse_of` agree with the allocating
    /// accessors they replace in the per-gate loops.
    #[test]
    fn wire_accessors_match_their_allocating_oracles(
        dimension in any_dimension(),
        first in raw_gate(),
        second in raw_gate(),
        choice in 0u8..4,
    ) {
        let gate = random_gate(&first, dimension);
        prop_assert!(gate.validate(dimension, 6).is_ok());
        prop_assert_eq!(gate.wires().collect::<Vec<_>>(), gate.qudits());
        prop_assert_eq!(gate.arity(), gate.qudits().len());
        let other = partner(&gate, &random_gate(&second, dimension), choice, dimension);
        prop_assert_eq!(
            other.is_inverse_of(&gate, dimension),
            gate.inverse(dimension) == other,
            "{} after {}", other, gate
        );
        prop_assert!(gate.inverse(dimension).is_inverse_of(&gate, dimension));
    }
}

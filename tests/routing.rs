//! Integration suite for the connectivity-routing subsystem
//! (`qudit_core::topology` + `qudit_core::route`):
//!
//! * routed circuit + inverse-permutation epilogue ≡ original, checked by
//!   `VerifyEquivalence` across `SimBackend::{Dense, Sparse, Auto}` ×
//!   pool widths 1 and 4 (and, at the facade level, across
//!   `Threads::{Fixed(1), Fixed(4)}`);
//! * every routed circuit passes the adjacency validator, and the
//!   validator rejects hand-built violating circuits with typed errors;
//! * routing is idempotent on already-routed circuits (the fast path
//!   returns them untouched with zero swaps).

use std::sync::Arc;

use proptest::prelude::*;
use qudit_core::pipeline::PassManager;
use qudit_core::pool::WorkStealingPool;
use qudit_core::route::{
    route_circuit, validate_adjacency, NoiseAwareCost, RoutePass, Router, UniformCost,
};
use qudit_core::topology::CouplingGraph;
use qudit_core::{Circuit, Control, Dimension, Gate, QuditError, QuditId, SingleQuditOp};
use qudit_sim::{SimBackend, VerifyEquivalence};
use qudit_synthesis::{CompileOptions, Threads, Verify};

fn dim(d: u32) -> Dimension {
    Dimension::new(d).unwrap()
}

/// One of the three stock topologies, always with `sites >= width`.
fn graph_for(width: usize, pick: u8) -> CouplingGraph {
    match pick % 3 {
        0 => CouplingGraph::linear(width).unwrap(),
        1 => CouplingGraph::ring(width.max(3)).unwrap(),
        _ => CouplingGraph::grid(2, width.div_ceil(2)).unwrap(),
    }
}

/// Builds a classical circuit of one- and two-qudit gates from generated
/// specs — arity ≤ 2 by construction, so the circuit is routable without
/// any lowering.
fn build_circuit(dimension: Dimension, width: usize, specs: &[(u8, u8, u8, u8)]) -> Circuit {
    let d = dimension.get();
    let mut circuit = Circuit::new(dimension, width);
    for &(kind, a, b, level) in specs {
        let a = a as usize % width;
        let b = b as usize % width;
        let target = QuditId::new(a);
        let other = QuditId::new(if a == b { (a + 1) % width } else { b });
        let gate = match kind % 6 {
            0 => Gate::single(SingleQuditOp::Add(1 + level as u32 % (d - 1)), target),
            1 => Gate::single(
                SingleQuditOp::Swap(level as u32 % d, (level as u32 + 1) % d),
                target,
            ),
            2 if width >= 2 => Gate::controlled(
                SingleQuditOp::Add(1 + level as u32 % (d - 1)),
                target,
                vec![Control::level(other, level as u32 % d)],
            ),
            3 if width >= 2 => Gate::add_from(other, level % 2 == 0, target, vec![]),
            4 if width >= 2 => Gate::controlled(
                SingleQuditOp::Swap(0, 1 + level as u32 % (d - 1)),
                target,
                vec![Control::nonzero(other)],
            ),
            _ => Gate::single(
                SingleQuditOp::Perm(
                    qudit_core::Permutation::from_map((0..d).map(|l| (l + 1) % d).collect())
                        .unwrap(),
                ),
                target,
            ),
        };
        circuit.push(gate).unwrap();
    }
    circuit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The routed circuit plus its inverse-permutation epilogue is
    /// equivalent to the original: `VerifyEquivalence` accepts the
    /// `"route"` stage on every backend and pool width, and the stage's
    /// output honours the coupling graph.
    #[test]
    fn routed_circuits_verify_on_every_backend_and_pool_width(
        d in prop::sample::select(vec![2u32, 3]),
        width in 3usize..=4,
        pick in 0u8..3,
        specs in prop::collection::vec((0u8..6, 0u8..8, 0u8..8, 0u8..8), 1..10),
    ) {
        let dimension = dim(d);
        let graph = graph_for(width, pick);
        // `VerifyEquivalence` requires width-stable passes, so embed the
        // circuit in the physical register first (exactly what the
        // compiler facade does before its pipeline).
        let circuit = build_circuit(dimension, width, &specs)
            .widened(graph.sites())
            .unwrap();
        for backend in [SimBackend::Dense, SimBackend::Sparse, SimBackend::Auto] {
            for threads in [1usize, 4] {
                let stage = RoutePass::new(graph.clone(), Arc::new(UniformCost));
                let manager = PassManager::new()
                    .with_pool(WorkStealingPool::with_threads(threads))
                    .with_pass(VerifyEquivalence::wrap(Box::new(stage), backend));
                let routed = manager.run(circuit.clone()).unwrap_or_else(|e| {
                    panic!("routing rejected on backend {backend} with {threads} threads: {e}")
                });
                prop_assert!(validate_adjacency(&routed.circuit, &graph).is_ok());
            }
        }
    }

    /// Routing an already-routed circuit is a no-op: the router's fast
    /// path reports zero swaps and returns the circuit untouched.
    #[test]
    fn routing_is_idempotent_on_routed_circuits(
        d in prop::sample::select(vec![2u32, 3]),
        width in 3usize..=4,
        pick in 0u8..3,
        specs in prop::collection::vec((0u8..6, 0u8..8, 0u8..8, 0u8..8), 1..10),
    ) {
        let dimension = dim(d);
        let graph = graph_for(width, pick);
        let circuit = build_circuit(dimension, width, &specs);
        let routed = route_circuit(&circuit, &graph, &NoiseAwareCost::default())
            .unwrap()
            .with_epilogue(&graph)
            .unwrap();
        let again = route_circuit(&routed, &graph, &NoiseAwareCost::default()).unwrap();
        prop_assert!(again.is_trivial(), "second route must take the fast path");
        prop_assert_eq!(again.swap_count, 0usize);
        prop_assert_eq!(&again.circuit, &routed);
    }
}

/// The adjacency validator rejects hand-built violations with typed
/// errors naming the offence, and the router refuses un-lowered gates.
#[test]
fn validator_rejects_hand_built_violations() {
    let dimension = dim(3);
    let graph = CouplingGraph::linear(3).unwrap();

    // A two-qudit gate across the chain's non-edge (0, 2).
    let mut uncoupled = Circuit::new(dimension, 3);
    uncoupled
        .push(Gate::add_from(
            QuditId::new(0),
            false,
            QuditId::new(2),
            vec![],
        ))
        .unwrap();
    match validate_adjacency(&uncoupled, &graph) {
        Err(QuditError::UncoupledGate { a: 0, b: 2, .. }) => {}
        other => panic!("expected UncoupledGate {{0, 2}}, got {other:?}"),
    }
    // The router repairs exactly that violation.
    let routed = route_circuit(&uncoupled, &graph, &UniformCost).unwrap();
    assert!(
        routed.swap_count > 0,
        "the non-edge forces at least one SWAP"
    );
    assert!(validate_adjacency(&routed.circuit, &graph).is_ok());

    // A three-qudit gate must be lowered before routing.
    let mut wide = Circuit::new(dimension, 3);
    wide.push(Gate::controlled(
        SingleQuditOp::Add(1),
        QuditId::new(2),
        vec![
            Control::nonzero(QuditId::new(0)),
            Control::nonzero(QuditId::new(1)),
        ],
    ))
    .unwrap();
    assert!(matches!(
        validate_adjacency(&wide, &graph),
        Err(QuditError::UnsupportedLowering { .. })
    ));
    assert!(matches!(
        Router::new(&graph, &UniformCost).route(&wide),
        Err(QuditError::UnsupportedLowering { .. })
    ));

    // A circuit wider than the graph is a typed size error.
    let narrow_graph = CouplingGraph::linear(2).unwrap();
    assert!(matches!(
        validate_adjacency(&uncoupled, &narrow_graph),
        Err(QuditError::TopologyTooSmall { sites: 2, .. })
    ));
}

/// Facade-level refinement of the equivalence property: a routed, fully
/// verified compile succeeds on every backend × `Threads::{Fixed(1),
/// Fixed(4)}`, and the compiled circuit honours the graph.
#[test]
fn routed_compiles_verify_across_backends_and_thread_counts() {
    let dimension = dim(3);
    let graph = CouplingGraph::linear(4).unwrap();
    let mut circuit = Circuit::new(dimension, 4);
    circuit
        .push(Gate::controlled(
            SingleQuditOp::Add(1),
            QuditId::new(3),
            vec![Control::level(QuditId::new(0), 2)],
        ))
        .unwrap();
    circuit
        .push(Gate::add_from(
            QuditId::new(1),
            false,
            QuditId::new(3),
            vec![],
        ))
        .unwrap();
    circuit
        .push(Gate::single(SingleQuditOp::Swap(0, 2), QuditId::new(2)))
        .unwrap();
    for backend in [SimBackend::Dense, SimBackend::Sparse, SimBackend::Auto] {
        for threads in [Threads::Fixed(1), Threads::Fixed(4)] {
            let result = CompileOptions::new()
                .topology(graph.clone())
                .cost(NoiseAwareCost::default())
                .verify(Verify::Exhaustive)
                .backend(backend)
                .threads(threads)
                .compiler()
                .compile(&circuit)
                .unwrap_or_else(|e| panic!("backend {backend} / {threads:?}: {e}"));
            assert!(result.verification.is_verified());
            assert!(validate_adjacency(&result.circuit, &graph).is_ok());
            assert!(result.swap_count.is_some());
            assert!(result.weighted_cost.unwrap_or(0.0) > 0.0);
        }
    }
}

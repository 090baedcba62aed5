//! Round-trip property suites for the text IR (`qudit_core::qasm`):
//!
//! * `parse ∘ print = id` *structurally* on random circuits drawn from the
//!   full dialect repertoire (swaps, shifts, parity flips, permutations,
//!   Fourier/phase Cliffords, Haar-like unitaries, `SUM`, up to two
//!   controls of every predicate kind) over dimensions {2, 3, 5};
//! * `compile_source(print(c)) ≡ compile(c)` — gate-for-gate after the
//!   standard `O1` flow, with identical `VerifyEquivalence` verdicts —
//!   across `SimBackend::{Dense, Sparse, Auto}` × `Threads::{Fixed(1),
//!   Fixed(4)}` (the CI matrix additionally runs the whole suite under
//!   `QUDIT_THREADS=1` and `=4`);
//! * the same equivalence on all-Clifford workloads through the
//!   `Stabilizer` backend.

use proptest::prelude::*;
use qudit_core::pipeline::{pass_fn, PassManager};
use qudit_core::pool::WorkStealingPool;
use qudit_core::qasm::{parse_source, print_circuit};
use qudit_core::{Circuit, Dimension};
use qudit_sim::random::{
    random_classical_dialect_circuit, random_clifford_circuit, random_dialect_circuit,
};
use qudit_sim::{SimBackend, VerifyEquivalence};
use qudit_synthesis::{CompileOptions, OptLevel, Threads, Verify};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dim(d: u32) -> Dimension {
    Dimension::new(d).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The printer is an exact structural inverse of the parser over the
    /// full repertoire, unitary matrix entries included bit-for-bit.
    #[test]
    fn parse_print_identity_on_full_repertoire(
        seed in any::<u64>(),
        d in prop::sample::select(vec![2u32, 3, 5]),
        width in 1usize..5,
        gates in 0usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_dialect_circuit(dim(d), width, gates, &mut rng);
        let printed = print_circuit(&circuit);
        let reparsed = parse_source(&printed)
            .unwrap_or_else(|e| panic!("printed circuit failed to reparse: {e}\n{printed}"));
        prop_assert_eq!(reparsed, circuit, "printed:\n{}", printed);
    }

    /// Printing is deterministic and idempotent: printing the reparsed
    /// circuit reproduces the text byte-for-byte.
    #[test]
    fn printing_is_canonical(
        seed in any::<u64>(),
        d in prop::sample::select(vec![2u32, 3, 5]),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_dialect_circuit(dim(d), 3, 12, &mut rng);
        let printed = print_circuit(&circuit);
        let reprinted = print_circuit(&parse_source(&printed).unwrap());
        prop_assert_eq!(printed, reprinted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A text job and its native-circuit twin behave identically through
    /// the whole `O1` pass stack — same compiled gates, depth and verified
    /// verdict when compilation succeeds, the *same typed error* when it
    /// does not (some random circuits legitimately need ancilla wires the
    /// register lacks) — on every backend and fixed pool width.
    #[test]
    fn compile_source_matches_native_compile(
        seed in any::<u64>(),
        d in prop::sample::select(vec![2u32, 3, 5]),
        gates in 1usize..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_classical_dialect_circuit(dim(d), 4, gates, &mut rng);
        let printed = print_circuit(&circuit);
        for backend in [SimBackend::Dense, SimBackend::Sparse, SimBackend::Auto] {
            for threads in [Threads::Fixed(1), Threads::Fixed(4)] {
                let compiler = CompileOptions::new()
                    .opt_level(OptLevel::O1)
                    .verify(Verify::Exhaustive)
                    .backend(backend)
                    .threads(threads)
                    .compiler();
                let native = compiler.compile(&circuit);
                let text = compiler.compile_source(&printed);
                match (native, text) {
                    (Ok(native), Ok(text)) => {
                        prop_assert_eq!(
                            &text.circuit, &native.circuit,
                            "backend {} / {:?} diverged", backend, threads
                        );
                        prop_assert_eq!(text.depth, native.depth);
                        prop_assert_eq!(text.verification, native.verification);
                        prop_assert!(text.verification.is_verified());
                        // The exporter closes the loop: compiled output
                        // reparses to the compiled circuit.
                        prop_assert_eq!(
                            parse_source(&text.to_qasm()).unwrap(),
                            text.circuit
                        );
                    }
                    (Err(native), Err(text)) => prop_assert_eq!(
                        text, native,
                        "backend {} / {:?}: errors diverged", backend, threads
                    ),
                    (native, text) => prop_assert!(
                        false,
                        "backend {} / {:?}: one path failed, the other did not \
                         (native: {:?}, text: {:?})",
                        backend, threads, native.is_ok(), text.is_ok()
                    ),
                }
            }
        }
    }

    /// The refinement check of the round trip itself: `VerifyEquivalence`
    /// — on both the `Auto` and `Stabilizer` backends, across pool widths
    /// 1 and 4 — accepts `c → parse(print(c))` as an equivalence-preserving
    /// "pass" on random all-Clifford circuits.
    #[test]
    fn clifford_round_trip_verifies_on_the_stabilizer_backend(
        seed in any::<u64>(),
        d in prop::sample::select(vec![2u32, 3, 5]),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_clifford_circuit(dim(d), 3, 12, &mut rng);
        prop_assert_eq!(&parse_source(&print_circuit(&circuit)).unwrap(), &circuit);
        for backend in [SimBackend::Auto, SimBackend::Stabilizer] {
            for threads in [1usize, 4] {
                let round_trip = pass_fn("qasm-round-trip", |c: Circuit| {
                    let printed = print_circuit(&c);
                    parse_source(&printed).map_err(qudit_core::QuditError::from)
                });
                let manager = PassManager::new()
                    .with_pool(WorkStealingPool::with_threads(threads))
                    .with_pass(
                        VerifyEquivalence::wrap(Box::new(round_trip), backend),
                    );
                prop_assert!(
                    manager.run(circuit.clone()).is_ok(),
                    "round trip rejected on backend {} with {} threads", backend, threads
                );
            }
        }
    }
}

/// `parse(print(parse(s)))` keeps a user-chosen register name: the printer
/// no longer canonicalises every register to `q`.
#[test]
fn register_names_survive_print_parse_round_trips() {
    let source = "OPENQASM 3.0;\n\
                  qudit[3] anc[2];\n\
                  ctrl @ shift(1) anc[0], anc[1];\n";
    let parsed = parse_source(source).unwrap();
    assert_eq!(parsed.register_name(), Some("anc"));
    let printed = print_circuit(&parsed);
    assert!(printed.contains("qudit[3] anc[2];"), "printed:\n{printed}");
    assert!(printed.contains("anc[0], anc[1]"), "printed:\n{printed}");
    let reparsed = parse_source(&printed).unwrap();
    assert_eq!(reparsed.register_name(), Some("anc"));
    assert_eq!(reparsed, parsed);
    // Programmatic circuits still print as the canonical register `q`.
    let mut anonymous = Circuit::new(dim(3), 1);
    anonymous
        .push(qudit_core::Gate::single(
            qudit_core::SingleQuditOp::Add(1),
            qudit_core::QuditId::new(0),
        ))
        .unwrap();
    assert!(print_circuit(&anonymous).contains("qudit[3] q[1];"));
}

/// A deterministic smoke of the whole loop at fixed seeds, so a plain
/// `cargo test qasm` exercises the property even if the proptest shim's
/// case count is trimmed via environment.
#[test]
fn fixed_seed_round_trip_smoke() {
    for (seed, d) in [(1u64, 2u32), (2, 3), (3, 5)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_dialect_circuit(dim(d), 4, 20, &mut rng);
        let printed = print_circuit(&circuit);
        assert_eq!(parse_source(&printed).unwrap(), circuit, "d={d}");
    }
}

/// A deterministic compile-equivalence case that must take the `Ok` path
/// (single controls only, a spare wire available), so the property above
/// cannot silently degenerate into comparing errors.
#[test]
fn fixed_source_compiles_identically_to_its_circuit() {
    let source = "OPENQASM 3.0;\n\
                  qudit[3] q[3];\n\
                  ctrl(1) @ swap(0, 2) q[0], q[1];\n\
                  shift(2) q[2];\n\
                  ctrl(odd) @ sum q[2], q[0], q[1];\n\
                  perm(2, 0, 1) q[0];\n";
    let circuit = parse_source(source).unwrap();
    for backend in [SimBackend::Dense, SimBackend::Sparse, SimBackend::Auto] {
        for threads in [Threads::Fixed(1), Threads::Fixed(4)] {
            let compiler = CompileOptions::new()
                .opt_level(OptLevel::O1)
                .verify(Verify::Exhaustive)
                .backend(backend)
                .threads(threads)
                .compiler();
            let native = compiler.compile(&circuit).unwrap();
            let text = compiler.compile_source(source).unwrap();
            assert_eq!(text.circuit, native.circuit);
            assert!(text.verification.is_verified());
        }
    }
}

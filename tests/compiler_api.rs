//! End-to-end suite for the `Compiler` / `CompileOptions` facade:
//!
//! * knob coverage: every combination of the orthogonal option knobs
//!   assembles, and the assembled pass list is exactly the one the options
//!   describe;
//! * property-based round-trip: random mixed multi-controlled circuits
//!   compile under `Verify::Exhaustive` across
//!   `SimBackend::{Dense, Sparse, Auto}` and `Threads::{Fixed(1), Fixed(4)}`
//!   with bit-identical outputs (the CI thread matrix additionally runs the
//!   whole suite under `QUDIT_THREADS=1` and `=4`).

use proptest::prelude::*;
use qudit_core::cache::LoweringCache;
use qudit_core::pipeline::CacheMode;
use qudit_core::{Circuit, Dimension, Gate, QuditId, SingleQuditOp};
use qudit_sim::SimBackend;
use qudit_synthesis::{emit_multi_controlled, CompileOptions, KToffoli, OptLevel, Threads, Verify};

fn dim(d: u32) -> Dimension {
    Dimension::new(d).unwrap()
}

/// Every combination of the orthogonal knobs assembles, and the assembled
/// pass list is exactly the one the options describe.
#[test]
fn every_knob_combination_assembles() {
    let verifies = [Verify::Off, Verify::Exhaustive, Verify::Sampled(16)];
    let backends = [SimBackend::Dense, SimBackend::Sparse, SimBackend::Auto];
    let caches = || {
        [
            CacheMode::Off,
            CacheMode::PerRun,
            CacheMode::Shared(LoweringCache::shared()),
        ]
    };
    let threads = [Threads::Auto, Threads::Fixed(1), Threads::Fixed(4)];
    let mut combinations = 0usize;
    for verify in verifies {
        for backend in backends {
            for fusion in [true, false] {
                for cancel in [true, false] {
                    for schedule in [true, false] {
                        for cache in caches() {
                            for thread in threads {
                                let options = CompileOptions::new()
                                    .verify(verify)
                                    .backend(backend)
                                    .fusion(fusion)
                                    .cancel(cancel)
                                    .schedule(schedule)
                                    .cache(cache.clone())
                                    .threads(thread);
                                let manager = options.build_manager();

                                // The pass list is exactly what the knobs select.
                                let mut expected = Vec::new();
                                if fusion {
                                    expected.push("gate-fusion");
                                }
                                expected.extend(["lower-to-elementary", "lower-to-g-gates"]);
                                if cancel {
                                    expected.push("cancel-inverse-pairs");
                                }
                                if schedule {
                                    expected.push("schedule-depth");
                                }
                                let expected: Vec<String> = expected
                                    .iter()
                                    .map(|stage| match verify {
                                        Verify::Off => stage.to_string(),
                                        _ => format!("verify({stage})"),
                                    })
                                    .collect();
                                assert_eq!(manager.pass_names(), expected, "{options:?}");
                                combinations += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(combinations, 3 * 3 * 2 * 2 * 2 * 3 * 3);
}

/// The pinned pool reaches the verification wrappers: above the parallel
/// sweep threshold (1024 basis states), `Verify::Exhaustive` fans its
/// basis sweep out on the compiler's pool — `Fixed(1)` stays sequential,
/// `Fixed(4)` runs the pool path — and both verdicts and outputs agree.
#[test]
fn pinned_pools_reach_the_verification_sweep() {
    // d=4, k=4 → width 6, 4^6 = 4096 basis states ≥ the parallel-verify
    // threshold, and still within the exhaustive bound.
    let synthesis = KToffoli::new(dim(4), 4).unwrap().synthesize().unwrap();
    let mut reference: Option<Circuit> = None;
    for threads in [Threads::Fixed(1), Threads::Fixed(4)] {
        let compiler = CompileOptions::new()
            .verify(Verify::Exhaustive)
            .threads(threads)
            .compiler();
        let result = compiler.compile(synthesis.circuit()).unwrap();
        assert!(result.verification.is_verified(), "{threads:?}");
        match &reference {
            Some(expected) => assert_eq!(&result.circuit, expected, "{threads:?}"),
            None => reference = Some(result.circuit),
        }
    }
}

/// Builds a circuit of mixed multi-controlled gates over `width` qudits
/// (one spare wire reserved as the borrowed pool for even `d`) — the same
/// workload family as the pipeline proptests.
fn build_mct_circuit(dimension: Dimension, specs: &[(usize, usize, u8, u32, u32)]) -> Circuit {
    let d = dimension.get();
    let max_controls = specs.iter().map(|s| s.0).max().expect("non-empty specs");
    let width = max_controls + 2;
    let mut circuit = Circuit::new(dimension, width);
    for &(k, target_offset, op_kind, shift, level_seed) in specs {
        let op = match op_kind % 3 {
            0 => SingleQuditOp::Swap(0, 1 + shift % (d - 1)),
            1 => SingleQuditOp::Add(1 + shift % (d - 1)),
            _ => SingleQuditOp::Swap(shift % d, (shift + 1) % d),
        };
        let target = QuditId::new(k + (target_offset % (width - k)));
        let controls: Vec<(QuditId, u32)> = (0..k)
            .map(|i| (QuditId::new(i), (level_seed.wrapping_add(i as u32 * 7)) % d))
            .collect();
        let pool: Vec<QuditId> = (0..width)
            .map(QuditId::new)
            .filter(|q| *q != target && !controls.iter().any(|(c, _)| c == q))
            .collect();
        emit_multi_controlled(&mut circuit, &controls, target, &op, &pool)
            .expect("multi-controlled emission succeeds for valid specs");
    }
    circuit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random mixed circuits compile under `Verify::Exhaustive` on every
    /// simulation backend and fixed thread count, with bit-identical
    /// outputs across the whole grid and a verified verdict everywhere.
    #[test]
    fn options_round_trip_on_random_mixed_circuits(
        d in 3u32..=4,
        specs in prop::collection::vec((1usize..=2, 0usize..4, 0u8..3, 0u32..8, 0u32..8), 1..3),
        schedule in any::<bool>(),
    ) {
        let dimension = Dimension::new(d).unwrap();
        let circuit = build_mct_circuit(dimension, &specs);
        let mut reference: Option<Circuit> = None;
        for backend in [SimBackend::Dense, SimBackend::Sparse, SimBackend::Auto] {
            for threads in [Threads::Fixed(1), Threads::Fixed(4)] {
                let compiler = CompileOptions::new()
                    .verify(Verify::Exhaustive)
                    .backend(backend)
                    .schedule(schedule)
                    .cache(CacheMode::PerRun)
                    .threads(threads)
                    .compiler();
                let result = compiler.compile(&circuit).unwrap();
                prop_assert!(result.verification.is_verified());
                prop_assert!(result.circuit.gates().iter().all(Gate::is_g_gate));
                prop_assert_eq!(
                    result.depth,
                    qudit_core::depth::circuit_depth(&result.circuit)
                );
                match &reference {
                    Some(expected) => prop_assert_eq!(
                        &result.circuit, expected,
                        "backend {} / {:?} diverged", backend, threads
                    ),
                    None => reference = Some(result.circuit),
                }
            }
        }
    }

    /// Re-compiling compiled output is monotone for the full flow (fusion
    /// runs *before* lowering, so a re-compile may legitimately fuse runs
    /// inside freshly re-lowered gadget interiors — but never grow the
    /// circuit), and a strict fixpoint once the fusion stage is disabled:
    /// compiling is idempotent on already-compiled circuits at every opt
    /// level for the fusion-free flow.
    #[test]
    fn compilation_is_idempotent_per_opt_level(
        d in 3u32..=4,
        specs in prop::collection::vec((1usize..=2, 0usize..4, 0u8..3, 0u32..8, 0u32..8), 1..2),
        level in prop::sample::select(vec![OptLevel::O0, OptLevel::O1, OptLevel::O2]),
    ) {
        let dimension = Dimension::new(d).unwrap();
        let circuit = build_mct_circuit(dimension, &specs);

        let compiler = CompileOptions::new().opt_level(level).compiler();
        let once = compiler.compile(&circuit).unwrap().circuit;
        let twice = compiler.compile(&once).unwrap().circuit;
        prop_assert!(twice.len() <= once.len(), "re-compile grew the circuit");

        let fixed = CompileOptions::new()
            .opt_level(level)
            .fusion(false)
            .compiler();
        let once = fixed.compile(&circuit).unwrap().circuit;
        let twice = fixed.compile(&once).unwrap().circuit;
        prop_assert_eq!(once, twice);
    }
}

//! Criterion bench: stabilizer-tableau equivalence checking vs the dense
//! unitary comparison.
//!
//! Two legs:
//!
//! * **overlapping widths** — random all-Clifford qutrit circuits at widths
//!   both strategies can handle.  The dense leg builds and compares the full
//!   `d^width` unitaries; the tableau leg conjugates `2·width` generator
//!   rows per gate.  Before timing, the bench *asserts* both strategies
//!   return the same verdict, so a wrong tableau fast path fails the smoke
//!   run outright.
//! * **width 24 (tableau only)** — `3^24 ≈ 2.8·10¹¹` basis states, far
//!   beyond any state-vector strategy; this is the workload the stabilizer
//!   backend exists for.  Timed on 1 worker and on a 4-thread pool.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qudit_core::pool::WorkStealingPool;
use qudit_core::{Circuit, Dimension};
use qudit_sim::equivalence::circuits_equal_up_to_phase;
use qudit_sim::random::random_clifford_circuit;
use qudit_sim::stabilizer::clifford_circuits_equal_on;
use qudit_sim::{clifford_circuits_equal, SimBackend};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic random all-Clifford qutrit circuit.
fn clifford_job(width: usize, gates: usize, seed: u64) -> Circuit {
    let dimension = Dimension::new(3).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    random_clifford_circuit(dimension, width, gates, &mut rng)
}

fn bench_overlapping_widths(c: &mut Criterion) {
    let mut group = c.benchmark_group("stabilizer_verification/equivalence");
    group.sample_size(10);
    for &width in &[4usize, 6] {
        let a = clifford_job(width, 40, width as u64);
        let b = a.clone();
        // Cross-check once: the tableau verdict must match the dense
        // unitary comparison on every width both strategies can reach.
        let dense_verdict = circuits_equal_up_to_phase(&a, &b, SimBackend::Dense).unwrap();
        let tableau_verdict = clifford_circuits_equal(&a, &b).unwrap();
        assert_eq!(
            dense_verdict, tableau_verdict,
            "strategies must agree (width = {width})"
        );
        assert!(tableau_verdict, "a circuit equals its clone");

        group.bench_with_input(
            BenchmarkId::new("dense", format!("w{width}")),
            &(&a, &b),
            |bench, (a, b)| {
                bench.iter(|| circuits_equal_up_to_phase(a, b, SimBackend::Dense).unwrap())
            },
        );
        group.bench_with_input(
            BenchmarkId::new("tableau", format!("w{width}")),
            &(&a, &b),
            |bench, (a, b)| bench.iter(|| clifford_circuits_equal(a, b).unwrap()),
        );
    }
    group.finish();
}

fn bench_tableau_only_width_24(c: &mut Criterion) {
    let mut group = c.benchmark_group("stabilizer_verification/wide");
    group.sample_size(10);
    let width = 24;
    let a = clifford_job(width, 120, 24);
    let b = a.clone();
    assert!(
        clifford_circuits_equal(&a, &b).unwrap(),
        "a circuit equals its clone"
    );

    group.bench_with_input(
        BenchmarkId::new("tableau", format!("w{width}")),
        &(&a, &b),
        |bench, (a, b)| bench.iter(|| clifford_circuits_equal(a, b).unwrap()),
    );
    let pool = WorkStealingPool::with_threads(4);
    group.bench_with_input(
        BenchmarkId::new("tableau_pool4", format!("w{width}")),
        &(&a, &b),
        |bench, (a, b)| bench.iter(|| clifford_circuits_equal_on(a, b, Some(&pool)).unwrap()),
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_overlapping_widths,
    bench_tableau_only_width_24
);
criterion_main!(benches);

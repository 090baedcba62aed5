//! The experiment suite regenerating every table/figure-equivalent of the
//! paper's evaluation (see DESIGN.md, Section 4, for the experiment index).
//!
//! Each function returns a [`Table`] so that the `experiments` binary, the
//! integration tests and EXPERIMENTS.md all draw from the same code.

use qudit_baselines::{
    clean_ancilla_count, di_wei_cubic_count, exponential_gate_count, yeh_wetering_clifford_t_count,
    CleanAncillaMct, CliffordTCostModel,
};
use qudit_core::pipeline::CacheMode;
use qudit_core::route::NoiseAwareCost;
use qudit_core::topology::CouplingGraph;
use qudit_core::{Dimension, QuditId, SingleQuditOp};
use qudit_reversible::{lower_bound, ReversibleFunction, ReversibleSynthesizer};
use qudit_sim::equivalence::{
    verify_mct_exhaustive, verify_mct_sampled, verify_mct_with_clean_ancilla, MctSpec,
};
use qudit_sim::random::random_unitary;
use qudit_sim::{is_clifford_circuit, SimBackend};
use qudit_synthesis::{
    gadgets, ladders, CompileOptions, CompileResult, Compiler, ControlledUnitary, KToffoli,
    MultiControlledGate, OptLevel,
};
use qudit_unitary::UnitarySynthesizer;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::tables::{fmt_f64, Table};

fn dim(d: u32) -> Dimension {
    Dimension::new(d).expect("valid dimension")
}

/// The lowering-only (`O0`) compiler the G-gate-count experiments measure
/// with — the configuration the paper reports.
fn lowering_compiler(dimension: Dimension, width: usize) -> Compiler {
    CompileOptions::new()
        .opt_level(OptLevel::O0)
        .shape(dimension, width)
        .compiler()
}

/// The scheduled, per-run-cached compiler of the E10/E11 sweeps (the
/// standard flow plus depth scheduling, shape-agnostic for heterogeneous
/// batches).
fn scheduled_sweep_compiler() -> Compiler {
    CompileOptions::new()
        .schedule(true)
        .cache(CacheMode::PerRun)
        .compiler()
}

/// The routed leg of the E10/E11 sweeps: the same scheduled flow with a
/// linear coupling graph sized to the sweep's widest job and the
/// noise-aware cost model, so the tables can report routed-depth,
/// swap-count and weighted-cost columns next to the all-to-all baseline.
/// Narrower jobs are embedded into the graph; their extra sites act as
/// borrowed ancillas (the router's epilogue restores the identity wire
/// permutation).
fn routed_sweep_options(jobs: &[qudit_core::Circuit]) -> CompileOptions {
    let sites = jobs.iter().map(|job| job.width()).max().unwrap_or(1);
    CompileOptions::new()
        .schedule(true)
        .cache(CacheMode::PerRun)
        .topology(CouplingGraph::linear(sites).expect("the sweep's widest job fits a chain"))
        .cost(NoiseAwareCost::default())
}

fn routed_sweep_compiler(jobs: &[qudit_core::Circuit]) -> Compiler {
    routed_sweep_options(jobs).compiler()
}

/// Parameter scale of the experiment suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small parameters, suitable for CI and tests (seconds).
    Quick,
    /// The full parameter ranges reported in EXPERIMENTS.md.
    Full,
}

impl Scale {
    fn k_values(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![2, 4, 8],
            Scale::Full => vec![2, 4, 8, 16, 32, 64],
        }
    }

    fn k_sweep(self) -> Vec<usize> {
        match self {
            Scale::Quick => (2..=8).collect(),
            Scale::Full => (2..=24).collect(),
        }
    }

    fn dimensions(self) -> Vec<u32> {
        match self {
            Scale::Quick => vec![3, 4],
            Scale::Full => vec![3, 4, 5],
        }
    }
}

/// Counts the G-gates of the paper's k-Toffoli for the given parameters.
pub fn ours_g_gate_count(d: u32, k: usize) -> usize {
    KToffoli::new(dim(d), k)
        .expect("valid dimension")
        .synthesize()
        .expect("synthesis succeeds")
        .resources()
        .g_gates
}

/// E1 — headline comparison of gate counts and ancillas against prior work
/// (Section I of the paper).
pub fn e1_comparison(scale: Scale) -> Table {
    let mut table = Table::new(
        "E1 — k-Toffoli: gate count and ancillas vs. prior work",
        &[
            "d",
            "k",
            "ours G-gates",
            "ours ancillas (borrowed)",
            "clean-ancilla [5,23] G-gates",
            "clean ancillas [5,23]",
            "ancilla-free exponential [25] gates",
            "Di&Wei [20] model (k^3)",
            "Yeh&vdW [24] model (k^3.585, d=3)",
        ],
    );
    for &d in &scale.dimensions() {
        for &k in &scale.k_values() {
            let ours = KToffoli::new(dim(d), k).unwrap().synthesize().unwrap();
            let baseline = CleanAncillaMct::new(dim(d), k, SingleQuditOp::Swap(0, 1))
                .unwrap()
                .synthesize()
                .unwrap();
            let exponential = if d % 2 == 1 {
                format!("{}", exponential_gate_count(dim(d), k))
            } else {
                "n/a (impossible)".to_string()
            };
            let yvdw = if d == 3 {
                fmt_f64(yeh_wetering_clifford_t_count(k))
            } else {
                "-".to_string()
            };
            table.push_row(vec![
                d.to_string(),
                k.to_string(),
                ours.resources().g_gates.to_string(),
                ours.resources().borrowed_ancillas().to_string(),
                baseline.resources().g_gates.to_string(),
                baseline.resources().clean_ancillas().to_string(),
                exponential,
                fmt_f64(di_wei_cubic_count(dim(d), k)),
                yvdw,
            ]);
        }
    }
    table
}

/// E2 — the 2-Toffoli gadgets of Lemmas III.1 and III.3: G-gate counts as a
/// function of `d`, with exhaustive functional verification.
pub fn e2_gadgets(scale: Scale) -> Table {
    let mut table = Table::new(
        "E2 — 2-Toffoli gadgets (Fig. 2 even d, Fig. 5 odd d)",
        &[
            "d",
            "figure",
            "elementary gates",
            "G-gates",
            "borrowed ancillas",
            "verified",
        ],
    );
    let max_d = match scale {
        Scale::Quick => 6,
        Scale::Full => 9,
    };
    for d in 3..=max_d {
        let dimension = dim(d);
        let (figure, gates, borrowed, width) = if dimension.is_odd() {
            (
                "Fig. 5",
                gadgets::two_controlled_swap_odd(
                    dimension,
                    QuditId::new(0),
                    QuditId::new(1),
                    QuditId::new(2),
                    0,
                    1,
                )
                .unwrap(),
                0usize,
                3usize,
            )
        } else {
            (
                "Fig. 2",
                gadgets::two_controlled_swap_even(
                    dimension,
                    QuditId::new(0),
                    QuditId::new(1),
                    QuditId::new(2),
                    0,
                    1,
                    QuditId::new(3),
                )
                .unwrap(),
                1usize,
                4usize,
            )
        };
        let mut circuit = qudit_core::Circuit::new(dimension, width);
        circuit.extend_gates(gates).unwrap();
        let spec = MctSpec::toffoli(vec![QuditId::new(0), QuditId::new(1)], QuditId::new(2));
        let verified = verify_mct_exhaustive(&circuit, &spec, SimBackend::Auto)
            .unwrap()
            .is_pass();
        let g = lowering_compiler(dimension, width)
            .compile(&circuit)
            .unwrap()
            .circuit;
        table.push_row(vec![
            d.to_string(),
            figure.to_string(),
            circuit.len().to_string(),
            g.len().to_string(),
            borrowed.to_string(),
            verified.to_string(),
        ]);
    }
    table
}

/// E3 — linear scaling of the k-Toffoli G-gate count (Theorems III.2 and
/// III.6), with a least-squares slope per dimension.
pub fn e3_linear_scaling(scale: Scale) -> Table {
    let mut table = Table::new(
        "E3 — k-Toffoli G-gate count vs. k (linear in k)",
        &[
            "d",
            "k",
            "macro gates",
            "elementary gates",
            "G-gates",
            "depth",
            "G-gates / k",
        ],
    );
    for &d in &scale.dimensions() {
        for &k in &scale.k_sweep() {
            let synthesis = KToffoli::new(dim(d), k).unwrap().synthesize().unwrap();
            let r = synthesis.resources();
            let depth = qudit_core::depth::circuit_depth(&synthesis.g_gate_circuit().unwrap());
            table.push_row(vec![
                d.to_string(),
                k.to_string(),
                r.macro_gates.to_string(),
                r.elementary_gates.to_string(),
                r.g_gates.to_string(),
                depth.to_string(),
                fmt_f64(r.g_gates as f64 / k as f64),
            ]);
        }
    }
    table
}

/// The `(d, k)` parameter sweep of the E10 peephole experiment.
pub fn e10_sweep(scale: Scale) -> Vec<(u32, usize)> {
    let ks: Vec<usize> = match scale {
        Scale::Quick => vec![3, 4, 6],
        Scale::Full => vec![3, 4, 6, 8, 12, 16],
    };
    [3u32, 4]
        .iter()
        .flat_map(|&d| ks.iter().map(move |&k| (d, k)))
        .collect()
}

/// Runs the k-Toffoli synthesis for every `(d, k)` of a sweep.
pub fn sweep_syntheses(sweep: &[(u32, usize)]) -> Vec<qudit_synthesis::MctSynthesis> {
    sweep
        .iter()
        .map(|&(d, k)| KToffoli::new(dim(d), k).unwrap().synthesize().unwrap())
        .collect()
}

/// Synthesises the macro circuits of a `(d, k)` sweep — the batch jobs the
/// E10/E11 pipeline experiments compile.
pub fn sweep_jobs(sweep: &[(u32, usize)]) -> Vec<qudit_core::Circuit> {
    sweep_syntheses(sweep)
        .iter()
        .map(|synthesis| synthesis.circuit().clone())
        .collect()
}

/// E10 — ablation: the peephole optimiser (`cancel_inverse_pairs`) applied
/// to the fully lowered G-gate circuits, followed by the commutation-aware
/// depth scheduler.  The constructions conjugate levels aggressively, so a
/// noticeable fraction of the G-gates cancels; the emission order then
/// leaves idle-wire holes that
/// [`ScheduleDepth`](qudit_core::pipeline::ScheduleDepth) packs away, which
/// the depth columns report.
///
/// The whole sweep is compiled concurrently through
/// [`Compiler::compile_batch`] on the scheduled, per-run-cached compiler;
/// the table is identical to compiling each job sequentially (wall times
/// aside).
pub fn e10_peephole(scale: Scale) -> Table {
    let sweep = e10_sweep(scale);
    let syntheses = sweep_syntheses(&sweep);
    let jobs: Vec<qudit_core::Circuit> = syntheses
        .iter()
        .map(|synthesis| synthesis.circuit().clone())
        .collect();
    let batch = scheduled_sweep_compiler()
        .compile_batch(&jobs)
        .expect("the k-Toffoli sweep compiles");
    let routed = routed_sweep_compiler(&jobs)
        .compile_batch(&jobs)
        .expect("the routed k-Toffoli sweep compiles");
    e10_table_from_results(&sweep, &syntheses, &batch.results, &routed.results)
}

/// Renders the E10 table from per-job syntheses and compile results (one of
/// each per sweep entry; `routed` holds the same jobs compiled through the
/// linear-chain routed flow of `routed_sweep_options`).  Exposed so tests
/// can compare the batch path against a sequentially compiled sweep.
pub fn e10_table_from_results(
    sweep: &[(u32, usize)],
    syntheses: &[qudit_synthesis::MctSynthesis],
    results: &[CompileResult],
    routed: &[CompileResult],
) -> Table {
    let mut table = Table::new(
        "E10 — peephole optimisation and depth scheduling of the lowered k-Toffoli circuits",
        &[
            "d",
            "k",
            "G-gates",
            "after cancellation",
            "removed %",
            "depth",
            "scheduled depth",
            "depth saved %",
            "routed depth",
            "swaps",
            "weighted cost",
            "sim backend",
            "clifford",
            "verified",
        ],
    );
    for (((&(d, k), synthesis), report), routed) in
        sweep.iter().zip(syntheses).zip(results).zip(routed)
    {
        let cancel = report
            .stats_for("cancel-inverse-pairs")
            .expect("the scheduled pipeline cancels inverse pairs");
        let (g_gates, optimized_gates) = (cancel.before.gates, cancel.after.gates);
        let schedule = report
            .stats_for("schedule-depth")
            .expect("the scheduled pipeline ends with depth scheduling");
        let (depth_before, depth_after) = (schedule.before.depth, schedule.after.depth);
        // Verify that the optimised circuit still implements the Toffoli
        // (sampled for larger registers, exhaustive for small ones).  The
        // optimised circuits are fully classical, so the verifiers propagate
        // each basis state directly; the `sim backend` column reports the
        // engine Auto resolves to for them (the sparse one).
        let spec = MctSpec::toffoli(
            synthesis.layout().controls.clone(),
            synthesis.layout().target,
        );
        let backend = SimBackend::Auto.resolve(&report.circuit);
        let verified = if dim(d).register_size(synthesis.layout().width) <= 4096 {
            verify_mct_exhaustive(&report.circuit, &spec, backend)
                .unwrap()
                .is_pass()
        } else {
            let mut rng = StdRng::seed_from_u64(5);
            verify_mct_sampled(&report.circuit, &spec, 100, &mut rng, backend)
                .unwrap()
                .is_pass()
        };
        let removed = g_gates - optimized_gates;
        let depth_saved = depth_before - depth_after;
        // The routed leg of the same job: circuit depth once the SWAP
        // ladders are in (before the final scheduling stage packs it), the
        // number of inserted SWAPs, and the noise-aware weighted cost of
        // the routed circuit.
        let routed_depth = routed
            .routed_depth
            .expect("the routed sweep reports a routed depth");
        let swaps = routed
            .swap_count
            .expect("the routed sweep reports a swap count");
        let weighted = routed
            .weighted_cost
            .expect("the routed sweep reports a weighted cost");
        table.push_row(vec![
            d.to_string(),
            k.to_string(),
            g_gates.to_string(),
            optimized_gates.to_string(),
            fmt_f64(100.0 * removed as f64 / g_gates as f64),
            depth_before.to_string(),
            depth_after.to_string(),
            fmt_f64(100.0 * depth_saved as f64 / depth_before.max(1) as f64),
            routed_depth.to_string(),
            swaps.to_string(),
            fmt_f64(weighted),
            backend.label().to_string(),
            is_clifford_circuit(&report.circuit).to_string(),
            verified.to_string(),
        ]);
    }
    table
}

/// The `(d, k)` parameter sweep of the E11 pipeline-statistics experiment.
pub fn e11_sweep(scale: Scale) -> Vec<(u32, usize)> {
    let ks: Vec<usize> = match scale {
        Scale::Quick => vec![4, 8],
        Scale::Full => vec![4, 8, 16, 32],
    };
    [3u32, 4]
        .iter()
        .flat_map(|&d| ks.iter().map(move |&k| (d, k)))
        .collect()
}

/// E11 — the compilation pipeline itself: per-pass statistics (gate counts,
/// depth, lowering-cache hits, wall time) of the scheduled standard flow
/// (macro → elementary → G → optimised → depth-scheduled) on the k-Toffoli
/// circuits, as recorded by the `PassManager`.  The `schedule-depth` rows'
/// depth-in/depth-out columns are the depth trajectory of the new
/// scheduling stage.
///
/// The sweep is compiled concurrently through [`Compiler::compile_batch`]
/// with a per-job lowering cache, so the cache columns are deterministic
/// and the table matches the sequential path (wall times aside).
pub fn e11_pipeline(scale: Scale) -> Table {
    let sweep = e11_sweep(scale);
    let jobs = sweep_jobs(&sweep);
    let batch = scheduled_sweep_compiler()
        .compile_batch(&jobs)
        .expect("the k-Toffoli sweep compiles");
    let routed = routed_sweep_compiler(&jobs)
        .compile_batch(&jobs)
        .expect("the routed k-Toffoli sweep compiles");
    e11_table_from_results(&sweep, &batch.results, &routed.results)
}

/// Renders the E11 table from per-job compile results (one per sweep
/// entry; `routed` holds the same jobs compiled through the linear-chain
/// routed flow, whose per-job routed-depth / swap-count / weighted-cost
/// figures repeat on every pass row of that job).  Exposed so tests can
/// compare the batch path against a sequentially compiled sweep.
pub fn e11_table_from_results(
    sweep: &[(u32, usize)],
    results: &[CompileResult],
    routed: &[CompileResult],
) -> Table {
    let mut table = Table::new(
        "E11 — standard pipeline per-pass statistics (macro -> fused -> elementary -> G -> optimised)",
        &[
            "d",
            "k",
            "pass",
            "gates in",
            "gates out",
            "depth in",
            "depth out",
            "cache hits",
            "cache hit %",
            "fused gates",
            "panel threads",
            "sim backend",
            "clifford",
            "qasm bytes",
            "routed depth",
            "swap count",
            "weighted cost",
            "elapsed µs",
        ],
    );
    for ((&(d, k), report), routed) in sweep.iter().zip(results).zip(routed) {
        // The backend the Auto classicality scan picks for this job's
        // compiled circuit — what any downstream re-simulation (fidelity
        // checks, `VerifyEquivalence`) of the sweep would run on — and
        // whether the circuit is all-Clifford (tableau-verifiable at any
        // width).  `qasm bytes` is the size of the compiled circuit in the
        // canonical text IR (see `qudit_core::qasm`) — the artefact a job
        // exported with `CompileResult::to_qasm` would occupy on disk.
        let backend = SimBackend::Auto.resolve(&report.circuit);
        let clifford = is_clifford_circuit(&report.circuit);
        let qasm_bytes = qudit_core::qasm::print_circuit(&report.circuit).len();
        let routed_depth = routed
            .routed_depth
            .expect("the routed sweep reports a routed depth");
        let swap_count = routed
            .swap_count
            .expect("the routed sweep reports a swap count");
        let weighted = routed
            .weighted_cost
            .expect("the routed sweep reports a weighted cost");
        for stats in &report.stats {
            let (cache_hits, cache_rate) = match stats.cache {
                Some(cache) if cache.total() > 0 => {
                    (cache.hits.to_string(), fmt_f64(cache.hit_rate() * 100.0))
                }
                Some(_) => ("0".to_string(), "-".to_string()),
                None => ("-".to_string(), "-".to_string()),
            };
            table.push_row(vec![
                d.to_string(),
                k.to_string(),
                stats.pass.clone(),
                stats.before.gates.to_string(),
                stats.after.gates.to_string(),
                stats.before.depth.to_string(),
                stats.after.depth.to_string(),
                cache_hits,
                cache_rate,
                report.fused_gates.to_string(),
                report.panel_threads.to_string(),
                backend.label().to_string(),
                clifford.to_string(),
                qasm_bytes.to_string(),
                routed_depth.to_string(),
                swap_count.to_string(),
                fmt_f64(weighted),
                fmt_f64(stats.elapsed.as_secs_f64() * 1e6),
            ]);
        }
    }
    table
}

/// Renders figure-style ASCII diagrams of the small gadget constructions
/// (the analogue of the paper's circuit figures).
pub fn figure_diagrams() -> String {
    let mut out = String::new();

    // Fig. 5: odd-d 2-Toffoli gadget.
    let d3 = dim(3);
    let fig5 = gadgets::two_controlled_swap_odd(
        d3,
        QuditId::new(0),
        QuditId::new(1),
        QuditId::new(2),
        0,
        1,
    )
    .unwrap();
    let mut circuit = qudit_core::Circuit::new(d3, 3);
    circuit.extend_gates(fig5).unwrap();
    out.push_str("Fig. 5 — |00⟩-X01 for odd d (d = 3), ancilla-free:\n\n");
    out.push_str(&qudit_core::diagram::render_with_labels(
        &circuit,
        &["x1".to_string(), "x2".to_string(), " t".to_string()],
    ));
    out.push('\n');

    // Fig. 2: even-d 2-Toffoli gadget with one borrowed ancilla.
    let d4 = dim(4);
    let fig2 = gadgets::two_controlled_swap_even(
        d4,
        QuditId::new(0),
        QuditId::new(1),
        QuditId::new(2),
        0,
        1,
        QuditId::new(3),
    )
    .unwrap();
    let mut circuit = qudit_core::Circuit::new(d4, 4);
    circuit.extend_gates(fig2).unwrap();
    out.push_str("Fig. 2 — |00⟩-X01 for even d (d = 4), one borrowed ancilla a:\n\n");
    out.push_str(&qudit_core::diagram::render_with_labels(
        &circuit,
        &[
            "x1".to_string(),
            "x2".to_string(),
            " t".to_string(),
            " a".to_string(),
        ],
    ));
    out.push('\n');

    // Fig. 7: the increment ladder for k = 4 (macro-gate level).
    let controls: Vec<qudit_core::Control> = (0..4)
        .map(|i| qudit_core::Control::zero(QuditId::new(i)))
        .collect();
    let fig7 = ladders::add_one_ladder_odd(
        d3,
        &controls,
        QuditId::new(4),
        &[QuditId::new(5), QuditId::new(6)],
    )
    .unwrap();
    let mut circuit = qudit_core::Circuit::new(d3, 7);
    circuit.extend_gates(fig7).unwrap();
    out.push_str(
        "Fig. 7 — |0^4⟩-X+1 ladder (d = 3), macro-gate level, borrowed ancillas a1, a2:\n\n",
    );
    out.push_str(&qudit_core::diagram::render_with_labels(
        &circuit,
        &[
            "x1".to_string(),
            "x2".to_string(),
            "x3".to_string(),
            "x4".to_string(),
            " t".to_string(),
            "a1".to_string(),
            "a2".to_string(),
        ],
    ));
    out.push('\n');
    out
}

/// E3 (ablation) — cost of reducing the ancilla count: the Fig. 3 / Fig. 7
/// ladders with `k − 2` borrowed ancillas vs. the one-/zero-ancilla
/// constructions of Theorems III.2 / III.6.
pub fn e3_ablation(scale: Scale) -> Table {
    let mut table = Table::new(
        "E3a — ablation: many-borrowed-ancilla ladders vs. one/zero-ancilla constructions",
        &[
            "d",
            "k",
            "ladder G-gates (k−2 borrowed)",
            "theorem G-gates (≤1 borrowed)",
            "overhead ×",
        ],
    );
    let ks: Vec<usize> = match scale {
        Scale::Quick => vec![4, 6, 8],
        Scale::Full => vec![4, 6, 8, 12, 16, 24],
    };
    for &d in &[3u32, 4] {
        let dimension = dim(d);
        for &k in &ks {
            // Ladder version: |0^k⟩ target op with k−2 borrowed ancillas.
            let controls: Vec<qudit_core::Control> = (0..k)
                .map(|i| qudit_core::Control::zero(QuditId::new(i)))
                .collect();
            let target = QuditId::new(k);
            let borrowed: Vec<QuditId> = (k + 1..2 * k - 1).map(QuditId::new).collect();
            let width = 2 * k - 1;
            let ladder_gates = if dimension.is_odd() {
                ladders::add_one_ladder_odd(dimension, &controls, target, &borrowed).unwrap()
            } else {
                ladders::parity_ladder_even(
                    dimension,
                    &controls,
                    target,
                    &SingleQuditOp::Swap(0, 1),
                    &borrowed,
                )
                .unwrap()
            };
            let mut ladder_circuit = qudit_core::Circuit::new(dimension, width);
            ladder_circuit.extend_gates(ladder_gates).unwrap();
            let ladder_g = lowering_compiler(dimension, width)
                .compile(&ladder_circuit)
                .unwrap()
                .circuit
                .len();

            // Theorem version (note: for odd d the ladder implements X+1 and
            // the theorem implements X01; both are single multi-controlled
            // operations and the comparison is about the ancilla-reduction
            // overhead).
            let theorem_g = ours_g_gate_count(d, k);
            table.push_row(vec![
                d.to_string(),
                k.to_string(),
                ladder_g.to_string(),
                theorem_g.to_string(),
                fmt_f64(theorem_g as f64 / ladder_g as f64),
            ]);
        }
    }
    table
}

/// E4 — ancilla counts: the paper's 0/1 ancillas vs. the clean-ancilla
/// baseline's `Θ(k/(d−2))`.
pub fn e4_ancillas(scale: Scale) -> Table {
    let mut table = Table::new(
        "E4 — ancilla count comparison",
        &[
            "d",
            "k",
            "ours borrowed",
            "ours clean",
            "baseline clean [5,23]",
        ],
    );
    for &d in &scale.dimensions() {
        for &k in &scale.k_values() {
            let ours = KToffoli::new(dim(d), k).unwrap().synthesize().unwrap();
            table.push_row(vec![
                d.to_string(),
                k.to_string(),
                ours.resources().borrowed_ancillas().to_string(),
                ours.resources().clean_ancillas().to_string(),
                clean_ancilla_count(dim(d), k).to_string(),
            ]);
        }
    }
    table
}

/// E5 — the multi-controlled-U construction of Fig. 1(b): one clean ancilla
/// and `O(k)` two-qudit gates.
pub fn e5_controlled_unitary(scale: Scale) -> Table {
    let mut table = Table::new(
        "E5 — |0^k⟩-U with one clean ancilla (Fig. 1b)",
        &[
            "d",
            "k",
            "two-qudit gates",
            "G-gates (classical part)",
            "clean ancillas",
        ],
    );
    let ks: Vec<usize> = match scale {
        Scale::Quick => vec![2, 4, 8],
        Scale::Full => vec![2, 4, 8, 16, 32],
    };
    for &d in &[3u32, 4] {
        for &k in &ks {
            let synthesis = ControlledUnitary::new(dim(d), k, SingleQuditOp::Add(1))
                .unwrap()
                .synthesize()
                .unwrap();
            let r = synthesis.resources();
            table.push_row(vec![
                d.to_string(),
                k.to_string(),
                r.two_qudit_gates.to_string(),
                r.g_gates.to_string(),
                r.ancillas.clean.to_string(),
            ]);
        }
    }
    table
}

/// E6 — Theorem IV.1: unitary synthesis with one clean ancilla; measured
/// two-qudit gate counts against the `d^{2n}` optimum.
pub fn e6_unitary_synthesis(scale: Scale) -> Table {
    let mut table = Table::new(
        "E6 — arbitrary n-qudit unitary synthesis (Theorem IV.1)",
        &[
            "d",
            "n",
            "two-level factors",
            "two-qudit gates",
            "d^(2n)",
            "ratio",
            "clean ancillas (ours)",
            "clean ancillas [5]",
        ],
    );
    let mut rng = StdRng::seed_from_u64(2023);
    let configs: Vec<(u32, usize)> = match scale {
        Scale::Quick => vec![(3, 1), (3, 2)],
        Scale::Full => vec![(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1), (5, 2)],
    };
    for (d, n) in configs {
        let dimension = dim(d);
        let size = dimension.register_size(n);
        let unitary = random_unitary(size, &mut rng);
        let synthesis = UnitarySynthesizer::new(dimension)
            .unwrap()
            .synthesize(&unitary, n)
            .unwrap();
        let optimum = (d as f64).powi(2 * n as i32);
        let two_qudit = synthesis.resources().two_qudit_gates;
        let baseline_ancillas = if n >= 2 {
            (n - 2).div_ceil((d - 2) as usize).max(usize::from(n > 2))
        } else {
            0
        };
        table.push_row(vec![
            d.to_string(),
            n.to_string(),
            synthesis.two_level_factors().to_string(),
            two_qudit.to_string(),
            fmt_f64(optimum),
            fmt_f64(two_qudit as f64 / optimum),
            synthesis.resources().clean_ancillas().to_string(),
            baseline_ancillas.to_string(),
        ]);
    }
    table
}

/// E7 — Theorem IV.2: reversible function compilation; measured G-gate
/// counts against the `n·dⁿ` target.
pub fn e7_reversible(scale: Scale) -> Table {
    let mut table = Table::new(
        "E7 — d-ary reversible functions (Theorem IV.2)",
        &[
            "d",
            "n",
            "2-cycles",
            "G-gates",
            "n·d^n",
            "ratio",
            "ancillas (borrowed)",
        ],
    );
    let mut rng = StdRng::seed_from_u64(42);
    let configs: Vec<(u32, usize)> = match scale {
        Scale::Quick => vec![(3, 2), (4, 2)],
        Scale::Full => vec![(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2), (5, 3)],
    };
    for (d, n) in configs {
        let dimension = dim(d);
        let function = ReversibleFunction::random(dimension, n, &mut rng);
        let synthesis = ReversibleSynthesizer::new(dimension)
            .unwrap()
            .synthesize(&function)
            .unwrap();
        let target = n as f64 * (d as f64).powi(n as i32);
        table.push_row(vec![
            d.to_string(),
            n.to_string(),
            synthesis.two_cycles().to_string(),
            synthesis.resources().g_gates.to_string(),
            fmt_f64(target),
            fmt_f64(synthesis.resources().g_gates as f64 / target),
            synthesis.resources().borrowed_ancillas().to_string(),
        ]);
    }
    table
}

/// E8 — the qutrit Clifford+T comparison: the paper's linear construction
/// against the `k^{3.585}` model of Yeh & van de Wetering.
pub fn e8_clifford_t(scale: Scale) -> Table {
    let mut table = Table::new(
        "E8 — qutrit Clifford+T count: ours (linear) vs. Yeh & van de Wetering (k^3.585)",
        &[
            "k",
            "ours Clifford+T",
            "Yeh&vdW model",
            "ratio (model / ours)",
        ],
    );
    let model = CliffordTCostModel::default();
    let ks: Vec<usize> = match scale {
        Scale::Quick => vec![2, 4, 8],
        // The crossover against the k^3.585 model sits around k ≈ 40 for the
        // default cost constants, so sweep past it.
        Scale::Full => vec![2, 4, 8, 16, 24, 32, 48, 64],
    };
    for &k in &ks {
        let synthesis = KToffoli::new(dim(3), k).unwrap().synthesize().unwrap();
        let g_circuit = synthesis.g_gate_circuit().unwrap();
        let ours = model.circuit_cost(&g_circuit);
        let theirs = yeh_wetering_clifford_t_count(k);
        table.push_row(vec![
            k.to_string(),
            ours.to_string(),
            fmt_f64(theirs),
            fmt_f64(theirs / ours as f64),
        ]);
    }
    table
}

/// E9 — Lemma IV.3: the counting lower bound vs. the measured G-gate count of
/// the reversible-function compiler (the gap is the `log n` factor plus
/// constants).
pub fn e9_lower_bound(scale: Scale) -> Table {
    let mut table = Table::new(
        "E9 — reversible functions: counting lower bound vs. measured",
        &[
            "d",
            "n",
            "lower bound (G-gates)",
            "measured G-gates",
            "measured / bound",
        ],
    );
    let mut rng = StdRng::seed_from_u64(7);
    let configs: Vec<(u32, usize)> = match scale {
        Scale::Quick => vec![(3, 2)],
        Scale::Full => vec![(3, 2), (3, 3), (3, 4), (5, 2), (5, 3)],
    };
    for (d, n) in configs {
        let dimension = dim(d);
        let bound = lower_bound::g_gate_lower_bound(dimension, n, 2);
        let function = ReversibleFunction::random(dimension, n, &mut rng);
        let measured = ReversibleSynthesizer::new(dimension)
            .unwrap()
            .synthesize(&function)
            .unwrap()
            .resources()
            .g_gates;
        table.push_row(vec![
            d.to_string(),
            n.to_string(),
            fmt_f64(bound),
            measured.to_string(),
            fmt_f64(measured as f64 / bound),
        ]);
    }
    table
}

/// Figure verification — functionally verifies the construction behind every
/// circuit figure of the paper on small parameters.
pub fn figure_verification() -> Table {
    let mut table = Table::new(
        "Figure verification — every construction checked against its specification",
        &["figure", "construction", "parameters", "verified"],
    );
    let push = |table: &mut Table, fig: &str, what: &str, params: &str, ok: bool| {
        table.push_row(vec![
            fig.to_string(),
            what.to_string(),
            params.to_string(),
            ok.to_string(),
        ]);
    };

    // Fig. 2: even-d 2-Toffoli with one borrowed ancilla.
    {
        let dimension = dim(4);
        let gates = gadgets::two_controlled_swap_even(
            dimension,
            QuditId::new(0),
            QuditId::new(1),
            QuditId::new(2),
            0,
            1,
            QuditId::new(3),
        )
        .unwrap();
        let mut circuit = qudit_core::Circuit::new(dimension, 4);
        circuit.extend_gates(gates).unwrap();
        let ok = verify_mct_exhaustive(
            &circuit,
            &MctSpec::toffoli(vec![QuditId::new(0), QuditId::new(1)], QuditId::new(2)),
            SimBackend::Auto,
        )
        .unwrap()
        .is_pass();
        push(
            &mut table,
            "Fig. 2",
            "|00⟩-X01, even d, 1 borrowed ancilla",
            "d=4",
            ok,
        );
    }
    // Fig. 3 / Fig. 4 via Theorem III.2.
    {
        let synthesis = KToffoli::new(dim(4), 4).unwrap().synthesize().unwrap();
        let spec = MctSpec::toffoli(
            synthesis.layout().controls.clone(),
            synthesis.layout().target,
        );
        let ok = verify_mct_exhaustive(synthesis.circuit(), &spec, SimBackend::Auto)
            .unwrap()
            .is_pass();
        push(
            &mut table,
            "Figs. 3–4",
            "k-Toffoli, even d, 1 borrowed ancilla (Thm III.2)",
            "d=4, k=4",
            ok,
        );
    }
    // Fig. 5: odd-d 2-Toffoli, ancilla-free.
    {
        let dimension = dim(5);
        let gates = gadgets::two_controlled_swap_odd(
            dimension,
            QuditId::new(0),
            QuditId::new(1),
            QuditId::new(2),
            0,
            1,
        )
        .unwrap();
        let mut circuit = qudit_core::Circuit::new(dimension, 3);
        circuit.extend_gates(gates).unwrap();
        let ok = verify_mct_exhaustive(
            &circuit,
            &MctSpec::toffoli(vec![QuditId::new(0), QuditId::new(1)], QuditId::new(2)),
            SimBackend::Auto,
        )
        .unwrap()
        .is_pass();
        push(
            &mut table,
            "Fig. 5",
            "|00⟩-X01, odd d, ancilla-free",
            "d=5",
            ok,
        );
    }
    // Fig. 7: |0^k⟩-X+1 ladder.
    {
        let dimension = dim(3);
        let controls: Vec<qudit_core::Control> = (0..4)
            .map(|i| qudit_core::Control::zero(QuditId::new(i)))
            .collect();
        let gates = ladders::add_one_ladder_odd(
            dimension,
            &controls,
            QuditId::new(4),
            &[QuditId::new(5), QuditId::new(6)],
        )
        .unwrap();
        let mut circuit = qudit_core::Circuit::new(dimension, 7);
        circuit.extend_gates(gates).unwrap();
        let spec = MctSpec {
            controls: (0..4).map(QuditId::new).collect(),
            target: QuditId::new(4),
            op: SingleQuditOp::Add(1),
        };
        let ok = verify_mct_exhaustive(&circuit, &spec, SimBackend::Auto)
            .unwrap()
            .is_pass();
        push(
            &mut table,
            "Fig. 7",
            "|0^k⟩-X+1, k−2 borrowed ancillas (Lemma III.4)",
            "d=3, k=4",
            ok,
        );
    }
    // Figs. 8–9 are covered by the P_k unit tests; report the one-ancilla
    // variant here through the Toffoli built on top of it.
    {
        let synthesis = KToffoli::new(dim(3), 5).unwrap().synthesize().unwrap();
        let spec = MctSpec::toffoli(
            synthesis.layout().controls.clone(),
            synthesis.layout().target,
        );
        let ok = verify_mct_exhaustive(synthesis.circuit(), &spec, SimBackend::Auto)
            .unwrap()
            .is_pass();
        push(
            &mut table,
            "Figs. 8–10",
            "k-Toffoli, odd d, ancilla-free (Thm III.6 via P_k)",
            "d=3, k=5",
            ok,
        );
    }
    // Fig. 1(b): multi-controlled U with one clean ancilla.
    {
        let synthesis = ControlledUnitary::new(dim(3), 3, SingleQuditOp::Add(2))
            .unwrap()
            .synthesize()
            .unwrap();
        let spec = MctSpec {
            controls: synthesis.layout().controls.clone(),
            target: synthesis.layout().target,
            op: SingleQuditOp::Add(2),
        };
        let ok = verify_mct_with_clean_ancilla(
            synthesis.circuit(),
            &spec,
            synthesis.layout().clean_ancilla,
            SimBackend::Auto,
        )
        .unwrap()
        .is_pass();
        push(
            &mut table,
            "Fig. 1(b)",
            "|0^k⟩-U, one clean ancilla",
            "d=3, k=3",
            ok,
        );
    }
    // Fig. 11: reversible 2-cycle.
    {
        let dimension = dim(3);
        let f = ReversibleFunction::two_cycle(dimension, 3, &[0, 1, 2], &[1, 2, 0]).unwrap();
        let synthesis = ReversibleSynthesizer::new(dimension)
            .unwrap()
            .synthesize(&f)
            .unwrap();
        let ok = (0..27).all(|index| {
            let digits = qudit_sim::basis::index_to_digits(index, dimension, 3);
            synthesis.circuit().apply_to_basis(&digits).unwrap() == f.apply(&digits).unwrap()
        });
        push(
            &mut table,
            "Fig. 11",
            "2-cycle implementation (Thm IV.2)",
            "d=3, n=3",
            ok,
        );
    }
    // Parity impossibility remark (after Thm III.2): a multi-controlled gate
    // over G alone is an odd permutation on k+1 qudits for even d — checked
    // by confirming the even-d synthesis always touches a 4th qudit.
    {
        let synthesis = MultiControlledGate::new(dim(4), 2, SingleQuditOp::Swap(0, 1))
            .unwrap()
            .synthesize()
            .unwrap();
        let uses_ancilla = synthesis.g_gate_circuit().unwrap().used_qudits().len() > 3;
        push(
            &mut table,
            "Remark (Thm III.2)",
            "even d requires a borrowed ancilla",
            "d=4, k=2",
            uses_ancilla,
        );
    }
    table
}

/// Runs every experiment at the given scale and returns the rendered report.
pub fn full_report(scale: Scale) -> String {
    let tables = vec![
        e1_comparison(scale),
        e2_gadgets(scale),
        e3_linear_scaling(scale),
        e3_ablation(scale),
        e4_ancillas(scale),
        e5_controlled_unitary(scale),
        e6_unitary_synthesis(scale),
        e7_reversible(scale),
        e8_clifford_t(scale),
        e9_lower_bound(scale),
        e10_peephole(scale),
        e11_pipeline(scale),
        figure_verification(),
    ];
    tables
        .iter()
        .map(Table::to_markdown)
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The deterministic `--quick` tables (every experiment but E11, whose
    /// elapsed column differs run to run), in report order and keyed by
    /// their `--exp` id.  Computed once per test binary and shared by the
    /// golden and the shape tests.
    fn quick_tables() -> &'static [(&'static str, Table)] {
        static TABLES: OnceLock<Vec<(&'static str, Table)>> = OnceLock::new();
        TABLES.get_or_init(|| {
            let scale = Scale::Quick;
            vec![
                ("e1", e1_comparison(scale)),
                ("e2", e2_gadgets(scale)),
                ("e3", e3_linear_scaling(scale)),
                ("e3a", e3_ablation(scale)),
                ("e4", e4_ancillas(scale)),
                ("e5", e5_controlled_unitary(scale)),
                ("e6", e6_unitary_synthesis(scale)),
                ("e7", e7_reversible(scale)),
                ("e8", e8_clifford_t(scale)),
                ("e9", e9_lower_bound(scale)),
                ("e10", e10_peephole(scale)),
                ("figs", figure_verification()),
            ]
        })
    }

    fn quick_table(id: &str) -> &'static Table {
        quick_tables()
            .iter()
            .find(|(table_id, _)| *table_id == id)
            .map(|(_, table)| table)
            .unwrap_or_else(|| panic!("no quick table {id}"))
    }

    /// The exact `--quick` markdown of every deterministic table must match
    /// the checked-in golden, so no refactor moves a paper number silently.
    /// Regenerate after an intentional change with
    /// `QUDIT_BLESS=1 cargo test -p qudit-bench quick_tables_match_the_golden`.
    #[test]
    fn quick_tables_match_the_golden() {
        let rendered = quick_tables()
            .iter()
            .map(|(_, table)| table.to_markdown())
            .collect::<Vec<_>>()
            .join("\n");
        let golden_path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("quick_tables.expected");
        if std::env::var_os("QUDIT_BLESS").is_some() {
            std::fs::write(&golden_path, &rendered).unwrap();
            return;
        }
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); run with QUDIT_BLESS=1 to create it",
                golden_path.display()
            )
        });
        if rendered != golden {
            let diff: Vec<String> = golden
                .lines()
                .zip(rendered.lines())
                .enumerate()
                .filter(|(_, (expected, actual))| expected != actual)
                .map(|(line, (expected, actual))| {
                    format!("line {}:\n  - {expected}\n  + {actual}", line + 1)
                })
                .collect();
            panic!(
                "quick tables drifted from the golden ({} vs {} lines; QUDIT_BLESS=1 regenerates):\n{}",
                golden.lines().count(),
                rendered.lines().count(),
                diff.join("\n")
            );
        }
    }

    #[test]
    fn quick_tables_have_rows() {
        for (id, table) in quick_tables() {
            assert!(!table.rows.is_empty(), "{id} has no rows");
        }
    }

    #[test]
    fn figure_verification_all_pass() {
        for row in &quick_table("figs").rows {
            assert_eq!(row.last().unwrap(), "true", "row failed: {row:?}");
        }
    }

    #[test]
    fn e1_shows_linear_vs_exponential_shape() {
        let table = quick_table("e1");
        // For d = 3, the exponential baseline must exceed ours at k = 8.
        let row = table
            .rows
            .iter()
            .find(|r| r[0] == "3" && r[1] == "8")
            .expect("row for d=3, k=8");
        let ours: f64 = row[2].parse().unwrap();
        let exponential: f64 = row[6].parse().unwrap();
        assert!(
            exponential > ours,
            "exponential baseline should lose by k=8"
        );
    }

    #[test]
    fn e8_model_overtakes_ours_for_large_k() {
        let table = quick_table("e8");
        let last = table.rows.last().unwrap();
        let ratio: f64 = last[3].parse().unwrap();
        assert!(ratio > 0.0);
    }

    /// Drops the wall-time column (nondeterministic) and the panel-threads
    /// column (run configuration, not compilation output) from a table's rows.
    fn without_elapsed(table: &Table) -> Vec<Vec<String>> {
        let skipped: Vec<usize> = table
            .headers
            .iter()
            .enumerate()
            .filter(|(_, h)| h.starts_with("elapsed") || *h == "panel threads")
            .map(|(i, _)| i)
            .collect();
        assert!(!skipped.is_empty(), "table has an elapsed column");
        table
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .filter(|(i, _)| !skipped.contains(i))
                    .map(|(_, cell)| cell.clone())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn e11_batch_matches_sequential_and_reports_cache_hits() {
        use qudit_synthesis::Threads;

        let sweep = e11_sweep(Scale::Quick);
        let jobs = sweep_jobs(&sweep);

        // Sequential reference: one job at a time, in order, on both the
        // all-to-all and the routed leg.
        let compiler = scheduled_sweep_compiler();
        let sequential: Vec<CompileResult> = jobs
            .iter()
            .map(|job| compiler.compile(job).unwrap())
            .collect();
        let routed_compiler = routed_sweep_compiler(&jobs);
        let routed_sequential: Vec<CompileResult> = jobs
            .iter()
            .map(|job| routed_compiler.compile(job).unwrap())
            .collect();
        // Batch path, forced multi-threaded, on both legs.
        let batch = CompileOptions::new()
            .schedule(true)
            .cache(CacheMode::PerRun)
            .threads(Threads::Fixed(4))
            .compiler()
            .compile_batch(&jobs)
            .unwrap();
        let routed_batch = routed_sweep_options(&jobs)
            .threads(Threads::Fixed(4))
            .compiler()
            .compile_batch(&jobs)
            .unwrap();

        let sequential_table = e11_table_from_results(&sweep, &sequential, &routed_sequential);
        let batch_table = e11_table_from_results(&sweep, &batch.results, &routed_batch.results);
        assert_eq!(
            without_elapsed(&sequential_table),
            without_elapsed(&batch_table),
            "batch compilation must reproduce the sequential E11 table"
        );

        // The forced 4-worker batch leg must report its pool width.
        let threads_column = batch_table
            .headers
            .iter()
            .position(|h| h == "panel threads")
            .unwrap();
        assert!(
            batch_table
                .rows
                .iter()
                .all(|row| row[threads_column] == "4"),
            "batch leg must report the configured panel-thread count"
        );

        // The lowering passes must report a positive cache hit-rate.
        let hits_column = batch_table
            .headers
            .iter()
            .position(|h| h == "cache hits")
            .unwrap();
        let total_hits: u64 = batch_table
            .rows
            .iter()
            .filter_map(|row| row[hits_column].parse::<u64>().ok())
            .sum();
        assert!(total_hits > 0, "expected cache hits in the E11 sweep");
    }

    #[test]
    fn e10_depth_scheduling_reduces_mean_depth() {
        let table = quick_table("e10");
        let col = |name: &str| {
            table
                .headers
                .iter()
                .position(|h| h == name)
                .unwrap_or_else(|| panic!("missing column {name}"))
        };
        let (before_col, after_col, verified_col) =
            (col("depth"), col("scheduled depth"), col("verified"));
        let mut before_sum = 0usize;
        let mut after_sum = 0usize;
        for row in &table.rows {
            let before: usize = row[before_col].parse().unwrap();
            let after: usize = row[after_col].parse().unwrap();
            assert!(
                after <= before,
                "scheduling must not deepen any sweep point: {row:?}"
            );
            assert_eq!(row[verified_col], "true", "row failed to verify: {row:?}");
            before_sum += before;
            after_sum += after;
        }
        assert!(
            after_sum < before_sum,
            "scheduling must reduce the sweep's mean depth ({after_sum} !< {before_sum})"
        );
    }

    #[test]
    fn e10_batch_matches_sequential() {
        use qudit_synthesis::Threads;

        let sweep = e10_sweep(Scale::Quick);
        let syntheses = sweep_syntheses(&sweep);
        let jobs = sweep_jobs(&sweep);
        let compiler = scheduled_sweep_compiler();
        let sequential: Vec<CompileResult> = jobs
            .iter()
            .map(|job| compiler.compile(job).unwrap())
            .collect();
        let routed_compiler = routed_sweep_compiler(&jobs);
        let routed_sequential: Vec<CompileResult> = jobs
            .iter()
            .map(|job| routed_compiler.compile(job).unwrap())
            .collect();
        let batch = CompileOptions::new()
            .schedule(true)
            .cache(CacheMode::PerRun)
            .threads(Threads::Fixed(4))
            .compiler()
            .compile_batch(&jobs)
            .unwrap();
        let routed_batch = routed_sweep_options(&jobs)
            .threads(Threads::Fixed(4))
            .compiler()
            .compile_batch(&jobs)
            .unwrap();
        assert_eq!(
            e10_table_from_results(&sweep, &syntheses, &sequential, &routed_sequential).rows,
            e10_table_from_results(&sweep, &syntheses, &batch.results, &routed_batch.results).rows,
            "batch compilation must reproduce the sequential E10 table"
        );
    }

    /// The routed leg of the E10 sweep honours the coupling graph — every
    /// multi-qudit gate of every routed circuit acts on a coupled pair —
    /// and still implements the k-Toffoli (the router's epilogue restores
    /// the identity wire permutation, so the embedding's extra sites act
    /// as borrowed ancillas).
    #[test]
    fn e10_routed_sweep_is_adjacent_and_verifies() {
        use qudit_core::route::validate_adjacency;

        let sweep = e10_sweep(Scale::Quick);
        let syntheses = sweep_syntheses(&sweep);
        let jobs = sweep_jobs(&sweep);
        let sites = jobs.iter().map(|job| job.width()).max().unwrap();
        let graph = CouplingGraph::linear(sites).unwrap();
        let routed = routed_sweep_compiler(&jobs).compile_batch(&jobs).unwrap();
        for ((&(d, k), synthesis), report) in sweep.iter().zip(&syntheses).zip(&routed.results) {
            validate_adjacency(&report.circuit, &graph)
                .unwrap_or_else(|e| panic!("routed d={d} k={k} violates the chain: {e}"));
            assert!(
                report.swap_count.is_some()
                    && report.routed_depth.is_some()
                    && report.weighted_cost.is_some(),
                "routed d={d} k={k} must report the routing columns"
            );
            let spec = MctSpec::toffoli(
                synthesis.layout().controls.clone(),
                synthesis.layout().target,
            );
            let backend = SimBackend::Auto.resolve(&report.circuit);
            let verified = if dim(d).register_size(report.circuit.width()) <= 4096 {
                verify_mct_exhaustive(&report.circuit, &spec, backend)
                    .unwrap()
                    .is_pass()
            } else {
                let mut rng = StdRng::seed_from_u64(7);
                verify_mct_sampled(&report.circuit, &spec, 50, &mut rng, backend)
                    .unwrap()
                    .is_pass()
            };
            assert!(verified, "routed d={d} k={k} failed Toffoli verification");
        }
    }
}

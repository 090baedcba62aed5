//! `verified_routed_batch`: batches of eight small jobs through
//! `Compiler::compile_batch` with exhaustive verification, routing onto a
//! linear chain and depth scheduling.
//!
//! A batch mixes four small k-controlled gates and four random reversible
//! functions (`ReversibleSynthesizer`) of one dimension d ∈ {3, 4, 5}; each
//! batch compiles on the compiler of its register width (one per width,
//! routed onto `CouplingGraph::linear(width)`), and narrower jobs are
//! widened to it by the facade.  The (d, k, n) recipe is fixed per
//! dimension; the seed draws the target operations, the functions and the
//! order, so the batch mix and its cost barely move between seeds.

use std::collections::BTreeMap;
use std::time::Instant;

use qudit_core::topology::CouplingGraph;
use qudit_core::{Circuit, Dimension, SingleQuditOp};
use qudit_reversible::{ReversibleFunction, ReversibleSynthesizer};
use qudit_sim::{PermutationSimulator, SimBackend};
use qudit_synthesis::{
    BatchResult, CompileOptions, Compiler, MultiControlledGate, OptLevel, Threads, Verify,
    VerifyOutcome,
};

use crate::measure::{median, peak_rss_mb, process_cpu_ms, reset_peak_rss};
use crate::rng::Rng;
use crate::stages::StageReplay;
use crate::trace::{ms, Tracer};
use crate::{Layers, Measured, Traced, Workload, MIN_SAMPLES};

const BATCH: usize = 8;
/// Batches per dimension in one pass over the inputs.
const BATCHES_PER_DIMENSION: usize = 4;
/// Per dimension: the control counts of the four k-controlled gates and
/// the variable counts of the four reversible functions of each batch.
const RECIPES: [(u32, [usize; 4], [usize; 4]); 3] = [
    (3, [2, 3, 4, 4], [2, 2, 3, 3]),
    (4, [1, 2, 2, 2], [2, 2, 2, 3]),
    (5, [1, 2, 2, 2], [2, 2, 2, 3]),
];

enum Spec {
    /// `|0^k⟩-op` on controls `0..k`, target `k`, borrowed ancilla `k + 1`
    /// (even d, k ≥ 2).
    Gate {
        controls: usize,
        op: SingleQuditOp,
        target_map: Vec<u32>,
    },
    /// A reversible function on qudits `0..n` (plus a borrowed ancilla on
    /// `n` for even d and n ≥ 3).
    Function(ReversibleFunction),
}

struct Job {
    dimension: Dimension,
    spec: Spec,
}

impl Job {
    fn synthesize(&self) -> Result<Circuit, String> {
        match &self.spec {
            Spec::Gate { controls, op, .. } => {
                MultiControlledGate::new(self.dimension, *controls, op.clone())
                    .and_then(|gate| gate.synthesize())
                    .map(|s| s.circuit().clone())
                    .map_err(|e| e.to_string())
            }
            Spec::Function(function) => ReversibleSynthesizer::new(self.dimension)
                .and_then(|synthesizer| synthesizer.synthesize(function))
                .map(|s| s.circuit().clone())
                .map_err(|e| e.to_string()),
        }
    }

    /// The job's action on one basis state of the (possibly widened)
    /// register; every qudit beyond the job's own comes back unchanged.
    fn expected(&self, input: &[u32]) -> Result<Vec<u32>, String> {
        let mut out = input.to_vec();
        match &self.spec {
            Spec::Gate {
                controls,
                target_map,
                ..
            } => {
                if input[..*controls].iter().all(|&x| x == 0) {
                    out[*controls] = target_map[input[*controls] as usize];
                }
            }
            Spec::Function(function) => {
                let n = function.variables();
                out[..n].copy_from_slice(&function.apply(&input[..n]).map_err(|e| e.to_string())?);
            }
        }
        Ok(out)
    }
}

struct Batch {
    width: usize,
    jobs: Vec<Job>,
    circuits: Vec<Circuit>,
}

pub struct State {
    batches: Vec<Batch>,
    compilers: BTreeMap<usize, Compiler>,
    seed: u64,
}

fn options(width: usize) -> CompileOptions {
    CompileOptions::new()
        .verify(Verify::Exhaustive)
        .backend(SimBackend::Auto)
        .opt_level(OptLevel::O2)
        .threads(Threads::Fixed(2))
        .topology(CouplingGraph::linear(width).expect("a chain of at least one site"))
}

fn generate(seed: u64) -> Vec<Batch> {
    let mut rng = Rng::new(seed);
    let mut batches = Vec::new();
    for (d, gates, functions) in RECIPES {
        let dimension = Dimension::new(d).expect("d ≥ 2");
        let levels = d as usize;
        for _ in 0..BATCHES_PER_DIMENSION {
            let mut jobs: Vec<Job> = Vec::with_capacity(BATCH);
            for controls in gates {
                let (i, j) = rng.level_pair(levels);
                let mut target_map: Vec<u32> = (0..d).collect();
                target_map.swap(i as usize, j as usize);
                jobs.push(Job {
                    dimension,
                    spec: Spec::Gate {
                        controls,
                        op: SingleQuditOp::Swap(i, j),
                        target_map,
                    },
                });
            }
            for n in functions {
                let table = rng.permutation(levels.pow(n as u32));
                let function = ReversibleFunction::from_table(dimension, n, table)
                    .expect("a permutation table");
                jobs.push(Job {
                    dimension,
                    spec: Spec::Function(function),
                });
            }
            rng.shuffle(&mut jobs);
            let circuits: Vec<Circuit> = jobs
                .iter()
                .map(|job| job.synthesize().expect("the recipe's jobs synthesise"))
                .collect();
            let width = circuits
                .iter()
                .map(Circuit::width)
                .max()
                .expect("non-empty batch");
            batches.push(Batch {
                width,
                jobs,
                circuits,
            });
        }
    }
    rng.shuffle(&mut batches);
    batches
}

/// Checks every job of a batch on all basis states of its own register
/// (the qudits it was widened by are set at random) through the permutation
/// simulator, and requires every verdict to be `Verified`.
fn check(batch: &Batch, result: &BatchResult, rng: &mut Rng) -> Result<(), String> {
    for ((job, circuit), compiled) in batch.jobs.iter().zip(&batch.circuits).zip(&result.results) {
        if compiled.verification != VerifyOutcome::Verified(Verify::Exhaustive) {
            return Err(format!("verdict {}", compiled.verification));
        }
        if compiled.circuit.width() != batch.width {
            return Err("unexpected register width".into());
        }
        let d = job.dimension.get() as usize;
        let own = circuit.width();
        for index in 0..d.pow(own as u32) {
            let mut input: Vec<u32> = (0..own)
                .rev()
                .map(|i| (index / d.pow(i as u32) % d) as u32)
                .collect();
            input.extend((own..batch.width).map(|_| rng.below(d) as u32));
            let mut sim = PermutationSimulator::from_state(job.dimension, &input)
                .map_err(|e| e.to_string())?;
            sim.run(&compiled.circuit).map_err(|e| e.to_string())?;
            if sim.state() != job.expected(&input)?.as_slice() {
                return Err(format!("wrong output on input {input:?}"));
            }
        }
    }
    Ok(())
}

/// Gate count, depth and SWAP count of each job.
fn counts(result: &BatchResult) -> Vec<(usize, usize, usize)> {
    result
        .results
        .iter()
        .map(|r| (r.circuit.len(), r.depth, r.swap_count.unwrap_or(0)))
        .collect()
}

pub struct VerifiedRoutedBatch;

impl Workload for VerifiedRoutedBatch {
    const NAME: &'static str = "verified_routed_batch";
    type State = State;

    fn setup(seed: u64) -> State {
        let batches = generate(seed);
        let mut compilers = BTreeMap::new();
        for batch in &batches {
            compilers
                .entry(batch.width)
                .or_insert_with(|| options(batch.width).compiler());
        }
        // Warm-up: the cheapest batch through its compiler.
        let warm = batches
            .iter()
            .min_by_key(|b| b.circuits.iter().map(Circuit::len).sum::<usize>())
            .expect("batches");
        compilers[&warm.width]
            .compile_batch(&warm.circuits)
            .expect("warm-up batch compiles");
        State {
            batches,
            compilers,
            seed,
        }
    }

    fn measure(state: &mut State, seconds: f64) -> Measured {
        let mut rng = Rng::new(state.seed ^ 0xBA7C);
        let mut measured = Measured::default();
        let mut first: Vec<Option<Vec<(usize, usize, usize)>>> = vec![None; state.batches.len()];
        let mut peaks = Vec::new();
        let started = Instant::now();
        loop {
            reset_peak_rss();
            for (index, batch) in state.batches.iter().enumerate() {
                let compiler = &state.compilers[&batch.width];
                let cpu = process_cpu_ms();
                let start = Instant::now();
                let out = compiler.compile_batch(&batch.circuits);
                let elapsed = start.elapsed().as_secs_f64();
                measured.cpu_ms += process_cpu_ms() - cpu;
                measured.wall_s += elapsed;
                measured.latencies_ms.push(elapsed * 1e3);
                measured.jobs += batch.circuits.len();
                // Checks run outside the timed region (and outside the CPU tally).
                let ok = match (out, &first[index]) {
                    (Err(error), _) => {
                        eprintln!("verified_routed_batch: batch {index} failed: {error}");
                        false
                    }
                    (Ok(result), None) => {
                        let verdict = check(batch, &result, &mut rng);
                        if let Err(error) = &verdict {
                            eprintln!("verified_routed_batch: batch {index} is wrong: {error}");
                        }
                        first[index] = Some(counts(&result));
                        verdict.is_ok()
                    }
                    (Ok(result), Some(counted)) => {
                        result.is_verified() && counts(&result) == *counted
                    }
                };
                if !ok {
                    measured.failed += batch.circuits.len();
                }
            }
            peaks.push(peak_rss_mb());
            if started.elapsed().as_secs_f64() >= seconds
                && measured.latencies_ms.len() >= MIN_SAMPLES
            {
                break;
            }
        }
        measured.peak_rss_mb = median(&peaks);
        let counted: Vec<(usize, usize, usize)> = first.into_iter().flatten().flatten().collect();
        let jobs = counted.len().max(1) as f64;
        measured.g_gates = counted.iter().map(|c| c.0 as f64).sum::<f64>() / jobs;
        measured.depth = counted.iter().map(|c| c.1 as f64).sum::<f64>() / jobs;
        measured
    }

    fn traced(state: &mut State, origin: Instant) -> Traced {
        let replays: BTreeMap<usize, StageReplay> = state
            .compilers
            .keys()
            .map(|&width| (width, StageReplay::new(&options(width), 2)))
            .collect();
        let mut tracer = Tracer::new(origin, 0);
        let mut layers = Layers::default();
        let mut request_ms = Vec::with_capacity(state.batches.len());
        let mut failed = 0;
        let (mut gates, mut functions) = (0usize, 0usize);
        for (index, batch) in state.batches.iter().enumerate() {
            let compiler = &state.compilers[&batch.width];
            let start = Instant::now();
            let out = tracer.span("pool.batch", index as u64, |_| {
                compiler.compile_batch(&batch.circuits)
            });
            request_ms.push(ms(start, Instant::now()));
            if out.as_ref().map_or(true, |result| !result.is_verified()) {
                failed += batch.jobs.len();
            }
            // Replay each job on its own: synthesis, a serial compile, then
            // stage by stage (bare inside verified).
            for (offset, job) in batch.jobs.iter().enumerate() {
                let request = (index * BATCH + offset) as u64;
                let synth_span = match job.spec {
                    Spec::Gate { .. } => {
                        gates += 1;
                        "mct.synth"
                    }
                    Spec::Function(_) => {
                        functions += 1;
                        "reversible.synth"
                    }
                };
                let replayed = tracer.span("job.serial", request, |tracer| {
                    let circuit = tracer.span(synth_span, request, |_| job.synthesize())?;
                    let result = tracer
                        .span("facade.compile", request, |_| compiler.compile(&circuit))
                        .map_err(|e| e.to_string())?;
                    let widened = circuit.widened(batch.width).map_err(|e| e.to_string())?;
                    let replayed = tracer
                        .span("replay", request, |tracer| {
                            replays[&batch.width].run(tracer, request, widened)
                        })
                        .map_err(|e| e.to_string())?;
                    Ok::<_, String>((circuit, result, replayed))
                });
                match replayed {
                    Ok((circuit, result, replayed)) if replayed.circuit == result.circuit => {
                        if matches!(job.spec, Spec::Gate { .. }) {
                            layers.add("mct.macro_gates", circuit.len() as f64);
                        }
                        layers.add("route.swaps", result.swap_count.unwrap_or(0) as f64);
                        for (stage, gates) in replayed.gates_out {
                            layers.add(&format!("pass.{stage}.gates_out"), gates as f64);
                        }
                    }
                    other => {
                        if let Err(error) = other {
                            eprintln!(
                                "verified_routed_batch: replay of job {request} failed: {error}"
                            );
                        } else {
                            eprintln!("verified_routed_batch: stage replay of job {request} differs from compile");
                        }
                        failed += 1;
                    }
                }
            }
        }
        let jobs = state.batches.len() * BATCH;
        let macro_gates = layers.get("mct.macro_gates");
        layers.per_job(jobs);
        layers.set("mct.macro_gates", macro_gates / gates.max(1) as f64);
        let totals = tracer.totals();
        layers.span_ms(&totals, "mct.synth", "mct.synth_ms", gates);
        layers.span_ms(
            &totals,
            "reversible.synth",
            "reversible.synth_ms",
            functions,
        );
        layers.stage_times(&totals, jobs, "facade.compile");
        layers.span_ms(
            &totals,
            "pool.batch",
            "pool.batch_wall_ms",
            state.batches.len(),
        );
        let serial = totals.get("facade.compile").map_or(0.0, |t| t.total_ms);
        let batch_wall = totals.get("pool.batch").map_or(0.0, |t| t.total_ms);
        // Two workers: Σ serial job time over the time two workers had.
        layers.set("pool.utilisation", serial / (2.0 * batch_wall));
        Traced {
            tracer,
            jobs,
            failed,
            request_ms,
            layers,
        }
    }
}

//! `mct_sweep`: the paper's headline path, one k-controlled gate per job.
//!
//! Each job is a d ∈ {3, 4, 5, 7}, a classical target operation (`Swap`,
//! `Add` or `Perm`) and a control count k ≥ 3, run through
//! `MultiControlledGate::synthesize` → `Compiler::compile` (O1, one fixed
//! thread, no cache, unverified) → `CompileResult::to_qasm`.  Within a job
//! a second worker saved at most a tenth of the wall time, and waiting on
//! it while the shared host ran something else on its core doubled the
//! run-to-run spread; `verified_routed_batch` measures the pool's dispatch
//! across jobs.  One pass holds one job per (d, operation kind, k) on a
//! grid of up to nine k values over [3, cap].  The seed draws the target's
//! levels, the shift and the permutation.  Each kind's transposition count
//! is fixed, so the circuit sizes, and with them every aggregate, barely
//! move between seeds.  The jobs run as a sweep in (d, kind, k) order, so
//! the allocation history before each job, and with it the peak memory, is
//! the same for every seed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use qudit_core::{Circuit, Dimension, Permutation, SingleQuditOp};
use qudit_sim::PermutationSimulator;
use qudit_synthesis::{
    CompileOptions, CompileResult, Compiler, MultiControlledGate, OptLevel, Threads,
};

use crate::measure::{median, peak_rss_mb, process_cpu_ms, reset_peak_rss};
use crate::rng::Rng;
use crate::stages::{StageReplay, STAGES};
use crate::trace::{ms, LayerTotals, Tracer};
use crate::{Layers, Measured, Traced, Workload, MIN_SAMPLES};

const DIMENSIONS: [u32; 4] = [3, 4, 5, 7];
/// Largest k per dimension for a single-transposition target, chosen so
/// that no job takes much over 0.3 s.  A target of t transpositions is
/// synthesised as t multi-controlled swaps, so its cap is divided by t.
const K_CAP: [usize; 4] = [24, 24, 8, 4];
/// Distinct control counts per (d, operation kind).
const K_GRID: usize = 9;
/// Basis inputs checked per job: half with every control at |0⟩ (the gate
/// fires), half uniformly random.
const CHECK_SAMPLES: usize = 16;
/// Compile threads (see the module docs).
const THREADS: usize = 1;

#[derive(Clone)]
pub struct Job {
    dimension: Dimension,
    controls: usize,
    op: SingleQuditOp,
    /// The target's level map, built from the drawn parameters alone.
    target_map: Vec<u32>,
}

pub struct State {
    jobs: Vec<Job>,
    compiler: Compiler,
    options: CompileOptions,
    seed: u64,
}

fn options() -> CompileOptions {
    CompileOptions::new()
        .opt_level(OptLevel::O1)
        .threads(Threads::Fixed(THREADS))
}

fn transpositions(map: &[u32]) -> usize {
    let mut seen = vec![false; map.len()];
    let mut cycles = 0;
    for start in 0..map.len() {
        if !seen[start] {
            cycles += 1;
            let mut level = start;
            while !seen[level] {
                seen[level] = true;
                level = map[level] as usize;
            }
        }
    }
    map.len() - cycles
}

/// Transposition count of each target kind (see [`draw_target`]).
const TRANSPOSITIONS: [fn(u32) -> usize; 3] = [|_| 1, |d| d as usize - 1, |_| 2];

/// A target of each kind: a transposition `Xij`, a shift `X+y` by a unit
/// of Z_d (one d-cycle, d − 1 transpositions), or a permutation of exactly
/// two transpositions (a 3-cycle or two disjoint swaps).
fn draw_target(rng: &mut Rng, d: u32, kind: usize) -> (SingleQuditOp, Vec<u32>) {
    let levels = d as usize;
    match kind {
        0 => {
            let (i, j) = rng.level_pair(levels);
            let mut map: Vec<u32> = (0..d).collect();
            map.swap(i as usize, j as usize);
            (SingleQuditOp::Swap(i, j), map)
        }
        1 => loop {
            let y = rng.range(1, levels - 1) as u32;
            let map: Vec<u32> = (0..d).map(|x| (x + y) % d).collect();
            if transpositions(&map) == levels - 1 {
                return (SingleQuditOp::Add(y), map);
            }
        },
        _ => loop {
            let map: Vec<u32> = rng
                .permutation(levels)
                .into_iter()
                .map(|p| p as u32)
                .collect();
            if transpositions(&map) == 2 {
                let perm = Permutation::from_map(map.clone()).expect("a permutation");
                return (SingleQuditOp::Perm(perm), map);
            }
        },
    }
}

fn generate(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed);
    let mut jobs = Vec::new();
    for (slot, &d) in DIMENSIONS.iter().enumerate() {
        for (kind, transpositions) in TRANSPOSITIONS.iter().enumerate() {
            // A grid of up to nine distinct k over [3, cap], ends included.
            let cap = (K_CAP[slot] / transpositions(d)).max(3);
            let points = K_GRID.min(cap - 2);
            for point in 0..points {
                let (op, target_map) = draw_target(&mut rng, d, kind);
                let controls = match points {
                    1 => 3,
                    _ => 3 + (point * (cap - 3) + (points - 1) / 2) / (points - 1),
                };
                jobs.push(Job {
                    dimension: Dimension::new(d).expect("d ≥ 2"),
                    controls,
                    op,
                    target_map,
                });
            }
        }
    }
    jobs
}

fn synthesize(job: &Job) -> qudit_synthesis::Result<qudit_synthesis::MctSynthesis> {
    MultiControlledGate::new(job.dimension, job.controls, job.op.clone())?.synthesize()
}

fn run_job(compiler: &Compiler, job: &Job) -> Result<(CompileResult, usize), String> {
    let synthesis = synthesize(job).map_err(|e| e.to_string())?;
    let result = compiler
        .compile(synthesis.circuit())
        .map_err(|e| e.to_string())?;
    let qasm = result.to_qasm();
    Ok((result, black_box(qasm.len())))
}

/// The job's truth table on one basis input: controls on qudits `0..k`, the
/// target on qudit `k`, and (even d) a borrowed ancilla on `k + 1` that must
/// come back unchanged.
fn expected(job: &Job, input: &[u32]) -> Vec<u32> {
    let mut out = input.to_vec();
    if input[..job.controls].iter().all(|&x| x == 0) {
        out[job.controls] = job.target_map[input[job.controls] as usize];
    }
    out
}

/// Checks a compiled circuit against the job's truth table on sampled basis
/// inputs, through the permutation simulator.
fn check(job: &Job, circuit: &Circuit, rng: &mut Rng) -> Result<(), String> {
    let d = job.dimension.get() as usize;
    let width = job.controls + 1 + usize::from(d.is_multiple_of(2));
    if circuit.width() != width || !circuit.gates().iter().all(|g| g.is_g_gate()) {
        return Err(format!(
            "unexpected register width {} or non-G gate",
            circuit.width()
        ));
    }
    for sample in 0..CHECK_SAMPLES {
        let mut input: Vec<u32> = (0..width).map(|_| rng.below(d) as u32).collect();
        if sample % 2 == 0 {
            input[..job.controls].fill(0);
        }
        let mut sim =
            PermutationSimulator::from_state(job.dimension, &input).map_err(|e| e.to_string())?;
        sim.run(circuit).map_err(|e| e.to_string())?;
        if sim.state() != expected(job, &input).as_slice() {
            return Err(format!("wrong output on input {input:?}"));
        }
    }
    Ok(())
}

/// Splits the mean job wall time into the spans that make it up: synthesis,
/// the compile call (itself split by the stage replay into stages, profiles
/// and facade overhead) and printing.
fn print_attribution(totals: &BTreeMap<String, LayerTotals>, jobs: usize) {
    let per_job = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ms) / jobs as f64;
    let stages: f64 = STAGES.iter().map(|s| per_job(&format!("pass.{s}"))).sum();
    let (job, synth, compile, print) = (
        per_job("job"),
        per_job("mct.synth"),
        per_job("facade.compile"),
        per_job("qasm.print"),
    );
    let profile = per_job("pipeline.profile");
    println!(
        "mct_sweep job wall {job:.3} ms = synth {synth:.3} + compile {compile:.3} \
         (stages {stages:.3} + profiles {profile:.3} + facade overhead {:.3}) + print {print:.3} \
         + unspanned {:.3}; synth, stage, profile and print spans cover {:.1}% of it",
        compile - stages - profile,
        job - synth - compile - print,
        100.0 * (synth + stages + profile + print) / job,
    );
}

pub struct MctSweep;

impl Workload for MctSweep {
    const NAME: &'static str = "mct_sweep";
    type State = State;

    fn setup(seed: u64) -> State {
        let jobs = generate(seed);
        let options = options();
        let compiler = options.clone().compiler();
        // Warm-up: the smallest job of each dimension through the whole path.
        for d in DIMENSIONS {
            let smallest = jobs
                .iter()
                .filter(|job| job.dimension.get() == d)
                .min_by_key(|job| (transpositions(&job.target_map), job.controls))
                .expect("every dimension has jobs");
            black_box(run_job(&compiler, smallest).expect("warm-up job compiles"));
        }
        State {
            jobs,
            compiler,
            options,
            seed,
        }
    }

    fn measure(state: &mut State, seconds: f64) -> Measured {
        let mut rng = Rng::new(state.seed ^ 0xC4EC);
        let mut measured = Measured::default();
        // Per-job counts from the first pass, which later passes must repeat.
        let mut counts: Vec<Option<(usize, usize)>> = vec![None; state.jobs.len()];
        let mut busy_s = 0.0;
        let mut peaks = Vec::new();
        let started = Instant::now();
        loop {
            reset_peak_rss();
            for (index, job) in state.jobs.iter().enumerate() {
                let cpu = process_cpu_ms();
                let start = Instant::now();
                let out = run_job(&state.compiler, job);
                let elapsed = start.elapsed().as_secs_f64();
                measured.cpu_ms += process_cpu_ms() - cpu;
                busy_s += elapsed;
                measured.latencies_ms.push(elapsed * 1e3);
                measured.jobs += 1;
                // Checks run outside the timed region (and outside the CPU tally).
                let ok = match (out, counts[index]) {
                    (Err(error), _) => {
                        eprintln!("mct_sweep: job {index} failed: {error}");
                        false
                    }
                    (Ok((result, _)), None) => {
                        let verdict = check(job, &result.circuit, &mut rng);
                        if let Err(error) = &verdict {
                            eprintln!("mct_sweep: job {index} is wrong: {error}");
                        }
                        counts[index] = Some((result.circuit.g_gate_count(), result.depth));
                        verdict.is_ok()
                    }
                    (Ok((result, _)), Some(first)) => {
                        first == (result.circuit.g_gate_count(), result.depth)
                    }
                };
                measured.failed += usize::from(!ok);
            }
            peaks.push(peak_rss_mb());
            if measured.jobs >= MIN_SAMPLES && started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        measured.peak_rss_mb = median(&peaks);
        measured.wall_s = busy_s;
        let counted: Vec<(usize, usize)> = counts.into_iter().flatten().collect();
        measured.g_gates =
            counted.iter().map(|c| c.0 as f64).sum::<f64>() / counted.len().max(1) as f64;
        measured.depth =
            counted.iter().map(|c| c.1 as f64).sum::<f64>() / counted.len().max(1) as f64;
        measured
    }

    fn traced(state: &mut State, origin: Instant) -> Traced {
        let replay = StageReplay::new(&state.options, THREADS);
        let mut tracer = Tracer::new(origin, 0);
        let mut layers = Layers::default();
        let mut request_ms = Vec::with_capacity(state.jobs.len());
        let mut failed = 0;
        for (index, job) in state.jobs.iter().enumerate() {
            let request = index as u64;
            let start = Instant::now();
            let out = tracer.span("job", request, |tracer| {
                let synthesis = tracer
                    .span("mct.synth", request, |_| synthesize(job))
                    .map_err(|e| e.to_string())?;
                let result = tracer
                    .span("facade.compile", request, |_| {
                        state.compiler.compile(synthesis.circuit())
                    })
                    .map_err(|e| e.to_string())?;
                let qasm = tracer.span("qasm.print", request, |_| result.to_qasm());
                Ok::<_, String>((synthesis, result, qasm.len()))
            });
            request_ms.push(ms(start, Instant::now()));
            let (synthesis, result, bytes) = match out {
                Ok(out) => out,
                Err(error) => {
                    eprintln!("mct_sweep: traced job {index} failed: {error}");
                    failed += 1;
                    continue;
                }
            };
            layers.add("mct.macro_gates", synthesis.circuit().len() as f64);
            layers.add("qasm.bytes_out", bytes as f64);
            let replayed = tracer.span("replay", request, |tracer| {
                replay.run(tracer, request, synthesis.circuit().clone())
            });
            match replayed {
                Ok(replayed) if replayed.circuit == result.circuit => {
                    for (stage, gates) in replayed.gates_out {
                        layers.add(&format!("pass.{stage}.gates_out"), gates as f64);
                    }
                }
                _ => {
                    eprintln!("mct_sweep: stage replay of job {index} differs from compile");
                    failed += 1;
                }
            }
        }
        let jobs = state.jobs.len();
        layers.per_job(jobs);
        let totals = tracer.totals();
        layers.span_ms(&totals, "mct.synth", "mct.synth_ms", jobs);
        layers.span_ms(&totals, "qasm.print", "qasm.print_ms", jobs);
        layers.stage_times(&totals, jobs, "facade.compile");
        print_attribution(&totals, jobs);
        Traced {
            tracer,
            jobs,
            failed,
            request_ms,
            layers,
        }
    }
}

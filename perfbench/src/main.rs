//! End-to-end and per-layer benchmark of the qudit compiler.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mct_sweep|service_roundtrip|verified_routed_batch> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed` before anything is timed.  With
//! `--trace 0` the run times the user-visible path with no tracing and
//! prints the end-to-end metrics; with `--trace 1` it does that run first,
//! then replays every input once with spans around each layer, prints the
//! per-layer self-time table, writes a Chrome trace to
//! `perfbench/out/trace-<workload>-<seed>.json` and reports the per-layer
//! metrics.  Every output is checked against a reference the benchmark
//! builds on its own; the last line of standard output is one JSON object.
//! See `perfbench/README.md` for the metric definitions.

mod batch;
mod mct_sweep;
mod measure;
mod rng;
mod service;
mod stages;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use measure::{mean, median, percentile, timed, SETUP_REPEATS};
use stages::STAGES;
use trace::{LayerTotals, Tracer};

/// Latency samples every run collects at least, so that the 90th
/// percentile has ten samples beyond it.
pub const MIN_SAMPLES: usize = 100;

const USAGE: &str =
    "usage: qudit-perfbench --workload <mct_sweep|service_roundtrip|verified_routed_batch> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// What an untraced run measured.
#[derive(Default)]
pub struct Measured {
    /// One sample per user-visible request.
    pub latencies_ms: Vec<f64>,
    /// Circuits compiled: the unit `failed` and `failed_ratio` count in.
    pub jobs: usize,
    pub failed: usize,
    /// Wall time the jobs were in flight.
    pub wall_s: f64,
    /// Process CPU time spent on the jobs.
    pub cpu_ms: f64,
    /// Mean gate count and depth of the emitted circuits, over the distinct
    /// inputs.
    pub g_gates: f64,
    pub depth: f64,
    /// Peak resident memory while requests ran: the median over passes of
    /// each pass's `VmHWM` (reset at the start of the pass).
    pub peak_rss_mb: f64,
}

/// What a traced replay measured.
pub struct Traced {
    pub tracer: Tracer,
    /// Distinct jobs replayed.
    pub jobs: usize,
    pub failed: usize,
    /// Duration of each user-visible request span, to compare with the
    /// untraced latencies.
    pub request_ms: Vec<f64>,
    pub layers: Layers,
}

/// Per-layer metric values by name.
#[derive(Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_default() += value;
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Divides every value recorded so far (sums over jobs) by `jobs`.
    pub fn per_job(&mut self, jobs: usize) {
        for value in self.0.values_mut() {
            *value /= jobs.max(1) as f64;
        }
    }

    /// Sets `metric` to the total duration of the `span` spans per job.
    pub fn span_ms(
        &mut self,
        totals: &BTreeMap<String, LayerTotals>,
        span: &str,
        metric: &str,
        jobs: usize,
    ) {
        let total = totals.get(span).map_or(0.0, |t| t.total_ms);
        self.set(metric, total / jobs.max(1) as f64);
    }

    /// Stage, verification, profile and facade-overhead times per job from
    /// a stage replay; `compile_span` names the spans around the facade's
    /// own `compile` call on the same inputs.
    pub fn stage_times(
        &mut self,
        totals: &BTreeMap<String, LayerTotals>,
        jobs: usize,
        compile_span: &str,
    ) {
        let per_job = |t: Option<&LayerTotals>, f: fn(&LayerTotals) -> f64| {
            t.map_or(0.0, f) / jobs.max(1) as f64
        };
        let mut in_stages = 0.0;
        for stage in STAGES {
            let pass = per_job(totals.get(&format!("pass.{stage}")), |t| t.total_ms);
            let verify = totals.get(&format!("verify.{stage}"));
            self.set(&format!("pass.{stage}.ms"), pass);
            self.set(
                &format!("verify.{stage}.ms"),
                per_job(verify, |t| t.self_ms),
            );
            in_stages += if verify.is_some() {
                per_job(verify, |t| t.total_ms)
            } else {
                pass
            };
        }
        let profile = per_job(totals.get("pipeline.profile"), |t| t.total_ms);
        self.set("pipeline.profile_ms", profile);
        let compile = per_job(totals.get(compile_span), |t| t.total_ms);
        self.set("facade.overhead_ms", compile - in_stages - profile);
    }
}

/// The per-layer metrics every traced run reports, with their units; a
/// layer a workload does not exercise reads 0.
fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("mct.synth_ms", "ms"),
        ("mct.macro_gates", "count"),
        ("reversible.synth_ms", "ms"),
        ("qasm.parse_ms", "ms"),
        ("qasm.print_ms", "ms"),
        ("qasm.bytes_out", "bytes"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for stage in STAGES {
        names.push((format!("pass.{stage}.ms"), "ms"));
        names.push((format!("pass.{stage}.gates_out"), "count"));
    }
    names.push(("pipeline.profile_ms".into(), "ms"));
    names.push(("facade.overhead_ms".into(), "ms"));
    for stage in STAGES {
        names.push((format!("verify.{stage}.ms"), "ms"));
    }
    for (name, unit) in [
        ("route.swaps", "count"),
        ("cache.hits", "count"),
        ("cache.misses", "count"),
        ("cache.hit_ratio", "ratio"),
        ("cache.evictions", "count"),
        ("cache.contended", "count"),
        ("cache.race_losses", "count"),
        ("pool.batch_wall_ms", "ms"),
        ("pool.utilisation", "ratio"),
        ("service.rtt_ms", "ms"),
        ("service.compile_ms", "ms"),
        ("service.overhead_ms", "ms"),
        ("service.accepted", "count"),
        ("service.completed", "count"),
        ("service.rejected", "count"),
        ("service.compile_errors", "count"),
        ("service.protocol_errors", "count"),
        ("failed_ratio", "ratio"),
        ("trace.overhead_pct", "%"),
    ] {
        names.push((name.to_string(), unit));
    }
    names
}

pub trait Workload {
    const NAME: &'static str;
    type State;
    fn setup(seed: u64) -> Self::State;
    /// The untraced run: whole passes over the inputs until `seconds` have
    /// passed and at least [`MIN_SAMPLES`] requests were timed.
    fn measure(state: &mut Self::State, seconds: f64) -> Measured;
    /// Replays every input once with spans around each layer.
    fn traced(state: &mut Self::State, origin: Instant) -> Traced;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, &'static str, f64)>,
}

fn execute<W: Workload>(args: &Args) -> Report {
    let origin = Instant::now();
    let (mut state, first_setup_s) = timed(|| W::setup(args.seed));
    let measured = W::measure(&mut state, args.seconds);
    // The other set-ups run after the measurement, so the memory they leave
    // behind does not shape the measured run's peak.
    let mut setup_times = vec![first_setup_s];
    for _ in 1..SETUP_REPEATS {
        let (again, seconds) = timed(|| W::setup(args.seed));
        drop(again);
        setup_times.push(seconds);
    }
    let setup_s = median(&setup_times);
    let samples = measured.latencies_ms.len();
    let p50 = percentile(&measured.latencies_ms, 0.5);
    let end_to_end: Vec<(String, &'static str, f64)> = vec![
        ("latency_p50_ms".into(), "ms", p50),
        (
            "latency_p90_ms".into(),
            "ms",
            percentile(&measured.latencies_ms, 0.9),
        ),
        (
            "throughput_jobs_s".into(),
            "1/s",
            measured.jobs as f64 / measured.wall_s,
        ),
        (
            "cpu_ms_per_job".into(),
            "ms",
            measured.cpu_ms / measured.jobs as f64,
        ),
        ("g_gates_per_job".into(), "count", measured.g_gates),
        ("depth_per_job".into(), "count", measured.depth),
        ("peak_rss_mb".into(), "MB", measured.peak_rss_mb),
        ("setup_s".into(), "s", setup_s),
    ];
    let failed_ratio = measured.failed as f64 / measured.jobs.max(1) as f64;
    println!(
        "{} seed {}: {samples} request samples ({} beyond p90), {} jobs in {:.3} s, failed_ratio {failed_ratio}",
        W::NAME,
        args.seed,
        samples - (samples as f64 * 0.9).ceil() as usize,
        measured.jobs,
        measured.wall_s,
    );
    print_metrics("end-to-end (untraced)", &end_to_end);
    if !args.trace {
        return Report {
            attempted: measured.jobs,
            failed: measured.failed,
            metrics: end_to_end,
        };
    }

    let traced = W::traced(&mut state, origin);
    drop(state);
    let mut layers = traced.layers;
    let attempted = measured.jobs + traced.jobs;
    let failed = measured.failed + traced.failed;
    layers.set("failed_ratio", failed as f64 / attempted.max(1) as f64);
    let traced_p50 = percentile(&traced.request_ms, 0.5);
    layers.set("trace.overhead_pct", 100.0 * (traced_p50 - p50) / p50);
    println!(
        "tracing overhead: traced request p50 {traced_p50:.4} ms vs untraced {p50:.4} ms; mean traced request {:.4} ms",
        mean(&traced.request_ms)
    );
    trace::print_self_time_table(W::NAME, &traced.tracer, traced.jobs);
    let path = PathBuf::from(format!(
        "perfbench/out/trace-{}-{}.json",
        W::NAME,
        args.seed
    ));
    match traced.tracer.write_chrome(&path) {
        Ok(()) => println!("chrome trace: {}", path.display()),
        Err(error) => eprintln!("could not write {}: {error}", path.display()),
    }
    let metrics: Vec<(String, &'static str, f64)> = layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let value = layers.get(&name);
            (name, unit, value)
        })
        .collect();
    print_metrics("per-layer (traced)", &metrics);
    Report {
        attempted,
        failed,
        metrics,
    }
}

fn print_metrics(title: &str, metrics: &[(String, &'static str, f64)]) {
    println!("{title}:");
    for (name, unit, value) in metrics {
        println!("  {name:<34} {value:>18.6} {unit}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        mct_sweep::MctSweep::NAME => execute::<mct_sweep::MctSweep>(&args),
        service::ServiceRoundtrip::NAME => execute::<service::ServiceRoundtrip>(&args),
        batch::VerifiedRoutedBatch::NAME => execute::<batch::VerifiedRoutedBatch>(&args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    for (i, (name, unit, value)) in report.metrics.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is not finite");
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}

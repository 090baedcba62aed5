//! `service_roundtrip`: a closed loop of two clients against the TCP
//! compile service.
//!
//! Each client is its own tenant on its own connection with one request
//! outstanding.  Each job is a short seeded program: 1–8 classical
//! statements on a register of width 4–6 over d ∈ {3, 4, 5, 7}, with 0–2
//! controls of any predicate.  Statements the pipeline cannot lower today
//! — `sum`/`sumdg` under two controls, and anything under three or more —
//! are not generated (see `perfbench/README.md`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use qudit_core::cache::LoweringCache;
use qudit_core::pipeline::CacheMode;
use qudit_core::pool::WorkStealingPool;
use qudit_core::{qasm, Circuit, Dimension};
use qudit_sim::PermutationSimulator;
use qudit_synthesis::{
    CompileOptions, CompileService, Compiler, JobReply, JobRequest, ServiceClient, ServiceConfig,
    ServiceStats,
};

use crate::measure::{
    cpu_between, current_thread_cpu_ms, peak_rss_mb, reset_peak_rss, thread_cpu_ms,
};
use crate::rng::Rng;
use crate::stages::StageReplay;
use crate::trace::{ms, Tracer};
use crate::{Layers, Measured, Traced, Workload, MIN_SAMPLES};

const CLIENTS: usize = 2;
const DIMENSIONS: [u32; 4] = [3, 4, 5, 7];
/// Statement counts of one block of a client's programs of one dimension.
const STATEMENT_COUNTS: [usize; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4];
/// Blocks per dimension and client.
const BLOCKS: usize = 2;
const PROGRAMS_PER_CLIENT: usize = DIMENSIONS.len() * BLOCKS * STATEMENT_COUNTS.len();
/// Statement shapes as (operation, controls, predicate): operation 0–5 is
/// swap, shift, perm, parity flip, sum, sumdg; predicate 0–3 is a level,
/// odd, even, nonzero.  Each block's statements are this list twice over,
/// dealt in a seeded order, so the program mix is the same for every seed.
/// A single control takes any predicate; two controls take levels, because
/// a multi-level predicate there compiles to 10³–10⁴ gates at d = 7, which
/// would make compilation, not the front door, the subject of this
/// workload.  For the same reason sum/sumdg stay
/// uncontrolled (`lower-to-elementary` rejects them under two controls).
#[rustfmt::skip]
const SHAPES: [(usize, usize, usize); 23] = [
    (0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0), (5, 0, 0), (4, 0, 0), (5, 0, 0),
    (0, 1, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0),
    (0, 1, 1), (2, 1, 1), (1, 1, 2), (3, 1, 2), (0, 1, 3), (2, 1, 3),
    (0, 2, 0), (1, 2, 0), (2, 2, 0), (3, 2, 0), (0, 2, 0),
];

/// Uniformly random basis inputs checked per reply.
const RANDOM_SAMPLES: usize = 32;
/// Basis inputs per statement, with the statement's controls satisfied.
const FIRING_SAMPLES: usize = 4;
const WARM_UP: &str = "OPENQASM 3.0;\nqudit[3] q[2];\nctrl @ shift(1) q[0], q[1];\n";

#[derive(Clone, Copy)]
enum Predicate {
    Level(u32),
    Odd,
    Even,
    Nonzero,
}

impl Predicate {
    fn fires(self, x: u32) -> bool {
        match self {
            Predicate::Level(level) => x == level,
            Predicate::Odd => x % 2 == 1,
            Predicate::Even => x != 0 && x.is_multiple_of(2),
            Predicate::Nonzero => x != 0,
        }
    }
}

enum Op {
    Swap(u32, u32),
    Shift(u32),
    Perm(Vec<u32>),
    ParityFlip,
    Sum { source: usize },
    SumDg { source: usize },
}

struct Statement {
    controls: Vec<(usize, Predicate)>,
    op: Op,
    target: usize,
}

/// A generated program: its text and its meaning, kept side by side so
/// replies are checked against the statements, never against the compiler.
pub struct Program {
    dimension: Dimension,
    width: usize,
    statements: Vec<Statement>,
    source: String,
}

impl Program {
    fn generate(
        rng: &mut Rng,
        d: u32,
        shapes: &mut Vec<(usize, usize, usize)>,
        count: usize,
    ) -> Program {
        let width = rng.range(4, 6);
        let statements = shapes
            .drain(..count)
            .map(|shape| Statement::generate(rng, d, width, shape))
            .collect();
        let mut program = Program {
            dimension: Dimension::new(d).expect("d ≥ 2"),
            width,
            statements,
            source: String::new(),
        };
        program.source = program.render();
        program
    }

    fn render(&self) -> String {
        let d = self.dimension.get();
        let mut text = format!("OPENQASM 3.0;\nqudit[{d}] q[{}];\n", self.width);
        for statement in &self.statements {
            for (_, predicate) in &statement.controls {
                match predicate {
                    Predicate::Level(level) => write!(text, "ctrl({level}) @ "),
                    Predicate::Odd => write!(text, "ctrl(odd) @ "),
                    Predicate::Even => write!(text, "ctrl(even) @ "),
                    Predicate::Nonzero => write!(text, "ctrl(nonzero) @ "),
                }
                .expect("writing to a String");
            }
            let mut operands: Vec<usize> = statement.controls.iter().map(|c| c.0).collect();
            match &statement.op {
                Op::Swap(i, j) => write!(text, "swap({i}, {j})"),
                Op::Shift(y) => write!(text, "shift({y})"),
                Op::Perm(map) => {
                    let levels: Vec<String> = map.iter().map(u32::to_string).collect();
                    write!(text, "perm({})", levels.join(", "))
                }
                Op::ParityFlip if d.is_multiple_of(2) => write!(text, "parityflip_e"),
                Op::ParityFlip => write!(text, "parityflip_o"),
                Op::Sum { source } | Op::SumDg { source } => {
                    operands.push(*source);
                    let name = if matches!(statement.op, Op::Sum { .. }) {
                        "sum"
                    } else {
                        "sumdg"
                    };
                    write!(text, "{name}")
                }
            }
            .expect("writing to a String");
            operands.push(statement.target);
            let operands: Vec<String> = operands.iter().map(|q| format!("q[{q}]")).collect();
            writeln!(text, " {};", operands.join(", ")).expect("writing to a String");
        }
        text
    }

    /// The program's action on one basis state.
    fn apply(&self, state: &mut [u32]) {
        let d = self.dimension.get();
        for statement in &self.statements {
            if !statement.controls.iter().all(|&(q, p)| p.fires(state[q])) {
                continue;
            }
            let x = state[statement.target];
            state[statement.target] = match &statement.op {
                Op::Swap(i, j) if x == *i => *j,
                Op::Swap(i, j) if x == *j => *i,
                Op::Swap(..) => x,
                Op::Shift(y) => (x + y) % d,
                Op::Perm(map) => map[x as usize],
                // X01·X23·… for even d; X12·X34·… (fixing 0) for odd d.
                Op::ParityFlip if d.is_multiple_of(2) => x ^ 1,
                Op::ParityFlip if x == 0 => 0,
                Op::ParityFlip if x % 2 == 1 => x + 1,
                Op::ParityFlip => x - 1,
                Op::Sum { source } => (x + state[*source]) % d,
                Op::SumDg { source } => (x + d - state[*source]) % d,
            };
        }
    }
}

impl Statement {
    fn generate(rng: &mut Rng, d: u32, width: usize, shape: (usize, usize, usize)) -> Statement {
        let levels = d as usize;
        let mut wires: Vec<usize> = (0..width).collect();
        rng.shuffle(&mut wires);
        let (kind, controls, predicate) = shape;
        let op = match kind {
            0 => {
                let (i, j) = rng.level_pair(levels);
                Op::Swap(i, j)
            }
            1 => Op::Shift(rng.range(1, levels - 1) as u32),
            2 => Op::Perm(
                rng.non_identity_permutation(levels)
                    .into_iter()
                    .map(|p| p as u32)
                    .collect(),
            ),
            3 => Op::ParityFlip,
            4 => Op::Sum {
                source: wires[controls + 1],
            },
            _ => Op::SumDg {
                source: wires[controls + 1],
            },
        };
        let controls = (0..controls)
            .map(|c| {
                let predicate = match predicate {
                    0 => Predicate::Level(rng.below(levels) as u32),
                    1 => Predicate::Odd,
                    2 => Predicate::Even,
                    _ => Predicate::Nonzero,
                };
                (wires[c + 1], predicate)
            })
            .collect();
        Statement {
            controls,
            op,
            target: wires[0],
        }
    }
}

/// Checks a reply's circuit against the submitted program on sampled basis
/// inputs: [`RANDOM_SAMPLES`] uniform ones, plus [`FIRING_SAMPLES`] per
/// statement whose controls start out satisfied.
fn check(program: &Program, reply: &JobReply, rng: &mut Rng) -> Result<(), String> {
    if !reply.is_ok() {
        return Err(format!("reply is not ok: {}", reply.message));
    }
    let circuit: Circuit = qasm::parse_source(&reply.qasm).map_err(|e| e.to_string())?;
    if circuit.dimension() != program.dimension || circuit.width() != program.width {
        return Err("reply changed the register".into());
    }
    let d = program.dimension.get();
    let firing = program
        .statements
        .iter()
        .flat_map(|statement| std::iter::repeat_n(Some(statement), FIRING_SAMPLES));
    for statement in std::iter::repeat_n(None, RANDOM_SAMPLES).chain(firing) {
        let mut input: Vec<u32> = (0..program.width)
            .map(|_| rng.below(d as usize) as u32)
            .collect();
        for &(wire, predicate) in statement.map_or(&[][..], |s| &s.controls) {
            input[wire] = loop {
                let level = rng.below(d as usize) as u32;
                if predicate.fires(level) {
                    break level;
                }
            };
        }
        let mut sim = PermutationSimulator::from_state(program.dimension, &input)
            .map_err(|e| e.to_string())?;
        sim.run(&circuit).map_err(|e| e.to_string())?;
        let mut expected = input.clone();
        program.apply(&mut expected);
        if sim.state() != expected.as_slice() {
            return Err(format!("wrong output on input {input:?}"));
        }
    }
    Ok(())
}

pub struct State {
    // Clients are dropped before the service they are connected to.
    clients: Vec<ServiceClient>,
    service: CompileService,
    programs: Vec<Vec<Program>>,
    requests: Vec<Vec<JobRequest>>,
    seed: u64,
}

/// One client's share of a run.
#[derive(Default)]
struct ClientRun {
    latencies_ms: Vec<f64>,
    /// The first reply to each distinct program.
    first: BTreeMap<usize, JobReply>,
    failed: usize,
    /// CPU time of the client thread over its whole life.
    cpu_ms: f64,
    spans: Option<Tracer>,
}

/// Runs one client's closed loop: whole passes over its programs until
/// `seconds` have passed and it has its share of [`MIN_SAMPLES`] (one pass
/// when `seconds` is `None`).
fn client_loop(
    client: &mut ServiceClient,
    requests: &[JobRequest],
    started: Instant,
    seconds: Option<f64>,
    mut tracer: Option<Tracer>,
    request_base: u64,
) -> ClientRun {
    let mut run = ClientRun::default();
    loop {
        for (index, request) in requests.iter().enumerate() {
            let start = Instant::now();
            let reply = client.roundtrip(request);
            let end = Instant::now();
            run.latencies_ms.push(ms(start, end));
            if let Some(tracer) = &mut tracer {
                tracer.record("service.rtt", request_base + index as u64, start, end);
            }
            match reply {
                Ok(reply) if reply.is_ok() => match run.first.get(&index) {
                    None => {
                        run.first.insert(index, reply);
                    }
                    Some(first) => {
                        run.failed +=
                            usize::from((first.gates, first.depth) != (reply.gates, reply.depth));
                    }
                },
                Ok(reply) => {
                    eprintln!(
                        "service_roundtrip: {} {}: {}",
                        request.tenant, request.id, reply.message
                    );
                    run.failed += 1;
                }
                Err(error) => {
                    eprintln!(
                        "service_roundtrip: {} {}: {error}",
                        request.tenant, request.id
                    );
                    run.failed += 1;
                }
            }
        }
        let done = match seconds {
            None => true,
            Some(seconds) => {
                started.elapsed().as_secs_f64() >= seconds
                    && run.latencies_ms.len() >= MIN_SAMPLES.div_ceil(CLIENTS)
            }
        };
        if done {
            run.cpu_ms = current_thread_cpu_ms();
            run.spans = tracer;
            return run;
        }
    }
}

fn run_clients(
    state: &mut State,
    seconds: Option<f64>,
    origin: Option<Instant>,
) -> (Vec<ClientRun>, f64) {
    let started = Instant::now();
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = state
            .clients
            .iter_mut()
            .zip(&state.requests)
            .enumerate()
            .map(|(client, (connection, requests))| {
                let tracer = origin.map(|origin| Tracer::new(origin, client as u32 + 1));
                let base = (client * PROGRAMS_PER_CLIENT) as u64;
                scope.spawn(move || {
                    client_loop(connection, requests, started, seconds, tracer, base)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (runs, started.elapsed().as_secs_f64())
}

/// Checks the first reply to every program; returns the failures and the
/// mean gate count and depth over the programs.
fn check_replies(state: &State, runs: &[ClientRun]) -> (usize, f64, f64) {
    let mut rng = Rng::new(state.seed ^ 0x5E5E);
    let mut failed = 0;
    let (mut gates, mut depth, mut programs) = (0.0, 0.0, 0usize);
    for (client, run) in runs.iter().enumerate() {
        for (index, program) in state.programs[client].iter().enumerate() {
            let Some(reply) = run.first.get(&index) else {
                continue;
            };
            if let Err(error) = check(program, reply, &mut rng) {
                eprintln!("service_roundtrip: tenant-{client} {index} is wrong: {error}");
                failed += 1;
            }
            gates += reply.gates as f64;
            depth += reply.depth as f64;
            programs += 1;
        }
    }
    (
        failed,
        gates / programs.max(1) as f64,
        depth / programs.max(1) as f64,
    )
}

/// The service's counters over the traced run.
fn counters(after: &ServiceStats, before: &ServiceStats, layers: &mut Layers) {
    let counters = [
        ("service.accepted", after.accepted - before.accepted),
        ("service.completed", after.completed - before.completed),
        ("service.rejected", after.rejected - before.rejected),
        (
            "service.compile_errors",
            after.compile_errors - before.compile_errors,
        ),
        (
            "service.protocol_errors",
            after.protocol_errors - before.protocol_errors,
        ),
        ("cache.hits", after.cache.hits - before.cache.hits),
        ("cache.misses", after.cache.misses - before.cache.misses),
        (
            "cache.evictions",
            after.cache.evictions - before.cache.evictions,
        ),
        (
            "cache.contended",
            after.cache.contended - before.cache.contended,
        ),
        (
            "cache.race_losses",
            after.cache.race_losses - before.cache.race_losses,
        ),
    ];
    for (name, value) in counters {
        layers.set(name, value as f64);
    }
    let lookups = layers.get("cache.hits") + layers.get("cache.misses");
    layers.set(
        "cache.hit_ratio",
        layers.get("cache.hits") / lookups.max(1.0),
    );
}

pub struct ServiceRoundtrip;

impl Workload for ServiceRoundtrip {
    const NAME: &'static str = "service_roundtrip";
    type State = State;

    fn setup(seed: u64) -> State {
        let mut rng = Rng::new(seed);
        let programs: Vec<Vec<Program>> = (0..CLIENTS)
            .map(|_| {
                let mut list = Vec::with_capacity(PROGRAMS_PER_CLIENT);
                for d in DIMENSIONS.iter().flat_map(|&d| [d; BLOCKS]) {
                    let mut shapes: Vec<_> = SHAPES.iter().chain(&SHAPES).copied().collect();
                    rng.shuffle(&mut shapes);
                    let mut counts = STATEMENT_COUNTS;
                    rng.shuffle(&mut counts);
                    for count in counts {
                        list.push(Program::generate(&mut rng, d, &mut shapes, count));
                    }
                }
                rng.shuffle(&mut list);
                list
            })
            .collect();
        let requests = programs
            .iter()
            .enumerate()
            .map(|(client, list)| {
                list.iter()
                    .enumerate()
                    .map(|(index, program)| JobRequest {
                        tenant: format!("tenant-{client}"),
                        id: index.to_string(),
                        source: program.source.clone(),
                    })
                    .collect()
            })
            .collect();
        let service =
            CompileService::start(ServiceConfig::new().workers(2)).expect("service boots");
        let clients = (0..CLIENTS)
            .map(|client| {
                let mut connection = ServiceClient::connect(service.local_addr()).expect("connect");
                let reply = connection
                    .roundtrip(&JobRequest {
                        tenant: format!("tenant-{client}"),
                        id: "warm-up".into(),
                        source: WARM_UP.into(),
                    })
                    .expect("warm-up roundtrip");
                assert!(reply.is_ok(), "warm-up job failed: {}", reply.message);
                connection
            })
            .collect();
        State {
            clients,
            service,
            programs,
            requests,
            seed,
        }
    }

    fn measure(state: &mut State, seconds: f64) -> Measured {
        // Every thread of the service is alive across the loop; the client
        // threads live only inside it and report their own CPU time.
        let before = thread_cpu_ms();
        reset_peak_rss();
        let (runs, wall_s) = run_clients(state, Some(seconds), None);
        let peak_rss_mb = peak_rss_mb();
        let cpu_ms =
            cpu_between(&before, &thread_cpu_ms()) + runs.iter().map(|r| r.cpu_ms).sum::<f64>();
        let (check_failed, g_gates, depth) = check_replies(state, &runs);
        let latencies_ms: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect();
        let jobs = latencies_ms.len();
        Measured {
            jobs,
            failed: runs.iter().map(|r| r.failed).sum::<usize>() + check_failed,
            wall_s,
            cpu_ms,
            g_gates,
            depth,
            peak_rss_mb,
            latencies_ms,
        }
    }

    fn traced(state: &mut State, origin: Instant) -> Traced {
        let before = state.service.stats();
        let (runs, _) = run_clients(state, None, Some(origin));
        let after = state.service.stats();
        let (check_failed, _, _) = check_replies(state, &runs);
        let mut failed = check_failed + runs.iter().map(|r| r.failed).sum::<usize>();

        // In-process replay of every request: the work a service worker does
        // between reading a request line and writing its reply.
        let options = CompileOptions::new()
            .cache(CacheMode::Shared(LoweringCache::shared()))
            .pool(WorkStealingPool::persistent(2));
        let compiler: Compiler = options.clone().compiler();
        let replay = StageReplay::new(&options, 2);
        let mut tracer = Tracer::new(origin, 0);
        let mut layers = Layers::default();
        for (request, program) in state.programs.iter().flatten().enumerate() {
            let request = request as u64;
            let out = tracer.span("service.compile", request, |tracer| {
                let circuit = tracer
                    .span("qasm.parse", request, |_| {
                        qasm::parse_source(&program.source)
                    })
                    .map_err(|e| e.to_string())?;
                let result = tracer
                    .span("facade.compile", request, |_| compiler.compile(&circuit))
                    .map_err(|e| e.to_string())?;
                let text = tracer.span("qasm.print", request, |_| result.to_qasm());
                Ok::<_, String>((circuit, result, text.len()))
            });
            let (circuit, result, bytes) = match out {
                Ok(out) => out,
                Err(error) => {
                    eprintln!("service_roundtrip: replay of request {request} failed: {error}");
                    failed += 1;
                    continue;
                }
            };
            layers.add("qasm.bytes_out", bytes as f64);
            let replayed = tracer.span("replay", request, |tracer| {
                replay.run(tracer, request, circuit)
            });
            match replayed {
                Ok(replayed) if replayed.circuit == result.circuit => {
                    for (stage, gates) in replayed.gates_out {
                        layers.add(&format!("pass.{stage}.gates_out"), gates as f64);
                    }
                }
                _ => {
                    eprintln!(
                        "service_roundtrip: stage replay of request {request} differs from compile"
                    );
                    failed += 1;
                }
            }
        }
        let jobs = CLIENTS * PROGRAMS_PER_CLIENT;
        layers.per_job(jobs);
        let mut request_ms = Vec::with_capacity(jobs);
        for run in runs {
            let spans = run.spans.expect("traced clients keep their spans");
            request_ms.extend(spans.durations("service.rtt"));
            tracer.merge(spans);
        }
        let totals = tracer.totals();
        layers.span_ms(&totals, "service.rtt", "service.rtt_ms", jobs);
        layers.span_ms(&totals, "service.compile", "service.compile_ms", jobs);
        let (rtt, compile) = (
            layers.get("service.rtt_ms"),
            layers.get("service.compile_ms"),
        );
        layers.set("service.overhead_ms", rtt - compile);
        layers.span_ms(&totals, "qasm.parse", "qasm.parse_ms", jobs);
        layers.span_ms(&totals, "qasm.print", "qasm.print_ms", jobs);
        layers.stage_times(&totals, jobs, "facade.compile");
        counters(&after, &before, &mut layers);
        println!(
            "service_roundtrip mean round trip {rtt:.3} ms = in-process compile {compile:.3} ms ({:.2}%) \
             + transport, scheduling and client {:.3} ms ({:.2}%)",
            100.0 * compile / rtt,
            rtt - compile,
            100.0 * (rtt - compile) / rtt,
        );
        Traced {
            tracer,
            jobs,
            failed,
            request_ms,
            layers,
        }
    }
}

//! Stage-by-stage replay of a compilation for the traced runs.
//!
//! Each registry stage the compiler's options select is assembled into a
//! single-stage manager from the same registry the facade uses, so a stage
//! name maps onto the same pass in both.  The benchmark wraps each pass in a
//! clock of its own (a `Pass` decorator defined here), which records the
//! interval of the public `Pass::run_with` call; under verification a second
//! clock around the verifying wrapper gives the verified stage time, whose
//! self time is the verification overhead.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use qudit_core::pipeline::{CircuitProfile, Pass, PassContext, PassManager, PipelineSpec};
use qudit_core::pool::WorkStealingPool;
use qudit_core::route::RoutePass;
use qudit_core::Circuit;
use qudit_sim::VerifyEquivalence;
use qudit_synthesis::{CompileOptions, Verify};

use crate::trace::Tracer;

/// Every stage the facade's registry can select, in pipeline order.
pub const STAGES: [&str; 6] = [
    "gate-fusion",
    "lower-to-elementary",
    "lower-to-g-gates",
    "cancel-inverse-pairs",
    "route",
    "schedule-depth",
];

type Window = Arc<Mutex<Option<(Instant, Instant)>>>;

fn take(window: &Window) -> (Instant, Instant) {
    window
        .lock()
        .expect("clock lock is never poisoned")
        .take()
        .expect("the stage ran")
}

/// Records the interval of the wrapped pass's run.
struct Clock {
    inner: Box<dyn Pass>,
    window: Window,
}

impl Pass for Clock {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&self, circuit: Circuit) -> qudit_core::Result<Circuit> {
        self.run_with(circuit, &mut PassContext::new())
    }

    fn run_with(&self, circuit: Circuit, ctx: &mut PassContext) -> qudit_core::Result<Circuit> {
        let start = Instant::now();
        let out = self.inner.run_with(circuit, ctx);
        *self.window.lock().expect("clock lock is never poisoned") = Some((start, Instant::now()));
        out
    }
}

fn clocked(manager: PassManager, window: &Window) -> PassManager {
    manager.map_passes(|inner| {
        Box::new(Clock {
            inner,
            window: window.clone(),
        })
    })
}

struct Stage {
    name: &'static str,
    manager: PassManager,
    bare: Window,
    verified: Option<Window>,
}

pub struct StageReplay {
    stages: Vec<Stage>,
}

/// What one replay measured besides its spans.
pub struct Replayed {
    pub circuit: Circuit,
    /// Gate count after each replayed stage, in stage order.
    pub gates_out: Vec<(&'static str, usize)>,
}

impl StageReplay {
    /// Single-stage managers for every stage `options` select, on a pool of
    /// `threads` workers, verified exactly as the facade verifies them.
    pub fn new(options: &CompileOptions, threads: usize) -> Self {
        let mut registry = qudit_synthesis::compiler::registry();
        if let Some(graph) = options.coupling_graph() {
            let graph = graph.clone();
            let cost = options.cost_model().clone();
            registry.register("route", move || {
                Box::new(RoutePass::new(graph.clone(), cost.clone()))
            });
        }
        let verified = match options.verify_mode() {
            Verify::Off => false,
            Verify::Exhaustive => true,
            Verify::Sampled(_) => panic!("the benchmark replays only exhaustive verification"),
        };
        let stages = options
            .spec()
            .stages
            .iter()
            .map(|stage| {
                let name = *STAGES
                    .iter()
                    .find(|known| *known == stage)
                    .expect("every selected stage is a known stage");
                let manager = registry
                    .assemble(&PipelineSpec::new().with_stage(name))
                    .expect("every selected stage is registered");
                let bare = Window::default();
                let manager = clocked(manager, &bare);
                let (manager, verified) = if verified {
                    let verified = Window::default();
                    let wrapped = VerifyEquivalence::wrap_manager_with_backend(
                        manager,
                        options.sim_backend(),
                    );
                    (clocked(wrapped, &verified), Some(verified))
                } else {
                    (manager, None)
                };
                Stage {
                    name,
                    manager: manager.with_pool(WorkStealingPool::with_threads(threads)),
                    bare,
                    verified,
                }
            })
            .collect();
        StageReplay { stages }
    }

    /// Replays `input` through every stage in turn.  Records `pass.<stage>`
    /// spans (under `verify.<stage>` spans when verified) and a
    /// `pipeline.profile` span for profiling the input and each stage
    /// output, as the pass manager does.
    pub fn run(
        &self,
        tracer: &mut Tracer,
        request: u64,
        input: Circuit,
    ) -> qudit_core::Result<Replayed> {
        let mut current = input;
        profile(tracer, request, &current);
        let mut gates_out = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            current = stage.manager.run(current)?.circuit;
            let (start, end) = take(&stage.bare);
            let pass_span = format!("pass.{}", stage.name);
            match &stage.verified {
                Some(verified) => {
                    let (vstart, vend) = take(verified);
                    let outer =
                        tracer.record(&format!("verify.{}", stage.name), request, vstart, vend);
                    tracer.record_under(Some(outer), &pass_span, request, start, end);
                }
                None => {
                    tracer.record(&pass_span, request, start, end);
                }
            }
            gates_out.push((stage.name, current.len()));
            profile(tracer, request, &current);
        }
        Ok(Replayed {
            circuit: current,
            gates_out,
        })
    }
}

fn profile(tracer: &mut Tracer, request: u64, circuit: &Circuit) {
    tracer.span("pipeline.profile", request, |_| {
        std::hint::black_box(CircuitProfile::of(circuit));
    });
}

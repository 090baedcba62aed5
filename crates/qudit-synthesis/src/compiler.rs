//! The typed compilation facade: [`CompileOptions`] + [`Compiler`].
//!
//! One composable configuration surface for the paper's flow:
//!
//! * [`CompileOptions`] — a builder with orthogonal typed knobs
//!   ([`Verify`], [`SimBackend`], scheduling, [`CacheMode`], [`Threads`])
//!   plus the [`OptLevel`] shorthand for pass selection;
//! * [`Compiler`] — the facade owning the worker pool and the assembled
//!   [`PassManager`], with [`Compiler::compile`] and
//!   [`Compiler::compile_batch`] returning the unified [`CompileResult`] /
//!   [`BatchResult`] report types (circuit, per-pass statistics, depth,
//!   cache counters, verification verdict).
//!
//! Internally the options translate to a data-driven
//! [`PipelineSpec`] resolved against a
//! [`PassRegistry`] ([`registry`]), so a future knob (routing, cost models,
//! new schedulers) is one more registered stage instead of a new
//! constructor family.
//!
//! # Quick start
//!
//! ```
//! use qudit_core::Dimension;
//! use qudit_synthesis::{CompileOptions, KToffoli, Verify};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dimension = Dimension::new(3)?;
//! let synthesis = KToffoli::new(dimension, 4)?.synthesize()?;
//!
//! // Standard flow (lower → G-gates → cancel), every stage self-checked.
//! let compiler = CompileOptions::new()
//!     .verify(Verify::Exhaustive)
//!     .compiler();
//! let result = compiler.compile(synthesis.circuit())?;
//! assert!(result.circuit.gates().iter().all(|g| g.is_g_gate()));
//! assert!(result.verification.is_verified());
//! assert_eq!(result.depth, qudit_core::depth::circuit_depth(&result.circuit));
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use qudit_core::cache::CacheCounters;
use qudit_core::depth::circuit_depth;
use qudit_core::pipeline::{
    merge_pass_stats, CacheMode, MergedPassStats, PassManager, PassRegistry, PassStats,
    PipelineReport, PipelineSpec,
};
use qudit_core::pool::WorkStealingPool;
use qudit_core::route::{CostModel, RoutePass, UniformCost, SWAP_LADDER_GATES};
use qudit_core::topology::CouplingGraph;
use qudit_core::{Circuit, Dimension};
use qudit_sim::pipeline::VerifyEquivalence;
use qudit_sim::SimBackend;

use crate::pipeline::LowerToElementary;

/// How (and whether) every pipeline stage is checked for semantics
/// preservation.
///
/// Verification wraps each assembled pass in
/// [`VerifyEquivalence`], so a stage that changes the circuit's operator
/// fails the compilation with
/// [`QuditError::PassFailed`](qudit_core::QuditError::PassFailed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Verify {
    /// No verification (the default — the configuration gate counts are
    /// measured in).
    #[default]
    Off,
    /// Check as strongly as the register size allows: exhaustively over the
    /// basis for small classical registers, by full unitary comparison for
    /// small non-classical ones, falling back to deterministic sampling
    /// above the built-in size bounds.
    Exhaustive,
    /// Check on a deterministic sample budget instead of sweeping the
    /// basis: classical circuits are checked on exactly `n` sampled basis
    /// states regardless of register size (values below 1 are treated
    /// as 1).  Non-classical comparisons cap the budget at the engine's
    /// dense-state sample bound (currently 8) — random dense inputs are
    /// maximally sensitive, so a handful suffices there.
    Sampled(usize),
}

/// Worker-pool sizing of a [`Compiler`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Threads {
    /// Size the pool from the environment (`QUDIT_THREADS`, else the
    /// available parallelism) — the default.
    #[default]
    Auto,
    /// A fixed worker count (values below 1 are treated as 1; `Fixed(1)`
    /// forces every parallel path sequential).
    Fixed(usize),
}

impl Threads {
    /// The pool this sizing pins on the compiler, or `None` for the
    /// environment-sized default resolved at run time.
    fn pool(self) -> Option<WorkStealingPool> {
        match self {
            Threads::Auto => None,
            Threads::Fixed(threads) => Some(WorkStealingPool::with_threads(threads)),
        }
    }
}

/// Optimisation-level shorthand for the pass-selection knobs
/// (see [`CompileOptions::opt_level`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLevel {
    /// Lowering only (macro → elementary → G-gates) — the configuration the
    /// paper's G-gate counts are reported in.
    O0,
    /// `O0` plus inverse-pair cancellation (the standard flow, and the
    /// default knob setting).
    O1,
    /// `O1` plus commutation-aware depth scheduling.
    O2,
}

/// Typed, orthogonal configuration of a [`Compiler`].
///
/// Every knob composes with every other; the default
/// (`CompileOptions::new()`) is the paper's standard flow — lowering plus
/// inverse-pair cancellation, unverified, uncached, shape-agnostic,
/// environment-sized pool.
///
/// Jobs can enter the pipeline as Rust [`Circuit`]s
/// ([`Compiler::compile`]) or as text IR ([`Compiler::compile_source`]);
/// the accepted dialect — dimension declarations, the gate table and
/// control syntax — is documented in the [`qudit_core::qasm`] module-level
/// reference.
///
/// # Example
///
/// ```
/// use qudit_core::pipeline::CacheMode;
/// use qudit_sim::SimBackend;
/// use qudit_synthesis::{CompileOptions, OptLevel, Threads, Verify};
///
/// let options = CompileOptions::new()
///     .opt_level(OptLevel::O2)             // cancel + schedule
///     .verify(Verify::Sampled(64))         // self-check on 64 samples
///     .backend(SimBackend::Sparse)         // … on the sparse engine
///     .cache(CacheMode::PerRun)            // deterministic cache counters
///     .threads(Threads::Fixed(2));
/// assert_eq!(
///     options.compiler().pass_names(),
///     vec![
///         "verify(gate-fusion)",
///         "verify(lower-to-elementary)",
///         "verify(lower-to-g-gates)",
///         "verify(cancel-inverse-pairs)",
///         "verify(schedule-depth)",
///     ]
/// );
/// ```
#[derive(Clone)]
pub struct CompileOptions {
    verify: Verify,
    backend: SimBackend,
    fusion: bool,
    cancel: bool,
    schedule: bool,
    cache: CacheMode,
    threads: Threads,
    pool: Option<WorkStealingPool>,
    shape: Option<(Dimension, usize)>,
    topology: Option<CouplingGraph>,
    cost: Arc<dyn CostModel>,
}

impl fmt::Debug for CompileOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompileOptions")
            .field("verify", &self.verify)
            .field("backend", &self.backend)
            .field("fusion", &self.fusion)
            .field("cancel", &self.cancel)
            .field("schedule", &self.schedule)
            .field("cache", &self.cache)
            .field("threads", &self.threads)
            .field("pool", &self.pool)
            .field("shape", &self.shape)
            .field("topology", &self.topology)
            .field("cost", &self.cost.name())
            .finish()
    }
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            verify: Verify::Off,
            backend: SimBackend::Auto,
            fusion: true,
            cancel: true,
            schedule: false,
            cache: CacheMode::Off,
            threads: Threads::Auto,
            pool: None,
            shape: None,
            topology: None,
            cost: Arc::new(UniformCost),
        }
    }
}

impl CompileOptions {
    /// The default options: the standard flow (`O1`), unverified, uncached,
    /// shape-agnostic, environment-sized pool.
    pub fn new() -> Self {
        CompileOptions::default()
    }

    /// Selects the verification mode (default [`Verify::Off`]).
    #[must_use]
    pub fn verify(mut self, verify: Verify) -> Self {
        self.verify = match verify {
            Verify::Sampled(samples) => Verify::Sampled(samples.max(1)),
            other => other,
        };
        self
    }

    /// Selects the simulation backend verification runs on (default
    /// [`SimBackend::Auto`]; irrelevant while verification is off — the
    /// verdicts never depend on the backend, only the wall time does).
    ///
    /// Under [`SimBackend::Auto`] or [`SimBackend::Stabilizer`], stages
    /// whose input and output are both all-Clifford circuits over a prime
    /// dimension are checked by exact stabilizer-tableau comparison, which
    /// is complete up to global phase at *any* register width; all other
    /// stages fall back to the state-vector strategies.
    #[must_use]
    pub fn backend(mut self, backend: SimBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Enables or disables the macro-level gate-fusion stage (default on;
    /// off at [`OptLevel::O0`]).  Fusion composes runs of same-support
    /// classical gates into one permutation gate *before* lowering, and
    /// only rewrites a run when that provably does not increase the lowered
    /// G-gate cost.
    #[must_use]
    pub fn fusion(mut self, fusion: bool) -> Self {
        self.fusion = fusion;
        self
    }

    /// Enables or disables the final inverse-pair cancellation stage
    /// (default on).
    #[must_use]
    pub fn cancel(mut self, cancel: bool) -> Self {
        self.cancel = cancel;
        self
    }

    /// Enables or disables the commutation-aware depth-scheduling stage
    /// (default off; scheduling permutes commuting gates, never rewrites
    /// them).
    #[must_use]
    pub fn schedule(mut self, schedule: bool) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets both pass-selection knobs at once (see [`OptLevel`]).
    #[must_use]
    pub fn opt_level(self, level: OptLevel) -> Self {
        match level {
            OptLevel::O0 => self.fusion(false).cancel(false).schedule(false),
            OptLevel::O1 => self.fusion(true).cancel(true).schedule(false),
            OptLevel::O2 => self.fusion(true).cancel(true).schedule(true),
        }
    }

    /// Selects how runs provision the lowering cache (default
    /// [`CacheMode::Off`]).
    #[must_use]
    pub fn cache(mut self, cache: CacheMode) -> Self {
        self.cache = cache;
        self
    }

    /// Sizes the compiler's worker pool (default [`Threads::Auto`]).
    #[must_use]
    pub fn threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    /// Pins an existing pool on the compiler instead of letting it build
    /// its own — overrides [`CompileOptions::threads`].  The compile
    /// service pins one [`WorkStealingPool::persistent`] pool here so every
    /// job dispatches onto long-lived workers instead of paying
    /// thread-spawn per compilation (pool clones share the same crew).
    #[must_use]
    pub fn pool(mut self, pool: WorkStealingPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Pins the register shape: compilations of circuits with a different
    /// dimension or width are rejected up front (default: shape-agnostic,
    /// as heterogeneous batch sweeps need).
    #[must_use]
    pub fn shape(mut self, dimension: Dimension, width: usize) -> Self {
        self.shape = Some((dimension, width));
        self
    }

    /// Routes compiled circuits onto a device coupling graph (default: off —
    /// all-to-all connectivity, no `"route"` stage).
    ///
    /// With a topology set, the input circuit is first embedded in the
    /// graph's full site register, then — after lowering and cancellation,
    /// before scheduling — the `"route"` stage rewrites it so every
    /// two-qudit gate acts on a coupled pair, appending the
    /// inverse-permutation SWAP epilogue so the stage is
    /// semantics-preserving (and verifies under every [`Verify`] mode and
    /// backend).  [`CompileResult`] then reports `swap_count`,
    /// `routed_depth` and `weighted_cost`.
    ///
    /// Composes with [`CompileOptions::shape`] only when the pinned width
    /// equals the graph's site count (the pipeline sees the embedded
    /// circuit).
    #[must_use]
    pub fn topology(mut self, graph: CouplingGraph) -> Self {
        self.topology = Some(graph);
        self
    }

    /// Selects the cost model driving the router's tie-breaking and the
    /// reported `weighted_cost` (default [`UniformCost`]; only observable
    /// with a [`CompileOptions::topology`] set).
    #[must_use]
    pub fn cost(mut self, cost: impl CostModel + 'static) -> Self {
        self.cost = Arc::new(cost);
        self
    }

    /// The configured verification mode.
    pub fn verify_mode(&self) -> Verify {
        self.verify
    }

    /// The configured simulation backend.
    pub fn sim_backend(&self) -> SimBackend {
        self.backend
    }

    /// Whether the gate-fusion stage is enabled.
    pub fn fuses(&self) -> bool {
        self.fusion
    }

    /// Whether the cancellation stage is enabled.
    pub fn cancels(&self) -> bool {
        self.cancel
    }

    /// Whether the scheduling stage is enabled.
    pub fn schedules(&self) -> bool {
        self.schedule
    }

    /// The configured cache mode.
    pub fn cache_mode(&self) -> &CacheMode {
        &self.cache
    }

    /// The configured pool sizing.
    pub fn thread_mode(&self) -> Threads {
        self.threads
    }

    /// The pinned pool, if any (see [`CompileOptions::pool`]).
    pub fn pinned_pool(&self) -> Option<&WorkStealingPool> {
        self.pool.as_ref()
    }

    /// The pinned register shape, if any.
    pub fn register_shape(&self) -> Option<(Dimension, usize)> {
        self.shape
    }

    /// The coupling graph routing targets, if routing is enabled.
    pub fn coupling_graph(&self) -> Option<&CouplingGraph> {
        self.topology.as_ref()
    }

    /// The configured cost model.
    pub fn cost_model(&self) -> &Arc<dyn CostModel> {
        &self.cost
    }

    /// The data-driven pipeline description these options select — the
    /// stage list handed to [`registry`] for assembly.
    pub fn spec(&self) -> PipelineSpec {
        let mut spec = PipelineSpec::new();
        if self.fusion {
            // Fusion runs first, at the macro level, where same-support
            // runs are still visible (lowering breaks them apart).
            spec = spec.with_stage("gate-fusion");
        }
        spec = spec
            .with_stage("lower-to-elementary")
            .with_stage("lower-to-g-gates");
        if self.cancels() {
            spec = spec.with_stage("cancel-inverse-pairs");
        }
        if self.topology.is_some() {
            // Routing runs on the lowered, cancelled circuit (arity ≤ 2)
            // and before scheduling, so routed-then-scheduled depth is what
            // the pipeline measures.
            spec = spec.with_stage("route");
        }
        if self.schedule {
            spec = spec.with_stage("schedule-depth");
        }
        if let Some((dimension, width)) = self.shape {
            spec = spec.with_shape(dimension, width);
        }
        spec.with_cache(self.cache.clone())
    }

    /// Assembles the [`PassManager`] these options describe — the escape
    /// hatch for callers that extend the pipeline with custom passes
    /// ([`PassManager::with_pass`]) before running it themselves.
    pub fn build_manager(&self) -> PassManager {
        let mut registry = registry();
        if let Some(graph) = &self.topology {
            // The registry's factories are configuration-free; the route
            // stage closes over this option set's graph and cost model.
            let graph = graph.clone();
            let cost = self.cost.clone();
            registry.register("route", move || {
                Box::new(RoutePass::new(graph.clone(), cost.clone()))
            });
        }
        let manager = registry
            .assemble(&self.spec())
            .expect("every stage the options select is registered");
        let manager = match self.pool.clone().or_else(|| self.threads.pool()) {
            Some(pool) => manager.with_pool(pool),
            None => manager,
        };
        let backend = self.backend;
        match self.verify {
            Verify::Off => manager,
            Verify::Exhaustive => {
                manager.map_passes(|inner| Box::new(VerifyEquivalence::wrap(inner, backend)))
            }
            Verify::Sampled(samples) => manager.map_passes(|inner| {
                Box::new(VerifyEquivalence::wrap(inner, backend).with_limits(0, samples))
            }),
        }
    }

    /// Builds the [`Compiler`] these options describe.
    pub fn compiler(self) -> Compiler {
        Compiler::new(self)
    }
}

/// The pass registry the facade assembles pipelines from: the core passes
/// ([`PassRegistry::core`]) plus this crate's `lower-to-elementary` stage.
pub fn registry() -> PassRegistry {
    let mut registry = PassRegistry::core();
    registry.register("lower-to-elementary", || Box::new(LowerToElementary));
    registry
}

/// Verification verdict of a compilation (see [`Verify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// Verification was off; the output was not re-simulated.
    Skipped,
    /// Every stage was wrapped in [`VerifyEquivalence`] and accepted — the
    /// output provably implements the input's operator under the checked
    /// inputs.  (A failed check never produces a result: it fails the
    /// compilation instead.)
    Verified(Verify),
}

impl VerifyOutcome {
    /// Returns `true` when the compilation was verified.
    pub fn is_verified(&self) -> bool {
        matches!(self, VerifyOutcome::Verified(_))
    }
}

impl fmt::Display for VerifyOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyOutcome::Skipped => write!(f, "skipped"),
            VerifyOutcome::Verified(Verify::Sampled(samples)) => {
                write!(f, "verified ({samples} samples)")
            }
            VerifyOutcome::Verified(_) => write!(f, "verified"),
        }
    }
}

/// The unified report of one compilation: the circuit plus everything the
/// run measured.
///
/// This is the single return shape of both [`Compiler::compile`] and (per
/// job) [`Compiler::compile_batch`].
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// The compiled circuit.
    pub circuit: Circuit,
    /// Per-pass statistics, in execution order (verification wrappers
    /// report as `verify(<pass>)`).
    pub stats: Vec<PassStats>,
    /// Depth of the compiled circuit.
    pub depth: usize,
    /// Lowering-cache tally summed over every pass — `Some` whenever the
    /// options enabled a cache, `None` otherwise.
    pub cache: Option<CacheCounters>,
    /// Gates removed by the macro-level `gate-fusion` stage (zero when the
    /// stage was disabled or found nothing profitable to fuse).
    pub fused_gates: usize,
    /// Worker count the dense panel engine dispatches over for this
    /// compilation's thread mode — the resolved [`Threads`] width.
    pub panel_threads: usize,
    /// Wire-SWAP ladders the `"route"` stage inserted — `Some` whenever a
    /// [`CompileOptions::topology`] was set, `None` otherwise.
    pub swap_count: Option<usize>,
    /// Depth of the circuit right after routing (before any scheduling) —
    /// `Some` whenever a topology was set.
    pub routed_depth: Option<usize>,
    /// The configured [`CostModel`]'s cost of the final circuit — `Some`
    /// whenever a topology was set.
    pub weighted_cost: Option<f64>,
    /// Whether the compilation was verified (see [`Verify`]).
    pub verification: VerifyOutcome,
}

impl CompileResult {
    fn from_report(report: PipelineReport, options: &CompileOptions, panel_threads: usize) -> Self {
        let verify = options.verify;
        let mut cache: Option<CacheCounters> = None;
        for stats in &report.stats {
            if let Some(tally) = stats.cache {
                cache
                    .get_or_insert_with(CacheCounters::default)
                    .merge(tally);
            }
        }
        // The last pass's output profile already measured the final
        // circuit's depth; only an empty pipeline needs a fresh scan.
        let depth = report
            .stats
            .last()
            .map(|stats| stats.after.depth)
            .unwrap_or_else(|| circuit_depth(&report.circuit));
        let fused_gates = report
            .stats
            .iter()
            .filter(|stats| matches!(stats.pass.as_str(), "gate-fusion" | "verify(gate-fusion)"))
            .map(|stats| stats.before.gates.saturating_sub(stats.after.gates))
            .sum();
        let route_stats = report
            .stats
            .iter()
            .find(|stats| matches!(stats.pass.as_str(), "route" | "verify(route)"));
        // The route stage only ever *adds* gates, all of them in
        // four-gate SWAP ladders, so the gate delta recovers the count.
        let swap_count = route_stats
            .map(|stats| stats.after.gates.saturating_sub(stats.before.gates) / SWAP_LADDER_GATES);
        let routed_depth = route_stats.map(|stats| stats.after.depth);
        let weighted_cost = options
            .topology
            .is_some()
            .then(|| options.cost.circuit_cost(&report.circuit));
        CompileResult {
            depth,
            circuit: report.circuit,
            stats: report.stats,
            cache,
            fused_gates,
            panel_threads,
            swap_count,
            routed_depth,
            weighted_cost,
            verification: match verify {
                Verify::Off => VerifyOutcome::Skipped,
                verified => VerifyOutcome::Verified(verified),
            },
        }
    }

    /// Exports the compiled circuit as canonical text IR (see
    /// [`qudit_core::qasm::print_circuit`]); parsing the result back yields
    /// a structurally identical circuit.
    ///
    /// # Example
    ///
    /// ```
    /// use qudit_core::{Circuit, Dimension, Gate, QuditId, SingleQuditOp};
    /// use qudit_synthesis::CompileOptions;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut circuit = Circuit::new(Dimension::new(3)?, 1);
    /// circuit.push(Gate::single(SingleQuditOp::Swap(0, 2), QuditId::new(0)))?;
    /// let result = CompileOptions::new().compiler().compile(&circuit)?;
    /// let text = result.to_qasm();
    /// assert_eq!(qudit_core::qasm::parse_source(&text)?, result.circuit);
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_qasm(&self) -> String {
        qudit_core::qasm::print_circuit(&self.circuit)
    }

    /// Total wall-clock time across all passes.
    pub fn total_elapsed(&self) -> Duration {
        self.stats.iter().map(|s| s.elapsed).sum()
    }

    /// The statistics entry of the named pass, if it ran (verification
    /// wrappers match both `name` and `verify(name)`).
    pub fn stats_for(&self, pass: &str) -> Option<&PassStats> {
        let wrapped = format!("verify({pass})");
        self.stats
            .iter()
            .find(|s| s.pass == pass || s.pass == wrapped)
    }
}

impl fmt::Display for CompileResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for stats in &self.stats {
            writeln!(f, "{stats}")?;
        }
        write!(
            f,
            "final: {} gates, depth {}, verification {}",
            self.circuit.len(),
            self.depth,
            self.verification
        )
    }
}

/// The unified report of a batch compilation: one [`CompileResult`] per
/// input circuit, in input order, plus order-independent merged statistics.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-job results, in input order.
    pub results: Vec<CompileResult>,
}

impl BatchResult {
    /// Number of compiled circuits.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Returns `true` when the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// The compiled circuits, in input order.
    pub fn circuits(&self) -> impl Iterator<Item = &Circuit> {
        self.results.iter().map(|r| &r.circuit)
    }

    /// Per-pass statistics summed over every job (order-independent — see
    /// [`merge_pass_stats`]).
    pub fn merged_stats(&self) -> Vec<MergedPassStats> {
        merge_pass_stats(self.results.iter().map(|r| r.stats.as_slice()))
    }

    /// Total wall-clock pass time summed over every job (CPU time, not
    /// elapsed time: concurrent jobs overlap).
    pub fn total_elapsed(&self) -> Duration {
        self.results.iter().map(CompileResult::total_elapsed).sum()
    }

    /// The cache tally summed over every job and pass.
    pub fn cache_counters(&self) -> CacheCounters {
        let mut total = CacheCounters::default();
        for result in &self.results {
            if let Some(cache) = result.cache {
                total.merge(cache);
            }
        }
        total
    }

    /// Returns `true` when every job of the batch was verified.
    pub fn is_verified(&self) -> bool {
        !self.results.is_empty() && self.results.iter().all(|r| r.verification.is_verified())
    }
}

impl fmt::Display for BatchResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "batch of {} circuits", self.len())?;
        for merged in self.merged_stats() {
            writeln!(f, "{merged}")?;
        }
        Ok(())
    }
}

/// The compilation facade: owns the worker pool and the [`PassManager`]
/// assembled from its [`CompileOptions`].
///
/// One `Compiler` is immutable and reusable — build it once, compile many
/// circuits (or batches) through it.
///
/// # Example
///
/// ```
/// use qudit_core::pipeline::CacheMode;
/// use qudit_core::Dimension;
/// use qudit_synthesis::{CompileOptions, Compiler, KToffoli};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A heterogeneous sweep through one shape-agnostic, cached compiler.
/// let mut jobs = Vec::new();
/// for (d, k) in [(3u32, 4usize), (4, 3), (5, 2)] {
///     let synthesis = KToffoli::new(Dimension::new(d)?, k)?.synthesize()?;
///     jobs.push(synthesis.circuit().clone());
/// }
/// let compiler = Compiler::new(CompileOptions::new().cache(CacheMode::PerRun));
/// let batch = compiler.compile_batch(&jobs)?;
/// assert_eq!(batch.len(), 3);
/// assert!(batch.cache_counters().hits > 0);
/// # Ok(())
/// # }
/// ```
pub struct Compiler {
    options: CompileOptions,
    manager: PassManager,
}

impl Compiler {
    /// Builds the compiler an option set describes.
    pub fn new(options: CompileOptions) -> Self {
        let manager = options.build_manager();
        Compiler { options, manager }
    }

    /// The options this compiler was built from.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// The assembled pass names, in execution order.
    pub fn pass_names(&self) -> Vec<&str> {
        self.manager.pass_names()
    }

    /// The assembled pass manager (for inspection; to *extend* the pipeline
    /// use [`CompileOptions::build_manager`] and run the manager directly).
    pub fn manager(&self) -> &PassManager {
        &self.manager
    }

    /// Compiles one circuit.
    ///
    /// # Errors
    ///
    /// Returns the first pass error — including verification failures
    /// ([`Verify`]) and shape mismatches
    /// ([`CompileOptions::shape`]).
    pub fn compile(&self, circuit: &Circuit) -> qudit_core::Result<CompileResult> {
        let report = self.manager.run(self.embed(circuit)?)?;
        Ok(CompileResult::from_report(
            report,
            &self.options,
            self.panel_threads(),
        ))
    }

    /// Embeds a job in the coupling graph's full site register when routing
    /// is enabled, so every stage (and its verification wrapper, which
    /// requires width stability) runs over the physical register.  Narrower
    /// graphs are left to the route stage's typed
    /// [`TopologyTooSmall`](qudit_core::QuditError::TopologyTooSmall) error.
    fn embed(&self, circuit: &Circuit) -> qudit_core::Result<Circuit> {
        match &self.options.topology {
            Some(graph) if graph.sites() > circuit.width() => circuit.widened(graph.sites()),
            _ => Ok(circuit.clone()),
        }
    }

    /// Compiles a text-IR source (see [`qudit_core::qasm`]) through the
    /// same pass stack as [`Compiler::compile`].
    ///
    /// The source is parsed and lowered by [`qudit_core::qasm::parse_source`]
    /// and the resulting circuit compiled with this compiler's options;
    /// `compile_source(print_circuit(&c))` is equivalent to `compile(&c)`
    /// gate-for-gate.
    ///
    /// # Errors
    ///
    /// Returns [`qudit_core::QuditError::ParseFailed`] (with the 1-based
    /// line/column of the first diagnostic) for invalid sources, and
    /// otherwise whatever [`Compiler::compile`] returns.
    ///
    /// # Example
    ///
    /// ```
    /// use qudit_synthesis::CompileOptions;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let compiler = CompileOptions::new().compiler();
    /// let result = compiler.compile_source(
    ///     "OPENQASM 3.0;\n\
    ///      qudit[3] q[3];\n\
    ///      ctrl @ ctrl @ swap(0, 1) q[0], q[1], q[2];",
    /// )?;
    /// assert!(result.circuit.gates().iter().all(|g| g.is_g_gate()));
    ///
    /// // Diagnostics carry the source location.
    /// let error = compiler.compile_source("qudit[3] q[1];\nboop q[0];").unwrap_err();
    /// assert!(error.to_string().contains("line 2, column 1"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn compile_source(&self, source: &str) -> qudit_core::Result<CompileResult> {
        let circuit =
            qudit_core::qasm::parse_source(source).map_err(qudit_core::QuditError::from)?;
        self.compile(&circuit)
    }

    /// The worker count the dense panel engine resolves the compiler's
    /// [`Threads`] mode to: `Fixed(n)` clamps to at least one worker, `Auto`
    /// sizes from the environment exactly like the pool itself does.
    pub fn panel_threads(&self) -> usize {
        if let Some(pool) = &self.options.pool {
            return pool.threads().max(1);
        }
        match self.options.threads {
            Threads::Auto => WorkStealingPool::default().threads(),
            Threads::Fixed(threads) => threads.max(1),
        }
    }

    /// Compiles many circuits concurrently on the compiler's pool
    /// ([`Threads`]), returning one [`CompileResult`] per circuit in input
    /// order.
    ///
    /// # Errors
    ///
    /// Returns the first job error in input order (later jobs still run).
    pub fn compile_batch(&self, circuits: &[Circuit]) -> qudit_core::Result<BatchResult> {
        let pool = self.manager.pool().unwrap_or_default();
        let embedded: Vec<Circuit> = circuits
            .iter()
            .map(|circuit| self.embed(circuit))
            .collect::<qudit_core::Result<_>>()?;
        let batch = self.manager.run_batch_refs(&embedded, &pool)?;
        let panel_threads = self.panel_threads();
        Ok(BatchResult {
            results: batch
                .reports
                .into_iter()
                .map(|report| CompileResult::from_report(report, &self.options, panel_threads))
                .collect(),
        })
    }
}

impl fmt::Debug for Compiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Compiler")
            .field("options", &self.options)
            .field("passes", &self.pass_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KToffoli;
    use qudit_core::Gate;

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    #[test]
    fn default_options_select_the_standard_flow() {
        let spec = CompileOptions::new().spec();
        assert_eq!(
            spec.stages,
            vec![
                "gate-fusion",
                "lower-to-elementary",
                "lower-to-g-gates",
                "cancel-inverse-pairs"
            ]
        );
        assert!(spec.shape.is_none());
        assert!(matches!(spec.cache, CacheMode::Off));
    }

    #[test]
    fn opt_levels_map_onto_pass_selection() {
        let stages = |level| CompileOptions::new().opt_level(level).spec().stages;
        assert_eq!(
            stages(OptLevel::O0),
            vec!["lower-to-elementary", "lower-to-g-gates"]
        );
        assert_eq!(
            stages(OptLevel::O1),
            vec![
                "gate-fusion",
                "lower-to-elementary",
                "lower-to-g-gates",
                "cancel-inverse-pairs"
            ]
        );
        assert_eq!(
            stages(OptLevel::O2),
            vec![
                "gate-fusion",
                "lower-to-elementary",
                "lower-to-g-gates",
                "cancel-inverse-pairs",
                "schedule-depth"
            ]
        );
    }

    #[test]
    fn compile_produces_the_unified_report() {
        let synthesis = KToffoli::new(dim(3), 3).unwrap().synthesize().unwrap();
        let compiler = CompileOptions::new()
            .cache(CacheMode::PerRun)
            .shape(dim(3), synthesis.layout().width)
            .compiler();
        let result = compiler.compile(synthesis.circuit()).unwrap();
        assert!(result.circuit.gates().iter().all(Gate::is_g_gate));
        assert_eq!(result.stats.len(), 4);
        assert_eq!(result.depth, circuit_depth(&result.circuit));
        assert!(result.cache.expect("cache enabled").total() > 0);
        assert_eq!(result.verification, VerifyOutcome::Skipped);
        assert!(result.stats_for("gate-fusion").is_some());
        assert!(result.stats_for("cancel-inverse-pairs").is_some());
        assert!(result.panel_threads >= 1);
        assert!(result.to_string().contains("verification skipped"));

        // Shape pinning rejects mismatched circuits.
        assert!(compiler.compile(&Circuit::new(dim(3), 2)).is_err());
    }

    #[test]
    fn cache_modes_reach_every_lowering_stage() {
        use qudit_core::cache::LoweringCache;

        let synthesis = KToffoli::new(dim(3), 3).unwrap().synthesize().unwrap();
        // `Off` disables caching outright: no stage reports cache counters.
        let off = CompileOptions::new()
            .cache(CacheMode::Off)
            .compiler()
            .compile(synthesis.circuit())
            .unwrap();
        assert!(off.stats.iter().all(|s| s.cache.is_none()));

        // `Shared` installs the caller's instance, not a fresh per-run one:
        // a second compile reuses the first one's entries.
        let cache = LoweringCache::shared();
        let compiler = CompileOptions::new()
            .cache(CacheMode::Shared(cache.clone()))
            .compiler();
        compiler.compile(synthesis.circuit()).unwrap();
        let second = compiler.compile(synthesis.circuit()).unwrap();
        // Cache counters accrue on the lowering stages (gate-fusion, the
        // flow's first pass, never consults the lowering cache).
        for pass in ["lower-to-elementary", "lower-to-g-gates"] {
            let counters = second
                .stats_for(pass)
                .unwrap()
                .cache
                .expect("caching enabled");
            assert_eq!(counters.misses, 0, "{pass}: second compile must hit");
            assert!(counters.hits > 0, "{pass}");
        }
        assert!(cache.counters().hits > 0, "hits land in the caller's cache");
    }

    #[test]
    fn verification_knobs_wrap_every_stage() {
        let synthesis = KToffoli::new(dim(3), 2).unwrap().synthesize().unwrap();
        for verify in [Verify::Exhaustive, Verify::Sampled(16)] {
            let compiler = CompileOptions::new().verify(verify).compiler();
            assert!(compiler
                .pass_names()
                .iter()
                .all(|name| name.starts_with("verify(")));
            let result = compiler.compile(synthesis.circuit()).unwrap();
            assert_eq!(result.verification, VerifyOutcome::Verified(verify));
            assert!(result.verification.is_verified());
        }
        // Sampled(0) is clamped rather than vacuous.
        assert_eq!(
            CompileOptions::new()
                .verify(Verify::Sampled(0))
                .verify_mode(),
            Verify::Sampled(1)
        );
    }

    #[test]
    fn verification_accepts_every_backend() {
        // The verdict must not depend on the engine verification runs on —
        // including the stabilizer backend, which falls back to state-vector
        // strategies whenever a stage output is not all-Clifford.
        let synthesis = KToffoli::new(dim(3), 2).unwrap().synthesize().unwrap();
        for backend in [
            SimBackend::Auto,
            SimBackend::Dense,
            SimBackend::Sparse,
            SimBackend::Stabilizer,
        ] {
            let compiler = CompileOptions::new()
                .verify(Verify::Exhaustive)
                .backend(backend)
                .compiler();
            assert_eq!(compiler.options().sim_backend(), backend);
            let result = compiler.compile(synthesis.circuit()).unwrap();
            assert!(result.verification.is_verified(), "backend {backend}");
        }
    }

    #[test]
    fn batch_results_merge_like_batch_reports() {
        let jobs: Vec<Circuit> = [(3u32, 2usize), (4, 2), (5, 2)]
            .iter()
            .map(|&(d, k)| {
                KToffoli::new(dim(d), k)
                    .unwrap()
                    .synthesize()
                    .unwrap()
                    .circuit()
                    .clone()
            })
            .collect();
        let compiler = CompileOptions::new()
            .cache(CacheMode::PerRun)
            .threads(Threads::Fixed(2))
            .compiler();
        let batch = compiler.compile_batch(&jobs).unwrap();
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert!(!batch.is_verified());
        let merged = batch.merged_stats();
        assert_eq!(merged.len(), 4);
        assert_eq!(merged[0].jobs, 3);
        assert!(batch.cache_counters().total() > 0);
        assert!(batch.to_string().contains("batch of 3 circuits"));
        // Batch jobs equal per-job compiles, gate for gate.
        for (job, result) in jobs.iter().zip(&batch.results) {
            assert_eq!(compiler.compile(job).unwrap().circuit, result.circuit);
        }
    }

    #[test]
    fn custom_passes_extend_the_assembled_manager() {
        use qudit_core::pipeline::pass_fn;
        let synthesis = KToffoli::new(dim(3), 2).unwrap().synthesize().unwrap();
        let manager = CompileOptions::new()
            .build_manager()
            .with_pass(pass_fn("identity", Ok));
        let report = manager.run(synthesis.circuit().clone()).unwrap();
        assert_eq!(report.stats.last().unwrap().pass, "identity");
    }

    #[test]
    fn registry_covers_every_selectable_stage() {
        let registry = registry();
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            for stage in CompileOptions::new().opt_level(level).spec().stages {
                assert!(registry.contains(&stage), "unregistered stage {stage}");
            }
        }
    }

    #[test]
    fn topology_knob_inserts_the_route_stage() {
        let graph = CouplingGraph::linear(5).unwrap();
        let spec = CompileOptions::new()
            .opt_level(OptLevel::O2)
            .topology(graph.clone())
            .spec();
        assert_eq!(
            spec.stages,
            vec![
                "gate-fusion",
                "lower-to-elementary",
                "lower-to-g-gates",
                "cancel-inverse-pairs",
                "route",
                "schedule-depth"
            ]
        );
        let compiler = CompileOptions::new().topology(graph).compiler();
        assert!(compiler.pass_names().contains(&"route"));
        // Off by default: no stage, no columns.
        assert!(!CompileOptions::new()
            .spec()
            .stages
            .contains(&"route".to_string()));
    }

    #[test]
    fn routed_compilations_satisfy_adjacency_and_report_columns() {
        use qudit_core::route::{validate_adjacency, NoiseAwareCost};
        let synthesis = KToffoli::new(dim(3), 3).unwrap().synthesize().unwrap();
        let graph = CouplingGraph::linear(synthesis.layout().width).unwrap();
        let baseline = CompileOptions::new().compiler();
        let unrouted = baseline.compile(synthesis.circuit()).unwrap();
        assert!(validate_adjacency(&unrouted.circuit, &graph).is_err());
        assert_eq!(unrouted.swap_count, None);
        assert_eq!(unrouted.routed_depth, None);
        assert_eq!(unrouted.weighted_cost, None);

        let compiler = CompileOptions::new()
            .opt_level(OptLevel::O2)
            .topology(graph.clone())
            .cost(NoiseAwareCost::default())
            .compiler();
        let routed = compiler.compile(synthesis.circuit()).unwrap();
        validate_adjacency(&routed.circuit, &graph).unwrap();
        assert!(routed.swap_count.unwrap() > 0);
        assert!(routed.routed_depth.unwrap() > 0);
        assert!(routed.weighted_cost.unwrap() > 0.0);
        // Scheduling after routing must not break adjacency (it only
        // permutes commuting gates) and the final depth is the scheduled
        // one.
        assert!(routed.depth <= routed.routed_depth.unwrap());
    }

    #[test]
    fn routed_compilations_verify_on_every_backend() {
        let synthesis = KToffoli::new(dim(3), 2).unwrap().synthesize().unwrap();
        let graph = CouplingGraph::ring(3).unwrap();
        for backend in [
            SimBackend::Auto,
            SimBackend::Dense,
            SimBackend::Sparse,
            SimBackend::Stabilizer,
        ] {
            let compiler = CompileOptions::new()
                .topology(graph.clone())
                .verify(Verify::Exhaustive)
                .backend(backend)
                .compiler();
            let result = compiler.compile(synthesis.circuit()).unwrap();
            assert!(result.verification.is_verified(), "backend {backend}");
            assert!(result.stats_for("route").is_some());
        }
    }

    #[test]
    fn routed_batches_match_sequential_compiles() {
        let jobs: Vec<Circuit> = [2usize, 3]
            .iter()
            .map(|&k| {
                KToffoli::new(dim(3), k)
                    .unwrap()
                    .synthesize()
                    .unwrap()
                    .circuit()
                    .clone()
            })
            .collect();
        // A graph wide enough for the widest job; narrower jobs are
        // embedded into the full site register.
        let sites = jobs.iter().map(Circuit::width).max().unwrap();
        let graph = CouplingGraph::grid(2, sites.div_ceil(2)).unwrap();
        let compiler = CompileOptions::new()
            .topology(graph)
            .threads(Threads::Fixed(2))
            .compiler();
        let batch = compiler.compile_batch(&jobs).unwrap();
        for (job, result) in jobs.iter().zip(&batch.results) {
            let solo = compiler.compile(job).unwrap();
            assert_eq!(solo.circuit, result.circuit);
            assert_eq!(solo.swap_count, result.swap_count);
        }
    }

    #[test]
    fn undersized_topology_is_a_typed_error() {
        let synthesis = KToffoli::new(dim(3), 3).unwrap().synthesize().unwrap();
        let graph = CouplingGraph::linear(2).unwrap();
        let compiler = CompileOptions::new().topology(graph).compiler();
        assert!(matches!(
            compiler.compile(synthesis.circuit()),
            Err(qudit_core::QuditError::TopologyTooSmall { .. })
        ));
    }
}

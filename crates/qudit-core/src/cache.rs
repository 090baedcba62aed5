//! A thread-safe, optionally bounded lowering cache keyed by `(gate kind,
//! dimension, width-class)`, with serializable snapshots.
//!
//! The synthesis constructions emit the same conjugated gadgets thousands of
//! times per circuit — every two-controlled swap of the same dimension
//! expands to the same Fig. 2 / Fig. 5 gadget up to a renaming of the wires.
//! [`LoweringCache`] exploits that: a lowering site is *canonicalised* (its
//! qudits renamed to `0, 1, 2, …` in role order), looked up by the canonical
//! description, and the cached expansion is renamed back to the actual
//! wires.  The cache is shared across threads behind an [`RwLock`], so the
//! jobs of a parallel batch and the service's workers feed one table, and
//! hit/miss counts are kept both globally (atomics, for the cache lifetime)
//! and per pass run (via [`CacheCounters`], surfaced in pass statistics).
//!
//! # Service-grade features
//!
//! The compile service (`qudit-synthesis::service`) keeps one cache alive
//! across thousands of jobs, which needs three things a per-run cache does
//! not:
//!
//! * **A size bound** — [`LoweringCache::with_capacity`] caps the entry
//!   count; inserting past the bound evicts the least-recently-used entry
//!   and tallies it in [`CacheMetrics::evictions`].  Unbounded caches
//!   ([`LoweringCache::new`]) never evict.
//! * **Contention visibility** — [`LoweringCache::metrics`] reports lock
//!   acquisitions that had to block ([`CacheMetrics::contended`]) and
//!   insert races lost ([`CacheMetrics::race_losses`]), the numbers that
//!   justify sharding when they grow.
//! * **Snapshots** — [`LoweringCache::snapshot`] serialises the table to a
//!   version-tagged text format (expansions ride the exact-round-trip qasm
//!   printer) and [`LoweringCache::restore_snapshot`] loads one back for a
//!   warm start, rejecting corrupt input with
//!   [`QuditError::SnapshotInvalid`].
//!
//! # Example
//!
//! ```
//! use qudit_core::cache::{CacheCounters, LoweringCache};
//! use qudit_core::lowering::lower_circuit_cached;
//! use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let d = Dimension::new(3)?;
//! let mut circuit = Circuit::new(d, 3);
//! // The same gate kind on two different wire pairs: one miss, one hit.
//! for target in [1, 2] {
//!     circuit.push(Gate::controlled(
//!         SingleQuditOp::Add(1),
//!         QuditId::new(target),
//!         vec![Control::level(QuditId::new(0), 2)],
//!     ))?;
//! }
//! let cache = LoweringCache::new();
//! let mut counters = CacheCounters::default();
//! let lowered = lower_circuit_cached(&circuit, &cache, &mut counters)?;
//! assert_eq!(counters.hits, 1);
//! assert_eq!(counters.misses, 1);
//! assert_eq!(lowered, qudit_core::lowering::lower_circuit(&circuit)?);
//!
//! // Snapshot the warm cache and restore it into a bounded one.
//! let snapshot = cache.snapshot();
//! let restored = LoweringCache::with_capacity(128);
//! assert_eq!(restored.restore_snapshot(&snapshot)?, cache.len());
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::control::{Control, ControlPredicate};
use crate::dimension::Dimension;
use crate::error::{QuditError, Result};
use crate::gate::{Gate, GateOp};
use crate::ops::SingleQuditOp;
use crate::qudit::QuditId;

/// Which lowering stage produced a cached expansion.
///
/// The macro → elementary stage (`qudit-synthesis`) and the elementary →
/// G-gate stage (`qudit_core::lowering`) share one cache; tagging the stage
/// keeps their entries in disjoint key spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoweringStage {
    /// Macro gates → elementary gates (Fig. 2 / Fig. 5 gadget expansion).
    Elementary,
    /// Elementary gates → the G-gate set `{Xij} ∪ {|0⟩-X01}`.
    GGates,
}

/// Width class of a lowering site: whether the register offers a spare wire
/// usable as a borrowed ancilla (the even-`d` gadgets need one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WidthClass {
    /// Fewer than four wires: no spare qudit beyond two controls + target.
    Narrow,
    /// Four or more wires: a borrowed qudit is always available.
    Wide,
}

impl WidthClass {
    /// Classifies a register width.
    pub fn of(width: usize) -> Self {
        if width >= 4 {
            WidthClass::Wide
        } else {
            WidthClass::Narrow
        }
    }
}

/// The gate-kind component of a [`CacheKey`] — the target operation with
/// qudit identities abstracted away.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CachedOpKind {
    /// `Xij`.
    Swap(u32, u32),
    /// `X+y`.
    Add(u32),
    /// `X_eo^e`.
    ParityFlipEven,
    /// `X_eo^o`.
    ParityFlipOdd,
    /// An arbitrary level permutation (by its level map).
    Perm(Vec<u32>),
    /// The value-controlled shift `X±⋆` (source position is implicit in the
    /// canonical wire order).
    AddFrom {
        /// `true` for `X−⋆`, `false` for `X+⋆`.
        negate: bool,
    },
}

impl CachedOpKind {
    /// The key component of a gate operation, or `None` when the operation
    /// is uncacheable (general unitaries have no hashable description).
    fn of(op: &GateOp) -> Option<Self> {
        match op {
            GateOp::Single(SingleQuditOp::Swap(i, j)) => Some(CachedOpKind::Swap(*i, *j)),
            GateOp::Single(SingleQuditOp::Add(y)) => Some(CachedOpKind::Add(*y)),
            GateOp::Single(SingleQuditOp::ParityFlipEven) => Some(CachedOpKind::ParityFlipEven),
            GateOp::Single(SingleQuditOp::ParityFlipOdd) => Some(CachedOpKind::ParityFlipOdd),
            GateOp::Single(SingleQuditOp::Perm(p)) => Some(CachedOpKind::Perm(p.as_map().to_vec())),
            GateOp::Single(SingleQuditOp::Unitary(_)) => None,
            GateOp::AddFrom { negate, .. } => Some(CachedOpKind::AddFrom { negate: *negate }),
        }
    }
}

/// Cache key: `(gate kind, dimension, width-class)`, where the gate kind is
/// the canonicalised operation plus the control predicates in role order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    stage: LoweringStage,
    dimension: u32,
    width_class: WidthClass,
    op: CachedOpKind,
    controls: Vec<ControlPredicate>,
}

/// A lowering site in canonical coordinates: the gate with its qudits
/// renamed to `0, 1, 2, …` in role order (controls, `AddFrom` source,
/// target, then any extra wires such as a borrowed ancilla), plus the table
/// renaming the canonical wires back to the actual ones.
#[derive(Debug, Clone)]
pub struct CanonicalSite {
    key: CacheKey,
    gate: Gate,
    wires: Vec<QuditId>,
}

impl CanonicalSite {
    /// Canonicalises a lowering site, or returns `None` when the gate kind
    /// is uncacheable (general unitaries).
    ///
    /// `extra` lists wires the lowering may touch beyond the gate's own
    /// (for example the borrowed qudit of the even-`d` gadgets), in the order
    /// they should receive canonical indices after the gate's qudits.
    pub fn of(
        stage: LoweringStage,
        gate: &Gate,
        dimension: Dimension,
        width_class: WidthClass,
        extra: &[QuditId],
    ) -> Option<Self> {
        let op = CachedOpKind::of(gate.op())?;
        let mut wires = gate.qudits();
        wires.extend_from_slice(extra);
        let canonical_of = |q: QuditId| {
            QuditId::new(
                wires
                    .iter()
                    .position(|w| *w == q)
                    .expect("gate qudits are in the wire table"),
            )
        };
        let canonical_op = match gate.op() {
            GateOp::Single(op) => GateOp::Single(op.clone()),
            GateOp::AddFrom { source, negate } => GateOp::AddFrom {
                source: canonical_of(*source),
                negate: *negate,
            },
        };
        let canonical_controls: Vec<Control> = gate
            .controls()
            .iter()
            .map(|c| Control::new(canonical_of(c.qudit), c.predicate))
            .collect();
        let canonical_gate = Gate::new(
            canonical_op,
            canonical_of(gate.target()),
            canonical_controls,
        );
        Some(CanonicalSite {
            key: CacheKey {
                stage,
                dimension: dimension.get(),
                width_class,
                op,
                controls: gate.controls().iter().map(|c| c.predicate).collect(),
            },
            gate: canonical_gate,
            wires,
        })
    }

    /// The cache key of this site.
    pub fn key(&self) -> &CacheKey {
        &self.key
    }

    /// The gate in canonical coordinates (qudits `0, 1, 2, …`).
    pub fn gate(&self) -> &Gate {
        &self.gate
    }

    /// The canonical register width (gate qudits plus extra wires).
    pub fn width(&self) -> usize {
        self.wires.len()
    }

    /// Renames a cached canonical expansion back to the actual wires.
    pub fn restore(&self, canonical_gates: &[Gate]) -> Vec<Gate> {
        canonical_gates
            .iter()
            .map(|g| g.map_qudits(|q| self.wires[q.index()]))
            .collect()
    }
}

/// Per-run cache hit/miss tally, recorded in pass statistics.
///
/// Unlike the cache's own counters (which are global, atomic and live as
/// long as the cache), a `CacheCounters` value tallies one pass execution,
/// so merged batch statistics stay deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and then insert) the expansion.
    pub misses: u64,
}

impl CacheCounters {
    /// Total number of cache lookups.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }

    /// Accumulates another tally into this one.
    pub fn merge(&mut self, other: CacheCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Lifetime metrics of a [`LoweringCache`], read with
/// [`LoweringCache::metrics`].
///
/// `misses` counts exactly the insertions, so `misses - evictions` always
/// equals the live entry count — the invariant the service's consistency
/// checks pin.  A thread that computed an expansion but lost the insert
/// race to a peer is tallied as a *hit* (it returns the winner's entry)
/// **and** in `race_losses`, never as a miss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Lookups answered from the cache (including lost insert races).
    pub hits: u64,
    /// Lookups that computed and inserted a new entry.
    pub misses: u64,
    /// Insert races lost: the thread computed an expansion a peer had
    /// inserted first (its result is discarded, the lookup counts as a hit).
    pub race_losses: u64,
    /// Entries evicted to honour the capacity bound.
    pub evictions: u64,
    /// Lock acquisitions that could not proceed immediately (read or
    /// write) — the contention signal that justifies sharding.
    pub contended: u64,
    /// Live entries at the time of the read.
    pub entries: usize,
    /// The configured capacity bound, if any.
    pub capacity: Option<usize>,
}

/// One cached expansion plus its recency stamp (updated on every hit under
/// the read lock, which is why it is atomic).
#[derive(Debug)]
struct CacheEntry {
    gates: Arc<Vec<Gate>>,
    stamp: AtomicU64,
}

/// A thread-safe map from canonical lowering sites to their expansions.
///
/// Shared across threads behind an [`RwLock`]: lookups take the read lock,
/// and only a miss's insertion takes the write lock, so the hot path (hits)
/// never serialises readers.  See the module docs for the capacity bound,
/// metrics and snapshot features the long-running service leans on.
#[derive(Debug, Default)]
pub struct LoweringCache {
    map: RwLock<HashMap<CacheKey, CacheEntry>>,
    capacity: Option<usize>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    race_losses: AtomicU64,
    evictions: AtomicU64,
    contended: AtomicU64,
}

/// Magic first line of the snapshot format; the `v1` suffix is the format
/// version and is checked on restore.
const SNAPSHOT_HEADER: &str = "qudit-lowering-cache v1";

impl LoweringCache {
    /// Creates an empty, unbounded cache (entries are never evicted).
    pub fn new() -> Self {
        LoweringCache::default()
    }

    /// Creates an empty cache bounded to at most `capacity` entries
    /// (clamped to at least one): inserting past the bound evicts the
    /// least-recently-used entry.
    pub fn with_capacity(capacity: usize) -> Self {
        LoweringCache {
            capacity: Some(capacity.max(1)),
            ..LoweringCache::default()
        }
    }

    /// Creates an empty unbounded cache behind an [`Arc`], ready to share
    /// across threads and passes.
    pub fn shared() -> Arc<Self> {
        Arc::new(LoweringCache::new())
    }

    /// [`LoweringCache::with_capacity`] behind an [`Arc`].
    pub fn shared_with_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(LoweringCache::with_capacity(capacity))
    }

    /// The configured capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of cached expansions.
    pub fn len(&self) -> usize {
        self.read_map().len()
    }

    /// Returns `true` when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Global hit/miss counters accumulated over the cache's lifetime.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Full lifetime metrics: hits/misses plus the race, eviction and
    /// contention tallies the service dashboards read.
    pub fn metrics(&self) -> CacheMetrics {
        CacheMetrics {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            race_losses: self.race_losses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity,
        }
    }

    /// Takes the read lock, counting the acquisition as contended when it
    /// could not proceed immediately.
    fn read_map(&self) -> RwLockReadGuard<'_, HashMap<CacheKey, CacheEntry>> {
        match self.map.try_read() {
            Ok(guard) => guard,
            Err(_) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.map.read().expect("cache lock")
            }
        }
    }

    /// Takes the write lock, counting the acquisition as contended when it
    /// could not proceed immediately.
    fn write_map(&self) -> RwLockWriteGuard<'_, HashMap<CacheKey, CacheEntry>> {
        match self.map.try_write() {
            Ok(guard) => guard,
            Err(_) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.map.write().expect("cache lock")
            }
        }
    }

    /// The next recency stamp.
    fn next_stamp(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Evicts least-recently-used entries until the map honours the
    /// capacity bound.  Called with the write lock held, after an insert.
    fn evict_over_capacity(&self, map: &mut HashMap<CacheKey, CacheEntry>) {
        let Some(capacity) = self.capacity else {
            return;
        };
        while map.len() > capacity {
            let Some(oldest) = map
                .iter()
                .min_by_key(|(_, entry)| entry.stamp.load(Ordering::Relaxed))
                .map(|(key, _)| key.clone())
            else {
                return;
            };
            map.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Looks up a canonical site, computing and inserting the expansion with
    /// `compute` on a miss.  Returns the expansion (in canonical
    /// coordinates) and whether the lookup was a hit, tallying into both the
    /// global counters and `counters`.
    ///
    /// A thread that computes an expansion but finds a racing peer inserted
    /// the key first keeps the peer's entry and tallies a **hit** (plus
    /// [`CacheMetrics::race_losses`] globally) — never a second miss, so
    /// `misses` equals insertions exactly.
    ///
    /// # Errors
    ///
    /// Propagates `compute` errors; failed computations are not cached.
    pub fn get_or_insert_with(
        &self,
        key: &CacheKey,
        counters: &mut CacheCounters,
        compute: impl FnOnce() -> Result<Vec<Gate>>,
    ) -> Result<Arc<Vec<Gate>>> {
        if let Some(entry) = self.read_map().get(key) {
            entry.stamp.store(self.next_stamp(), Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            counters.hits += 1;
            return Ok(entry.gates.clone());
        }
        // Compute outside any lock: expansions are pure and two racing
        // threads computing the same entry produce identical values.
        let computed = Arc::new(compute()?);
        let mut map = self.write_map();
        match map.entry(key.clone()) {
            std::collections::hash_map::Entry::Occupied(entry) => {
                // A racing thread won the insert; its entry (one shared
                // allocation) is the canonical one and this lookup was,
                // effectively, a hit.
                entry
                    .get()
                    .stamp
                    .store(self.next_stamp(), Ordering::Relaxed);
                self.race_losses.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                counters.hits += 1;
                Ok(entry.get().gates.clone())
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                counters.misses += 1;
                let gates = computed.clone();
                slot.insert(CacheEntry {
                    gates: computed,
                    stamp: AtomicU64::new(self.next_stamp()),
                });
                self.evict_over_capacity(&mut map);
                Ok(gates)
            }
        }
    }

    /// Serialises every entry to the version-tagged snapshot text format.
    ///
    /// Entries are written in least-recently-used-first order, so restoring
    /// into a bounded cache preserves the recency ranking, and expansions
    /// ride the exact-inverse qasm printer ([`crate::qasm::print_circuit`]),
    /// so gate lists round trip bit-for-bit.  The output is deterministic
    /// for a quiescent cache.
    pub fn snapshot(&self) -> String {
        let map = self.read_map();
        let mut entries: Vec<(u64, &CacheKey, &CacheEntry)> = map
            .iter()
            .map(|(key, entry)| (entry.stamp.load(Ordering::Relaxed), key, entry))
            .collect();
        entries.sort_by_key(|&(stamp, key, _)| (stamp, format_key(key)));
        let mut out = String::new();
        out.push_str(SNAPSHOT_HEADER);
        out.push('\n');
        let _ = writeln!(out, "entries {}", entries.len());
        for (_, key, entry) in entries {
            let Some(program) = expansion_to_program(key.dimension, &entry.gates) else {
                // Unprintable expansions cannot exist today (cached values
                // are always classical); skip defensively rather than
                // corrupt the snapshot.
                continue;
            };
            out.push_str("entry\n");
            out.push_str(&format_key(key));
            let _ = writeln!(out, "program {}", program.lines().count());
            out.push_str(&program);
            if !program.ends_with('\n') {
                out.push('\n');
            }
        }
        out
    }

    /// Restores a snapshot produced by [`LoweringCache::snapshot`] into
    /// this cache, returning the number of entries inserted.
    ///
    /// Entries already present keep their current expansion; the capacity
    /// bound applies as usual (restoring more entries than the bound keeps
    /// the most-recently-written tail).  Restores count as neither hits nor
    /// misses.
    ///
    /// # Errors
    ///
    /// Returns [`QuditError::SnapshotInvalid`] for any malformed input —
    /// wrong header or version, truncated entries, unparsable keys, or
    /// embedded programs that fail to parse or disagree with their key's
    /// dimension.  On error the cache is left unchanged.
    pub fn restore_snapshot(&self, text: &str) -> Result<usize> {
        let parsed = parse_snapshot(text)?;
        let mut inserted = 0;
        let mut map = self.write_map();
        for (key, gates) in parsed {
            if let std::collections::hash_map::Entry::Vacant(slot) = map.entry(key) {
                slot.insert(CacheEntry {
                    gates: Arc::new(gates),
                    stamp: AtomicU64::new(self.next_stamp()),
                });
                inserted += 1;
                self.evict_over_capacity(&mut map);
            }
        }
        Ok(inserted)
    }
}

/// Serialises a cache key as `stage`/`dimension`/`width`/`op`/`controls`
/// lines (the entry body of the snapshot format).
fn format_key(key: &CacheKey) -> String {
    let mut out = String::new();
    let stage = match key.stage {
        LoweringStage::Elementary => "elementary",
        LoweringStage::GGates => "ggates",
    };
    let width = match key.width_class {
        WidthClass::Narrow => "narrow",
        WidthClass::Wide => "wide",
    };
    let _ = writeln!(out, "stage {stage}");
    let _ = writeln!(out, "dimension {}", key.dimension);
    let _ = writeln!(out, "width {width}");
    let op = match &key.op {
        CachedOpKind::Swap(i, j) => format!("swap {i} {j}"),
        CachedOpKind::Add(y) => format!("add {y}"),
        CachedOpKind::ParityFlipEven => "parityflip_e".to_string(),
        CachedOpKind::ParityFlipOdd => "parityflip_o".to_string(),
        CachedOpKind::Perm(map) => {
            let levels: Vec<String> = map.iter().map(u32::to_string).collect();
            format!("perm {}", levels.join(" "))
        }
        CachedOpKind::AddFrom { negate: true } => "addfrom neg".to_string(),
        CachedOpKind::AddFrom { negate: false } => "addfrom pos".to_string(),
    };
    let _ = writeln!(out, "op {op}");
    let controls: Vec<String> = key
        .controls
        .iter()
        .map(|predicate| match predicate {
            ControlPredicate::Level(l) => format!("level:{l}"),
            ControlPredicate::Odd => "odd".to_string(),
            ControlPredicate::EvenNonzero => "even".to_string(),
            ControlPredicate::NonZero => "nonzero".to_string(),
        })
        .collect();
    let _ = writeln!(out, "controls {}", controls.join(" "));
    out
}

/// Renders an expansion as a parseable qasm program over a register wide
/// enough for every referenced qudit, or `None` when a gate fails register
/// validation (cannot happen for the classical expansions the cache holds).
fn expansion_to_program(dimension: u32, gates: &[Gate]) -> Option<String> {
    let dimension = Dimension::new(dimension).ok()?;
    let width = gates
        .iter()
        .flat_map(|gate| gate.qudits())
        .map(|q| q.index() + 1)
        .max()
        .unwrap_or(1);
    let mut circuit = crate::circuit::Circuit::new(dimension, width);
    for gate in gates {
        circuit.push(gate.clone()).ok()?;
    }
    Some(crate::qasm::print_circuit(&circuit))
}

/// The error type for one snapshot line.
fn snapshot_error(line: usize, reason: impl Into<String>) -> QuditError {
    QuditError::SnapshotInvalid {
        line: line as u32,
        reason: reason.into(),
    }
}

/// Consumes one line, failing with a typed error when the input is over.
fn take_line<'a>(lines: &[&'a str], at: &mut usize, expected: &str) -> Result<&'a str> {
    let line = lines
        .get(*at)
        .ok_or_else(|| snapshot_error(*at + 1, format!("missing {expected} line")))?;
    *at += 1;
    Ok(line)
}

/// Consumes one `name value` field line, returning the value.
fn take_field(lines: &[&str], at: &mut usize, name: &str) -> Result<String> {
    let line_no = *at + 1;
    let line = lines
        .get(*at)
        .ok_or_else(|| snapshot_error(line_no, format!("missing '{name}' field")))?;
    *at += 1;
    line.strip_prefix(name)
        .and_then(|rest| rest.strip_prefix(' '))
        .map(str::to_string)
        .ok_or_else(|| snapshot_error(line_no, format!("expected '{name} …'")))
}

/// Parses the snapshot text format back into `(key, expansion)` pairs.
fn parse_snapshot(text: &str) -> Result<Vec<(CacheKey, Vec<Gate>)>> {
    let lines: Vec<&str> = text.lines().collect();
    let mut at = 0usize;
    if take_line(&lines, &mut at, "header")? != SNAPSHOT_HEADER {
        return Err(snapshot_error(
            1,
            format!("expected snapshot header '{SNAPSHOT_HEADER}'"),
        ));
    }
    let count_line = take_line(&lines, &mut at, "entries")?;
    let declared: usize = count_line
        .strip_prefix("entries ")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| snapshot_error(at, "expected 'entries <count>'"))?;
    let mut entries = Vec::with_capacity(declared.min(1024));
    while at < lines.len() {
        let line_no = at + 1;
        if take_line(&lines, &mut at, "entry")? != "entry" {
            return Err(snapshot_error(line_no, "expected 'entry'"));
        }
        let field = |at: &mut usize, name: &str| take_field(&lines, at, name);
        let stage = match field(&mut at, "stage")?.as_str() {
            "elementary" => LoweringStage::Elementary,
            "ggates" => LoweringStage::GGates,
            other => return Err(snapshot_error(at, format!("unknown stage '{other}'"))),
        };
        let dimension: u32 = field(&mut at, "dimension")?
            .parse()
            .map_err(|_| snapshot_error(at, "dimension is not an integer"))?;
        Dimension::new(dimension)
            .map_err(|_| snapshot_error(at, format!("invalid dimension {dimension}")))?;
        let width_class = match field(&mut at, "width")?.as_str() {
            "narrow" => WidthClass::Narrow,
            "wide" => WidthClass::Wide,
            other => return Err(snapshot_error(at, format!("unknown width class '{other}'"))),
        };
        let op_text = field(&mut at, "op")?;
        let op = parse_op(&op_text)
            .ok_or_else(|| snapshot_error(at, format!("unparsable op description '{op_text}'")))?;
        let controls_text = field(&mut at, "controls")?;
        let mut controls = Vec::new();
        for token in controls_text.split_whitespace() {
            controls.push(match token {
                "odd" => ControlPredicate::Odd,
                "even" => ControlPredicate::EvenNonzero,
                "nonzero" => ControlPredicate::NonZero,
                level => {
                    let level = level
                        .strip_prefix("level:")
                        .and_then(|l| l.parse::<u32>().ok())
                        .ok_or_else(|| {
                            snapshot_error(at, format!("unknown control predicate '{token}'"))
                        })?;
                    ControlPredicate::Level(level)
                }
            });
        }
        let program_lines: usize = field(&mut at, "program")?
            .parse()
            .map_err(|_| snapshot_error(at, "program line count is not an integer"))?;
        let end = at
            .checked_add(program_lines)
            .filter(|end| *end <= lines.len())
            .ok_or_else(|| snapshot_error(at + 1, "snapshot truncated inside a program"))?;
        let program = lines[at..end].join("\n");
        let program_start = at + 1;
        at = end;
        let circuit = crate::qasm::parse_source(&program).map_err(|error| {
            snapshot_error(
                program_start,
                format!("embedded program does not parse: {error}"),
            )
        })?;
        if circuit.dimension().get() != dimension {
            return Err(snapshot_error(
                program_start,
                format!(
                    "embedded program dimension {} disagrees with key dimension {dimension}",
                    circuit.dimension().get()
                ),
            ));
        }
        entries.push((
            CacheKey {
                stage,
                dimension,
                width_class,
                op,
                controls,
            },
            circuit.gates().to_vec(),
        ));
    }
    if entries.len() != declared {
        return Err(snapshot_error(
            2,
            format!(
                "snapshot declares {declared} entries but contains {}",
                entries.len()
            ),
        ));
    }
    Ok(entries)
}

/// Parses the `op …` field of a snapshot entry.
fn parse_op(text: &str) -> Option<CachedOpKind> {
    let mut tokens = text.split_whitespace();
    let kind = tokens.next()?;
    let op = match kind {
        "swap" => CachedOpKind::Swap(tokens.next()?.parse().ok()?, tokens.next()?.parse().ok()?),
        "add" => CachedOpKind::Add(tokens.next()?.parse().ok()?),
        "parityflip_e" => CachedOpKind::ParityFlipEven,
        "parityflip_o" => CachedOpKind::ParityFlipOdd,
        "perm" => {
            let map: Option<Vec<u32>> = tokens.by_ref().map(|t| t.parse().ok()).collect();
            return Some(CachedOpKind::Perm(map?));
        }
        "addfrom" => match tokens.next()? {
            "neg" => CachedOpKind::AddFrom { negate: true },
            "pos" => CachedOpKind::AddFrom { negate: false },
            _ => return None,
        },
        _ => return None,
    };
    tokens.next().is_none().then_some(op)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dim(d: u32) -> Dimension {
        Dimension::new(d).unwrap()
    }

    fn controlled_add(control: usize, target: usize, level: u32) -> Gate {
        Gate::controlled(
            SingleQuditOp::Add(1),
            QuditId::new(target),
            vec![Control::level(QuditId::new(control), level)],
        )
    }

    fn site_for_level(level: u32) -> CanonicalSite {
        CanonicalSite::of(
            LoweringStage::GGates,
            &controlled_add(0, 1, level),
            dim(3),
            WidthClass::Narrow,
            &[],
        )
        .unwrap()
    }

    #[test]
    fn same_kind_different_wires_share_a_key() {
        let a = CanonicalSite::of(
            LoweringStage::GGates,
            &controlled_add(0, 1, 2),
            dim(3),
            WidthClass::Narrow,
            &[],
        )
        .unwrap();
        let b = CanonicalSite::of(
            LoweringStage::GGates,
            &controlled_add(4, 2, 2),
            dim(3),
            WidthClass::Narrow,
            &[],
        )
        .unwrap();
        assert_eq!(a.key(), b.key());
        assert_eq!(a.gate(), b.gate());
    }

    #[test]
    fn key_distinguishes_dimension_stage_width_class_and_levels() {
        let gate = controlled_add(0, 1, 2);
        let base = CanonicalSite::of(
            LoweringStage::GGates,
            &gate,
            dim(3),
            WidthClass::Narrow,
            &[],
        )
        .unwrap();
        let other_dim = CanonicalSite::of(
            LoweringStage::GGates,
            &gate,
            dim(4),
            WidthClass::Narrow,
            &[],
        )
        .unwrap();
        let other_stage = CanonicalSite::of(
            LoweringStage::Elementary,
            &gate,
            dim(3),
            WidthClass::Narrow,
            &[],
        )
        .unwrap();
        let other_width =
            CanonicalSite::of(LoweringStage::GGates, &gate, dim(3), WidthClass::Wide, &[]).unwrap();
        let other_level = CanonicalSite::of(
            LoweringStage::GGates,
            &controlled_add(0, 1, 1),
            dim(3),
            WidthClass::Narrow,
            &[],
        )
        .unwrap();
        for other in [other_dim, other_stage, other_width, other_level] {
            assert_ne!(base.key(), other.key());
        }
    }

    #[test]
    fn unitary_ops_are_uncacheable() {
        use crate::math::SquareMatrix;
        let gate = Gate::single(
            SingleQuditOp::Unitary(SquareMatrix::identity(3)),
            QuditId::new(0),
        );
        assert!(CanonicalSite::of(
            LoweringStage::GGates,
            &gate,
            dim(3),
            WidthClass::Narrow,
            &[]
        )
        .is_none());
    }

    #[test]
    fn restore_renames_back_to_actual_wires() {
        let gate = controlled_add(5, 3, 1);
        let site = CanonicalSite::of(
            LoweringStage::GGates,
            &gate,
            dim(3),
            WidthClass::Wide,
            &[QuditId::new(7)],
        )
        .unwrap();
        assert_eq!(site.width(), 3);
        let canonical = vec![
            Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(0)),
            Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(1)),
            Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(2)),
        ];
        let restored = site.restore(&canonical);
        assert_eq!(restored[0].target(), QuditId::new(5));
        assert_eq!(restored[1].target(), QuditId::new(3));
        assert_eq!(restored[2].target(), QuditId::new(7));
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let cache = LoweringCache::new();
        let site = site_for_level(2);
        let mut counters = CacheCounters::default();
        let expansion = vec![Gate::single(SingleQuditOp::Swap(0, 2), QuditId::new(0))];
        let first = cache
            .get_or_insert_with(site.key(), &mut counters, || Ok(expansion.clone()))
            .unwrap();
        let second = cache
            .get_or_insert_with(site.key(), &mut counters, || {
                panic!("second lookup must be a hit")
            })
            .unwrap();
        assert_eq!(*first, *second);
        assert_eq!(counters, CacheCounters { hits: 1, misses: 1 });
        assert_eq!(cache.counters(), counters);
        assert_eq!(cache.len(), 1);
        assert!((counters.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn failed_computations_are_not_cached() {
        let cache = LoweringCache::new();
        let site = site_for_level(2);
        let mut counters = CacheCounters::default();
        let failed: Result<Arc<Vec<Gate>>> =
            cache.get_or_insert_with(site.key(), &mut counters, || {
                Err(crate::error::QuditError::NotClassical)
            });
        assert!(failed.is_err());
        assert!(cache.is_empty());
        // A later successful computation still populates the entry.
        cache
            .get_or_insert_with(site.key(), &mut counters, || Ok(Vec::new()))
            .unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn counters_merge() {
        let mut a = CacheCounters { hits: 2, misses: 1 };
        a.merge(CacheCounters { hits: 3, misses: 4 });
        assert_eq!(a, CacheCounters { hits: 5, misses: 5 });
        assert_eq!(a.total(), 10);
        assert_eq!(CacheCounters::default().hit_rate(), 0.0);
    }

    #[test]
    fn racing_inserts_count_one_miss_and_the_losers_as_hits() {
        use std::sync::Barrier;
        // Every thread computes the expansion and races the insert; exactly
        // one may win.  The losers must tally as hits (plus race_losses),
        // never as extra misses, so `misses` equals map growth.
        let threads = 8;
        let cache = LoweringCache::new();
        let site = site_for_level(2);
        let barrier = Barrier::new(threads);
        let per_thread: Vec<CacheCounters> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut counters = CacheCounters::default();
                        barrier.wait();
                        cache
                            .get_or_insert_with(site.key(), &mut counters, || {
                                Ok(vec![Gate::single(
                                    SingleQuditOp::Swap(0, 2),
                                    QuditId::new(0),
                                )])
                            })
                            .unwrap();
                        counters
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut total = CacheCounters::default();
        for counters in per_thread {
            total.merge(counters);
        }
        let metrics = cache.metrics();
        assert_eq!(total.misses, 1, "exactly one thread inserts");
        assert_eq!(
            total.hits,
            threads as u64 - 1,
            "losers and late readers hit"
        );
        assert_eq!(metrics.misses, 1);
        assert_eq!(metrics.hits, threads as u64 - 1);
        assert_eq!(metrics.entries, 1);
        assert!(metrics.race_losses <= metrics.hits);
        assert_eq!(
            metrics.misses - metrics.evictions,
            metrics.entries as u64,
            "misses equal insertions equal map growth"
        );
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let cache = LoweringCache::with_capacity(2);
        assert_eq!(cache.capacity(), Some(2));
        let mut counters = CacheCounters::default();
        let sites: Vec<CanonicalSite> = (0..3).map(site_for_level).collect();
        let expansion = |level: u32| {
            vec![Gate::single(
                SingleQuditOp::Swap(0, level.min(2)),
                QuditId::new(0),
            )]
        };
        for (level, site) in sites.iter().enumerate().take(2) {
            cache
                .get_or_insert_with(site.key(), &mut counters, || Ok(expansion(level as u32)))
                .unwrap();
        }
        // Touch site 0 so site 1 becomes the LRU entry, then insert site 2.
        cache
            .get_or_insert_with(sites[0].key(), &mut counters, || unreachable!())
            .unwrap();
        cache
            .get_or_insert_with(sites[2].key(), &mut counters, || Ok(expansion(2)))
            .unwrap();
        let metrics = cache.metrics();
        assert_eq!(metrics.entries, 2);
        assert_eq!(metrics.evictions, 1);
        assert_eq!(metrics.misses - metrics.evictions, metrics.entries as u64);
        // Site 0 survived (recently used), site 1 was evicted.
        let mut check = CacheCounters::default();
        cache
            .get_or_insert_with(sites[0].key(), &mut check, || unreachable!())
            .unwrap();
        assert_eq!(check, CacheCounters { hits: 1, misses: 0 });
        cache
            .get_or_insert_with(sites[1].key(), &mut check, || Ok(expansion(1)))
            .unwrap();
        assert_eq!(check.misses, 1, "the LRU entry was evicted");
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let cache = LoweringCache::with_capacity(0);
        assert_eq!(cache.capacity(), Some(1));
        let mut counters = CacheCounters::default();
        for level in 0..3 {
            cache
                .get_or_insert_with(
                    site_for_level(level).key(),
                    &mut counters,
                    || Ok(Vec::new()),
                )
                .unwrap();
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.metrics().evictions, 2);
    }

    #[test]
    fn snapshot_round_trips_entries_and_future_hits() {
        let cache = LoweringCache::new();
        let mut counters = CacheCounters::default();
        let sites: Vec<CanonicalSite> = (0..3).map(site_for_level).collect();
        for (level, site) in sites.iter().enumerate() {
            let expansion = vec![
                Gate::single(SingleQuditOp::Swap(0, 1), QuditId::new(0)),
                Gate::controlled(
                    SingleQuditOp::Add(level as u32 % 3),
                    QuditId::new(1),
                    vec![Control::odd(QuditId::new(0))],
                ),
            ];
            cache
                .get_or_insert_with(site.key(), &mut counters, || Ok(expansion.clone()))
                .unwrap();
        }
        let snapshot = cache.snapshot();
        assert!(snapshot.starts_with(SNAPSHOT_HEADER));
        let restored = LoweringCache::new();
        assert_eq!(restored.restore_snapshot(&snapshot).unwrap(), 3);
        assert_eq!(restored.len(), 3);
        // Every key now hits with a bit-identical expansion.
        for site in &sites {
            let mut check = CacheCounters::default();
            let from_restored = restored
                .get_or_insert_with(site.key(), &mut check, || unreachable!())
                .unwrap();
            let from_original = cache
                .get_or_insert_with(site.key(), &mut check, || unreachable!())
                .unwrap();
            assert_eq!(from_restored, from_original);
        }
        // Snapshots are deterministic and idempotent to re-restore.
        assert_eq!(restored.snapshot(), restored.snapshot());
        assert_eq!(restored.restore_snapshot(&snapshot).unwrap(), 0);
        // Restores count as neither hits nor misses.
        assert_eq!(restored.metrics().misses, 0);
    }

    #[test]
    fn snapshot_covers_every_op_kind() {
        // One entry per CachedOpKind variant, exercised through real gates.
        let cache = LoweringCache::new();
        let mut counters = CacheCounters::default();
        let perm = crate::ops::Permutation::from_map(vec![1, 2, 0]).unwrap();
        let gates = vec![
            Gate::single(SingleQuditOp::Swap(0, 2), QuditId::new(0)),
            Gate::single(SingleQuditOp::Add(2), QuditId::new(0)),
            Gate::single(SingleQuditOp::Perm(perm), QuditId::new(0)),
            Gate::add_from(QuditId::new(0), false, QuditId::new(1), Vec::new()),
            Gate::add_from(QuditId::new(0), true, QuditId::new(1), Vec::new()),
        ];
        for gate in &gates {
            let site = CanonicalSite::of(
                LoweringStage::Elementary,
                gate,
                dim(3),
                WidthClass::Wide,
                &[],
            )
            .unwrap();
            cache
                .get_or_insert_with(site.key(), &mut counters, || Ok(vec![gate.clone()]))
                .unwrap();
        }
        let snapshot = cache.snapshot();
        let restored = LoweringCache::new();
        assert_eq!(
            restored.restore_snapshot(&snapshot).unwrap(),
            gates.len(),
            "every op kind round trips"
        );
        assert_eq!(restored.snapshot(), snapshot);
    }

    #[test]
    fn restoring_into_a_bounded_cache_honours_the_bound() {
        let cache = LoweringCache::new();
        let mut counters = CacheCounters::default();
        for level in 0..3 {
            cache
                .get_or_insert_with(
                    site_for_level(level).key(),
                    &mut counters,
                    || Ok(Vec::new()),
                )
                .unwrap();
        }
        let bounded = LoweringCache::with_capacity(2);
        bounded.restore_snapshot(&cache.snapshot()).unwrap();
        assert_eq!(bounded.len(), 2);
        assert_eq!(bounded.metrics().evictions, 1);
    }

    #[test]
    fn corrupt_snapshots_are_rejected_with_typed_errors() {
        let cases = [
            ("", "missing"),
            ("qudit-lowering-cache v999\nentries 0\n", "header"),
            ("qudit-lowering-cache v1\nentries zero\n", "entries"),
            (
                "qudit-lowering-cache v1\nentries 1\n",
                "snapshot declares 1 entries",
            ),
            (
                "qudit-lowering-cache v1\nentries 1\nentry\nstage nowhere\n",
                "unknown stage",
            ),
            (
                concat!(
                    "qudit-lowering-cache v1\nentries 1\nentry\n",
                    "stage ggates\ndimension 1\nwidth narrow\nop add 1\ncontrols \nprogram 0\n",
                ),
                "invalid dimension",
            ),
            (
                concat!(
                    "qudit-lowering-cache v1\nentries 1\nentry\n",
                    "stage ggates\ndimension 3\nwidth narrow\nop wiggle\ncontrols \nprogram 0\n",
                ),
                "unparsable op",
            ),
            (
                concat!(
                    "qudit-lowering-cache v1\nentries 1\nentry\n",
                    "stage ggates\ndimension 3\nwidth narrow\nop add 1\ncontrols \nprogram 5\n",
                ),
                "truncated",
            ),
            (
                concat!(
                    "qudit-lowering-cache v1\nentries 1\nentry\n",
                    "stage ggates\ndimension 3\nwidth narrow\nop add 1\ncontrols \n",
                    "program 2\nOPENQASM 3.0;\nboop q[0];\n",
                ),
                "does not parse",
            ),
        ];
        for (text, expected) in cases {
            let cache = LoweringCache::new();
            let error = cache.restore_snapshot(text).unwrap_err();
            let message = error.to_string();
            assert!(
                message.contains(expected),
                "snapshot {text:?}: expected {expected:?} in {message:?}"
            );
            assert!(cache.is_empty(), "failed restore must not mutate the cache");
        }
    }

    #[test]
    fn contention_counter_moves_under_pressure() {
        use std::sync::Barrier;
        // Hammer one bounded cache from many threads; we cannot force a
        // specific interleaving, but the metrics must stay consistent.
        let cache = LoweringCache::with_capacity(4);
        let barrier = Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let cache = &cache;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut counters = CacheCounters::default();
                    barrier.wait();
                    for round in 0..64u32 {
                        let level = (t + round) % 3;
                        cache
                            .get_or_insert_with(site_for_level(level).key(), &mut counters, || {
                                Ok(Vec::new())
                            })
                            .unwrap();
                    }
                });
            }
        });
        let metrics = cache.metrics();
        assert_eq!(metrics.hits + metrics.misses, 8 * 64);
        assert_eq!(metrics.misses - metrics.evictions, metrics.entries as u64);
        assert!(metrics.entries <= 4);
    }
}

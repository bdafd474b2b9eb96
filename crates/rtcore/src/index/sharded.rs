//! [`ShardedIndex`]: the two-level (TLAS over sharded BLAS) neighbour-search
//! backend.
//!
//! The flat [`super::WideBatchedIndex`] builds one BVH over the whole scene;
//! this backend cuts the same Morton-sorted primitive array into contiguous
//! shards ([`crate::bvh::tlas::plan_shards`]), builds one bottom-level wide
//! scene per shard **in parallel**, and answers queries by descending a
//! small top-level BVH to enumerate the shards a query overlaps, then
//! reusing the existing wavefront packet engine per BLAS.
//!
//! # Equivalence to the flat path
//!
//! With the LBVH builder, every BLAS is bit-identical to the corresponding
//! subtree of the flat LBVH (see [`crate::bvh::tlas`]), so the *leaf* boxes
//! — the only structure that decides which candidates are charged — are the
//! same.  The TLAS gate uses the same [`Aabb::intersects_ray`] predicate as
//! the engines' root gates and is therefore conservative, so the union of
//! per-BLAS candidate sets equals the flat candidate set exactly: neighbour
//! sets, CSR rows, counts, and the `dist_comps` / `prim_tests` counters all
//! match the flat wide-batched launch.  Counters that measure *structure
//! walked* rather than *candidates charged* (`rays`, `aabb_tests`,
//! `wide_node_visits`, `batched_launches`) legitimately differ; the sharded
//! backend additionally charges `tlas_node_visits` and one `blas_launches`
//! per (packet, overlapping shard) engine dispatch.
//!
//! `early_exit` hints are honoured as *exact* counting (the hint is a lower
//! bound, so `count >= min` core decisions are unchanged); unlike the flat
//! hot path, packet planning allocates per-shard sub-lists, which is why
//! this backend is not under the flat path's zero-allocation contract.

use super::bvh_backend::caller_ordinal;
use super::{
    charge_candidate, GeometryKind, IndexCapabilities, IndexKind, Neighbor, NeighborFlow,
    NeighborIndex, NeighborIndexBuilder, NeighborSink, NeighborVisitor, WideBatchedIndex,
};
use crate::bvh::build::{lbvh_from_sorted, LbvhBuilder};
use crate::bvh::tlas::{plan_shards_with, Tlas};
use crate::bvh::{
    compact_coincident, spheres_from_points, BuilderKind, BvhBuilder, MedianSplitBuilder,
    SahBuilder,
};
use crate::error::{Error, Result};
use crate::fault::{CancelScope, FaultInjector, FaultPlan, FaultSite, MemoryBudget, RetryPolicy};
use crate::geometry::{Aabb, Point3, Ray, Sphere};
use crate::hardware::sat_bump;
use crate::hardware::WorkCounters;
use crate::telemetry::{
    NodeHeatmap, PhaseKind, Telemetry, DIST_COMPS_BUCKETS, LATENCY_US_BUCKETS, OCCUPANCY_BUCKETS,
};
use crate::traversal::{QueryOrder, ReorderScratch, ScratchPool};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// One shard's slice of the Morton-sorted build inputs (primitives and
/// codes), boxed in a consumable slot so the parallel build can move it
/// out exactly once.
type ShardSlice = Mutex<Option<(Vec<Sphere>, Vec<u32>)>>;

/// Why a shard's BLAS is quarantined (see [`ShardedIndex::quarantine_shard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The per-shard BLAS build failed (an injected collapse fault);
    /// the scene construction degraded the shard instead of failing.
    BuildFailed,
    /// A [`crate::fault::FaultSite::ShardBlasPoison`] failpoint marked the
    /// shard's BLAS as corrupt at build time.
    Poisoned,
    /// [`ShardedIndex::verify_shards`] found a broken structural invariant.
    ValidationFailed,
    /// A [`MemoryBudget`] eviction dropped the BLAS; the primitives stay
    /// resident and the shard rebuilds on the next [`ShardedIndex::recover`].
    Evicted,
}

impl QuarantineReason {
    /// Stable snake_case name used in reports and telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            QuarantineReason::BuildFailed => "build_failed",
            QuarantineReason::Poisoned => "poisoned",
            QuarantineReason::ValidationFailed => "validation_failed",
            QuarantineReason::Evicted => "evicted",
        }
    }
}

/// A quarantined shard: the BLAS is gone but the primitives are retained,
/// so queries fall back to an exact linear scan over them (correct, just
/// slower) until [`ShardedIndex::recover`] rebuilds the BLAS.
#[derive(Debug)]
struct DegradedShard {
    /// The shard's primitives, exactly as the live BLAS held them.
    spheres: Vec<Sphere>,
    /// Union of the sphere bounds — the TLAS leaf box, so the top level
    /// keeps routing overlapping queries here.
    bounds: Aabb,
    reason: QuarantineReason,
    /// Rebuild attempts consumed so far (bounded by [`RetryPolicy`]).
    attempts: u32,
    /// Recovery epoch before which retries are deferred (backoff).
    next_retry: u64,
}

impl DegradedShard {
    fn new(spheres: Vec<Sphere>, reason: QuarantineReason) -> Self {
        let bounds = spheres
            .iter()
            .fold(Aabb::EMPTY, |acc, s| acc.union(&s.bounds()));
        DegradedShard {
            spheres,
            bounds,
            reason,
            attempts: 0,
            next_retry: 0,
        }
    }
}

/// The state of one planned shard slot.
// `Live` dominates the enum size, but boxing it would add a pointer chase on
// every BLAS launch for the common all-healthy scene; slots are few (one per
// shard), so the wasted bytes in rare Degraded/Retired slots are negligible.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum ShardSlot {
    /// Healthy: queries launch through the wavefront engine.
    Live(WideBatchedIndex),
    /// Quarantined: queries fall back to an exact scan (see
    /// [`DegradedShard`]); a bounded retry-with-backoff rebuild restores it.
    Degraded(DegradedShard),
    /// Every primitive was retired; the TLAS leaf is an empty box.
    Retired,
}

impl ShardSlot {
    fn live(&self) -> Option<&WideBatchedIndex> {
        match self {
            ShardSlot::Live(blas) => Some(blas),
            _ => None,
        }
    }

    /// Whether the slot still answers queries (live or degraded).
    fn answers(&self) -> bool {
        !matches!(self, ShardSlot::Retired)
    }

    /// The TLAS leaf box this slot contributes.
    fn bounds(&self) -> Aabb {
        match self {
            ShardSlot::Live(blas) => blas.root_bounds(),
            ShardSlot::Degraded(d) => d.bounds,
            ShardSlot::Retired => Aabb::EMPTY,
        }
    }
}

/// What one [`ShardedIndex::recover`] pass did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Shards whose BLAS was rebuilt and restored to live service.
    pub rebuilt: usize,
    /// Rebuild attempts that failed (the shard stays quarantined and its
    /// next retry is pushed out by the policy's backoff).
    pub failed: usize,
    /// Quarantined shards still inside their backoff window.
    pub deferred: usize,
    /// Quarantined shards whose retry budget is exhausted (they keep
    /// answering through the exact fallback indefinitely).
    pub exhausted: usize,
}

/// Per-worker reusable buffers for one sharded packet: the TLAS descent
/// output, the (shard, packet position) launch plan, the per-shard query
/// sub-lists, and the packet-local count cells.
#[derive(Debug, Default)]
struct ShardScratch {
    overlaps: Vec<u32>,
    /// `(shard, packet position)` pairs, sorted by shard so each shard's
    /// sub-launch is one contiguous run in packet order.
    pairs: Vec<(u32, u32)>,
    sub_queries: Vec<Point3>,
    sub_perm: Vec<u32>,
    counts: Vec<AtomicU64>,
}

/// Two-level neighbour-search backend: a TLAS over Morton-range shards,
/// each owning a bottom-level wide (BVH4) scene answered by the
/// wavefront packet engine.
///
/// Built through [`NeighborIndexBuilder`] by setting
/// [`NeighborIndexBuilder::sharding`] on the [`IndexKind::WideBatched`]
/// kind.  Streaming eviction drops whole BLASes: [`NeighborIndex::remove`]
/// routes retirements to their owning shards, and a shard whose last
/// primitive is refitted away becomes a `None` slot whose TLAS leaf is an
/// empty box.
#[derive(Debug)]
pub struct ShardedIndex {
    n: usize,
    eps: f32,
    batch_size: usize,
    min_parallel_launch: usize,
    query_order: QueryOrder,
    compacting: bool,
    max_shard_size: usize,
    representative_of: Vec<u32>,
    /// Representative point id → owning shard (`u32::MAX` once retired).
    owner_shard: Vec<u32>,
    tlas: Tlas,
    /// One bottom-level slot per planned shard (live, degraded or retired).
    shards: Vec<ShardSlot>,
    /// Per-shard sub-launch popularity, driving coldest-first budget
    /// degradation.  Approximate by design — see the ordering comments at
    /// the increment sites.
    shard_heat: Vec<AtomicU64>,
    /// Candidate-charging model shared with the degraded exact fallback.
    geometry: GeometryKind,
    /// The per-shard BLAS configuration (nested parallelism already
    /// resolved), reused verbatim by quarantine-recovery rebuilds.
    blas_config: NeighborIndexBuilder,
    /// Deterministic failpoint handle (disarmed under
    /// [`FaultPlan::Off`], where probes cost nothing).
    fault: FaultInjector,
    /// Logical clock for retry backoff: bumped once per
    /// [`ShardedIndex::recover`] call, never by wall time, so recovery
    /// schedules are deterministic.
    recovery_epoch: u64,
    build_counters: WorkCounters,
    query_counters: Mutex<WorkCounters>,
    reorder: ScratchPool<ReorderScratch>,
    scratch: ScratchPool<ShardScratch>,
    telemetry: Telemetry,
}

impl ShardedIndex {
    /// Build the two-level scene from a [`NeighborIndexBuilder`] whose
    /// `sharding` knob is set.  Compaction (if configured) runs globally
    /// before sharding, so representatives and multiplicities are identical
    /// to the flat backend's; the per-shard BLAS builds run in parallel.
    pub fn build(config: &NeighborIndexBuilder, points: &[Point3], eps: f32) -> Result<Self> {
        let sharding = config.sharding.ok_or_else(|| {
            Error::InvalidConfig("ShardedIndex::build requires the sharding knob".into())
        })?;
        let telemetry = Telemetry::new(config.telemetry);
        let mut build_counters = WorkCounters::ZERO;
        let (spheres, representative_of) = if config.compaction {
            let compaction = compact_coincident(points, eps);
            sat_bump(&mut build_counters.compaction_merges, compaction.merged);
            sat_bump(&mut build_counters.build_prims, compaction.merged);
            (compaction.spheres, compaction.representative_of)
        } else {
            (
                spheres_from_points(points, eps),
                (0..points.len() as u32).collect(),
            )
        };

        let mut index = ShardedIndex {
            n: points.len(),
            eps,
            batch_size: config.batch_size.max(1),
            min_parallel_launch: config.min_parallel_launch,
            query_order: config.query_order,
            compacting: config.compaction,
            max_shard_size: sharding.max_shard_size,
            representative_of,
            // analyze-allow: hot-path-alloc -- constructor: owner table allocated once per scene build
            owner_shard: vec![u32::MAX; points.len()],
            tlas: Tlas::default(),
            // analyze-allow: hot-path-alloc -- constructor: shard list allocated once per scene build
            shards: Vec::new(),
            // analyze-allow: hot-path-alloc -- constructor: heat table allocated once per scene build
            shard_heat: Vec::new(),
            geometry: config.geometry,
            blas_config: *config,
            fault: FaultInjector::new(config.fault),
            recovery_epoch: 0,
            build_counters,
            query_counters: Mutex::new(WorkCounters::ZERO),
            reorder: ScratchPool::new(),
            scratch: ScratchPool::new(),
            telemetry,
        };
        if spheres.is_empty() {
            return Ok(index);
        }

        // Global Morton encode + sort + shard-cut descent.  The planner may
        // use the full parallelism budget — the per-shard builds have not
        // started yet, so there is nothing to oversubscribe.
        let plan = {
            let mut span = index.telemetry.span(PhaseKind::LbvhBuild);
            let plan =
                plan_shards_with(spheres, sharding.max_shard_size, config.build_parallelism)?;
            span.add_counters(plan.counters);
            plan
        };
        index.build_counters += plan.counters;
        for (s, &(lo, hi)) in plan.ranges.iter().enumerate() {
            for p in &plan.sorted_prims[lo..hi] {
                index.owner_shard[p.point_index as usize] = s as u32;
            }
        }

        // Per-shard parallel BLAS build on the rayon pool.  Each worker
        // opens its own build spans, so shard-build parallelism shows up in
        // the trace through the span thread ids.
        let max_leaf = config.max_leaf_size;
        let builder_kind = config.bvh_builder;
        // One consumable slot per shard: the shim's owned-`Vec` parallel
        // iterator clones items out, so hand workers indices instead and
        // move each slice out of its slot exactly once.
        let slices: Vec<ShardSlice> = plan
            .ranges
            .iter()
            .map(|&(lo, hi)| {
                Mutex::new(Some((
                    // analyze-allow: hot-path-alloc -- build path: each shard copies its prim slice once at scene construction
                    plan.sorted_prims[lo..hi].to_vec(),
                    // analyze-allow: hot-path-alloc -- build path: each shard copies its code slice once at scene construction
                    plan.sorted_codes[lo..hi].to_vec(),
                )))
            })
            .collect();
        let telemetry = index.telemetry.clone();
        // The shards themselves run in parallel, so each nested build only
        // gets its share of the parallelism budget; with at least as many
        // shards as workers this degrades to sequential per-shard builds
        // (the pre-existing behaviour) instead of oversubscribing the pool.
        let mut config = *config;
        config.build_parallelism = config.build_parallelism.for_nested(slices.len());
        let nested = config.build_parallelism;
        // Recovery rebuilds reuse exactly the per-shard configuration.
        index.blas_config = config;
        // Decide poisoned shards *before* the parallel loop: the shared
        // injector's hit ordinals would otherwise depend on worker
        // interleaving, and fault schedules must be deterministic.
        let poisoned: Vec<bool> = (0..slices.len())
            .map(|_| index.fault.fire(FaultSite::ShardBlasPoison))
            .collect();
        // `None` = this shard's BLAS build was taken down by an injected
        // fault; the scene degrades the slot instead of failing (the
        // primitives are re-sliced from the plan below).  Real build errors
        // still propagate.
        let built: Vec<Result<Option<WideBatchedIndex>>> = {
            use rayon::prelude::*;
            (0..slices.len())
                .into_par_iter()
                .map(|s| {
                    if poisoned[s] {
                        return Ok(None);
                    }
                    // analyze-allow: lib-unwrap -- each parallel build slot is filled by plan and taken exactly once by its own task
                    let (prims, codes) = slices[s].lock().take().expect("slot consumed once");
                    let bvh = {
                        let mut span = telemetry.span(PhaseKind::LbvhBuild);
                        let bvh = match builder_kind {
                            // The aligned path: emit over the pre-sorted
                            // slice, reproducing the flat subtree exactly.
                            BuilderKind::Lbvh => lbvh_from_sorted(
                                prims,
                                codes,
                                max_leaf,
                                WorkCounters::ZERO,
                                nested,
                                &telemetry,
                            )?,
                            BuilderKind::BinnedSah => SahBuilder {
                                max_leaf_size: max_leaf,
                                ..SahBuilder::default()
                            }
                            .build(prims)?,
                            BuilderKind::MedianSplit => MedianSplitBuilder {
                                max_leaf_size: max_leaf,
                            }
                            .build(prims)?,
                        };
                        span.add_counters(bvh.build_counters);
                        bvh
                    };
                    match WideBatchedIndex::from_prebuilt(&config, bvh, eps, telemetry.clone()) {
                        Ok(blas) => Ok(Some(blas)),
                        Err(Error::FaultInjected { .. }) => Ok(None),
                        Err(e) => Err(e),
                    }
                })
                .collect()
        };
        for (s, blas) in built.into_iter().enumerate() {
            match blas? {
                Some(blas) => {
                    index.build_counters += blas.build_counters();
                    index.shards.push(ShardSlot::Live(blas));
                }
                None => {
                    let (lo, hi) = plan.ranges[s];
                    let reason = if poisoned[s] {
                        QuarantineReason::Poisoned
                    } else {
                        QuarantineReason::BuildFailed
                    };
                    // analyze-allow: hot-path-alloc -- build path: a fault-degraded shard retains its prim slice for the exact fallback
                    let spheres = plan.sorted_prims[lo..hi].to_vec();
                    index
                        .shards
                        .push(ShardSlot::Degraded(DegradedShard::new(spheres, reason)));
                }
            }
        }
        // analyze-allow: hot-path-alloc -- constructor: heat table allocated once per scene build
        index.shard_heat = (0..index.shards.len()).map(|_| AtomicU64::new(0)).collect();
        index.rebuild_tlas();
        index.enforce_budget(config.memory_budget)?;
        Ok(index)
    }

    /// Rebuild the top-level BVH from the current shard root bounds
    /// (evicted shards contribute empty boxes) under a `tlas_build` span.
    fn rebuild_tlas(&mut self) {
        let bounds: Vec<Aabb> = self.shards.iter().map(ShardSlot::bounds).collect();
        let mut counters = WorkCounters::ZERO;
        let mut span = self.telemetry.span(PhaseKind::TlasBuild);
        self.tlas = Tlas::build(&bounds, &mut counters);
        span.add_counters(counters);
        drop(span);
        self.build_counters += counters;
    }

    /// Number of planned shards (including evicted slots).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of shards still holding a live BLAS.
    pub fn live_shard_count(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| matches!(s, ShardSlot::Live(_)))
            .count()
    }

    /// Number of quarantined shards currently answering through the exact
    /// fallback.
    pub fn degraded_shard_count(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| matches!(s, ShardSlot::Degraded(_)))
            .count()
    }

    /// The quarantined shard ids, with the reason each one degraded.
    pub fn quarantined_shards(&self) -> Vec<(u32, QuarantineReason)> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(s, slot)| match slot {
                ShardSlot::Degraded(d) => Some((s as u32, d.reason)),
                _ => None,
            })
            .collect()
    }

    /// How many engine sub-launches have targeted a shard (the coldest-first
    /// eviction signal).  Approximate under concurrent launches.
    pub fn shard_heat(&self, shard: u32) -> u64 {
        self.shard_heat
            .get(shard as usize)
            // ordering: Relaxed — approximate popularity signal; no other
            // state is synchronised through it.
            .map_or(0, |h| h.load(Ordering::Relaxed))
    }

    /// The shard owning a point's representative primitive, or `None` once
    /// the point was retired (or never indexed).
    pub fn owner_shard(&self, point: u32) -> Option<u32> {
        match self.owner_shard.get(point as usize) {
            Some(&s) if s != u32::MAX && self.shards.get(s as usize)?.answers() => Some(s),
            _ => None,
        }
    }

    /// Per-shard node-visit heatmaps (one entry per shard slot), populated
    /// when the index was built under
    /// [`crate::telemetry::TelemetryConfig::Profile`].
    pub fn shard_heatmaps(&self) -> Vec<Option<&NodeHeatmap>> {
        self.shards
            .iter()
            .map(|s| s.live().and_then(|b| b.heatmap()))
            .collect()
    }

    /// Quarantine a live shard: its BLAS is dropped, its primitives are
    /// retained, and queries overlapping the shard fall back to an exact
    /// linear scan — correct answers at degraded speed — until
    /// [`ShardedIndex::recover`] rebuilds it.  Idempotent on already
    /// degraded or retired slots; errors only on an out-of-range id.
    pub fn quarantine_shard(&mut self, shard: u32, reason: QuarantineReason) -> Result<()> {
        if shard as usize >= self.shards.len() {
            return Err(Error::InvalidConfig(format!("shard {shard} out of range")));
        }
        self.quarantine_slot(shard as usize, reason);
        Ok(())
    }

    /// Infallible in-range quarantine (no-op unless the slot is live).
    fn quarantine_slot(&mut self, idx: usize, reason: QuarantineReason) {
        let telemetry = self.telemetry.clone();
        let ShardSlot::Live(blas) = &self.shards[idx] else {
            return;
        };
        let mut span = telemetry.span(PhaseKind::Degrade);
        let slot = match blas.wide_scene() {
            Some(wide) => {
                span.add_counters(WorkCounters {
                    misc_ops: wide.primitives.len() as u64,
                    ..WorkCounters::ZERO
                });
                // analyze-allow: hot-path-alloc -- recovery path: quarantine retains the shard's primitives for the exact fallback
                ShardSlot::Degraded(DegradedShard::new(wide.primitives.clone(), reason))
            }
            // Nothing indexed — the slot is simply retired.
            None => ShardSlot::Retired,
        };
        self.shards[idx] = slot;
    }

    /// Validate every live shard's wide scene and quarantine the ones whose
    /// structural invariants fail, returning the quarantined ids.
    pub fn verify_shards(&mut self) -> Vec<u32> {
        let broken: Vec<u32> = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(s, slot)| {
                let wide = slot.live()?.wide_scene()?;
                crate::bvh::wide::validate_wide(wide)
                    .err()
                    .map(|_| s as u32)
            })
            .collect();
        for &s in &broken {
            self.quarantine_slot(s as usize, QuarantineReason::ValidationFailed);
        }
        broken
    }

    /// One bounded-retry recovery pass: every quarantined shard that is
    /// past its backoff window and under the policy's attempt cap gets one
    /// rebuild attempt.  Successful rebuilds restore the shard to live
    /// service; the rebuilt BLAS may differ *structurally* from the
    /// original flat-aligned subtree (a standalone rebuild quantises Morton
    /// codes over the shard's own bounds), but its leaf boxes are the same
    /// exact sphere bounds, so query results are bit-identical.
    ///
    /// Time is logical: each call is one epoch, so backoff schedules are
    /// deterministic under test.
    pub fn recover(&mut self, policy: RetryPolicy) -> RecoveryStats {
        self.recovery_epoch += 1;
        let epoch = self.recovery_epoch;
        let mut stats = RecoveryStats::default();
        let mut restored = false;
        for idx in 0..self.shards.len() {
            let (attempts, next_retry) = match &self.shards[idx] {
                ShardSlot::Degraded(d) => (d.attempts, d.next_retry),
                _ => continue,
            };
            if !policy.allows_attempt(attempts) {
                stats.exhausted += 1;
                continue;
            }
            if next_retry > epoch {
                stats.deferred += 1;
                continue;
            }
            let spheres = match &self.shards[idx] {
                // analyze-allow: hot-path-alloc -- recovery path: the rebuild consumes an owned copy of the quarantined primitives
                ShardSlot::Degraded(d) => d.spheres.clone(),
                _ => continue,
            };
            if spheres.is_empty() {
                self.shards[idx] = ShardSlot::Retired;
                continue;
            }
            match self.rebuild_blas(spheres) {
                Ok(blas) => {
                    self.build_counters += blas.build_counters();
                    self.shards[idx] = ShardSlot::Live(blas);
                    stats.rebuilt += 1;
                    restored = true;
                }
                Err(_) => {
                    if let ShardSlot::Degraded(d) = &mut self.shards[idx] {
                        d.attempts += 1;
                        d.next_retry = epoch + policy.backoff_ticks(d.attempts);
                    }
                    stats.failed += 1;
                }
            }
        }
        if restored {
            self.rebuild_tlas();
        }
        stats
    }

    /// Rebuild one shard's BLAS from its retained primitives under a
    /// `degrade` span.  Injected rebuild failures come from the *shared*
    /// injector's `hlbvh_build` site (its hit ordinal advances per attempt,
    /// so a seeded schedule can fail the first attempts and let a later
    /// retry succeed); the nested per-shard build itself runs fault-free.
    fn rebuild_blas(&self, spheres: Vec<Sphere>) -> Result<WideBatchedIndex> {
        crate::fail_point!(self.fault, FaultSite::HlbvhBuild);
        let mut config = self.blas_config;
        config.fault = FaultPlan::Off;
        let mut span = self.telemetry.span(PhaseKind::Degrade);
        let max_leaf = config.max_leaf_size;
        let bvh = match config.bvh_builder {
            BuilderKind::Lbvh => LbvhBuilder {
                max_leaf_size: max_leaf,
                parallelism: config.build_parallelism,
            }
            .build(spheres)?,
            BuilderKind::BinnedSah => SahBuilder {
                max_leaf_size: max_leaf,
                ..SahBuilder::default()
            }
            .build(spheres)?,
            BuilderKind::MedianSplit => MedianSplitBuilder {
                max_leaf_size: max_leaf,
            }
            .build(spheres)?,
        };
        span.add_counters(bvh.build_counters);
        drop(span);
        WideBatchedIndex::from_prebuilt(&config, bvh, self.eps, self.telemetry.clone())
    }

    /// Enforce a [`MemoryBudget`] on the whole two-level scene, degrading
    /// gracefully in documented order: (1) evict the coldest live BLASes
    /// into quarantine (exact fallback, rebuild on the next
    /// [`ShardedIndex::recover`]); (2) if the scene still exceeds the
    /// budget, refuse with [`Error::OverBudget`].
    pub fn enforce_budget(&mut self, budget: MemoryBudget) -> Result<()> {
        let Some(limit) = budget.limit() else {
            return Ok(());
        };
        if self.device_bytes() <= limit {
            return Ok(());
        }
        let telemetry = self.telemetry.clone();
        let mut span = telemetry.span(PhaseKind::Degrade);
        let mut degrade_ops = 0u64;
        let mut within = false;
        // Evict whole BLASes, coldest first (ties on shard id).
        let mut live: Vec<usize> = (0..self.shards.len())
            .filter(|&s| self.shards[s].live().is_some())
            .collect();
        live.sort_by_key(|&s| (self.shard_heat(s as u32), s));
        for s in live {
            self.quarantine_slot(s, QuarantineReason::Evicted);
            degrade_ops += 1;
            if self.device_bytes() <= limit {
                within = true;
                break;
            }
        }
        span.add_counters(WorkCounters {
            misc_ops: degrade_ops,
            ..WorkCounters::ZERO
        });
        drop(span);
        if within {
            Ok(())
        } else {
            Err(Error::OverBudget {
                requested: self.device_bytes(),
                budget: limit,
            })
        }
    }

    /// The configured shard-size ceiling.
    pub fn max_shard_size(&self) -> usize {
        self.max_shard_size
    }

    fn record(&self, local: &WorkCounters) {
        *self.query_counters.lock() += *local;
    }

    /// Mirror of the flat backends' launch metrics recording.
    fn record_launch_metrics(&self, queries: usize, start_ns: u64, total: &WorkCounters) {
        let Some(metrics) = self.telemetry.metrics() else {
            return;
        };
        metrics.incr("launches", 1);
        metrics.incr("launched_queries", queries as u64);
        let latency_us = self.telemetry.now_ns().saturating_sub(start_ns) as f64 / 1_000.0;
        metrics.observe("launch_latency_us", LATENCY_US_BUCKETS, latency_us);
        if queries > 0 {
            metrics.observe(
                "dist_comps_per_query",
                DIST_COMPS_BUCKETS,
                total.dist_comps as f64 / queries as f64,
            );
            let size = self.batch_size.max(1);
            let packets = queries.div_ceil(size);
            metrics.observe(
                "packet_occupancy",
                OCCUPANCY_BUCKETS,
                queries as f64 / (packets * size) as f64,
            );
        }
    }

    /// Morton-reorder the launch when configured (see the flat backend's
    /// `morton_guard`); outputs are restored to caller ordinals through the
    /// permutation either way.
    fn morton_guard(
        &self,
        queries: &[Point3],
        setup: &mut WorkCounters,
    ) -> Option<crate::traversal::PoolGuard<'_, ReorderScratch>> {
        if self.query_order != QueryOrder::Morton || queries.len() < 2 {
            return None;
        }
        let mut span = self.telemetry.span(PhaseKind::MortonReorder);
        let mut guard = self.reorder.acquire();
        let sort_ops = guard.order_morton(queries);
        sat_bump(&mut setup.misc_ops, sort_ops);
        span.add_counters(WorkCounters {
            misc_ops: sort_ops,
            ..WorkCounters::ZERO
        });
        Some(guard)
    }

    /// TLAS-descend every ray of one packet and lay out the per-shard
    /// sub-launch plan in `pairs` (sorted by shard, packet order within a
    /// shard).
    fn plan_packet(
        tlas: &Tlas,
        shards: &[ShardSlot],
        packet: &[Point3],
        overlaps: &mut Vec<u32>,
        pairs: &mut Vec<(u32, u32)>,
        counters: &mut WorkCounters,
    ) {
        pairs.clear();
        for (pos, &query) in packet.iter().enumerate() {
            let ray = Ray::epsilon_ray(query);
            overlaps.clear();
            tlas.overlapping(&ray, counters, overlaps);
            for &s in overlaps.iter() {
                if shards[s as usize].answers() {
                    pairs.push((s, pos as u32));
                }
            }
        }
        pairs.sort_unstable();
    }

    /// Exact linear fallback over a quarantined shard's primitives (sink
    /// mode).  The reporting contract matches the engine exactly — the
    /// closed-ball predicate, `Neighbor` payload and caller-ordinal routing
    /// are the same — so degraded answers are bit-identical to live ones.
    /// What differs is the work: every resident candidate is charged one
    /// [`charge_candidate`], the price of having no BLAS to cull with.
    fn degraded_trace_sink(
        &self,
        deg: &DegradedShard,
        sub_queries: &[Point3],
        sub_perm: &[u32],
        eps: f32,
        sink: &NeighborSink<'_>,
        local: &mut WorkCounters,
    ) {
        let eps_sq = eps * eps;
        sat_bump(&mut local.rays, sub_queries.len() as u64);
        for (qi, &q) in sub_queries.iter().enumerate() {
            let ordinal = sub_perm[qi] as usize;
            for s in &deg.spheres {
                charge_candidate(self.geometry, local);
                if s.center.distance_squared(q) <= eps_sq {
                    let n = Neighbor {
                        index: s.point_index,
                        multiplicity: s.multiplicity,
                    };
                    if sink(ordinal, n, local) == NeighborFlow::Stop {
                        break;
                    }
                }
            }
        }
    }

    /// Count-mode twin of [`ShardedIndex::degraded_trace_sink`]: exact
    /// multiplicity-weighted counts flushed once per query into the
    /// packet-local cells, exactly like a live sub-launch flushes.
    fn degraded_trace_counts(
        &self,
        deg: &DegradedShard,
        sub_queries: &[Point3],
        sub_positions: &[u32],
        eps: f32,
        cells: &[AtomicU64],
        local: &mut WorkCounters,
    ) {
        let eps_sq = eps * eps;
        sat_bump(&mut local.rays, sub_queries.len() as u64);
        for (qi, &q) in sub_queries.iter().enumerate() {
            let mut count = 0u64;
            for s in &deg.spheres {
                charge_candidate(self.geometry, local);
                if s.center.distance_squared(q) <= eps_sq {
                    count += s.multiplicity as u64;
                }
            }
            if count > 0 {
                // ordering: Relaxed — packet-local cell with one writer (this
                // sequential loop); the packet's flush reads it afterwards on
                // the same thread.
                cells[sub_positions[qi] as usize].fetch_add(count, Ordering::Relaxed);
            }
        }
    }

    /// Sink-mode sharded packet: plan, then one wavefront engine launch per
    /// overlapped shard, each charged as one `blas_launches`.  Sinks see
    /// caller ordinals directly through the sub-launch permutation.
    #[allow(clippy::too_many_arguments)]
    fn trace_packet_sharded(
        &self,
        ordered: &[Point3],
        perm: Option<&[u32]>,
        start: usize,
        len: usize,
        eps: f32,
        sink: &NeighborSink<'_>,
        cancel: Option<&CancelScope>,
    ) -> WorkCounters {
        let mut local = WorkCounters::ZERO;
        // Packet granularity: a tripped scope skips the whole packet.
        if cancel.is_some_and(CancelScope::tripped) {
            return local;
        }
        let mut guard = self.scratch.acquire();
        let ShardScratch {
            overlaps,
            pairs,
            sub_queries,
            sub_perm,
            ..
        } = &mut *guard;
        Self::plan_packet(
            &self.tlas,
            &self.shards,
            &ordered[start..start + len],
            overlaps,
            pairs,
            &mut local,
        );
        let mut i = 0;
        while i < pairs.len() {
            if cancel.is_some_and(CancelScope::tripped) {
                break;
            }
            let shard = pairs[i].0;
            sub_queries.clear();
            sub_perm.clear();
            let mut j = i;
            while j < pairs.len() && pairs[j].0 == shard {
                let pos = pairs[j].1 as usize;
                sub_queries.push(ordered[start + pos]);
                sub_perm.push(caller_ordinal(perm, start + pos) as u32);
                j += 1;
            }
            // ordering: Relaxed — monotonic popularity tick; nothing is
            // synchronised through it, readers want an approximate total.
            self.shard_heat[shard as usize].fetch_add(1, Ordering::Relaxed);
            sat_bump(&mut local.blas_launches, 1);
            match &self.shards[shard as usize] {
                ShardSlot::Live(blas) => {
                    local += blas.trace_packet(
                        sub_queries,
                        Some(sub_perm),
                        0,
                        sub_queries.len(),
                        eps,
                        sink,
                        cancel,
                    );
                }
                ShardSlot::Degraded(deg) => {
                    self.degraded_trace_sink(deg, sub_queries, sub_perm, eps, sink, &mut local);
                }
                // plan_packet only emits pairs for answering slots.
                ShardSlot::Retired => {}
            }
            i = j;
        }
        local
    }

    /// Count-mode sharded packet: per-shard counts accumulate in
    /// packet-local cells (each sub-launch flushes once per query, exactly
    /// like the flat packet tracer), and the packet flushes the
    /// `saturating_sub(1)` self-exclusion algebra to the shared cells once
    /// per query — bit-identical to the flat count path's adjustment.
    #[allow(clippy::too_many_arguments)]
    fn trace_count_packet_sharded(
        &self,
        ordered: &[Point3],
        perm: Option<&[u32]>,
        start: usize,
        len: usize,
        eps: f32,
        exclude_self: bool,
        counts: &[AtomicU64],
        cancel: Option<&CancelScope>,
    ) -> WorkCounters {
        let mut local = WorkCounters::ZERO;
        // Packet granularity: a tripped scope skips the whole packet.
        if cancel.is_some_and(CancelScope::tripped) {
            return local;
        }
        let mut guard = self.scratch.acquire();
        let ShardScratch {
            overlaps,
            pairs,
            sub_queries,
            sub_perm,
            counts: cells,
        } = &mut *guard;
        Self::plan_packet(
            &self.tlas,
            &self.shards,
            &ordered[start..start + len],
            overlaps,
            pairs,
            &mut local,
        );
        cells.clear();
        cells.resize_with(len, AtomicU64::default);
        let mut i = 0;
        while i < pairs.len() {
            if cancel.is_some_and(CancelScope::tripped) {
                // Partial cells would flush garbage into the shared counts;
                // the caller discards everything on a trip, so bail before
                // the flush below rather than flushing a half-built packet.
                return local;
            }
            let shard = pairs[i].0;
            sub_queries.clear();
            sub_perm.clear();
            let mut j = i;
            while j < pairs.len() && pairs[j].0 == shard {
                let pos = pairs[j].1;
                sub_queries.push(ordered[start + pos as usize]);
                sub_perm.push(pos);
                j += 1;
            }
            // ordering: Relaxed — monotonic popularity tick; nothing is
            // synchronised through it, readers want an approximate total.
            self.shard_heat[shard as usize].fetch_add(1, Ordering::Relaxed);
            sat_bump(&mut local.blas_launches, 1);
            match &self.shards[shard as usize] {
                ShardSlot::Live(blas) => {
                    local += blas.trace_count_packet(
                        sub_queries,
                        Some(sub_perm),
                        0,
                        sub_queries.len(),
                        eps,
                        false,
                        None,
                        cells,
                        cancel,
                    );
                }
                ShardSlot::Degraded(deg) => {
                    self.degraded_trace_counts(deg, sub_queries, sub_perm, eps, cells, &mut local);
                }
                // plan_packet only emits pairs for answering slots.
                ShardSlot::Retired => {}
            }
            i = j;
        }
        // ordering: Relaxed is sound on both sides of this flush.  The
        // packet-local `cells` come from pooled ShardScratch owned by this
        // packet alone; the per-shard sub-launches above run *sequentially*
        // on this thread, so by the time the loop reads a cell every write
        // to it is sequenced-before the read (the cells are atomic only
        // because `trace_count_packet` takes `&[AtomicU64]`).  Each shared
        // `counts` cell has a single writer per launch — caller ordinals are
        // disjoint across packets — so the fetch_add never races another
        // increment to the same cell, and the dispatch join in the launch
        // driver provides the happens-before edge that publishes the totals
        // to the post-join reader.  The `saturating_sub(1)` self-exclusion
        // is exact, not defensive: each cell starts at 0 and receives
        // exactly one flush per query (each query is routed to each
        // overlapping shard at most once by `plan_packet`), so the query's
        // own hit is counted exactly once before subtraction.
        for (pos, cell) in cells.iter().enumerate() {
            let mut count = cell.load(Ordering::Relaxed);
            if exclude_self {
                count = count.saturating_sub(1);
            }
            if count > 0 {
                counts[caller_ordinal(perm, start + pos)].fetch_add(count, Ordering::Relaxed);
            }
        }
        local
    }

    /// The shared sink-mode launch driver: Morton reorder (when configured),
    /// fixed packets, one `tlas_visit` span over the whole launch.  `cancel`
    /// is a runtime parameter — `None` compiles to the exact pre-deadline
    /// launch.  Returns the launch total; the caller decides whether to
    /// surface it (success) or fold it into [`Error::DeadlineExceeded`].
    fn launch_sink(
        &self,
        queries: &[Point3],
        eps: f32,
        sink: &NeighborSink<'_>,
        cancel: Option<&CancelScope>,
    ) -> WorkCounters {
        debug_assert!(eps <= self.eps, "query radius exceeds the build radius");
        let mut setup = WorkCounters::ZERO;
        let reorder = self.morton_guard(queries, &mut setup);
        let (ordered, perm): (&[Point3], Option<&[u32]>) = match reorder.as_deref() {
            Some(g) => (&g.points, Some(&g.perm)),
            None => (queries, None),
        };
        let start_ns = self.telemetry.now_ns();
        let mut span = self.telemetry.span(PhaseKind::TlasVisit);
        let packets = queries.len().div_ceil(self.batch_size);
        let mut total = super::dispatch_batch(
            packets,
            queries.len() >= self.min_parallel_launch,
            |packet| {
                let start = packet * self.batch_size;
                let len = self.batch_size.min(queries.len() - start);
                self.trace_packet_sharded(ordered, perm, start, len, eps, sink, cancel)
            },
        );
        total += setup;
        span.add_counters(total);
        drop(span);
        self.record_launch_metrics(queries.len(), start_ns, &total);
        self.record(&total);
        total
    }

    /// Count-mode twin of [`ShardedIndex::launch_sink`]: same reorder /
    /// packet / span shape, flushing into shared count cells.
    fn launch_counts(
        &self,
        queries: &[Point3],
        eps: f32,
        exclude_self: bool,
        counts: &[AtomicU64],
        cancel: Option<&CancelScope>,
    ) -> WorkCounters {
        debug_assert!(eps <= self.eps, "query radius exceeds the build radius");
        assert_eq!(
            queries.len(),
            counts.len(),
            "one count cell per launched query"
        );
        let mut setup = WorkCounters::ZERO;
        let reorder = self.morton_guard(queries, &mut setup);
        let (ordered, perm): (&[Point3], Option<&[u32]>) = match reorder.as_deref() {
            Some(g) => (&g.points, Some(&g.perm)),
            None => (queries, None),
        };
        let start_ns = self.telemetry.now_ns();
        let mut span = self.telemetry.span(PhaseKind::TlasVisit);
        let packets = queries.len().div_ceil(self.batch_size);
        let mut total = super::dispatch_batch(
            packets,
            queries.len() >= self.min_parallel_launch,
            |packet| {
                let start = packet * self.batch_size;
                let len = self.batch_size.min(queries.len() - start);
                self.trace_count_packet_sharded(
                    ordered,
                    perm,
                    start,
                    len,
                    eps,
                    exclude_self,
                    counts,
                    cancel,
                )
            },
        );
        total += setup;
        span.add_counters(total);
        drop(span);
        self.record_launch_metrics(queries.len(), start_ns, &total);
        self.record(&total);
        total
    }
}

impl NeighborIndex for ShardedIndex {
    fn len(&self) -> usize {
        self.n
    }

    fn eps(&self) -> f32 {
        self.eps
    }

    fn capabilities(&self) -> IndexCapabilities {
        IndexCapabilities {
            kind: IndexKind::WideBatched,
            batched: true,
            compacting: self.compacting,
            refittable: !self.compacting,
            rt_core: true,
        }
    }

    fn build_counters(&self) -> WorkCounters {
        self.build_counters
    }

    fn counters(&self) -> WorkCounters {
        self.build_counters + *self.query_counters.lock()
    }

    fn device_bytes(&self) -> u64 {
        let blas: u64 = self
            .shards
            .iter()
            .map(|s| match s {
                ShardSlot::Live(b) => b.device_bytes(),
                // A quarantined shard keeps only its primitives resident.
                ShardSlot::Degraded(d) => (d.spheres.len() * std::mem::size_of::<Sphere>()) as u64,
                ShardSlot::Retired => 0,
            })
            .sum();
        blas + (self.tlas.nodes.len() * std::mem::size_of::<crate::bvh::TlasNode>()) as u64
    }

    fn representative_of(&self, index: u32) -> u32 {
        self.representative_of
            .get(index as usize)
            .copied()
            .unwrap_or(index)
    }

    fn for_each_neighbor(
        &self,
        query: Point3,
        eps: f32,
        exclude: Option<u32>,
        counters: &mut WorkCounters,
        visit: &mut NeighborVisitor<'_>,
    ) {
        let mut local = WorkCounters::ZERO;
        // analyze-allow: hot-path-alloc -- single-query compatibility path; the batched tracers use pooled ShardScratch
        let mut overlaps = Vec::new();
        self.tlas
            .overlapping(&Ray::epsilon_ray(query), &mut local, &mut overlaps);
        let mut stopped = false;
        for s in overlaps {
            if stopped {
                break;
            }
            match &self.shards[s as usize] {
                ShardSlot::Live(blas) => {
                    // ordering: Relaxed — monotonic popularity tick; nothing
                    // is synchronised through it.
                    self.shard_heat[s as usize].fetch_add(1, Ordering::Relaxed);
                    sat_bump(&mut local.blas_launches, 1);
                    blas.for_each_neighbor(query, eps, exclude, &mut local, &mut |n, c| {
                        let flow = visit(n, c);
                        if flow == NeighborFlow::Stop {
                            stopped = true;
                        }
                        flow
                    });
                }
                ShardSlot::Degraded(deg) => {
                    // ordering: Relaxed — as above.
                    self.shard_heat[s as usize].fetch_add(1, Ordering::Relaxed);
                    sat_bump(&mut local.blas_launches, 1);
                    let eps_sq = eps * eps;
                    sat_bump(&mut local.rays, 1);
                    for sp in &deg.spheres {
                        charge_candidate(self.geometry, &mut local);
                        if exclude == Some(sp.point_index) {
                            continue;
                        }
                        if sp.center.distance_squared(query) <= eps_sq {
                            let n = Neighbor {
                                index: sp.point_index,
                                multiplicity: sp.multiplicity,
                            };
                            if visit(n, &mut local) == NeighborFlow::Stop {
                                stopped = true;
                                break;
                            }
                        }
                    }
                }
                ShardSlot::Retired => continue,
            }
        }
        self.record(&local);
        *counters += local;
    }

    fn batch_neighbors(
        &self,
        queries: &[Point3],
        eps: f32,
        counters: &mut WorkCounters,
        sink: &NeighborSink<'_>,
    ) {
        *counters += self.launch_sink(queries, eps, sink, None);
    }

    fn batch_neighbor_counts(
        &self,
        queries: &[Point3],
        eps: f32,
        exclude_self: bool,
        early_exit: Option<u64>,
        counters: &mut WorkCounters,
        counts: &[AtomicU64],
    ) {
        // `early_exit` is a hint; the sharded path counts exactly (exact
        // counts are >= the capped ones, so `count >= min_pts` core
        // decisions are identical).
        let _ = early_exit;
        *counters += self.launch_counts(queries, eps, exclude_self, counts, None);
    }

    fn batch_neighbors_cancellable(
        &self,
        queries: &[Point3],
        eps: f32,
        counters: &mut WorkCounters,
        sink: &NeighborSink<'_>,
        scope: &CancelScope,
    ) -> Result<()> {
        crate::fail_point!(self.fault, FaultSite::ScratchGrow);
        if self.fault.fire(FaultSite::LaunchDelay) {
            // A simulated stalled launch: the deadline machinery must turn
            // it into a structured error, never a wrong answer.
            scope.trip();
        }
        if scope.should_stop() {
            return Err(Error::DeadlineExceeded {
                // analyze-allow: hot-path-alloc -- boxing the partial counters happens only on the cancelled error path, never in steady state
                partial: Box::new(WorkCounters::ZERO),
            });
        }
        let total = self.launch_sink(queries, eps, sink, Some(scope));
        if scope.tripped() {
            return Err(Error::DeadlineExceeded {
                // analyze-allow: hot-path-alloc -- boxing the partial counters happens only on the cancelled error path, never in steady state
                partial: Box::new(total),
            });
        }
        *counters += total;
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn batch_neighbor_counts_cancellable(
        &self,
        queries: &[Point3],
        eps: f32,
        exclude_self: bool,
        early_exit: Option<u64>,
        counters: &mut WorkCounters,
        counts: &[AtomicU64],
        scope: &CancelScope,
    ) -> Result<()> {
        let _ = early_exit;
        crate::fail_point!(self.fault, FaultSite::ScratchGrow);
        if self.fault.fire(FaultSite::LaunchDelay) {
            scope.trip();
        }
        if scope.should_stop() {
            return Err(Error::DeadlineExceeded {
                // analyze-allow: hot-path-alloc -- boxing the partial counters happens only on the cancelled error path, never in steady state
                partial: Box::new(WorkCounters::ZERO),
            });
        }
        let total = self.launch_counts(queries, eps, exclude_self, counts, Some(scope));
        if scope.tripped() {
            return Err(Error::DeadlineExceeded {
                // analyze-allow: hot-path-alloc -- boxing the partial counters happens only on the cancelled error path, never in steady state
                partial: Box::new(total),
            });
        }
        *counters += total;
        Ok(())
    }

    fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.is_enabled().then_some(&self.telemetry)
    }

    fn remove(&mut self, retired: &[u32]) -> Result<WorkCounters> {
        if self.compacting {
            return Err(Error::InvalidConfig(
                "cannot remove points from a compacting index: merged primitives \
                 stand for several input points"
                    .into(),
            ));
        }
        // Route retirements to their owning shards, refit each touched BLAS
        // in parallel, and drop any BLAS refitted down to nothing.
        // analyze-allow: hot-path-alloc -- refit path: per-shard routing buckets, once per retire batch, not per query
        let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); self.shards.len()];
        for &id in retired {
            if let Some(s) = self.owner_shard(id) {
                per_shard[s as usize].push(id);
            }
        }
        for &id in retired {
            if let Some(slot) = self.owner_shard.get_mut(id as usize) {
                *slot = u32::MAX;
            }
        }
        let work: Vec<Mutex<Option<ShardSlot>>> = std::mem::take(&mut self.shards)
            .into_iter()
            .map(|s| Mutex::new(Some(s)))
            .collect();
        let refitted: Vec<Result<(ShardSlot, WorkCounters)>> = {
            use rayon::prelude::*;
            (0..work.len())
                .into_par_iter()
                .map(|s| {
                    // analyze-allow: lib-unwrap -- each refit slot is wrapped Some above and taken exactly once by its own task
                    let slot = work[s].lock().take().expect("slot consumed once");
                    let dead = &per_shard[s];
                    if dead.is_empty() {
                        return Ok((slot, WorkCounters::ZERO));
                    }
                    match slot {
                        ShardSlot::Live(mut blas) => {
                            let counters = blas.remove(dead)?;
                            // Eviction emptied the shard: drop the whole BLAS.
                            let slot = if blas.wide_scene().is_some() {
                                ShardSlot::Live(blas)
                            } else {
                                ShardSlot::Retired
                            };
                            Ok((slot, counters))
                        }
                        ShardSlot::Degraded(mut deg) => {
                            // The fallback set shrinks in place; retry state
                            // survives the retirement.
                            let before = deg.spheres.len();
                            deg.spheres.retain(|sp| !dead.contains(&sp.point_index));
                            let mut counters = WorkCounters::ZERO;
                            sat_bump(&mut counters.misc_ops, (before - deg.spheres.len()) as u64);
                            let slot = if deg.spheres.is_empty() {
                                ShardSlot::Retired
                            } else {
                                deg.bounds = deg
                                    .spheres
                                    .iter()
                                    .fold(Aabb::EMPTY, |acc, sp| acc.union(&sp.bounds()));
                                ShardSlot::Degraded(deg)
                            };
                            Ok((slot, counters))
                        }
                        ShardSlot::Retired => Ok((ShardSlot::Retired, WorkCounters::ZERO)),
                    }
                })
                .collect()
        };
        let mut total = WorkCounters::ZERO;
        for r in refitted {
            let (slot, counters) = r?;
            total += counters;
            self.shards.push(slot);
        }
        self.n = self.n.saturating_sub(retired.len());
        self.build_counters += total;
        self.rebuild_tlas();
        Ok(total)
    }

    fn update(&mut self, moved: &[(u32, Point3)]) -> Result<WorkCounters> {
        if self.compacting {
            return Err(Error::InvalidConfig(
                "cannot move points of a compacting index: merged primitives \
                 stand for several input points"
                    .into(),
            ));
        }
        // A moved point stays in its owning shard — the refit inflates the
        // BLAS (and then TLAS) bounds exactly like the flat refit inflates
        // the single tree.
        // analyze-allow: hot-path-alloc -- refit path: per-shard routing buckets, once per move batch, not per query
        let mut per_shard: Vec<Vec<(u32, Point3)>> = vec![Vec::new(); self.shards.len()];
        for &(id, p) in moved {
            if let Some(s) = self.owner_shard(id) {
                per_shard[s as usize].push((id, p));
            }
        }
        let work: Vec<Mutex<Option<ShardSlot>>> = std::mem::take(&mut self.shards)
            .into_iter()
            .map(|s| Mutex::new(Some(s)))
            .collect();
        let refitted: Vec<Result<(ShardSlot, WorkCounters)>> = {
            use rayon::prelude::*;
            (0..work.len())
                .into_par_iter()
                .map(|s| {
                    // analyze-allow: lib-unwrap -- each refit slot is wrapped Some above and taken exactly once by its own task
                    let slot = work[s].lock().take().expect("slot consumed once");
                    let shard_moves = &per_shard[s];
                    if shard_moves.is_empty() {
                        return Ok((slot, WorkCounters::ZERO));
                    }
                    match slot {
                        ShardSlot::Live(mut blas) => {
                            let counters = blas.update(shard_moves)?;
                            Ok((ShardSlot::Live(blas), counters))
                        }
                        ShardSlot::Degraded(mut deg) => {
                            // Move the fallback primitives directly; the
                            // bounds are recomputed tight (still enclosing,
                            // which is all the TLAS gate needs).
                            let mut counters = WorkCounters::ZERO;
                            for &(id, p) in shard_moves {
                                if let Some(sp) =
                                    deg.spheres.iter_mut().find(|sp| sp.point_index == id)
                                {
                                    sp.center = p;
                                    sat_bump(&mut counters.misc_ops, 1);
                                }
                            }
                            deg.bounds = deg
                                .spheres
                                .iter()
                                .fold(Aabb::EMPTY, |acc, sp| acc.union(&sp.bounds()));
                            Ok((ShardSlot::Degraded(deg), counters))
                        }
                        ShardSlot::Retired => Ok((ShardSlot::Retired, WorkCounters::ZERO)),
                    }
                })
                .collect()
        };
        let mut total = WorkCounters::ZERO;
        for r in refitted {
            let (slot, counters) = r?;
            total += counters;
            self.shards.push(slot);
        }
        self.build_counters += total;
        self.rebuild_tlas();
        Ok(total)
    }

    fn as_sharded(&self) -> Option<&ShardedIndex> {
        Some(self)
    }

    fn as_sharded_mut(&mut self) -> Option<&mut ShardedIndex> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{Neighbor, NeighborIndexBuilder};

    fn blob_points(n: usize, seed: u64) -> Vec<Point3> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 8.0
        };
        (0..n)
            .map(|i| {
                if i % 11 == 0 {
                    Point3::new(2.0, 2.0, 2.0) // duplicate run
                } else {
                    Point3::new(next(), next(), next())
                }
            })
            .collect()
    }

    fn flat_config() -> NeighborIndexBuilder {
        NeighborIndexBuilder {
            bvh_builder: BuilderKind::Lbvh,
            min_parallel_launch: 0,
            batch_size: 64,
            ..NeighborIndexBuilder::new(IndexKind::WideBatched)
        }
    }

    fn sharded_config(max_shard: usize) -> NeighborIndexBuilder {
        NeighborIndexBuilder {
            sharding: Some(crate::bvh::ShardingConfig::new(max_shard)),
            ..flat_config()
        }
    }

    fn sorted_rows(
        index: &dyn NeighborIndex,
        queries: &[Point3],
        eps: f32,
    ) -> (Vec<Vec<u32>>, WorkCounters) {
        let mut c = WorkCounters::ZERO;
        let csr = index.batch_neighbors_csr(queries, eps, &mut c);
        let rows = (0..queries.len())
            .map(|q| {
                let mut row: Vec<u32> = csr.neighbors(q).to_vec();
                row.sort_unstable();
                row
            })
            .collect();
        (rows, c)
    }

    #[test]
    fn sharded_matches_flat_rows_and_candidate_counters() {
        let pts = blob_points(700, 5);
        let eps = 0.6f32;
        let flat = WideBatchedIndex::build(&flat_config(), &pts, eps).unwrap();
        let sharded = ShardedIndex::build(&sharded_config(64), &pts, eps).unwrap();
        assert!(sharded.shard_count() > 1, "scene must actually shard");

        let (flat_rows, flat_c) = sorted_rows(&flat, &pts, eps);
        let (shard_rows, shard_c) = sorted_rows(&sharded, &pts, eps);
        assert_eq!(flat_rows, shard_rows);
        assert_eq!(flat_c.dist_comps, shard_c.dist_comps);
        assert_eq!(flat_c.prim_tests, shard_c.prim_tests);
        assert!(shard_c.tlas_node_visits > 0);
        assert!(shard_c.blas_launches > 0);
    }

    #[test]
    fn sharded_counts_match_flat_counts() {
        let pts = blob_points(500, 9);
        let eps = 0.5f32;
        let flat = WideBatchedIndex::build(&flat_config(), &pts, eps).unwrap();
        let sharded = ShardedIndex::build(&sharded_config(48), &pts, eps).unwrap();
        for exclude_self in [false, true] {
            let fc: Vec<AtomicU64> = (0..pts.len()).map(|_| AtomicU64::new(0)).collect();
            let sc: Vec<AtomicU64> = (0..pts.len()).map(|_| AtomicU64::new(0)).collect();
            let mut c1 = WorkCounters::ZERO;
            let mut c2 = WorkCounters::ZERO;
            flat.batch_neighbor_counts(&pts, eps, exclude_self, None, &mut c1, &fc);
            sharded.batch_neighbor_counts(&pts, eps, exclude_self, None, &mut c2, &sc);
            for (i, (f, s)) in fc.iter().zip(&sc).enumerate() {
                assert_eq!(
                    f.load(Ordering::Relaxed),
                    s.load(Ordering::Relaxed),
                    "query {i} exclude_self={exclude_self}"
                );
            }
            assert_eq!(c1.dist_comps, c2.dist_comps);
        }
    }

    #[test]
    fn eviction_drops_blases_and_keeps_answers_correct() {
        let pts = blob_points(300, 33);
        let eps = 0.5f32;
        let mut sharded = ShardedIndex::build(&sharded_config(32), &pts, eps).unwrap();
        let before = sharded.live_shard_count();
        // Evict every point of shard 0 → that BLAS must drop.
        let shard0: Vec<u32> = (0..pts.len() as u32)
            .filter(|&i| sharded.owner_shard(i) == Some(0))
            .collect();
        assert!(!shard0.is_empty());
        sharded.remove(&shard0).unwrap();
        assert_eq!(sharded.live_shard_count(), before - 1);
        assert_eq!(sharded.owner_shard(shard0[0]), None);
        // Remaining queries still answer exactly (vs brute force).
        let mut c = WorkCounters::ZERO;
        for q in (0..pts.len()).step_by(17) {
            let mut got = sharded.neighbors_of(pts[q], eps, Some(q as u32), &mut c);
            got.sort_unstable();
            let mut want: Vec<u32> = pts
                .iter()
                .enumerate()
                .filter(|&(j, p)| {
                    j != q
                        && !shard0.contains(&(j as u32))
                        && p.distance_squared(pts[q]) <= eps * eps
                })
                .map(|(j, _)| j as u32)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "query {q}");
        }
    }

    #[test]
    fn empty_scene_builds_and_answers_empty() {
        let sharded = ShardedIndex::build(&sharded_config(32), &[], 1.0).unwrap();
        assert!(sharded.is_empty());
        assert_eq!(sharded.shard_count(), 0);
        let mut c = WorkCounters::ZERO;
        assert!(sharded
            .neighbors_of(Point3::ORIGIN, 1.0, None, &mut c)
            .is_empty());
    }

    #[test]
    fn quarantined_shard_answers_exactly_and_recovers() {
        let pts = blob_points(500, 77);
        let eps = 0.6f32;
        let mut sharded = ShardedIndex::build(&sharded_config(48), &pts, eps).unwrap();
        assert!(sharded.shard_count() > 1);
        let (healthy_rows, healthy_c) = sorted_rows(&sharded, &pts, eps);

        sharded
            .quarantine_shard(0, QuarantineReason::ValidationFailed)
            .unwrap();
        assert_eq!(sharded.degraded_shard_count(), 1);
        assert_eq!(
            sharded.quarantined_shards(),
            vec![(0, QuarantineReason::ValidationFailed)]
        );
        // The exact fallback answers bit-identically, at degraded cost.
        let (degraded_rows, degraded_c) = sorted_rows(&sharded, &pts, eps);
        assert_eq!(healthy_rows, degraded_rows);
        assert!(degraded_c.dist_comps >= healthy_c.dist_comps);

        // Count mode through the fallback too.
        for exclude_self in [false, true] {
            let flat = WideBatchedIndex::build(&flat_config(), &pts, eps).unwrap();
            let fc: Vec<AtomicU64> = (0..pts.len()).map(|_| AtomicU64::new(0)).collect();
            let sc: Vec<AtomicU64> = (0..pts.len()).map(|_| AtomicU64::new(0)).collect();
            let mut c = WorkCounters::ZERO;
            flat.batch_neighbor_counts(&pts, eps, exclude_self, None, &mut c, &fc);
            sharded.batch_neighbor_counts(&pts, eps, exclude_self, None, &mut c, &sc);
            for (i, (f, s)) in fc.iter().zip(&sc).enumerate() {
                assert_eq!(
                    f.load(Ordering::Relaxed),
                    s.load(Ordering::Relaxed),
                    "query {i} exclude_self={exclude_self}"
                );
            }
        }

        // One recovery pass rebuilds the shard to live service with
        // bit-identical query results.
        let stats = sharded.recover(RetryPolicy::default());
        assert_eq!(stats.rebuilt, 1);
        assert_eq!(sharded.degraded_shard_count(), 0);
        let (recovered_rows, _) = sorted_rows(&sharded, &pts, eps);
        assert_eq!(healthy_rows, recovered_rows);
    }

    #[test]
    fn verify_shards_passes_on_a_healthy_scene() {
        let pts = blob_points(300, 13);
        let mut sharded = ShardedIndex::build(&sharded_config(48), &pts, 0.5).unwrap();
        assert!(sharded.verify_shards().is_empty());
        assert_eq!(sharded.degraded_shard_count(), 0);
    }

    #[test]
    fn budget_evicts_coldest_then_refuses() {
        let pts = blob_points(400, 55);
        let eps = 0.5f32;
        let mut sharded = ShardedIndex::build(&sharded_config(48), &pts, eps).unwrap();
        let (healthy_rows, _) = sorted_rows(&sharded, &pts, eps);
        let bytes = sharded.device_bytes();

        // Within budget: nothing degrades.
        sharded.enforce_budget(MemoryBudget::Bytes(bytes)).unwrap();
        assert_eq!(sharded.degraded_shard_count(), 0);
        assert_eq!(sharded.device_bytes(), bytes);

        // Slightly over: evicting the coldest BLAS frees enough.
        sharded
            .enforce_budget(MemoryBudget::Bytes(bytes - 1))
            .unwrap();
        assert_eq!(sharded.degraded_shard_count(), 1, "one eviction suffices");
        assert_eq!(sharded.quarantined_shards()[0].1, QuarantineReason::Evicted);
        assert!(sharded.device_bytes() < bytes);
        let (rows, _) = sorted_rows(&sharded, &pts, eps);
        assert_eq!(healthy_rows, rows, "answers survive the eviction");

        // Absurdly tight: every BLAS evicts and the scene still refuses.
        let err = sharded.enforce_budget(MemoryBudget::Bytes(1)).unwrap_err();
        assert!(matches!(err, Error::OverBudget { budget: 1, .. }));
        assert_eq!(sharded.live_shard_count(), 0);
        assert!(sharded.degraded_shard_count() > 0);
        assert!(sharded
            .quarantined_shards()
            .iter()
            .all(|&(_, r)| r == QuarantineReason::Evicted));
        // Evicted shards still answer exactly through the fallback...
        let (rows, _) = sorted_rows(&sharded, &pts, eps);
        assert_eq!(healthy_rows, rows);
        // ...and rebuild on demand.
        let stats = sharded.recover(RetryPolicy::default());
        assert_eq!(stats.rebuilt, sharded.shard_count());
        assert_eq!(sharded.live_shard_count(), sharded.shard_count());
        let (rows, _) = sorted_rows(&sharded, &pts, eps);
        assert_eq!(healthy_rows, rows);
    }

    #[test]
    fn launches_tick_shard_heat() {
        let pts = blob_points(300, 3);
        let eps = 0.5f32;
        let sharded = ShardedIndex::build(&sharded_config(48), &pts, eps).unwrap();
        let (_, _) = sorted_rows(&sharded, &pts, eps);
        let total: u64 = (0..sharded.shard_count() as u32)
            .map(|s| sharded.shard_heat(s))
            .sum();
        assert!(total > 0, "launches must heat the shards they touch");
    }

    #[test]
    fn cancellable_launch_returns_structured_partial() {
        use crate::fault::{CancelScope, CancelToken};
        let pts = blob_points(300, 8);
        let eps = 0.5f32;
        let sharded = ShardedIndex::build(&sharded_config(48), &pts, eps).unwrap();

        // Pre-cancelled: structured error, zero partial work surfaced.
        let token = CancelToken::new();
        token.cancel();
        let scope = CancelScope::with_token(&token);
        let mut c = WorkCounters::ZERO;
        let sink = |_: usize, _: Neighbor, _: &mut WorkCounters| NeighborFlow::Continue;
        let err = sharded
            .batch_neighbors_cancellable(&pts, eps, &mut c, &sink, &scope)
            .unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded { .. }));
        assert_eq!(c, WorkCounters::ZERO, "partial work is never accumulated");

        // Inactive scope: identical counters to the plain launch.
        let mut plain = WorkCounters::ZERO;
        sharded.batch_neighbors(&pts, eps, &mut plain, &sink);
        let mut checked = WorkCounters::ZERO;
        sharded
            .batch_neighbors_cancellable(&pts, eps, &mut checked, &sink, &CancelScope::none())
            .unwrap();
        assert_eq!(plain, checked, "inactive scope must not perturb counters");
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn poisoned_shards_degrade_at_birth_and_stay_exact() {
        use crate::fault::FaultPlan;
        let pts = blob_points(400, 91);
        let eps = 0.6f32;
        let flat = WideBatchedIndex::build(&flat_config(), &pts, eps).unwrap();
        let config = NeighborIndexBuilder {
            fault: FaultPlan::Seeded { seed: 7, one_in: 1 },
            ..sharded_config(48)
        };
        // `one_in: 1` poisons every shard: the whole scene starts degraded
        // yet still builds and answers exactly.
        let sharded = ShardedIndex::build(&config, &pts, eps).unwrap();
        assert_eq!(sharded.live_shard_count(), 0);
        assert_eq!(sharded.degraded_shard_count(), sharded.shard_count());
        let (flat_rows, _) = sorted_rows(&flat, &pts, eps);
        let (shard_rows, _) = sorted_rows(&sharded, &pts, eps);
        assert_eq!(flat_rows, shard_rows);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn rebuild_retries_back_off_and_exhaust() {
        use crate::fault::FaultPlan;
        let pts = blob_points(300, 17);
        let eps = 0.5f32;
        let config = NeighborIndexBuilder {
            fault: FaultPlan::Seeded { seed: 3, one_in: 1 },
            ..sharded_config(48)
        };
        let mut sharded = ShardedIndex::build(&config, &pts, eps).unwrap();
        let degraded = sharded.degraded_shard_count();
        assert!(degraded > 0);
        let policy = RetryPolicy::default();
        // `one_in: 1` also fails every rebuild attempt; drive recovery past
        // the attempt cap and the shards must exhaust, not panic or loop.
        let mut saw_deferred = false;
        let mut last = RecoveryStats::default();
        for _ in 0..32 {
            last = sharded.recover(policy);
            saw_deferred |= last.deferred > 0;
        }
        assert_eq!(last.exhausted, degraded, "every shard exhausts its budget");
        assert!(saw_deferred, "backoff must defer attempts between retries");
        // Exhausted shards keep answering exactly through the fallback.
        let flat = WideBatchedIndex::build(&flat_config(), &pts, eps).unwrap();
        let (flat_rows, _) = sorted_rows(&flat, &pts, eps);
        let (shard_rows, _) = sorted_rows(&sharded, &pts, eps);
        assert_eq!(flat_rows, shard_rows);
    }
}

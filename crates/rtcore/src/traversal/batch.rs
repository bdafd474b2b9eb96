//! Batched traversal over wide (BVH4) scenes.
//!
//! Two engines are provided on top of [`WideBvh`]:
//!
//! * [`traverse_wide`] — one ray, wide nodes: each visit tests the ray
//!   against all four packed child boxes (one
//!   [`WorkCounters::wide_node_visits`] instead of the several binary
//!   `node_visits` the collapsed levels used to cost).
//! * [`traverse_batch`] — a *ray packet*: a slice of queries walks the tree
//!   together in wavefront order.  Each wide node the packet reaches is
//!   fetched **once** and tested against every query still interested in it,
//!   so the per-node charge is amortised across the packet — the software
//!   analogue of the many-rays-in-flight scheduling real RT cores perform.
//!   Per-query hit callbacks and early termination behave exactly as in the
//!   single-ray engine: a query that terminates stops receiving callbacks
//!   while the rest of the packet continues.
//!
//! Both engines report the same hits as the binary
//! [`crate::traversal::traverse`] over the source tree (the collapse shares
//! the primitive array, so even hit grouping per leaf is identical); only
//! the node-visit accounting differs.  The equivalence is property-tested
//! here and again end-to-end in the workspace integration suite.
//!
//! # The allocation-free steady state
//!
//! The wavefront engine keeps **no per-node heap state**: the queries that
//! reach each node live in the flat segment arena of a
//! [`TraversalScratch`], addressed by explicit `(node, seg_start, seg_len)`
//! frames, and each packet's query origins are staged once into the
//! scratch's SoA lanes so the 4-child box test reads three contiguous `f32`
//! arrays instead of gathering from `Ray` structs.  Callers that launch
//! repeatedly should hold a scratch (or a
//! [`crate::traversal::ScratchPool`]) and use
//! [`traverse_batch_with_scratch`]; the plain [`traverse_batch`] entry
//! point allocates a one-shot scratch per call for convenience.

use crate::bvh::wide::{WideBvh, WideChild, WIDE_BRANCHING};
use crate::bvh::WideNode;
use crate::fault::CancelScope;
use crate::geometry::{Ray, Sphere};
use crate::hardware::sat_bump;
use crate::hardware::WorkCounters;
use crate::index::CsrNeighbors;
use crate::simd::{detect_simd, SimdLevel};
use crate::traversal::scratch::SegFrame;
use crate::traversal::{NoSink, Traversal, TraversalOutcome, TraversalScratch, VisitSink};

// ---------------------------------------------------------------------------
// Hit-mask kernels: the wavefront engine is generic over the kernel
// (scalar / SSE2 / AVX2), monomorphised per launch so the inner loops
// carry no dispatch.
// ---------------------------------------------------------------------------

/// Number of non-empty child slots — the lanes the lockstep box unit
/// charges for.
#[inline]
fn occupied_slots(node: &WideNode) -> u64 {
    node.children
        .iter()
        .filter(|c| **c != WideChild::Empty)
        .count() as u64
}

/// 4-bit hit mask for a general (non-point) ray: four slab tests against
/// the slot boxes.  Empty slots can never set their bit.
#[inline]
fn ray_mask(node: &WideNode, ray: &Ray) -> u8 {
    if ray.is_point_query() {
        return node.point_hit_mask(ray.origin);
    }
    let mut mask = 0u8;
    for slot in 0..WIDE_BRANCHING {
        if node.child_bounds(slot).intersects_ray(ray) {
            mask |= 1 << slot;
        }
    }
    mask
}

/// A point hit-mask kernel, monomorphised into the engine body so the
/// SIMD level is selected exactly once per launch — never per node.
pub(crate) trait MaskKernel {
    /// 4-bit containment mask of `(x, y, z)` against the node's slots.
    fn mask(node: &WideNode, x: f32, y: f32, z: f32) -> u8;
}

/// The portable scalar kernel (and the bit-exactness oracle).
pub(crate) struct KernelScalar;

/// The SSE2 lane-compare kernel (baseline on `x86_64`).
#[cfg(target_arch = "x86_64")]
pub(crate) struct KernelSse2;

/// The AVX2 kernel (runtime-detected before selection).
#[cfg(target_arch = "x86_64")]
pub(crate) struct KernelAvx2;

impl MaskKernel for KernelScalar {
    #[inline]
    fn mask(node: &WideNode, x: f32, y: f32, z: f32) -> u8 {
        node.point_hit_mask_xyz(x, y, z)
    }
}

#[cfg(target_arch = "x86_64")]
impl MaskKernel for KernelSse2 {
    #[inline]
    fn mask(node: &WideNode, x: f32, y: f32, z: f32) -> u8 {
        node.point_hit_mask_xyz_sse2(x, y, z)
    }
}

#[cfg(target_arch = "x86_64")]
impl MaskKernel for KernelAvx2 {
    #[inline]
    fn mask(node: &WideNode, x: f32, y: f32, z: f32) -> u8 {
        // SAFETY: `KernelAvx2` is only selected after runtime detection
        // (see `traverse_batch_runs_with_scratch_sink_cancel`).
        unsafe { node.point_hit_mask_xyz_avx2(x, y, z) }
    }
}

/// Single-ray wide traversal over a caller-provided node stack (the scratch
/// and one-shot entry points share this body).
fn traverse_wide_on_stack<S, F>(
    wide: &WideBvh,
    ray: &Ray,
    stack: &mut Vec<u32>,
    counters: &mut WorkCounters,
    sink: S,
    mut on_primitive: F,
) -> TraversalOutcome
where
    S: VisitSink,
    F: FnMut(&Sphere, &mut WorkCounters) -> Traversal,
{
    let mut outcome = TraversalOutcome {
        terminated_early: false,
        primitives_visited: 0,
    };
    if wide.nodes.is_empty() {
        return outcome;
    }
    // Root test against the scene bounds, mirroring the binary engine.
    sat_bump(&mut counters.aabb_tests, 1);
    if !wide.scene_bounds.intersects_ray(ray) {
        return outcome;
    }

    stack.clear();
    stack.push(0);
    'outer: while let Some(idx) = stack.pop() {
        let node = &wide.nodes[idx as usize];
        sat_bump(&mut counters.wide_node_visits, 1);
        sink.visit(idx);
        sat_bump(&mut counters.aabb_tests, occupied_slots(node));
        let mask = ray_mask(node, ray);
        for slot in 0..WIDE_BRANCHING {
            if mask & (1 << slot) == 0 {
                continue;
            }
            match node.children[slot] {
                WideChild::Empty => {}
                WideChild::Node(child) => {
                    stack.push(child);
                }
                WideChild::Leaf {
                    first_prim,
                    prim_count,
                } => {
                    let first = first_prim as usize;
                    let count = prim_count as usize;
                    for prim in &wide.primitives[first..first + count] {
                        sat_bump(&mut counters.prim_tests, 1);
                        outcome.primitives_visited += 1;
                        if on_primitive(prim, counters) == Traversal::Terminate {
                            outcome.terminated_early = true;
                            break 'outer;
                        }
                    }
                }
            }
        }
    }
    outcome
}

/// Traverse a wide scene with a single ray, invoking `on_primitive` for
/// every primitive in every leaf slot whose box the ray reaches.
///
/// Work is recorded as `wide_node_visits` (one per wide node) plus one
/// `aabb_tests` per occupied child slot — the four boxes are tested in one
/// lockstep lane compare ([`crate::bvh::WideNode::point_hit_mask`]), but each occupied
/// lane is still a box test as far as the cost model is concerned.
pub fn traverse_wide<F>(
    wide: &WideBvh,
    ray: &Ray,
    counters: &mut WorkCounters,
    on_primitive: F,
) -> TraversalOutcome
where
    F: FnMut(&Sphere, &mut WorkCounters) -> Traversal,
{
    let mut stack: Vec<u32> = Vec::with_capacity(32);
    traverse_wide_on_stack(wide, ray, &mut stack, counters, NoSink, on_primitive)
}

/// [`traverse_wide`] reusing the node stack of a caller-held scratch —
/// zero allocations once the stack has grown to the tree's depth.
pub fn traverse_wide_with_scratch<F>(
    wide: &WideBvh,
    ray: &Ray,
    scratch: &mut TraversalScratch,
    counters: &mut WorkCounters,
    on_primitive: F,
) -> TraversalOutcome
where
    F: FnMut(&Sphere, &mut WorkCounters) -> Traversal,
{
    traverse_wide_with_scratch_sink(wide, ray, scratch, counters, NoSink, on_primitive)
}

/// [`traverse_wide_with_scratch`] with a node-visit sink for the heatmap
/// profiler; `NoSink` monomorphises back to the plain body.
pub(crate) fn traverse_wide_with_scratch_sink<S, F>(
    wide: &WideBvh,
    ray: &Ray,
    scratch: &mut TraversalScratch,
    counters: &mut WorkCounters,
    sink: S,
    on_primitive: F,
) -> TraversalOutcome
where
    S: VisitSink,
    F: FnMut(&Sphere, &mut WorkCounters) -> Traversal,
{
    traverse_wide_on_stack(
        wide,
        ray,
        &mut scratch.node_stack,
        counters,
        sink,
        on_primitive,
    )
}

/// Traverse a wide scene with a packet of rays in wavefront order.
///
/// All rays walk the tree together: every wide node reached by at least one
/// live ray is fetched and visited **once** (`wide_node_visits += 1`), with
/// each live ray lane-tested against the node's non-empty child slots
/// (`aabb_tests` per ray × slot).  `on_primitive` receives the packet-local
/// query index alongside the primitive; returning [`Traversal::Terminate`]
/// retires that query only — the rest of the packet continues.
///
/// One call is one batched launch (`batched_launches += 1`).  Returns a
/// per-query [`TraversalOutcome`] in packet order.
///
/// This convenience entry point allocates a one-shot scratch; hot callers
/// reuse one via [`traverse_batch_with_scratch`].
pub fn traverse_batch<F>(
    wide: &WideBvh,
    rays: &[Ray],
    counters: &mut WorkCounters,
    on_primitive: F,
) -> Vec<TraversalOutcome>
where
    F: FnMut(usize, &Sphere, &mut WorkCounters) -> Traversal,
{
    let mut scratch = TraversalScratch::default();
    // analyze-allow: hot-path-alloc -- owned-result convenience wrapper; hot callers use the _with_scratch form
    traverse_batch_with_scratch(wide, rays, &mut scratch, counters, on_primitive).to_vec()
}

/// What a leaf handler did with one query's run of candidate primitives
/// (see [`traverse_batch_runs_with_scratch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafVisit {
    /// Number of primitives actually processed, counting the one that
    /// triggered termination.  The engine charges `prim_tests` and the
    /// query's `primitives_visited` from this.
    pub visited: u32,
    /// True to retire the query (no further callbacks for it).
    pub terminate: bool,
}

impl LeafVisit {
    /// A handler outcome that processed every primitive of the run and
    /// keeps the query alive.
    pub fn all(prims: &[Sphere]) -> LeafVisit {
        LeafVisit {
            visited: prims.len() as u32,
            terminate: false,
        }
    }
}

/// [`traverse_batch`] over a caller-held [`TraversalScratch`]: the segment
/// arena, frame stack, SoA lanes, alive flags and outcomes all reuse the
/// scratch's grow-only buffers, so repeated launches perform no heap
/// allocation after the first.  Returns the per-query outcomes as a slice
/// borrowed from the scratch.
pub fn traverse_batch_with_scratch<'s, F>(
    wide: &WideBvh,
    rays: &[Ray],
    scratch: &'s mut TraversalScratch,
    counters: &mut WorkCounters,
    on_primitive: F,
) -> &'s [TraversalOutcome]
where
    F: FnMut(usize, &Sphere, &mut WorkCounters) -> Traversal,
{
    traverse_batch_with_scratch_sink(
        wide,
        rays,
        scratch,
        counters,
        detect_simd(),
        NoSink,
        None,
        on_primitive,
    )
}

/// The per-primitive callback form of the wavefront engine with a
/// node-visit sink for the heatmap profiler, an optional [`CancelScope`]
/// and the hit-mask SIMD `level` resolved once by the caller (see
/// [`crate::simd::SimdPolicy::resolve`]); `NoSink` + `None`
/// monomorphises back to the plain body.
#[allow(clippy::too_many_arguments)]
pub(crate) fn traverse_batch_with_scratch_sink<'s, S, F>(
    wide: &WideBvh,
    rays: &[Ray],
    scratch: &'s mut TraversalScratch,
    counters: &mut WorkCounters,
    level: SimdLevel,
    sink: S,
    cancel: Option<&CancelScope>,
    mut on_primitive: F,
) -> &'s [TraversalOutcome]
where
    S: VisitSink,
    F: FnMut(usize, &Sphere, &mut WorkCounters) -> Traversal,
{
    let prims = &wide.primitives;
    traverse_batch_runs_with_scratch_sink_cancel(
        wide,
        rays,
        scratch,
        counters,
        level,
        sink,
        cancel,
        move |q, first, count, counters| {
            let mut visited = 0u32;
            for prim in &prims[first as usize..(first + count) as usize] {
                visited += 1;
                if on_primitive(q, prim, counters) == Traversal::Terminate {
                    return LeafVisit {
                        visited,
                        terminate: true,
                    };
                }
            }
            LeafVisit {
                visited,
                terminate: false,
            }
        },
    )
}

/// The lowest-level wavefront entry point: `on_run` receives one query's
/// whole candidate run per reached leaf slot as a **primitive range**
/// `(packet-local query, first_prim, prim_count, packet counters)` —
/// the shape the SIMD leaf kernels consume directly from the scene's SoA
/// primitive lanes ([`crate::bvh::PrimLanes`]) without materialising a
/// `&[Sphere]` slice.
///
/// `level` selects the hit-mask kernel **once for the whole launch**
/// (resolve a [`crate::simd::SimdPolicy`] first); the engine body is
/// monomorphised per kernel, so the per-node loop contains no dispatch.
/// Counted work and traversal order are identical across SIMD levels.
pub fn traverse_batch_runs_with_scratch<'s, F>(
    wide: &WideBvh,
    rays: &[Ray],
    scratch: &'s mut TraversalScratch,
    counters: &mut WorkCounters,
    level: SimdLevel,
    on_run: F,
) -> &'s [TraversalOutcome]
where
    F: FnMut(usize, u32, u32, &mut WorkCounters) -> LeafVisit,
{
    traverse_batch_runs_with_scratch_sink_cancel(
        wide, rays, scratch, counters, level, NoSink, None, on_run,
    )
}

/// [`traverse_batch_runs_with_scratch`] with a node-visit sink for the
/// heatmap profiler and an optional [`CancelScope`].  The sink joins the
/// kernel monomorphisation key, so the `NoSink` instantiations are exactly
/// the engine bodies that exist without profiling — zero extra work on
/// the default path.  The scope is a **runtime** parameter — it does not
/// join the monomorphisation key, so the cancellable and plain paths share
/// the exact same engine bodies and the inert case costs one predictable
/// null-check branch per frontier pop (measured ≤1% in the hotpath bench).
///
/// When the scope trips, the engine winds down mid-wavefront: the caller
/// MUST treat the outcome slice and any sink/`on_run` output as garbage,
/// check [`CancelScope::tripped`] after the call, and surface
/// [`crate::Error::DeadlineExceeded`] instead of results.
#[allow(clippy::too_many_arguments)]
pub(crate) fn traverse_batch_runs_with_scratch_sink_cancel<'s, S, F>(
    wide: &WideBvh,
    rays: &[Ray],
    scratch: &'s mut TraversalScratch,
    counters: &mut WorkCounters,
    level: SimdLevel,
    sink: S,
    cancel: Option<&CancelScope>,
    on_run: F,
) -> &'s [TraversalOutcome]
where
    S: VisitSink,
    F: FnMut(usize, u32, u32, &mut WorkCounters) -> LeafVisit,
{
    match level {
        SimdLevel::Scalar => wavefront_core::<KernelScalar, S, F>(
            wide, rays, scratch, counters, sink, cancel, on_run,
        ),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            wavefront_core::<KernelSse2, S, F>(wide, rays, scratch, counters, sink, cancel, on_run)
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            wavefront_core::<KernelAvx2, S, F>(wide, rays, scratch, counters, sink, cancel, on_run)
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => wavefront_core::<KernelScalar, S, F>(
            wide, rays, scratch, counters, sink, cancel, on_run,
        ),
    }
}

/// Frontier pops between wall-clock deadline reads: fine polls (one flag
/// load) happen every pop, the coarse poll (clock read) only this often.
const CANCEL_POLL_INTERVAL: u32 = 64;

/// The monomorphic wavefront engine body: one instantiation per mask
/// kernel.
fn wavefront_core<'s, K, S, F>(
    wide: &WideBvh,
    rays: &[Ray],
    scratch: &'s mut TraversalScratch,
    counters: &mut WorkCounters,
    sink: S,
    cancel: Option<&CancelScope>,
    mut on_run: F,
) -> &'s [TraversalOutcome]
where
    K: MaskKernel,
    S: VisitSink,
    F: FnMut(usize, u32, u32, &mut WorkCounters) -> LeafVisit,
{
    let n = rays.len();
    scratch.outcomes.clear();
    scratch.outcomes.resize(
        n,
        TraversalOutcome {
            terminated_early: false,
            primitives_visited: 0,
        },
    );
    if n == 0 {
        return &scratch.outcomes;
    }
    sat_bump(&mut counters.batched_launches, 1);
    if wide.nodes.is_empty() {
        return &scratch.outcomes;
    }
    // Packet-launch granularity: an already-tripped scope skips the launch
    // before any staging work.
    if cancel.is_some_and(CancelScope::should_stop) {
        return &scratch.outcomes;
    }

    // Stage the packet's query origins into the SoA lanes once; the
    // per-node box test then reads three contiguous f32 arrays instead of
    // gathering 48-byte `Ray` structs.
    let all_point_queries = scratch.stage_origins(rays);

    let TraversalScratch {
        arena,
        frames,
        alive,
        outcomes,
        live,
        masks,
        qx,
        qy,
        qz,
        ..
    } = scratch;

    // Root scene-bounds test retires rays that miss the scene entirely.
    arena.clear();
    frames.clear();
    for (q, ray) in rays.iter().enumerate() {
        sat_bump(&mut counters.aabb_tests, 1);
        if wide.scene_bounds.intersects_ray(ray) {
            arena.push(q as u32);
        }
    }
    if arena.is_empty() {
        return outcomes;
    }

    alive.clear();
    alive.resize(n, true);
    frames.push(SegFrame {
        node: 0,
        seg_start: 0,
        seg_len: arena.len() as u32,
    });

    // Cooperative cancellation at wide-node-frontier granularity: every
    // pop does one latch load; the clock is only read every
    // `CANCEL_POLL_INTERVAL` pops.  A `None` scope reduces each pop's
    // check to one predictable branch, and the counters charged below are
    // untouched by the polls, so the uncancelled path stays bit-identical.
    let mut pops_since_poll = 0u32;
    while let Some(frame) = frames.pop() {
        if let Some(scope) = cancel {
            pops_since_poll += 1;
            let coarse = pops_since_poll >= CANCEL_POLL_INTERVAL;
            if coarse {
                pops_since_poll = 0;
            }
            if scope.tripped() || (coarse && scope.should_stop()) {
                // Wind down mid-wavefront.  Outcomes and sink output are
                // partial; the driver discards them and reports
                // `Error::DeadlineExceeded` with the counters so far.
                break;
            }
        }
        let node = &wide.nodes[frame.node as usize];
        let seg_start = frame.seg_start as usize;
        // LIFO discipline: the popped frame's segment is the arena suffix.
        debug_assert_eq!(seg_start + frame.seg_len as usize, arena.len());

        // Lockstep lane compare of every live query against all four child
        // boxes at once; queries that terminated while this frame sat on
        // the stack drop out here.  The mask is computed exactly once per
        // (node, query), through the kernel `K` selected for the launch.
        live.clear();
        masks.clear();
        for &q in &arena[seg_start..] {
            let qi = q as usize;
            if alive[qi] {
                let mask = if all_point_queries {
                    K::mask(node, qx[qi], qy[qi], qz[qi])
                } else {
                    ray_mask(node, &rays[qi])
                };
                live.push(q);
                masks.push(mask);
            }
        }
        // The frame's segment is consumed; reclaim its arena space before
        // publishing child segments.
        arena.truncate(seg_start);
        if live.is_empty() {
            continue;
        }
        sat_bump(&mut counters.wide_node_visits, 1);
        sink.visit(frame.node);
        sat_bump(
            &mut counters.aabb_tests,
            occupied_slots(node) * live.len() as u64,
        );

        for slot in 0..WIDE_BRANCHING {
            let bit = 1u8 << slot;
            let child_start = arena.len();
            for (k, &q) in live.iter().enumerate() {
                if masks[k] & bit != 0 && alive[q as usize] {
                    arena.push(q);
                }
            }
            if arena.len() == child_start {
                continue;
            }
            match node.children[slot] {
                WideChild::Empty => {
                    unreachable!("empty slots can never match the hit mask")
                }
                WideChild::Node(child) => {
                    // The surviving queries stay parked in the arena; the
                    // frame records where.
                    frames.push(SegFrame {
                        node: child,
                        seg_start: child_start as u32,
                        seg_len: (arena.len() - child_start) as u32,
                    });
                }
                WideChild::Leaf {
                    first_prim,
                    prim_count,
                } => {
                    for &q in &arena[child_start..] {
                        let qi = q as usize;
                        let visit = on_run(qi, first_prim, prim_count, counters);
                        sat_bump(&mut counters.prim_tests, visit.visited as u64);
                        let outcome = &mut outcomes[qi];
                        outcome.primitives_visited += visit.visited as u64;
                        if visit.terminate {
                            outcome.terminated_early = true;
                            alive[qi] = false;
                        }
                    }
                    // Leaf segments are consumed immediately.
                    arena.truncate(child_start);
                }
            }
        }
    }
    outcomes
}

/// Convenience batched query mirroring
/// [`crate::traversal::collect_sphere_hits`]: for each ray, the
/// `point_index` of every sphere it actually hits (exact sphere test),
/// excluding the matching entry of `exclude` (per-query self-intersection
/// filter; pass an empty slice for no exclusions).
pub fn collect_sphere_hits_batch(
    wide: &WideBvh,
    rays: &[Ray],
    exclude: &[Option<u32>],
    counters: &mut WorkCounters,
) -> Vec<Vec<u32>> {
    // analyze-allow: hot-path-alloc -- owned-result convenience helper for tests/tools, one alloc per call, not per visit
    let mut hits: Vec<Vec<u32>> = vec![Vec::new(); rays.len()];
    traverse_batch(wide, rays, counters, |q, sphere, counters| {
        sat_bump(&mut counters.dist_comps, 1);
        if sphere.intersects_ray(&rays[q])
            && exclude.get(q).copied().flatten() != Some(sphere.point_index)
        {
            hits[q].push(sphere.point_index);
        }
        Traversal::Continue
    });
    hits
}

/// CSR-mode variant of [`collect_sphere_hits_batch`]: the same traversal
/// and identical counters, but the per-ray hit lists land in one
/// [`CsrNeighbors`] (flat `offsets` + `indices`) instead of a
/// `Vec<Vec<u32>>` — one output structure for the whole packet, rebuilt in
/// place so a reused `out` (and `scratch`) makes the steady state
/// allocation-free.  Hit order within each ray matches the callback order
/// of the wavefront traversal.
pub fn collect_sphere_hits_csr(
    wide: &WideBvh,
    rays: &[Ray],
    exclude: &[Option<u32>],
    scratch: &mut TraversalScratch,
    counters: &mut WorkCounters,
    out: &mut CsrNeighbors,
) {
    let mut pairs = std::mem::take(&mut scratch.pairs);
    pairs.clear();
    traverse_batch_with_scratch(wide, rays, scratch, counters, |q, sphere, counters| {
        sat_bump(&mut counters.dist_comps, 1);
        if sphere.intersects_ray(&rays[q])
            && exclude.get(q).copied().flatten() != Some(sphere.point_index)
        {
            pairs.push((q as u32, sphere.point_index));
        }
        Traversal::Continue
    });
    out.rebuild_from_pairs(rays.len(), &pairs);
    scratch.pairs = pairs;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvh::{
        spheres_from_points, BvhBuilder, LbvhBuilder, MedianSplitBuilder, SahBuilder, WideBvh,
    };
    use crate::geometry::Point3;
    use crate::traversal::collect_sphere_hits;

    fn scatter(n: usize) -> Vec<Point3> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Point3::new(
                    ((h >> 8) & 0xFF) as f32 * 0.11,
                    ((h >> 24) & 0xFF) as f32 * 0.11,
                    ((h >> 40) & 0x3) as f32 * 0.11,
                )
            })
            .collect()
    }

    #[test]
    fn wide_single_ray_matches_binary_for_every_builder() {
        let points = scatter(400);
        let radius = 0.9;
        let builders: Vec<Box<dyn BvhBuilder>> = vec![
            Box::new(LbvhBuilder::default()),
            Box::new(SahBuilder::default()),
            Box::new(MedianSplitBuilder::default()),
        ];
        for builder in builders {
            let bvh = builder.build(spheres_from_points(&points, radius)).unwrap();
            let wide = WideBvh::from_binary(&bvh);
            for q in [0usize, 13, 200, 399] {
                let ray = Ray::epsilon_ray(points[q]);
                let mut bc = WorkCounters::ZERO;
                let mut binary = collect_sphere_hits(&bvh, &ray, Some(q as u32), &mut bc);
                binary.sort_unstable();
                let mut wc = WorkCounters::ZERO;
                let mut wide_hits = Vec::new();
                traverse_wide(&wide, &ray, &mut wc, |sphere, counters| {
                    counters.dist_comps += 1;
                    if sphere.intersects_ray(&ray) && sphere.point_index != q as u32 {
                        wide_hits.push(sphere.point_index);
                    }
                    Traversal::Continue
                });
                wide_hits.sort_unstable();
                assert_eq!(wide_hits, binary, "builder {:?} query {q}", builder.kind());
                assert!(wc.wide_node_visits > 0);
                assert_eq!(wc.node_visits, 0);
                // Collapsing levels must not increase node visits.
                assert!(wc.wide_node_visits <= bc.node_visits);
            }
        }
    }

    #[test]
    fn batch_matches_per_ray_hits_and_amortises_node_visits() {
        let points = scatter(600);
        let radius = 1.1;
        let bvh = LbvhBuilder::default()
            .build(spheres_from_points(&points, radius))
            .unwrap();
        let wide = WideBvh::from_binary(&bvh);
        let rays: Vec<Ray> = points.iter().map(|&p| Ray::epsilon_ray(p)).collect();
        let exclude: Vec<Option<u32>> = (0..points.len()).map(|i| Some(i as u32)).collect();

        let mut batch_counters = WorkCounters::ZERO;
        let batch_hits = collect_sphere_hits_batch(&wide, &rays, &exclude, &mut batch_counters);
        assert_eq!(batch_counters.batched_launches, 1);

        let mut single_counters = WorkCounters::ZERO;
        let mut single_wide_visits = 0u64;
        for (i, ray) in rays.iter().enumerate() {
            let mut c = WorkCounters::ZERO;
            let mut expected = collect_sphere_hits(&bvh, ray, Some(i as u32), &mut single_counters);
            expected.sort_unstable();
            let mut got = batch_hits[i].clone();
            got.sort_unstable();
            assert_eq!(got, expected, "query {i}");
            traverse_wide(&wide, ray, &mut c, |_, _| Traversal::Continue);
            single_wide_visits += c.wide_node_visits;
        }
        // The packet shares node fetches: strictly fewer wide visits than
        // running the same queries one at a time, and far fewer than the
        // binary engine's node visits.
        assert!(
            batch_counters.wide_node_visits < single_wide_visits,
            "batch {} vs singles {}",
            batch_counters.wide_node_visits,
            single_wide_visits
        );
        assert!(batch_counters.wide_node_visits < single_counters.node_visits);
    }

    #[test]
    fn per_query_early_termination_is_isolated() {
        // Dense scene: every query overlaps everything.
        let points: Vec<Point3> = (0..64)
            .map(|i| Point3::new(i as f32 * 0.01, 0.0, 0.0))
            .collect();
        let bvh = SahBuilder::default()
            .build(spheres_from_points(&points, 50.0))
            .unwrap();
        let wide = WideBvh::from_binary(&bvh);
        let rays: Vec<Ray> = points.iter().map(|&p| Ray::epsilon_ray(p)).collect();
        let mut counters = WorkCounters::ZERO;
        let mut seen = vec![0u32; rays.len()];
        let outcomes = traverse_batch(&wide, &rays, &mut counters, |q, _, _| {
            seen[q] += 1;
            if q == 0 && seen[q] >= 3 {
                Traversal::Terminate
            } else {
                Traversal::Continue
            }
        });
        assert!(outcomes[0].terminated_early);
        assert_eq!(outcomes[0].primitives_visited, 3);
        for (q, outcome) in outcomes.iter().enumerate().skip(1) {
            assert!(!outcome.terminated_early);
            assert_eq!(outcome.primitives_visited, 64, "query {q}");
        }
    }

    #[test]
    fn empty_scene_and_empty_packet() {
        let empty = WideBvh::from_binary(&crate::bvh::Bvh {
            nodes: vec![],
            primitives: vec![],
            builder: crate::bvh::BuilderKind::Lbvh,
            build_counters: WorkCounters::ZERO,
        });
        let mut counters = WorkCounters::ZERO;
        let rays = vec![Ray::epsilon_ray(Point3::ORIGIN)];
        let outcomes = traverse_batch(&empty, &rays, &mut counters, |_, _, _| Traversal::Continue);
        assert_eq!(outcomes[0].primitives_visited, 0);
        assert_eq!(counters.batched_launches, 1);
        assert_eq!(counters.wide_node_visits, 0);

        let points = vec![Point3::ORIGIN];
        let bvh = LbvhBuilder::default()
            .build(spheres_from_points(&points, 1.0))
            .unwrap();
        let wide = WideBvh::from_binary(&bvh);
        let mut counters = WorkCounters::ZERO;
        let outcomes = traverse_batch(&wide, &[], &mut counters, |_, _, _| Traversal::Continue);
        assert!(outcomes.is_empty());
        assert_eq!(counters, WorkCounters::ZERO);
    }

    #[test]
    fn rays_outside_the_scene_are_retired_at_the_root() {
        let points = scatter(100);
        let bvh = LbvhBuilder::default()
            .build(spheres_from_points(&points, 0.5))
            .unwrap();
        let wide = WideBvh::from_binary(&bvh);
        let rays = vec![
            Ray::epsilon_ray(Point3::new(1e6, 1e6, 0.0)),
            Ray::epsilon_ray(Point3::new(-1e6, 0.0, 0.0)),
        ];
        let mut counters = WorkCounters::ZERO;
        let hits = collect_sphere_hits_batch(&wide, &rays, &[], &mut counters);
        assert!(hits.iter().all(Vec::is_empty));
        assert_eq!(counters.wide_node_visits, 0);
        assert_eq!(counters.aabb_tests, 2);
    }

    #[test]
    fn duplicate_points_batch_equivalence() {
        let mut points: Vec<Point3> = (0..40).map(|_| Point3::new(2.0, 2.0, 0.0)).collect();
        points.extend((0..40).map(|i| Point3::new(10.0 + i as f32 * 0.3, 0.0, 0.0)));
        let bvh = LbvhBuilder::default()
            .build(spheres_from_points(&points, 0.6))
            .unwrap();
        let wide = WideBvh::from_binary(&bvh);
        let rays: Vec<Ray> = points.iter().map(|&p| Ray::epsilon_ray(p)).collect();
        let exclude: Vec<Option<u32>> = (0..points.len()).map(|i| Some(i as u32)).collect();
        let mut counters = WorkCounters::ZERO;
        let batch = collect_sphere_hits_batch(&wide, &rays, &exclude, &mut counters);
        for (i, ray) in rays.iter().enumerate() {
            let mut c = WorkCounters::ZERO;
            let mut expected = collect_sphere_hits(&bvh, ray, Some(i as u32), &mut c);
            expected.sort_unstable();
            let mut got = batch[i].clone();
            got.sort_unstable();
            assert_eq!(got, expected, "query {i}");
        }
    }

    #[test]
    fn scratch_reuse_across_differently_shaped_launches() {
        // Larger → smaller → larger packets, an empty scene in between, and
        // a single-query launch: every launch over a reused scratch must
        // report exactly what a fresh scratch reports (counters included).
        let points = scatter(500);
        let bvh = SahBuilder::default()
            .build(spheres_from_points(&points, 0.8))
            .unwrap();
        let wide = WideBvh::from_binary(&bvh);
        let empty = WideBvh::from_binary(&crate::bvh::Bvh {
            nodes: vec![],
            primitives: vec![],
            builder: crate::bvh::BuilderKind::Lbvh,
            build_counters: WorkCounters::ZERO,
        });
        let rays: Vec<Ray> = points.iter().map(|&p| Ray::epsilon_ray(p)).collect();

        let mut reused = TraversalScratch::default();
        let shapes: [(usize, bool); 5] = [
            (400, false),
            (7, false),
            (0, true),
            (1, false),
            (500, false),
        ];
        for (len, use_empty) in shapes {
            let scene = if use_empty { &empty } else { &wide };
            let packet = &rays[..len];

            let mut hits_reused: Vec<Vec<u32>> = vec![Vec::new(); len];
            let mut c_reused = WorkCounters::ZERO;
            let out_reused: Vec<TraversalOutcome> = traverse_batch_with_scratch(
                scene,
                packet,
                &mut reused,
                &mut c_reused,
                |q, s, c| {
                    c.dist_comps += 1;
                    if s.intersects_ray(&packet[q]) {
                        hits_reused[q].push(s.point_index);
                    }
                    Traversal::Continue
                },
            )
            .to_vec();

            let mut fresh = TraversalScratch::default();
            let mut hits_fresh: Vec<Vec<u32>> = vec![Vec::new(); len];
            let mut c_fresh = WorkCounters::ZERO;
            let out_fresh: Vec<TraversalOutcome> =
                traverse_batch_with_scratch(scene, packet, &mut fresh, &mut c_fresh, |q, s, c| {
                    c.dist_comps += 1;
                    if s.intersects_ray(&packet[q]) {
                        hits_fresh[q].push(s.point_index);
                    }
                    Traversal::Continue
                })
                .to_vec();

            assert_eq!(out_reused, out_fresh, "outcomes at shape {len}");
            assert_eq!(hits_reused, hits_fresh, "hits at shape {len}");
            assert_eq!(c_reused, c_fresh, "counters at shape {len}");
        }
    }

    #[test]
    fn scratch_and_one_shot_entry_points_agree() {
        let points = scatter(300);
        let bvh = LbvhBuilder::default()
            .build(spheres_from_points(&points, 1.0))
            .unwrap();
        let wide = WideBvh::from_binary(&bvh);
        let rays: Vec<Ray> = points.iter().map(|&p| Ray::epsilon_ray(p)).collect();

        let mut c_one_shot = WorkCounters::ZERO;
        let one_shot = traverse_batch(&wide, &rays, &mut c_one_shot, |_, _, c| {
            c.dist_comps += 1;
            Traversal::Continue
        });
        let mut scratch = TraversalScratch::default();
        let mut c_scratch = WorkCounters::ZERO;
        let with_scratch =
            traverse_batch_with_scratch(&wide, &rays, &mut scratch, &mut c_scratch, |_, _, c| {
                c.dist_comps += 1;
                Traversal::Continue
            });
        assert_eq!(one_shot, with_scratch);
        assert_eq!(c_one_shot, c_scratch);

        // Single-ray scratch variant agrees with the plain one as well.
        let ray = Ray::epsilon_ray(points[7]);
        let mut c_a = WorkCounters::ZERO;
        let a = traverse_wide(&wide, &ray, &mut c_a, |_, _| Traversal::Continue);
        let mut c_b = WorkCounters::ZERO;
        let b = traverse_wide_with_scratch(&wide, &ray, &mut scratch, &mut c_b, |_, _| {
            Traversal::Continue
        });
        assert_eq!(a, b);
        assert_eq!(c_a, c_b);
    }

    #[test]
    fn csr_hits_match_vec_of_vec_hits() {
        let mut points = scatter(250);
        // Exact duplicates and an exact-ε pair stress the boundary rules.
        points.push(points[0]);
        points.push(points[0]);
        points.push(Point3::new(100.0, 0.0, 0.0));
        points.push(Point3::new(100.6, 0.0, 0.0));
        let radius = 0.6;
        let bvh = SahBuilder::default()
            .build(spheres_from_points(&points, radius))
            .unwrap();
        let wide = WideBvh::from_binary(&bvh);
        let rays: Vec<Ray> = points.iter().map(|&p| Ray::epsilon_ray(p)).collect();
        let exclude: Vec<Option<u32>> = (0..points.len()).map(|i| Some(i as u32)).collect();

        let mut c_vec = WorkCounters::ZERO;
        let lists = collect_sphere_hits_batch(&wide, &rays, &exclude, &mut c_vec);

        let mut scratch = TraversalScratch::default();
        let mut csr = CsrNeighbors::default();
        let mut c_csr = WorkCounters::ZERO;
        collect_sphere_hits_csr(&wide, &rays, &exclude, &mut scratch, &mut c_csr, &mut csr);

        assert_eq!(c_vec, c_csr, "CSR mode must not change counted work");
        assert_eq!(csr.num_queries(), lists.len());
        for (q, list) in lists.iter().enumerate() {
            assert_eq!(csr.neighbors(q), list.as_slice(), "query {q}");
        }
        assert_eq!(
            csr.total_neighbors() as usize,
            lists.iter().map(Vec::len).sum::<usize>()
        );
    }
}

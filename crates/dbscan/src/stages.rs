//! The two-stage DBSCAN formulation (Algorithm 3 of the paper) expressed
//! over any [`NeighborIndex`] backend.
//!
//! Stage 1 counts every point's ε-neighbours in one batched launch; stage 2
//! launches one query per core point — one flat launch on every backend,
//! sharded scenes included — and merges clusters through a parallel
//! union-find, giving each border point to its lowest-index core
//! neighbour.  [`two_stage`] is the one driver: RT-DBSCAN, the FDBSCAN
//! baseline and the engine's cancellable run are configurations of it, and
//! the engine's session reuses its stage functions.  The substrate (binary
//! BVH vs BVH4 packets vs sharded scene vs grid vs brute force) is whatever
//! backend the caller hands in, which is the point of the redesign.
//!
//! Both launches run under a [`CancelScope`] polled at packet granularity;
//! the uncancellable entry points pass [`CancelScope::none`].  A trip
//! surfaces as [`rtcore::Error::DeadlineExceeded`] carrying the work done
//! so far, and every partial stage state (count cells, union-find merges,
//! border owners) lives in the stage function's frame, so a cancelled run
//! never leaks a wrong answer.

use crate::disjoint_set::ConcurrentDisjointSet;
use crate::labels::{Clustering, NOISE};
use crate::params::DbscanParams;
use crate::runner::{timed, PhaseCounters, PhaseTimings, RunResult};
use rtcore::fault::CancelScope;
use rtcore::geometry::Point3;
use rtcore::hardware::{sat_bump, ExecutionPath, WorkCounters};
use rtcore::index::{Neighbor, NeighborFlow, NeighborIndex};
use rtcore::telemetry::PhaseKind;
use rtcore::Result;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Both stages over an already-built index, charged to `path`.
///
/// The build phase of the result carries the index's build counters and
/// zero wall-clock time (the caller built the index and owns its timing).
/// With `early_exit`, stage 1 stops a query once it has seen `minPts`
/// neighbours (the FDBSCAN-EarlyExit optimisation).
pub(crate) fn two_stage(
    index: &dyn NeighborIndex,
    points: &[Point3],
    params: DbscanParams,
    early_exit: bool,
    path: ExecutionPath,
    scope: &CancelScope,
) -> Result<RunResult> {
    params.validate()?;
    if points.is_empty() {
        return Ok(RunResult::empty(path));
    }
    let early = early_exit.then_some(params.min_pts);
    let (stage1, stage1_time) =
        timed(|| count_all_neighbors(index, points, params.eps, early, scope));
    let (counts, stage1_counters) = stage1?;
    let core = core_flags(&counts, params.min_pts);
    let (stage2, stage2_time) = timed(|| form_clusters(index, points, &core, params.eps, scope));
    let (labels, stage2_counters) = stage2?;
    Ok(RunResult {
        clustering: Clustering::new(labels, core),
        timings: PhaseTimings {
            core_identification: stage1_time,
            cluster_formation: stage2_time,
            ..PhaseTimings::default()
        },
        counters: PhaseCounters {
            build: index.build_counters(),
            core_identification: stage1_counters,
            cluster_formation: stage2_counters,
        },
        path,
        device_bytes: device_bytes(index, points),
    })
}

/// Simulated device memory of a two-stage run: the index structure, the
/// points, one `usize` union-find parent per point, and per point a core
/// flag and a `u32` border owner.
pub(crate) fn device_bytes(index: &dyn NeighborIndex, points: &[Point3]) -> u64 {
    let n = points.len() as u64;
    index.device_bytes()
        + std::mem::size_of_val(points) as u64
        + n * std::mem::size_of::<usize>() as u64
        + 5 * n
}

/// A point is core when it has at least `min_pts` ε-neighbours besides
/// itself.
pub(crate) fn core_flags(counts: &[u64], min_pts: usize) -> Vec<bool> {
    counts.iter().map(|&c| c as usize >= min_pts).collect()
}

/// Stage 1: every point's exact ε-neighbour count (self excluded), answered
/// by one batched launch over the backend's **count output mode** under a
/// `stage1_launch` span.
///
/// Compacting backends report representatives with multiplicities; the
/// query point's own group contributes `multiplicity - 1` (the point itself
/// does not count), which is exactly the Intersection-program logic of the
/// original RT path.  With `early_exit_min_pts` set, a query stops as soon
/// as its count reaches the threshold (the FDBSCAN-EarlyExit optimisation).
/// The count mode lets batched backends flush one count per query per
/// packet instead of paying a per-neighbour sink call; counted work is
/// identical either way.
pub(crate) fn count_all_neighbors(
    index: &dyn NeighborIndex,
    points: &[Point3],
    eps: f32,
    early_exit_min_pts: Option<usize>,
    scope: &CancelScope,
) -> Result<(Vec<u64>, WorkCounters)> {
    let span = index.telemetry().map(|t| t.span(PhaseKind::Stage1Launch));
    let counts: Vec<AtomicU64> = (0..points.len()).map(|_| AtomicU64::new(0)).collect();
    let mut counters = WorkCounters::ZERO;
    index.batch_neighbor_counts_cancellable(
        points,
        eps,
        true,
        early_exit_min_pts.map(|m| m as u64),
        &mut counters,
        &counts,
        scope,
    )?;
    if let Some(mut s) = span {
        s.add_counters(counters);
    }
    Ok((
        counts.into_iter().map(AtomicU64::into_inner).collect(),
        counters,
    ))
}

/// Stage 2: one flat launch of one query per core point, each neighbour
/// handled by the [edge rule](Stage2::edge), under a `stage2_union_find`
/// span.  Returns the final labels (noise = [`NOISE`]) and the stage's
/// counted work, including the union-find traffic and the duplicate
/// fix-up pass for compacting backends.
pub(crate) fn form_clusters(
    index: &dyn NeighborIndex,
    points: &[Point3],
    core: &[bool],
    eps: f32,
    scope: &CancelScope,
) -> Result<(Vec<i64>, WorkCounters)> {
    let span = index
        .telemetry()
        .map(|t| t.span(PhaseKind::Stage2UnionFind));
    let stage = Stage2::new(points, core);
    let mut counters = WorkCounters::ZERO;
    index.batch_neighbors_cancellable(
        &stage.queries,
        eps,
        &mut counters,
        &|o, n, t| stage.edge(o, n, t),
        scope,
    )?;
    let labels = stage.finish(index, &mut counters);
    if let Some(mut s) = span {
        s.add_counters(counters);
    }
    Ok((labels, counters))
}

/// Stage-2 state: one query per core point, the concurrent union-find and
/// each border point's owner.
struct Stage2<'a> {
    core: &'a [bool],
    core_indices: Vec<u32>,
    queries: Vec<Point3>,
    dsu: ConcurrentDisjointSet,
    /// Lowest-index core neighbour of each non-core point; `u32::MAX`
    /// while none has reached it.
    owner: Vec<AtomicU32>,
}

impl<'a> Stage2<'a> {
    fn new(points: &[Point3], core: &'a [bool]) -> Self {
        let n = points.len();
        let core_indices: Vec<u32> = (0..n as u32).filter(|&i| core[i as usize]).collect();
        let queries = core_indices.iter().map(|&i| points[i as usize]).collect();
        Stage2 {
            core,
            core_indices,
            queries,
            dsu: ConcurrentDisjointSet::new(n),
            owner: (0..n).map(|_| AtomicU32::new(u32::MAX)).collect(),
        }
    }

    /// The stage-2 edge rule, as the neighbour sink of the launch over
    /// `self.queries`, for core point `p` and its neighbour `q`: a core `q`
    /// merges with `p` at once, the union-find charging `tally` (the
    /// packet-local counters the launch merges at its join); a border `q`
    /// instead records `p` as its owner if `p` is its lowest-index core
    /// neighbour so far.  A border point reachable from several clusters
    /// thus joins one (Algorithm 3's critical section) chosen by index, not
    /// by scheduling, once the launch has joined ([`Stage2::finish`]).
    // ordering: Relaxed — the owner cell publishes nothing but its own
    // value, `fetch_min` is order-insensitive, and it is read only after
    // the launch joins, which provides the happens-before edge.
    fn edge(&self, ordinal: usize, neighbor: Neighbor, tally: &mut WorkCounters) -> NeighborFlow {
        let p = self.core_indices[ordinal];
        let q = neighbor.index as usize;
        if q != p as usize {
            if self.core[q] {
                self.dsu.union(p as usize, q, tally);
            } else if p < self.owner[q].load(Ordering::Relaxed) {
                self.owner[q].fetch_min(p, Ordering::Relaxed);
            }
        }
        NeighborFlow::Continue
    }

    /// The owner of border point `q`, if a core neighbour reached it.
    /// Read after the launch has joined.
    // ordering: Relaxed — the parallel region has joined, which already
    // provides the happens-before edge.
    fn owner(&self, q: usize) -> Option<usize> {
        let o = self.owner[q].load(Ordering::Relaxed);
        (o != u32::MAX).then_some(o as usize)
    }

    /// After the launch: every reached border point joins its owner in the
    /// union-find, in index order; then core points and owned borders take
    /// their root as label and the rest are [`NOISE`].  Roots are each
    /// cluster's smallest member, so labels do not depend on the launch's
    /// schedule.  Coincident duplicates merged away by a compacting backend
    /// inherit their representative's assignment (they have identical
    /// neighbourhoods, so this is always a valid DBSCAN assignment); each
    /// such fix-up charges one `misc_ops`.
    fn finish(&self, index: &dyn NeighborIndex, counters: &mut WorkCounters) -> Vec<i64> {
        let n = self.core.len();
        for q in 0..n {
            if let Some(p) = self.owner(q) {
                self.dsu.union(p, q, counters);
            }
        }
        let mut labels: Vec<i64> = (0..n)
            .map(|i| {
                if self.core[i] || self.owner(i).is_some() {
                    self.dsu.find(i) as i64
                } else {
                    NOISE
                }
            })
            .collect();
        let mut dup_fixups = 0u64;
        for i in 0..n {
            let rep = index.representative_of(i as u32) as usize;
            if rep != i && labels[i] == NOISE && labels[rep] >= 0 {
                labels[i] = labels[rep];
                dup_fixups += 1;
            }
        }
        sat_bump(&mut counters.misc_ops, dup_fixups);
        labels
    }
}

//! The two-stage DBSCAN formulation (Algorithm 3 of the paper) expressed
//! over any [`NeighborIndex`] backend.
//!
//! Stage 1 counts every point's ε-neighbours in one batched launch; stage 2
//! launches one query per core point and merges clusters through a parallel
//! union-find, giving each border point to its lowest-index core
//! neighbour.  Both RT-DBSCAN and the
//! FDBSCAN baseline are thin configurations of these two functions — the
//! substrate (binary BVH vs BVH4 packets vs grid vs brute force) is whatever
//! backend the caller hands in, which is the point of the redesign.

use crate::disjoint_set::{ConcurrentDisjointSet, EpochDisjointSet};
use crate::labels::NOISE;
use rtcore::fault::CancelScope;
use rtcore::geometry::Point3;
use rtcore::hardware::sat_bump;
use rtcore::hardware::WorkCounters;
use rtcore::index::{Neighbor, NeighborFlow, NeighborIndex, ShardSelect, ShardedIndex};
use rtcore::telemetry::PhaseKind;
use rtcore::Result;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Stage 1: every point's exact ε-neighbour count (self excluded), answered
/// by one batched launch over the backend's **count output mode**.
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
) -> (Vec<u64>, WorkCounters) {
    let counts: Vec<AtomicU64> = (0..points.len()).map(|_| AtomicU64::new(0)).collect();
    let mut counters = WorkCounters::ZERO;
    index.batch_neighbor_counts(
        points,
        eps,
        true,
        early_exit_min_pts.map(|m| m as u64),
        &mut counters,
        &counts,
    );
    (
        counts.into_iter().map(AtomicU64::into_inner).collect(),
        counters,
    )
}

/// [`count_all_neighbors`] under a deadline/cancellation scope.  The counts
/// launch is cancellable at packet granularity; a trip surfaces as
/// [`rtcore::Error::DeadlineExceeded`] carrying the work done so far, and
/// the partially-filled count cells are dropped with this function's stack
/// frame — a cancelled stage never leaks a wrong answer.
pub(crate) fn count_all_neighbors_cancellable(
    index: &dyn NeighborIndex,
    points: &[Point3],
    eps: f32,
    early_exit_min_pts: Option<usize>,
    scope: &CancelScope,
) -> Result<(Vec<u64>, WorkCounters)> {
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
    Ok((
        counts.into_iter().map(AtomicU64::into_inner).collect(),
        counters,
    ))
}

/// Stage-2 state shared by every launch shape: one query per core point,
/// the concurrent union-find and each border point's owner.
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

    /// The stage-2 edge rule for core point `p` and its neighbour `q`:
    /// true when `q` is core, so the caller merges the two now; a border
    /// `q` instead records `p` as its owner if `p` is its lowest-index core
    /// neighbour so far.  A border point reachable from several clusters
    /// thus joins one (Algorithm 3's critical section) chosen by index, not
    /// by scheduling, once every launch has joined
    /// ([`Stage2::settle_borders`]).
    // ordering: Relaxed — the owner cell publishes nothing but its own
    // value, `fetch_min` is order-insensitive, and it is read only after
    // the launch joins, which provides the happens-before edge.
    fn admit(&self, p: usize, q: usize) -> bool {
        if !self.core[q] && (p as u32) < self.owner[q].load(Ordering::Relaxed) {
            self.owner[q].fetch_min(p as u32, Ordering::Relaxed);
        }
        self.core[q]
    }

    /// [`Stage2::admit`] as the neighbour sink of a launch over
    /// `self.queries`.  The union-find charges `tally`, the packet-local
    /// counters the launch merges at its join.
    fn edge(&self, ordinal: usize, neighbor: Neighbor, tally: &mut WorkCounters) -> NeighborFlow {
        let p = self.core_indices[ordinal] as usize;
        let q = neighbor.index as usize;
        if q != p && self.admit(p, q) {
            self.dsu.union(p, q, tally);
        }
        NeighborFlow::Continue
    }

    /// The owner of border point `q`, if a core neighbour reached it.
    /// Read after the launches have joined.
    // ordering: Relaxed — the parallel region has joined, which already
    // provides the happens-before edge.
    fn owner(&self, q: usize) -> Option<usize> {
        let o = self.owner[q].load(Ordering::Relaxed);
        (o != u32::MAX).then_some(o as usize)
    }

    /// Join every reached border point to its owner through `join(owner,
    /// border)`, in index order.
    fn settle_borders(&self, mut join: impl FnMut(usize, usize)) {
        for q in 0..self.owner.len() {
            if let Some(p) = self.owner(q) {
                join(p, q);
            }
        }
    }

    /// Materialise labels: core points and owned borders take `root(i)`,
    /// the rest are [`NOISE`].  Coincident duplicates merged away by a
    /// compacting backend inherit their representative's assignment (they
    /// have identical neighbourhoods, so this is always a valid DBSCAN
    /// assignment); each such fix-up charges one `misc_ops`.
    fn labels(
        &self,
        index: &dyn NeighborIndex,
        mut root: impl FnMut(usize) -> usize,
        counters: &mut WorkCounters,
    ) -> Vec<i64> {
        let n = self.core.len();
        let mut labels: Vec<i64> = (0..n)
            .map(|i| {
                if self.core[i] || self.owner(i).is_some() {
                    root(i) as i64
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

    /// The flat stage-2 shape after its launch: borders join their owners
    /// in the union-find, then labels are its roots.
    fn finish(&self, index: &dyn NeighborIndex, counters: &mut WorkCounters) -> Vec<i64> {
        self.settle_borders(|p, q| {
            self.dsu.union(p, q, counters);
        });
        self.labels(index, |i| self.dsu.find(i), counters)
    }
}

/// Stage 2: one query per core point, each neighbour handled by the
/// [edge rule](Stage2::admit).  Returns the final labels (noise =
/// [`NOISE`]) and the stage's counted work, including the union-find
/// traffic and the duplicate fix-up pass for compacting backends.
pub(crate) fn form_clusters(
    index: &dyn NeighborIndex,
    points: &[Point3],
    core: &[bool],
    eps: f32,
) -> (Vec<i64>, WorkCounters) {
    if let Some(sharded) = index.as_sharded() {
        return form_clusters_stitched(sharded, index, points, core, eps);
    }
    let stage = Stage2::new(points, core);
    let mut counters = WorkCounters::ZERO;
    index.batch_neighbors(&stage.queries, eps, &mut counters, &|o, n, t| {
        stage.edge(o, n, t)
    });
    let labels = stage.finish(index, &mut counters);
    (labels, counters)
}

/// [`form_clusters`] under a deadline/cancellation scope.
///
/// The launch always takes the flat (non-stitched) shape, even over a
/// sharded backend: the stitched split exists to attribute telemetry, not
/// correctness — both shapes enumerate the same candidate set, so the
/// clustering is identical (the counted work may differ, which is why the
/// uncancellable entry point keeps the stitched path).  A trip surfaces as
/// [`rtcore::Error::DeadlineExceeded`]; the union-find and owner state
/// live in this frame, so a cancelled stage discards every partial merge.
pub(crate) fn form_clusters_cancellable(
    index: &dyn NeighborIndex,
    points: &[Point3],
    core: &[bool],
    eps: f32,
    scope: &CancelScope,
) -> Result<(Vec<i64>, WorkCounters)> {
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
    Ok((labels, counters))
}

/// Stage 2 over a two-level scene: intra-shard clustering first (one
/// [`ShardSelect::Owner`] launch applying the flat edge rule), then the
/// cross-shard boundary pass — a [`ShardSelect::CrossOnly`] launch whose
/// edges are merged through the O(1)-reset epoch union-find under a
/// `shard_stitch` telemetry span.  The two launches together enumerate
/// exactly the candidate set of one flat launch (see
/// [`ShardedIndex::batch_neighbors_stitched`]), and union-find merges are
/// order-insensitive, so the core partition is identical to the flat path's;
/// every border point joins the cluster of its lowest-index core
/// neighbour, as in the flat path.
fn form_clusters_stitched(
    sharded: &ShardedIndex,
    index: &dyn NeighborIndex,
    points: &[Point3],
    core: &[bool],
    eps: f32,
) -> (Vec<i64>, WorkCounters) {
    let n = points.len();
    let stage = Stage2::new(points, core);
    // Owner of each query's representative primitive; a query whose
    // representative has no live shard (never the case for a freshly built
    // scene) degrades to "everything is cross-shard", which stays correct.
    let owners: Vec<u32> = stage
        .core_indices
        .iter()
        .map(|&i| {
            sharded
                .owner_shard(index.representative_of(i))
                .unwrap_or(u32::MAX)
        })
        .collect();
    let mut counters = WorkCounters::ZERO;

    // Phase A — intra-shard: each query only visits its owning BLAS; its
    // union-find traffic rides the launch's packet counters.
    sharded.batch_neighbors_stitched(
        &stage.queries,
        &owners,
        ShardSelect::Owner,
        eps,
        &mut counters,
        &|o, n, t| stage.edge(o, n, t),
    );
    // Borders reached inside their shard join the intra-shard partition;
    // the rest join in the stitch.
    let in_shard: Vec<bool> = (0..n).map(|q| stage.owner(q).is_some()).collect();

    // Phase B — boundary regions: border ends lower their owner at once;
    // core-core edges are merged through the epoch union-find, so the
    // stitch is visible as its own phase with its own union-find traffic.
    let cross_edges: std::sync::Mutex<Vec<(u32, u32)>> = std::sync::Mutex::new(Vec::new());
    sharded.batch_neighbors_stitched(
        &stage.queries,
        &owners,
        ShardSelect::CrossOnly,
        eps,
        &mut counters,
        &|ordinal, neighbor, _| {
            let p = stage.core_indices[ordinal] as usize;
            let q = neighbor.index as usize;
            if q != p && stage.admit(p, q) {
                cross_edges
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push((p as u32, q as u32));
            }
            NeighborFlow::Continue
        },
    );
    stage.settle_borders(|p, q| {
        if in_shard[q] {
            stage.dsu.union(p, q, &mut counters);
        }
    });

    let span = sharded.telemetry().map(|t| t.span(PhaseKind::ShardStitch));
    let mut stitch_counters = WorkCounters::ZERO;
    let mut epoch = EpochDisjointSet::new(n);
    // Import the intra-shard partition: attach every point it holds to its
    // representative there (one find each).
    for i in 0..n {
        if core[i] || in_shard[i] {
            epoch.union(i, stage.dsu.find(i));
            sat_bump(&mut stitch_counters.find_ops, 1);
        }
    }
    let cross_edges = cross_edges
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for &(p, q) in cross_edges.iter() {
        epoch.union(p as usize, q as usize);
    }
    stage.settle_borders(|p, q| {
        if !in_shard[q] {
            epoch.union(p, q);
        }
    });
    let (find_ops, union_ops) = epoch.op_counts();
    sat_bump(&mut stitch_counters.find_ops, find_ops);
    sat_bump(&mut stitch_counters.union_ops, union_ops);
    if let Some(mut s) = span {
        s.add_counters(stitch_counters);
    }
    counters += stitch_counters;

    // Name each cluster by its smallest member, as the flat path's roots
    // are; the epoch set's roots depend on the cross edges' order.
    let mut smallest = vec![u32::MAX; n];
    for i in (0..n).rev() {
        if core[i] || stage.owner(i).is_some() {
            smallest[epoch.find(i)] = i as u32;
        }
    }
    let labels = stage.labels(index, |i| smallest[epoch.find(i)] as usize, &mut counters);
    (labels, counters)
}

//! G-DBSCAN baseline (Andrade et al., "G-DBSCAN: a GPU accelerated algorithm
//! for density-based clustering").
//!
//! G-DBSCAN materialises the entire ε-neighbourhood graph — a vertex array
//! with per-point degrees and a flat adjacency (edge) array — then finds
//! clusters with level-synchronous breadth first searches over that graph.
//! The graph is what makes it fast to cluster but also what limits it: the
//! paper finds it runs out of the RTX 2060's 6 GB of memory above ~100 K
//! points (Section V-B1), and building the graph costs Θ(n²) distance
//! computations on its native substrate — the [`IndexKind::BruteForce`]
//! backend, because the original implementation has no spatial index at all.
//! Through [`GDbscan::run_on`] the same graph construction can be driven by
//! any other [`NeighborIndex`] backend.
//!
//! The simulated device-memory footprint of the graph is checked against a
//! configurable budget and the run fails with
//! [`rtcore::Error::OutOfDeviceMemory`] when it does not fit, mirroring the
//! paper's observation.

use crate::labels::{Clustering, NOISE, UNASSIGNED};
use crate::params::DbscanParams;
use crate::runner::{timed, DbscanAlgorithm, PhaseCounters, PhaseTimings, RunResult};
use rayon::prelude::*;
use rtcore::geometry::Point3;
use rtcore::hardware::sat_bump;
use rtcore::hardware::{ExecutionPath, MemoryTracker, WorkCounters};
use rtcore::index::{CsrNeighbors, IndexKind, NeighborFlow, NeighborIndex, NeighborIndexBuilder};
use rtcore::Result;

/// Configuration of the G-DBSCAN baseline.
#[derive(Debug, Clone, Copy)]
pub struct GDbscan {
    /// Simulated device-memory budget in bytes (defaults to the RTX 2060's
    /// 6 GB).
    pub device_memory_bytes: u64,
}

impl Default for GDbscan {
    fn default() -> Self {
        GDbscan {
            device_memory_bytes: 6 * 1024 * 1024 * 1024,
        }
    }
}

impl GDbscan {
    /// The neighbour-index configuration this baseline uses by default: the
    /// brute-force scan (the original compares all pairs).
    pub fn index_builder(&self) -> NeighborIndexBuilder {
        NeighborIndexBuilder::new(IndexKind::BruteForce)
    }

    /// Run over an already-built neighbour index.  Graph construction is
    /// charged to the build phase (with the index's own build counters);
    /// the BFS stages are pure graph work, exactly as in the original.
    pub fn run_on(
        &self,
        index: &dyn NeighborIndex,
        points: &[Point3],
        params: DbscanParams,
    ) -> Result<RunResult> {
        params.validate()?;
        if index.capabilities().compacting {
            return Err(rtcore::Error::InvalidConfig(format!(
                "{} tracks individual point ids and cannot run over a compacting index",
                self.name()
            )));
        }
        let n = points.len();
        if n == 0 {
            return Ok(RunResult::empty(ExecutionPath::ShaderCore));
        }
        let eps = params.eps;

        // ------------------------------------------------------------------
        // Graph construction: one neighbour query per point through the
        // backend (the native brute-force index reproduces the original
        // all-pairs comparison and its n·(n−1) distance computations).  The
        // graph is CSR from the start — each parallel chunk produces one
        // flat (degrees, edges) pair and the chunks concatenate in order —
        // so no per-vertex `Vec` ever exists; the BFS then walks flat
        // arrays, which is exactly the layout the original stores on
        // device.
        // ------------------------------------------------------------------
        // Chunk size adapts to n (pure function of n, so chunk boundaries —
        // and hence the deterministic merge order — never depend on thread
        // count): small inputs still split ~64 ways so the quadratic
        // distance pass keeps every core busy, large inputs cap the
        // per-chunk buffers.  Saturating counter addition is associative,
        // so totals are identical for any chunking.
        let graph_chunk = n.div_ceil(64).clamp(16, 1024);
        let ((adjacency, mut build_counters), build_time) = timed(|| {
            let per_chunk: Vec<(Vec<u32>, Vec<u32>, WorkCounters)> = (0..n.div_ceil(graph_chunk))
                .into_par_iter()
                .map(|chunk| {
                    let lo = chunk * graph_chunk;
                    let hi = ((chunk + 1) * graph_chunk).min(n);
                    let mut c = WorkCounters::ZERO;
                    let mut degrees = Vec::with_capacity(hi - lo);
                    let mut edges = Vec::new();
                    for (i, &point) in points.iter().enumerate().take(hi).skip(lo) {
                        let before = edges.len();
                        index.for_each_neighbor(
                            point,
                            eps,
                            Some(i as u32),
                            &mut c,
                            &mut |nb, _| {
                                edges.push(nb.index);
                                NeighborFlow::Continue
                            },
                        );
                        degrees.push((edges.len() - before) as u32);
                    }
                    (degrees, edges, c)
                })
                .collect();
            let mut adjacency = CsrNeighbors::with_capacity(n, 0);
            let mut counters = index.build_counters();
            for (degrees, edges, c) in per_chunk {
                counters += c;
                sat_bump(&mut counters.list_ops, edges.len() as u64);
                let mut cursor = 0usize;
                for &deg in &degrees {
                    adjacency.push_row(&edges[cursor..cursor + deg as usize]);
                    cursor += deg as usize;
                }
            }
            (adjacency, counters)
        });

        // Simulated device footprint of the graph: vertex array (degree +
        // start index per point, 8 bytes) plus 4 bytes per directed edge,
        // plus the index structure itself (for the native brute-force
        // backend that is exactly the points).
        let edges: u64 = adjacency.total_neighbors();
        let graph_bytes = (n as u64) * 8 + edges * 4 + index.device_bytes();
        let mut tracker = MemoryTracker::new(self.device_memory_bytes);
        tracker.allocate(graph_bytes)?;
        sat_bump(&mut build_counters.misc_ops, n as u64); // degree prefix-sum pass

        // ------------------------------------------------------------------
        // Stage 1: core points are simply the vertices with degree ≥ minPts.
        // ------------------------------------------------------------------
        let ((core, stage1_counters), stage1_time) = timed(|| {
            let core: Vec<bool> = adjacency
                .iter()
                .map(|a| a.len() >= params.min_pts)
                .collect();
            let counters = WorkCounters {
                misc_ops: n as u64,
                ..WorkCounters::ZERO
            };
            (core, counters)
        });

        // ------------------------------------------------------------------
        // Stage 2: BFS over the graph from every unvisited core point.
        // Border points are absorbed but not expanded.
        // ------------------------------------------------------------------
        let ((labels, stage2_counters), stage2_time) = timed(|| {
            let mut labels = vec![UNASSIGNED; n];
            let mut counters = WorkCounters::ZERO;
            let mut next_cluster = 0i64;
            let mut frontier: Vec<u32> = Vec::new();
            for start in 0..n {
                if !core[start] || labels[start] != UNASSIGNED {
                    continue;
                }
                let cluster = next_cluster;
                next_cluster += 1;
                labels[start] = cluster;
                frontier.clear();
                frontier.push(start as u32);
                while let Some(v) = frontier.pop() {
                    sat_bump(&mut counters.misc_ops, 1);
                    for &u in adjacency.neighbors(v as usize) {
                        sat_bump(&mut counters.list_ops, 1);
                        let u = u as usize;
                        if labels[u] == UNASSIGNED || labels[u] == NOISE {
                            labels[u] = cluster;
                            if core[u] {
                                frontier.push(u as u32);
                            }
                        }
                    }
                }
            }
            for l in labels.iter_mut() {
                if *l == UNASSIGNED {
                    *l = NOISE;
                }
            }
            (labels, counters)
        });

        Ok(RunResult {
            clustering: Clustering::new(labels, core),
            timings: PhaseTimings {
                build: build_time,
                core_identification: stage1_time,
                cluster_formation: stage2_time,
            },
            counters: PhaseCounters {
                build: build_counters,
                core_identification: stage1_counters,
                cluster_formation: stage2_counters,
            },
            path: ExecutionPath::ShaderCore,
            device_bytes: graph_bytes,
        })
    }
}

impl DbscanAlgorithm for GDbscan {
    fn name(&self) -> &'static str {
        "G-DBSCAN"
    }

    fn run(&self, points: &[Point3], params: DbscanParams) -> Result<RunResult> {
        params.validate()?;
        let (index, index_time) = timed(|| self.index_builder().build(points, params.eps));
        let mut result = self.run_on(index?.as_ref(), points, params)?;
        result.timings.build += index_time;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::ClassicDbscan;
    use crate::metrics::same_clustering;
    use rtcore::Error;

    fn two_rings_and_noise() -> Vec<Point3> {
        let mut pts = Vec::new();
        for i in 0..60 {
            let a = i as f32 * 0.105;
            pts.push(Point3::new_2d(3.0 * a.cos(), 3.0 * a.sin()));
        }
        for i in 0..60 {
            let a = i as f32 * 0.105;
            pts.push(Point3::new_2d(30.0 + 3.0 * a.cos(), 3.0 * a.sin()));
        }
        pts.push(Point3::new_2d(15.0, 15.0));
        pts
    }

    #[test]
    fn matches_classic_dbscan() {
        let pts = two_rings_and_noise();
        let params = DbscanParams::new(0.7, 2).unwrap();
        let reference = ClassicDbscan::cluster(&pts, params).unwrap();
        let g = GDbscan::default().run(&pts, params).unwrap().clustering;
        assert_eq!(reference.core, g.core);
        assert!(same_clustering(&reference, &g, &pts, params));
        assert_eq!(g.num_clusters(), 2);
    }

    #[test]
    fn quadratic_distance_work_is_counted() {
        let pts = two_rings_and_noise();
        let n = pts.len() as u64;
        let params = DbscanParams::new(0.7, 2).unwrap();
        let r = GDbscan::default().run(&pts, params).unwrap();
        assert_eq!(r.counters.build.dist_comps, n * (n - 1));
        assert!(r.counters.build.list_ops > 0);
        assert_eq!(r.path, ExecutionPath::ShaderCore);
    }

    #[test]
    fn out_of_memory_on_a_small_budget() {
        let pts = two_rings_and_noise();
        let params = DbscanParams::new(0.7, 2).unwrap();
        let tiny = GDbscan {
            device_memory_bytes: 64,
        };
        match tiny.run(&pts, params) {
            Err(Error::OutOfDeviceMemory { .. }) => {}
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn graph_memory_grows_with_density() {
        let pts = two_rings_and_noise();
        let sparse = GDbscan::default()
            .run(&pts, DbscanParams::new(0.3, 2).unwrap())
            .unwrap();
        let dense = GDbscan::default()
            .run(&pts, DbscanParams::new(10.0, 2).unwrap())
            .unwrap();
        assert!(dense.device_bytes > sparse.device_bytes);
    }

    #[test]
    fn empty_input() {
        let params = DbscanParams::new(1.0, 2).unwrap();
        let r = GDbscan::default().run(&[], params).unwrap();
        assert!(r.clustering.is_empty());
    }

    #[test]
    fn all_noise_dataset() {
        let pts: Vec<Point3> = (0..40)
            .map(|i| Point3::new_2d(i as f32 * 100.0, 0.0))
            .collect();
        let params = DbscanParams::new(1.0, 2).unwrap();
        let r = GDbscan::default().run(&pts, params).unwrap();
        assert_eq!(r.clustering.num_clusters(), 0);
        assert_eq!(r.clustering.noise_count(), 40);
    }

    #[test]
    fn spatial_backends_skip_the_quadratic_scan() {
        // The same graph through a BVH backend performs strictly fewer
        // distance computations on a sparse workload.
        let pts = two_rings_and_noise();
        let params = DbscanParams::new(0.7, 2).unwrap();
        let bvh_index = NeighborIndexBuilder::new(IndexKind::BinaryBvh)
            .build(&pts, params.eps)
            .unwrap();
        let via_bvh = GDbscan::default()
            .run_on(bvh_index.as_ref(), &pts, params)
            .unwrap();
        let brute = GDbscan::default().run(&pts, params).unwrap();
        assert_eq!(brute.clustering.core, via_bvh.clustering.core);
        assert!(same_clustering(
            &brute.clustering,
            &via_bvh.clustering,
            &pts,
            params
        ));
        assert!(via_bvh.counters.build.dist_comps < brute.counters.build.dist_comps);
    }
}

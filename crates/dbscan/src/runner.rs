//! The common interface every DBSCAN implementation in this crate offers,
//! plus the timing/counter breakdown the benchmarks consume.

use crate::labels::Clustering;
use crate::params::DbscanParams;
use rtcore::geometry::Point3;
use rtcore::hardware::{DeviceModel, ExecutionPath, SimulatedDuration, WorkCounters};
use rtcore::Result;
use std::time::Duration;

/// Which of the DBSCAN phases a measurement belongs to.
///
/// The breakdown mirrors Section V-D of the paper: index (BVH/graph/grid)
/// construction, core-point identification (stage 1) and cluster formation
/// (stage 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Index / acceleration-structure construction.
    Build,
    /// Core-point identification.
    CoreIdentification,
    /// Cluster formation (union-find / BFS / chain expansion).
    ClusterFormation,
}

/// Wall-clock time of each phase of a run (time of *this Rust
/// implementation*, not of the simulated device).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Index construction time.
    pub build: Duration,
    /// Stage-1 time.
    pub core_identification: Duration,
    /// Stage-2 time.
    pub cluster_formation: Duration,
}

impl PhaseTimings {
    /// Total wall-clock time.
    pub fn total(&self) -> Duration {
        self.build + self.core_identification + self.cluster_formation
    }
}

/// Work counters of each phase of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCounters {
    /// Index construction work.
    pub build: WorkCounters,
    /// Stage-1 work.
    pub core_identification: WorkCounters,
    /// Stage-2 work.
    pub cluster_formation: WorkCounters,
}

impl PhaseCounters {
    /// Sum over all phases.
    pub fn total(&self) -> WorkCounters {
        self.build + self.core_identification + self.cluster_formation
    }
}

/// Simulated device time of each phase, produced by
/// [`RunResult::simulate_on`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimulatedBreakdown {
    /// Simulated index-construction time.
    pub build: SimulatedDuration,
    /// Simulated stage-1 time.
    pub core_identification: SimulatedDuration,
    /// Simulated stage-2 time.
    pub cluster_formation: SimulatedDuration,
}

impl SimulatedBreakdown {
    /// Total simulated time.
    pub fn total(&self) -> SimulatedDuration {
        self.build + self.core_identification + self.cluster_formation
    }

    /// Fraction of total simulated time spent on the two clustering stages
    /// (the quantity Section V-D reports: ~48 % for RT-DBSCAN, ~94 % for
    /// FDBSCAN on 3DIono/1 M/ε=0.25).
    pub fn clustering_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        (self.core_identification.as_secs_f64() + self.cluster_formation.as_secs_f64()) / total
    }
}

/// Everything a DBSCAN run returns.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The clustering itself.
    pub clustering: Clustering,
    /// Wall-clock timings of this implementation.
    pub timings: PhaseTimings,
    /// Work counters per phase.
    pub counters: PhaseCounters,
    /// Which device execution path the algorithm's traversal work should be
    /// charged to (RT cores for RT-DBSCAN, shader cores for the baselines).
    pub path: ExecutionPath,
    /// Simulated device-memory footprint of the algorithm's data structures
    /// in bytes.
    pub device_bytes: u64,
}

impl RunResult {
    /// The result of clustering no points on `path`: nothing timed,
    /// counted or allocated.
    pub(crate) fn empty(path: ExecutionPath) -> RunResult {
        RunResult {
            clustering: Clustering::new(vec![], vec![]),
            timings: PhaseTimings::default(),
            counters: PhaseCounters::default(),
            path,
            device_bytes: 0,
        }
    }

    /// Convert the per-phase counters into simulated device time on `device`.
    ///
    /// Build counters are charged with the build-side costs and the two
    /// clustering stages with traversal-side costs, on this run's execution
    /// path.
    pub fn simulate_on(&self, device: &DeviceModel) -> SimulatedBreakdown {
        let profile = device.profile(self.path);
        SimulatedBreakdown {
            build: profile.build_time(&self.counters.build)
                + profile.traversal_time(&self.counters.build),
            core_identification: profile.traversal_time(&self.counters.core_identification)
                + profile.build_time(&self.counters.core_identification),
            cluster_formation: profile.traversal_time(&self.counters.cluster_formation)
                + profile.build_time(&self.counters.cluster_formation),
        }
    }

    /// Total simulated time on the default device (RTX 2060).
    pub fn simulated_total(&self) -> SimulatedDuration {
        self.simulate_on(&DeviceModel::default()).total()
    }
}

/// The interface shared by RT-DBSCAN and all baselines.
pub trait DbscanAlgorithm: Sync {
    /// Human-readable algorithm name used in reports ("RT-DBSCAN",
    /// "FDBSCAN", …).
    fn name(&self) -> &'static str;

    /// Cluster `points` with `params`.
    fn run(&self, points: &[Point3], params: DbscanParams) -> Result<RunResult>;
}

/// Helper used by the implementations: time a closure and return its result
/// together with the elapsed wall-clock time.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::NOISE;

    fn dummy_result(path: ExecutionPath) -> RunResult {
        RunResult {
            clustering: Clustering::new(vec![0, 0, NOISE], vec![true, true, false]),
            timings: PhaseTimings::default(),
            counters: PhaseCounters {
                build: WorkCounters {
                    build_prims: 100_000,
                    build_node_ops: 200_000,
                    ..WorkCounters::ZERO
                },
                core_identification: WorkCounters {
                    rays: 100_000,
                    node_visits: 2_000_000,
                    prim_tests: 500_000,
                    dist_comps: 500_000,
                    ..WorkCounters::ZERO
                },
                cluster_formation: WorkCounters {
                    rays: 100_000,
                    node_visits: 2_000_000,
                    prim_tests: 500_000,
                    dist_comps: 500_000,
                    union_ops: 80_000,
                    ..WorkCounters::ZERO
                },
            },
            path,
            device_bytes: 123,
        }
    }

    #[test]
    fn phase_aggregation() {
        let r = dummy_result(ExecutionPath::RtCore);
        assert_eq!(r.counters.total().rays, 200_000);
        assert_eq!(r.counters.total().build_prims, 100_000);
        assert_eq!(r.timings.total(), Duration::ZERO);
    }

    #[test]
    fn rt_path_is_cheaper_than_sm_path_for_identical_work() {
        let rt = dummy_result(ExecutionPath::RtCore);
        let sm = dummy_result(ExecutionPath::ShaderCore);
        let device = DeviceModel::default();
        let rt_total = rt.simulate_on(&device).total().as_secs_f64();
        let sm_total = sm.simulate_on(&device).total().as_secs_f64();
        assert!(rt_total < sm_total);
    }

    #[test]
    fn clustering_fraction_is_between_zero_and_one() {
        let r = dummy_result(ExecutionPath::RtCore);
        let b = r.simulate_on(&DeviceModel::default());
        let f = b.clustering_fraction();
        assert!(f > 0.0 && f < 1.0, "{f}");
        assert!(SimulatedBreakdown::default().clustering_fraction() == 0.0);
    }

    #[test]
    fn timed_measures_something() {
        let (value, dur) = timed(|| {
            let mut s = 0u64;
            for i in 0..10_000u64 {
                s = s.wrapping_add(i * i);
            }
            s
        });
        assert!(value > 0);
        assert!(dur.as_nanos() > 0);
    }

    #[test]
    fn simulated_total_uses_default_device() {
        let r = dummy_result(ExecutionPath::RtCore);
        assert!(r.simulated_total().as_secs_f64() > 0.0);
    }
}

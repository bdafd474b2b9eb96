//! The simulated device: work counters, cost profiles and memory budget.
//!
//! The paper's speedups come from running BVH build and traversal on RT
//! cores instead of shader (SM) cores.  Without RT hardware we cannot measure
//! those speedups as wall-clock time, so this module makes the cost structure
//! explicit instead:
//!
//! 1. every unit of work the algorithms perform (BVH node visits, AABB tests,
//!    primitive intersection tests, distance computations, build and sort
//!    operations, union-find operations …) is **counted** — these counters are
//!    real measurements of algorithmic work, identical to what a profiler
//!    would report on the authors' testbed; and
//! 2. a [`DeviceModel`] converts the counters into *simulated execution time*
//!    using per-operation costs calibrated against the paper's own runtime
//!    analysis (Section V-D): the RT build is ~2.5× more expensive per
//!    primitive than a plain spatial-tree build, while RT traversal and
//!    intersection are ~an order of magnitude cheaper per operation than the
//!    same work done in shader code.
//!
//! Benchmarks report both wall-clock time of this software implementation
//! (useful for comparing the Rust code against itself) and simulated device
//! time (used to regenerate the paper's tables and figures).

mod counters;
mod device;
mod memory;

pub use counters::{sat_bump, WorkCounters};
pub use device::{CostProfile, DeviceModel, ExecutionPath, SimulatedDuration};
pub use memory::MemoryTracker;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_are_usable() {
        let mut c = WorkCounters::default();
        c.node_visits += 10;
        let model = DeviceModel::rtx2060();
        let t = model.traversal_time(&c, ExecutionPath::RtCore);
        assert!(t.as_secs_f64() > 0.0);
    }
}

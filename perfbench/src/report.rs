//! The run's result: metrics by name with units, gate violations, and the
//! final JSON line.

use std::collections::HashMap;
use std::fmt::Write as _;

/// Metrics a user of the library sees, reported by the untraced run of
/// every workload.  Same names and units as `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("points_per_s", "points/s"),
    ("sim_device_ms", "ms"),
    ("device_mb", "MiB"),
    ("peak_rss_mb", "MiB"),
];

/// Metrics of single layers, reported by the traced run.  The streaming
/// layer is probed by porto-dense's traced run only, so its metrics read 0
/// on iono-sharded.
pub const PER_LAYER: &[(&str, &str)] = &[
    // rtdbscan_stream: closed-loop call latencies of the streaming probe.
    ("ingest_ms_p50", "ms"),
    ("ingest_ms_p90", "ms"),
    ("snapshot_ms_p50", "ms"),
    ("snapshot_ms_p90", "ms"),
    ("ingest_samples", "count"),
    ("snapshot_samples", "count"),
    // rtdbscan::engine: operations.
    ("run_samples", "count"),
    ("error_rate", "ratio"),
    // rtcore::index / rtcore::bvh.
    ("index.build_s", "s"),
    ("bvh.lbvh_s", "s"),
    ("bvh.collapse_s", "s"),
    ("index.build_prims", "count"),
    ("index.build_sort_ops", "count"),
    ("index.build_node_ops", "count"),
    // rtcore::traversal, stage 1.
    ("stage1.s", "s"),
    ("stage1.rays", "count"),
    ("stage1.wide_node_visits", "count"),
    ("stage1.prim_tests", "count"),
    ("stage1.dist_comps", "count"),
    ("stage1.neighbors", "count"),
    ("stage1.hit_ratio", "ratio"),
    ("stage1.tlas_node_visits", "count"),
    ("stage1.blas_launches", "count"),
    // rtdbscan stages + disjoint_set, stage 2.
    ("stage2.s", "s"),
    ("stage2.traversal_s", "s"),
    ("stage2.uf_self_s", "s"),
    ("stage2.pairs", "count"),
    ("stage2.dist_comps", "count"),
    ("stage2.find_ops", "count"),
    ("stage2.find_ops_spread", "count"),
    ("stage2.union_ops", "count"),
    ("stage2.finds_per_pair", "ratio"),
    ("stage2.merge_ratio", "ratio"),
    // rtdbscan::engine.
    ("engine.unaccounted_s", "s"),
    ("engine.label_variants", "count"),
    // rtdbscan_stream.
    ("stream.ingest_s", "s"),
    ("stream.snapshot_s", "s"),
    ("stream.refits", "count"),
    ("stream.rebuilds", "count"),
    ("stream.dirty_snapshot_ratio", "ratio"),
    ("stream.refit_node_ops", "count"),
    ("stream.build_prims", "count"),
    ("stream.dist_comps", "count"),
    ("stream.union_ops", "count"),
    // rtcore::hardware: simulated RTX 2060 time by phase.
    ("sim.build_ms", "ms"),
    ("sim.stage1_ms", "ms"),
    ("sim.stage2_ms", "ms"),
    // Sequential reference.
    ("ref.classic_s", "s"),
    // Tracing overhead: the traced `ClusterEngine::run` loop against the
    // untraced one.
    ("trace.points_per_s", "points/s"),
    ("trace.points_per_s_untraced", "points/s"),
    ("trace.op_ms_p50", "ms"),
    ("trace.op_ms_p50_untraced", "ms"),
];

#[derive(Default)]
pub struct Report {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that returned `Err`.
    pub failed: u64,
    /// Correctness, repeatability and phase-sum gate violations.
    violations: Vec<String>,
    /// Human-readable context printed before the metrics.
    notes: Vec<String>,
    values: HashMap<&'static str, f64>,
}

impl Report {
    /// Set a metric; `name` must be one of [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    pub fn violation(&mut self, violation: impl Into<String>) {
        self.violations.push(violation.into());
    }

    /// Record a violation unless every iteration produced the same `key`.
    pub fn require_identical<K: PartialEq + std::fmt::Debug>(&mut self, what: &str, keys: &[K]) {
        if let Some(first) = keys.first() {
            if let Some(other) = keys.iter().find(|k| *k != first) {
                self.violation(format!(
                    "repeatability: {what} differs across iterations: {first:?} vs {other:?}"
                ));
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Print the notes, one line per metric of the chosen set, and the
    /// result object as the last line of standard output.  A missing
    /// end-to-end metric is a violation; a missing per-layer metric reads 0.
    pub fn print(&mut self, traced: bool) {
        let set = if traced { PER_LAYER } else { END_TO_END };
        let missing: Vec<&str> = set
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| !self.values.contains_key(name))
            .collect();
        if !missing.is_empty() {
            if traced {
                self.note(format!(
                    "layers not called by this workload read 0: {}",
                    missing.join(", ")
                ));
            } else {
                self.violation(format!("no measurement for {}", missing.join(", ")));
            }
        }
        for note in &self.notes {
            println!("# {note}");
        }
        for v in &self.violations {
            println!("! {v}");
        }
        let mut metrics = String::new();
        for (i, (name, unit)) in set.iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            // Every ratio is guarded, so a non-finite value is a benchmark bug.
            assert!(value.is_finite(), "metric {name} is {value}");
            println!("{name:<30} {value:>22} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
    }
}

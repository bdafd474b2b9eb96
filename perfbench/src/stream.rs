//! Streaming layer probe: a porto-taxi replay through `StreamingClusterer`,
//! one closed-loop caller ingesting batches and taking periodic snapshots.
//!
//! Run from the porto-dense traced run rather than as a workload of its
//! own: its single caller thread swung by up to a third with host load, so
//! its end-to-end throughput could not stay within the benchmark's bound.

use crate::report::Report;
use crate::stats::{median_by, percentile, ratio, secs};
use crate::trace::Tracer;
use rtcore::geometry::Point3;
use rtcore::hardware::{DeviceModel, ExecutionPath, WorkCounters};
use rtdbscan::metrics::same_clustering;
use rtdbscan::{ClassicDbscan, Clustering, DbscanParams};
use rtdbscan_datasets::stream::{PointStream, StreamConfig};
use rtdbscan_datasets::PaperDataset;
use rtdbscan_stream::{StreamingClusterer, StreamingConfig, StreamingStats, WindowPolicy};
use std::hint::black_box;
use std::time::Instant;

/// Key of the stream's cross-run repeatability record.
const NAME: &str = "porto-stream";
const EPS: f32 = 0.5;
const MIN_PTS: usize = 8;
/// Count window: the newest `WINDOW` points are live.
const WINDOW: usize = 8_000;
/// Points per `ingest` call.
const BATCH: usize = 250;
/// A `snapshot` follows every `SNAPSHOT_EVERY`-th ingest.
const SNAPSHOT_EVERY: usize = 4;
/// Points in one replay (one iteration): eight windows' worth, so the
/// first window fill is an eighth of the calls.
const REPLAY_POINTS: usize = 8 * WINDOW;
/// Ingests of the untimed warm-up: two windows' worth, so it runs past
/// the first fill into eviction, refits and rebuilds.
const WARM_UP_BATCHES: usize = 2 * WINDOW / BATCH;
/// Replays per timed loop, however long they take.
const MIN_REPLAYS: usize = 2;

struct Setup {
    /// Arrival order; batch `k` is `points[k * BATCH..(k + 1) * BATCH]`.
    points: Vec<Point3>,
    batches: Vec<Vec<(Point3, f64)>>,
    config: StreamingConfig,
}

/// Counts that must repeat exactly across replays and runs of a seed.
#[derive(Debug, Clone, PartialEq)]
struct Counts {
    refits: u64,
    rebuilds: u64,
    dist_comps: u64,
    prim_tests: u64,
    union_ops: u64,
    /// `(core, noise, clusters)` of every snapshot.
    snapshots: Vec<(usize, usize, usize)>,
}

/// What one replay left behind.
struct Replay {
    ingest_s: Vec<f64>,
    snapshot_s: Vec<f64>,
    stats: StreamingStats,
    phases: (WorkCounters, WorkCounters, WorkCounters),
    counts: Counts,
    sim_ms: f64,
}

fn sim_ms(c: &WorkCounters) -> f64 {
    DeviceModel::default()
        .total_time(c, ExecutionPath::RtCore)
        .as_secs_f64()
        * 1e3
}

/// Generate the replay, create a clusterer and run the first
/// [`WARM_UP_BATCHES`] of it through the clusterer untimed.
fn set_up(seed: u64, tracer: &mut Tracer, iter: u64) -> Result<Setup, String> {
    let setup = tracer.begin("setup", iter);
    let span = tracer.begin("datasets.replay", iter);
    let stream_config = StreamConfig {
        total_points: REPLAY_POINTS,
        batch_size: BATCH,
        points_per_second: 1_000.0,
        seed,
    };
    let batches: Vec<Vec<(Point3, f64)>> =
        PointStream::replay(PaperDataset::PortoTaxi, stream_config)
            .map(|batch| batch.into_iter().map(|p| (p.point, p.time)).collect())
            .collect();
    tracer.end(span);
    let points = batches.iter().flatten().map(|&(p, _)| p).collect();
    let params = DbscanParams::new(EPS, MIN_PTS).map_err(|e| format!("parameters: {e}"))?;
    let config = StreamingConfig::new(params, WindowPolicy::Count(WINDOW));
    let span = tracer.begin("streaming_clusterer.new", iter);
    let clusterer = StreamingClusterer::new(config);
    tracer.end(span);
    let mut clusterer = clusterer.map_err(|e| format!("StreamingClusterer::new: {e}"))?;
    let span = tracer.begin("warmup", iter);
    let mut warm_up = Ok(());
    for (k, batch) in batches.iter().take(WARM_UP_BATCHES).enumerate() {
        warm_up = warm_up.and_then(|()| clusterer.ingest(batch).map(|_| ()));
        if k % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1 {
            black_box(clusterer.snapshot());
        }
    }
    tracer.end(span);
    tracer.end(setup);
    warm_up.map_err(|e| format!("warm-up ingest: {e}"))?;
    Ok(Setup {
        points,
        batches,
        config,
    })
}

/// The live window after `batches` ingests.
fn window(points: &[Point3], batches: usize) -> &[Point3] {
    let end = batches * BATCH;
    &points[end.saturating_sub(WINDOW)..end]
}

/// Replay the whole stream through a fresh clusterer, timing every call
/// and checking every snapshot against its reference.
fn replay(
    setup: &Setup,
    references: &[Clustering],
    tracer: &mut Tracer,
    iter: &mut u64,
    report: &mut Report,
) -> Option<Replay> {
    let params = setup.config.params;
    let mut clusterer = match StreamingClusterer::new(setup.config) {
        Ok(c) => c,
        Err(e) => {
            report.violation(format!("StreamingClusterer::new: {e}"));
            return None;
        }
    };
    let (mut ingest_s, mut snapshot_s, mut snapshots) = (Vec::new(), Vec::new(), Vec::new());
    for (k, batch) in setup.batches.iter().enumerate() {
        *iter += 1;
        report.attempted += 1;
        let span = tracer.begin("streaming.ingest", *iter);
        let start = Instant::now();
        let result = clusterer.ingest(batch);
        let wall = start.elapsed();
        tracer.end(span);
        if let Err(e) = result {
            report.failed += 1;
            report.note(format!("ingest {k} failed: {e}; replay abandoned"));
            return None;
        }
        ingest_s.push(secs(wall));
        if k % SNAPSHOT_EVERY != SNAPSHOT_EVERY - 1 {
            continue;
        }
        *iter += 1;
        report.attempted += 1;
        let span = tracer.begin("streaming.snapshot", *iter);
        let start = Instant::now();
        let snapshot = clusterer.snapshot();
        let wall = start.elapsed();
        tracer.end(span);
        snapshot_s.push(secs(wall));
        let expected = window(&setup.points, k + 1);
        let reference = &references[k / SNAPSHOT_EVERY];
        if clusterer.window_points() != expected {
            report.violation(format!(
                "window after ingest {k} is not the newest {WINDOW} points"
            ));
        } else if !same_clustering(&snapshot, reference, expected, params) {
            report.violation(format!(
                "snapshot after ingest {k} disagrees with ClassicDbscan"
            ));
        }
        snapshots.push((
            snapshot.core_count(),
            snapshot.noise_count(),
            snapshot.num_clusters(),
        ));
    }
    let total = clusterer.counters();
    let stats = clusterer.stats();
    Some(Replay {
        ingest_s,
        snapshot_s,
        stats,
        phases: clusterer.phase_counters(),
        counts: Counts {
            refits: stats.refits,
            rebuilds: stats.rebuilds,
            dist_comps: total.dist_comps,
            prim_tests: total.prim_tests,
            union_ops: total.union_ops,
            snapshots,
        },
        sim_ms: sim_ms(&total),
    })
}

/// Replay until `seconds` of timed calls (and at least [`MIN_REPLAYS`]
/// replays) have been measured.
fn measure(
    setup: &Setup,
    references: &[Clustering],
    seconds: f64,
    tracer: &mut Tracer,
    iter: &mut u64,
    report: &mut Report,
) -> Vec<Replay> {
    let mut replays = Vec::new();
    let (mut attempts, mut timed) = (0, 0.0);
    while attempts < MIN_REPLAYS || timed < seconds {
        attempts += 1;
        match replay(setup, references, tracer, iter, report) {
            Some(r) => {
                timed += r.ingest_s.iter().chain(&r.snapshot_s).sum::<f64>();
                replays.push(r);
            }
            None => break,
        }
    }
    replays
}

fn all_samples(replays: &[Replay], f: impl Fn(&Replay) -> &[f64]) -> Vec<f64> {
    replays.iter().flat_map(|r| f(r).iter().copied()).collect()
}

/// Points ingested per second of summed ingest and snapshot wall-clock.
fn points_per_s(replays: &[Replay]) -> f64 {
    let busy: f64 = replays
        .iter()
        .flat_map(|r| r.ingest_s.iter().chain(&r.snapshot_s))
        .sum();
    ratio((replays.len() * REPLAY_POINTS) as f64, busy)
}

/// Nearest-rank percentile in milliseconds; a violation when too few
/// samples lie beyond it.
fn percentile_ms(report: &mut Report, name: &'static str, samples: &[f64], pct: f64) {
    match percentile(samples, pct) {
        Some(p) => report.metric(name, 1e3 * p),
        None => report.violation(format!("{name}: only {} samples", samples.len())),
    }
}

/// Measure the streaming layer over a porto replay generated from `seed`:
/// replays through fresh clusterers until `seconds` of timed calls, every
/// snapshot checked against `ClassicDbscan` over its window.  Reports the
/// per-layer streaming metrics.
pub fn probe(seed: u64, seconds: f64, tracer: &mut Tracer, iter: &mut u64, report: &mut Report) {
    let stream = tracer.begin("stream", *iter);
    let setup = match set_up(seed, tracer, *iter) {
        Ok(s) => s,
        Err(e) => return report.violation(format!("stream set-up failed: {e}")),
    };

    // References for every snapshot, computed from the input alone.
    let span = tracer.begin("classic.cluster", *iter);
    let mut references = Vec::new();
    for k in (SNAPSHOT_EVERY..=setup.batches.len()).step_by(SNAPSHOT_EVERY) {
        match ClassicDbscan::cluster(window(&setup.points, k), setup.config.params) {
            Ok(r) => references.push(r),
            Err(e) => return report.violation(format!("stream reference failed: {e}")),
        }
    }
    tracer.end(span);

    let replays = measure(&setup, &references, seconds, tracer, iter, report);
    tracer.end(stream);
    if replays.is_empty() {
        return report.violation("no stream replay completed");
    }
    let ingests = all_samples(&replays, |r| &r.ingest_s);
    let snapshots = all_samples(&replays, |r| &r.snapshot_s);
    percentile_ms(report, "ingest_ms_p50", &ingests, 50.0);
    percentile_ms(report, "ingest_ms_p90", &ingests, 90.0);
    percentile_ms(report, "snapshot_ms_p50", &snapshots, 50.0);
    percentile_ms(report, "snapshot_ms_p90", &snapshots, 90.0);
    report.metric("ingest_samples", ingests.len() as f64);
    report.metric("snapshot_samples", snapshots.len() as f64);
    report.metric(
        "stream.ingest_s",
        median_by(&replays, |r| r.ingest_s.iter().sum()),
    );
    report.metric(
        "stream.snapshot_s",
        median_by(&replays, |r| r.snapshot_s.iter().sum()),
    );
    let last = replays.last().expect("at least one replay");
    let (build, _, _) = last.phases;
    let stats = last.stats;
    report.metric("stream.refits", stats.refits as f64);
    report.metric("stream.rebuilds", stats.rebuilds as f64);
    report.metric(
        "stream.dirty_snapshot_ratio",
        ratio(
            stats.dirty_snapshots as f64,
            (stats.dirty_snapshots + stats.clean_snapshots) as f64,
        ),
    );
    report.metric("stream.refit_node_ops", build.refit_node_ops as f64);
    report.metric("stream.build_prims", build.build_prims as f64);
    report.metric("stream.dist_comps", last.counts.dist_comps as f64);
    report.metric("stream.union_ops", last.counts.union_ops as f64);
    report.note(format!(
        "stream probe: {REPLAY_POINTS}-point porto replays, window {WINDOW}, ingests of {BATCH}, \
         eps={EPS} minPts={MIN_PTS}, snapshot every {SNAPSHOT_EVERY} ingests; {} replays; \
         {:.0} points/s over summed ingest and snapshot time; simulated {:.1} ms per replay",
        replays.len(),
        points_per_s(&replays),
        median_by(&replays, |r| r.sim_ms)
    ));

    let counts: Vec<Counts> = replays.iter().map(|r| r.counts.clone()).collect();
    report.require_identical(
        "stream refits, rebuilds, dist_comps, prim_tests, union_ops, snapshot counts",
        &counts,
    );
    if let Err(e) = crate::gate::check_across_runs(NAME, seed, &format!("{:?}", counts[0])) {
        report.violation(e);
    }
}

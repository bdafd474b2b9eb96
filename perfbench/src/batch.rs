//! Batch workloads: repeated `ClusterEngine::run` over one generated input,
//! and in the traced run a probe of every layer behind it.

use crate::report::Report;
use crate::stats::{label_hash, median, median_by, ratio, secs};
use crate::trace::Tracer;
use crate::Args;
use rtcore::bvh::{spheres_from_points, BvhBuilder, LbvhBuilder, WideBvh};
use rtcore::geometry::Point3;
use rtcore::hardware::WorkCounters;
use rtcore::index::NeighborFlow;
use rtdbscan::engine::{Algo, ClusterEngine, IndexKind};
use rtdbscan::metrics::same_clustering;
use rtdbscan::{ClassicDbscan, Clustering, DbscanParams, SimulatedBreakdown};
use rtdbscan_datasets::PaperDataset;
use std::hint::black_box;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

pub struct BatchWorkload {
    pub name: &'static str,
    dataset: PaperDataset,
    n: usize,
    eps: f32,
    min_pts: usize,
    shard_size: Option<usize>,
    /// Independent inputs generated per seed; the timed runs cycle
    /// through them and every metric is a median over all runs.
    inputs: usize,
    /// Whether the traced run also probes the streaming layer
    /// ([`crate::stream::probe`]) over a replay of the same dataset.
    stream_probe: bool,
}

/// Porto taxi, nearly all points core: stage 2 and its union-find dominate.
pub const PORTO_DENSE: BatchWorkload = BatchWorkload {
    name: "porto-dense",
    dataset: PaperDataset::PortoTaxi,
    n: 50_000,
    eps: 0.4,
    min_pts: 10,
    shard_size: None,
    // One 50k-point porto draw varies its stage-2 work by about ±9% from
    // seed to seed; the median over five draws keeps that below the bound.
    inputs: 5,
    stream_probe: true,
};

/// 3-D ionosphere analogue over a sharded (TLAS over BLAS) scene: build,
/// shard fan-out and the stitched stage 2 all carry weight.
pub const IONO_SHARDED: BatchWorkload = BatchWorkload {
    name: "iono-sharded",
    dataset: PaperDataset::Ionosphere3d,
    n: 400_000,
    eps: 0.5,
    min_pts: 10,
    shard_size: Some(65_536),
    inputs: 1,
    stream_probe: false,
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed runs per loop, however long they take.
const MIN_RUNS: usize = 3;
/// Largest share of a run's wall-clock that the engine's reported phases
/// (build, stage 1, stage 2) may leave unaccounted.
const PHASE_SUM_BOUND: f64 = 0.05;

struct Setup {
    inputs: Vec<Vec<Point3>>,
    engine: ClusterEngine,
}

/// Counts that must repeat exactly across iterations and runs of a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Counts {
    core: usize,
    noise: usize,
    clusters: usize,
    dist_comps: u64,
    prim_tests: u64,
    union_ops: u64,
}

/// What one timed `ClusterEngine::run` left behind.
struct RunSummary {
    input: usize,
    wall_s: f64,
    reported_s: f64,
    counts: Counts,
    find_ops: u64,
    labels: u64,
    sim: SimulatedBreakdown,
    device_bytes: u64,
}

/// Wall-clock and counters of one pass over the layers behind a run.
struct Probe {
    build_s: f64,
    lbvh_s: f64,
    collapse_s: f64,
    build: WorkCounters,
    stage1_s: f64,
    stage1: WorkCounters,
    neighbors: u64,
    stage2_s: f64,
    stage2: WorkCounters,
    traversal_s: f64,
    pairs: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Generator seed of input `i` of `seed` (input 0 uses the seed itself).
fn input_seed(seed: u64, i: usize) -> u64 {
    seed ^ ((i as u64) << 32)
}

/// Generate the inputs, build the engine and run it once untimed.
fn set_up(w: &BatchWorkload, seed: u64, tracer: &mut Tracer, iter: u64) -> Result<Setup, String> {
    let setup = tracer.begin("setup", iter);
    let span = tracer.begin("datasets.generate", iter);
    let inputs: Vec<Vec<Point3>> = (0..w.inputs)
        .map(|i| rtdbscan_datasets::generate(w.dataset, w.n, input_seed(seed, i)))
        .collect();
    tracer.end(span);
    let span = tracer.begin("engine_builder.build", iter);
    let mut builder = ClusterEngine::builder()
        .algorithm(Algo::Rt)
        .index(IndexKind::WideBatched)
        .eps(w.eps)
        .min_pts(w.min_pts);
    if let Some(shard_size) = w.shard_size {
        builder = builder.shard_size(shard_size);
    }
    let engine = builder.build();
    tracer.end(span);
    let engine = engine.map_err(|e| format!("engine configuration: {e}"))?;
    let span = tracer.begin("engine.run.warmup", iter);
    let warm_up = engine.run(&inputs[0]).map(black_box);
    tracer.end(span);
    tracer.end(setup);
    warm_up.map_err(|e| format!("warm-up run: {e}"))?;
    Ok(Setup { inputs, engine })
}

/// Time `ClusterEngine::run`, cycling through the inputs, until `seconds`
/// of runs (and at least [`MIN_RUNS`] and one per input) have been
/// measured, checking every result against its input's reference.
fn measure(
    setup: &Setup,
    references: &[Clustering],
    seconds: f64,
    tracer: &mut Tracer,
    iter: &mut u64,
    report: &mut Report,
) -> Vec<RunSummary> {
    let params = setup.engine.params();
    let mut runs = Vec::new();
    let min_runs = MIN_RUNS.max(setup.inputs.len());
    let (mut attempts, mut timed) = (0, 0.0);
    while attempts < min_runs || timed < seconds {
        let input = attempts % setup.inputs.len();
        let points = &setup.inputs[input];
        attempts += 1;
        *iter += 1;
        report.attempted += 1;
        let span = tracer.begin("engine.run", *iter);
        let start = Instant::now();
        let result = setup.engine.run(points);
        let wall = start.elapsed();
        if let Ok(r) = &result {
            // The engine's own phase timings, laid end to end under the run.
            let t = r.timings;
            tracer.derived("build", &span, *iter, Duration::ZERO, t.build);
            tracer.derived("stage1", &span, *iter, t.build, t.core_identification);
            let stage2_at = t.build + t.core_identification;
            tracer.derived("stage2", &span, *iter, stage2_at, t.cluster_formation);
        }
        tracer.end(span);
        timed += secs(wall);
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                report.failed += 1;
                report.note(format!("engine.run failed: {e}"));
                continue;
            }
        };
        if !same_clustering(&r.clustering, &references[input], points, params) {
            report.violation(format!("run {} disagrees with ClassicDbscan", *iter));
        }
        let total = r.counters.total();
        runs.push(RunSummary {
            input,
            wall_s: secs(wall),
            reported_s: secs(r.timings.total()),
            counts: Counts {
                core: r.clustering.core_count(),
                noise: r.clustering.noise_count(),
                clusters: r.clustering.num_clusters(),
                dist_comps: total.dist_comps,
                prim_tests: total.prim_tests,
                union_ops: total.union_ops,
            },
            find_ops: r.counters.cluster_formation.find_ops,
            labels: label_hash(&r.clustering.labels),
            sim: setup.engine.simulate(&r),
            device_bytes: r.device_bytes,
        });
    }
    runs
}

/// One pass over the public functions of each layer behind a run.
fn probe(
    setup: &Setup,
    reference: &Clustering,
    tracer: &mut Tracer,
    iter: u64,
) -> Result<Probe, String> {
    let (points, engine) = (&setup.inputs[0], &setup.engine);
    let DbscanParams { eps, min_pts } = engine.params();
    let pass = tracer.begin("probe", iter);

    let span = tracer.begin("engine.build_index", iter);
    let start = Instant::now();
    let index = engine.build_index(points);
    let build_s = secs(start.elapsed());
    tracer.end(span);
    let index = index.map_err(|e| format!("build_index: {e}"))?;

    let spheres = spheres_from_points(points, eps);
    let span = tracer.begin("bvh.lbvh", iter);
    let start = Instant::now();
    let bvh = LbvhBuilder::default().build(spheres);
    let lbvh_s = secs(start.elapsed());
    tracer.end(span);
    let bvh = bvh.map_err(|e| format!("LbvhBuilder::build: {e}"))?;
    let span = tracer.begin("bvh.collapse", iter);
    let start = Instant::now();
    black_box(WideBvh::from_binary(&bvh));
    let collapse_s = secs(start.elapsed());
    tracer.end(span);

    let counts: Vec<AtomicU64> = points.iter().map(|_| AtomicU64::new(0)).collect();
    let mut stage1 = WorkCounters::ZERO;
    let span = tracer.begin("index.batch_neighbor_counts", iter);
    let start = Instant::now();
    index.batch_neighbor_counts(points, eps, true, None, &mut stage1, &counts);
    let stage1_s = secs(start.elapsed());
    tracer.end(span);
    let neighbors = counts.into_iter().map(AtomicU64::into_inner).sum();

    let span = tracer.begin("engine.session", iter);
    let session = engine.session(points);
    tracer.end(span);
    let session = session.map_err(|e| format!("session: {e}"))?;
    let span = tracer.begin("session.cluster", iter);
    let start = Instant::now();
    let clustered = session.cluster(min_pts);
    let stage2_s = secs(start.elapsed());
    tracer.end(span);
    let clustered = clustered.map_err(|e| format!("session.cluster: {e}"))?;
    if !same_clustering(&clustered.clustering, reference, points, engine.params()) {
        return Err("session.cluster disagrees with ClassicDbscan".into());
    }

    // Stage 2's traversal alone: the same core-point launch with a sink
    // that touches no shared state.
    let counts = session.neighbor_counts();
    let queries: Vec<Point3> = points
        .iter()
        .zip(counts)
        .filter(|&(_, &c)| c as usize >= min_pts)
        .map(|(&p, _)| p)
        .collect();
    let mut scratch = WorkCounters::ZERO;
    let span = tracer.begin("index.batch_neighbors.noop", iter);
    let start = Instant::now();
    session
        .index()
        .batch_neighbors(&queries, eps, &mut scratch, &|_, _, _| {
            NeighborFlow::Continue
        });
    let traversal_s = secs(start.elapsed());
    tracer.end(span);
    // The (core query, other point) pairs stage 2 hands to the union-find
    // and border claim: each core point's stage-1 count, which excludes the
    // point itself (the index does not compact coincident points).
    let pairs = counts.iter().filter(|&&c| c as usize >= min_pts).sum();
    tracer.end(pass);

    Ok(Probe {
        build_s,
        lbvh_s,
        collapse_s,
        build: index.build_counters(),
        stage1_s,
        stage1,
        neighbors,
        stage2_s,
        stage2: clustered.counters.cluster_formation,
        traversal_s,
        pairs,
    })
}

pub fn run(w: &BatchWorkload, args: &Args, tracer: &mut Tracer, report: &mut Report) {
    let mut iter = 0;
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        iter += 1;
        let start = Instant::now();
        match set_up(w, args.seed, tracer, iter) {
            Ok(s) => setup = Some(s),
            Err(e) => return report.violation(format!("set-up failed: {e}")),
        }
        setup_s.push(secs(start.elapsed()));
    }
    let setup = setup.expect("at least one set-up ran");
    let params = setup.engine.params();
    report.metric("setup_s", median(&setup_s));

    let mut references = Vec::new();
    let mut classic_s = Vec::new();
    for points in &setup.inputs {
        let span = tracer.begin("classic.cluster", iter);
        let start = Instant::now();
        let reference = ClassicDbscan::cluster(points, params);
        classic_s.push(secs(start.elapsed()));
        tracer.end(span);
        match reference {
            Ok(r) => references.push(r),
            Err(e) => return report.violation(format!("reference ClassicDbscan failed: {e}")),
        }
    }
    let classic_s = median(&classic_s);

    let mut untraced = Tracer::off();
    let runs = measure(
        &setup,
        &references,
        args.seconds,
        &mut untraced,
        &mut iter,
        report,
    );
    if runs.is_empty() {
        return report.violation("no engine.run succeeded");
    }
    let n = w.n as f64;
    let points_per_s = n / median_by(&runs, |r| r.wall_s);
    report.metric("points_per_s", points_per_s);
    report.metric("sim_device_ms", median_by(&runs, |r| ms(r.sim.total().0)));
    report.metric(
        "device_mb",
        median_by(&runs, |r| r.device_bytes as f64) / (1 << 20) as f64,
    );
    report.metric("ref.classic_s", classic_s);
    report.note(format!(
        "{}: {} input(s) of n={} eps={} minPts={}; {} timed runs; points_per_s \
         {points_per_s:.0} against sequential ClassicDbscan {classic_s:.3} s ({:.0} points/s, \
         parallel speed-up {:.2}x)",
        w.name,
        w.inputs,
        w.n,
        params.eps,
        params.min_pts,
        runs.len(),
        n / classic_s,
        points_per_s * classic_s / n
    ));

    let mut all = runs;
    if args.trace {
        let traced = measure(&setup, &references, args.seconds, tracer, &mut iter, report);
        if traced.is_empty() {
            return report.violation("no traced engine.run succeeded");
        }
        traced_run_metrics(n, &all, &traced, report);
        probe_metrics(
            &setup,
            &references[0],
            args.seconds,
            tracer,
            &mut iter,
            report,
        );
        if w.stream_probe {
            crate::stream::probe(args.seed, args.seconds, tracer, &mut iter, report);
        }
        all.extend(traced);
    }

    // Gates and run-to-run figures, per input.
    let mut first_counts = Vec::new();
    let (mut label_variants, mut find_ops_spread) = (0, 0);
    for input in 0..w.inputs {
        let runs: Vec<&RunSummary> = all.iter().filter(|r| r.input == input).collect();
        let counts: Vec<Counts> = runs.iter().map(|r| r.counts).collect();
        report.require_identical(
            "core/noise/cluster counts, dist_comps, prim_tests, union_ops",
            &counts,
        );
        first_counts.push(counts.first().copied());
        let mut labels: Vec<u64> = runs.iter().map(|r| r.labels).collect();
        labels.sort_unstable();
        labels.dedup();
        label_variants = label_variants.max(labels.len());
        let finds = runs.iter().map(|r| r.find_ops);
        let spread = finds.clone().max().unwrap_or(0) - finds.min().unwrap_or(0);
        find_ops_spread = find_ops_spread.max(spread);
    }
    if let Err(e) = crate::gate::check_across_runs(w.name, args.seed, &format!("{first_counts:?}"))
    {
        report.violation(e);
    }
    report.metric("engine.label_variants", label_variants as f64);
    report.metric("stage2.find_ops_spread", find_ops_spread as f64);
    report.metric("run_samples", all.len() as f64);
    report.metric(
        "error_rate",
        ratio(report.failed as f64, report.attempted as f64),
    );
}

/// Tracing overhead, the phase-sum check and the simulated phases, from
/// the traced loop's runs.
fn traced_run_metrics(n: f64, untraced: &[RunSummary], traced: &[RunSummary], report: &mut Report) {
    report.metric("trace.points_per_s", n / median_by(traced, |r| r.wall_s));
    report.metric(
        "trace.points_per_s_untraced",
        n / median_by(untraced, |r| r.wall_s),
    );
    report.metric("trace.op_ms_p50", 1e3 * median_by(traced, |r| r.wall_s));
    report.metric(
        "trace.op_ms_p50_untraced",
        1e3 * median_by(untraced, |r| r.wall_s),
    );

    // Phase-sum check: build + stage 1 + stage 2 must cover each run.
    for r in traced {
        let share = ratio(r.wall_s - r.reported_s, r.wall_s);
        if share.abs() > PHASE_SUM_BOUND {
            report.violation(format!(
                "phase sum: reported phases leave {:.1}% of a {:.3} s run unaccounted",
                100.0 * share,
                r.wall_s
            ));
        }
    }
    report.metric(
        "engine.unaccounted_s",
        median_by(traced, |r| r.wall_s - r.reported_s),
    );
    report.metric("sim.build_ms", median_by(traced, |r| ms(r.sim.build.0)));
    report.metric(
        "sim.stage1_ms",
        median_by(traced, |r| ms(r.sim.core_identification.0)),
    );
    report.metric(
        "sim.stage2_ms",
        median_by(traced, |r| ms(r.sim.cluster_formation.0)),
    );
}

/// Per-layer metrics from [`probe`] passes repeated for `seconds`.
fn probe_metrics(
    setup: &Setup,
    reference: &Clustering,
    seconds: f64,
    tracer: &mut Tracer,
    iter: &mut u64,
    report: &mut Report,
) {
    let mut probes = Vec::new();
    let start = Instant::now();
    while probes.is_empty() || secs(start.elapsed()) < seconds {
        *iter += 1;
        match probe(setup, reference, tracer, *iter) {
            Ok(p) => probes.push(p),
            Err(e) => return report.violation(format!("layer probe: {e}")),
        }
    }
    let counts: Vec<(u64, u64, u64)> = probes
        .iter()
        .map(|p| (p.stage1.dist_comps, p.stage2.dist_comps, p.stage2.union_ops))
        .collect();
    report.require_identical("probe dist_comps/union_ops", &counts);

    let last = probes.last().expect("at least one probe");
    report.metric("index.build_s", median_by(&probes, |p| p.build_s));
    report.metric("bvh.lbvh_s", median_by(&probes, |p| p.lbvh_s));
    report.metric("bvh.collapse_s", median_by(&probes, |p| p.collapse_s));
    report.metric("index.build_prims", last.build.build_prims as f64);
    report.metric("index.build_sort_ops", last.build.build_sort_ops as f64);
    report.metric("index.build_node_ops", last.build.build_node_ops as f64);

    let s1 = last.stage1;
    report.metric("stage1.s", median_by(&probes, |p| p.stage1_s));
    report.metric("stage1.rays", s1.rays as f64);
    report.metric("stage1.wide_node_visits", s1.wide_node_visits as f64);
    report.metric("stage1.prim_tests", s1.prim_tests as f64);
    report.metric("stage1.dist_comps", s1.dist_comps as f64);
    report.metric("stage1.neighbors", last.neighbors as f64);
    report.metric(
        "stage1.hit_ratio",
        ratio(last.neighbors as f64, s1.prim_tests as f64),
    );
    report.metric("stage1.tlas_node_visits", s1.tlas_node_visits as f64);
    report.metric("stage1.blas_launches", s1.blas_launches as f64);

    let stage2_s = median_by(&probes, |p| p.stage2_s);
    let traversal_s = median_by(&probes, |p| p.traversal_s);
    let s2 = last.stage2;
    let find_ops = median_by(&probes, |p| p.stage2.find_ops as f64);
    report.metric("stage2.s", stage2_s);
    report.metric("stage2.traversal_s", traversal_s);
    report.metric("stage2.uf_self_s", stage2_s - traversal_s);
    report.metric("stage2.pairs", last.pairs as f64);
    report.metric("stage2.dist_comps", s2.dist_comps as f64);
    report.metric("stage2.find_ops", find_ops);
    report.metric("stage2.union_ops", s2.union_ops as f64);
    report.metric("stage2.finds_per_pair", ratio(find_ops, last.pairs as f64));
    report.metric(
        "stage2.merge_ratio",
        ratio(s2.union_ops as f64, last.pairs as f64),
    );
    report.note(format!(
        "stage2.uf_self_s is derived: stage2.s - stage2.traversal_s; {} probe passes",
        probes.len()
    ));
}

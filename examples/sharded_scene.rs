//! Two-level scenes: the same clustering through a TLAS over sharded
//! bottom-level BVHs.  Stage 2 is one flat launch there too: each core
//! point's query reaches every shard it overlaps, so clusters that span
//! shard cuts merge in the one union-find.
//!
//! ```text
//! cargo run --release --example sharded_scene
//! ```
//!
//! Builds the same workload twice — once on the flat wide-batched backend,
//! once with `shard_size` set so the scene splits into a top-level BVH over
//! Morton-range shards — and shows that labels and candidate counters of
//! both stages are identical while the sharded run routes through the TLAS
//! and builds its shards in parallel.  Then demonstrates the streaming
//! payoff: evicting a whole region of space drops its bottom-level BVH
//! outright instead of refitting it.

use rtdbscan::metrics::same_clustering;
use rtdbscan_repro::prelude::*;
use rtdbscan_stream::ShardedWindow;

fn main() {
    // --- 1. A long chain of blobs, so clusters straddle shard cuts. --------
    let blobs: Vec<rtdbscan_datasets::synthetic::Blob> = (0..8)
        .map(|i| rtdbscan_datasets::synthetic::Blob {
            center: Point3::new_2d(i as f32 * 2.2, (i % 2) as f32),
            std_dev: 0.5,
            count: 700,
        })
        .collect();
    let points = rtdbscan_datasets::synthetic::gaussian_blobs_with_noise(
        &blobs,
        200,
        (Point3::new_2d(-4.0, -8.0), Point3::new_2d(22.0, 10.0)),
        true,
        7,
    );
    let params = DbscanParams::new(0.35, 8).unwrap();
    println!("dataset: {} points in a chain of 8 blobs", points.len());

    // --- 2. Flat vs sharded: one knob, identical answers. ------------------
    // Both engines pin the LBVH builder: aligned Morton sharding then
    // reproduces the flat tree's leaf partition, so even the candidate
    // counters match bit for bit.
    let flat = ClusterEngine::builder()
        .params(params)
        .bvh_builder(rtcore::bvh::BuilderKind::Lbvh)
        .build()
        .unwrap()
        .run(&points)
        .unwrap();
    let sharded = ClusterEngine::builder()
        .params(params)
        .bvh_builder(rtcore::bvh::BuilderKind::Lbvh)
        .shard_size(1024)
        .build()
        .unwrap()
        .run(&points)
        .unwrap();

    println!(
        "flat:    {} clusters, {} noise, stage-1 dist_comps {}",
        flat.clustering.num_clusters(),
        flat.clustering.noise_count(),
        flat.counters.core_identification.dist_comps,
    );
    println!(
        "sharded: {} clusters, {} noise, stage-1 dist_comps {} \
         (tlas_node_visits {}, blas_launches {})",
        sharded.clustering.num_clusters(),
        sharded.clustering.noise_count(),
        sharded.counters.core_identification.dist_comps,
        sharded.counters.core_identification.tlas_node_visits,
        sharded.counters.core_identification.blas_launches,
    );
    assert_eq!(flat.clustering.core, sharded.clustering.core);
    assert_eq!(flat.clustering.labels, sharded.clustering.labels);
    assert_eq!(
        flat.counters.core_identification.dist_comps,
        sharded.counters.core_identification.dist_comps
    );
    assert_eq!(
        flat.counters.cluster_formation.dist_comps,
        sharded.counters.cluster_formation.dist_comps
    );
    assert!(same_clustering(
        &flat.clustering,
        &sharded.clustering,
        &points,
        params
    ));
    println!("=> identical labels and identical candidate work\n");

    // --- 3. Streaming eviction: aging out a region drops its BLAS. ---------
    let mut window = ShardedWindow::build(&points, params.eps, 1024).unwrap();
    let before = window.stats();
    println!(
        "window: {} shards planned over {} points",
        before.planned_shards,
        window.len()
    );
    // Retire everything the first two shards own (the oldest Morton range).
    let expired: Vec<u32> = (0..points.len() as u32)
        .filter(|&i| matches!(window.index().owner_shard(i), Some(0) | Some(1)))
        .collect();
    window.evict(&expired).unwrap();
    let after = window.stats();
    println!(
        "evicted {} points: {} BLASes dropped, {} shards still live, {} points remain",
        after.evicted_points,
        after.dropped_blases,
        after.live_shards,
        window.len()
    );
    assert!(after.dropped_blases >= 2);
}

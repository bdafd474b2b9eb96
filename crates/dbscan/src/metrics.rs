//! Clustering-comparison metrics and DBSCAN-specific equivalence checks.
//!
//! DBSCAN's output is deterministic for core points and noise, but border
//! points that are reachable from more than one cluster may legitimately be
//! assigned to either (the paper resolves this with the atomic claim in
//! Algorithm 3; this workspace gives such a point to its lowest-index core
//! neighbour).  Comparing two implementations therefore needs a notion of
//! equivalence that is exact on core points and tolerant of border
//! ambiguity; [`same_clustering`] implements it.  [`adjusted_rand_index`] and
//! [`normalized_mutual_information`] are also provided for fuzzier,
//! score-style comparisons in reports.

use crate::labels::Clustering;
use crate::params::DbscanParams;
use rtcore::geometry::Point3;
use rtcore::hardware::WorkCounters;
use rtcore::index::{BinaryBvhIndex, NeighborIndex, NeighborIndexBuilder};
use std::collections::HashMap;

/// Pair-counting helper: returns `n * (n - 1) / 2` as f64.
#[inline]
fn pairs(n: u64) -> f64 {
    (n as f64) * ((n as f64) - 1.0) / 2.0
}

/// Effective label of a point for the score metrics: noise points are
/// treated as singleton clusters (a common convention for DBSCAN scoring).
fn effective_labels(c: &Clustering) -> Vec<i64> {
    let mut next_noise = -1i64;
    c.labels
        .iter()
        .map(|&l| {
            if l >= 0 {
                l
            } else {
                // Unique negative id per noise point.
                next_noise -= 1;
                next_noise
            }
        })
        .collect()
}

/// Adjusted Rand Index between two clusterings of the same points.
///
/// 1.0 means identical partitions; 0.0 is the chance level.  Noise points
/// are treated as singleton clusters.
///
/// # Panics
/// Panics if the clusterings have different lengths.
pub fn adjusted_rand_index(a: &Clustering, b: &Clustering) -> f64 {
    assert_eq!(a.len(), b.len(), "clusterings must cover the same points");
    let n = a.len() as u64;
    if n < 2 {
        return 1.0;
    }
    let la = effective_labels(a);
    let lb = effective_labels(b);

    let mut contingency: HashMap<(i64, i64), u64> = HashMap::new();
    let mut sum_a: HashMap<i64, u64> = HashMap::new();
    let mut sum_b: HashMap<i64, u64> = HashMap::new();
    for i in 0..a.len() {
        *contingency.entry((la[i], lb[i])).or_default() += 1;
        *sum_a.entry(la[i]).or_default() += 1;
        *sum_b.entry(lb[i]).or_default() += 1;
    }

    let sum_comb_cells: f64 = contingency.values().map(|&c| pairs(c)).sum();
    let sum_comb_a: f64 = sum_a.values().map(|&c| pairs(c)).sum();
    let sum_comb_b: f64 = sum_b.values().map(|&c| pairs(c)).sum();
    let total_pairs = pairs(n);

    let expected = sum_comb_a * sum_comb_b / total_pairs;
    let max_index = 0.5 * (sum_comb_a + sum_comb_b);
    if (max_index - expected).abs() < f64::EPSILON {
        return 1.0;
    }
    (sum_comb_cells - expected) / (max_index - expected)
}

/// Normalised Mutual Information (arithmetic normalisation) between two
/// clusterings.  Noise points are treated as singleton clusters.
///
/// # Panics
/// Panics if the clusterings have different lengths.
pub fn normalized_mutual_information(a: &Clustering, b: &Clustering) -> f64 {
    assert_eq!(a.len(), b.len(), "clusterings must cover the same points");
    let n = a.len() as f64;
    if a.is_empty() {
        return 1.0;
    }
    let la = effective_labels(a);
    let lb = effective_labels(b);

    let mut joint: HashMap<(i64, i64), f64> = HashMap::new();
    let mut pa: HashMap<i64, f64> = HashMap::new();
    let mut pb: HashMap<i64, f64> = HashMap::new();
    for i in 0..a.len() {
        *joint.entry((la[i], lb[i])).or_default() += 1.0;
        *pa.entry(la[i]).or_default() += 1.0;
        *pb.entry(lb[i]).or_default() += 1.0;
    }
    let entropy = |p: &HashMap<i64, f64>| -> f64 {
        p.values()
            .map(|&c| {
                let q = c / n;
                -q * q.ln()
            })
            .sum()
    };
    let ha = entropy(&pa);
    let hb = entropy(&pb);
    let mut mi = 0.0;
    for (&(x, y), &c) in &joint {
        let pxy = c / n;
        let px = pa[&x] / n;
        let py = pb[&y] / n;
        mi += pxy * (pxy / (px * py)).ln();
    }
    if ha == 0.0 && hb == 0.0 {
        return 1.0;
    }
    (2.0 * mi / (ha + hb)).clamp(0.0, 1.0)
}

/// DBSCAN-specific equivalence between two clusterings of `points` under
/// `params`:
///
/// 1. core-point flags must be identical;
/// 2. core points must induce the same partition (there is a bijection
///    between the cluster ids restricted to core points);
/// 3. a non-core point must be noise in both or assigned in both, and when
///    assigned its cluster must contain at least one core point within ε of
///    it (i.e. the assignment is one a valid DBSCAN run could have made).
pub fn same_clustering(
    a: &Clustering,
    b: &Clustering,
    points: &[Point3],
    params: DbscanParams,
) -> bool {
    if a.len() != b.len() || a.len() != points.len() {
        return false;
    }
    if a.core != b.core {
        return false;
    }

    // Core-point partition must match exactly via a bijection of labels.
    let mut a_to_b: HashMap<i64, i64> = HashMap::new();
    let mut b_to_a: HashMap<i64, i64> = HashMap::new();
    for i in 0..a.len() {
        if !a.core[i] {
            continue;
        }
        let (la, lb) = (a.labels[i], b.labels[i]);
        if la < 0 || lb < 0 {
            return false; // a core point must always be in a cluster
        }
        if *a_to_b.entry(la).or_insert(lb) != lb {
            return false;
        }
        if *b_to_a.entry(lb).or_insert(la) != la {
            return false;
        }
    }

    // Border / noise points.
    let mut search: Option<BinaryBvhIndex> = None;
    for i in 0..a.len() {
        if a.core[i] {
            continue;
        }
        let (la, lb) = (a.labels[i], b.labels[i]);
        match (la >= 0, lb >= 0) {
            (false, false) => {}
            (true, true) => {
                // Validate each assignment independently: the cluster must be
                // reachable through some core neighbour.
                let search = search.get_or_insert_with(|| {
                    let config = NeighborIndexBuilder::new(rtcore::index::IndexKind::BinaryBvh);
                    BinaryBvhIndex::build(&config, points, params.eps)
                        // analyze-allow: lib-unwrap -- validation-only helper; the same finite points were already indexed by this builder
                        .expect("validation search over finite points cannot fail")
                });
                let mut scratch = WorkCounters::ZERO;
                for (clustering, label) in [(a, la), (b, lb)] {
                    let ok = search
                        .neighbors_of(points[i], params.eps, Some(i as u32), &mut scratch)
                        .into_iter()
                        .any(|j| {
                            let j = j as usize;
                            clustering.core[j] && clustering.labels[j] == label
                        });
                    if !ok {
                        return false;
                    }
                }
            }
            _ => return false, // assigned in one, noise in the other
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::NOISE;

    fn line_points(n: usize, spacing: f32) -> Vec<Point3> {
        (0..n)
            .map(|i| Point3::new_2d(i as f32 * spacing, 0.0))
            .collect()
    }

    #[test]
    fn ari_of_identical_clusterings_is_one() {
        let c = Clustering::new(vec![0, 0, 1, 1, NOISE], vec![true, true, true, true, false]);
        assert!((adjusted_rand_index(&c, &c) - 1.0).abs() < 1e-12);
        assert!((normalized_mutual_information(&c, &c) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ari_is_invariant_to_relabelling() {
        let a = Clustering::new(vec![0, 0, 1, 1], vec![true; 4]);
        let b = Clustering::new(vec![7, 7, 3, 3], vec![true; 4]);
        assert!((adjusted_rand_index(&a, &b) - 1.0).abs() < 1e-12);
        assert!((normalized_mutual_information(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ari_detects_disagreement() {
        let a = Clustering::new(vec![0, 0, 0, 1, 1, 1], vec![true; 6]);
        let b = Clustering::new(vec![0, 0, 1, 1, 0, 1], vec![true; 6]);
        let ari = adjusted_rand_index(&a, &b);
        assert!(ari < 0.5, "{ari}");
        let nmi = normalized_mutual_information(&a, &b);
        assert!(nmi < 0.9, "{nmi}");
    }

    #[test]
    fn ari_handles_tiny_inputs() {
        let a = Clustering::new(vec![0], vec![true]);
        assert_eq!(adjusted_rand_index(&a, &a), 1.0);
        let empty = Clustering::new(vec![], vec![]);
        assert_eq!(normalized_mutual_information(&empty, &empty), 1.0);
    }

    #[test]
    fn same_clustering_accepts_relabeled_clusters() {
        // 0-1-2 close together, 4-5-6 close together, 3 far away.
        let pts = vec![
            Point3::new_2d(0.0, 0.0),
            Point3::new_2d(0.5, 0.0),
            Point3::new_2d(1.0, 0.0),
            Point3::new_2d(50.0, 50.0),
            Point3::new_2d(100.0, 0.0),
            Point3::new_2d(100.5, 0.0),
            Point3::new_2d(101.0, 0.0),
        ];
        let params = DbscanParams::new(1.0, 2).unwrap();
        let core = vec![true, true, true, false, true, true, true];
        let a = Clustering::new(vec![10, 10, 10, NOISE, 20, 20, 20], core.clone());
        let b = Clustering::new(vec![2, 2, 2, NOISE, 1, 1, 1], core);
        assert!(same_clustering(&a, &b, &pts, params));
    }

    #[test]
    fn same_clustering_rejects_core_mismatch() {
        let pts = line_points(4, 0.5);
        let params = DbscanParams::new(1.0, 2).unwrap();
        let a = Clustering::new(vec![0, 0, 0, 0], vec![true, true, true, true]);
        let b = Clustering::new(vec![0, 0, 0, 0], vec![true, true, true, false]);
        assert!(!same_clustering(&a, &b, &pts, params));
    }

    #[test]
    fn same_clustering_rejects_merged_clusters() {
        // Two separate pairs; clustering `b` wrongly merges them.
        let pts = vec![
            Point3::new_2d(0.0, 0.0),
            Point3::new_2d(0.5, 0.0),
            Point3::new_2d(100.0, 0.0),
            Point3::new_2d(100.5, 0.0),
        ];
        let params = DbscanParams::new(1.0, 1).unwrap();
        let core = vec![true; 4];
        let a = Clustering::new(vec![0, 0, 1, 1], core.clone());
        let b = Clustering::new(vec![0, 0, 0, 0], core);
        assert!(!same_clustering(&a, &b, &pts, params));
        assert!(!same_clustering(&b, &a, &pts, params));
    }

    #[test]
    fn same_clustering_allows_border_ambiguity() {
        // Point 2 is a border point reachable from both cluster {0,1} and
        // cluster {3,4}; assigning it to either is valid.
        let pts = vec![
            Point3::new_2d(0.0, 0.0),
            Point3::new_2d(0.8, 0.0),
            Point3::new_2d(1.6, 0.0), // border, reachable from both sides
            Point3::new_2d(2.4, 0.0),
            Point3::new_2d(3.2, 0.0),
        ];
        let params = DbscanParams::new(1.0, 2).unwrap();
        let core = vec![true, true, false, true, true];
        let a = Clustering::new(vec![0, 0, 0, 1, 1], core.clone());
        let b = Clustering::new(vec![0, 0, 1, 1, 1], core);
        assert!(same_clustering(&a, &b, &pts, params));
    }

    #[test]
    fn same_clustering_rejects_invalid_border_assignment() {
        // Border point 2 is near cluster 0 only; assigning it to cluster 1 is
        // not something a correct DBSCAN could do.
        let pts = vec![
            Point3::new_2d(0.0, 0.0),
            Point3::new_2d(0.8, 0.0),
            Point3::new_2d(1.6, 0.0),
            Point3::new_2d(50.0, 0.0),
            Point3::new_2d(50.8, 0.0),
        ];
        let params = DbscanParams::new(1.0, 2).unwrap();
        let core = vec![true, true, false, true, true];
        let good = Clustering::new(vec![0, 0, 0, 1, 1], core.clone());
        let bad = Clustering::new(vec![0, 0, 1, 1, 1], core);
        assert!(!same_clustering(&good, &bad, &pts, params));
    }

    #[test]
    fn same_clustering_rejects_noise_vs_assigned_disagreement() {
        let pts = line_points(3, 0.5);
        let params = DbscanParams::new(1.0, 2).unwrap();
        let core = vec![true, true, false];
        let a = Clustering::new(vec![0, 0, 0], core.clone());
        let b = Clustering::new(vec![0, 0, NOISE], core);
        assert!(!same_clustering(&a, &b, &pts, params));
    }

    #[test]
    #[should_panic(expected = "same points")]
    fn ari_panics_on_length_mismatch() {
        let a = Clustering::new(vec![0], vec![true]);
        let b = Clustering::new(vec![0, 1], vec![true, true]);
        adjusted_rand_index(&a, &b);
    }
}

//! Bounded-exhaustive interleaving models for the workspace's lock-free
//! core, driven by the in-tree `loom` shim (`crates/shims/loom`).
//!
//! Run with:
//!
//! ```text
//! cargo test -p rtdbscan-analyze --features loom-models
//! ```
//!
//! Each `loom::model` closure is replayed under every distinct thread
//! schedule the bounded scheduler can reach (preemption-bounded DFS, all
//! atomic/mutex operations are yield points, sequentially consistent
//! semantics).  The assertions therefore hold on *every* interleaving, not
//! just the ones a stress test happens to hit.  The suite is compiled only
//! under the `loom-models` feature, which switches `rtdbscan` onto the
//! model-aware atomics.
#![cfg(feature = "loom-models")]

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::{Arc, Mutex};
use loom::thread;
use rtcore::hardware::WorkCounters;
use rtdbscan::disjoint_set::{ConcurrentDisjointSet, EpochDisjointSet};

/// Two threads union disjoint pairs that share an element; every schedule
/// must converge to one set {0,1,2} whose representative is the smallest
/// index (the forest links larger roots under smaller ones).
#[test]
fn concurrent_dsu_overlapping_unions_converge() {
    let schedules = loom::model(|| {
        let dsu = Arc::new(ConcurrentDisjointSet::new(3));
        let a = {
            let dsu = Arc::clone(&dsu);
            thread::spawn(move || {
                dsu.union(0, 1, &mut WorkCounters::default());
            })
        };
        let b = {
            let dsu = Arc::clone(&dsu);
            thread::spawn(move || {
                dsu.union(1, 2, &mut WorkCounters::default());
            })
        };
        a.join().unwrap();
        b.join().unwrap();
        assert!(dsu.same_set(0, 2), "unions did not merge transitively");
        assert_eq!(dsu.find(0), 0, "links must point at the smallest index");
        assert_eq!(dsu.find(1), 0);
        assert_eq!(dsu.find(2), 0);
    });
    assert!(schedules > 1, "scheduler explored only one interleaving");
}

/// Two threads racing to union the *same* pair: the linking CAS guarantees
/// exactly one of them performs the merge in every interleaving (this is
/// the linearization point of `union`).
#[test]
fn concurrent_dsu_racing_same_pair_merges_once() {
    loom::model(|| {
        let dsu = Arc::new(ConcurrentDisjointSet::new(2));
        let spawn_union = |dsu: &Arc<ConcurrentDisjointSet>| {
            let dsu = Arc::clone(dsu);
            thread::spawn(move || {
                let mut tally = WorkCounters::ZERO;
                (dsu.union(0, 1, &mut tally), tally)
            })
        };
        let a = spawn_union(&dsu);
        let b = spawn_union(&dsu);
        let (merged_a, tally_a) = a.join().unwrap();
        let (merged_b, tally_b) = b.join().unwrap();
        assert!(
            merged_a ^ merged_b,
            "exactly one thread must win the linking CAS (a={merged_a}, b={merged_b})"
        );
        assert_eq!(
            tally_a.union_ops + tally_b.union_ops,
            1,
            "the threads' own tallies must record the single link"
        );
    });
}

/// A `find` racing a `union` observes either the pre-link or post-link
/// forest — never a torn state — and the post-join answer is always the
/// merged root.  Path halving's CAS may rewrite parents concurrently, which
/// is exactly what this model exercises.
#[test]
fn concurrent_dsu_find_during_union_is_linearizable() {
    loom::model(|| {
        let dsu = Arc::new(ConcurrentDisjointSet::new(3));
        // Pre-link 1 under 2 so the racing union must re-root a chain.
        dsu.union(1, 2, &mut WorkCounters::default());
        let u = {
            let dsu = Arc::clone(&dsu);
            thread::spawn(move || {
                dsu.union(0, 2, &mut WorkCounters::default());
            })
        };
        let f = {
            let dsu = Arc::clone(&dsu);
            thread::spawn(move || dsu.find(2))
        };
        let observed = f.join().unwrap();
        u.join().unwrap();
        assert!(
            observed == 0 || observed == 1,
            "find must see a valid pre- or post-union root, got {observed}"
        );
        assert_eq!(dsu.find(2), 0, "post-join root must be the merged minimum");
        assert!(dsu.same_set(0, 1));
    });
}

/// The epoch union-find is `&mut`-only, so stage-2 shares it behind a
/// mutex; the model proves lock-protected unions from two threads plus an
/// O(1) epoch reset behave like their serial counterparts in every
/// schedule.
#[test]
fn epoch_dsu_under_mutex_with_reset() {
    loom::model(|| {
        let dsu = Arc::new(Mutex::new(EpochDisjointSet::new(4)));
        let a = {
            let dsu = Arc::clone(&dsu);
            thread::spawn(move || {
                dsu.lock().union(0, 1);
            })
        };
        let b = {
            let dsu = Arc::clone(&dsu);
            thread::spawn(move || {
                dsu.lock().union(2, 3);
            })
        };
        a.join().unwrap();
        b.join().unwrap();
        let mut d = dsu.lock();
        assert!(d.same_set(0, 1));
        assert!(d.same_set(2, 3));
        assert!(!d.same_set(1, 2), "independent unions must stay disjoint");
        let epoch_before = d.epoch();
        d.reset();
        assert_eq!(d.epoch(), epoch_before + 1, "reset must bump the epoch");
        assert!(
            !d.same_set(0, 1),
            "the O(1) epoch reset must forget every union"
        );
    });
}

/// Model of the sharded count-flush pattern audited in
/// `rtcore::index::sharded::trace_count_packet_sharded`: each packet owns
/// private tally cells, flushes `cell − 1` (self-exclusion) into a shared
/// per-query slot with a Relaxed `fetch_add`, and caller ordinals are
/// disjoint across packets (single writer per slot).  The join then
/// publishes the totals.  The model proves the flushed counts are exact in
/// every interleaving of two packets — i.e. the Relaxed orderings and the
/// `saturating_sub(1)` algebra never lose or double-count a hit.
#[test]
fn sharded_flush_self_exclusion_is_exact() {
    loom::model(|| {
        // Shared per-query count slots; packet 0 owns slot 0, packet 1
        // owns slot 1 (disjoint caller ordinals).
        let counts = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let spawn_packet = |counts: &Arc<[AtomicU64; 2]>, slot: usize, neighbors: u64| {
            let counts = Arc::clone(counts);
            thread::spawn(move || {
                // Packet-local cell: the query's own hit plus its true
                // neighbours, accumulated by that packet's sub-launches.
                let cell = AtomicU64::new(0);
                for _ in 0..=neighbors {
                    cell.fetch_add(1, Ordering::Relaxed);
                }
                // Flush with self-exclusion, exactly like the audited loop.
                let count = cell.load(Ordering::Relaxed).saturating_sub(1);
                if count > 0 {
                    counts[slot].fetch_add(count, Ordering::Relaxed);
                }
            })
        };
        let a = spawn_packet(&counts, 0, 2);
        let b = spawn_packet(&counts, 1, 3);
        a.join().unwrap();
        b.join().unwrap();
        // The joins above are the happens-before edges that publish the
        // Relaxed writes to this reader.
        assert_eq!(counts[0].load(Ordering::Relaxed), 2);
        assert_eq!(counts[1].load(Ordering::Relaxed), 3);
    });
}

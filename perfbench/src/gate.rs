//! Cross-run repeatability gate.
//!
//! Within one process the workloads compare every iteration's counts with
//! the first.  Across processes, the counts of one workload and seed are
//! written to `.perfbench/fingerprints/` keyed by a hash of this executable,
//! and a later run of the same executable, workload and seed must produce
//! the identical record.  A rebuilt program gets a new key, so a change that
//! legitimately alters the counts never trips over a stale record.

use crate::stats::fnv1a;
use std::path::PathBuf;

pub const OUT_DIR: &str = ".perfbench";

/// Compare `record` with the stored record for this executable, workload and
/// seed, storing it when none exists.  `Err` describes a mismatch.
pub fn check_across_runs(workload: &str, seed: u64, record: &str) -> Result<(), String> {
    let exe_hash = std::env::current_exe()
        .and_then(std::fs::read)
        .map(fnv1a)
        .map_err(|e| format!("cannot fingerprint the executable: {e}"))?;
    let dir = PathBuf::from(OUT_DIR).join("fingerprints");
    let path = dir.join(format!("{workload}-seed{seed}-{exe_hash:016x}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(stored) if stored == record => Ok(()),
        Ok(stored) => Err(format!(
            "repeatability: counts differ from an earlier run of seed {seed}: \
             stored {stored:?}, now {record:?}"
        )),
        Err(_) => std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, record))
            .map_err(|e| format!("cannot store {}: {e}", path.display())),
    }
}

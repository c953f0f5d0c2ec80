//! Seeded I/O fault injection and the durable atomic-write helper.
//!
//! The simulator's `FaultModel` exercises the *measurement* path; this
//! module does the same for the *persistence* path. Real tuning fleets
//! lose campaigns to exactly three I/O failure shapes: a write that runs
//! out of space before any byte lands (ENOSPC), a write torn mid-file by
//! a crash, and a rename that never happens because the process died
//! between writing the temp file and linking it into place. All three are
//! injected deterministically — every draw is a pure function of
//! `(seed, operation index)` — so a chaos test can replay the exact same
//! failure schedule on every run.
//!
//! [`write_atomic_durable`] is the one write primitive every persisted
//! artifact goes through: checkpoints, store flushes, traces, fleet and
//! daemon manifests, `--output` results and saved models. It
//! upgrades the historical tmp+rename discipline with the two fsyncs that
//! make it actually crash-safe on a journaling filesystem: the temp file
//! is synced before the rename (so the rename never publishes an empty
//! file) and the parent directory is synced after it (so the rename
//! itself survives a power cut). Under any injected fault the destination
//! file is left byte-for-byte intact.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::fs;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::{Path, PathBuf};

/// A typed persistence failure, mirroring what a real filesystem throws
/// at a long-running tuning fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoFaultKind {
    /// The write failed before any byte reached the temp file (ENOSPC,
    /// quota, EIO on open).
    WriteFail,
    /// The temp file was torn mid-write (crash or ENOSPC partway); a
    /// half-written `.tmp` sibling is left behind, the destination is
    /// untouched.
    TornTail,
    /// The temp file was written completely but the rename into place
    /// never happened (crash between write and rename).
    RenameFail,
}

impl IoFaultKind {
    /// Stable snake_case identifier for machine-readable payloads (trace
    /// records, chaos-test artifacts).
    pub fn label(&self) -> &'static str {
        match self {
            IoFaultKind::WriteFail => "write_fail",
            IoFaultKind::TornTail => "torn_tail",
            IoFaultKind::RenameFail => "rename_fail",
        }
    }
}

/// Deterministic per-class I/O fault probabilities.
///
/// `draw` derives a private ChaCha8 stream from `(seed, operation
/// index)`, so the injected faults are a replayable property of the
/// campaign's write schedule, not of wall-clock timing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IoFaultModel {
    /// Base seed of the I/O fault stream.
    pub seed: u64,
    /// Probability a write fails before any byte lands.
    pub write_fail_p: f64,
    /// Probability a write is torn partway through the temp file.
    pub torn_tail_p: f64,
    /// Probability the final rename never happens.
    pub rename_fail_p: f64,
}

impl IoFaultModel {
    /// Splits one composite failure rate across the classes: torn writes
    /// dominate (they are what crashes actually produce), then plain
    /// write failures, with lost renames rarest.
    pub fn from_rate(seed: u64, rate: f64) -> IoFaultModel {
        let r = rate.clamp(0.0, 0.9);
        IoFaultModel {
            seed,
            write_fail_p: 0.30 * r,
            torn_tail_p: 0.45 * r,
            rename_fail_p: 0.25 * r,
        }
    }

    /// Total probability that one write operation fails.
    pub fn total_rate(&self) -> f64 {
        self.write_fail_p + self.torn_tail_p + self.rename_fail_p
    }

    /// Draws the fate of write operation `op` (a monotone per-writer
    /// counter). Pure: the same `(seed, op)` always draws the same fate.
    pub fn draw(&self, op: u64) -> Option<IoFaultKind> {
        if self.total_rate() <= 0.0 {
            return None;
        }
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.seed.hash(&mut hasher);
        op.hash(&mut hasher);
        let mut rng = ChaCha8Rng::seed_from_u64(hasher.finish());
        let u: f64 = rng.gen();
        let mut acc = self.write_fail_p;
        if u < acc {
            return Some(IoFaultKind::WriteFail);
        }
        acc += self.torn_tail_p;
        if u < acc {
            return Some(IoFaultKind::TornTail);
        }
        acc += self.rename_fail_p;
        if u < acc {
            return Some(IoFaultKind::RenameFail);
        }
        None
    }
}

/// A stateful fault injector: an [`IoFaultModel`] plus the monotone
/// operation counter it is drawn against. Interior-mutable (`Cell`) so
/// write paths that only hold `&self` — `pruner_store::Store::flush` —
/// can still consume operations.
#[derive(Debug)]
pub struct IoFaults {
    model: IoFaultModel,
    ops: Cell<u64>,
}

impl IoFaults {
    /// Wraps a fault model with a fresh operation counter.
    pub fn new(model: IoFaultModel) -> IoFaults {
        IoFaults { model, ops: Cell::new(0) }
    }

    /// Write operations drawn so far.
    pub fn ops(&self) -> u64 {
        self.ops.get()
    }

    /// Draws the fate of the next write operation and advances the
    /// counter.
    pub(crate) fn next_fault(&self) -> Option<IoFaultKind> {
        let op = self.ops.get();
        self.ops.set(op + 1);
        self.model.draw(op)
    }
}

/// Builds the `<path>.tmp` sibling used by every atomic write in the
/// stack (checkpoints, store flushes, trace sinks).
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Fsyncs the directory containing `path`, making a just-completed
/// rename durable. A no-op on non-Unix targets, where directory handles
/// cannot be synced portably.
fn fsync_parent(path: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        fs::File::open(parent)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = path;
    }
    Ok(())
}

/// Atomically and durably replaces `path` with `contents`.
///
/// The full discipline: create parent directories, write `contents` to a
/// `<path>.tmp` sibling, fsync the temp file, rename it over `path`, and
/// fsync the parent directory so the rename itself survives a crash. At
/// every intermediate point the destination holds either its previous
/// contents or the new ones, never a torn mix.
///
/// `faults` optionally injects a deterministic failure for this
/// operation; every injected failure leaves the destination intact (a
/// torn write damages only the `.tmp` sibling, which the next successful
/// write overwrites).
pub fn write_atomic_durable(
    path: &Path,
    contents: &str,
    faults: Option<&IoFaults>,
) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let tmp = tmp_sibling(path);
    if let Some(injected) = faults.and_then(IoFaults::next_fault) {
        let what = match injected {
            IoFaultKind::WriteFail => format!("no space left on device writing {}", tmp.display()),
            // Half the bytes land in the temp file, then the "crash": the
            // destination never sees the torn data.
            IoFaultKind::TornTail => {
                let half = contents.len() / 2;
                fs::write(&tmp, &contents.as_bytes()[..half])?;
                format!("write torn after {half} bytes of {}", tmp.display())
            }
            // The temp file is complete but never published.
            IoFaultKind::RenameFail => {
                fs::write(&tmp, contents)?;
                format!("rename of {} lost", tmp.display())
            }
        };
        return Err(io::Error::other(format!("injected I/O fault ({}): {what}", injected.label())));
    }
    {
        use std::io::Write as _;
        let mut file = fs::File::create(&tmp)?;
        file.write_all(contents.as_bytes())?;
        // Sync the data before the rename: a rename is only atomic with
        // respect to *named* state, not to unwritten page-cache data.
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    fsync_parent(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pruner-iofault-{}-{tag}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(IoFaultKind::WriteFail.label(), "write_fail");
        assert_eq!(IoFaultKind::TornTail.label(), "torn_tail");
        assert_eq!(IoFaultKind::RenameFail.label(), "rename_fail");
    }

    #[test]
    fn draws_are_deterministic_and_partition_by_rate() {
        let m = IoFaultModel::from_rate(3, 0.6);
        let a: Vec<_> = (0..256).map(|op| m.draw(op)).collect();
        let b: Vec<_> = (0..256).map(|op| m.draw(op)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(Option::is_some), "rate 0.6 must inject something in 256 draws");
        assert!(a.iter().any(Option::is_none), "rate 0.6 must pass something in 256 draws");
        let zero = IoFaultModel::from_rate(3, 0.0);
        assert!((0..256).all(|op| zero.draw(op).is_none()));
    }

    #[test]
    fn stateful_injector_advances_the_op_counter() {
        let m = IoFaultModel::from_rate(9, 0.5);
        let f = IoFaults::new(m);
        let direct: Vec<_> = (0..16).map(|op| m.draw(op)).collect();
        let drawn: Vec<_> = (0..16).map(|_| f.next_fault()).collect();
        assert_eq!(direct, drawn);
        assert_eq!(f.ops(), 16);
    }

    #[test]
    fn durable_write_replaces_and_cleans_tmp() {
        let dir = tmp_dir("write");
        let path = dir.join("file.json");
        write_atomic_durable(&path, "first", None).unwrap();
        write_atomic_durable(&path, "second", None).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        assert!(!tmp_sibling(&path).exists(), "tmp must be renamed away");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_injected_fault_class_leaves_the_destination_intact() {
        let dir = tmp_dir("intact");
        // A model that always faults, cycling through the ops until every
        // class has fired at least once.
        let always = IoFaultModel { seed: 1, write_fail_p: 0.3, torn_tail_p: 0.4, rename_fail_p: 0.3 };
        let faults = IoFaults::new(always);
        let path = dir.join("file.json");
        write_atomic_durable(&path, "good contents", None).unwrap();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            let before_ops = faults.ops();
            let err = write_atomic_durable(&path, "REPLACEMENT THAT MUST NOT LAND", Some(&faults))
                .unwrap_err();
            assert_eq!(faults.ops(), before_ops + 1);
            let kind = always.draw(before_ops).expect("total rate 1.0 always faults");
            assert!(err.to_string().contains(kind.label()), "{err} should name {}", kind.label());
            assert_eq!(
                fs::read_to_string(&path).unwrap(),
                "good contents",
                "destination must survive an injected {kind:?}"
            );
            seen.insert(kind);
            if seen.len() == 3 {
                break;
            }
        }
        assert_eq!(seen.len(), 3, "64 draws at rate 1.0 must exercise all three classes");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_leaves_a_half_written_tmp_sibling() {
        let dir = tmp_dir("torn");
        let path = dir.join("file.json");
        let torn_only = IoFaultModel { seed: 0, write_fail_p: 0.0, torn_tail_p: 1.0, rename_fail_p: 0.0 };
        let faults = IoFaults::new(torn_only);
        let contents = "0123456789abcdef";
        write_atomic_durable(&path, contents, Some(&faults)).unwrap_err();
        assert!(!path.exists(), "destination never materializes from a torn write");
        let tail = fs::read_to_string(tmp_sibling(&path)).unwrap();
        assert_eq!(tail, &contents[..contents.len() / 2]);
        // The next clean write overwrites the torn sibling.
        write_atomic_durable(&path, contents, None).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), contents);
        assert!(!tmp_sibling(&path).exists());
        fs::remove_dir_all(&dir).ok();
    }
}

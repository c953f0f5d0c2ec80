//! Persistent tuning-record store: the cross-campaign measurement log.
//!
//! Every campaign today pays for its measurements once and throws them
//! away when the process exits (or keeps them only inside one
//! checkpoint). This crate persists each measurement verdict — success
//! *and* quarantine-grade failure — as one JSON line in an append-only
//! log, keyed by `(workload fingerprint, GpuSpec fingerprint, schema
//! version)`, so a later campaign on the same platform can warm-start:
//! pre-seed its `Measurer` cache and elite pool with the best known
//! programs and pre-train its cost model from logged samples before
//! round 0. The on-disk contract (field-by-field schema, fingerprint
//! derivation, dedupe key, atomicity and corruption-recovery rules) is
//! documented in `docs/STORE_FORMAT.md` at the repository root; a test
//! in this crate parses the worked example from that document so the
//! docs cannot drift from the shipped code.
//!
//! Writes and reads go through `pruner-durable` like every other
//! artifact: [`Store::flush`] writes the whole deduplicated log with
//! `write_atomic_durable`, so a crash leaves either the old file or the
//! new one, never a torn one. [`Store::open`] opens each line through the
//! `open_versioned` gate and is tolerant: unparseable lines (e.g. a final
//! line truncated by a crash mid-append), records with an unknown schema
//! version, and records whose embedded fingerprint disagrees with their
//! own payload are skipped and counted in [`ReplayStats`] — never a panic.
//!
//! # Example
//!
//! ```
//! use pruner_gpu::GpuSpec;
//! use pruner_ir::Workload;
//! use pruner_sketch::Program;
//! use pruner_store::{RecordOutcome, Store, TuningRecord};
//!
//! let dir = std::env::temp_dir().join(format!("pruner-store-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("records.jsonl");
//!
//! // First campaign: record one measurement and persist it atomically.
//! let spec = GpuSpec::t4();
//! let workload = Workload::matmul(1, 64, 64, 64);
//! let mut store = Store::open(&path).unwrap();
//! let fresh = store.append(TuningRecord::new(
//!     &spec,
//!     Program::fallback(&workload),
//!     RecordOutcome::Success { latency_s: 1.5e-3, variance: 0.0 },
//! ));
//! assert!(fresh, "first sighting of this schedule is appended");
//! store.flush().unwrap();
//!
//! // Later campaign: replay every record matching its platform + tasks.
//! let store = Store::open(&path).unwrap();
//! let workloads = std::collections::HashSet::from([workload.key()]);
//! let replay = store.replay("sim", &spec.fingerprint(), &workloads);
//! assert_eq!(replay.records.len(), 1);
//! assert_eq!(replay.spec_mismatches, 0);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use pruner_durable::{open_versioned, write_atomic_durable, DecodeError, IoFaults};
use pruner_gpu::{FaultKind, GpuSpec};
use pruner_sketch::Program;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// The store's on-disk schema version, stamped into every record's `v`
/// field. Bump it on any incompatible change to [`TuningRecord`]; readers
/// skip (and count) records stamped with a version they don't know.
pub const SCHEMA_VERSION: u32 = 1;

/// The persisted verdict of one measurement — the store-side mirror of
/// the tuner's `MeasureOutcome`.
///
/// It is redeclared here (rather than imported) so the store sits *below*
/// the tuner in the dependency graph: any tool can read or write logs
/// without linking the search loop. The tuner converts losslessly in both
/// directions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RecordOutcome {
    /// The program measured successfully.
    Success {
        /// Mean kernel latency, seconds.
        latency_s: f64,
        /// Population variance of the per-repeat latencies, seconds².
        variance: f64,
    },
    /// Every attempt failed; the program was quarantined.
    Failure {
        /// The fault class of the final attempt.
        kind: FaultKind,
        /// Total attempts spent before giving up.
        attempts: u32,
    },
}

impl RecordOutcome {
    /// `true` for [`RecordOutcome::Success`].
    pub fn is_success(&self) -> bool {
        matches!(self, RecordOutcome::Success { .. })
    }

    /// The measured latency for successes, `None` for failures.
    pub fn latency_s(&self) -> Option<f64> {
        match self {
            RecordOutcome::Success { latency_s, .. } => Some(*latency_s),
            RecordOutcome::Failure { .. } => None,
        }
    }
}

/// One line of the store: a measured program and its verdict, stamped
/// with the schema version and the fingerprints that key replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningRecord {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub v: u32,
    /// Workload fingerprint: the stable `Workload::key()` string, e.g.
    /// `"matmul_b1m512n512k512"`.
    pub workload_fp: String,
    /// Human-readable platform name (`GpuSpec::name`), informational only.
    pub spec: String,
    /// Platform fingerprint: `GpuSpec::fingerprint()`, 16 hex digits over
    /// every architectural field. Replay matches on this, not on `spec`.
    pub spec_fp: String,
    /// The measurement backend that produced this record (`"sim"` for the
    /// analytical simulator, `"cpu"` for the executable CPU backend).
    /// Records written before this field existed were all simulator
    /// measurements, so a missing field deserializes as `"sim"`.
    #[serde(default = "default_backend")]
    pub backend: String,
    /// The measured program (workload + schedule instantiation).
    pub program: Program,
    /// The measurement verdict.
    pub outcome: RecordOutcome,
}

fn default_backend() -> String {
    "sim".to_string()
}

impl TuningRecord {
    /// Builds a simulator-backend (`"sim"`) record for `program` measured
    /// on `spec`, stamping the current [`SCHEMA_VERSION`] and both
    /// fingerprints.
    pub fn new(spec: &GpuSpec, program: Program, outcome: RecordOutcome) -> TuningRecord {
        TuningRecord::with_backend(spec, "sim", program, outcome)
    }

    /// Builds a record tagged with an explicit measurement `backend`
    /// ([`pruner_gpu::Backend::TAG`] in the tuner).
    pub fn with_backend(
        spec: &GpuSpec,
        backend: &str,
        program: Program,
        outcome: RecordOutcome,
    ) -> TuningRecord {
        TuningRecord {
            v: SCHEMA_VERSION,
            workload_fp: program.workload.key(),
            spec: spec.name.clone(),
            spec_fp: spec.fingerprint(),
            backend: backend.to_string(),
            program,
            outcome,
        }
    }

    /// The deduplication key: backend tag, platform fingerprint, and the
    /// program's own dedup key (workload key + schedule encoding). Two
    /// records with the same key describe the same measurement; the store
    /// keeps the first. The backend prefix guarantees the same schedule
    /// measured by the simulator and by a real executor never collide.
    pub fn dedup_key(&self) -> String {
        format!("{}|{}|{}", self.backend, self.spec_fp, self.program.dedup_key())
    }
}

/// Per-class counters of what [`Store::open`] kept and skipped.
///
/// Skips are warnings, not errors: a damaged log degrades to the subset
/// of records that still parse cleanly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayStats {
    /// Non-empty lines seen in the file.
    pub total_lines: usize,
    /// Records parsed, validated and kept.
    pub loaded: usize,
    /// Lines dropped because an earlier line had the same dedupe key.
    pub duplicates: usize,
    /// Lines that failed to parse as JSON records (includes a final line
    /// truncated by a crash mid-append).
    pub corrupt_lines: usize,
    /// Well-formed records stamped with an unknown schema version.
    pub version_skips: usize,
    /// Records whose `workload_fp` disagrees with the workload embedded
    /// in their own `program` payload.
    pub fingerprint_mismatches: usize,
}

impl ReplayStats {
    /// Total lines skipped for any reason (everything except `loaded`).
    pub fn skipped(&self) -> usize {
        self.duplicates + self.corrupt_lines + self.version_skips + self.fingerprint_mismatches
    }
}

/// The result of filtering a store against one campaign's platform and
/// task set — what [`Store::replay`] returns.
#[derive(Debug)]
pub struct Replay<'a> {
    /// Matching records, in file order (the order they were measured).
    pub records: Vec<&'a TuningRecord>,
    /// Loaded records skipped because they were measured by a different
    /// backend (their `backend` tag doesn't match).
    pub backend_mismatches: usize,
    /// Same-backend records skipped because they were taken on a different
    /// platform (their `spec_fp` doesn't match).
    pub spec_mismatches: usize,
    /// Same-platform records skipped because their workload is not among
    /// the campaign's tasks.
    pub workload_mismatches: usize,
}

/// An append-only JSONL tuning-record log.
///
/// [`Store::open`] loads and validates the whole file into memory (logs
/// are small: one line per *distinct* measured schedule). [`Store::append`]
/// is in-memory and deduplicating; [`Store::flush`] persists the full
/// deduplicated log atomically. See the crate docs for the on-disk
/// contract.
#[derive(Debug)]
pub struct Store {
    path: PathBuf,
    records: Vec<TuningRecord>,
    keys: HashSet<String>,
    replay: ReplayStats,
    appended: usize,
    io_faults: Option<IoFaults>,
    rendered: Mutex<Rendered>,
}

/// The file text of the first `records` live records, kept between
/// flushes: `records` only ever grows at its tail, so a flush renders the
/// lines appended since the last one instead of the whole log. It mirrors
/// memory, not the disk — a flush that fails after rendering leaves it
/// valid, and the next flush still publishes the complete file.
#[derive(Debug, Default)]
struct Rendered {
    text: String,
    records: usize,
}

impl Store {
    /// Opens the store at `path`, loading every valid record. A missing
    /// file yields an empty store (it is created on first [`Store::flush`]).
    ///
    /// Damaged content is never fatal: unparseable lines, invalid UTF-8,
    /// unknown schema versions, internally inconsistent fingerprints and
    /// duplicate keys are skipped and counted in [`Store::replay_stats`].
    /// Only real I/O errors (e.g. permissions) are returned as `Err`.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Store> {
        let path = path.as_ref().to_path_buf();
        let text = match fs::read(&path) {
            // Lossy decoding: a flipped byte must damage one line, not
            // render the whole log unreadable. The replacement character
            // it introduces fails JSON parsing below and is counted as a
            // corrupt line like any other damage.
            Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let mut store = Store {
            path,
            records: Vec::new(),
            keys: HashSet::new(),
            replay: ReplayStats::default(),
            appended: 0,
            io_faults: None,
            rendered: Mutex::default(),
        };
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            store.replay.total_lines += 1;
            // The gate reads `v` before the record's shape, so a newer
            // schema is a version skip even when its layout changed too.
            let opened = open_versioned(line, "v", u64::from(SCHEMA_VERSION));
            if let Err(DecodeError::Version { .. }) = opened {
                store.replay.version_skips += 1;
                continue;
            }
            let Some(record) = opened.ok().and_then(|c| TuningRecord::from_content(&c).ok()) else {
                store.replay.corrupt_lines += 1;
                continue;
            };
            if record.workload_fp != record.program.workload.key() {
                store.replay.fingerprint_mismatches += 1;
                continue;
            }
            if !store.keys.insert(record.dedup_key()) {
                store.replay.duplicates += 1;
                continue;
            }
            store.replay.loaded += 1;
            store.records.push(record);
        }
        Ok(store)
    }

    /// The path this store reads from and flushes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// All live records (loaded + appended), in file/append order.
    pub fn records(&self) -> &[TuningRecord] {
        &self.records
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// What [`Store::open`] kept and skipped.
    pub fn replay_stats(&self) -> ReplayStats {
        self.replay
    }

    /// Records appended since open (i.e. fresh measurements this run).
    pub fn appended(&self) -> usize {
        self.appended
    }

    /// Whether a record with this [`TuningRecord::dedup_key`] is live.
    pub fn contains(&self, dedup_key: &str) -> bool {
        self.keys.contains(dedup_key)
    }

    /// Appends a record in memory, deduplicating by
    /// [`TuningRecord::dedup_key`]. Returns `true` if the record was new;
    /// `false` (a no-op) if the same measurement is already stored.
    /// Nothing reaches disk until [`Store::flush`].
    pub fn append(&mut self, record: TuningRecord) -> bool {
        if !self.keys.insert(record.dedup_key()) {
            return false;
        }
        self.records.push(record);
        self.appended += 1;
        true
    }

    /// Filters the live records down to one campaign: records measured by
    /// `backend` (the backend tag, `"sim"` for the simulator) on the
    /// platform fingerprinted by `spec_fp` whose workload is in
    /// `workload_fps`. Non-matching records are counted, not errors — a
    /// store may interleave many backends, platforms and workloads.
    /// Cross-backend latencies are never comparable (an analytical estimate
    /// vs. wall time on a different machine), so replay never mixes them.
    pub fn replay<'a>(
        &'a self,
        backend: &str,
        spec_fp: &str,
        workload_fps: &HashSet<String>,
    ) -> Replay<'a> {
        let mut replay = Replay {
            records: Vec::new(),
            backend_mismatches: 0,
            spec_mismatches: 0,
            workload_mismatches: 0,
        };
        for record in &self.records {
            if record.backend != backend {
                replay.backend_mismatches += 1;
            } else if record.spec_fp != spec_fp {
                replay.spec_mismatches += 1;
            } else if !workload_fps.contains(&record.workload_fp) {
                replay.workload_mismatches += 1;
            } else {
                replay.records.push(record);
            }
        }
        replay
    }

    /// Installs a seeded I/O fault injector: every subsequent
    /// [`Store::flush`] draws from it and may fail with a typed, injected
    /// error that leaves the on-disk log intact. Chaos harnesses use this
    /// to prove the supervisor recovers from persistence failures.
    pub fn set_io_faults(&mut self, faults: Option<IoFaults>) {
        self.io_faults = faults;
    }

    /// Persists the full deduplicated log atomically and durably via
    /// `write_atomic_durable`: renders every live record as one JSON line
    /// into a `.tmp` sibling, fsyncs it, renames it over `path`, and
    /// fsyncs the parent directory — the same discipline as campaign
    /// checkpoints. Re-flushing an opened store also *compacts* it:
    /// duplicates and damaged lines that were skipped on load are not
    /// rewritten. Only records appended since the previous flush are
    /// rendered; the whole file is still written every time.
    pub fn flush(&self) -> io::Result<()> {
        // Poison is ignored as in `SharedStore::lock`: the only call below
        // that can panic, `to_string`, runs before a line's three updates,
        // so `text` and `records` agree wherever an unwind could start.
        let mut rendered = self.rendered.lock().unwrap_or_else(|p| p.into_inner());
        for record in &self.records[rendered.records..] {
            let line = serde_json::to_string(record)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            rendered.text.push_str(&line);
            rendered.text.push('\n');
            rendered.records += 1;
        }
        write_atomic_durable(&self.path, &rendered.text, self.io_faults.as_ref())
    }
}

/// A thread-safe handle to one [`Store`] shared by many concurrent
/// campaigns — the multi-tenant append path used by `pruner-serve`.
///
/// Cloning the handle is cheap (an `Arc` bump); every clone addresses the
/// same in-memory log and the same on-disk file. All operations take the
/// internal mutex for their whole duration, so an [`SharedStore::append`]
/// from one tenant and a [`SharedStore::flush`] from another can never
/// interleave mid-record: the flush renders either the log before the
/// append or after it, both of which are valid complete files. Dedup by
/// [`TuningRecord::dedup_key`] happens under the same lock, so two tenants
/// racing to record the same measurement store exactly one copy.
///
/// If a campaign thread panics while holding the lock, the poison flag is
/// ignored and the store stays usable: every mutation it performs
/// ([`Store::append`]) leaves the log in a valid state at every step.
#[derive(Debug, Clone)]
pub struct SharedStore {
    inner: Arc<Mutex<Store>>,
}

impl SharedStore {
    /// Opens the store at `path` (see [`Store::open`]) and wraps it for
    /// shared use.
    pub fn open(path: impl AsRef<Path>) -> io::Result<SharedStore> {
        Ok(SharedStore::new(Store::open(path)?))
    }

    /// Wraps an already-open store.
    pub fn new(store: Store) -> SharedStore {
        SharedStore { inner: Arc::new(Mutex::new(store)) }
    }

    fn lock(&self) -> MutexGuard<'_, Store> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Appends a record under the lock; see [`Store::append`].
    pub fn append(&self, record: TuningRecord) -> bool {
        self.lock().append(record)
    }

    /// Persists the full deduplicated log atomically; see [`Store::flush`].
    /// Concurrent appends are excluded for the duration of the write, so
    /// the rendered file is always a consistent snapshot.
    pub fn flush(&self) -> io::Result<()> {
        self.lock().flush()
    }

    /// Whether a record with this dedup key is live; see [`Store::contains`].
    pub fn contains(&self, dedup_key: &str) -> bool {
        self.lock().contains(dedup_key)
    }

    /// Number of live records across all tenants.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Records appended since open, across all tenants.
    pub fn appended(&self) -> usize {
        self.lock().appended()
    }

    /// Runs `f` with the locked store — the read hook used for replay
    /// (which returns borrowed records and so cannot outlive the guard).
    pub fn with<R>(&self, f: impl FnOnce(&Store) -> R) -> R {
        f(&self.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruner_durable::IoFaultModel;
    use pruner_ir::Workload;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir()
            .join(format!("pruner-store-test-{}-{tag}", std::process::id()))
            .join("records.jsonl")
    }

    fn success(spec: &GpuSpec, workload: &Workload, latency_s: f64) -> TuningRecord {
        TuningRecord::new(
            spec,
            Program::fallback(workload),
            RecordOutcome::Success { latency_s, variance: 0.0 },
        )
    }

    fn cleanup(path: &Path) {
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn open_missing_file_is_empty() {
        let store = Store::open(tmp_path("missing")).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.replay_stats(), ReplayStats::default());
    }

    #[test]
    fn round_trips_through_flush_and_open() {
        let path = tmp_path("roundtrip");
        let spec = GpuSpec::t4();
        let mm = Workload::matmul(1, 64, 64, 64);
        let red = Workload::reduction(128, 256);
        let mut store = Store::open(&path).unwrap();
        assert!(store.append(success(&spec, &mm, 1.0e-3)));
        assert!(store.append(TuningRecord::new(
            &spec,
            Program::fallback(&red),
            RecordOutcome::Failure { kind: FaultKind::Timeout, attempts: 3 },
        )));
        store.flush().unwrap();

        let reopened = Store::open(&path).unwrap();
        assert_eq!(reopened.records(), store.records());
        assert_eq!(reopened.replay_stats().loaded, 2);
        assert_eq!(reopened.replay_stats().skipped(), 0);
        assert!(!path.with_extension("jsonl.tmp").exists(), "tmp must be renamed away");
        cleanup(&path);
    }

    #[test]
    fn append_dedupes_by_spec_and_schedule() {
        let path = tmp_path("dedupe");
        let spec = GpuSpec::t4();
        let mm = Workload::matmul(1, 64, 64, 64);
        let mut store = Store::open(&path).unwrap();
        assert!(store.append(success(&spec, &mm, 1.0e-3)));
        assert!(!store.append(success(&spec, &mm, 2.0e-3)), "same key is dropped");
        // The same schedule on a different platform is a distinct record.
        assert!(store.append(success(&GpuSpec::a100(), &mm, 0.5e-3)));
        assert_eq!(store.len(), 2);
        assert_eq!(store.appended(), 2);
        cleanup(&path);
    }

    #[test]
    fn duplicate_lines_on_disk_are_dropped_keeping_first() {
        let path = tmp_path("dupdisk");
        let spec = GpuSpec::t4();
        let mm = Workload::matmul(1, 64, 64, 64);
        let first = serde_json::to_string(&success(&spec, &mm, 1.0e-3)).unwrap();
        let second = serde_json::to_string(&success(&spec, &mm, 9.0e-3)).unwrap();
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, format!("{first}\n{second}\n")).unwrap();
        let store = Store::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.records()[0].outcome.latency_s(), Some(1.0e-3));
        assert_eq!(store.replay_stats().duplicates, 1);
        cleanup(&path);
    }

    #[test]
    fn truncated_final_line_is_skipped_and_counted() {
        let path = tmp_path("truncated");
        let spec = GpuSpec::t4();
        let good = serde_json::to_string(&success(&spec, &Workload::matmul(1, 64, 64, 64), 1e-3))
            .unwrap();
        let torn = &good[..good.len() / 2];
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, format!("{good}\n{torn}")).unwrap();
        let store = Store::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.replay_stats().corrupt_lines, 1);
        cleanup(&path);
    }

    #[test]
    fn unknown_schema_version_is_skipped_and_counted() {
        let path = tmp_path("version");
        let spec = GpuSpec::t4();
        let mut record = success(&spec, &Workload::matmul(1, 64, 64, 64), 1e-3);
        record.v = SCHEMA_VERSION + 1;
        let line = serde_json::to_string(&record).unwrap();
        // A hypothetical future record whose *shape* changed too: only the
        // version gate can classify it.
        let alien = format!("{{\"v\":{},\"payload\":\"opaque\"}}", SCHEMA_VERSION + 2);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, format!("{line}\n{alien}\n")).unwrap();
        let store = Store::open(&path).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.replay_stats().version_skips, 2);
        assert_eq!(store.replay_stats().corrupt_lines, 0);
        cleanup(&path);
    }

    #[test]
    fn mismatched_workload_fingerprint_is_skipped_and_counted() {
        let path = tmp_path("fpmismatch");
        let spec = GpuSpec::t4();
        let mut record = success(&spec, &Workload::matmul(1, 64, 64, 64), 1e-3);
        record.workload_fp = "matmul_b9m9n9k9".into();
        let line = serde_json::to_string(&record).unwrap();
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, format!("{line}\n")).unwrap();
        let store = Store::open(&path).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.replay_stats().fingerprint_mismatches, 1);
        cleanup(&path);
    }

    #[test]
    fn replay_filters_foreign_specs_and_workloads() {
        let path = tmp_path("replay");
        let t4 = GpuSpec::t4();
        let a100 = GpuSpec::a100();
        let mm = Workload::matmul(1, 64, 64, 64);
        let red = Workload::reduction(128, 256);
        let mut store = Store::open(&path).unwrap();
        store.append(success(&t4, &mm, 1e-3));
        store.append(success(&t4, &red, 2e-3));
        store.append(success(&a100, &mm, 0.5e-3));

        let campaign: HashSet<String> = [mm.key()].into_iter().collect();
        let replay = store.replay("sim", &t4.fingerprint(), &campaign);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].spec_fp, t4.fingerprint());
        assert_eq!(replay.backend_mismatches, 0);
        assert_eq!(replay.spec_mismatches, 1);
        assert_eq!(replay.workload_mismatches, 1);
        cleanup(&path);
    }

    /// Fleet-sharing regression: a roster of devices appends to ONE log,
    /// and the same schedule measured on two devices is two records with
    /// different latencies. Replay keyed by fingerprint must hand each
    /// device exactly its own measurement — if device A's record ever
    /// preseeded device B's cache, B would warm-start from A's latency
    /// for an identical schedule and silently corrupt its campaign.
    /// `tests/fleet.rs` pins the same property end-to-end through a
    /// tuner warm start; this pins the store-level filter directly.
    #[test]
    fn shared_log_never_leaks_records_across_device_fingerprints() {
        let path = tmp_path("fleet-isolation");
        let k80 = GpuSpec::k80();
        let t4 = GpuSpec::t4();
        let mm = Workload::matmul(1, 64, 64, 64);
        let mut store = Store::open(&path).unwrap();
        // Identical schedule, two devices, very different latencies.
        assert!(store.append(success(&k80, &mm, 5.0e-3)));
        assert!(store.append(success(&t4, &mm, 1.0e-3)));
        assert_eq!(store.len(), 2, "same schedule on two devices is two records");

        let campaign: HashSet<String> = [mm.key()].into_iter().collect();
        for (own, own_latency) in [(&k80, 5.0e-3), (&t4, 1.0e-3)] {
            let replay = store.replay("sim", &own.fingerprint(), &campaign);
            assert_eq!(replay.records.len(), 1, "exactly the device's own record");
            assert_eq!(replay.records[0].spec_fp, own.fingerprint());
            assert_eq!(replay.records[0].outcome.latency_s(), Some(own_latency));
            assert_eq!(replay.spec_mismatches, 1, "the other device's record is filtered");
        }
        // A fingerprint the log has never seen gets nothing.
        let foreign = store.replay("sim", &GpuSpec::a100().fingerprint(), &campaign);
        assert!(foreign.records.is_empty());
        assert_eq!(foreign.spec_mismatches, 2);
        cleanup(&path);
    }

    #[test]
    fn backends_never_collide_and_replay_never_mixes_them() {
        let path = tmp_path("backends");
        let spec = GpuSpec::t4();
        let mm = Workload::matmul(1, 64, 64, 64);
        let mut store = Store::open(&path).unwrap();
        // The same schedule measured by two backends is two records...
        assert!(store.append(success(&spec, &mm, 1.0e-3)));
        assert!(store.append(TuningRecord::with_backend(
            &spec,
            "cpu",
            Program::fallback(&mm),
            RecordOutcome::Success { latency_s: 4.0e-3, variance: 0.0 },
        )));
        assert_eq!(store.len(), 2);

        // ...and replay only ever surfaces one backend's records.
        let campaign: HashSet<String> = [mm.key()].into_iter().collect();
        let sim = store.replay("sim", &spec.fingerprint(), &campaign);
        assert_eq!(sim.records.len(), 1);
        assert_eq!(sim.records[0].backend, "sim");
        assert_eq!(sim.backend_mismatches, 1);
        let cpu = store.replay("cpu", &spec.fingerprint(), &campaign);
        assert_eq!(cpu.records.len(), 1);
        assert_eq!(cpu.records[0].outcome.latency_s(), Some(4.0e-3));
        assert_eq!(cpu.backend_mismatches, 1);
        cleanup(&path);
    }

    /// A pre-backend-field record (written before the `backend` tag
    /// existed) must load as a simulator record.
    #[test]
    fn legacy_records_without_backend_field_default_to_sim() {
        let path = tmp_path("legacy");
        let spec = GpuSpec::t4();
        let record = success(&spec, &Workload::matmul(1, 64, 64, 64), 1e-3);
        let json = serde_json::to_string(&record).unwrap();
        assert!(json.contains("\"backend\":\"sim\","), "expected serialized backend field");
        let legacy = json.replace("\"backend\":\"sim\",", "");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, format!("{legacy}\n")).unwrap();
        let store = Store::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.records()[0].backend, "sim");
        assert_eq!(store.records()[0], record, "legacy line loads as an equal sim record");
        cleanup(&path);
    }

    #[test]
    fn reflush_compacts_damaged_and_duplicate_lines() {
        let path = tmp_path("compact");
        let spec = GpuSpec::t4();
        let good = serde_json::to_string(&success(&spec, &Workload::matmul(1, 64, 64, 64), 1e-3))
            .unwrap();
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, format!("{good}\n{good}\nnot json at all\n")).unwrap();
        let store = Store::open(&path).unwrap();
        assert_eq!(store.replay_stats().skipped(), 2);
        store.flush().unwrap();

        let clean = Store::open(&path).unwrap();
        assert_eq!(clean.len(), 1);
        assert_eq!(clean.replay_stats().skipped(), 0);
        cleanup(&path);
    }

    /// What a flush that renders every live record from scratch writes —
    /// the reference the incremental flush must reproduce byte for byte.
    fn full_render(store: &Store) -> String {
        store
            .records()
            .iter()
            .map(|record| serde_json::to_string(record).unwrap() + "\n")
            .collect()
    }

    fn distinct(spec: &GpuSpec, i: u64) -> TuningRecord {
        success(spec, &Workload::matmul(1, 32 + 8 * i, 32, 32), 1e-3 * (i + 1) as f64)
    }

    #[test]
    fn incremental_flush_writes_the_same_bytes_as_a_full_render() {
        let path = tmp_path("incremental");
        let spec = GpuSpec::t4();
        let mut store = Store::open(&path).unwrap();
        for i in 0..3 {
            assert!(store.append(distinct(&spec, i)));
        }
        store.flush().unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), full_render(&store));

        assert!(!store.append(distinct(&spec, 1)), "a duplicate adds no line");
        for i in 3..5 {
            assert!(store.append(distinct(&spec, i)));
        }
        store.flush().unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), full_render(&store));
        store.flush().unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), full_render(&store), "idle flush");

        // A reopened store starts with nothing rendered: its first flush
        // compacts a dirtied file, later ones extend it.
        let clean = fs::read_to_string(&path).unwrap();
        let first_line = clean.lines().next().unwrap();
        fs::write(&path, format!("{clean}{first_line}\nnot json at all\n")).unwrap();
        let mut reopened = Store::open(&path).unwrap();
        assert_eq!(reopened.replay_stats().skipped(), 2);
        assert!(reopened.append(distinct(&spec, 5)));
        reopened.flush().unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), full_render(&reopened));
        assert!(reopened.append(distinct(&spec, 6)));
        reopened.flush().unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), full_render(&reopened));
        assert_eq!(Store::open(&path).unwrap().replay_stats().skipped(), 0);
        cleanup(&path);
    }

    #[test]
    fn flush_after_an_injected_fault_is_complete_and_correct() {
        let never = IoFaultModel::from_rate(1, 0.0);
        for (tag, model) in [
            ("torn", IoFaultModel { torn_tail_p: 1.0, ..never }),
            ("rename", IoFaultModel { rename_fail_p: 1.0, ..never }),
        ] {
            let path = tmp_path(tag);
            let spec = GpuSpec::t4();
            let mut store = Store::open(&path).unwrap();
            store.append(distinct(&spec, 0));
            store.append(distinct(&spec, 1));
            store.flush().unwrap();
            let published = fs::read_to_string(&path).unwrap();

            store.append(distinct(&spec, 2));
            store.set_io_faults(Some(IoFaults::new(model)));
            assert!(store.flush().is_err(), "{tag}: the injected fault surfaces");
            assert_eq!(fs::read_to_string(&path).unwrap(), published, "{tag}: log untouched");

            store.append(distinct(&spec, 3));
            store.set_io_faults(None);
            store.flush().unwrap();
            assert_eq!(fs::read_to_string(&path).unwrap(), full_render(&store), "{tag}");
            assert_eq!(Store::open(&path).unwrap().records(), store.records(), "{tag}");
            cleanup(&path);
        }
    }

    /// The worked example in docs/STORE_FORMAT.md must parse with the
    /// shipped code — this is the round-trip test the schema doc cites.
    #[test]
    fn documented_example_records_parse_and_roundtrip() {
        let doc = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../docs/STORE_FORMAT.md"
        ));
        let example = doc
            .split("```jsonl\n")
            .nth(1)
            .expect("STORE_FORMAT.md must contain a ```jsonl example block")
            .split("```")
            .next()
            .unwrap();
        let mut parsed = 0;
        for line in example.lines().filter(|l| !l.trim().is_empty()) {
            let record: TuningRecord =
                serde_json::from_str(line).expect("documented example line must parse");
            assert_eq!(record.v, SCHEMA_VERSION);
            assert_eq!(
                record.workload_fp,
                record.program.workload.key(),
                "documented workload_fp must match its program"
            );
            // The doc example is written against the T4 preset; its
            // fingerprint must be the real one.
            if record.spec == "NVIDIA T4" {
                assert_eq!(record.spec_fp, GpuSpec::t4().fingerprint());
            }
            let reserialized = serde_json::to_string(&record).unwrap();
            let again: TuningRecord = serde_json::from_str(&reserialized).unwrap();
            assert_eq!(again, record);
            parsed += 1;
        }
        assert!(parsed >= 2, "expected a success and a failure example, got {parsed}");
    }

    /// Many threads appending disjoint and overlapping records through one
    /// `SharedStore` must end with exactly the union, deduplicated, and a
    /// clean reopen (flushes raced against appends must never tear lines).
    #[test]
    fn shared_store_concurrent_appends_keep_exact_union() {
        let path = tmp_path("shared");
        let spec = GpuSpec::t4();
        let shared = SharedStore::open(&path).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let shared = shared.clone();
                let spec = spec.clone();
                std::thread::spawn(move || {
                    for i in 0..8 {
                        // Per-thread distinct workloads plus one workload
                        // every thread races to record.
                        let distinct = Workload::matmul(1, 32 * (t + 1), 32, 32 * (i + 1));
                        shared.append(success(&spec, &distinct, 1e-3));
                        let contended = Workload::matmul(1, 16, 16, 16);
                        shared.append(success(&spec, &contended, 2e-3));
                        shared.flush().unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // 4 threads x 8 distinct workloads + 1 contended workload.
        assert_eq!(shared.len(), 4 * 8 + 1);
        shared.flush().unwrap();
        let reopened = Store::open(&path).unwrap();
        assert_eq!(reopened.len(), 4 * 8 + 1);
        assert_eq!(reopened.replay_stats().skipped(), 0, "no torn or duplicate lines");
        cleanup(&path);
    }

    /// The `with` read hook exposes replay on a shared store.
    #[test]
    fn shared_store_replays_under_the_lock() {
        let path = tmp_path("shared-replay");
        let spec = GpuSpec::t4();
        let mm = Workload::matmul(1, 64, 64, 64);
        let shared = SharedStore::open(&path).unwrap();
        assert!(shared.append(success(&spec, &mm, 1e-3)));
        assert!(!shared.append(success(&spec, &mm, 2e-3)));
        let campaign: HashSet<String> = [mm.key()].into_iter().collect();
        let latencies = shared.with(|store| {
            store
                .replay("sim", &spec.fingerprint(), &campaign)
                .records
                .iter()
                .filter_map(|r| r.outcome.latency_s())
                .collect::<Vec<_>>()
        });
        assert_eq!(latencies, vec![1e-3]);
        assert!(shared.contains(&success(&spec, &mm, 1e-3).dedup_key()));
        assert_eq!(shared.appended(), 1);
        assert!(!shared.is_empty());
        cleanup(&path);
    }
}

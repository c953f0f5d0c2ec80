//! Host-side measurement: clocks, `/proc` readers, order statistics, the
//! counting allocator, benchmark-side spans and the host fingerprint.
//! Nothing here calls into the system under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------- allocator

/// The bench binary's global allocator: the system allocator plus two
/// relaxed counters that only run while [`count_allocs`] is on. The
/// end-to-end pass leaves it off, so its cost there is one relaxed load
/// per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics and never touch the blocks.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off (traced pass only).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn alloc_counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

// -------------------------------------------------------------------- /proc

/// Process CPU seconds (user + system, every thread, live or joined) from
/// `/proc/self/stat`. Linux reports these in `USER_HZ` ticks, which is 100
/// on every supported architecture — so callers take the CPU of a whole
/// timed section and divide, rather than a median of 10 ms-grained reps.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after `)`.
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

// --------------------------------------------------------- order statistics

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest order statistic that still has ten samples beyond it — the
/// tail a sample of this size supports — and the percentile it sits at.
pub fn supported_tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() <= 10 {
        return (v.last().copied().unwrap_or(0.0), 100.0);
    }
    let idx = v.len() - 11;
    (v[idx], 100.0 * (idx + 1) as f64 / v.len() as f64)
}

/// Smallest value (best-of-reps for overhead ratios, where the noise is
/// one-sided).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Runs `f` `reps` times and returns the median seconds per run plus the
/// last run's output.
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (median(&times), last.expect("at least one rep"))
}

// -------------------------------------------------------------------- spans

/// One benchmark-side span: recorded around a call into the system, never
/// inside it.
pub struct Span {
    /// Span id, unique within the run.
    pub id: u64,
    /// Id of the span that caused this one (the op span), 0 for roots.
    pub parent: u64,
    /// Timed repetition the span belongs to.
    pub rep: usize,
    /// Layer/phase label.
    pub name: &'static str,
    /// Seconds since the trace epoch.
    pub start_s: f64,
    /// Seconds since the trace epoch.
    pub end_s: f64,
}

/// What the benchmark observes while it drives one repetition: spans (in
/// the traced pass only) and round boundaries (always — the boundary clock
/// is the one `Instant` the stepped driver reads anyway).
pub struct Obs {
    epoch: Instant,
    trace: bool,
    next_id: u64,
    op_span: u64,
    rep: usize,
    /// Spans of every repetition so far; written out at exit.
    pub spans: Vec<Span>,
    /// Host seconds between consecutive round boundaries, all reps.
    pub round_gaps: Vec<f64>,
    /// `alloc_counters()` at every round boundary (traced pass only).
    pub alloc_marks: Vec<(u64, u64)>,
    last_boundary: Option<Instant>,
}

impl Obs {
    /// An observer; `trace` keeps spans, otherwise only round gaps.
    pub fn new(trace: bool) -> Obs {
        Obs {
            epoch: Instant::now(),
            trace,
            next_id: 1,
            op_span: 0,
            rep: 0,
            spans: Vec::new(),
            round_gaps: Vec::new(),
            alloc_marks: Vec::new(),
            last_boundary: None,
        }
    }

    /// Whether spans are being kept.
    pub fn tracing(&self) -> bool {
        self.trace
    }

    /// Opens repetition `rep`: later spans hang off a fresh op span.
    pub fn begin_op(&mut self, rep: usize) {
        self.rep = rep;
        self.last_boundary = None;
        self.op_span = self.next_id;
        self.next_id += 1;
    }

    /// Closes the repetition's op span.
    pub fn end_op(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.trace {
            let (start_s, end_s) = (self.since_epoch(start), self.since_epoch(end));
            self.spans.push(Span {
                id: self.op_span,
                parent: 0,
                rep: self.rep,
                name,
                start_s,
                end_s,
            });
        }
    }

    /// Records one child span of the current op.
    pub fn span(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.trace {
            let id = self.next_id;
            self.next_id += 1;
            let (start_s, end_s) = (self.since_epoch(start), self.since_epoch(end));
            self.spans.push(Span {
                id,
                parent: self.op_span,
                rep: self.rep,
                name,
                start_s,
                end_s,
            });
        }
    }

    /// Starts the round clock (the campaign is about to enter round 0).
    pub fn rounds_begin(&mut self, at: Instant) {
        self.last_boundary = Some(at);
    }

    /// Marks a round boundary: one more round's results are in hand.
    pub fn round_boundary(&mut self, at: Instant) {
        if let Some(prev) = self.last_boundary {
            self.round_gaps.push(at.duration_since(prev).as_secs_f64());
        }
        self.last_boundary = Some(at);
        if self.trace {
            self.alloc_marks.push(alloc_counters());
        }
    }

    fn since_epoch(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Total seconds of the spans called `name` in repetition `rep`.
    pub fn span_total(&self, name: &str, rep: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.rep == rep && s.parent != 0 && s.name == name)
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    /// Total seconds of every child span in repetition `rep`.
    pub fn children_total(&self, rep: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.rep == rep && s.parent != 0)
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    /// Writes the spans as JSONL (one object per span).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"rep\":{},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9}}}\n",
                s.id, s.parent, s.rep, s.name, s.start_s, s.end_s
            ));
        }
        std::fs::write(path, out)
    }
}

// -------------------------------------------------------------- fingerprint

/// What the numbers were measured on. Results from different hosts,
/// toolchains or kernel-dispatch paths must not be compared.
pub struct Fingerprint {
    /// `available_parallelism`.
    pub nproc: usize,
    /// Worker threads the campaigns were given.
    pub threads: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Whether the GEMM layer dispatches its AVX2 kernel clones here (the
    /// same runtime probe the kernels use).
    pub avx2: bool,
    /// Compiler that built the benchmark and the system.
    pub rustc: &'static str,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Fingerprint {
    /// Probes the host.
    pub fn probe(threads: usize) -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: nproc(),
            threads,
            cpu_model,
            avx2,
            rustc: env!("PERF_RUSTC_VERSION"),
            commit,
        }
    }

    /// One human-readable line.
    pub fn line(&self) -> String {
        format!(
            "host: nproc={} threads={} cpu=\"{}\" avx2_kernels={} rustc=\"{}\" commit={}",
            self.nproc, self.threads, self.cpu_model, self.avx2, self.rustc, self.commit
        )
    }
}

/// The host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

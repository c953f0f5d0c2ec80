//! Multi-tenant campaign scheduling.
//!
//! The scheduler owns a fixed pool of worker threads and a per-tenant
//! FIFO queue. Admission is round-robin across tenants: a free worker
//! takes the next campaign from the next tenant (in rotation) whose
//! running count is under its budget, so one tenant with a deep queue
//! cannot starve the others. Fairness only decides *when* a campaign
//! runs — each campaign's result is keyed entirely on its own config, so
//! scheduling order never changes bytes.
//!
//! The scheduler is protocol-agnostic: a campaign is a boxed job closure
//! (built by the daemon) that receives its stop signal and returns a
//! [`JobOutcome`]. This keeps the policy testable without sockets.

use pruner_tuner::{STOP_KILL, STOP_NONE, STOP_PARK};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// What a finished campaign job reports back to the registry.
pub struct JobOutcome {
    /// The supervisor outcome label (`completed`, `cancelled`,
    /// `quarantined`, …).
    pub outcome: String,
    /// Best weighted latency, when the campaign produced a result.
    pub best_latency_s: Option<f64>,
    /// The final result as canonical JSON, when the campaign completed.
    pub result_json: Option<String>,
}

/// A campaign's lifecycle state in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignState {
    /// Waiting for a worker (or for tenant budget).
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished with a result.
    Done,
    /// Cancelled by request or daemon shutdown (resumable if a
    /// checkpoint was parked).
    Cancelled,
    /// Finished without a result (quarantined or errored).
    Failed,
}

impl CampaignState {
    /// The wire-facing name of this state.
    pub fn label(self) -> &'static str {
        match self {
            CampaignState::Queued => "queued",
            CampaignState::Running => "running",
            CampaignState::Done => "done",
            CampaignState::Cancelled => "cancelled",
            CampaignState::Failed => "failed",
        }
    }
}

/// The work a queued campaign will run: receives its stop signal, runs
/// to an outcome. Built by the daemon around `Supervisor::run`.
pub type CampaignJob = Box<dyn FnOnce(Arc<AtomicU8>) -> JobOutcome + Send>;

/// One campaign's registry entry.
struct Entry {
    tenant: String,
    state: CampaignState,
    stop: Arc<AtomicU8>,
    outcome: Option<JobOutcome>,
}

/// A queued, not-yet-admitted campaign.
struct QueuedJob {
    id: String,
    job: CampaignJob,
}

struct Inner {
    /// Per-tenant FIFO queues, plus the rotation order of tenant names.
    queues: HashMap<String, VecDeque<QueuedJob>>,
    rotation: Vec<String>,
    /// Round-robin cursor into `rotation`.
    cursor: usize,
    /// Per-tenant running campaign count.
    running: HashMap<String, usize>,
    registry: HashMap<String, Entry>,
    shutdown: bool,
}

impl Inner {
    /// Picks the next admissible campaign, starting the round-robin scan
    /// at the cursor and advancing it past the chosen tenant.
    fn next_job(&mut self, per_tenant_budget: usize) -> Option<QueuedJob> {
        if self.rotation.is_empty() {
            return None;
        }
        for step in 0..self.rotation.len() {
            let idx = (self.cursor + step) % self.rotation.len();
            let tenant = &self.rotation[idx];
            if *self.running.get(tenant).unwrap_or(&0) >= per_tenant_budget {
                continue;
            }
            let Some(queue) = self.queues.get_mut(tenant) else { continue };
            let Some(job) = queue.pop_front() else { continue };
            *self.running.entry(tenant.clone()).or_insert(0) += 1;
            self.cursor = (idx + 1) % self.rotation.len();
            return Some(job);
        }
        None
    }
}

/// The campaign scheduler: worker pool + per-tenant queues + registry.
pub struct Scheduler {
    inner: Arc<(Mutex<Inner>, Condvar)>,
    workers: Vec<JoinHandle<()>>,
    per_tenant_budget: usize,
}

impl Scheduler {
    /// Starts `workers` worker threads; each tenant may have at most
    /// `per_tenant_budget` campaigns running at once.
    pub fn new(workers: usize, per_tenant_budget: usize) -> Scheduler {
        let inner = Arc::new((
            Mutex::new(Inner {
                queues: HashMap::new(),
                rotation: Vec::new(),
                cursor: 0,
                running: HashMap::new(),
                registry: HashMap::new(),
                shutdown: false,
            }),
            Condvar::new(),
        ));
        let budget = per_tenant_budget.max(1);
        let workers = (0..workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || Scheduler::worker_loop(&inner, budget))
            })
            .collect();
        Scheduler { inner, workers, per_tenant_budget: budget }
    }

    fn worker_loop(inner: &Arc<(Mutex<Inner>, Condvar)>, budget: usize) {
        let (lock, cvar) = &**inner;
        loop {
            let (id, job, stop) = {
                let mut guard = lock.lock().unwrap_or_else(|p| p.into_inner());
                loop {
                    if let Some(queued) = guard.next_job(budget) {
                        let entry = guard
                            .registry
                            .get_mut(&queued.id)
                            .expect("queued campaigns are registered");
                        entry.state = CampaignState::Running;
                        let stop = Arc::clone(&entry.stop);
                        break (queued.id, queued.job, stop);
                    }
                    if guard.shutdown {
                        return;
                    }
                    guard = cvar.wait(guard).unwrap_or_else(|p| p.into_inner());
                }
            };
            let outcome = (job)(Arc::clone(&stop));
            let mut guard = lock.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(entry) = guard.registry.get_mut(&id) {
                entry.state = match (outcome.outcome.as_str(), outcome.result_json.is_some()) {
                    ("completed", true) => CampaignState::Done,
                    ("cancelled", _) => CampaignState::Cancelled,
                    _ => CampaignState::Failed,
                };
                let tenant = entry.tenant.clone();
                entry.outcome = Some(outcome);
                if let Some(count) = guard.running.get_mut(&tenant) {
                    *count = count.saturating_sub(1);
                }
            }
            cvar.notify_all();
        }
    }

    /// Queues a campaign for `tenant` under `id` (caller-assigned,
    /// unique). Returns `false` when the id is already taken or the
    /// scheduler is shutting down.
    pub fn submit(&self, tenant: &str, id: &str, job: CampaignJob) -> bool {
        let (lock, cvar) = &*self.inner;
        let mut guard = lock.lock().unwrap_or_else(|p| p.into_inner());
        if guard.shutdown || guard.registry.contains_key(id) {
            return false;
        }
        guard.registry.insert(
            id.to_string(),
            Entry {
                tenant: tenant.to_string(),
                state: CampaignState::Queued,
                stop: Arc::new(AtomicU8::new(STOP_NONE)),
                outcome: None,
            },
        );
        if !guard.queues.contains_key(tenant) {
            guard.rotation.push(tenant.to_string());
            guard.queues.insert(tenant.to_string(), VecDeque::new());
        }
        guard
            .queues
            .get_mut(tenant)
            .expect("queue exists after insert")
            .push_back(QueuedJob { id: id.to_string(), job });
        cvar.notify_all();
        true
    }

    /// A campaign's `(tenant, state, best latency, result JSON)` — `None`
    /// for an unknown id.
    pub fn status(&self, id: &str) -> Option<(String, CampaignState, Option<f64>, Option<String>)> {
        let (lock, _) = &*self.inner;
        let guard = lock.lock().unwrap_or_else(|p| p.into_inner());
        guard.registry.get(id).map(|entry| {
            (
                entry.tenant.clone(),
                entry.state,
                entry.outcome.as_ref().and_then(|o| o.best_latency_s),
                entry.outcome.as_ref().and_then(|o| o.result_json.clone()),
            )
        })
    }

    /// Cancels a campaign: a queued one is dropped from its queue, a
    /// running one gets [`STOP_PARK`] (it parks its checkpoint and
    /// reports `cancelled`). Returns `false` for unknown or already
    /// finished campaigns.
    pub fn cancel(&self, id: &str) -> bool {
        let (lock, cvar) = &*self.inner;
        let mut guard = lock.lock().unwrap_or_else(|p| p.into_inner());
        let Some(entry) = guard.registry.get_mut(id) else { return false };
        match entry.state {
            CampaignState::Queued => {
                entry.state = CampaignState::Cancelled;
                entry.stop.store(STOP_PARK, Ordering::SeqCst);
                let tenant = entry.tenant.clone();
                if let Some(queue) = guard.queues.get_mut(&tenant) {
                    queue.retain(|q| q.id != id);
                }
                cvar.notify_all();
                true
            }
            CampaignState::Running => {
                entry.stop.store(STOP_PARK, Ordering::SeqCst);
                true
            }
            _ => false,
        }
    }

    /// Every campaign id currently queued or running (drain/wait logic).
    pub fn active(&self) -> Vec<String> {
        let (lock, _) = &*self.inner;
        let guard = lock.lock().unwrap_or_else(|p| p.into_inner());
        guard
            .registry
            .iter()
            .filter(|(_, e)| {
                matches!(e.state, CampaignState::Queued | CampaignState::Running)
            })
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// Blocks until no campaign is queued or running.
    pub fn wait_idle(&self) {
        let (lock, cvar) = &*self.inner;
        let mut guard = lock.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            let busy = guard.registry.values().any(|e| {
                matches!(e.state, CampaignState::Queued | CampaignState::Running)
            });
            if !busy {
                return;
            }
            guard = cvar.wait(guard).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Stops the pool: signals every running campaign with `stop_mode`
    /// ([`STOP_PARK`] for a graceful shutdown, [`STOP_KILL`] for the
    /// in-process equivalent of `kill -9`), drops every queued campaign,
    /// and joins the workers.
    pub fn stop(mut self, stop_mode: u8) {
        debug_assert!(stop_mode == STOP_PARK || stop_mode == STOP_KILL);
        {
            let (lock, cvar) = &*self.inner;
            let mut guard = lock.lock().unwrap_or_else(|p| p.into_inner());
            guard.shutdown = true;
            for queue in guard.queues.values_mut() {
                queue.clear();
            }
            for entry in guard.registry.values_mut() {
                match entry.state {
                    CampaignState::Queued => entry.state = CampaignState::Cancelled,
                    CampaignState::Running => entry.stop.store(stop_mode, Ordering::SeqCst),
                    _ => {}
                }
            }
            cvar.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// The per-tenant concurrent-campaign budget this pool enforces.
    pub fn per_tenant_budget(&self) -> usize {
        self.per_tenant_budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    /// A job that parks on a channel until released, so tests control
    /// exactly which campaigns are in flight.
    fn gated_job(
        release: Arc<(Mutex<bool>, Condvar)>,
        running_peak: Arc<AtomicUsize>,
        running_now: Arc<AtomicUsize>,
    ) -> CampaignJob {
        Box::new(move |stop| {
            let now = running_now.fetch_add(1, Ordering::SeqCst) + 1;
            running_peak.fetch_max(now, Ordering::SeqCst);
            let (lock, cvar) = &*release;
            let mut open = lock.lock().unwrap();
            while !*open && stop.load(Ordering::SeqCst) == STOP_NONE {
                let (next, _) = cvar.wait_timeout(open, Duration::from_millis(10)).unwrap();
                open = next;
            }
            running_now.fetch_sub(1, Ordering::SeqCst);
            let cancelled = stop.load(Ordering::SeqCst) != STOP_NONE;
            JobOutcome {
                outcome: if cancelled { "cancelled".into() } else { "completed".into() },
                best_latency_s: Some(1e-3),
                result_json: (!cancelled).then(|| "{}".to_string()),
            }
        })
    }

    #[test]
    fn budget_caps_concurrency_per_tenant_not_globally() {
        let sched = Scheduler::new(4, 1);
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let peak = Arc::new(AtomicUsize::new(0));
        let now = Arc::new(AtomicUsize::new(0));
        // Two tenants, two campaigns each, budget 1: at most one per
        // tenant runs at a time, but both tenants run concurrently.
        for tenant in ["a", "b"] {
            for i in 0..2 {
                let job = gated_job(Arc::clone(&release), Arc::clone(&peak), Arc::clone(&now));
                assert!(sched.submit(tenant, &format!("{tenant}-{i}"), job));
            }
        }
        // Wait until both tenants' first campaigns are running.
        for _ in 0..200 {
            if now.load(Ordering::SeqCst) == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(now.load(Ordering::SeqCst), 2, "one campaign per tenant must be admitted");
        assert_eq!(sched.status("a-1").unwrap().1, CampaignState::Queued);
        *release.0.lock().unwrap() = true;
        release.1.notify_all();
        sched.wait_idle();
        assert!(peak.load(Ordering::SeqCst) <= 2, "budget 1 × 2 tenants caps at 2");
        for id in ["a-0", "a-1", "b-0", "b-1"] {
            assert_eq!(sched.status(id).unwrap().1, CampaignState::Done, "{id}");
        }
        sched.stop(STOP_PARK);
    }

    #[test]
    fn cancel_dequeues_queued_and_stops_running() {
        let sched = Scheduler::new(1, 1);
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let peak = Arc::new(AtomicUsize::new(0));
        let now = Arc::new(AtomicUsize::new(0));
        for i in 0..2 {
            let job = gated_job(Arc::clone(&release), Arc::clone(&peak), Arc::clone(&now));
            assert!(sched.submit("t", &format!("t-{i}"), job));
        }
        for _ in 0..200 {
            if now.load(Ordering::SeqCst) == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // t-1 is queued: cancel drops it without a worker ever seeing it.
        assert!(sched.cancel("t-1"));
        assert_eq!(sched.status("t-1").unwrap().1, CampaignState::Cancelled);
        // t-0 is running: cancel signals STOP_PARK and the job reports
        // cancelled.
        assert!(sched.cancel("t-0"));
        sched.wait_idle();
        assert_eq!(sched.status("t-0").unwrap().1, CampaignState::Cancelled);
        // Finished campaigns cannot be cancelled again.
        assert!(!sched.cancel("t-0"));
        assert!(!sched.cancel("missing"));
        sched.stop(STOP_PARK);
    }

    #[test]
    fn duplicate_ids_and_post_shutdown_submissions_are_rejected() {
        let sched = Scheduler::new(1, 1);
        let release = Arc::new((Mutex::new(true), Condvar::new()));
        let peak = Arc::new(AtomicUsize::new(0));
        let now = Arc::new(AtomicUsize::new(0));
        let job = gated_job(Arc::clone(&release), Arc::clone(&peak), Arc::clone(&now));
        assert!(sched.submit("t", "dup", job));
        let job = gated_job(Arc::clone(&release), Arc::clone(&peak), Arc::clone(&now));
        assert!(!sched.submit("t", "dup", job), "ids are unique");
        sched.wait_idle();
        sched.stop(STOP_PARK);
    }
}

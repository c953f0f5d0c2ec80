//! Cross-tenant inference batching.
//!
//! Every named daemon model is owned by one [`Batcher`]: a worker thread
//! holding the `Arc<dyn CostModel>` and an MPSC queue of prediction
//! jobs. Clients — `PredictOnly` connection handlers and campaigns
//! running with a shared model (via [`BatchedModel`]) — enqueue their
//! samples and block on a reply channel. The worker drains everything
//! queued at that moment, concatenates the samples, runs **one**
//! `predict_batch` over the union, and splits the scores back out by
//! request length.
//!
//! Coalescing is safe because every learned model's prediction is
//! per-sample: `predict_batch` chunks the input and scores each sample
//! from its own features, so a sample's score is bit-identical whether
//! it is scored alone or inside a larger batch (the
//! `shared_snapshot_restore_predicts_identically` test in `pruner-cost`
//! pins this for the snapshot path). The daemon never routes the
//! stateful `random` baseline through a batcher shared across tenants
//! with campaign traffic — each request would perturb the counter other
//! requests observe.

use pruner_cost::{CostModel, ModelSnapshot, Sample};
use pruner_nn::Graph;
use pruner_trace::{Record, Recorder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One queued prediction request.
struct BatchJob {
    samples: Vec<Sample>,
    reply: Sender<Vec<f32>>,
}

/// Cumulative batching counters (reported as `serve.batch` trace records
/// and surfaced by the daemon's report).
#[derive(Debug, Default)]
struct BatchStats {
    batches: AtomicU64,
    requests: AtomicU64,
    samples: AtomicU64,
}

/// The per-model inference coalescer. Cheap to clone handles out of via
/// [`Batcher::model`]; dropping the batcher stops its worker.
pub struct Batcher {
    tx: Option<Sender<BatchJob>>,
    worker: Option<JoinHandle<()>>,
    shared: Arc<dyn CostModel>,
    stats: Arc<BatchStats>,
}

impl Batcher {
    /// Spawns the coalescing worker for `model`. `threads` is the
    /// `predict_batch` parallelism of each merged call (scores are
    /// bit-identical at any value). A recorder, when given, receives one
    /// `serve.batch` record per merged call.
    pub fn new(
        model: Arc<dyn CostModel>,
        threads: usize,
        recorder: Option<Box<dyn Recorder>>,
    ) -> Batcher {
        let (tx, rx): (Sender<BatchJob>, Receiver<BatchJob>) = channel();
        let shared = Arc::clone(&model);
        let stats = Arc::new(BatchStats::default());
        let worker_stats = Arc::clone(&stats);
        let mut recorder = recorder;
        let worker = std::thread::spawn(move || {
            // Block for the first job, then drain everything else that is
            // already queued — that snapshot is the batch.
            while let Ok(first) = rx.recv() {
                let mut jobs = vec![first];
                while let Ok(job) = rx.try_recv() {
                    jobs.push(job);
                }
                let mut all: Vec<Sample> = Vec::new();
                for job in &jobs {
                    all.extend(job.samples.iter().cloned());
                }
                let scores = model.predict_batch(&all, threads);
                worker_stats.batches.fetch_add(1, Ordering::Relaxed);
                worker_stats.requests.fetch_add(jobs.len() as u64, Ordering::Relaxed);
                worker_stats.samples.fetch_add(all.len() as u64, Ordering::Relaxed);
                if let Some(rec) = recorder.as_mut() {
                    rec.emit(
                        Record::new("serve.batch")
                            .u64("requests", jobs.len() as u64)
                            .u64("samples", all.len() as u64),
                    );
                }
                let mut offset = 0;
                for job in jobs {
                    let n = job.samples.len();
                    // A disconnected requester just discards its scores.
                    let _ = job.reply.send(scores[offset..offset + n].to_vec());
                    offset += n;
                }
            }
        });
        Batcher { tx: Some(tx), worker: Some(worker), shared, stats }
    }

    /// Scores `samples` through the coalescing queue, blocking until the
    /// worker's merged `predict_batch` call returns.
    pub fn predict(&self, samples: Vec<Sample>) -> Vec<f32> {
        let (reply, rx) = channel();
        let n = samples.len();
        if n == 0 {
            return Vec::new();
        }
        self.tx
            .as_ref()
            .expect("batcher queue lives as long as the batcher")
            .send(BatchJob { samples, reply })
            .expect("batcher worker lives as long as the batcher");
        rx.recv().expect("batcher worker replies to every job")
    }

    /// The shared model behind this batcher (for snapshots and direct,
    /// un-coalesced access).
    pub fn model(&self) -> Arc<dyn CostModel> {
        Arc::clone(&self.shared)
    }

    /// A [`CostModel`] view of this batcher for campaign use: predictions
    /// coalesce with every other client of the same model, training is a
    /// frozen no-op.
    pub(crate) fn campaign_model(&self) -> BatchedModel {
        BatchedModel {
            shared: Arc::clone(&self.shared),
            tx: self.tx.as_ref().expect("batcher queue is live").clone(),
        }
    }

    /// Cumulative `(batches, requests, samples)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.stats.batches.load(Ordering::Relaxed),
            self.stats.requests.load(Ordering::Relaxed),
            self.stats.samples.load(Ordering::Relaxed),
        )
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        // Disconnect the queue so the worker's recv() errors out, then
        // wait for it to finish any in-flight batch.
        drop(self.tx.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// A frozen, batcher-routed cost model handed to campaigns that share a
/// named daemon model.
///
/// * `predict*` routes through the batcher queue, so concurrent
///   campaigns and `PredictOnly` requests merge into single
///   `predict_batch` calls;
/// * `fit_batch` is a no-op — the shared model is frozen (fine-tuning one
///   tenant's copy would leak its measurements into every other
///   tenant's predictions);
/// * `snapshot` delegates to the shared model, so a parked campaign's
///   checkpoint embeds the frozen weights and resumes with bit-identical
///   predictions even without a daemon batcher around.
pub(crate) struct BatchedModel {
    shared: Arc<dyn CostModel>,
    tx: Sender<BatchJob>,
}

impl Clone for BatchedModel {
    fn clone(&self) -> BatchedModel {
        BatchedModel { shared: Arc::clone(&self.shared), tx: self.tx.clone() }
    }
}

impl BatchedModel {
    /// Sends one job through the queue; falls back to the shared model
    /// directly if the batcher has shut down (daemon teardown while a
    /// campaign drains).
    fn predict_queued(&self, samples: &[Sample]) -> Vec<f32> {
        if samples.is_empty() {
            return Vec::new();
        }
        let (reply, rx) = channel();
        if self.tx.send(BatchJob { samples: to_owned(samples), reply }).is_err() {
            return self.shared.predict_batch(samples, 1);
        }
        match rx.recv() {
            Ok(scores) => scores,
            Err(_) => self.shared.predict_batch(samples, 1),
        }
    }
}

/// Clones a borrowed sample slice into an owned job payload.
fn to_owned(samples: &[Sample]) -> Vec<Sample> {
    samples.to_vec()
}

impl CostModel for BatchedModel {
    fn name(&self) -> &'static str {
        "Batched"
    }

    fn predict_with(&self, _workspace: &mut Graph, samples: &[Sample]) -> Vec<f32> {
        self.predict_queued(samples)
    }

    fn predict_batch(&self, samples: &[Sample], _threads: usize) -> Vec<f32> {
        // One queue round-trip for the whole batch; the batcher worker
        // decides the real predict parallelism.
        self.predict_queued(samples)
    }

    fn fit_batch(&mut self, _samples: &[Sample], _epochs: usize, _threads: usize) -> f64 {
        // Frozen: shared daemon models are never fine-tuned by tenants.
        0.0
    }

    fn clone_box(&self) -> Box<dyn CostModel> {
        Box::new(self.clone())
    }

    fn snapshot(&self) -> Option<ModelSnapshot> {
        self.shared.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruner_cost::ModelKind;
    use pruner_ir::Workload;
    use pruner_sketch::Program;

    fn demo_samples(n: usize) -> Vec<Sample> {
        let wl = Workload::matmul(1, 64, 64, 64);
        let prog = Program::fallback(&wl);
        (0..n).map(|i| Sample::unlabeled(&prog, i)).collect()
    }

    #[test]
    fn batched_scores_match_direct_scores() {
        let model: Arc<dyn CostModel> = Arc::from(ModelKind::Pacm.build(7));
        let samples = demo_samples(6);
        let direct = model.predict_batch(&samples, 1);
        let batcher = Batcher::new(Arc::clone(&model), 2, None);
        assert_eq!(batcher.predict(samples.clone()), direct);
        let (batches, requests, scored) = batcher.stats();
        assert_eq!((batches, requests, scored), (1, 1, 6));
        // The CostModel view produces the same scores again.
        let campaign = batcher.campaign_model();
        assert_eq!(campaign.predict_batch(&samples, 8), direct);
    }

    #[test]
    fn concurrent_requests_coalesce_without_mixing_scores() {
        let model: Arc<dyn CostModel> = Arc::from(ModelKind::Pacm.build(11));
        let batcher = Arc::new(Batcher::new(Arc::clone(&model), 2, None));
        let sizes = [1usize, 3, 5, 2];
        let mut handles = Vec::new();
        for (i, &n) in sizes.iter().enumerate() {
            let batcher = Arc::clone(&batcher);
            handles.push(std::thread::spawn(move || {
                // Distinct task ids per thread make any cross-request
                // score mixing visible.
                let wl = Workload::matmul(1, 64, 64, 64);
                let prog = Program::fallback(&wl);
                let samples: Vec<Sample> =
                    (0..n).map(|j| Sample::unlabeled(&prog, i * 100 + j)).collect();
                (samples.clone(), batcher.predict(samples))
            }));
        }
        let mut total_requests = 0;
        for handle in handles {
            let (samples, scores) = handle.join().expect("request thread");
            assert_eq!(scores, model.predict_batch(&samples, 1));
            total_requests += 1;
        }
        let (batches, requests, scored) = batcher.stats();
        assert_eq!(requests, total_requests);
        assert_eq!(scored, sizes.iter().sum::<usize>() as u64);
        assert!(batches >= 1 && batches <= total_requests);
    }

    #[test]
    fn frozen_fit_is_a_noop_and_snapshot_delegates() {
        let model: Arc<dyn CostModel> = Arc::from(ModelKind::Pacm.build(3));
        let batcher = Batcher::new(Arc::clone(&model), 1, None);
        let mut campaign = batcher.campaign_model();
        let samples: Vec<Sample> = demo_samples(4)
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let mut s = s;
                s.latency = 1e-3 * (i + 1) as f64;
                s
            })
            .collect();
        let before = model.predict_batch(&samples, 1);
        assert_eq!(campaign.fit_batch(&samples, 3, 1), 0.0);
        assert_eq!(model.predict_batch(&samples, 1), before, "fit must not move the shared model");
        let snap = campaign.snapshot().expect("snapshot must delegate to the shared model");
        assert_eq!(snap.into_model().predict_batch(&samples, 1), before);
    }
}

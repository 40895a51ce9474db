//! Request routing and the worker pool.
//!
//! A query takes the shortest path that can answer it. [`WorkerPool::submit`]
//! refuses a shut-down pool, an unservable slot and an unknown model on the
//! caller's thread, then looks `(model, version, slot)` up in the pool's
//! [`SlotTable`] under one lock:
//!
//! 1. **Ready.** The prediction is answered on the caller's thread — no
//!    queue, no worker, no wait.
//! 2. **Pending.** Another request's job is computing the key; this one
//!    joins its waiters. No timer holds a batch open: the waiters are the
//!    requests that arrived while the job was queued or running.
//! 3. **Absent.** The key becomes pending on this request, and one job
//!    joins a FIFO queue. A free worker replays the model's compiled
//!    inference plan once, stores the prediction, and answers every waiter.
//!
//! The table is therefore the one bound on the work per key: **one forward
//! pass total**, however many requests and workers race. A request is
//! answered by the checkpoint version it read at submit.
//!
//! Models are **thread-confined**: each worker materialises its own
//! [`StgnnDjd`] per registered name, compiles its inference plan against
//! the pool's dataset, and rebuilds both lazily whenever a job carries
//! another checkpoint version (the hot-swap path).

use crate::cache::{CachedPrediction, Entered, SlotKey, SlotTable};
use crate::metrics::ServeMetrics;
use crate::registry::{Checkpoint, ModelEntry, ModelRegistry};
use crate::ServeError;
use parking_lot::{Condvar, Mutex};
use std::collections::{hash_map, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use stgnn_core::compiled::InferencePlan;
use stgnn_core::StgnnDjd;
use stgnn_data::dataset::BikeDataset;
use stgnn_tensor::plan::PlanExec;

/// Result delivered to a waiting request: the full-horizon prediction or a
/// serving error.
pub type BatchReply = Result<CachedPrediction, ServeError>;

/// The one forward pass a pending key needs, with the checkpoint its first
/// request read at submit.
struct Job {
    key: SlotKey,
    entry: Arc<ModelEntry>,
    checkpoint: Arc<Checkpoint>,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    /// Set once by [`WorkerPool::shutdown`], while holding `queue`, so a
    /// worker that checks it under that lock cannot miss the wake-up.
    /// `submit` reads it without the lock to refuse ready keys too.
    shutdown: AtomicBool,
    table: SlotTable,
    registry: Arc<ModelRegistry>,
    metrics: Arc<ServeMetrics>,
    dataset: Arc<BikeDataset>,
}

/// The worker pool. Dropping it (or calling [`WorkerPool::shutdown`])
/// stops the workers after the queue drains.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Starts `workers` worker threads (at least one), each owning its
    /// materialised models.
    pub fn new(
        registry: Arc<ModelRegistry>,
        metrics: Arc<ServeMetrics>,
        dataset: Arc<BikeDataset>,
        workers: usize,
    ) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            table: SlotTable::default(),
            registry,
            metrics,
            dataset,
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("stgnn-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    // sound: allow(L002): SPAWN-FAILS-ONLY-AT-STARTUP — before
                    // any request is accepted, a failed spawn is OS resource
                    // exhaustion at startup, where aborting is the right call.
                    .expect("spawn worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Submits a query and returns the channel its reply arrives on. A
    /// refusal or a ready prediction is answered before this returns, on
    /// the caller's thread; anything else waits for a worker. The caller
    /// decides how long to wait (and what to do on deadline). Every error
    /// reply counts one error in the pool's metrics.
    pub fn submit(&self, model: impl Into<String>, slot: usize) -> mpsc::Receiver<BatchReply> {
        let shared = &self.shared;
        let (respond, rx) = mpsc::channel();
        shared.metrics.inc_requests();
        match self.job(model.into(), slot) {
            Err(e) => {
                shared.metrics.inc_errors();
                let _ = respond.send(Err(e));
            }
            Ok(job) => match shared.table.enter(&job.key, respond) {
                Entered::Answered => shared.metrics.inc_cache_hits(1),
                Entered::Waiting => {}
                Entered::Claimed => self.enqueue(job),
            },
        }
        rx
    }

    /// The job that would answer `model` at `slot`, or the refusal.
    fn job(&self, model: String, slot: usize) -> Result<Job, ServeError> {
        let shared = &self.shared;
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::Shutdown);
        }
        // Checked here, not just in the HTTP layer: `submit` is a public
        // API, and an out-of-range slot would otherwise reach the
        // input-window assembly and panic inside its arithmetic.
        shared
            .dataset
            .check_servable(slot)
            .map_err(ServeError::BadRequest)?;
        let Some(entry) = shared.registry.get(&model) else {
            return Err(ServeError::UnknownModel(model));
        };
        let checkpoint = entry.checkpoint();
        Ok(Job {
            key: (model, checkpoint.version, slot),
            entry,
            checkpoint,
        })
    }

    /// Queues the job of a key just claimed, or — if the pool shut down
    /// since `submit` checked — fails the key's waiters.
    fn enqueue(&self, job: Job) {
        let shared = &self.shared;
        let refused = {
            let mut queue = shared.queue.lock();
            if shared.shutdown.load(Ordering::SeqCst) {
                Some(job)
            } else {
                queue.push_back(job);
                shared.queue_cv.notify_one();
                None
            }
        };
        if let Some(job) = refused {
            answer(shared, &job.key, Err(ServeError::Shutdown));
        }
    }

    /// Stops accepting work, drains the queue, and joins the workers.
    pub fn shutdown(&mut self) {
        {
            let _queue = self.shared.queue.lock();
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.queue_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker's materialised copy of a registered model, plus its compiled
/// forward plan. The whole struct is replaced whenever the checkpoint
/// version moves (hot-swap), so a stale plan can never outlive the weights
/// it was compiled against.
struct LocalModel {
    version: u64,
    model: StgnnDjd,
    /// This version's inference plan, compiled when the worker
    /// materialised the version, and its reusable executor. Replaying it
    /// keeps the steady-state serve path free of pool misses.
    plan: InferencePlan,
    exec: PlanExec,
}

impl LocalModel {
    /// Materialises `checkpoint` and compiles its inference plan at `slot`.
    /// Compiling checks the model against the pool's fixed dataset, so a
    /// model that does not fit it fails here, once per version.
    fn build(
        entry: &ModelEntry,
        checkpoint: &Checkpoint,
        data: &BikeDataset,
        slot: usize,
    ) -> Result<Self, ServeError> {
        let model = entry.spec().materialize_with(checkpoint)?;
        let plan = match model.compile_inference_plan(data, slot) {
            Ok(Some(plan)) => plan,
            Ok(None) => {
                return Err(ServeError::BadRequest(
                    "model compiled no inference plan".into(),
                ))
            }
            Err(e) => return Err(ServeError::BadRequest(e.to_string())),
        };
        let exec = plan.executor();
        Ok(LocalModel {
            version: checkpoint.version,
            model,
            plan,
            exec,
        })
    }
}

fn worker_loop(shared: &Shared) {
    // This worker's materialised models, keyed by name with the checkpoint
    // version they were built from.
    let mut local: HashMap<String, LocalModel> = HashMap::new();
    loop {
        let job = {
            let mut queue = shared.queue.lock();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                shared.queue_cv.wait(&mut queue);
            }
        };
        let reply = forward(shared, &mut local, &job);
        answer(shared, &job.key, reply);
    }
}

/// Ends `key`'s computation: stores a prediction in the table, counts the
/// key's waiters — as one forward pass's batch, or as one error each — and
/// then answers them.
fn answer(shared: &Shared, key: &SlotKey, reply: BatchReply) {
    let waiters = shared.table.finish(key, &reply);
    if reply.is_ok() {
        shared.metrics.record_forward(waiters.len());
        shared.metrics.inc_batched(waiters.len() as u64);
    } else {
        waiters.iter().for_each(|_| shared.metrics.inc_errors());
    }
    for waiter in waiters {
        // A waiter may have given up (deadline); that is fine.
        let _ = waiter.send(reply.clone());
    }
}

/// Runs `job`'s forward pass on this worker's copy of its model version.
fn forward(shared: &Shared, local: &mut HashMap<String, LocalModel>, job: &Job) -> BatchReply {
    let (name, version, slot) = &job.key;
    // A version move replaces the whole LocalModel, dropping the old plan
    // with it — the hot-swap invalidation. The old version goes first, so
    // it is not held while the new one compiles.
    if local.get(name).is_some_and(|lm| lm.version != *version) {
        local.remove(name);
    }
    // Defense in depth: a panic while building or replaying the model (a
    // shape bug validation didn't anticipate) must neither take the worker
    // thread down with the whole queue behind it nor strand the key's
    // waiters.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let lm = match local.entry(name.clone()) {
            hash_map::Entry::Occupied(held) => held.into_mut(),
            hash_map::Entry::Vacant(vacant) => vacant.insert(LocalModel::build(
                &job.entry,
                &job.checkpoint,
                &shared.dataset,
                *slot,
            )?),
        };
        // Inside the catch_unwind on purpose: an injected panic here takes
        // the same containment path a real forward-pass panic would.
        stgnn_faults::failpoint!("serve::forward");
        lm.model
            .plan_predict_horizon(&lm.plan, &mut lm.exec, &shared.dataset, *slot)
            .map(Arc::new)
            .map_err(|e| ServeError::BadRequest(format!("forward pass failed: {e}")))
    }));
    let reply = outcome.unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "forward pass panicked".into());
        Err(ServeError::BadRequest(format!(
            "forward pass failed: {msg}"
        )))
    });
    if reply.is_err() {
        // Drop this worker's model copy — it may be mid-mutation — so the
        // next job rebuilds it.
        local.remove(name);
    }
    reply
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelSpec;
    use stgnn_core::{FcgAggregator, StgnnConfig};
    use stgnn_data::dataset::{DatasetConfig, Split};
    use stgnn_data::synthetic::{CityConfig, SyntheticCity};

    fn dataset() -> Arc<BikeDataset> {
        let city = SyntheticCity::generate(CityConfig::test_tiny(99));
        Arc::new(BikeDataset::from_city(&city, DatasetConfig::small(6, 2)).unwrap())
    }

    fn pool_with(
        data: &Arc<BikeDataset>,
        workers: usize,
    ) -> (WorkerPool, Arc<ModelRegistry>, Arc<ServeMetrics>) {
        let registry = Arc::new(ModelRegistry::new(Arc::clone(data)));
        let spec = ModelSpec::new(StgnnConfig::test_tiny(6, 2), data.n_stations());
        let bytes = spec.materialize().unwrap().weights_to_bytes();
        registry.register("stgnn", spec, bytes).unwrap();
        let metrics = Arc::new(ServeMetrics::new());
        let pool = WorkerPool::new(
            Arc::clone(&registry),
            Arc::clone(&metrics),
            Arc::clone(data),
            workers,
        );
        (pool, registry, metrics)
    }

    /// Checkpoint bytes of a tiny model initialised from `seed`.
    fn weights(data: &BikeDataset, seed: u64) -> Vec<u8> {
        let mut config = StgnnConfig::test_tiny(6, 2);
        config.seed = seed; // different init ⇒ different weights
        StgnnDjd::new(config, data.n_stations())
            .unwrap()
            .weights_to_bytes()
    }

    #[test]
    fn single_request_round_trips() {
        let data = dataset();
        let (pool, _, metrics) = pool_with(&data, 2);
        let t = data.slots(Split::Test)[0];
        let reply = pool.submit("stgnn", t).recv().unwrap().unwrap();
        assert_eq!(reply[0].demand.len(), data.n_stations());
        assert_eq!(metrics.snapshot().forward_passes, 1);
    }

    #[test]
    fn same_slot_requests_share_one_forward_pass() {
        let data = dataset();
        let (pool, _, metrics) = pool_with(&data, 2);
        let t = data.slots(Split::Test)[0];
        let receivers: Vec<_> = (0..12).map(|_| pool.submit("stgnn", t)).collect();
        let first = receivers[0].recv().unwrap().unwrap();
        for rx in &receivers[1..] {
            let p = rx.recv().unwrap().unwrap();
            assert_eq!(p[0], first[0]);
        }
        let s = metrics.snapshot();
        assert_eq!(s.forward_passes, 1, "snapshot: {s:?}");
        assert_eq!(s.requests, 12);
        assert_eq!(s.batched + s.cache_hits, 12);
    }

    #[test]
    fn later_requests_hit_the_cache() {
        let data = dataset();
        let (pool, _, metrics) = pool_with(&data, 2);
        let t = data.slots(Split::Test)[0];
        pool.submit("stgnn", t).recv().unwrap().unwrap();
        // A hit is answered on the submitting thread, before submit returns.
        pool.submit("stgnn", t).try_recv().unwrap().unwrap();
        pool.submit("stgnn", t).try_recv().unwrap().unwrap();
        let s = metrics.snapshot();
        assert_eq!(s.forward_passes, 1);
        assert!(s.cache_hits >= 2, "snapshot: {s:?}");
    }

    #[test]
    fn distinct_slots_each_get_a_forward_pass() {
        let data = dataset();
        let (pool, _, metrics) = pool_with(&data, 2);
        let slots = data.slots(Split::Test);
        pool.submit("stgnn", slots[0]).recv().unwrap().unwrap();
        pool.submit("stgnn", slots[1]).recv().unwrap().unwrap();
        assert_eq!(metrics.snapshot().forward_passes, 2);
    }

    #[test]
    fn hot_swap_changes_version_and_recomputes() {
        let data = dataset();
        let (pool, registry, metrics) = pool_with(&data, 2);
        let t = data.slots(Split::Test)[0];
        let before = pool.submit("stgnn", t).recv().unwrap().unwrap();

        let mut config = StgnnConfig::test_tiny(6, 2);
        config.seed = 12345; // different init ⇒ different weights
        let other = StgnnDjd::new(config, data.n_stations())
            .unwrap()
            .weights_to_bytes();
        registry.swap("stgnn", other).unwrap();

        let after = pool.submit("stgnn", t).recv().unwrap().unwrap();
        assert_ne!(
            before[0], after[0],
            "hot-swapped weights must change predictions"
        );
        assert_eq!(metrics.snapshot().forward_passes, 2);
    }

    /// Regression: an out-of-range slot used to reach `predict_horizon`,
    /// panic in the window arithmetic, and kill the worker thread — this
    /// ran with one worker so the pool was then dead. The pool must reply
    /// with `BadRequest` and keep serving.
    #[test]
    fn out_of_range_slot_is_an_error_and_the_worker_survives() {
        let data = dataset();
        let (pool, _, metrics) = pool_with(&data, 1);
        // Slot 0 has no history window; slot num_slots+1 is past the data.
        for bad in [0, data.flows().num_slots() + 1] {
            let reply = pool.submit("stgnn", bad).recv().unwrap();
            assert!(
                matches!(reply, Err(ServeError::BadRequest(_))),
                "slot {bad}: {reply:?}"
            );
        }
        // The lone worker must still be alive and serving.
        let t = data.slots(Split::Test)[0];
        let ok = pool.submit("stgnn", t).recv().unwrap().unwrap();
        assert_eq!(ok[0].demand.len(), data.n_stations());
        assert_eq!(metrics.snapshot().errors, 2);
    }

    /// The staleness invariant: once `swap` returns, no response may come
    /// from a pre-swap table entry. The table is keyed by checkpoint
    /// version, so the stale v1 entry may still *exist* — it must simply
    /// never be served.
    #[test]
    fn hot_swap_never_serves_a_stale_cached_prediction() {
        let data = dataset();
        let (pool, registry, _) = pool_with(&data, 2);
        let cache = &pool.shared.table;
        let t = data.slots(Split::Test)[0];
        // Prime the v1 table entry.
        let v1 = pool.submit("stgnn", t).recv().unwrap().unwrap();
        let v1_key = ("stgnn".to_string(), 1, t);
        assert!(cache.ready(&v1_key).is_some(), "v1 entry should be cached");

        let mut config = StgnnConfig::test_tiny(6, 2);
        config.seed = 12345;
        let swapped = StgnnDjd::new(config, data.n_stations())
            .unwrap()
            .weights_to_bytes();
        registry.swap("stgnn", swapped).unwrap();

        // What v2 must predict, materialised independently of the pool.
        let entry = registry.get("stgnn").unwrap();
        let checkpoint = entry.checkpoint();
        assert_eq!(checkpoint.version, 2);
        let expected = entry
            .spec()
            .materialize_with(&checkpoint)
            .unwrap()
            .predict_horizon(&data, t);

        let after = pool.submit("stgnn", t).recv().unwrap().unwrap();
        assert_eq!(
            after[0], expected[0],
            "post-swap response must be the v2 prediction"
        );
        assert_ne!(after[0], v1[0], "post-swap response equals the v1 one");
        // The stale entry still sits in the table under the v1 key — proof
        // that correctness comes from version-keying, not eager deletion.
        assert!(cache.ready(&v1_key).is_some());
    }

    /// A version names one set of weights: a swap after a rollback takes a
    /// version never issued before, so the table cannot answer it with the
    /// prediction of the weights the rollback displaced.
    #[test]
    fn a_swap_after_a_rollback_serves_the_new_weights() {
        let data = dataset();
        let (pool, registry, _) = pool_with(&data, 2);
        let t = data.slots(Split::Test)[0];
        registry.swap("stgnn", weights(&data, 101)).unwrap();
        let a = pool.submit("stgnn", t).recv().unwrap().unwrap();
        assert_eq!(registry.rollback("stgnn").unwrap(), 1);
        registry.swap("stgnn", weights(&data, 202)).unwrap();

        let entry = registry.get("stgnn").unwrap();
        let expected = entry
            .spec()
            .materialize_with(&entry.checkpoint())
            .unwrap()
            .predict_horizon(&data, t);
        let b = pool.submit("stgnn", t).recv().unwrap().unwrap();
        assert_ne!(a[0], expected[0], "the two swaps must predict differently");
        assert_eq!(*b, expected, "served the rolled-back weights' prediction");
    }

    /// The worker's compiled-plan path must serve exactly what an eager
    /// forward on an independently materialised model would — across many
    /// slots, so replay (not just the freshly-traced probe) is what's
    /// checked.
    #[test]
    fn compiled_plan_serves_eager_identical_predictions() {
        let data = dataset();
        let (pool, registry, metrics) = pool_with(&data, 2);
        let entry = registry.get("stgnn").unwrap();
        let reference = entry.spec().materialize_with(&entry.checkpoint()).unwrap();
        let slots = data.slots(Split::Test);
        for &t in slots.iter().take(5) {
            let served = pool.submit("stgnn", t).recv().unwrap().unwrap();
            let eager = reference.predict_horizon(&data, t);
            assert_eq!(*served, eager, "slot {t}: plan replay diverged from eager");
        }
        assert_eq!(metrics.snapshot().forward_passes, 5);
    }

    /// The FCG max aggregator pools over each slot's derived FCG mask; the
    /// plan a worker compiles for it must serve what an eager forward on an
    /// independently materialised model would.
    #[test]
    fn fcg_max_model_serves_eager_identical_predictions() {
        let data = dataset();
        let registry = Arc::new(ModelRegistry::new(Arc::clone(&data)));
        let mut config = StgnnConfig::test_tiny(6, 2);
        config.fcg_aggregator = FcgAggregator::Max;
        let spec = ModelSpec::new(config, data.n_stations());
        let reference = spec.materialize().unwrap();
        registry
            .register("max", spec, reference.weights_to_bytes())
            .unwrap();
        let pool = WorkerPool::new(
            registry,
            Arc::new(ServeMetrics::new()),
            Arc::clone(&data),
            2,
        );
        for &t in data.slots(Split::Test).iter().take(5) {
            let served = pool.submit("max", t).recv().unwrap().unwrap();
            let eager = reference.predict_horizon(&data, t);
            assert_eq!(*served, eager, "slot {t}: plan replay diverged from eager");
        }
    }

    #[test]
    fn unknown_model_is_an_error_not_a_hang() {
        let data = dataset();
        let (pool, _, metrics) = pool_with(&data, 2);
        let t = data.slots(Split::Test)[0];
        let reply = pool.submit("nope", t).recv().unwrap();
        assert!(matches!(reply, Err(ServeError::UnknownModel(_))));
        assert_eq!(metrics.snapshot().errors, 1);
    }

    /// A failed forward stores nothing: every waiter of its key gets the
    /// error and counts one, and the next request computes the key afresh.
    #[test]
    fn a_failed_forward_stores_nothing_and_answers_every_waiter() {
        let data = dataset();
        let (pool, _, metrics) = pool_with(&data, 1);
        let t = data.slots(Split::Test)[0];
        let key = ("stgnn".to_string(), 1, t);
        let receivers: Vec<_> = (0..3)
            .map(|_| {
                let (tx, rx) = mpsc::channel();
                pool.shared.table.enter(&key, tx);
                rx
            })
            .collect();
        let failed = ServeError::BadRequest("forward pass failed: injected".into());
        answer(&pool.shared, &key, Err(failed));
        for rx in &receivers {
            assert!(matches!(rx.try_recv(), Ok(Err(ServeError::BadRequest(_)))));
        }
        assert!(pool.shared.table.ready(&key).is_none());
        assert_eq!(metrics.snapshot().errors, 3);

        pool.submit("stgnn", t).recv().unwrap().unwrap();
        assert_eq!(metrics.snapshot().forward_passes, 1);
    }

    /// After shutdown every query is refused, a cached slot included: the
    /// cache-hit path at submit must not outlive the pool.
    #[test]
    fn shutdown_rejects_new_work() {
        let data = dataset();
        let (mut pool, _, _) = pool_with(&data, 2);
        let slots = data.slots(Split::Test);
        let cached = slots[1];
        pool.submit("stgnn", cached).recv().unwrap().unwrap();
        assert_eq!(pool.shared.table.len(), 1);
        pool.shutdown();
        for t in [slots[0], cached] {
            let reply = pool.submit("stgnn", t).recv().unwrap();
            assert!(
                matches!(reply, Err(ServeError::Shutdown)),
                "slot {t}: {reply:?}"
            );
        }
    }
}

//! Micro-batching request queue and worker pool.
//!
//! A query takes the shortest path that can answer it:
//!
//! 1. **Cache hit at submit.** [`WorkerPool::submit`] looks the slot up in
//!    the [`SlotCache`] on the caller's thread and answers a hit there —
//!    no queue lock, no worker, no wait.
//! 2. **Queue.** A miss joins a FIFO queue and wakes one worker.
//! 3. **Same-key drain.** A worker pops the oldest request and takes every
//!    request for the same `(model, slot)` already queued behind it; that
//!    is the whole batch. No timer holds the batch open: requests that
//!    arrive while the workers are busy pile up and leave together.
//! 4. **In-flight wait.** A worker whose key another worker is computing
//!    waits for it, then answers from the cache that worker filled.
//! 5. **One forward.** Otherwise the worker replays the model's compiled
//!    inference plan once, caches the result, and answers the batch.
//!
//! The cache check before computing and the in-flight set (mutex +
//! condvar) bound the work per `(model, version, graph epoch, slot)` key to
//! **one forward pass total**, however many workers race.
//!
//! Models are **thread-confined**: each worker materialises its own
//! [`StgnnDjd`] per registered name, compiles its inference plan against
//! the pool's dataset, and rebuilds both lazily whenever the registry's
//! checkpoint version moves (the hot-swap path).

use crate::cache::{CachedPrediction, SlotCache, SlotKey};
use crate::metrics::ServeMetrics;
use crate::registry::{Checkpoint, ModelEntry, ModelRegistry};
use crate::ServeError;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet, VecDeque};
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

/// One queued prediction query.
pub struct PredictRequest {
    pub model: String,
    pub slot: usize,
    respond: mpsc::Sender<BatchReply>,
}

struct Shared {
    queue: Mutex<VecDeque<PredictRequest>>,
    queue_cv: Condvar,
    /// Set once by [`WorkerPool::shutdown`], while holding `queue`, so a
    /// worker that checks it under that lock cannot miss the wake-up.
    /// `submit` reads it without the lock to refuse cache hits too.
    shutdown: AtomicBool,
    inflight: Mutex<HashSet<SlotKey>>,
    inflight_cv: Condvar,
    registry: Arc<ModelRegistry>,
    cache: Arc<SlotCache>,
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
        cache: Arc<SlotCache>,
        metrics: Arc<ServeMetrics>,
        dataset: Arc<BikeDataset>,
        workers: usize,
    ) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            inflight: Mutex::new(HashSet::new()),
            inflight_cv: Condvar::new(),
            registry,
            cache,
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
    /// cached slot is answered before this returns, on the caller's
    /// thread; anything else is queued for a worker. The caller decides
    /// how long to wait (and what to do on deadline).
    pub fn submit(&self, model: impl Into<String>, slot: usize) -> mpsc::Receiver<BatchReply> {
        let shared = &self.shared;
        let (respond, rx) = mpsc::channel();
        shared.metrics.inc_requests();
        let model = model.into();
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = respond.send(Err(ServeError::Shutdown));
            return rx;
        }
        let hit = shared.registry.get(&model).and_then(|entry| {
            shared
                .cache
                .get(&slot_key(&model, &entry.checkpoint(), slot))
        });
        if let Some(hit) = hit {
            shared.metrics.inc_cache_hits(1);
            let _ = respond.send(Ok(hit));
            return rx;
        }
        let req = PredictRequest {
            model,
            slot,
            respond,
        };
        let mut queue = shared.queue.lock();
        if shared.shutdown.load(Ordering::SeqCst) {
            // sound: allow(S002): UNBOUNDED-SEND-NONBLOCKING — respond is an
            // unbounded mpsc; send() only enqueues, it cannot block while the
            // queue lock is held, and the receiver is the caller of submit.
            let _ = req.respond.send(Err(ServeError::Shutdown));
        } else {
            queue.push_back(req);
            shared.queue_cv.notify_one();
        }
        rx
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

/// Removes the in-flight key and wakes waiters even if the compute path
/// errors out part-way.
struct InflightGuard<'a> {
    shared: &'a Shared,
    key: SlotKey,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.shared.inflight.lock().remove(&self.key);
        self.shared.inflight_cv.notify_all();
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
        let batch = {
            let mut queue = shared.queue.lock();
            let first = loop {
                if let Some(req) = queue.pop_front() {
                    break req;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                shared.queue_cv.wait(&mut queue);
            };
            // The batch is every request for the same key already queued.
            let (same, rest): (VecDeque<_>, VecDeque<_>) = queue
                .drain(..)
                .partition(|req| req.model == first.model && req.slot == first.slot);
            *queue = rest;
            let mut batch = vec![first];
            batch.extend(same);
            batch
        };
        process_batch(shared, &mut local, batch);
    }
}

/// The cache key of `slot` under `model`'s serving `checkpoint`.
fn slot_key(model: &str, checkpoint: &Checkpoint, slot: usize) -> SlotKey {
    (
        model.to_string(),
        checkpoint.version,
        checkpoint.graph_epoch,
        slot,
    )
}

fn respond_all(batch: &[PredictRequest], reply: &BatchReply) {
    for req in batch {
        // The requester may have given up (deadline) — that's fine.
        let _ = req.respond.send(match reply {
            Ok(p) => Ok(Arc::clone(p)),
            Err(e) => Err(clone_err(e)),
        });
    }
}

fn clone_err(e: &ServeError) -> ServeError {
    match e {
        ServeError::UnknownModel(s) => ServeError::UnknownModel(s.clone()),
        ServeError::BadCheckpoint(s) => ServeError::BadCheckpoint(s.clone()),
        ServeError::BadRequest(s) => ServeError::BadRequest(s.clone()),
        ServeError::Shutdown => ServeError::Shutdown,
    }
}

fn process_batch(
    shared: &Shared,
    local: &mut HashMap<String, LocalModel>,
    batch: Vec<PredictRequest>,
) {
    let Some(first_req) = batch.first() else {
        return; // nothing to answer
    };
    let model_name = first_req.model.clone();
    let slot = first_req.slot;
    // Validate the slot at the pool boundary, not just in the HTTP layer:
    // `submit` is a public API, and an out-of-range slot would otherwise
    // reach the input-window assembly and panic inside its arithmetic,
    // killing this worker thread.
    let first = shared.dataset.first_valid_slot();
    let last = shared.dataset.flows().num_slots();
    if slot < first || slot > last {
        for _ in &batch {
            shared.metrics.inc_errors();
        }
        respond_all(
            &batch,
            &Err(ServeError::BadRequest(format!(
                "slot {slot} outside servable range [{first}, {last}]"
            ))),
        );
        return;
    }
    let entry = match shared.registry.get(&model_name) {
        Some(e) => e,
        None => {
            for _ in &batch {
                shared.metrics.inc_errors();
            }
            respond_all(&batch, &Err(ServeError::UnknownModel(model_name)));
            return;
        }
    };
    let checkpoint = entry.checkpoint();
    let key = slot_key(&model_name, &checkpoint, slot);

    // The slot may have been computed since these requests were submitted.
    if let Some(hit) = shared.cache.get(&key) {
        shared.metrics.inc_cache_hits(batch.len() as u64);
        respond_all(&batch, &Ok(hit));
        return;
    }

    // Exactly-once: wait out any concurrent computation of the same key,
    // then re-check the cache it would have filled.
    {
        let mut inflight = shared.inflight.lock();
        while inflight.contains(&key) {
            shared.inflight_cv.wait(&mut inflight);
        }
        if let Some(hit) = shared.cache.get(&key) {
            drop(inflight);
            shared.metrics.inc_cache_hits(batch.len() as u64);
            respond_all(&batch, &Ok(hit));
            return;
        }
        inflight.insert(key.clone());
    }
    let _guard = InflightGuard {
        shared,
        key: key.clone(),
    };

    // Materialise (or version-refresh) this worker's model instance and
    // compile its plan. A version move replaces the whole LocalModel,
    // dropping the old plan with it — the hot-swap invalidation. The old
    // version goes first, so it is not held while the new one compiles.
    let needs_rebuild = local
        .get(&model_name)
        .map(|lm| lm.version != checkpoint.version)
        .unwrap_or(true);
    if needs_rebuild {
        local.remove(&model_name);
        match LocalModel::build(&entry, &checkpoint, &shared.dataset, slot) {
            Ok(lm) => {
                local.insert(model_name.clone(), lm);
            }
            Err(e) => {
                for _ in &batch {
                    shared.metrics.inc_errors();
                }
                respond_all(&batch, &Err(e));
                return;
            }
        }
    }
    let Some(lm) = local.get_mut(&model_name) else {
        // Unreachable: either the entry predated this batch or the rebuild
        // above just inserted it. Reply with an error rather than panic the
        // worker if that invariant ever breaks.
        for _ in &batch {
            shared.metrics.inc_errors();
        }
        respond_all(
            &batch,
            &Err(ServeError::BadCheckpoint(format!(
                "worker lost materialised model '{model_name}'"
            ))),
        );
        return;
    };

    // Defense in depth: a panic in the forward pass (a shape bug the
    // validation above didn't anticipate) must not take the worker thread
    // down with the whole queue behind it.
    let forward = catch_unwind(AssertUnwindSafe(|| {
        // Inside the catch_unwind on purpose: an injected panic here takes
        // the same containment path a real forward-pass panic would.
        stgnn_faults::failpoint!("serve::forward");
        lm.model
            .plan_predict_horizon(&lm.plan, &mut lm.exec, &shared.dataset, slot)
    }));
    let msg = match forward {
        Ok(Ok(p)) => {
            let predictions: CachedPrediction = Arc::new(p);
            shared.cache.insert(key, Arc::clone(&predictions));
            shared.metrics.record_forward(batch.len());
            shared.metrics.inc_batched(batch.len() as u64);
            respond_all(&batch, &Ok(predictions));
            return;
        }
        Ok(Err(e)) => e.to_string(),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "forward pass panicked".into()),
    };
    // A panic or a replay error fails this batch. Drop this worker's model
    // copy — it may be mid-mutation — so the next batch rebuilds it.
    local.remove(&model_name);
    for _ in &batch {
        shared.metrics.inc_errors();
    }
    respond_all(
        &batch,
        &Err(ServeError::BadRequest(format!(
            "forward pass failed: {msg}"
        ))),
    );
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
    ) -> (
        WorkerPool,
        Arc<ModelRegistry>,
        Arc<ServeMetrics>,
        Arc<SlotCache>,
    ) {
        let registry = Arc::new(ModelRegistry::new(Arc::clone(data)));
        let spec = ModelSpec::new(StgnnConfig::test_tiny(6, 2), data.n_stations());
        let bytes = spec.materialize().unwrap().weights_to_bytes();
        registry.register("stgnn", spec, bytes).unwrap();
        let metrics = Arc::new(ServeMetrics::new());
        let cache = Arc::new(SlotCache::new(64));
        let pool = WorkerPool::new(
            Arc::clone(&registry),
            Arc::clone(&cache),
            Arc::clone(&metrics),
            Arc::clone(data),
            workers,
        );
        (pool, registry, metrics, cache)
    }

    #[test]
    fn single_request_round_trips() {
        let data = dataset();
        let (pool, _, metrics, _) = pool_with(&data, 2);
        let t = data.slots(Split::Test)[0];
        let reply = pool.submit("stgnn", t).recv().unwrap().unwrap();
        assert_eq!(reply[0].demand.len(), data.n_stations());
        assert_eq!(metrics.snapshot().forward_passes, 1);
    }

    #[test]
    fn same_slot_requests_share_one_forward_pass() {
        let data = dataset();
        let (pool, _, metrics, _) = pool_with(&data, 2);
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
        let (pool, _, metrics, _) = pool_with(&data, 2);
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
        let (pool, _, metrics, _) = pool_with(&data, 2);
        let slots = data.slots(Split::Test);
        pool.submit("stgnn", slots[0]).recv().unwrap().unwrap();
        pool.submit("stgnn", slots[1]).recv().unwrap().unwrap();
        assert_eq!(metrics.snapshot().forward_passes, 2);
    }

    #[test]
    fn hot_swap_changes_version_and_recomputes() {
        let data = dataset();
        let (pool, registry, metrics, _) = pool_with(&data, 2);
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
        let (pool, _, metrics, _) = pool_with(&data, 1);
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
    /// from a pre-swap cache entry. The cache is keyed by checkpoint
    /// version, so the stale v1 entry may still *exist* — it must simply
    /// never be served.
    #[test]
    fn hot_swap_never_serves_a_stale_cached_prediction() {
        let data = dataset();
        let (pool, registry, _, cache) = pool_with(&data, 2);
        let t = data.slots(Split::Test)[0];
        // Prime the v1 cache entry.
        let v1 = pool.submit("stgnn", t).recv().unwrap().unwrap();
        let v1_key = ("stgnn".to_string(), 1, 1, t);
        assert!(cache.get(&v1_key).is_some(), "v1 entry should be cached");

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
        // The stale entry still sits in the cache under the v1 key — proof
        // that correctness comes from version-keying, not eager deletion.
        assert!(cache.get(&v1_key).is_some());
    }

    /// The graph-epoch staleness regression: a cache keyed only by
    /// (model, version, slot) would satisfy a request from a prediction
    /// computed against pre-refresh FCG/PCG inputs whenever the version
    /// number path is unchanged. Bumping the graph epoch must make every
    /// old entry unreachable and force a recompute, even though version
    /// and weights are identical.
    #[test]
    fn graph_epoch_bump_invalidates_cached_predictions() {
        let data = dataset();
        let (pool, registry, metrics, cache) = pool_with(&data, 2);
        let t = data.slots(Split::Test)[0];

        let first = pool.submit("stgnn", t).recv().unwrap().unwrap();
        let e1_key = ("stgnn".to_string(), 1, 1, t);
        assert!(cache.get(&e1_key).is_some());
        assert_eq!(metrics.snapshot().forward_passes, 1);
        // A repeat hits the cache: no second forward pass.
        pool.submit("stgnn", t).recv().unwrap().unwrap();
        assert_eq!(metrics.snapshot().forward_passes, 1);

        // The online loop refreshed the graph window: same version, same
        // weights, new epoch.
        registry.set_graph_epoch("stgnn", 2).unwrap();
        assert_eq!(registry.get("stgnn").unwrap().version(), 1);

        let after = pool.submit("stgnn", t).recv().unwrap().unwrap();
        assert_eq!(
            metrics.snapshot().forward_passes,
            2,
            "epoch bump must force a recompute, not a cache hit"
        );
        let e2_key = ("stgnn".to_string(), 1, 2, t);
        assert!(
            cache.get(&e2_key).is_some(),
            "recompute cached under new epoch"
        );
        // Identical weights over the same dataset ⇒ same values; the point
        // is *which key* served, not the numbers.
        assert_eq!(first[0], after[0]);
        // The old-epoch entry survives unreachable — correctness comes
        // from epoch-keying, not eager deletion.
        assert!(cache.get(&e1_key).is_some());
    }

    /// The worker's compiled-plan path must serve exactly what an eager
    /// forward on an independently materialised model would — across many
    /// slots, so replay (not just the freshly-traced probe) is what's
    /// checked.
    #[test]
    fn compiled_plan_serves_eager_identical_predictions() {
        let data = dataset();
        let (pool, registry, metrics, _) = pool_with(&data, 2);
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
            Arc::new(SlotCache::new(64)),
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
        let (pool, _, metrics, _) = pool_with(&data, 2);
        let t = data.slots(Split::Test)[0];
        let reply = pool.submit("nope", t).recv().unwrap();
        assert!(matches!(reply, Err(ServeError::UnknownModel(_))));
        assert_eq!(metrics.snapshot().errors, 1);
    }

    /// After shutdown every query is refused, a cached slot included: the
    /// cache-hit path at submit must not outlive the pool.
    #[test]
    fn shutdown_rejects_new_work() {
        let data = dataset();
        let (mut pool, _, _, cache) = pool_with(&data, 2);
        let slots = data.slots(Split::Test);
        let cached = slots[1];
        pool.submit("stgnn", cached).recv().unwrap().unwrap();
        assert_eq!(cache.len(), 1);
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

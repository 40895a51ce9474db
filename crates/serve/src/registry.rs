//! Model registry: named, versioned checkpoints with atomic hot-swap.
//!
//! [`StgnnDjd`] is deliberately not `Send` (its tape uses `Rc`), so the
//! registry never holds a live model. It holds **checkpoints** — the model
//! spec (configuration + station count) plus serialized weights — and each
//! worker thread materialises its own model from the current checkpoint.
//!
//! Hot-swap is a single `RwLock`-guarded pointer swap: a request keeps the
//! `Arc` to the checkpoint it read at submit, later requests pick up the
//! new version, and nothing blocks on the forward pass. A model never
//! issues one version number twice, so `(model, version)` names exactly
//! one set of weights — the serving table's key relies on it.

use crate::ServeError;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use stgnn_analyze::Severity;
use stgnn_core::{StgnnConfig, StgnnDjd};
use stgnn_data::dataset::BikeDataset;

/// What it takes to rebuild a model: its configuration and station count.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    pub config: StgnnConfig,
    pub n_stations: usize,
}

impl ModelSpec {
    pub fn new(config: StgnnConfig, n_stations: usize) -> Self {
        ModelSpec { config, n_stations }
    }

    /// Builds an untrained model instance for this spec.
    pub fn materialize(&self) -> Result<StgnnDjd, ServeError> {
        StgnnDjd::new(self.config.clone(), self.n_stations)
            .map_err(|e| ServeError::BadCheckpoint(format!("spec rejected: {e}")))
    }

    /// Builds a model and loads `checkpoint` into it.
    pub fn materialize_with(&self, checkpoint: &Checkpoint) -> Result<StgnnDjd, ServeError> {
        let mut model = self.materialize()?;
        model
            .load_weights_from_bytes(&checkpoint.bytes)
            .map_err(|e| ServeError::BadCheckpoint(e.to_string()))?;
        Ok(model)
    }
}

/// One immutable, versioned set of serialized weights.
///
/// `graph_epoch` labels the FCG/PCG topology generation the weights were
/// trained against: the online loop stamps it on every promotion and
/// `/models` reports it. No served value depends on it — a server's
/// dataset is fixed when it starts — so it is not part of the serving key.
#[derive(Debug)]
pub struct Checkpoint {
    pub version: u64,
    pub graph_epoch: u64,
    pub bytes: Vec<u8>,
}

/// A registered model: its spec, the serving checkpoint, and — after a
/// swap — a retained handle to the checkpoint it displaced, so a
/// post-promotion watchdog can restore the incumbent bit-identically
/// without re-validating or re-loading anything.
#[derive(Debug)]
pub struct ModelEntry {
    spec: ModelSpec,
    checkpoint: RwLock<Arc<Checkpoint>>,
    /// The checkpoint displaced by the most recent swap (cleared by
    /// rollback so the incumbent cannot be "restored" twice).
    previous: RwLock<Option<Arc<Checkpoint>>>,
    /// When pinned, no path — swap or rollback — may replace the serving
    /// checkpoint.
    pinned: std::sync::atomic::AtomicBool,
    /// The highest version issued; a swap takes the next one, so a
    /// version is never reused, a rolled-back one included.
    issued: std::sync::atomic::AtomicU64,
}

impl ModelEntry {
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The current checkpoint (cheap `Arc` clone; holders keep their
    /// version across concurrent swaps).
    pub fn checkpoint(&self) -> Arc<Checkpoint> {
        self.checkpoint.read().clone()
    }

    /// The current checkpoint version.
    pub fn version(&self) -> u64 {
        self.checkpoint.read().version
    }

    /// The graph-topology epoch of the serving checkpoint.
    pub fn graph_epoch(&self) -> u64 {
        self.checkpoint.read().graph_epoch
    }

    /// The version displaced by the last swap, if rollback is available.
    pub fn previous_version(&self) -> Option<u64> {
        self.previous.read().as_ref().map(|c| c.version)
    }

    /// Whether the serving checkpoint is pinned against replacement.
    pub fn is_pinned(&self) -> bool {
        self.pinned.load(std::sync::atomic::Ordering::SeqCst)
    }
}

/// Thread-safe name → model map.
#[derive(Debug)]
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Arc<ModelEntry>>>,
    /// Every admitted checkpoint is probed with one inference tape on this
    /// dataset and statically validated first.
    probe: Arc<BikeDataset>,
}

impl ModelRegistry {
    /// An empty registry that admits a checkpoint only after tape
    /// validation: [`Self::register`] and [`Self::swap`] trace one
    /// evaluation forward pass of the candidate on `probe`'s first
    /// servable slot and run the static validator over it. A `Deny`
    /// diagnostic (shape mismatch, non-finite weights, fully-masked
    /// attention row) rejects the checkpoint before it can serve a request.
    pub fn new(probe: Arc<BikeDataset>) -> Self {
        ModelRegistry {
            models: RwLock::new(HashMap::new()),
            probe,
        }
    }

    /// Probes `model` (a candidate just materialised from a checkpoint)
    /// against the probe dataset.
    fn validate_candidate(&self, model: &StgnnDjd) -> Result<(), ServeError> {
        let slot = self.probe.first_valid_slot();
        let report = model
            .validate_inference_tape(&self.probe, slot)
            .map_err(|e| ServeError::BadCheckpoint(format!("tape probe failed: {e}")))?;
        if !report.is_clean() {
            let denies: Vec<String> = report.at(Severity::Deny).map(|d| d.to_string()).collect();
            return Err(ServeError::BadCheckpoint(format!(
                "candidate rejected by tape validator ({}): {}",
                report.summary(),
                denies.join("; ")
            )));
        }
        Ok(())
    }

    /// Registers a model under `name` with its initial checkpoint
    /// (version 1). The checkpoint is validated by materialising a model
    /// and loading the weights; registration fails on any mismatch or
    /// corruption rather than deferring the error to serving time.
    ///
    /// Re-registering an existing name is rejected — use [`Self::swap`] to
    /// update weights.
    pub fn register(
        &self,
        name: impl Into<String>,
        spec: ModelSpec,
        bytes: Vec<u8>,
    ) -> Result<(), ServeError> {
        let name = name.into();
        let checkpoint = Checkpoint {
            version: 1,
            graph_epoch: 1,
            bytes,
        };
        let candidate = spec.materialize_with(&checkpoint)?;
        self.validate_candidate(&candidate)?;
        let mut models = self.models.write();
        if models.contains_key(&name) {
            return Err(ServeError::BadRequest(format!(
                "model {name:?} already registered"
            )));
        }
        models.insert(
            name,
            Arc::new(ModelEntry {
                spec,
                checkpoint: RwLock::new(Arc::new(checkpoint)),
                previous: RwLock::new(None),
                pinned: std::sync::atomic::AtomicBool::new(false),
                issued: std::sync::atomic::AtomicU64::new(1),
            }),
        );
        Ok(())
    }

    /// Atomically replaces `name`'s weights under a new version, keeping
    /// the current graph epoch. See [`Self::swap_at_epoch`].
    pub fn swap(&self, name: &str, bytes: Vec<u8>) -> Result<u64, ServeError> {
        let entry = self
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel(name.into()))?;
        let epoch = entry.graph_epoch();
        self.swap_at_epoch(name, bytes, epoch)
    }

    /// Atomically replaces `name`'s weights under a version it never
    /// issued before, stamping the new checkpoint with `graph_epoch` (the
    /// FCG/PCG topology generation it was trained against). The new
    /// checkpoint is validated against the registered spec *before* the
    /// swap; a bad checkpoint leaves the old weights serving. The displaced
    /// checkpoint is retained for [`Self::rollback`]. Returns the new
    /// version.
    pub fn swap_at_epoch(
        &self,
        name: &str,
        bytes: Vec<u8>,
        graph_epoch: u64,
    ) -> Result<u64, ServeError> {
        // An injected fault rejects the swap up front — the same
        // old-weights-keep-serving contract as a corrupt checkpoint.
        if let Some(e) = stgnn_faults::check_io("registry::swap") {
            return Err(ServeError::BadCheckpoint(e.to_string()));
        }
        let entry = self
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel(name.into()))?;
        if entry.is_pinned() {
            return Err(ServeError::BadRequest(format!(
                "model {name:?} is pinned at version {}",
                entry.version()
            )));
        }
        // Validate outside the checkpoint lock: materialisation and the
        // tape probe are the slow part, and in-flight readers must not wait
        // on them.
        let probe = Checkpoint {
            version: 0,
            graph_epoch,
            bytes,
        };
        let candidate = entry.spec.materialize_with(&probe)?;
        self.validate_candidate(&candidate)?;
        let mut slot = entry.checkpoint.write();
        let version = entry
            .issued
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst)
            + 1;
        let displaced = slot.clone();
        *slot = Arc::new(Checkpoint {
            version,
            graph_epoch,
            bytes: probe.bytes,
        });
        // Retain the incumbent under the same write lock: no window where
        // the candidate serves but rollback has nothing to restore.
        *entry.previous.write() = Some(displaced);
        Ok(version)
    }

    /// Restores the checkpoint displaced by the last swap —
    /// bit-identically: the exact `Arc` (version, graph epoch, and bytes)
    /// the incumbent served with goes back into the serving slot, so table
    /// entries keyed under its version become valid again and per-worker
    /// models rebuilt from it are the incumbent's. The retained handle is
    /// cleared: a second rollback without an intervening swap is an error,
    /// not a silent no-op. Returns the restored version.
    pub fn rollback(&self, name: &str) -> Result<u64, ServeError> {
        let entry = self
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel(name.into()))?;
        if entry.is_pinned() {
            return Err(ServeError::BadRequest(format!(
                "model {name:?} is pinned at version {}",
                entry.version()
            )));
        }
        // Take both locks in a fixed order (checkpoint, then previous) so
        // the restore is atomic with respect to concurrent swaps.
        let mut slot = entry.checkpoint.write();
        let mut prev = entry.previous.write();
        let Some(incumbent) = prev.take() else {
            return Err(ServeError::BadRequest(format!(
                "model {name:?} has no retained previous version to roll back to"
            )));
        };
        let version = incumbent.version;
        *slot = incumbent;
        Ok(version)
    }

    /// Pins `name`'s serving checkpoint: swap and rollback are rejected
    /// until [`Self::unpin`]. The online loop pins the incumbent while a
    /// candidate is in its shadow phase so nothing can replace the
    /// comparison baseline mid-gate.
    pub fn pin(&self, name: &str) -> Result<(), ServeError> {
        let entry = self
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel(name.into()))?;
        entry
            .pinned
            .store(true, std::sync::atomic::Ordering::SeqCst);
        Ok(())
    }

    /// Releases a pin set by [`Self::pin`].
    pub fn unpin(&self, name: &str) -> Result<(), ServeError> {
        let entry = self
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel(name.into()))?;
        entry
            .pinned
            .store(false, std::sync::atomic::Ordering::SeqCst);
        Ok(())
    }

    pub fn get(&self, name: &str) -> Option<Arc<ModelEntry>> {
        self.models.read().get(name).cloned()
    }

    /// Registered model names with their current (version, graph epoch),
    /// sorted by name.
    pub fn list(&self) -> Vec<(String, u64, u64)> {
        let mut out: Vec<(String, u64, u64)> = self
            .models
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.version(), v.graph_epoch()))
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgnn_data::dataset::DatasetConfig;
    use stgnn_data::synthetic::{CityConfig, SyntheticCity};

    fn tiny_city() -> CityConfig {
        CityConfig::test_tiny(77)
    }

    fn probe() -> Arc<BikeDataset> {
        let city = SyntheticCity::generate(tiny_city());
        Arc::new(BikeDataset::from_city(&city, DatasetConfig::small(6, 2)).unwrap())
    }

    fn spec() -> ModelSpec {
        ModelSpec::new(StgnnConfig::test_tiny(6, 2), tiny_city().n_stations)
    }

    fn checkpoint_bytes(seed: u64) -> Vec<u8> {
        let mut config = StgnnConfig::test_tiny(6, 2);
        config.seed = seed;
        StgnnDjd::new(config, tiny_city().n_stations)
            .unwrap()
            .weights_to_bytes()
    }

    #[test]
    fn register_validates_and_lists() {
        let reg = ModelRegistry::new(probe());
        reg.register("stgnn", spec(), checkpoint_bytes(1)).unwrap();
        assert_eq!(reg.list(), vec![("stgnn".to_string(), 1, 1)]);
        assert_eq!(reg.get("stgnn").unwrap().version(), 1);
        assert_eq!(reg.get("stgnn").unwrap().graph_epoch(), 1);
        assert!(reg.get("missing").is_none());
    }

    #[test]
    fn register_rejects_corrupt_or_mismatched_checkpoints() {
        let reg = ModelRegistry::new(probe());
        assert!(matches!(
            reg.register("bad", spec(), b"not a checkpoint".to_vec()),
            Err(ServeError::BadCheckpoint(_))
        ));
        // A checkpoint from a different architecture must not register.
        let other = StgnnDjd::new(StgnnConfig::test_tiny(6, 2), 9)
            .unwrap()
            .weights_to_bytes();
        assert!(reg.register("bad", spec(), other).is_err());
        assert!(reg.list().is_empty());
    }

    #[test]
    fn duplicate_registration_rejected() {
        let reg = ModelRegistry::new(probe());
        reg.register("m", spec(), checkpoint_bytes(1)).unwrap();
        assert!(reg.register("m", spec(), checkpoint_bytes(2)).is_err());
    }

    #[test]
    fn swap_bumps_version_and_replaces_bytes() {
        let reg = ModelRegistry::new(probe());
        reg.register("m", spec(), checkpoint_bytes(1)).unwrap();
        let entry = reg.get("m").unwrap();
        let before = entry.checkpoint();
        let v2 = reg.swap("m", checkpoint_bytes(2)).unwrap();
        assert_eq!(v2, 2);
        assert_eq!(entry.version(), 2);
        // The old Arc is still intact for in-flight readers.
        assert_eq!(before.version, 1);
        assert_ne!(before.bytes, entry.checkpoint().bytes);
    }

    #[test]
    fn failed_swap_keeps_old_weights_serving() {
        let reg = ModelRegistry::new(probe());
        reg.register("m", spec(), checkpoint_bytes(1)).unwrap();
        assert!(reg.swap("m", b"garbage".to_vec()).is_err());
        assert_eq!(reg.get("m").unwrap().version(), 1);
        assert!(matches!(
            reg.swap("missing", checkpoint_bytes(1)),
            Err(ServeError::UnknownModel(_))
        ));
    }

    /// The tape-validation gate: a checkpoint whose weights are all finite
    /// (so serialization admits them) but large enough to overflow the
    /// probe forward pass to ±inf must be denied (`A007`) before the swap,
    /// leaving the old weights serving.
    #[test]
    fn tape_validation_rejects_hot_swap_of_degenerate_checkpoint() {
        let data = probe();
        let n = data.n_stations();
        let reg = ModelRegistry::new(Arc::clone(&data));
        let spec = ModelSpec::new(StgnnConfig::test_tiny(6, 2), n);
        let good = StgnnDjd::new(StgnnConfig::test_tiny(6, 2), n)
            .unwrap()
            .weights_to_bytes();
        reg.register("m", spec, good).unwrap();
        assert_eq!(reg.get("m").unwrap().version(), 1);

        let poisoned = StgnnDjd::new(StgnnConfig::test_tiny(6, 2), n).unwrap();
        for p in poisoned.params().params() {
            p.set_value(p.value().mul_scalar(1e20));
        }
        let err = reg.swap("m", poisoned.weights_to_bytes()).unwrap_err();
        let ServeError::BadCheckpoint(msg) = err else {
            panic!("wrong error kind: {err:?}");
        };
        assert!(msg.contains("tape validator"), "{msg}");
        assert!(msg.contains("A007"), "{msg}");
        // The rejected candidate never became visible.
        assert_eq!(reg.get("m").unwrap().version(), 1);
    }

    /// Named invariant: ROLLBACK-IS-BIT-IDENTICAL. The rollback target is
    /// the *same* `Arc<Checkpoint>` the incumbent served with — version,
    /// graph epoch, and weight bytes all restored exactly — and the
    /// retained handle is consumed so rollback cannot fire twice.
    #[test]
    fn rollback_restores_the_displaced_checkpoint_exactly() {
        let reg = ModelRegistry::new(probe());
        reg.register("m", spec(), checkpoint_bytes(1)).unwrap();
        let entry = reg.get("m").unwrap();
        assert_eq!(entry.previous_version(), None);
        let incumbent = entry.checkpoint();

        let v2 = reg.swap_at_epoch("m", checkpoint_bytes(2), 9).unwrap();
        assert_eq!(v2, 2);
        assert_eq!(entry.graph_epoch(), 9);
        assert_eq!(entry.previous_version(), Some(1));

        let restored = reg.rollback("m").unwrap();
        assert_eq!(restored, 1);
        let now = entry.checkpoint();
        assert!(Arc::ptr_eq(&incumbent, &now), "not the same checkpoint");
        assert_eq!(now.version, 1);
        assert_eq!(now.graph_epoch, 1);
        assert_eq!(now.bytes, incumbent.bytes);

        // The handle was consumed: a second rollback is a typed error.
        assert_eq!(entry.previous_version(), None);
        assert!(matches!(reg.rollback("m"), Err(ServeError::BadRequest(_))));
        assert!(matches!(
            reg.rollback("missing"),
            Err(ServeError::UnknownModel(_))
        ));
    }

    #[test]
    fn failed_swap_retains_no_rollback_target() {
        let reg = ModelRegistry::new(probe());
        reg.register("m", spec(), checkpoint_bytes(1)).unwrap();
        assert!(reg.swap("m", b"garbage".to_vec()).is_err());
        // The failed candidate never displaced anything.
        assert_eq!(reg.get("m").unwrap().previous_version(), None);
        assert!(reg.rollback("m").is_err());
    }

    #[test]
    fn pin_blocks_swap_and_rollback_until_unpin() {
        let reg = ModelRegistry::new(probe());
        reg.register("m", spec(), checkpoint_bytes(1)).unwrap();
        reg.swap("m", checkpoint_bytes(2)).unwrap();
        reg.pin("m").unwrap();
        assert!(reg.get("m").unwrap().is_pinned());
        let err = reg.swap("m", checkpoint_bytes(3)).unwrap_err();
        assert!(err.to_string().contains("pinned"), "{err}");
        assert!(reg.rollback("m").is_err());
        assert_eq!(reg.get("m").unwrap().version(), 2);

        reg.unpin("m").unwrap();
        assert_eq!(reg.swap("m", checkpoint_bytes(3)).unwrap(), 3);
        assert_eq!(reg.rollback("m").unwrap(), 2);
        assert!(matches!(reg.pin("nope"), Err(ServeError::UnknownModel(_))));
    }

    #[test]
    fn materialized_models_predict_identically_for_same_checkpoint() {
        let spec = spec();
        let bytes = checkpoint_bytes(7);
        let ck = Checkpoint {
            version: 1,
            graph_epoch: 1,
            bytes,
        };
        let a = spec.materialize_with(&ck).unwrap();
        let b = spec.materialize_with(&ck).unwrap();
        assert!(a.is_trained() && b.is_trained());
        assert_eq!(a.weights_to_bytes(), b.weights_to_bytes());
    }
}

//! The control loop: ingest → refresh → fine-tune → gate → shadow →
//! promote, with watchdog-driven rollback — each seam a named failpoint,
//! each phase persisted before the work that might die in it.
//!
//! ## Crash model
//!
//! The loop may die at any instant (the chaos suite kills it at every
//! `online::*` failpoint in turn). Recovery rests on three grounds:
//!
//! 1. **The registry is ground truth for what serves.** Hot-swap and
//!    rollback are atomic pointer swaps; a crash can lose the *loop's
//!    memory* of a swap, never half of one.
//! 2. **The state file is ground truth for loop progress**, written with
//!    `fsio::atomic_write` *after* the action it records (swap first, then
//!    persist `Promoted`) so it never claims more than happened.
//! 3. **Ingestion is replayable.** Trips come from a seeded deterministic
//!    source, and the window's flows are the aggregation of its buffered
//!    days; `day_cursor` in the state file is enough to rebuild the window
//!    bit-identically.
//!
//! Reconciling 1 against 2 on restart yields a well-defined resume state
//! for every crash window; see [`OnlineLoop::new`].

use crate::gate::{self, GateConfig, GateReport};
use crate::state::{LoopState, Phase};
use crate::watchdog::{Verdict, Watchdog, WatchdogConfig};
use crate::window::TripWindow;
use crate::{OnlineError, Result};
use std::path::PathBuf;
use std::sync::Arc;
use stgnn_core::{StgnnConfig, StgnnDjd, Trainer};
use stgnn_data::dataset::{BikeDataset, DatasetConfig};
use stgnn_data::station::StationRegistry;
use stgnn_data::synthetic::SyntheticCity;
use stgnn_data::trip::TripRecord;
use stgnn_faults::failpoint;
use stgnn_serve::registry::{Checkpoint, ModelEntry, ModelRegistry};
use stgnn_serve::MetricsSnapshot;

/// Minutes per day (trip timestamps are absolute minutes).
const MINUTES_PER_DAY: i64 = 24 * 60;

/// Static configuration of the loop.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Registry name of the model the loop maintains.
    pub model_name: String,
    /// Whole days the sliding window covers (must satisfy the dataset
    /// config's split/window requirements).
    pub window_days: usize,
    /// Windowing/split settings for the per-cycle fine-tune dataset.
    pub dataset: DatasetConfig,
    /// Fine-tune hyperparameters (typically few epochs, capped batches).
    pub train: StgnnConfig,
    /// Promotion-gate thresholds.
    pub gate: GateConfig,
    /// Post-promotion watchdog budgets.
    pub watchdog: WatchdogConfig,
    /// Where the loop's phase machine is persisted.
    pub state_path: PathBuf,
    /// Unread: the fine-tune writes and reads no training checkpoint. Kept
    /// because the repository benchmark sets it.
    pub checkpoint_path: PathBuf,
    /// Unread, like `checkpoint_path`.
    pub checkpoint_every: usize,
}

/// What one [`OnlineLoop::run_cycle`] (or watchdog check) concluded.
#[derive(Debug)]
pub enum CycleOutcome {
    /// The window is not yet full; ingestion continues.
    WindowFilling {
        days_buffered: usize,
        window_days: usize,
    },
    /// A gate stage rejected the candidate; the incumbent keeps serving.
    Rejected { stage: &'static str, reason: String },
    /// The candidate was hot-swapped into the registry.
    Promoted {
        version: u64,
        gate: GateReport,
        shadow: GateReport,
    },
    /// Watchdogs found the promoted candidate healthy.
    Healthy,
    /// A watchdog fired; the incumbent was restored.
    RolledBack { restored: u64, reason: String },
}

/// The crash-safe train-while-serving loop.
pub struct OnlineLoop {
    config: OnlineConfig,
    registry: Arc<ModelRegistry>,
    stations: StationRegistry,
    /// Seeded synthetic trip stream, bucketed by absolute day.
    trips_by_day: Vec<Vec<TripRecord>>,
    window: TripWindow,
    state: LoopState,
    resumed_from: Option<Phase>,
}

impl OnlineLoop {
    /// Builds the loop over a deterministic trip source and the serve
    /// registry, recovering from a persisted state if one exists.
    ///
    /// Recovery reconciliation (state file × registry):
    ///
    /// | persisted phase     | registry observation      | resume state |
    /// |---------------------|---------------------------|--------------|
    /// | *(no file)*         | —                         | fresh `Ingesting` |
    /// | Ingesting/Training/ | any                       | `Ingesting`; serving version adopted as incumbent (covers a swap that raced the crash) |
    /// | Shadowing           |                           |              |
    /// | Promoted            | version == candidate      | `Promoted` (watchdogs re-armable) |
    /// | Promoted            | version != candidate      | `RolledBack` (the only path that moves the registry off a promoted candidate) |
    /// | RolledBack          | any                       | `RolledBack` |
    ///
    /// The window is rebuilt by replaying the trip source up to the
    /// persisted `day_cursor`; any pin orphaned by a crash mid-shadow is
    /// released.
    pub fn new(
        config: OnlineConfig,
        registry: Arc<ModelRegistry>,
        source: &SyntheticCity,
    ) -> Result<Self> {
        let entry = registry
            .get(&config.model_name)
            .ok_or_else(|| stgnn_serve::ServeError::UnknownModel(config.model_name.clone()))?;

        let mut trips_by_day: Vec<Vec<TripRecord>> = vec![Vec::new(); source.config.days];
        for trip in &source.trips {
            let day = trip.start_min.div_euclid(MINUTES_PER_DAY);
            if let Some(bucket) = usize::try_from(day)
                .ok()
                .and_then(|d| trips_by_day.get_mut(d))
            {
                bucket.push(*trip);
            }
        }

        let loaded = LoopState::load(&config.state_path)?;
        let resumed_from = loaded.as_ref().map(|s| s.phase);
        let mut state = loaded.unwrap_or_else(LoopState::fresh);

        // A crash between pin and unpin (mid-shadow) must not wedge the
        // registry; no phase legitimately holds a pin across a restart.
        registry.unpin(&config.model_name)?;

        // Replay ingestion up to the persisted cursor: deterministic in
        // the source seed, so the window contents are bit-identical to the
        // pre-crash window.
        let mut window = TripWindow::new(
            source.registry.len(),
            config.window_days,
            source.config.slots_per_day,
        )?;
        for day in 0..state.day_cursor {
            window.push_day(trips_by_day.get(day).map(Vec::as_slice).unwrap_or_default());
        }
        window.restore_graph_epoch(state.graph_epoch);
        state.graph_epoch = window.graph_epoch();

        // Reconcile the phase machine against the registry (ground truth
        // for what serves — see module docs).
        let reg_version = entry.version();
        match state.phase {
            Phase::Ingesting | Phase::Training | Phase::Shadowing => {
                state.phase = Phase::Ingesting;
                state.candidate_version = None;
                state.incumbent_version = reg_version;
            }
            Phase::Promoted => {
                if state.candidate_version != Some(reg_version) {
                    // Promoted was persisted, so the swap happened; the
                    // registry having moved off the candidate means a
                    // rollback fired whose own persist was lost.
                    state.phase = Phase::RolledBack;
                    state.candidate_version = None;
                    state.incumbent_version = reg_version;
                }
            }
            Phase::RolledBack => {
                state.candidate_version = None;
                state.incumbent_version = reg_version;
            }
        }

        let stations = source.registry.clone();
        let this = OnlineLoop {
            config,
            registry,
            stations,
            trips_by_day,
            window,
            state,
            resumed_from,
        };
        this.persist()?;
        Ok(this)
    }

    /// The phase the persisted state file recorded at construction, if a
    /// file existed — what the loop *resumed from* (its current phase is
    /// the reconciled one; see [`Self::new`]).
    pub fn resumed_from(&self) -> Option<Phase> {
        self.resumed_from
    }

    /// The loop's current (reconciled, persisted) state.
    pub fn state(&self) -> &LoopState {
        &self.state
    }

    /// The ingestion window.
    pub fn window(&self) -> &TripWindow {
        &self.window
    }

    fn entry(&self) -> Result<Arc<ModelEntry>> {
        Ok(self
            .registry
            .get(&self.config.model_name)
            .ok_or_else(|| stgnn_serve::ServeError::UnknownModel(self.config.model_name.clone()))?)
    }

    fn persist(&self) -> Result<()> {
        self.state.save(&self.config.state_path)
    }

    fn transition(&mut self, phase: Phase) -> Result<()> {
        self.state.phase = phase;
        self.persist()
    }

    /// One full cycle: ingest a day into the window (which re-aggregates
    /// its flows), and — once the window is full — fine-tune, gate, shadow
    /// and promote a candidate. Returns what happened; promotion leaves the
    /// loop in `Promoted` awaiting [`Self::check_watchdogs`].
    pub fn run_cycle(&mut self) -> Result<CycleOutcome> {
        // ---- ingest ------------------------------------------------
        self.state.candidate_version = None;
        self.transition(Phase::Ingesting)?;
        failpoint!("online::ingest", io);
        let day = self.state.day_cursor;
        self.window.push_day(
            self.trips_by_day
                .get(day)
                .map(Vec::as_slice)
                .unwrap_or_default(),
        );
        self.state.day_cursor += 1;
        self.state.graph_epoch = self.window.graph_epoch();

        // ---- refresh -----------------------------------------------
        // `push_day` re-aggregated the FCG/PCG inputs; persist the
        // advanced cursor and epoch before anything trains on them.
        failpoint!("online::refresh", io);
        self.persist()?;

        if !self.window.is_full() {
            return Ok(CycleOutcome::WindowFilling {
                days_buffered: self.window.days_buffered(),
                window_days: self.config.window_days,
            });
        }
        let dataset = BikeDataset::new(
            self.window.flows().clone(),
            self.stations.clone(),
            self.config.dataset.clone(),
        )?;

        // ---- fine-tune ---------------------------------------------
        self.transition(Phase::Training)?;
        failpoint!("online::finetune", io);
        let entry = self.entry()?;
        let incumbent_ck = entry.checkpoint();
        let incumbent = entry.spec().materialize_with(&incumbent_ck)?;
        let candidate = self.fine_tune(&entry, &incumbent_ck, &dataset)?;

        // ---- gate: validator + holdout -----------------------------
        failpoint!("online::gate", io);
        let gate_report = gate::static_gate(&candidate, &incumbent, &dataset, &self.config.gate)?;
        if !gate_report.passed() {
            return self.reject(gate_report);
        }

        // ---- shadow ------------------------------------------------
        self.transition(Phase::Shadowing)?;
        failpoint!("online::shadow", io);
        // Pin the incumbent for the mirrored comparison: nothing may
        // replace the baseline mid-gate. (Recovery releases the pin if a
        // crash lands here.)
        self.registry.pin(&self.config.model_name)?;
        let shadow = gate::shadow_compare(&candidate, &incumbent, &dataset, &self.config.gate);
        self.registry.unpin(&self.config.model_name)?;
        if !shadow.passed() {
            return self.reject(shadow);
        }

        // ---- promote -----------------------------------------------
        // Crash windows: before the swap → state says Shadowing, the
        // incumbent serves, recovery restarts the cycle; after the swap
        // but before the persist → the registry moved, recovery adopts
        // the served version as incumbent. Never a torn registry.
        failpoint!("online::promote", io);
        let version = self.registry.swap_at_epoch(
            &self.config.model_name,
            candidate.weights_to_bytes(),
            self.state.graph_epoch,
        )?;
        self.state.candidate_version = Some(version);
        self.state.cycle += 1;
        self.transition(Phase::Promoted)?;
        Ok(CycleOutcome::Promoted {
            version,
            gate: gate_report,
            shadow,
        })
    }

    /// Fine-tunes a candidate from the incumbent's weights with a fresh
    /// optimizer. It writes no training checkpoint and reads none: a crash
    /// mid-fine-tune is recovered by the loop's own state machine, which
    /// resumes to `Ingesting` (see [`Self::new`]).
    fn fine_tune(
        &self,
        entry: &ModelEntry,
        incumbent_ck: &Checkpoint,
        data: &BikeDataset,
    ) -> Result<StgnnDjd> {
        let mut model = entry.spec().materialize_with(incumbent_ck)?;
        Trainer::new(self.config.train.clone())
            .train(&mut model, data)
            .map_err(OnlineError::Data)?;
        Ok(model)
    }

    fn reject(&mut self, report: GateReport) -> Result<CycleOutcome> {
        let stage = report.stage;
        let reason = report
            .rejection
            .unwrap_or_else(|| "rejected without a reason".into());
        self.state.candidate_version = None;
        self.state.cycle += 1;
        self.transition(Phase::Ingesting)?;
        Ok(CycleOutcome::Rejected { stage, reason })
    }

    /// Post-promotion watchdog pass. `baseline` is the serve-metrics
    /// snapshot taken at promotion time, `now` the current one;
    /// `live_rmse`/`incumbent_rmse` are live measurements of the promoted
    /// model and the retained incumbent over the same post-promotion
    /// traffic. Any tripped budget rolls the registry back to the
    /// incumbent — bit-identically — and persists `RolledBack`.
    pub fn check_watchdogs(
        &mut self,
        baseline: &MetricsSnapshot,
        now: &MetricsSnapshot,
        live_rmse: f32,
        incumbent_rmse: f32,
    ) -> Result<CycleOutcome> {
        if self.state.phase != Phase::Promoted {
            return Err(OnlineError::BadPhase(format!(
                "watchdogs only run in the promoted phase (loop is {})",
                self.state.phase
            )));
        }
        let dog = Watchdog::arm(self.config.watchdog.clone(), baseline.clone());
        let verdict = match dog.check_metrics(now) {
            Verdict::Healthy => dog.check_rmse(live_rmse, incumbent_rmse),
            rollback => rollback,
        };
        match verdict {
            Verdict::Healthy => Ok(CycleOutcome::Healthy),
            Verdict::RollBack(reason) => self.roll_back(reason),
        }
    }

    /// Restores the incumbent from the registry's retained handle and
    /// persists the `RolledBack` phase. The swap is atomic: requests keep
    /// being served throughout, first by the candidate, then — same
    /// version, same weights, same predictions as before promotion — by
    /// the restored incumbent.
    fn roll_back(&mut self, reason: String) -> Result<CycleOutcome> {
        failpoint!("online::rollback", io);
        let restored = self.registry.rollback(&self.config.model_name)?;
        self.state.candidate_version = None;
        self.state.incumbent_version = restored;
        self.transition(Phase::RolledBack)?;
        Ok(CycleOutcome::RolledBack { restored, reason })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgnn_data::synthetic::CityConfig;
    use stgnn_data::FlowSeries;

    fn no_faults() -> stgnn_faults::ScopedPlan {
        stgnn_faults::scoped(stgnn_faults::FaultPlan::new())
    }

    fn city(seed: u64) -> SyntheticCity {
        let mut config = CityConfig::test_tiny(seed);
        config.days = 12;
        SyntheticCity::generate(config)
    }

    fn train_config() -> StgnnConfig {
        let mut config = StgnnConfig::test_tiny(6, 2);
        config.epochs = 2;
        config.max_batches_per_epoch = Some(4);
        config
    }

    fn paths(label: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "stgnn-online-driver-{}-{label}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let _ = std::fs::remove_file(dir.join("loop.state"));
        let _ = std::fs::remove_file(dir.join("finetune.ckpt"));
        (dir.join("loop.state"), dir.join("finetune.ckpt"))
    }

    fn fixture(label: &str, seed: u64) -> (OnlineConfig, Arc<ModelRegistry>, SyntheticCity) {
        let source = city(seed);
        let probe = BikeDataset::from_city(&source, DatasetConfig::small(6, 2)).unwrap();
        let registry = Arc::new(ModelRegistry::new(Arc::new(probe)));
        let spec = stgnn_serve::ModelSpec::new(train_config(), source.registry.len());
        let initial = StgnnDjd::new(train_config(), source.registry.len())
            .unwrap()
            .weights_to_bytes();
        registry.register("stgnn", spec, initial).unwrap();
        let (state_path, checkpoint_path) = paths(label);
        let config = OnlineConfig {
            model_name: "stgnn".into(),
            window_days: 8,
            dataset: DatasetConfig::small(6, 2),
            train: train_config(),
            gate: GateConfig::default(),
            watchdog: WatchdogConfig::default(),
            state_path,
            checkpoint_path,
            checkpoint_every: 8,
        };
        (config, registry, source)
    }

    fn idle_metrics() -> MetricsSnapshot {
        MetricsSnapshot {
            requests: 0,
            cache_hits: 0,
            batched: 0,
            forward_passes: 0,
            fallbacks: 0,
            errors: 0,
            swaps: 0,
            shed: 0,
            queue_depth: 0,
            batch_hist: Vec::new(),
            latency_p50_us: 0,
            latency_p99_us: 0,
        }
    }

    /// The whole loop, end to end: fill the window, fine-tune, pass the
    /// gate, promote, survive healthy watchdogs, then roll back on an
    /// injected live-RMSE regression — with the state machine persisted at
    /// every step.
    #[test]
    fn full_cycle_promotes_then_watchdog_rolls_back() {
        let _quiet = no_faults();
        let (config, registry, source) = fixture("full", 71);
        let state_path = config.state_path.clone();
        let mut looper = OnlineLoop::new(config, Arc::clone(&registry), &source).unwrap();
        assert!(looper.resumed_from().is_none());

        // Seven filling days.
        for day in 0..7 {
            match looper.run_cycle().unwrap() {
                CycleOutcome::WindowFilling { days_buffered, .. } => {
                    assert_eq!(days_buffered, day + 1)
                }
                other => panic!("day {day}: expected filling, got {other:?}"),
            }
        }
        // Day 8 fills the window: the first real train/gate/promote run.
        let outcome = looper.run_cycle().unwrap();
        let promoted_version = match outcome {
            CycleOutcome::Promoted {
                version,
                ref gate,
                ref shadow,
            } => {
                assert!(gate.passed() && shadow.passed());
                assert!(gate.slots > 0 && shadow.slots > 0);
                version
            }
            // A fine-tune that fails its relative gate is a legitimate
            // (deterministic) outcome only if the candidate regressed —
            // with an untrained incumbent it must not happen.
            other => panic!("expected promotion over untrained incumbent, got {other:?}"),
        };
        assert_eq!(promoted_version, 2);
        assert_eq!(registry.get("stgnn").unwrap().version(), 2);
        assert_eq!(looper.state().phase, Phase::Promoted);
        let persisted = LoopState::load(&state_path).unwrap().unwrap();
        assert_eq!(persisted.phase, Phase::Promoted);
        assert_eq!(persisted.candidate_version, Some(2));

        // Healthy watchdogs keep the candidate.
        let healthy = looper
            .check_watchdogs(&idle_metrics(), &idle_metrics(), 1.0, 1.0)
            .unwrap();
        assert!(matches!(healthy, CycleOutcome::Healthy));
        assert_eq!(registry.get("stgnn").unwrap().version(), 2);

        // An injected live-RMSE regression trips the watchdog: the
        // incumbent (version 1) is restored bit-identically.
        let before = registry.get("stgnn").unwrap();
        let outcome = looper
            .check_watchdogs(&idle_metrics(), &idle_metrics(), 10.0, 1.0)
            .unwrap();
        match outcome {
            CycleOutcome::RolledBack { restored, reason } => {
                assert_eq!(restored, 1);
                assert!(reason.contains("RMSE watchdog"), "{reason}");
            }
            other => panic!("expected rollback, got {other:?}"),
        }
        assert_eq!(before.version(), 1);
        assert_eq!(looper.state().phase, Phase::RolledBack);
        assert_eq!(
            LoopState::load(&state_path).unwrap().unwrap().phase,
            Phase::RolledBack
        );

        // Watchdogs outside the promoted phase are a typed phase error.
        let err = looper
            .check_watchdogs(&idle_metrics(), &idle_metrics(), 1.0, 1.0)
            .unwrap_err();
        assert!(matches!(err, OnlineError::BadPhase(_)), "{err}");
    }

    /// A flow series as words, in slot order: each direction's entry
    /// count and entries, then demand and supply as exact bit patterns.
    fn bits_of(flows: &FlowSeries) -> Vec<u32> {
        let mut bits = Vec::new();
        for t in 0..flows.num_slots() {
            for entries in [flows.inflow(t), flows.outflow(t)] {
                bits.push(entries.len() as u32);
                bits.extend(entries.iter().flat_map(|e| [e.origin, e.dest, e.count]));
            }
            bits.extend(flows.demand_at(t).iter().map(|v| v.to_bits()));
            bits.extend(flows.supply_at(t).iter().map(|v| v.to_bits()));
        }
        bits
    }

    /// Restarting from a persisted mid-cycle state resumes to the named
    /// `Ingesting` state with the window replayed bit-identically — and
    /// that window, two slides in, is the aggregation of exactly the last
    /// `window_days` days of the source.
    #[test]
    fn restart_mid_cycle_resumes_to_ingesting_with_identical_window() {
        let _quiet = no_faults();
        let (config, registry, source) = fixture("restart", 72);
        let mut looper = OnlineLoop::new(config.clone(), Arc::clone(&registry), &source).unwrap();
        for _ in 0..10 {
            looper.run_cycle().unwrap();
        }
        let window_before = bits_of(looper.window().flows());
        let cursor = looper.state().day_cursor;
        // Simulate a crash in the training phase: persist the phase the
        // loop would have been in, then abandon the instance.
        looper.transition(Phase::Training).unwrap();
        drop(looper);

        let revived = OnlineLoop::new(config.clone(), registry, &source).unwrap();
        assert_eq!(revived.resumed_from(), Some(Phase::Training));
        assert_eq!(revived.state().phase, Phase::Ingesting);
        assert_eq!(revived.state().day_cursor, cursor);
        assert_eq!(
            bits_of(revived.window().flows()),
            window_before,
            "replayed window must be bit-identical"
        );

        let first = cursor - config.window_days;
        let offset = first as i64 * MINUTES_PER_DAY;
        let last_days: Vec<TripRecord> = source
            .trips
            .iter()
            .filter(|t| {
                (first as i64..cursor as i64).contains(&t.start_min.div_euclid(MINUTES_PER_DAY))
            })
            .map(|t| TripRecord {
                start_min: t.start_min - offset,
                end_min: t.end_min - offset,
                ..*t
            })
            .collect();
        let expected = FlowSeries::from_trips(
            &last_days,
            source.registry.len(),
            config.window_days,
            source.config.slots_per_day,
        )
        .unwrap();
        assert_eq!(bits_of(revived.window().flows()), bits_of(&expected));
    }
}

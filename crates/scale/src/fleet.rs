//! The fleet router: consistent-hash routing, admission control, and
//! degrade-don't-fail failover over in-process `stgnn-serve` replicas.
//!
//! A [`Fleet`] owns N running [`stgnn_serve::Server`] instances, each
//! holding the whole city and the same checkpoint, and routes every
//! `(station, slot)` prediction through three gates:
//!
//! 1. **Route** — a slot outside the servable range is refused here with
//!    the replica's own 400, whatever the load; otherwise the station's
//!    point on the [`crate::ring::HashRing`] picks the home replica, and
//!    the ring's candidate walk is the failover order. Failpoint:
//!    `scale::route`.
//! 2. **Admit** — the replica's in-flight gauge
//!    ([`stgnn_serve::ServeMetrics::queue_enter`]) is bumped; if the depth
//!    exceeds `queue_capacity` the request is **shed**: answered
//!    immediately from the router's Historical-Average table (`degraded`,
//!    `"source":"shed-ha"`), counted in `serve_shed_total` on the replica's
//!    `/metrics`. Shedding answers rather than erroring — overload degrades
//!    accuracy, never availability. Failpoint: `scale::admit`.
//! 3. **Dispatch** — an HTTP GET to the replica. An I/O failure marks the
//!    replica down and the walk moves to the next candidate; when every
//!    candidate is down the router itself answers from HA
//!    (`"source":"loss-ha"`). The router never fabricates a 5xx.
//!    Failpoint: `scale::dispatch`.
//!
//! Replicas share the process but communicate only over TCP, so
//! [`Fleet::crash`] (drop the `Server`: port closes, in-flight handlers
//! complete) exercises real replica loss — the chaos scenario
//! REPLICA-LOSS-DEGRADES-NOT-FAILS in `tests/scale_fleet.rs` pins that a
//! mid-run crash never tears a response and never surfaces a 5xx.

use crate::ring::HashRing;
use crate::ScaleError;
use parking_lot::Mutex;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;
use stgnn_baselines::ha::HistoricalAverage;
use stgnn_data::dataset::BikeDataset;
use stgnn_data::predictor::{DemandSupplyPredictor, Prediction};
use stgnn_faults::failpoint;
use stgnn_serve::client::{self, ClientConfig, Response};
use stgnn_serve::{ModelSpec, ServeConfig, ServeMetrics, Server};

/// Fleet tuning knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Virtual nodes per replica on the hash ring.
    pub vnodes: usize,
    /// Admission bound: router-tracked in-flight requests per replica
    /// before new arrivals are shed to the HA fallback.
    pub queue_capacity: u64,
    /// Per-request deadline forwarded to the replica (`deadline_ms=`).
    pub deadline_ms: u64,
    /// Configuration for each replica's server.
    pub serve: ServeConfig,
    /// HTTP client policy for dispatches. Keep attempts low: the ring walk,
    /// not the client retry loop, is the failover mechanism.
    pub client: ClientConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            vnodes: 64,
            queue_capacity: 32,
            deadline_ms: 250,
            serve: ServeConfig::default(),
            client: ClientConfig {
                attempts: 2,
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(50),
                read_timeout: Duration::from_secs(5),
                jitter_seed: 0x5ca1e,
            },
        }
    }
}

/// How a prediction was ultimately answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// A replica's model forward pass.
    Model,
    /// A replica answered, but from its own deadline-missed HA fallback.
    ReplicaHa,
    /// The router shed the request at admission (queue over capacity).
    ShedHa,
    /// Every candidate replica was down; the router answered from HA.
    LossHa,
    /// The request was refused: the router's slot check, or a non-200 a
    /// replica returned, passed through verbatim.
    Error,
}

/// One routed prediction: the HTTP-equivalent status/body plus routing
/// provenance.
#[derive(Debug, Clone)]
pub struct PredictOutcome {
    /// HTTP status (200 for every degraded path — degradation is not an
    /// error).
    pub status: u16,
    /// JSON body, schema-compatible with the single-server `/predict`.
    pub body: String,
    /// Provenance of the answer.
    pub source: Answer,
    /// Fleet replica index that answered, when one did.
    pub replica: Option<usize>,
}

/// Monotonic fleet counters (all relaxed; read via the getters).
#[derive(Debug, Default)]
pub struct FleetStats {
    dispatched: AtomicU64,
    sheds: AtomicU64,
    failovers: AtomicU64,
    loss_ha: AtomicU64,
    refused: AtomicU64,
}

impl FleetStats {
    /// Requests answered by a replica (model or replica-side fallback).
    pub fn dispatched(&self) -> u64 {
        self.dispatched.load(Relaxed)
    }

    /// Requests shed at admission.
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Relaxed)
    }

    /// Candidate replicas marked down during routing walks.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Relaxed)
    }

    /// Requests answered by the router's own HA table (all replicas down).
    pub fn loss_ha(&self) -> u64 {
        self.loss_ha.load(Relaxed)
    }

    /// Requests the router refused before admission with a 400, for a
    /// slot outside the servable range. No replica sees them, so no
    /// replica's `serve_errors_total` counts them.
    pub fn refused(&self) -> u64 {
        self.refused.load(Relaxed)
    }
}

/// One running replica. The server is behind a mutex so [`Fleet::crash`]
/// can take and drop it; `down` is set by the *router* when a dispatch
/// fails — discovery, not decree.
struct ReplicaHandle {
    addr: SocketAddr,
    metrics: Arc<ServeMetrics>,
    server: Mutex<Option<Server>>,
    down: AtomicBool,
}

/// A fleet of in-process serving replicas behind a consistent-hash router.
pub struct Fleet {
    replicas: Vec<ReplicaHandle>,
    /// The city every replica serves: backs the router's slot check and
    /// its HA answers.
    dataset: Arc<BikeDataset>,
    /// Fitted HA table for shed/loss answers.
    ha: HistoricalAverage,
    /// Ring over the replica names; a ring index is a replica index.
    ring: HashRing,
    queue_capacity: u64,
    deadline_ms: u64,
    client: ClientConfig,
    stats: FleetStats,
}

impl Fleet {
    /// `n_replicas` servers, each holding the full dataset and the same
    /// checkpoint, behind one ring. Any replica can answer any station, so
    /// this is the availability/throughput axis.
    pub fn replicated(
        dataset: Arc<BikeDataset>,
        spec: &ModelSpec,
        weights: &[u8],
        n_replicas: usize,
        config: &FleetConfig,
    ) -> Result<Fleet, ScaleError> {
        if n_replicas == 0 {
            return Err(ScaleError::InvalidConfig("fleet of zero replicas".into()));
        }
        let mut replicas = Vec::with_capacity(n_replicas);
        let mut names = Vec::with_capacity(n_replicas);
        for r in 0..n_replicas {
            let handle = boot_replica(Arc::clone(&dataset), spec, weights, &config.serve)?;
            replicas.push(handle);
            names.push(format!("replica-{r}"));
        }
        let mut ha = HistoricalAverage::new();
        ha.fit(&dataset)
            .map_err(|e| ScaleError::Data(format!("HA fit: {e}")))?;
        Ok(Fleet {
            replicas,
            dataset,
            ha,
            ring: HashRing::new(&names, config.vnodes),
            queue_capacity: config.queue_capacity,
            deadline_ms: config.deadline_ms,
            client: config.client.clone(),
            stats: FleetStats::default(),
        })
    }

    /// Routes one prediction through route → admit → dispatch (module
    /// docs). Always produces an answer unless `station` is out of range;
    /// for a slot outside `[first_valid_slot, num_slots]` it is the
    /// replica's 400.
    pub fn predict(&self, station: usize, slot: usize) -> Result<PredictOutcome, ScaleError> {
        failpoint!("scale::route");
        if station >= self.n_stations() {
            return Err(ScaleError::InvalidConfig(format!(
                "station {station} outside the fleet's {} stations",
                self.n_stations()
            )));
        }
        // The replica's own range check, answered the same way here so the
        // verdict does not depend on whether the request was shed, lost or
        // dispatched.
        if let Err(msg) = self.dataset.check_servable(slot) {
            self.stats.refused.fetch_add(1, Relaxed);
            return Ok(PredictOutcome {
                status: 400,
                body: format!(r#"{{"error":"{msg}"}}"#),
                source: Answer::Error,
                replica: None,
            });
        }
        let path = format!(
            "/predict?model=stgnn&slot={slot}&station={station}&deadline_ms={}",
            self.deadline_ms
        );

        for ridx in self.ring.candidates(station) {
            let Some(replica) = self.replicas.get(ridx) else {
                continue;
            };
            if replica.down.load(Relaxed) {
                continue;
            }
            failpoint!("scale::admit");
            // Admission: the gauge counts router-dispatched in-flight
            // requests; over capacity we shed *now* instead of queueing —
            // pushing overload onto the next replica would just cascade it.
            let depth = replica.metrics.queue_enter();
            if depth > self.queue_capacity {
                replica.metrics.queue_leave();
                replica.metrics.inc_shed();
                self.stats.sheds.fetch_add(1, Relaxed);
                return Ok(self.ha_outcome(station, slot, Answer::ShedHa));
            }
            let result = dispatch(replica.addr, &path, &self.client);
            replica.metrics.queue_leave();
            match result {
                Ok(resp) if resp.status == 200 => {
                    self.stats.dispatched.fetch_add(1, Relaxed);
                    let source = resp.json_field("source").unwrap_or_default();
                    let answer = if source.contains("fallback") {
                        Answer::ReplicaHa
                    } else {
                        Answer::Model
                    };
                    return Ok(PredictOutcome {
                        status: 200,
                        body: resp.body,
                        source: answer,
                        replica: Some(ridx),
                    });
                }
                Ok(resp) => {
                    // A live replica rejected the request (model gone):
                    // pass its verdict through, don't mask it as HA.
                    return Ok(PredictOutcome {
                        status: resp.status,
                        body: resp.body,
                        source: Answer::Error,
                        replica: Some(ridx),
                    });
                }
                Err(_) => {
                    // Dispatch failed: the replica is unreachable. Mark it
                    // down and keep walking the ring.
                    replica.down.store(true, Relaxed);
                    self.stats.failovers.fetch_add(1, Relaxed);
                }
            }
        }
        // Every candidate down: the router is the last line of defence.
        self.stats.loss_ha.fetch_add(1, Relaxed);
        Ok(self.ha_outcome(station, slot, Answer::LossHa))
    }

    /// An HA answer in the single-server response schema, tagged with its
    /// degradation source.
    fn ha_outcome(&self, station: usize, slot: usize, source: Answer) -> PredictOutcome {
        let tag = match source {
            Answer::ShedHa => "shed-ha",
            Answer::LossHa => "loss-ha",
            _ => "fallback-ha",
        };
        let pred: Prediction = self.ha.predict(&self.dataset, slot);
        let demand = pred.demand.get(station).copied().unwrap_or(0.0);
        let supply = pred.supply.get(station).copied().unwrap_or(0.0);
        PredictOutcome {
            status: 200,
            body: format!(
                r#"{{"model":"stgnn","slot":{slot},"station":{station},"demand":{demand},"supply":{supply},"degraded":true,"source":"{tag}","latency_us":0}}"#
            ),
            source,
            replica: None,
        }
    }

    /// Crash replica `idx`: takes the server out of its slot and drops it.
    /// The port closes and new connections are refused, but in-flight
    /// handlers run to completion — a crash never tears a response. The
    /// router discovers the loss on its next dispatch.
    pub fn crash(&self, idx: usize) {
        if let Some(replica) = self.replicas.get(idx) {
            let server = replica.server.lock().take();
            drop(server);
        }
    }

    /// Whether the router has marked replica `idx` down.
    pub fn is_down(&self, idx: usize) -> bool {
        self.replicas
            .get(idx)
            .map(|r| r.down.load(Relaxed))
            .unwrap_or(true)
    }

    /// Bound address of replica `idx`.
    pub fn replica_addr(&self, idx: usize) -> Option<SocketAddr> {
        self.replicas.get(idx).map(|r| r.addr)
    }

    /// Metrics handle of replica `idx`.
    pub fn replica_metrics(&self, idx: usize) -> Option<&Arc<ServeMetrics>> {
        self.replicas.get(idx).map(|r| &r.metrics)
    }

    /// Number of replicas.
    pub fn n_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Number of stations the fleet serves.
    pub fn n_stations(&self) -> usize {
        self.dataset.n_stations()
    }

    /// The fleet's routing counters.
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }
}

fn dispatch(addr: SocketAddr, path: &str, config: &ClientConfig) -> io::Result<Response> {
    if let Some(e) = stgnn_faults::check_io("scale::dispatch") {
        return Err(e);
    }
    client::get_with(addr, path, config)
}

fn boot_replica(
    dataset: Arc<BikeDataset>,
    spec: &ModelSpec,
    weights: &[u8],
    serve: &ServeConfig,
) -> Result<ReplicaHandle, ScaleError> {
    let server = Server::start(dataset, serve.clone())?;
    server
        .registry()
        .register("stgnn", spec.clone(), weights.to_vec())
        .map_err(|e| ScaleError::Data(format!("register: {e}")))?;
    Ok(ReplicaHandle {
        addr: server.addr(),
        metrics: Arc::clone(server.metrics()),
        server: Mutex::new(Some(server)),
        down: AtomicBool::new(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgnn_core::config::StgnnConfig;
    use stgnn_data::dataset::DatasetConfig;
    use stgnn_data::synthetic::{CityConfig, SyntheticCity};

    fn tiny_fleet(n_replicas: usize, queue_capacity: u64) -> Fleet {
        let city = SyntheticCity::generate(CityConfig::test_tiny(99));
        let dataset = Arc::new(BikeDataset::from_city(&city, DatasetConfig::small(6, 2)).unwrap());
        let mut mc = StgnnConfig::test_tiny(6, 2);
        mc.fcg_layers = 2;
        let spec = ModelSpec::new(mc, dataset.n_stations());
        let weights = spec.materialize().unwrap().weights_to_bytes();
        let config = FleetConfig {
            queue_capacity,
            ..FleetConfig::default()
        };
        Fleet::replicated(dataset, &spec, &weights, n_replicas, &config).unwrap()
    }

    /// A fleet whose every replica has crashed.
    fn all_down_fleet() -> Fleet {
        let fleet = tiny_fleet(2, 32);
        fleet.crash(0);
        fleet.crash(1);
        fleet
    }

    fn field(body: &str, name: &str) -> f32 {
        let resp = Response {
            status: 200,
            body: body.to_string(),
        };
        resp.json_field(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no numeric {name} in {body}"))
    }

    #[test]
    fn replicated_fleet_answers_from_the_model() {
        let fleet = tiny_fleet(2, 32);
        let slot = fleet.dataset.first_valid_slot();
        let out = fleet.predict(0, slot).unwrap();
        assert_eq!(out.status, 200, "{}", out.body);
        assert!(matches!(out.source, Answer::Model | Answer::ReplicaHa));
        assert!(out.body.contains("\"station\":0"), "{}", out.body);
        assert_eq!(fleet.stats().dispatched(), 1);
    }

    #[test]
    fn zero_capacity_sheds_to_ha() {
        let fleet = tiny_fleet(1, 0);
        let slot = fleet.dataset.first_valid_slot();
        let out = fleet.predict(1, slot).unwrap();
        assert_eq!(out.status, 200);
        assert_eq!(out.source, Answer::ShedHa);
        assert!(out.body.contains(r#""source":"shed-ha""#), "{}", out.body);
        assert!(out.body.contains(r#""degraded":true"#), "{}", out.body);
        assert_eq!(fleet.stats().sheds(), 1);
        let m = fleet.replica_metrics(0).unwrap();
        assert_eq!(m.snapshot().shed, 1);
        assert_eq!(m.queue_depth(), 0, "shed must release the gauge");
    }

    #[test]
    fn total_replica_loss_degrades_to_router_ha() {
        let fleet = tiny_fleet(2, 32);
        let slot = fleet.dataset.first_valid_slot();
        fleet.crash(0);
        fleet.crash(1);
        let out = fleet.predict(2, slot).unwrap();
        assert_eq!(out.status, 200);
        assert_eq!(out.source, Answer::LossHa);
        assert!(out.body.contains(r#""source":"loss-ha""#), "{}", out.body);
        assert!(fleet.is_down(0) && fleet.is_down(1));
        assert_eq!(fleet.stats().loss_ha(), 1);
        assert_eq!(fleet.stats().failovers(), 2);
    }

    #[test]
    fn single_crash_fails_over_to_the_survivor() {
        let fleet = tiny_fleet(2, 32);
        let slot = fleet.dataset.first_valid_slot();
        fleet.crash(0);
        // Every station must still get a model answer via the survivor.
        for station in 0..fleet.n_stations() {
            let out = fleet.predict(station, slot).unwrap();
            assert_eq!(out.status, 200, "station {station}: {}", out.body);
            assert!(
                matches!(out.source, Answer::Model | Answer::ReplicaHa),
                "station {station} got {:?}",
                out.source
            );
            assert_eq!(out.replica, Some(1));
        }
        assert_eq!(fleet.stats().failovers(), 1, "down-marking is sticky");
    }

    #[test]
    fn injected_dispatch_faults_walk_the_ring() {
        use stgnn_faults::{scoped, FaultPlan, FaultSpec, Trigger};
        let fleet = tiny_fleet(3, 32);
        let slot = fleet.dataset.first_valid_slot();
        let _chaos =
            scoped(FaultPlan::new().with("scale::dispatch", FaultSpec::io(Trigger::FirstN(1))));
        let out = fleet.predict(0, slot).unwrap();
        assert_eq!(out.status, 200, "{}", out.body);
        assert!(matches!(out.source, Answer::Model | Answer::ReplicaHa));
        assert_eq!(fleet.stats().failovers(), 1);
    }

    /// A slot a replica would refuse is refused on every path — shed, lost
    /// or dispatched — with the replica's 400, never answered from HA, and
    /// each refusal counts once in `FleetStats::refused`.
    #[test]
    fn an_unservable_slot_is_refused_whatever_the_load() {
        for (name, fleet) in [
            ("zero-capacity", tiny_fleet(1, 0)),
            ("all-down", all_down_fleet()),
            ("healthy", tiny_fleet(2, 32)),
        ] {
            let first = fleet.dataset.first_valid_slot();
            let last = fleet.dataset.flows().num_slots();
            for (refusals, slot) in [first - 1, last + 1].into_iter().enumerate() {
                assert_eq!(fleet.stats().refused(), refusals as u64, "{name} fleet");
                let out = fleet.predict(3, slot).unwrap();
                assert_eq!(
                    fleet.stats().refused(),
                    refusals as u64 + 1,
                    "{name} fleet, slot {slot}: one count per refusal"
                );
                assert_eq!(out.status, 400, "{name} fleet, slot {slot}: {}", out.body);
                assert_eq!(out.source, Answer::Error, "{name} fleet, slot {slot}");
                assert_eq!(out.replica, None, "{name} fleet, slot {slot}");
                assert!(
                    out.body.contains("outside servable range"),
                    "{name} fleet, slot {slot}: {}",
                    out.body
                );
            }
        }
    }

    /// The router's HA answers carry the requested station's numbers, not
    /// another station's.
    #[test]
    fn shed_and_loss_answers_carry_the_stations_ha_numbers() {
        for (want, fleet) in [
            (Answer::ShedHa, tiny_fleet(1, 0)),
            (Answer::LossHa, all_down_fleet()),
        ] {
            let mut ha = HistoricalAverage::new();
            ha.fit(&fleet.dataset).unwrap();
            // A slot and a station whose HA demand and supply both differ
            // from station 0's, so a number looked up at the wrong index
            // cannot pass.
            let first = fleet.dataset.first_valid_slot();
            let (slot, station, pred) = (first..first + fleet.dataset.slots_per_day())
                .find_map(|slot| {
                    let pred = ha.predict(&fleet.dataset, slot);
                    let differs = |s: usize| {
                        pred.demand[s] != pred.demand[0] && pred.supply[s] != pred.supply[0]
                    };
                    let station = (1..fleet.n_stations()).find(|&s| differs(s))?;
                    Some((slot, station, pred))
                })
                .expect("a station whose HA numbers differ from station 0's");
            let out = fleet.predict(station, slot).unwrap();
            assert_eq!(out.source, want, "{}", out.body);
            assert_eq!(
                field(&out.body, "demand").to_bits(),
                pred.demand[station].to_bits(),
                "{want:?} demand of station {station}: {}",
                out.body
            );
            assert_eq!(
                field(&out.body, "supply").to_bits(),
                pred.supply[station].to_bits(),
                "{want:?} supply of station {station}: {}",
                out.body
            );
        }
    }
}

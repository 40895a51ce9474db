//! End-to-end tests for the `stgnn-scale` subsystem: fleet parity against a
//! single server, the REPLICA-LOSS-DEGRADES-NOT-FAILS chaos scenario, and
//! shed observability through the replica metrics endpoint.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use stgnn_djd::data::dataset::{BikeDataset, DatasetConfig, Split};
use stgnn_djd::data::synthetic::{CityConfig, SyntheticCity};
use stgnn_djd::model::StgnnConfig;
use stgnn_djd::scale::{loadgen, Answer, Fleet, FleetConfig, LoadCurve};
use stgnn_djd::serve::client;
use stgnn_djd::serve::{ModelSpec, ServeConfig, Server};

fn dataset() -> Arc<BikeDataset> {
    let city = SyntheticCity::generate(CityConfig::test_tiny(99));
    Arc::new(BikeDataset::from_city(&city, DatasetConfig::small(6, 2)).unwrap())
}

fn spec_and_weights(data: &BikeDataset, seed: u64) -> (ModelSpec, Vec<u8>) {
    let mut config = StgnnConfig::test_tiny(6, 2);
    config.seed = seed;
    let spec = ModelSpec::new(config, data.n_stations());
    let bytes = spec.materialize().unwrap().weights_to_bytes();
    (spec, bytes)
}

/// PARITY-FLEET: a replicated fleet built from one checkpoint answers every
/// station byte-identically to a single server holding the same
/// checkpoint — routing must be invisible in the numbers. (Forward passes
/// are thread-count invariant, so the comparison is exact, not approximate.)
#[test]
fn fleet_answers_match_a_single_server_byte_for_byte() {
    let data = dataset();
    let (spec, weights) = spec_and_weights(&data, 7);
    let slot = data.slots(Split::Test)[0];

    // Reference: one plain server.
    let server = Server::start(Arc::clone(&data), ServeConfig::default()).unwrap();
    server
        .registry()
        .register("stgnn", spec.clone(), weights.clone())
        .unwrap();
    let addr = server.addr();

    // Candidate: a 3-replica fleet from the same checkpoint.
    let config = FleetConfig {
        deadline_ms: 30_000,
        ..FleetConfig::default()
    };
    let fleet = Fleet::replicated(Arc::clone(&data), &spec, &weights, 3, &config).unwrap();

    for station in 0..data.n_stations() {
        let single = client::get(
            addr,
            &format!("/predict?model=stgnn&slot={slot}&station={station}&deadline_ms=30000"),
        )
        .unwrap();
        assert_eq!(single.status, 200, "{}", single.body);
        let routed = fleet.predict(station, slot).unwrap();
        assert_eq!(routed.status, 200, "{}", routed.body);
        assert_eq!(routed.source, Answer::Model, "station {station} degraded");
        for field in ["demand", "supply", "station", "slot"] {
            assert_eq!(
                routed_field(&routed.body, field),
                single.json_field(field).unwrap(),
                "station {station} field {field} diverged:\nfleet:  {}\nsingle: {}",
                routed.body,
                single.body
            );
        }
    }
}

fn routed_field(body: &str, field: &str) -> String {
    client::Response {
        status: 200,
        body: body.to_string(),
    }
    .json_field(field)
    .unwrap()
}

/// The chaos scenario REPLICA-LOSS-DEGRADES-NOT-FAILS: crash a replica in
/// the middle of a diurnal load run. Every response must stay parseable
/// (no torn bodies), no request may surface a 5xx, and degradation must
/// stay within the shed budget — loss of capacity shows up as HA answers,
/// never as failures.
#[test]
fn replica_loss_degrades_but_never_fails() {
    let data = dataset();
    let (spec, weights) = spec_and_weights(&data, 11);
    let config = FleetConfig {
        deadline_ms: 5_000,
        queue_capacity: 64,
        ..FleetConfig::default()
    };
    let fleet =
        Arc::new(Fleet::replicated(Arc::clone(&data), &spec, &weights, 3, &config).unwrap());
    let slots = data.slots(Split::Test);

    let curve = LoadCurve {
        duration_ms: 1_200,
        base_rps: 40.0,
        rush_multiplier: 3.0,
        senders: 4,
        seed: 13,
        slo_ms: 2_000,
    };

    // Kill replica 0 one third into the run, while requests are in flight.
    let killer = {
        let fleet = Arc::clone(&fleet);
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(400));
            fleet.crash(0);
        })
    };
    let report = loadgen::run(&fleet, &curve, &slots);
    killer.join().unwrap();

    assert!(report.sent > 0);
    // No torn responses, no 5xx: every request was answered 200 with a
    // parseable body (errors counts non-200s and router failures).
    assert_eq!(report.errors, 0, "replica loss surfaced errors: {report:?}");
    // Loss of one of three replicas must not collapse service: the model
    // path still answers the bulk of the traffic.
    assert!(
        report.ok_model + report.replica_ha > report.sent * 8 / 10,
        "too much degradation after one replica loss: {report:?}"
    );
    // The crash was actually noticed (sticky down-marking, ring failover).
    assert!(fleet.is_down(0), "crash went unnoticed by the router");
    assert!(!fleet.is_down(1) && !fleet.is_down(2));
}

/// The same scenario under an injected dispatch fault instead of a real
/// crash: the first dispatch I/O error triggers failover, not a 5xx.
#[test]
fn injected_dispatch_fault_degrades_but_never_fails() {
    use stgnn_djd::faults::{scoped, FaultPlan, FaultSpec, Trigger};

    let data = dataset();
    let (spec, weights) = spec_and_weights(&data, 17);
    let config = FleetConfig {
        deadline_ms: 5_000,
        ..FleetConfig::default()
    };
    let fleet = Fleet::replicated(Arc::clone(&data), &spec, &weights, 2, &config).unwrap();
    let slot = data.slots(Split::Test)[0];

    let _chaos =
        scoped(FaultPlan::new().with("scale::dispatch", FaultSpec::io(Trigger::FirstN(1))));
    for station in 0..data.n_stations() {
        let out = fleet.predict(station, slot).unwrap();
        assert_eq!(out.status, 200, "station {station}: {}", out.body);
        assert_ne!(out.source, Answer::Error);
    }
    assert_eq!(fleet.stats().failovers(), 1);
    assert_eq!(
        fleet.stats().loss_ha(),
        0,
        "one fault must not orphan traffic"
    );
}

/// Shed observability: a zero-capacity fleet sheds at admission, the
/// outcome is tagged, and the shed shows up on the replica's own
/// `/metrics` line protocol (`serve_shed_total`) with the queue gauge
/// back at zero.
#[test]
fn sheds_are_tagged_and_visible_in_replica_metrics() {
    let data = dataset();
    let (spec, weights) = spec_and_weights(&data, 23);
    let config = FleetConfig {
        queue_capacity: 0,
        ..FleetConfig::default()
    };
    let fleet = Fleet::replicated(Arc::clone(&data), &spec, &weights, 1, &config).unwrap();
    let slot = data.slots(Split::Test)[0];

    let out = fleet.predict(0, slot).unwrap();
    assert_eq!(out.status, 200);
    assert_eq!(out.source, Answer::ShedHa);
    assert!(out.body.contains(r#""degraded":true"#), "{}", out.body);
    assert!(out.body.contains(r#""source":"shed-ha""#), "{}", out.body);

    let metrics = client::get(fleet.replica_addr(0).unwrap(), "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.body.contains("serve_shed_total 1"),
        "shed not visible in line protocol:\n{}",
        metrics.body
    );
    assert!(
        metrics.body.contains("serve_queue_depth 0"),
        "queue gauge leaked:\n{}",
        metrics.body
    );
}

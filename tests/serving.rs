//! End-to-end tests for the `stgnn-serve` subsystem over real TCP: boot the
//! server on an ephemeral port, register a model, and drive it with the
//! bundled blocking client the way a fleet of provider dashboards would.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use stgnn_djd::data::dataset::{BikeDataset, DatasetConfig, Split};
use stgnn_djd::data::synthetic::{CityConfig, SyntheticCity};
use stgnn_djd::faults::{scoped, FaultPlan, FaultSpec, ScopedPlan, Trigger};
use stgnn_djd::model::{StgnnConfig, StgnnDjd};
use stgnn_djd::serve::client;
use stgnn_djd::serve::{ModelSpec, ServeConfig, Server};

fn dataset() -> Arc<BikeDataset> {
    let city = SyntheticCity::generate(CityConfig::test_tiny(99));
    Arc::new(BikeDataset::from_city(&city, DatasetConfig::small(6, 2)).unwrap())
}

fn register_model(server: &Server, data: &BikeDataset, seed: u64) -> Vec<u8> {
    let mut config = StgnnConfig::test_tiny(6, 2);
    config.seed = seed;
    let spec = ModelSpec::new(config, data.n_stations());
    let bytes = spec.materialize().unwrap().weights_to_bytes();
    server
        .registry()
        .register("stgnn", spec, bytes.clone())
        .unwrap();
    bytes
}

/// Arms `serve::forward` with a delay of `ms` on every forward pass. The
/// tests here that reach a forward pass without a delay hold an empty
/// plan, so the delay cannot leak into them.
fn slow_forwards(ms: u64) -> ScopedPlan {
    scoped(FaultPlan::new().with("serve::forward", FaultSpec::delay(ms, Trigger::EveryHit)))
}

/// The acceptance path end to end: concurrent same-slot queries coalesce
/// into exactly one forward pass, a hot-swapped checkpoint changes the
/// responses, and the metrics surface makes both observable.
#[test]
fn concurrent_queries_batch_into_one_forward_pass_and_swap_changes_them() {
    let _faults = scoped(FaultPlan::new());
    let data = dataset();
    let t = data.slots(Split::Test)[0];
    let mut server = Server::start(
        Arc::clone(&data),
        ServeConfig {
            default_deadline: Duration::from_secs(30),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    register_model(&server, &data, 7);
    let addr = server.addr();

    // Liveness + registry listing.
    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    let models = client::get(addr, "/models").unwrap();
    assert!(
        models.body.contains(r#""name":"stgnn","version":1"#),
        "{}",
        models.body
    );

    // 16 concurrent queries for the same target slot.
    let path = format!("/predict?model=stgnn&slot={t}&deadline_ms=30000");
    let handles: Vec<_> = (0..16)
        .map(|_| {
            let path = path.clone();
            thread::spawn(move || client::get(addr, &path).unwrap())
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let first_demand = responses[0].json_field("demand").unwrap();
    for r in &responses {
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.json_field("degraded").unwrap(), "false", "{}", r.body);
        assert_eq!(r.json_field("source").unwrap(), r#""model""#);
        assert_eq!(
            r.json_field("demand").unwrap(),
            first_demand,
            "all 16 must see one result"
        );
    }

    // Exactly one forward pass served all 16; the rest were coalesced into
    // the batch or answered from the slot cache.
    let s = server.metrics_snapshot();
    assert_eq!(s.forward_passes, 1, "snapshot: {s:?}");
    assert_eq!(s.requests, 16);
    assert_eq!(s.batched + s.cache_hits, 16, "snapshot: {s:?}");
    assert!(s.max_batch_observed() >= 1);

    // The line-protocol dump carries the same counters.
    let metrics = client::get(addr, "/metrics").unwrap();
    assert!(
        metrics.body.contains("serve_forward_passes_total 1"),
        "{}",
        metrics.body
    );

    // Hot-swap a differently-initialised checkpoint over HTTP; the same
    // slot must now be recomputed and answer differently.
    let mut other_config = StgnnConfig::test_tiny(6, 2);
    other_config.seed = 12345;
    let other = StgnnDjd::new(other_config, data.n_stations())
        .unwrap()
        .weights_to_bytes();
    let swap = client::post(addr, "/models/stgnn/swap", &other).unwrap();
    assert_eq!(swap.status, 200, "{}", swap.body);
    assert_eq!(swap.json_field("version").unwrap(), "2");

    let after = client::get(addr, &path).unwrap();
    assert_eq!(after.status, 200, "{}", after.body);
    assert_eq!(after.json_field("degraded").unwrap(), "false");
    assert_ne!(
        after.json_field("demand").unwrap(),
        first_demand,
        "hot-swapped weights must change the answer"
    );
    assert_eq!(server.metrics_snapshot().forward_passes, 2);

    // Error surfaces stay structured.
    let missing = client::get(addr, "/predict?model=stgnn").unwrap();
    assert_eq!(missing.status, 400);
    let unknown = client::get(addr, &format!("/predict?model=nope&slot={t}")).unwrap();
    assert_eq!(unknown.status, 404, "{}", unknown.body);

    server.shutdown();
}

/// A server with one worker whose every forward pass takes 200 ms, and
/// the fault plan that slows it: the plan must outlive the server.
fn one_slow_worker(data: &Arc<BikeDataset>) -> (Server, ScopedPlan) {
    let slow = slow_forwards(200);
    let server = Server::start(
        Arc::clone(data),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    register_model(&server, data, 7);
    (server, slow)
}

/// Sends a query for slot `t` that occupies the server's only worker, and
/// returns once it is submitted: the queue is first in, first out, so the
/// worker takes it before anything submitted later.
fn hold_the_only_worker(server: &Server, t: usize) -> thread::JoinHandle<client::Response> {
    let before = server.metrics_snapshot().requests;
    let addr = server.addr();
    let holder = thread::spawn(move || {
        client::get(
            addr,
            &format!("/predict?model=stgnn&slot={t}&deadline_ms=30000"),
        )
        .unwrap()
    });
    while server.metrics_snapshot().requests == before {
        thread::sleep(Duration::from_millis(1));
    }
    holder
}

/// No timer holds a batch open: a batch is every same-slot request queued
/// while the workers were busy. Eight slot-B queries that arrive while a
/// slot-A forward holds the only worker leave the queue together and cost
/// one forward pass.
#[test]
fn requests_queued_behind_a_busy_worker_share_one_forward_pass() {
    let data = dataset();
    let slots = data.slots(Split::Test);
    let (a, b) = (slots[0], slots[1]);
    let (mut server, _slow) = one_slow_worker(&data);
    let addr = server.addr();
    let holder = hold_the_only_worker(&server, a);

    let path = format!("/predict?model=stgnn&slot={b}&deadline_ms=30000");
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let path = path.clone();
            thread::spawn(move || client::get(addr, &path).unwrap())
        })
        .collect();
    for r in handles.into_iter().map(|h| h.join().unwrap()) {
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.json_field("degraded").unwrap(), "false", "{}", r.body);
    }
    assert_eq!(holder.join().unwrap().status, 200);

    let s = server.metrics_snapshot();
    assert_eq!(s.forward_passes, 2, "snapshot: {s:?}");
    assert!(s.max_batch_observed() >= 8, "snapshot: {s:?}");
    server.shutdown();
}

/// A cached slot is answered when it is submitted, so it never waits
/// behind a forward pass: while the only worker spends 200 ms on slot A, a
/// query for the already cached slot C meets a 100 ms deadline with the
/// model's answer.
#[test]
fn a_cached_slot_never_queues_behind_a_forward_pass() {
    let data = dataset();
    let slots = data.slots(Split::Test);
    let (a, c) = (slots[0], slots[2]);
    let (mut server, _slow) = one_slow_worker(&data);
    let addr = server.addr();
    let cached = client::get(
        addr,
        &format!("/predict?model=stgnn&slot={c}&deadline_ms=30000"),
    )
    .unwrap();
    assert_eq!(
        cached.json_field("degraded").unwrap(),
        "false",
        "{}",
        cached.body
    );
    let holder = hold_the_only_worker(&server, a);

    let r = client::get(
        addr,
        &format!("/predict?model=stgnn&slot={c}&deadline_ms=100"),
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(r.json_field("degraded").unwrap(), "false", "{}", r.body);
    assert_eq!(r.json_field("demand"), cached.json_field("demand"));
    assert_eq!(holder.join().unwrap().status, 200);

    let s = server.metrics_snapshot();
    assert_eq!((s.forward_passes, s.fallbacks), (2, 0), "snapshot: {s:?}");
    server.shutdown();
}

/// A slow model path must not stall the caller: the deadline trips and the
/// response comes from the Historical-Average table, tagged degraded.
#[test]
fn slow_model_degrades_to_ha_within_the_deadline() {
    let data = dataset();
    let t = data.slots(Split::Test)[0];
    // Every forward pass takes ≥ 400 ms — far past the deadline.
    let _slow = slow_forwards(400);
    let mut server = Server::start(Arc::clone(&data), ServeConfig::default()).unwrap();
    register_model(&server, &data, 7);

    let started = Instant::now();
    let r = client::get(
        server.addr(),
        &format!("/predict?model=stgnn&slot={t}&deadline_ms=50"),
    )
    .unwrap();
    let elapsed = started.elapsed();

    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(r.json_field("degraded").unwrap(), "true", "{}", r.body);
    assert_eq!(r.json_field("source").unwrap(), r#""fallback-ha""#);
    assert!(
        elapsed < Duration::from_millis(350),
        "degraded answer took {elapsed:?}, should beat the 400 ms forward delay"
    );
    // The HA table still produced a full per-station forecast.
    let demand = r.json_field("demand").unwrap();
    assert!(demand.starts_with('['), "{demand}");
    assert_eq!(server.metrics_snapshot().fallbacks, 1);

    server.shutdown();
}

/// Regression: a client that connects and then stalls mid-request used to
/// pin its handler thread forever (no socket read timeout). The server must
/// cut the connection after `read_timeout` and keep serving others.
#[test]
fn stalled_client_is_dropped_and_does_not_wedge_the_server() {
    let _faults = scoped(FaultPlan::new());
    let data = dataset();
    let t = data.slots(Split::Test)[0];
    let mut server = Server::start(
        Arc::clone(&data),
        ServeConfig {
            read_timeout: Duration::from_millis(100),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    register_model(&server, &data, 7);
    let addr = server.addr();

    // A client that sends half a request line and then goes silent.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(b"GET /pred").unwrap();
    stalled.flush().unwrap();

    // While it stalls, normal clients are served as usual.
    let path = format!("/predict?model=stgnn&slot={t}&deadline_ms=30000");
    let healthy = client::get(addr, &path).unwrap();
    assert_eq!(healthy.status, 200, "{}", healthy.body);

    // The server hangs up on the stalled connection once the read timeout
    // fires: the client observes EOF, well before any multi-second hang.
    let started = Instant::now();
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 64];
    let n = stalled.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "expected EOF, got {n} bytes");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "connection lingered {:?} despite the 100 ms read timeout",
        started.elapsed()
    );

    server.shutdown();
}

/// Regression for the write-side mirror of the stalled-client bug: a
/// half-open client that sends a full request and then never drains the
/// response must not pin its handler thread past `write_timeout`. The
/// response write either lands in the kernel buffer or times out; either
/// way the server keeps serving everyone else for the whole stall window.
#[test]
fn half_open_client_cannot_pin_the_writer() {
    let _faults = scoped(FaultPlan::new());
    let data = dataset();
    let t = data.slots(Split::Test)[0];
    let write_timeout = Duration::from_millis(100);
    let mut server = Server::start(
        Arc::clone(&data),
        ServeConfig {
            read_timeout: Duration::from_millis(100),
            write_timeout,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    register_model(&server, &data, 7);
    let addr = server.addr();
    let path = format!("/predict?model=stgnn&slot={t}&deadline_ms=30000");

    // Half-open clients: each sends a complete request, then refuses to
    // read a single response byte while keeping the socket open.
    let half_open: Vec<TcpStream> = (0..4)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            write!(
                s,
                "GET {path} HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
            )
            .unwrap();
            s.flush().unwrap();
            s
        })
        .collect();

    // Throughout several write-timeout windows, well-behaved clients keep
    // getting served.
    let deadline = Instant::now() + 4 * write_timeout;
    let mut served = 0usize;
    while Instant::now() < deadline {
        let r = client::get(addr, &path).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        served += 1;
        thread::sleep(Duration::from_millis(20));
    }
    assert!(
        served >= 3,
        "only {served} requests served during the stall"
    );
    // The half-open connections were all answered or cut — none of them
    // wedged a handler (the server just served {served} requests on a
    // default-size worker pool while 4 connections refused to drain).
    drop(half_open);

    server.shutdown();
}

/// Per-station projection and slot-range validation over the wire.
#[test]
fn station_queries_and_range_checks() {
    let _faults = scoped(FaultPlan::new());
    let data = dataset();
    let t = data.slots(Split::Test)[0];
    let mut server = Server::start(Arc::clone(&data), ServeConfig::default()).unwrap();
    register_model(&server, &data, 7);
    let addr = server.addr();

    let r = client::get(addr, &format!("/predict?model=stgnn&slot={t}&station=0")).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(r.json_field("station").unwrap(), "0");
    let demand = r.json_field("demand").unwrap();
    assert!(
        !demand.starts_with('['),
        "station query returns a scalar, got {demand}"
    );

    let too_early = client::get(addr, "/predict?model=stgnn&slot=0").unwrap();
    assert_eq!(too_early.status, 400, "{}", too_early.body);
    let bad_station =
        client::get(addr, &format!("/predict?model=stgnn&slot={t}&station=9999")).unwrap();
    assert_eq!(bad_station.status, 400, "{}", bad_station.body);

    server.shutdown();
}

/// Hostile request heads and bodies get a typed refusal over the wire —
/// 431 for a header flood, 413 for an oversized declared body, 400 for a
/// body cut short — and the server keeps answering afterwards. Each raw
/// request ends exactly where the server stops reading, so no unread byte
/// turns the close into a reset.
#[test]
fn oversized_and_truncated_requests_are_refused_with_their_status() {
    let data = dataset();
    let mut server = Server::start(Arc::clone(&data), ServeConfig::default()).unwrap();
    let addr = server.addr();
    let status_of = |raw: &str| -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = String::new();
        s.read_to_string(&mut reply).unwrap();
        reply.lines().next().unwrap_or_default().to_string()
    };

    let flood: String = std::iter::once("GET /healthz HTTP/1.1\r\n".to_string())
        .chain((0..101).map(|i| format!("X-H{i}: v\r\n")))
        .collect();
    assert_eq!(
        status_of(&flood),
        "HTTP/1.1 431 Request Header Fields Too Large"
    );
    assert_eq!(
        status_of("POST /models/stgnn/swap HTTP/1.1\r\nContent-Length: 100000000\r\n\r\n"),
        "HTTP/1.1 413 Content Too Large"
    );
    assert_eq!(
        status_of("POST /models/stgnn/swap HTTP/1.1\r\nContent-Length: 10\r\n\r\nhello"),
        "HTTP/1.1 400 Bad Request"
    );
    assert_eq!(server.metrics_snapshot().errors, 3);
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);

    server.shutdown();
}

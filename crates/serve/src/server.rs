//! The serving front-end: HTTP routes, per-request deadlines, and the
//! HA-fallback degradation path.
//!
//! Endpoints (all JSON unless noted):
//!
//! * `GET /healthz` — liveness.
//! * `GET /predict?model=NAME&slot=T[&station=I][&deadline_ms=D]` — a
//!   prediction for target slot `T`. If the model path misses the deadline
//!   the response comes from the Historical-Average table instead, with
//!   `"degraded": true`.
//! * `GET /metrics` — plain-text line-protocol counter dump.
//! * `GET /models` — registered models and their checkpoint versions.
//! * `POST /models/NAME/swap` — body is a serialized checkpoint; atomically
//!   hot-swaps the model's weights and returns the new version.

use crate::batch::WorkerPool;
use crate::cache::SlotCache;
use crate::http::{json_escape, json_f32_array, read_request, write_response, Request};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::registry::ModelRegistry;
use crate::ServeError;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use stgnn_baselines::ha::HistoricalAverage;
use stgnn_data::dataset::BikeDataset;
use stgnn_data::predictor::DemandSupplyPredictor;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub bind: String,
    /// Worker threads in the batching pool. A request for a cached slot is
    /// answered on its own handler thread and never waits for a worker. A
    /// miss is queued; a free worker takes it together with every queued
    /// request for the same slot, waits out another worker already
    /// computing that slot, or else runs one forward pass for the batch.
    /// No timer holds a batch open: batches form only from requests that
    /// queued while every worker was busy.
    pub workers: usize,
    /// Slot-cache capacity (distinct `(model, version, graph epoch, slot)`
    /// entries).
    pub cache_capacity: usize,
    /// Deadline applied when a request doesn't pass `deadline_ms`.
    pub default_deadline: Duration,
    /// Socket read timeout per connection. A client that connects and then
    /// stalls mid-request would otherwise pin its handler thread forever.
    pub read_timeout: Duration,
    /// Socket write timeout per connection — the mirror of `read_timeout`
    /// for the response side: a client that sends a request and then never
    /// drains the response (half-open, zero receive window) cannot wedge its
    /// handler thread.
    pub write_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            bind: "127.0.0.1:0".into(),
            workers: 2,
            cache_capacity: 256,
            default_deadline: Duration::from_millis(250),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
        }
    }
}

struct Ctx {
    registry: Arc<ModelRegistry>,
    pool: Arc<WorkerPool>,
    metrics: Arc<ServeMetrics>,
    dataset: Arc<BikeDataset>,
    /// The graceful-degradation baseline, fitted once at startup.
    ha: HistoricalAverage,
    default_deadline: Duration,
}

/// A running prediction service bound to a TCP port.
pub struct Server {
    addr: SocketAddr,
    registry: Arc<ModelRegistry>,
    cache: Arc<SlotCache>,
    metrics: Arc<ServeMetrics>,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    /// Keeps the pool alive; the last `Arc` drop joins the workers.
    pool: Option<Arc<WorkerPool>>,
}

impl Server {
    /// Fits the HA fallback, spins up the worker pool, binds the listener
    /// and starts accepting. Models are registered through
    /// [`Server::registry`] (initial registration) or the swap endpoint.
    pub fn start(dataset: Arc<BikeDataset>, config: ServeConfig) -> io::Result<Server> {
        // Every checkpoint admitted through this server — initial
        // registration or the swap endpoint — is statically validated
        // against the serving dataset before it can serve a request.
        let registry = Arc::new(ModelRegistry::new(Arc::clone(&dataset)));
        let cache = Arc::new(SlotCache::new(config.cache_capacity));
        let metrics = Arc::new(ServeMetrics::new());
        let pool = Arc::new(WorkerPool::new(
            Arc::clone(&registry),
            Arc::clone(&cache),
            Arc::clone(&metrics),
            Arc::clone(&dataset),
            config.workers,
        ));
        let mut ha = HistoricalAverage::new();
        ha.fit(&dataset)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;

        let listener = TcpListener::bind(&config.bind)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let ctx = Arc::new(Ctx {
            registry: Arc::clone(&registry),
            pool: Arc::clone(&pool),
            metrics: Arc::clone(&metrics),
            dataset,
            ha,
            default_deadline: config.default_deadline,
        });
        let accept_shutdown = Arc::clone(&shutdown);
        let read_timeout = config.read_timeout;
        let write_timeout = config.write_timeout;
        let accept_handle = thread::Builder::new()
            .name("stgnn-serve-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    // A delay here models an accept loop starved under load;
                    // connections queue in the kernel backlog meanwhile.
                    stgnn_faults::failpoint!("serve::accept");
                    let Ok(mut stream) = stream else { continue };
                    // A stalled client must not pin its handler thread:
                    // reads give up after the timeout, `read_request`
                    // returns an I/O error, and the connection is dropped. The write
                    // timeout is the same guard for a client that stops
                    // draining the response.
                    let _ = stream.set_read_timeout(Some(read_timeout));
                    let _ = stream.set_write_timeout(Some(write_timeout));
                    let ctx = Arc::clone(&ctx);
                    // Thread-per-connection: each handler blocks on its own
                    // deadline, so handlers must not share a thread.
                    let _ = thread::Builder::new()
                        .name("stgnn-serve-conn".into())
                        .spawn(move || handle_connection(&ctx, &mut stream));
                }
            })?;
        Ok(Server {
            addr,
            registry,
            cache,
            metrics,
            shutdown,
            accept_handle: Some(accept_handle),
            pool: Some(pool),
        })
    }

    /// The bound address (use with port 0 to discover the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The model registry, for initial registration and direct swaps.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The slot cache (exposed for tests and operational tooling).
    pub fn cache(&self) -> &Arc<SlotCache> {
        &self.cache
    }

    /// Live metrics handle.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// Point-in-time metrics snapshot.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Stops accepting connections and winds down the worker pool. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // Dropping the last pool Arc joins the workers (handlers that still
        // hold it finish their in-flight requests first).
        self.pool.take();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(ctx: &Ctx, stream: &mut TcpStream) {
    let (status, content_type, body) = match read_request(stream) {
        Ok(req) => route(ctx, &req),
        // A refused request (oversized or malformed) gets its status; a
        // dead or timed-out connection is just dropped.
        Err(e) => match e.status() {
            Some(status) => {
                ctx.metrics.inc_errors();
                (
                    status,
                    "application/json",
                    format!(r#"{{"error":"{}"}}"#, json_escape(&e.to_string())),
                )
            }
            None => return,
        },
    };
    let _ = write_response(stream, status, content_type, &body);
}

fn route(ctx: &Ctx, req: &Request) -> (u16, &'static str, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (200, "application/json", r#"{"status":"ok"}"#.into()),
        ("GET", "/metrics") => (200, "text/plain", ctx.metrics.snapshot().to_line_protocol()),
        ("GET", "/models") => {
            let entries: Vec<String> = ctx
                .registry
                .list()
                .into_iter()
                .map(|(name, version, graph_epoch)| {
                    format!(
                        r#"{{"name":"{}","version":{version},"graph_epoch":{graph_epoch}}}"#,
                        json_escape(&name)
                    )
                })
                .collect();
            (200, "application/json", format!("[{}]", entries.join(",")))
        }
        ("GET", "/predict") => handle_predict(ctx, req),
        ("POST", path) => {
            if let Some(name) = path
                .strip_prefix("/models/")
                .and_then(|p| p.strip_suffix("/swap"))
            {
                handle_swap(ctx, name, &req.body)
            } else {
                (404, "application/json", r#"{"error":"not found"}"#.into())
            }
        }
        ("GET", _) => (404, "application/json", r#"{"error":"not found"}"#.into()),
        _ => (
            405,
            "application/json",
            r#"{"error":"method not allowed"}"#.into(),
        ),
    }
}

fn handle_swap(ctx: &Ctx, name: &str, body: &[u8]) -> (u16, &'static str, String) {
    match ctx.registry.swap(name, body.to_vec()) {
        Ok(version) => {
            ctx.metrics.inc_swaps();
            (
                200,
                "application/json",
                format!(r#"{{"model":"{}","version":{version}}}"#, json_escape(name)),
            )
        }
        Err(e @ ServeError::UnknownModel(_)) => (
            404,
            "application/json",
            format!(r#"{{"error":"{}"}}"#, json_escape(&e.to_string())),
        ),
        Err(e) => (
            400,
            "application/json",
            format!(r#"{{"error":"{}"}}"#, json_escape(&e.to_string())),
        ),
    }
}

fn bad_request(ctx: &Ctx, msg: &str) -> (u16, &'static str, String) {
    ctx.metrics.inc_errors();
    (
        400,
        "application/json",
        format!(r#"{{"error":"{}"}}"#, json_escape(msg)),
    )
}

fn handle_predict(ctx: &Ctx, req: &Request) -> (u16, &'static str, String) {
    let started = Instant::now();
    let Some(model) = req.query.get("model") else {
        return bad_request(ctx, "missing query parameter: model");
    };
    let Some(slot) = req.query.get("slot").and_then(|s| s.parse::<usize>().ok()) else {
        return bad_request(ctx, "missing or invalid query parameter: slot");
    };
    let first = ctx.dataset.first_valid_slot();
    let last = ctx.dataset.flows().num_slots();
    if slot < first || slot > last {
        return bad_request(
            ctx,
            &format!("slot {slot} outside servable range [{first}, {last}]"),
        );
    }
    let station = match req.query.get("station") {
        None => None,
        Some(s) => match s.parse::<usize>() {
            Ok(i) if i < ctx.dataset.n_stations() => Some(i),
            _ => {
                return bad_request(
                    ctx,
                    &format!(
                        "station must be an index below {}",
                        ctx.dataset.n_stations()
                    ),
                )
            }
        },
    };
    let deadline = req
        .query
        .get("deadline_ms")
        .and_then(|s| s.parse::<u64>().ok())
        .map(|ms| Duration::from_millis(ms.clamp(1, 60_000)))
        .unwrap_or(ctx.default_deadline);

    let rx = ctx.pool.submit(model.clone(), slot);
    let outcome = rx.recv_timeout(deadline);
    let latency = started.elapsed();
    ctx.metrics.record_latency(latency);

    match outcome {
        Ok(Ok(predictions)) => {
            // Step 0 forecasts the requested slot; later steps are the
            // model's multi-step extension.
            let Some(step) = predictions.first() else {
                ctx.metrics.inc_errors();
                return (
                    502,
                    "application/json",
                    r#"{"error":"model returned an empty horizon"}"#.to_string(),
                );
            };
            let (demand, supply) = match station {
                // sound: allow(L004): STATION-CHECKED-BELOW-N — station <
                // n_stations checked above, and predict_horizon emits
                // n_stations entries per step.
                Some(i) => (format!("{}", step.demand[i]), format!("{}", step.supply[i])),
                None => (json_f32_array(&step.demand), json_f32_array(&step.supply)),
            };
            let station_field = station
                .map(|i| format!(r#""station":{i},"#))
                .unwrap_or_default();
            (
                200,
                "application/json",
                format!(
                    r#"{{"model":"{}","slot":{slot},{station_field}"demand":{demand},"supply":{supply},"degraded":false,"source":"model","latency_us":{}}}"#,
                    json_escape(model),
                    latency.as_micros()
                ),
            )
        }
        Ok(Err(e @ ServeError::UnknownModel(_))) => {
            ctx.metrics.inc_errors();
            (
                404,
                "application/json",
                format!(r#"{{"error":"{}"}}"#, json_escape(&e.to_string())),
            )
        }
        Ok(Err(e)) => {
            ctx.metrics.inc_errors();
            (
                400,
                "application/json",
                format!(r#"{{"error":"{}"}}"#, json_escape(&e.to_string())),
            )
        }
        Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
            // Deadline missed (or pipeline went away): degrade to the
            // Historical-Average table rather than keep the caller waiting.
            ctx.metrics.inc_fallbacks();
            let pred = ctx.ha.predict(&ctx.dataset, slot);
            let (demand, supply) = match station {
                // sound: allow(L004): STATION-CHECKED-BELOW-N — station <
                // n_stations checked above, and the HA table holds
                // n_stations entries.
                Some(i) => (format!("{}", pred.demand[i]), format!("{}", pred.supply[i])),
                None => (json_f32_array(&pred.demand), json_f32_array(&pred.supply)),
            };
            let station_field = station
                .map(|i| format!(r#""station":{i},"#))
                .unwrap_or_default();
            (
                200,
                "application/json",
                format!(
                    r#"{{"model":"{}","slot":{slot},{station_field}"demand":{demand},"supply":{supply},"degraded":true,"source":"fallback-ha","latency_us":{}}}"#,
                    json_escape(model),
                    started.elapsed().as_micros()
                ),
            )
        }
    }
}

// sound: allow-file(S004, S005): BENCH-LATENCY-IS-WALLCLOCK — these
// benchmarks measure wall-clock latency; timing flowing into the emitted
// JSON is the entire point, not a determinism leak.
//! City-scale serving benchmark: the diurnal load generator against fleets
//! of increasing replica counts, in both replicated and sharded modes.
//!
//! Emits `BENCH_scale.json` — one cell per (mode, replicas) with
//! throughput, SLO attainment, p50/p99/p999 latency (measured from the
//! *scheduled* arrival: no coordinated omission), and the shed rate.
//!
//! ```text
//! cargo run -p stgnn-bench --release --bin scale_load
//! STGNN_BENCH_SMOKE=1 cargo run -p stgnn-bench --release --bin scale_load   # CI smoke
//! ```
//!
//! Smoke mode runs a districted test city through replicated fleets of 1
//! and 2 plus a 4-shard fleet in a couple of seconds; full mode scales the
//! synthetic city into the hundreds of stations (replicated) and to a
//! 768-station metro (sharded only: a full replica would run 768×768 model
//! stages on every forward).

use std::sync::Arc;
use stgnn_bench::TableWriter;
use stgnn_core::StgnnConfig;
use stgnn_data::dataset::{BikeDataset, DatasetConfig};
use stgnn_data::synthetic::{CityConfig, SyntheticCity};
use stgnn_graph::builders::{trip_correlation_graph, trip_flow_graph};
use stgnn_scale::plan::ShardPlan;
use stgnn_scale::{loadgen, Fleet, FleetConfig, LoadCurve, LoadReport};
use stgnn_serve::ModelSpec;

fn model_config() -> StgnnConfig {
    let mut c = StgnnConfig::test_tiny(6, 2);
    c.fcg_layers = 2;
    c
}

/// A replicated-mode cell: R identical full-city replicas.
fn replicated_cell(
    city: &SyntheticCity,
    replicas: usize,
    curve: &LoadCurve,
    label: &str,
) -> LoadReport {
    let data = Arc::new(BikeDataset::from_city(city, DatasetConfig::small(6, 2)).expect("dataset"));
    let spec = ModelSpec::new(model_config(), data.n_stations());
    let weights = spec.materialize().expect("model").weights_to_bytes();
    let fleet =
        Fleet::replicated(data, &spec, &weights, replicas, &FleetConfig::default()).expect("fleet");
    let slots = fleet.test_slots();
    loadgen::run(&fleet, curve, &slots, label)
}

/// A sharded-mode cell: one replica per shard of the union trip adjacency,
/// each serving only its halo-extended sub-city.
fn sharded_cell(city: &SyntheticCity, shards: usize, curve: &LoadCurve, label: &str) -> LoadReport {
    let n = city.registry.len();
    let adj = trip_flow_graph(&city.trips, n).union_symmetric(&trip_correlation_graph(
        &city.trips,
        n,
        city.config.days,
        city.config.slots_per_day,
        0.95,
    ));
    let config = model_config();
    let plan = ShardPlan::partition(&adj, shards, config.fcg_layers).expect("plan");
    plan.validate().expect("valid plan");
    let members: usize = plan.shards().iter().map(|s| s.members.len()).sum();
    eprintln!(
        "[scale_load] {label}: {shards} shards over {n} stations, edge cut {}, \
         mean members/shard {:.1}",
        plan.edge_cut(&adj),
        members as f64 / shards as f64
    );
    let fleet = Fleet::sharded(
        city,
        &plan,
        &config,
        &DatasetConfig::small(6, 2),
        &FleetConfig::default(),
    )
    .expect("sharded fleet");
    let slots = fleet.test_slots();
    loadgen::run(&fleet, curve, &slots, label)
}

fn main() {
    let smoke = std::env::var("STGNN_BENCH_SMOKE").is_ok();
    let curve = if smoke {
        LoadCurve::smoke()
    } else {
        LoadCurve::standard()
    };
    eprintln!(
        "[scale_load] {} mode: {} ms curve, base {} rps, rush ×{}",
        if smoke { "smoke" } else { "full" },
        curve.duration_ms,
        curve.base_rps,
        curve.rush_multiplier
    );

    let mut cells: Vec<LoadReport> = Vec::new();
    if smoke {
        let city = SyntheticCity::generate(CityConfig::test_districted(42));
        cells.push(replicated_cell(&city, 1, &curve, "replicated-1"));
        cells.push(replicated_cell(&city, 2, &curve, "replicated-2"));
        cells.push(sharded_cell(&city, 4, &curve, "sharded-4"));
    } else {
        let small = SyntheticCity::generate(CityConfig::city_scale(256, 42));
        cells.push(replicated_cell(&small, 2, &curve, "replicated-2"));
        cells.push(replicated_cell(&small, 4, &curve, "replicated-4"));
        let metro = SyntheticCity::generate(CityConfig::city_scale(768, 42));
        cells.push(sharded_cell(&metro, 8, &curve, "sharded-8"));
    }

    let mut table = TableWriter::new(
        "City-scale serving: diurnal load vs fleet layout",
        &[
            "Cell",
            "Replicas",
            "Sent",
            "Thpt (rps)",
            "SLO",
            "Shed",
            "p50/p99/p999 (us)",
        ],
    );
    for c in &cells {
        table.row(&[
            c.label.clone(),
            c.replicas.to_string(),
            c.sent.to_string(),
            format!("{:.0}", c.throughput_rps),
            format!("{:.1}%", c.slo_attainment * 100.0),
            format!("{:.1}%", c.shed_rate * 100.0),
            format!("{}/{}/{}", c.p50_us, c.p99_us, c.p999_us),
        ]);
    }
    table.finish("scale_load");

    let body = format!(
        "{{\n  \"benchmark\": \"scale_load\",\n  \"smoke\": {},\n  \"curve\": {{\"duration_ms\": {}, \"base_rps\": {}, \"rush_multiplier\": {}, \"slo_ms\": {}}},\n  \"cells\": [\n    {}\n  ]\n}}\n",
        smoke,
        curve.duration_ms,
        curve.base_rps,
        curve.rush_multiplier,
        curve.slo_ms,
        cells
            .iter()
            .map(|c| c.to_json())
            .collect::<Vec<_>>()
            .join(",\n    "),
    );
    // Atomic: the driver diffs this file across runs, so a crashed bench
    // must never leave a truncated JSON behind.
    match stgnn_faults::fsio::atomic_write("BENCH_scale.json", |w| w.write_all(body.as_bytes())) {
        Ok(()) => eprintln!("[scale_load] wrote BENCH_scale.json"),
        Err(e) => eprintln!("[scale_load] could not write BENCH_scale.json: {e}"),
    }
    println!(
        "Admission control sheds overload into the Historical-Average fallback instead of\n\
         queueing it; SLO attainment counts degraded answers, because degrading is how the\n\
         fleet meets its deadline under rush-hour load."
    );
}

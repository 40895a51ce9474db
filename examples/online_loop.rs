//! Online-loop demo: train-while-serving, end to end. Boots the prediction
//! server on a seeded synthetic city, then drives the crash-safe control
//! loop through a full lifecycle — stream trips into the sliding window
//! (which re-aggregates the FCG/PCG inputs over its days), fine-tune a
//! candidate from the incumbent, pass the promotion gate
//! (tape validator → holdout RMSE → shadow traffic), hot-swap it live,
//! then inject a live-RMSE regression and watch the watchdog restore the
//! incumbent bit-identically — all while the server answers requests.
//!
//! ```text
//! cargo run --release --example online_loop
//! ```
//!
//! CI runs this under a seeded `STGNN_FAULTS` delay plan on the
//! `online::*` seams: delays are semantically inert, so the slowed loop
//! must promote and roll back exactly as the quiet one does.

use std::sync::Arc;

use stgnn_djd::data::dataset::{BikeDataset, DatasetConfig, Split};
use stgnn_djd::data::synthetic::{CityConfig, SyntheticCity};
use stgnn_djd::model::StgnnConfig;
use stgnn_djd::online::{CycleOutcome, OnlineConfig, OnlineLoop, Phase};
use stgnn_djd::serve::client;
use stgnn_djd::serve::{ModelSpec, ServeConfig, Server};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A 12-day seeded city; the loop's 8-day window fine-tunes on a
    //    6/1/1-day train/val/test split per cycle.
    let mut city = CityConfig::test_tiny(2026);
    city.days = 12;
    let source = SyntheticCity::generate(city);
    let data = Arc::new(BikeDataset::from_city(&source, DatasetConfig::small(6, 2))?);
    let mut train = StgnnConfig::test_tiny(6, 2);
    train.epochs = 2;
    train.max_batches_per_epoch = Some(8);

    // 2. Boot the serve fleet and register the incumbent (version 1).
    let mut server = Server::start(Arc::clone(&data), ServeConfig::default())?;
    let registry = Arc::clone(server.registry());
    let spec = ModelSpec::new(train.clone(), data.n_stations());
    let incumbent_bytes = spec.materialize()?.weights_to_bytes();
    registry.register("stgnn", spec, incumbent_bytes.clone())?;
    let addr = server.addr();
    let slot = data.slots(Split::Test)[0];
    let predict = format!("/predict?model=stgnn&slot={slot}&deadline_ms=30000");
    println!("serving on http://{addr} (incumbent v1)");

    // 3. The online loop. Lenient gate tolerances keep the demo's
    //    promotion deterministic across seeds — production configs would
    //    keep the 5% defaults.
    let dir = std::env::temp_dir().join("stgnn_online_loop_demo");
    std::fs::create_dir_all(&dir)?;
    let _ = std::fs::remove_file(dir.join("loop.state"));
    let _ = std::fs::remove_file(dir.join("finetune.ckpt"));
    let mut config = OnlineConfig {
        model_name: "stgnn".into(),
        window_days: 8,
        dataset: DatasetConfig::small(6, 2),
        train,
        gate: Default::default(),
        watchdog: Default::default(),
        state_path: dir.join("loop.state"),
        checkpoint_path: dir.join("finetune.ckpt"),
        checkpoint_every: 8,
    };
    config.gate.holdout_tolerance = 2.0;
    config.gate.shadow_tolerance = 2.0;
    let mut looper = OnlineLoop::new(config.clone(), Arc::clone(&registry), &source)?;

    // 4. Stream days through the window until a candidate is promoted.
    let mut promoted_version = None;
    for cycle in 1.. {
        match looper.run_cycle()? {
            CycleOutcome::WindowFilling {
                days_buffered,
                window_days,
            } => {
                println!(
                    "cycle {cycle}: ingested day {days_buffered}/{window_days} \
                     (graph epoch {})",
                    looper.window().graph_epoch()
                );
            }
            CycleOutcome::Rejected { stage, reason } => {
                println!("cycle {cycle}: candidate rejected at {stage}: {reason}");
            }
            CycleOutcome::Promoted {
                version,
                gate,
                shadow,
            } => {
                println!(
                    "cycle {cycle}: PROMOTED v{version} — holdout RMSE {:.4} \
                     (incumbent {:.4}) over {} slots; shadow RMSE {:.4} vs {:.4} \
                     over {} slots, max divergence {:.4}, candidate latency {}µs",
                    gate.candidate_rmse,
                    gate.incumbent_rmse,
                    gate.slots,
                    shadow.candidate_rmse,
                    shadow.incumbent_rmse,
                    shadow.slots,
                    shadow.max_divergence,
                    shadow.candidate_latency_us,
                );
                promoted_version = Some(version);
                break;
            }
            other => {
                return Err(format!("unexpected cycle outcome: {other:?}").into());
            }
        }
        if cycle > 16 {
            return Err("loop never promoted a candidate".into());
        }
    }
    let promoted_version = promoted_version.unwrap_or(1);

    // 5. Live traffic against the candidate, then a healthy watchdog pass.
    let baseline = server.metrics_snapshot();
    for _ in 0..4 {
        let r = client::get(addr, &predict)?;
        assert_eq!(r.status, 200, "{}", r.body);
    }
    let now = server.metrics_snapshot();
    let healthy = looper.check_watchdogs(&baseline, &now, 1.0, 1.0)?;
    println!(
        "watchdogs after promotion: {healthy:?} (errors {} → {}, fallbacks {} → {})",
        baseline.errors, now.errors, baseline.fallbacks, now.fallbacks
    );

    // 6. The candidate regresses in the wild (injected live-RMSE spike):
    //    the watchdog restores the incumbent from the retained handle.
    let outcome = looper.check_watchdogs(&now, &server.metrics_snapshot(), 25.0, 1.0)?;
    let CycleOutcome::RolledBack { restored, reason } = outcome else {
        return Err(format!("expected a rollback, got {outcome:?}").into());
    };
    println!("rollback: v{promoted_version} → v{restored} ({reason})");
    let entry = registry
        .get("stgnn")
        .ok_or("model vanished from the registry")?;
    assert_eq!(entry.version(), restored);
    assert_eq!(
        entry.checkpoint().bytes,
        incumbent_bytes,
        "rollback must restore the incumbent bit-identically"
    );
    let r = client::get(addr, &predict)?;
    assert_eq!(r.status, 200, "{}", r.body);
    println!(
        "post-rollback request served (degraded {})",
        r.json_field("degraded").unwrap_or_default()
    );

    // 7. Crash-safety coda: a restarted loop resumes from the persisted
    //    state file to a named phase instead of starting over.
    drop(looper);
    let revived = OnlineLoop::new(config, registry, &source)?;
    println!(
        "restart: resumed from persisted phase {:?} → {:?} at day cursor {}",
        revived.resumed_from(),
        revived.state().phase,
        revived.state().day_cursor
    );
    assert_eq!(revived.state().phase, Phase::RolledBack);

    println!("\n{}", client::get(addr, "/models")?.body);
    let s = server.metrics_snapshot();
    println!(
        "serve metrics: {} requests, {} errors",
        s.requests, s.errors
    );
    assert_eq!(s.errors, 0, "the lifecycle must not surface a single error");
    server.shutdown();
    Ok(())
}

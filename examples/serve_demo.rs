//! Serving demo: train STGNN-DJD on a synthetic city, save a checkpoint,
//! boot the batching prediction server, and hammer it with concurrent
//! clients — then hot-swap the checkpoint live and watch the answers move.
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```
//!
//! It exits nonzero unless the eight concurrent same-slot queries cost one
//! forward pass, no answer is degraded, and the query after the swap
//! recomputes.

use std::sync::Arc;
use std::thread;

use stgnn_djd::data::dataset::{BikeDataset, DatasetConfig, Split};
use stgnn_djd::data::synthetic::{CityConfig, SyntheticCity};
use stgnn_djd::model::{StgnnConfig, StgnnDjd, Trainer};
use stgnn_djd::serve::client;
use stgnn_djd::serve::{ModelSpec, ServeConfig, Server};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Data + a briefly trained model.
    let city = SyntheticCity::generate(CityConfig::test_small(2024));
    let data = Arc::new(BikeDataset::from_city(&city, DatasetConfig::small(12, 2))?);
    let mut config = StgnnConfig::quick(12, 2);
    config.epochs = 5;
    let mut model = StgnnDjd::new(config.clone(), data.n_stations())?;
    let report = Trainer::new(config.clone()).train(&mut model, &data)?;
    println!(
        "trained {} epochs on {} stations; best val loss {:.4}",
        report.epochs_run,
        data.n_stations(),
        report.best_val_loss
    );

    // 2. Save the checkpoint the way an offline training job would.
    let ckpt_path = std::env::temp_dir().join("stgnn_serve_demo.ckpt");
    model.save_weights(&ckpt_path)?;
    let checkpoint = std::fs::read(&ckpt_path)?;
    println!(
        "checkpoint: {} bytes at {}",
        checkpoint.len(),
        ckpt_path.display()
    );

    // 3. Boot the server on an ephemeral port and register the model.
    let mut server = Server::start(Arc::clone(&data), ServeConfig::default())?;
    let spec = ModelSpec::new(config.clone(), data.n_stations());
    server.registry().register("stgnn", spec, checkpoint)?;
    let addr = server.addr();
    println!("serving on http://{addr}");

    // The registry already ran the tape validator as an admission gate
    // (a `Deny` would have rejected the checkpoint); surface the summary
    // and any `Warn` diagnostics so operators see them at startup.
    let tape = model.validate_inference_tape(&data, data.first_valid_slot())?;
    println!("tape validator: {}", tape.summary());
    for d in tape.at(stgnn_djd::analyze::Severity::Warn) {
        println!("  {d}");
    }

    // 4. Concurrent clients query the same upcoming slot — one forward pass
    //    answers them: queries queued while it runs join its batch or wait
    //    for it, and later ones hit the slot cache.
    let t = data.slots(Split::Test)[0];
    let handles: Vec<_> = (0..8)
        .map(|i| {
            thread::spawn(move || {
                let r = client::get(addr, &format!("/predict?model=stgnn&slot={t}&station={i}"))
                    .expect("predict");
                (i, r)
            })
        })
        .collect();
    let mut degraded = 0;
    for h in handles {
        let (i, r) = h.join().expect("client thread");
        let tag = r.json_field("degraded").unwrap_or_default();
        println!(
            "  station {i}: demand {} supply {} (degraded {tag})",
            r.json_field("demand").unwrap_or_default(),
            r.json_field("supply").unwrap_or_default(),
        );
        degraded += usize::from(tag != "false");
    }
    let concurrent_forwards = server.metrics_snapshot().forward_passes;

    // 5. Hot-swap a freshly initialised checkpoint over HTTP; the same slot
    //    is recomputed at the new version on the next query.
    let mut fresh_config = config;
    fresh_config.seed += 1;
    let fresh = StgnnDjd::new(fresh_config, data.n_stations())?.weights_to_bytes();
    let swap = client::post(addr, "/models/stgnn/swap", &fresh)?;
    println!(
        "hot-swap → version {}",
        swap.json_field("version").unwrap_or_default()
    );
    let r = client::get(addr, &format!("/predict?model=stgnn&slot={t}&station=0"))?;
    println!(
        "  station 0 after swap: demand {}",
        r.json_field("demand").unwrap_or_default()
    );
    degraded += usize::from(r.json_field("degraded").unwrap_or_default() != "false");

    // 6. The metrics surface shows what the pool actually did.
    println!("\n{}", client::get(addr, "/metrics")?.body);
    let forwards = server.metrics_snapshot().forward_passes;

    server.shutdown();
    std::fs::remove_file(&ckpt_path).ok();

    let mut failed = Vec::new();
    if concurrent_forwards != 1 {
        failed.push(format!(
            "{concurrent_forwards} forward passes for 8 same-slot queries, not 1"
        ));
    }
    if degraded != 0 {
        failed.push(format!("{degraded} answers were degraded"));
    }
    if forwards != 2 {
        failed.push(format!("{forwards} forward passes after the swap, not 2"));
    }
    if !failed.is_empty() {
        return Err(failed.join("; ").into());
    }
    println!("checks passed: one forward for 8 queries, none degraded, swap recomputed");
    Ok(())
}

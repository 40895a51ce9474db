//! Validates the real STGNN-DJD tapes — training (Eq 21 loss root) and
//! inference (demand/supply roots) — and prints the analyzer reports with
//! their FLOP/memory cost tables. Then compiles the training and the
//! inference plan of every configuration `StgnnConfig` offers: the 3×3
//! grid of FCG × PCG aggregators plus the three §VII-F ablations, and
//! prints each plan's in-place rewrite count. Compilation validates the
//! traced tape and refuses a `Deny`, so a compile error covers both.
//! Exits nonzero if either tape carries a `Deny` diagnostic or any
//! configuration fails to compile a plan. CI does not run it:
//! `tests/plan_parity.rs` compiles both plans of the same twelve
//! configurations in the test suite. Run it for the cost tables:
//!
//! ```text
//! cargo run -p stgnn-analyze --example validate_stgnn
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use stgnn_core::{FcgAggregator, PcgAggregator, StgnnConfig, StgnnDjd};
use stgnn_data::dataset::{BikeDataset, DatasetConfig};
use stgnn_data::synthetic::{CityConfig, SyntheticCity};

fn main() -> ExitCode {
    let city = SyntheticCity::generate(CityConfig::test_tiny(7));
    let data = match BikeDataset::from_city(&city, DatasetConfig::small(6, 2)) {
        Ok(d) => Arc::new(d),
        Err(e) => {
            eprintln!("dataset construction failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let model = match StgnnDjd::new(StgnnConfig::test_tiny(6, 2), data.n_stations()) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("model construction failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let slot = data.first_valid_slot();

    let mut ok = true;
    for (label, report) in [
        ("training tape", model.validate_training_tape(&data, slot)),
        ("inference tape", model.validate_inference_tape(&data, slot)),
    ] {
        match report {
            Ok(r) => {
                println!("== {label} (slot {slot}) ==");
                print!("{}", r.render());
                ok &= r.is_clean();
            }
            Err(e) => {
                eprintln!("{label}: probe failed: {e}");
                ok = false;
            }
        }
    }

    // Two layers per branch and live dropout put every layer kind and the
    // dropout draws between layers on the training tapes.
    let mut base = StgnnConfig::test_tiny(6, 2);
    base.fcg_layers = 2;
    base.pcg_layers = 2;
    base.dropout = 0.2;
    let mut configs = Vec::new();
    for fcg in [FcgAggregator::Flow, FcgAggregator::Mean, FcgAggregator::Max] {
        for pcg in [
            PcgAggregator::Attention,
            PcgAggregator::Mean,
            PcgAggregator::Max,
        ] {
            let mut config = base.clone();
            config.fcg_aggregator = fcg;
            config.pcg_aggregator = pcg;
            configs.push((format!("fcg={fcg:?} pcg={pcg:?}"), config));
        }
    }
    configs.push(("without_flow_conv".into(), base.clone().without_flow_conv()));
    configs.push(("without_fcg".into(), base.clone().without_fcg()));
    configs.push(("without_pcg".into(), base.without_pcg()));

    println!("== plan compilation ({} configurations) ==", configs.len());
    for (label, config) in configs {
        let model = match StgnnDjd::new(config, data.n_stations()) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("{label}: model construction failed: {e}");
                ok = false;
                continue;
            }
        };
        let train = model.compile_training_plan(&data, slot);
        let infer = model.compile_inference_plan(&data, slot);
        match (train, infer) {
            (Ok(Some(train)), Ok(Some(infer))) => println!(
                "{label}: training plan [in_place={}], inference plan [in_place={}]",
                train.in_place_nodes(),
                infer.in_place_nodes()
            ),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{label}: plan compilation failed: {e}");
                ok = false;
            }
            _ => {
                eprintln!("{label}: compiled no plan");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

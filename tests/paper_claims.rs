//! Qualitative paper claims verified at test scale.
//!
//! These are the fast, always-on versions of what the bench binaries verify
//! at experiment scale: the *relationships* the paper reports, not the
//! absolute numbers.

use stgnn_djd::data::dataset::{BikeDataset, DatasetConfig, Split};
use stgnn_djd::data::predictor::{evaluate, DemandSupplyPredictor};
use stgnn_djd::data::synthetic::{CityConfig, SyntheticCity};
use stgnn_djd::model::attention::dependency_vs_nearest;
use stgnn_djd::model::{StgnnConfig, StgnnDjd};

fn dataset(seed: u64) -> BikeDataset {
    let city = SyntheticCity::generate(CityConfig::test_tiny(seed));
    BikeDataset::from_city(&city, DatasetConfig::small(6, 2)).expect("dataset")
}

/// §VII-F: every ablation variant trains and produces finite metrics (the
/// quantitative ordering is asserted at bench scale in fig4_ablation).
#[test]
fn ablation_variants_all_train() {
    let data = dataset(3001);
    let slots: Vec<usize> = data.slots(Split::Test).into_iter().take(10).collect();
    let configs = [
        ("full", StgnnConfig::test_tiny(6, 2)),
        ("no_fc", StgnnConfig::test_tiny(6, 2).without_flow_conv()),
        ("no_fcg", StgnnConfig::test_tiny(6, 2).without_fcg()),
        ("no_pcg", StgnnConfig::test_tiny(6, 2).without_pcg()),
    ];
    for (name, config) in configs {
        let mut model = StgnnDjd::new(config, data.n_stations()).expect("model");
        model.fit(&data).unwrap_or_else(|e| panic!("{name}: {e}"));
        let row = evaluate(&model, &data, &slots);
        assert!(row.rmse_mean.is_finite() && row.rmse_mean > 0.0, "{name}");
    }
}

/// §VII-G: aggregator swaps train end-to-end on both graphs.
#[test]
fn aggregator_swaps_all_train() {
    use stgnn_djd::model::{FcgAggregator, PcgAggregator};
    let data = dataset(3002);
    let slots: Vec<usize> = data.slots(Split::Test).into_iter().take(8).collect();
    for fcg in [FcgAggregator::Flow, FcgAggregator::Mean, FcgAggregator::Max] {
        for pcg in [
            PcgAggregator::Attention,
            PcgAggregator::Mean,
            PcgAggregator::Max,
        ] {
            let mut config = StgnnConfig::test_tiny(6, 2);
            config.fcg_aggregator = fcg;
            config.pcg_aggregator = pcg;
            let mut model = StgnnDjd::new(config, data.n_stations()).expect("model");
            model
                .fit(&data)
                .unwrap_or_else(|e| panic!("{fcg:?}/{pcg:?}: {e}"));
            let row = evaluate(&model, &data, &slots);
            assert!(row.rmse_mean.is_finite(), "{fcg:?}/{pcg:?}");
        }
    }
}

/// §VIII: the learned dependency is dynamic — it differs across slots and
/// across station pairs (Figures 11–12's first two observations).
#[test]
fn learned_dependency_is_dynamic() {
    let data = dataset(3003);
    let mut model = StgnnDjd::new(StgnnConfig::test_tiny(6, 2), data.n_stations()).expect("model");
    model.fit(&data).expect("fit");
    let slots: Vec<usize> = data.slots(Split::Test).into_iter().take(6).collect();
    let dep = dependency_vs_nearest(&model, &data, 0, 5, &slots).expect("attention");

    // Varies over time: at least one neighbour's score changes across slots.
    let time_varying = (0..5).any(|j| {
        let col: Vec<f32> = dep.to_target.iter().map(|row| row[j]).collect();
        col.iter().any(|&v| (v - col[0]).abs() > 1e-6)
    });
    assert!(time_varying, "attention constant over time");

    // Varies across pairs at a fixed time.
    let pair_varying = dep
        .to_target
        .iter()
        .any(|row| row.iter().any(|&v| (v - row[0]).abs() > 1e-6));
    assert!(pair_varying, "attention constant across pairs");
}

/// §I / §VIII: the synthetic city's ground truth itself violates locality —
/// flow between adjacent stations is *not* the strongest (bikes are not
/// ridden between next-door docks), so the locality prior is wrong by
/// construction, as the paper argues for the real systems.
#[test]
fn ground_truth_flow_violates_locality() {
    let city = SyntheticCity::generate(CityConfig::test_small(3004));
    let flows = stgnn_djd::data::flow::FlowSeries::from_trips(
        &city.trips,
        city.registry.len(),
        city.config.days,
        city.config.slots_per_day,
    )
    .expect("flows");
    // Total outflow per pair.
    let n = city.registry.len();
    let mut total = vec![0.0f32; n * n];
    for t in 0..flows.num_slots() {
        for e in flows.outflow(t) {
            total[e.origin as usize * n + e.dest as usize] += e.count as f32;
        }
    }
    // For a majority of stations, the nearest neighbour is NOT the largest
    // flow partner.
    let mut violations = 0;
    for i in 0..n {
        let nearest = city.registry.nearest(i, 1)[0];
        let best_partner = (0..n).max_by(|&a, &b| {
            total[i * n + a]
                .partial_cmp(&total[i * n + b])
                .expect("finite")
        });
        if best_partner != Some(nearest) {
            violations += 1;
        }
    }
    assert!(
        violations * 2 > n,
        "locality unexpectedly holds: {violations}/{n}"
    );
}

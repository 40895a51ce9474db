//! Allocation gate: a training run must reach a **zero-pool-miss steady
//! state** — `allocs_per_step == 0` over the final epoch's batch loop, as
//! reported by [`stgnn_core::TrainReport`] — in the standard configuration
//! and in those whose FCG structure derives from each slot's data, and
//! the tensor pool must keep only what it can hand out again: adopted
//! storage goes back to the allocator, and a lane's gradients die with its
//! backward sweep.
//!
//! This file holds exactly one test on purpose: the tensor pool's counters
//! are process-global, and cargo runs same-binary tests on parallel
//! threads, so any sibling test would race the measurement windows. A
//! dedicated integration binary gives the measurement its own process.

use stgnn_core::{FcgAggregator, StgnnConfig, StgnnDjd, Trainer};
use stgnn_data::dataset::{BikeDataset, DatasetConfig, Split};
use stgnn_data::synthetic::{CityConfig, SyntheticCity};
use stgnn_tensor::{pool, Shape, Tensor};

#[test]
fn training_reaches_zero_pool_misses_after_warm_up() {
    // Adopted storage is never shelved: its capacity need not be a size
    // class the pool can hand out again.
    let shelved = pool::stats().pooled_bytes;
    drop(Tensor::from_vec(Shape::vector(100_000), vec![1.0; 100_000]).unwrap());
    assert_eq!(
        pool::stats().pooled_bytes,
        shelved,
        "a dropped adopted buffer must go back to the allocator, not a shelf"
    );

    let city = SyntheticCity::generate(CityConfig::test_tiny(71));
    let data = BikeDataset::from_city(&city, DatasetConfig::small(6, 2)).unwrap();
    let mut config = StgnnConfig::test_tiny(6, 2);
    // Enough epochs for the pool and the plan executors to warm up (epoch
    // 0 populates both) with patience to match, so the final epoch is pure
    // steady state.
    config.epochs = 4;
    config.patience = 4;
    config.max_batches_per_epoch = Some(4);
    let mut model = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
    let report = Trainer::new(config.clone())
        .train(&mut model, &data)
        .unwrap();
    assert!(
        report.used_compiled_plan,
        "standard config must route through the compiled plan"
    );
    assert!(
        report.epochs_run >= 2,
        "need a post-warm-up epoch to measure"
    );
    assert_eq!(
        report.allocs_per_step, 0.0,
        "steady-state training must not miss the pool (got {} misses/step \
         over the final epoch)",
        report.allocs_per_step
    );

    // A backward sweep deposits into the parameter cells and releases its
    // lane's gradient slots: it leaves no more live storage than the
    // forward it follows.
    let t = data.slots(Split::Train)[0];
    let plan = model
        .compile_training_plan(&data, t)
        .unwrap()
        .expect("standard config must compile");
    let mut lane = plan.executor();
    let mut step = || {
        model.params().zero_grads();
        model.plan_step_forward(&plan, &mut lane, &data, t).unwrap();
        let after_forward = pool::stats().outstanding_bytes;
        model.plan_step_backward(&plan, &mut lane, 1.0).unwrap();
        (after_forward, pool::stats().outstanding_bytes)
    };
    step();
    let (after_forward, after_backward) = step();
    assert_eq!(
        after_backward,
        after_forward,
        "a lane's gradients must not outlive its backward sweep ({} bytes \
         still live)",
        after_backward - after_forward
    );

    // The FCG max aggregator pools over each slot's mask, and "No FC"
    // derives that mask from the raw windows; both replay like the rest.
    let mut fcg_max = config.clone();
    fcg_max.fcg_aggregator = FcgAggregator::Max;
    let no_fc = config.clone().without_flow_conv();
    for (name, c) in [("fcg-max", fcg_max), ("no-fc", no_fc)] {
        let mut m = StgnnDjd::new(c.clone(), data.n_stations()).unwrap();
        let report = Trainer::new(c).train(&mut m, &data).unwrap();
        assert!(report.used_compiled_plan, "{name}");
        assert!(report.epochs_run >= 2, "{name}: no post-warm-up epoch");
        assert_eq!(
            report.allocs_per_step, 0.0,
            "{name}: steady-state training must not miss the pool"
        );
    }
}

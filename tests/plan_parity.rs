//! Compiled-plan replay must be **bit-identical** to eager execution for
//! the full STGNN-DJD model — values, losses, and parameter gradients —
//! in every configuration, including those whose graph structure derives
//! from each slot's data.
//!
//! Identical seeds give identical parameter initialisation and identical
//! dropout RNG streams, so two fresh models with the same config are
//! exact twins; one runs eager, the other through the plan.

use stgnn_core::config::{FcgAggregator, PcgAggregator, StgnnConfig};
use stgnn_core::model::{ModelInputs, StgnnDjd};
use stgnn_core::Trainer;
use stgnn_data::dataset::{BikeDataset, DatasetConfig, Split};
use stgnn_data::synthetic::{CityConfig, SyntheticCity};
use stgnn_tensor::autograd::Graph;
use stgnn_tensor::Tensor;

fn dataset(seed: u64) -> BikeDataset {
    let city = SyntheticCity::generate(CityConfig::test_tiny(seed));
    BikeDataset::from_city(&city, DatasetConfig::small(6, 2)).unwrap()
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at {i}: {x} vs {y}"
        );
    }
}

/// Compiles `model`'s inference plan at the first test slot, replays it
/// over the first `count` test slots, and asserts every horizon's demand
/// and supply bit-identical to the eager `predict_horizon`.
fn assert_plan_predictions_match_eager(
    model: &StgnnDjd,
    data: &BikeDataset,
    count: usize,
    name: &str,
) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let slots = data.slots(Split::Test);
    let plan = model
        .compile_inference_plan(data, slots[0])
        .unwrap()
        .expect("every configuration compiles");
    let mut exec = plan.executor();
    for &t in slots.iter().take(count) {
        let eager = model.predict_horizon(data, t);
        let replay = model
            .plan_predict_horizon(&plan, &mut exec, data, t)
            .unwrap();
        assert_eq!(eager.len(), replay.len(), "{name} slot {t}");
        for (h, (e, r)) in eager.iter().zip(&replay).enumerate() {
            assert_eq!(
                bits(&e.demand),
                bits(&r.demand),
                "{name} slot {t} h {h} demand"
            );
            assert_eq!(
                bits(&e.supply),
                bits(&r.supply),
                "{name} slot {t} h {h} supply"
            );
        }
    }
}

/// A compiled inference plan replayed across several slots must reproduce
/// the eager `predict_horizon` byte-for-byte, in the default configuration
/// and in every configuration `validate_stgnn` compiles.
#[test]
fn inference_plan_predictions_are_bit_identical_to_eager() {
    let data = dataset(301);
    let default = ("default".to_string(), StgnnConfig::test_tiny(6, 2));
    for (name, config) in std::iter::once(default).chain(every_configuration()) {
        let model = StgnnDjd::new(config, data.n_stations()).unwrap();
        assert_plan_predictions_match_eager(&model, &data, 6, &name);
    }
}

/// One full training batch — forward radicands, the batch-RMSE chain
/// factor, and every accumulated parameter gradient — replayed on a twin
/// model must match the eager batch bitwise. Dropout is enabled so the
/// test also proves the plan consumes the RNG stream exactly like eager.
#[test]
fn training_plan_batch_matches_eager_bitwise() {
    let data = dataset(302);
    let mut config = StgnnConfig::test_tiny(6, 2);
    // Dropout sits *between* GNN layers, so two layers per branch are
    // needed to put draws on the tape — exercising RNG-stream parity, not
    // just kernels.
    config.dropout = 0.2;
    config.fcg_layers = 2;
    config.pcg_layers = 2;
    let eager = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
    let twin = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();

    let train = data.slots(Split::Train);
    let batch: Vec<usize> = train.iter().take(3).copied().collect();
    let horizon = config.horizon;

    // Eager reference batch (the trainer's exact recipe).
    eager.params().zero_grads();
    let mut slot_losses = Vec::new();
    let mut radicand_e = 0.0f64;
    for &t in &batch {
        let g = Graph::new();
        let inputs = ModelInputs::from_dataset(&data, t);
        let out = eager.forward(&g, &inputs, true);
        let (dt, st) = data.targets_horizon(t, horizon).unwrap();
        let sq = eager.squared_loss(&g, &out, &dt, &st);
        radicand_e += sq.value().scalar() as f64 / batch.len() as f64;
        slot_losses.push(sq);
    }
    let batch_loss = (radicand_e.max(0.0)).sqrt() as f32;
    let grad_scale = 1.0 / (2.0 * batch.len() as f32 * batch_loss.max(1e-6));
    for sq in slot_losses {
        sq.mul_scalar(grad_scale).backward();
    }

    // Twin batch through the compiled plan (probe clones the RNG, so the
    // twin's stream still matches the eager model's pre-batch state).
    let plan = twin
        .compile_training_plan(&data, batch[0])
        .unwrap()
        .expect("standard config must compile");
    assert!(
        plan.needs_rng(),
        "dropout 0.2 must put RNG draws on the tape"
    );
    twin.params().zero_grads();
    let mut lanes: Vec<_> = batch.iter().map(|_| plan.executor()).collect();
    let mut radicand_p = 0.0f64;
    for (lane, &t) in batch.iter().enumerate() {
        let sq = twin
            .plan_step_forward(&plan, &mut lanes[lane], &data, t)
            .unwrap();
        radicand_p += sq as f64 / batch.len() as f64;
    }
    assert_eq!(radicand_e.to_bits(), radicand_p.to_bits(), "batch radicand");
    for lane in &mut lanes {
        twin.plan_step_backward(&plan, lane, grad_scale).unwrap();
    }

    for (pe, pt) in eager.params().params().iter().zip(twin.params().params()) {
        assert_eq!(pe.name(), pt.name(), "param order diverged");
        pe.with_grad(|ge| {
            pt.with_grad(|gt| assert_bits_eq(ge, gt, &format!("grad of {}", pe.name())));
        });
    }
}

/// The eager reference for the training-batch parity tests: one training
/// batch (3 slots, dropout on, 2 GNN layers per branch) run with the
/// trainer's exact recipe. Returns the batch radicand and every parameter
/// gradient.
fn eager_reference(data: &BikeDataset, config: &StgnnConfig) -> (f64, Vec<Tensor>) {
    let model = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
    let train = data.slots(Split::Train);
    let batch: Vec<usize> = train.iter().take(3).copied().collect();
    model.params().zero_grads();
    let mut slot_losses = Vec::new();
    let mut radicand = 0.0f64;
    for &t in &batch {
        let g = Graph::new();
        let inputs = ModelInputs::from_dataset(data, t);
        let out = model.forward(&g, &inputs, true);
        let (dt, st) = data.targets_horizon(t, config.horizon).unwrap();
        let sq = model.squared_loss(&g, &out, &dt, &st);
        radicand += sq.value().scalar() as f64 / batch.len() as f64;
        slot_losses.push(sq);
    }
    let batch_loss = (radicand.max(0.0)).sqrt() as f32;
    let grad_scale = 1.0 / (2.0 * batch.len() as f32 * batch_loss.max(1e-6));
    for sq in slot_losses {
        sq.mul_scalar(grad_scale).backward();
    }
    let grads = model
        .params()
        .params()
        .iter()
        .map(|p| p.with_grad(|g| g.clone()))
        .collect();
    (radicand, grads)
}

/// Runs the same batch on a twin model through a compiled training plan
/// and returns the radicand and gradients.
fn plan_run(data: &BikeDataset, config: &StgnnConfig) -> (f64, Vec<Tensor>) {
    let twin = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
    let train = data.slots(Split::Train);
    let batch: Vec<usize> = train.iter().take(3).copied().collect();
    let plan = twin
        .compile_training_plan(data, batch[0])
        .unwrap()
        .expect("every configuration compiles");
    twin.params().zero_grads();
    let mut lanes: Vec<_> = batch.iter().map(|_| plan.executor()).collect();
    let mut radicand = 0.0f64;
    for (lane, &t) in batch.iter().enumerate() {
        let sq = twin
            .plan_step_forward(&plan, &mut lanes[lane], data, t)
            .unwrap();
        radicand += sq as f64 / batch.len() as f64;
    }
    let batch_loss = (radicand.max(0.0)).sqrt() as f32;
    let grad_scale = 1.0 / (2.0 * batch.len() as f32 * batch_loss.max(1e-6));
    for lane in &mut lanes {
        twin.plan_step_backward(&plan, lane, grad_scale).unwrap();
    }
    let grads = twin
        .params()
        .params()
        .iter()
        .map(|p| p.with_grad(|g| g.clone()))
        .collect();
    (radicand, grads)
}

/// The twelve configurations `validate_stgnn` compiles: the 3×3 grid of
/// FCG × PCG aggregators and the three §VII-F ablations, each with two GNN
/// layers per branch and dropout 0.2 between them. The FCG max and mean
/// aggregators and the "No FC" ablation derive graph structure from each
/// slot's data (the max pool's and the mean adjacency's mask, and No FC's
/// mask from the raw short-term windows), which the plan re-derives on
/// every replay.
fn every_configuration() -> Vec<(String, StgnnConfig)> {
    let mut base = StgnnConfig::test_tiny(6, 2);
    base.dropout = 0.2;
    base.fcg_layers = 2;
    base.pcg_layers = 2;
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
    configs
}

/// The plan's rewrites — blocked GEMM for every matmul, in-place buffer
/// steals wherever liveness allows — must leave one dropout training batch
/// bit-identical to eager in every configuration: the radicand and every
/// parameter gradient.
#[test]
fn every_optimizer_pass_is_bitwise_parity_preserving() {
    let data = dataset(306);
    let configs = every_configuration();
    assert_eq!(configs.len(), 12);
    for (name, config) in &configs {
        let (radicand_e, grads_e) = eager_reference(&data, config);
        let (radicand_p, grads_p) = plan_run(&data, config);
        assert_eq!(
            radicand_e.to_bits(),
            radicand_p.to_bits(),
            "{name}: radicand drifted"
        );
        assert_eq!(grads_e.len(), grads_p.len());
        for (i, (ge, gp)) in grads_e.iter().zip(&grads_p).enumerate() {
            assert_bits_eq(ge, gp, &format!("{name}: param {i} grad"));
        }
    }
}

/// End-to-end: a standard-config training run reports that it replayed the
/// compiled plan, and its loss trajectory matches a bitwise-identical twin
/// trained before plan routing existed (the eager recipe is deterministic,
/// so equality across the two paths is checkable via the report).
#[test]
fn trainer_reports_compiled_plan_for_standard_config() {
    let data = dataset(305);
    let mut config = StgnnConfig::test_tiny(6, 2);
    config.epochs = 3;
    config.max_batches_per_epoch = Some(4);
    let mut model = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
    let report = Trainer::new(config).train(&mut model, &data).unwrap();
    assert!(report.used_compiled_plan);
    assert!(report.train_losses.iter().all(|l| l.is_finite()));
}

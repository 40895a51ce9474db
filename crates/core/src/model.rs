//! The assembled STGNN-DJD network (§III-B overview, §VI predictor).
//!
//! Pipeline per target slot `t`:
//!
//! 1. Flow convolution (Eqs 1–9) turns the input windows into station
//!    features `T` (or a free feature table under the "No FC" ablation).
//! 2. The FCG branch aggregates over the dynamic flow graph (Eqs 10, 13–14).
//! 3. The PCG branch aggregates with dense multi-head attention (Eqs 11–12,
//!    15–18).
//! 4. Branch embeddings concatenate (Eq 19) and a linear head emits demand
//!    and supply per station (Eq 20).
//!
//! ### Dimension correction to Eq 20
//!
//! The paper states `W₁₁ ∈ R^{n×2}`, but Eq 19 gives `F_i ∈ R^{1×2n}`
//! (concatenation of two `1×n` embeddings), so the head must be
//! `R^{2n×2}`; we use the dimensionally consistent form (see DESIGN.md).

use crate::compiled::{derived_leaf, ForwardTrace};
use crate::config::StgnnConfig;
use crate::fcg::FcgNetwork;
use crate::flow_conv::{fcg_mask, FlowConvOutput, FlowConvolution, FreeNodeFeatures};
use crate::pcg::PcgNetwork;
use crate::trainer::Trainer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;
use stgnn_data::dataset::BikeDataset;
use stgnn_data::error::{Error, Result};
use stgnn_data::predictor::{DemandSupplyPredictor, Prediction};
use stgnn_tensor::autograd::{Graph, Param, ParamSet, Var};
use stgnn_tensor::loss::joint_demand_supply_loss;
use stgnn_tensor::nn::xavier_uniform;
use stgnn_tensor::plan::LeafBinding;
use stgnn_tensor::{Shape, Tensor};

/// One slot's model inputs: flattened flow window stacks.
pub struct ModelInputs {
    /// Short-term inflow stack `(k, n·n)`.
    pub short_in: Tensor,
    /// Short-term outflow stack `(k, n·n)`.
    pub short_out: Tensor,
    /// Long-term inflow stack `(d, n·n)`.
    pub long_in: Tensor,
    /// Long-term outflow stack `(d, n·n)`.
    pub long_out: Tensor,
}

impl ModelInputs {
    /// Assembles the inputs for target slot `t` from a dataset.
    pub fn from_dataset(data: &BikeDataset, t: usize) -> Self {
        let (short_in, short_out) = data.short_term_stacks(t);
        let (long_in, long_out) = data.long_term_stacks(t);
        ModelInputs {
            short_in,
            short_out,
            long_in,
            long_out,
        }
    }
}

/// One forward pass's outputs on the tape.
pub struct ForwardOutput {
    /// Normalised demand predictions `x̂ ∈ R^{n×horizon}` (column `h` is
    /// slot `t + h`; the paper's task is `horizon = 1`).
    pub demand: Var,
    /// Normalised supply predictions `ŷ ∈ R^{n×horizon}`.
    pub supply: Var,
    /// Per-PCG-layer head-averaged attention matrices (empty when the PCG
    /// branch is disabled or uses a non-attention aggregator).
    pub pcg_attention: Vec<Tensor>,
}

/// The STGNN-DJD model. Construct with [`StgnnDjd::new`], train with
/// [`Trainer`] (or the [`DemandSupplyPredictor::fit`] shortcut), predict
/// with [`DemandSupplyPredictor::predict`].
pub struct StgnnDjd {
    config: StgnnConfig,
    n: usize,
    params: ParamSet,
    flow_conv: Option<FlowConvolution>,
    free_features: Option<FreeNodeFeatures>,
    fcg: Option<FcgNetwork>,
    pcg: Option<PcgNetwork>,
    /// Optional hidden predictor layer (weights, bias); see
    /// [`StgnnConfig::predictor_hidden`].
    hidden: Option<(Rc<Param>, Rc<Param>)>,
    /// Eq 20 head.
    w11: Rc<Param>,
    /// Dropout / shuffling RNG, owned so `forward` can stay `&self`.
    rng: RefCell<StdRng>,
    name: String,
    trained: bool,
}

impl StgnnDjd {
    /// Builds the model for `n` stations. Fails on inconsistent
    /// configuration (see [`StgnnConfig::validate`]).
    pub fn new(config: StgnnConfig, n: usize) -> Result<Self> {
        config.validate()?;
        if n == 0 {
            return Err(Error::InvalidConfig(
                "model needs at least one station".into(),
            ));
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut params = ParamSet::new();
        let flow_conv = config
            .use_flow_conv
            .then(|| FlowConvolution::new(&mut params, &mut rng, &config, n));
        let free_features =
            (!config.use_flow_conv).then(|| FreeNodeFeatures::new(&mut params, &mut rng, n));
        let fcg = config
            .use_fcg
            .then(|| FcgNetwork::new(&mut params, &mut rng, &config, n));
        let pcg = config
            .use_pcg
            .then(|| PcgNetwork::new(&mut params, &mut rng, &config, n));
        let branches = usize::from(config.use_fcg) + usize::from(config.use_pcg);
        let embed = branches * n;
        let hidden = config.predictor_hidden.map(|h| {
            (
                params.add("predictor.wh", xavier_uniform(&mut rng, embed, h)),
                params.add("predictor.bh", Tensor::zeros(Shape::matrix(1, h))),
            )
        });
        let head_in = config.predictor_hidden.unwrap_or(embed);
        let w11 = params.add(
            "predictor.w11",
            xavier_uniform(&mut rng, head_in, 2 * config.horizon),
        );
        Ok(StgnnDjd {
            config,
            n,
            params,
            flow_conv,
            free_features,
            fcg,
            pcg,
            hidden,
            w11,
            rng: RefCell::new(rng),
            name: "STGNN-DJD".into(),
            trained: false,
        })
    }

    /// Overrides the display name (used by ablation variants in tables).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The model's configuration.
    pub fn config(&self) -> &StgnnConfig {
        &self.config
    }

    /// Number of stations the model was built for.
    pub fn n_stations(&self) -> usize {
        self.n
    }

    /// The learnable parameters (shared with the optimizer).
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Whether [`DemandSupplyPredictor::fit`] has completed.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Marks the model trained (used by [`Trainer`]).
    pub(crate) fn set_trained(&mut self) {
        self.trained = true;
    }

    /// Runs one forward pass on a fresh or shared tape. `train` enables
    /// dropout (drawn from the model's RNG).
    pub fn forward(&self, g: &Graph, inputs: &ModelInputs, train: bool) -> ForwardOutput {
        let mut rng = self.rng.borrow_mut();
        self.forward_traced(g, inputs, train, &mut rng, None)
    }

    /// [`Self::forward`] with an explicit dropout RNG and an optional
    /// [`ForwardTrace`] recorder — the entry point plan compilation uses to
    /// learn how each leaf gets its value on replay (see `crate::compiled`).
    pub fn forward_traced(
        &self,
        g: &Graph,
        inputs: &ModelInputs,
        train: bool,
        rng: &mut StdRng,
        mut trace: Option<&mut ForwardTrace>,
    ) -> ForwardOutput {
        // The input windows, rebound from `inputs[0..4]` on replay.
        let windows = [
            &inputs.short_in,
            &inputs.short_out,
            &inputs.long_in,
            &inputs.long_out,
        ]
        .map(|w| g.leaf(w.clone()));
        if let Some(tr) = trace.as_deref_mut() {
            for (i, w) in windows.iter().enumerate() {
                tr.bindings.push((w.id(), LeafBinding::Input(i)));
            }
        }

        // 1. Node features, and the FCG structural mask as a leaf a replay
        //    re-derives from the values eager mode computes it from.
        let with_fcg = self.fcg.is_some();
        let (t, mask) = match (&self.flow_conv, &self.free_features) {
            (Some(fc), _) => {
                let FlowConvOutput { t, i_hat, o_hat } = fc.forward_windows(g, &windows);
                let mask = with_fcg.then(|| {
                    derived_leaf(g, trace.as_deref_mut(), [&i_hat, &o_hat], |[i, o]| {
                        fcg_mask(i, o)
                    })
                });
                (t, mask)
            }
            (None, Some(free)) => {
                // "No FC": free features; the FCG mask falls back to raw
                // observed flow in the short-term window.
                let n = self.n;
                let [short_in, short_out, ..] = &windows;
                let mask = with_fcg.then(|| {
                    derived_leaf(
                        g,
                        trace.as_deref_mut(),
                        [short_in, short_out],
                        move |[i, o]| raw_flow_mask(i, o, n),
                    )
                });
                (free.forward(g), mask)
            }
            (None, None) => unreachable!("constructor guarantees a feature source"),
        };

        // 2–3. Branch embeddings.
        let mut branch_embeddings: Vec<Var> = Vec::with_capacity(2);
        let mut pcg_attention = Vec::new();
        if let (Some(fcg), Some(mask)) = (&self.fcg, &mask) {
            let train_rng = train.then_some(&mut *rng);
            branch_embeddings.push(fcg.forward_traced(g, &t, mask, train_rng, trace));
        }
        if let Some(pcg) = &self.pcg {
            let train_rng = train.then_some(&mut *rng);
            let (f_p, attn) = pcg.forward_with_attention(g, &t, train_rng);
            pcg_attention = attn;
            branch_embeddings.push(f_p);
        }

        // 4. Eq 19 concat + predictor head (optional hidden layer, then the
        //    Eq 20 linear readout).
        let refs: Vec<&Var> = branch_embeddings.iter().collect();
        let mut embedding = if refs.len() == 1 {
            refs[0].clone()
        } else {
            g.concat_cols(&refs)
        };
        if let Some((wh, bh)) = &self.hidden {
            embedding = embedding
                .matmul(&g.param(wh))
                .add_row_broadcast(&g.param(bh))
                .relu();
        }
        let h = self.config.horizon;
        let out = embedding.matmul(&g.param(&self.w11)); // n×2h
        let out_t = out.transpose(); // 2h×n
        let demand = out_t.slice_rows(0, h).transpose();
        let supply = out_t.slice_rows(h, 2 * h).transpose();
        ForwardOutput {
            demand,
            supply,
            pcg_attention,
        }
    }

    /// Builds the Eq 21 loss for one slot against normalised targets.
    pub fn loss(
        &self,
        g: &Graph,
        output: &ForwardOutput,
        demand_true: &Tensor,
        supply_true: &Tensor,
    ) -> Var {
        joint_demand_supply_loss(
            &output.demand,
            &g.leaf(demand_true.clone()),
            &output.supply,
            &g.leaf(supply_true.clone()),
        )
    }

    /// The radicand of Eq 21 for one slot: `mse(demand) + mse(supply)`.
    ///
    /// The trainer accumulates this across a batch and applies the square
    /// root once per batch. Applying Eq 21's √ per slot instead would scale
    /// each slot's gradient by `1/√mse_slot`, systematically down-weighting
    /// the hardest slots (rush hours) — the opposite of what training needs.
    pub fn squared_loss(
        &self,
        g: &Graph,
        output: &ForwardOutput,
        demand_true: &Tensor,
        supply_true: &Tensor,
    ) -> Var {
        self.squared_loss_traced(g, output, demand_true, supply_true, None)
    }

    /// [`Self::squared_loss`] recording the two target leaves in `trace` so
    /// plan compilation rebinds them per training slot (`inputs[4..6]`).
    pub fn squared_loss_traced(
        &self,
        g: &Graph,
        output: &ForwardOutput,
        demand_true: &Tensor,
        supply_true: &Tensor,
        trace: Option<&mut ForwardTrace>,
    ) -> Var {
        let demand_leaf = g.leaf(demand_true.clone());
        let supply_leaf = g.leaf(supply_true.clone());
        if let Some(tr) = trace {
            tr.bindings.push((demand_leaf.id(), LeafBinding::Input(4)));
            tr.bindings.push((supply_leaf.id(), LeafBinding::Input(5)));
        }
        let d = output.demand.sub(&demand_leaf).square().mean_all();
        let s = output.supply.sub(&supply_leaf).square().mean_all();
        d.add(&s)
    }

    /// Evaluation-mode forward returning the final-layer PCG attention
    /// matrix (head-averaged), for the §VIII case study. `None` when the
    /// PCG branch is off or not attention-based.
    pub fn pcg_attention_at(&self, data: &BikeDataset, t: usize) -> Option<Tensor> {
        let g = Graph::new();
        let inputs = ModelInputs::from_dataset(data, t);
        let out = self.forward(&g, &inputs, false);
        out.pcg_attention.last().cloned()
    }

    /// Predicts all `horizon` future slots starting at `t` (the §IX
    /// multi-step extension). Element `h` of the result forecasts slot
    /// `t + h`. With the default `horizon = 1` this is exactly
    /// [`DemandSupplyPredictor::predict`].
    pub fn predict_horizon(&self, data: &BikeDataset, t: usize) -> Vec<Prediction> {
        let g = Graph::new();
        let inputs = ModelInputs::from_dataset(data, t);
        let out = self.forward(&g, &inputs, false);
        self.predictions_from_values(&out.demand.value(), &out.supply.value(), data)
    }

    /// Denormalises raw n×horizon demand/supply outputs into per-slot
    /// [`Prediction`]s — shared by the eager path above and the compiled
    /// plan replay path (`crate::compiled`).
    pub(crate) fn predictions_from_values(
        &self,
        dv: &Tensor,
        sv: &Tensor,
        data: &BikeDataset,
    ) -> Vec<Prediction> {
        let n = self.n;
        (0..self.config.horizon)
            .map(|h| {
                let col = |m: &Tensor| -> Vec<f32> {
                    (0..n)
                        .map(|i| (m.get2(i, h) * data.target_scale()).max(0.0))
                        .collect()
                };
                Prediction {
                    demand: col(dv),
                    supply: col(sv),
                }
            })
            .collect()
    }

    /// The model's dropout RNG cell — plan compilation clones it to probe a
    /// training tape without advancing the real stream, and plan replay
    /// borrows it mutably so compiled steps consume the stream exactly like
    /// eager steps would.
    pub(crate) fn rng_cell(&self) -> &RefCell<StdRng> {
        &self.rng
    }

    /// Saves the trained weights to `path` (see `stgnn_tensor::serialize`).
    /// The write is atomic: temp sibling + fsync + rename, so a crash
    /// mid-save leaves any previous weights file intact.
    pub fn save_weights(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        stgnn_faults::fsio::atomic_write(path, |w| self.save_weights_to_writer(w))
    }

    /// Writes the weights to any `Write` sink — e.g. an in-memory buffer for
    /// a serving registry's hot-swap checkpoint.
    pub fn save_weights_to_writer(&self, writer: impl std::io::Write) -> std::io::Result<()> {
        stgnn_tensor::serialize::save_params(&self.params, writer)
    }

    /// The serialized checkpoint as bytes (convenience over
    /// [`Self::save_weights_to_writer`]).
    pub fn weights_to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.save_weights_to_writer(&mut buf)
            .expect("in-memory serialization cannot fail");
        buf
    }

    /// Loads weights from `path` into a model built with the *same
    /// configuration* (names and shapes must match exactly) and marks it
    /// trained.
    pub fn load_weights(&mut self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        self.load_weights_from_bytes(&std::fs::read(path)?)
    }

    /// Loads weights from any `Read` source (same contract as
    /// [`Self::load_weights`]).
    pub fn load_weights_from_reader(
        &mut self,
        mut reader: impl std::io::Read,
    ) -> std::io::Result<()> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        self.load_weights_from_bytes(&bytes)
    }

    /// Loads weights from a serialized record (the inverse of
    /// [`Self::weights_to_bytes`]; same contract as [`Self::load_weights`]).
    /// The serving registry validates and materialises checkpoints through
    /// it: reading the bytes in place, not through a reader's copy, keeps
    /// each worker's model build from holding a second copy of the record.
    pub fn load_weights_from_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        stgnn_tensor::serialize::load_params(&self.params, bytes)?;
        self.trained = true;
        Ok(())
    }

    /// Traces one evaluation-mode forward pass plus the Eq 21 loss for slot
    /// `t` on a throwaway tape and runs the pre-execution validator over it
    /// with the loss as the analysis root. Evaluation mode draws nothing
    /// from the model's RNG, so probing never perturbs training.
    ///
    /// [`Trainer::train`] gates epoch 0 on the validation that compiling
    /// its training plan runs over the training-mode tape instead (see
    /// [`StgnnDjd::compile_training_plan`]): a `Deny` finding
    /// (disconnected parameter, shape mismatch, non-finite weights,
    /// fully-masked attention row) refuses the run.
    pub fn validate_training_tape(
        &self,
        data: &BikeDataset,
        t: usize,
    ) -> Result<stgnn_analyze::Report> {
        self.check_compatible(data)?;
        let g = Graph::new();
        let inputs = ModelInputs::from_dataset(data, t);
        let out = self.forward(&g, &inputs, false);
        let (dt, st) = data.targets_horizon(t, self.config.horizon)?;
        let loss = self.loss(&g, &out, &dt, &st);
        Ok(stgnn_analyze::validate_tape(&g.snapshot(), &[loss.id()]))
    }

    /// Like [`Self::validate_training_tape`] but without the loss head: the
    /// analysis roots are the demand and supply outputs, matching what a
    /// serving forward pass computes. The serve registry probes hot-swap
    /// candidates with this before exposing them.
    pub fn validate_inference_tape(
        &self,
        data: &BikeDataset,
        t: usize,
    ) -> Result<stgnn_analyze::Report> {
        self.check_compatible(data)?;
        let g = Graph::new();
        let inputs = ModelInputs::from_dataset(data, t);
        let out = self.forward(&g, &inputs, false);
        Ok(stgnn_analyze::validate_tape(
            &g.snapshot(),
            &[out.demand.id(), out.supply.id()],
        ))
    }

    /// Validates that the dataset's windows match the model's.
    pub fn check_compatible(&self, data: &BikeDataset) -> Result<()> {
        if data.n_stations() != self.n {
            return Err(Error::InvalidConfig(format!(
                "model built for {} stations, dataset has {}",
                self.n,
                data.n_stations()
            )));
        }
        if data.config().k != self.config.k || data.config().d != self.config.d {
            return Err(Error::InvalidConfig(format!(
                "window mismatch: model (k={}, d={}) vs dataset (k={}, d={})",
                self.config.k,
                self.config.d,
                data.config().k,
                data.config().d
            )));
        }
        Ok(())
    }
}

/// Fallback FCG mask for the "No FC" ablation: raw observed flow in the
/// short-term window (any `i←j` inflow or `j→i` outflow), plus self-loops.
fn raw_flow_mask(short_in: &Tensor, short_out: &Tensor, n: usize) -> Tensor {
    let mut mask = Tensor::zeros(Shape::matrix(n, n));
    let buf = mask.data_mut();
    let k = short_in.shape().rows();
    for i in 0..n {
        buf[i * n + i] = 1.0;
    }
    for c in 0..k {
        let in_row = short_in.row(c);
        let out_row = short_out.row(c);
        for i in 0..n {
            for j in 0..n {
                if in_row[i * n + j] > 0.0 || out_row[j * n + i] > 0.0 {
                    buf[i * n + j] = 1.0;
                }
            }
        }
    }
    mask
}

impl DemandSupplyPredictor for StgnnDjd {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, data: &BikeDataset) -> Result<()> {
        Trainer::new(self.config.clone())
            .train(self, data)
            .map(|_| ())
    }

    fn predict(&self, data: &BikeDataset, t: usize) -> Prediction {
        self.predict_horizon(data, t)
            .into_iter()
            .next()
            .expect("horizon ≥ 1 guaranteed by config validation")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fcg::tests::literal_fcg;
    use crate::flow_conv::tests::literal_flow_conv;
    use crate::pcg::tests::{literal_attention_layer, matmul_f64, rows_f64};
    use stgnn_data::dataset::DatasetConfig;
    use stgnn_data::synthetic::{CityConfig, SyntheticCity};
    use stgnn_data::{FlowSeries, TripRecord};

    fn dataset() -> BikeDataset {
        let city = SyntheticCity::generate(CityConfig::test_tiny(41));
        BikeDataset::from_city(&city, DatasetConfig::small(6, 2)).unwrap()
    }

    fn model(data: &BikeDataset) -> StgnnDjd {
        StgnnDjd::new(StgnnConfig::test_tiny(6, 2), data.n_stations()).unwrap()
    }

    #[test]
    fn forward_output_shapes() {
        let data = dataset();
        let m = model(&data);
        let t = data.slots(stgnn_data::Split::Train)[0];
        let g = Graph::new();
        let out = m.forward(&g, &ModelInputs::from_dataset(&data, t), false);
        assert_eq!(out.demand.value().shape().dims(), &[data.n_stations(), 1]);
        assert_eq!(out.supply.value().shape().dims(), &[data.n_stations(), 1]);
        assert_eq!(out.pcg_attention.len(), 1); // 1 PCG layer in test_tiny
    }

    #[test]
    fn loss_backward_reaches_all_params() {
        let data = dataset();
        let m = model(&data);
        let t = data.slots(stgnn_data::Split::Train)[0];
        let g = Graph::new();
        let out = m.forward(&g, &ModelInputs::from_dataset(&data, t), true);
        let (dt, st) = data.targets(t);
        m.loss(&g, &out, &dt, &st).backward();
        let with_grad = m
            .params()
            .params()
            .iter()
            .filter(|p| p.grad().frobenius_norm() > 0.0)
            .count();
        // Dropout or dead ReLUs can starve a few parameters on one sample,
        // but the vast majority must receive gradient.
        assert!(
            with_grad * 10 >= m.params().len() * 8,
            "only {with_grad}/{} params got gradient",
            m.params().len()
        );
    }

    #[test]
    fn variants_construct_and_forward() {
        let data = dataset();
        let t = data.slots(stgnn_data::Split::Train)[0];
        let configs = [
            StgnnConfig::test_tiny(6, 2).without_flow_conv(),
            StgnnConfig::test_tiny(6, 2).without_fcg(),
            StgnnConfig::test_tiny(6, 2).without_pcg(),
        ];
        for c in configs {
            let m = StgnnDjd::new(c, data.n_stations()).unwrap();
            let g = Graph::new();
            let out = m.forward(&g, &ModelInputs::from_dataset(&data, t), false);
            assert_eq!(out.demand.value().len(), data.n_stations());
        }
    }

    #[test]
    fn predictions_are_nonnegative_counts() {
        let data = dataset();
        let m = model(&data);
        let t = data.slots(stgnn_data::Split::Test)[0];
        let pred = m.predict(&data, t);
        assert_eq!(pred.demand.len(), data.n_stations());
        assert!(pred.demand.iter().chain(&pred.supply).all(|&v| v >= 0.0));
    }

    #[test]
    fn eval_forward_is_deterministic() {
        let data = dataset();
        let m = model(&data);
        let t = data.slots(stgnn_data::Split::Test)[0];
        let p1 = m.predict(&data, t);
        let p2 = m.predict(&data, t);
        assert_eq!(p1, p2);
    }

    #[test]
    fn attention_export_present_only_with_attention_pcg() {
        let data = dataset();
        let m = model(&data);
        let t = data.slots(stgnn_data::Split::Test)[0];
        assert!(m.pcg_attention_at(&data, t).is_some());

        let m2 = StgnnDjd::new(
            StgnnConfig::test_tiny(6, 2).without_pcg(),
            data.n_stations(),
        )
        .unwrap();
        assert!(m2.pcg_attention_at(&data, t).is_none());
    }

    #[test]
    fn compatibility_checks() {
        let data = dataset();
        let m = model(&data);
        assert!(m.check_compatible(&data).is_ok());
        let wrong_n = StgnnDjd::new(StgnnConfig::test_tiny(6, 2), 3).unwrap();
        assert!(wrong_n.check_compatible(&data).is_err());
        let wrong_k = StgnnDjd::new(StgnnConfig::test_tiny(7, 2), data.n_stations()).unwrap();
        assert!(wrong_k.check_compatible(&data).is_err());
    }

    #[test]
    fn multi_step_horizon_shapes_and_first_step_consistency() {
        let data = dataset();
        let mut config = StgnnConfig::test_tiny(6, 2);
        config.horizon = 3;
        let m = StgnnDjd::new(config, data.n_stations()).unwrap();
        let slots = data.slots(stgnn_data::Split::Test);
        let t = slots[0];
        let g = Graph::new();
        let out = m.forward(&g, &ModelInputs::from_dataset(&data, t), false);
        assert_eq!(out.demand.value().shape().dims(), &[data.n_stations(), 3]);
        let multi = m.predict_horizon(&data, t);
        assert_eq!(multi.len(), 3);
        // the single-step trait prediction equals step 0 of the horizon
        let single = m.predict(&data, t);
        assert_eq!(single, multi[0]);
        assert!(multi.iter().all(|p| p.demand.iter().all(|&v| v >= 0.0)));
    }

    #[test]
    fn multi_step_model_trains_end_to_end() {
        // Training crosses the `trainer::step` failpoint; hold the global
        // fault guard so a concurrent fault-injecting test can't reach it.
        let _quiet = stgnn_faults::scoped(stgnn_faults::FaultPlan::new());
        let data = dataset();
        let mut config = StgnnConfig::test_tiny(6, 2);
        config.horizon = 2;
        config.epochs = 3;
        let mut m = StgnnDjd::new(config, data.n_stations()).unwrap();
        m.fit(&data).expect("multi-step training");
        assert!(m.is_trained());
        let t = data.slots(stgnn_data::Split::Test)[0];
        let preds = m.predict_horizon(&data, t);
        assert_eq!(preds.len(), 2);
        assert!(preds[1].supply.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn raw_flow_mask_includes_self_loops_and_flows() {
        let n = 2;
        let short_in = Tensor::from_rows(&[&[0.0, 1.0, 0.0, 0.0]]); // I[0][1] > 0
        let short_out = Tensor::zeros(Shape::matrix(1, 4));
        let m = raw_flow_mask(&short_in, &short_out, n);
        assert_eq!(m.get2(0, 0), 1.0);
        assert_eq!(m.get2(1, 1), 1.0);
        assert_eq!(m.get2(0, 1), 1.0);
        assert_eq!(m.get2(1, 0), 0.0);
    }
    /// Eqs 19–20 evaluated literally, in plain f64 loops over the
    /// parameters read from `ps` by name: the branch embeddings
    /// concatenated row by row (Eq 19), the optional hidden layer
    /// `ReLU(F·W_h + b_h)`, then `F·W₁₁` with demand in its first `horizon`
    /// columns and supply in the rest (Eq 20). Returns `(demand, supply)`,
    /// each `n×horizon`.
    fn literal_head(
        ps: &ParamSet,
        embeddings: &[&[Vec<f64>]],
        horizon: usize,
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let param = |name: &str| {
            let p = ps.params().iter().find(|p| p.name() == name);
            p.map(|p| rows_f64(&p.value()))
        };
        let n = embeddings[0].len();
        let mut f: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                embeddings
                    .iter()
                    .flat_map(|e| e[i].iter().copied())
                    .collect()
            })
            .collect();
        if let (Some(wh), Some(bh)) = (param("predictor.wh"), param("predictor.bh")) {
            f = matmul_f64(&f, &wh)
                .into_iter()
                .map(|row| {
                    row.iter()
                        .zip(&bh[0])
                        .map(|(x, b)| (x + b).max(0.0))
                        .collect()
                })
                .collect();
        }
        let out = matmul_f64(&f, &param("predictor.w11").expect("W11"));
        let demand = out.iter().map(|row| row[..horizon].to_vec()).collect();
        let supply = out.iter().map(|row| row[horizon..].to_vec()).collect();
        (demand, supply)
    }

    /// Eq 21 evaluated literally: the radicand `mse(demand) + mse(supply)`
    /// and its square root, the loss.
    fn literal_loss(pred: [&[Vec<f64>]; 2], truth: [&[Vec<f64>]; 2]) -> (f64, f64) {
        let mse = |p: &[Vec<f64>], t: &[Vec<f64>]| {
            let sq: Vec<f64> = p
                .iter()
                .flatten()
                .zip(t.iter().flatten())
                .map(|(p, t)| (p - t) * (p - t))
                .collect();
            sq.iter().sum::<f64>() / sq.len() as f64
        };
        let radicand = mse(pred[0], truth[0]) + mse(pred[1], truth[1]);
        (radicand, radicand.sqrt())
    }

    /// The largest `|got − want|` over two same-shaped matrices.
    fn max_error(got: &Tensor, want: &[Vec<f64>]) -> f64 {
        rows_f64(got)
            .iter()
            .flatten()
            .zip(want.iter().flatten())
            .map(|(g, w)| (g - w).abs())
            .fold(0.0, f64::max)
    }

    /// The concatenation, hidden ReLU layer, `W₁₁` head and demand/supply
    /// split, and Eq 21's loss, each against the model's own inputs to that
    /// block: the branch embeddings an eval-mode forward computes.
    #[test]
    fn head_and_loss_match_a_literal_eq_19_to_21_evaluation() {
        let data = dataset();
        let m = model(&data);
        // Signed hidden biases, so some of the hidden ReLUs clamp.
        let (_, bh) = m.hidden.as_ref().expect("test_tiny has a hidden layer");
        let h = bh.value().len();
        let bias = (0..h).map(|i| (i as f32 * 0.37).sin() * 0.5).collect();
        bh.set_value(Tensor::from_vec(Shape::matrix(1, h), bias).unwrap());
        let t = data.slots(stgnn_data::Split::Train)[2];
        let inputs = ModelInputs::from_dataset(&data, t);
        let g = Graph::new();
        let out = m.forward(&g, &inputs, false);
        // The branch embeddings, recomputed from the same modules.
        let windows = [
            &inputs.short_in,
            &inputs.short_out,
            &inputs.long_in,
            &inputs.long_out,
        ]
        .map(|w| g.leaf(w.clone()));
        let fc = m.flow_conv.as_ref().unwrap().forward_windows(&g, &windows);
        let mask = fcg_mask(&fc.i_hat.value(), &fc.o_hat.value());
        let f_f = m.fcg.as_ref().unwrap().forward(&g, &fc.t, &mask, None);
        let (f_p, _) = m
            .pcg
            .as_ref()
            .unwrap()
            .forward_with_attention(&g, &fc.t, None);
        let (f_f, f_p) = (rows_f64(&f_f.value()), rows_f64(&f_p.value()));
        let (demand, supply) = literal_head(m.params(), &[&f_f, &f_p], 1);
        assert!(max_error(&out.demand.value(), &demand) <= 1e-4);
        assert!(max_error(&out.supply.value(), &supply) <= 1e-4);

        let (dt, st) = data.targets(t);
        let (radicand, loss) = literal_loss([&demand, &supply], [&rows_f64(&dt), &rows_f64(&st)]);
        let got_sq = m.squared_loss(&g, &out, &dt, &st).value().scalar();
        let got = m.loss(&g, &out, &dt, &st).value().scalar();
        assert!(
            (f64::from(got_sq) - radicand).abs() <= 1e-4,
            "{got_sq} vs {radicand}"
        );
        assert!((f64::from(got) - loss).abs() <= 1e-4, "{got} vs {loss}");
    }

    /// Trips over four days of four 6-hour slots at five stations. The two
    /// directions of a pair differ in count and time, some trips return in
    /// a later slot than they leave (so `I^t` is not `O^tᵀ`), three pairs
    /// repeat within a slot, and station 3 rides to itself.
    const TRIPS: [(usize, usize, i64, i64); 21] = [
        (0, 1, 730, 800),
        (0, 1, 750, 1100),
        (2, 4, 1000, 1090),
        (3, 3, 900, 950),
        (1, 2, 2200, 2300),
        (4, 0, 2400, 2600),
        (1, 2, 2450, 2500),
        (0, 3, 2600, 2700),
        (2, 1, 2700, 2900),
        (3, 4, 2950, 3000),
        (3, 4, 3000, 3100),
        (4, 2, 3100, 3300),
        (0, 2, 3300, 3350),
        (1, 3, 3400, 3650),
        (2, 0, 3500, 3550),
        (4, 1, 3560, 3570),
        (0, 4, 3620, 3700),
        (3, 1, 3700, 3800),
        (1, 0, 3800, 3900),
        (4, 0, 3850, 3950),
        (2, 4, 3900, 4100),
    ];

    /// The whole model at n = 5 — windows, Eqs 1–9, the FCG mask, Eqs 10,
    /// 13–14, Eqs 15–18, Eqs 19–21 — against a chain of the literal f64
    /// oracles fed straight from [`TRIPS`], with no `FlowSeries` in the
    /// oracle's path. A wiring slip between blocks (a transposed window,
    /// `Î` where Eq 10 wants `T`) passes every per-block oracle but not
    /// this one.
    #[test]
    fn the_composed_model_matches_its_literal_equations() {
        const N: usize = 5;
        const SLOT_MINUTES: i64 = 360;
        let (days, spd, target) = (4, 4, 10);
        let mut config = StgnnConfig::test_tiny(3, 2);
        config.fcg_layers = 2;

        // The oracle's inputs, counted from the trips. `O^t[o][d]` counts
        // the trips o → d picked up in slot t; `I^t[d][o]` those returned
        // in it. Both scale by the largest count in the training slots, and
        // demand/supply by the largest row sum there.
        let slot_of = |minute: i64| (minute / SLOT_MINUTES) as usize;
        let mut outflow = vec![vec![0.0f64; N * N]; days * spd];
        let mut inflow = vec![vec![0.0f64; N * N]; days * spd];
        for &(o, d, start, end) in &TRIPS {
            outflow[slot_of(start)][o * N + d] += 1.0;
            inflow[slot_of(end)][d * N + o] += 1.0;
        }
        let train_slots = 3 * spd; // 70 % of 4 days, rounded
        let flow_scale = outflow[..train_slots]
            .iter()
            .chain(&inflow[..train_slots])
            .flatten()
            .fold(1.0f64, |a, &b| a.max(b));
        let row_sums = |m: &[f64]| -> Vec<Vec<f64>> {
            (0..N)
                .map(|i| vec![m[i * N..(i + 1) * N].iter().sum()])
                .collect()
        };
        let target_scale = outflow[..train_slots]
            .iter()
            .chain(&inflow[..train_slots])
            .flat_map(|m| row_sums(m))
            .flatten()
            .fold(1.0f64, f64::max);
        let window = |series: &[Vec<f64>], slots: &[usize]| -> Vec<Vec<f64>> {
            slots
                .iter()
                .map(|&t| series[t].iter().map(|v| v / flow_scale).collect())
                .collect()
        };
        let short: Vec<usize> = (target - config.k..target).collect();
        let long: Vec<usize> = (1..=config.d).rev().map(|i| target - i * spd).collect();
        let windows = [
            window(&inflow, &short),
            window(&outflow, &short),
            window(&inflow, &long),
            window(&outflow, &long),
        ];
        let truth = [&outflow, &inflow].map(|series| {
            row_sums(&series[target])
                .into_iter()
                .map(|row| vec![row[0] / target_scale])
                .collect::<Vec<_>>()
        });

        // The model, on a dataset aggregated from the same trips.
        let trips: Vec<TripRecord> = TRIPS
            .iter()
            .map(|&(origin, dest, start_min, end_min)| TripRecord {
                rid: 0,
                origin,
                dest,
                start_min,
                end_min,
            })
            .collect();
        let registry = SyntheticCity::generate(CityConfig::test_tiny(41)).registry;
        let registry = stgnn_data::StationRegistry::new(registry.stations()[..N].to_vec());
        let flows = FlowSeries::from_trips(&trips, N, days, spd).unwrap();
        let data = BikeDataset::new(flows, registry, DatasetConfig::small(3, 2)).unwrap();
        assert_eq!(data.days(stgnn_data::Split::Train).end * spd, train_slots);
        assert!(data.slots(stgnn_data::Split::Train).contains(&target));
        let m = StgnnDjd::new(config.clone(), N).unwrap();
        let g = Graph::new();
        let out = m.forward(&g, &ModelInputs::from_dataset(&data, target), false);
        let (dt, st) = data.targets(target);
        let loss = m.loss(&g, &out, &dt, &st).value().scalar();

        // The chain of literal oracles.
        let ps = m.params();
        let (t, i_hat, o_hat) = literal_flow_conv(ps, N, windows.each_ref().map(Vec::as_slice));
        let mask: Vec<Vec<f64>> = (0..N)
            .map(|i| {
                (0..N)
                    .map(|j| f64::from(u8::from(i == j || i_hat[i][j] > 0.0 || o_hat[j][i] > 0.0)))
                    .collect()
            })
            .collect();
        assert!(
            mask.iter().flatten().any(|&v| v == 0.0),
            "the mask prunes nothing"
        );
        let f_f = literal_fcg(ps, config.fcg_aggregator, config.fcg_layers, &t, &t, &mask);
        let (_, f_p) = literal_attention_layer(ps, &t, config.heads);
        let (demand, supply) = literal_head(ps, &[&f_f, &f_p], 1);
        let (_, want_loss) = literal_loss([&demand, &supply], [&truth[0], &truth[1]]);

        let errors = [
            max_error(&out.demand.value(), &demand),
            max_error(&out.supply.value(), &supply),
            (f64::from(loss) - want_loss).abs(),
        ];
        let worst = errors.iter().copied().fold(0.0, f64::max);
        assert!(worst <= 1e-4, "demand/supply/loss errors {errors:?}");
    }
}

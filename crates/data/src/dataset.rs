//! Train/validation/test datasets over a [`FlowSeries`].
//!
//! Follows the paper's protocol (§VII-A, §VII-C): splits are **by days**
//! (first 70% of days train, next 10% validation, rest test), demand and
//! supply are min–max normalised to `[0, 1]` using training-split statistics,
//! and model inputs at a target slot `t` are the last `k` slots (short term)
//! plus the same time-of-day slot of the last `d` days (long term).

use crate::error::{Error, Result};
use crate::flow::FlowSeries;
use crate::station::StationRegistry;
use crate::synthetic::SyntheticCity;
use stgnn_tensor::{Shape, Tensor};

/// Which portion of the horizon a slot belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// First 70% of days.
    Train,
    /// Next 10% of days.
    Val,
    /// Remaining days.
    Test,
}

/// Windowing and split configuration.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Short-term window length in slots (paper: `k = 96`, one day).
    pub k: usize,
    /// Long-term window length in days (paper: `d = 7`).
    pub d: usize,
    /// Fraction of days in the training split (paper: 0.7).
    pub train_frac: f64,
    /// Fraction of days in the validation split (paper: 0.1).
    pub val_frac: f64,
}

impl DatasetConfig {
    /// The paper's settings: `k = 96` slots, `d = 7` days, 70/10/20 split.
    pub fn paper() -> Self {
        DatasetConfig {
            k: 96,
            d: 7,
            train_frac: 0.7,
            val_frac: 0.1,
        }
    }

    /// Scaled-down settings for small synthetic cities and tests.
    pub fn small(k: usize, d: usize) -> Self {
        DatasetConfig {
            k,
            d,
            train_frac: 0.7,
            val_frac: 0.1,
        }
    }
}

/// A flow series wrapped with splits, normalisation and model windows.
#[derive(Debug, Clone)]
pub struct BikeDataset {
    flows: FlowSeries,
    registry: StationRegistry,
    config: DatasetConfig,
    /// Day index ranges per split.
    train_days: std::ops::Range<usize>,
    val_days: std::ops::Range<usize>,
    test_days: std::ops::Range<usize>,
    /// Largest flow entry in the training slots (input scaling).
    flow_scale: f32,
    /// Largest demand/supply in the training slots (target scaling).
    target_scale: f32,
}

impl BikeDataset {
    /// Builds a dataset from a synthetic city.
    pub fn from_city(city: &SyntheticCity, config: DatasetConfig) -> Result<Self> {
        let flows = FlowSeries::from_trips(
            &city.trips,
            city.registry.len(),
            city.config.days,
            city.config.slots_per_day,
        )?;
        Self::new(flows, city.registry.clone(), config)
    }

    /// Builds a dataset from pre-aggregated flows.
    pub fn new(
        flows: FlowSeries,
        registry: StationRegistry,
        config: DatasetConfig,
    ) -> Result<Self> {
        if registry.len() != flows.n_stations() {
            return Err(Error::InvalidConfig(format!(
                "registry has {} stations, flows have {}",
                registry.len(),
                flows.n_stations()
            )));
        }
        let days = flows.num_days();
        let train_end = ((days as f64 * config.train_frac).round() as usize).max(1);
        let val_end = (train_end + (days as f64 * config.val_frac).round() as usize).min(days);
        if train_end >= days || val_end >= days {
            return Err(Error::InvalidConfig(format!(
                "horizon of {days} days too short for a {}/{} split",
                config.train_frac, config.val_frac
            )));
        }
        let spd = flows.slots_per_day();
        let first_valid = config.k.max(config.d * spd);
        if first_valid >= train_end * spd {
            return Err(Error::InvalidConfig(format!(
                "windows (k={}, d={}) leave no valid training slots",
                config.k, config.d
            )));
        }
        let flow_scale = flows.max_flow_in(0, train_end * spd).max(1.0);
        let target_scale = flows.max_demand_supply(0, train_end * spd).max(1.0);
        Ok(BikeDataset {
            flows,
            registry,
            config,
            train_days: 0..train_end,
            val_days: train_end..val_end,
            test_days: val_end..days,
            flow_scale,
            target_scale,
        })
    }

    /// Number of stations.
    pub fn n_stations(&self) -> usize {
        self.flows.n_stations()
    }

    /// Slots per day.
    pub fn slots_per_day(&self) -> usize {
        self.flows.slots_per_day()
    }

    /// The wrapped flow series.
    pub fn flows(&self) -> &FlowSeries {
        &self.flows
    }

    /// The station registry.
    pub fn registry(&self) -> &StationRegistry {
        &self.registry
    }

    /// The windowing configuration.
    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    /// Training-split maximum flow entry (input scale).
    pub fn flow_scale(&self) -> f32 {
        self.flow_scale
    }

    /// Training-split maximum demand/supply (target scale).
    pub fn target_scale(&self) -> f32 {
        self.target_scale
    }

    /// First slot with full short- and long-term history available.
    pub fn first_valid_slot(&self) -> usize {
        self.config
            .k
            .max(self.config.d * self.flows.slots_per_day())
    }

    /// Whether slot `t` can be served: `t` must lie in
    /// `[first_valid_slot, num_slots]`. The error is the refusal text every
    /// serving path answers with.
    pub fn check_servable(&self, t: usize) -> std::result::Result<(), String> {
        let (first, last) = (self.first_valid_slot(), self.flows.num_slots());
        if t < first || t > last {
            return Err(format!("slot {t} outside servable range [{first}, {last}]"));
        }
        Ok(())
    }

    /// Day range of a split.
    pub fn days(&self, split: Split) -> std::ops::Range<usize> {
        match split {
            Split::Train => self.train_days.clone(),
            Split::Val => self.val_days.clone(),
            Split::Test => self.test_days.clone(),
        }
    }

    /// Predictable target slots of a split: slots inside the split's days
    /// with complete input windows.
    pub fn slots(&self, split: Split) -> Vec<usize> {
        let days = self.days(split);
        let spd = self.flows.slots_per_day();
        let first = self.first_valid_slot();
        (days.start * spd..days.end * spd)
            .filter(|&t| t >= first)
            .collect()
    }

    /// Target slots of a split restricted to rush hours. Morning is
    /// 07:00–10:00, evening 17:00–20:00 (§VII-E).
    pub fn rush_slots(&self, split: Split, morning: bool) -> Vec<usize> {
        let spd = self.flows.slots_per_day();
        let (lo_h, hi_h) = if morning { (7, 10) } else { (17, 20) };
        let lo = lo_h * spd / 24;
        let hi = hi_h * spd / 24;
        self.slots(split)
            .into_iter()
            .filter(|&t| {
                let tod = self.flows.tod_of_slot(t);
                (lo..hi).contains(&tod)
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Model inputs
    // ------------------------------------------------------------------

    /// The short-term input stacks at target slot `t`: the inflow and
    /// outflow matrices of the `k` preceding slots, flattened to
    /// `(k, n·n)` rows (oldest first) and scaled to `[0, 1]` by the
    /// training-split flow maximum.
    pub fn short_term_stacks(&self, t: usize) -> (Tensor, Tensor) {
        let slots: Vec<usize> = (t - self.config.k..t).collect();
        self.flows.window_stacks(&slots, 1.0 / self.flow_scale)
    }

    /// The long-term input stacks at target slot `t`: the same time-of-day
    /// slot of the `d` preceding days, flattened to `(d, n·n)` (oldest
    /// first), scaled like the short-term stack.
    pub fn long_term_stacks(&self, t: usize) -> (Tensor, Tensor) {
        let spd = self.flows.slots_per_day();
        let slots: Vec<usize> = (1..=self.config.d).rev().map(|i| t - i * spd).collect();
        self.flows.window_stacks(&slots, 1.0 / self.flow_scale)
    }

    /// Normalised targets `(demand, supply)` at slot `t`, each `n×1`.
    pub fn targets(&self, t: usize) -> (Tensor, Tensor) {
        let n = self.n_stations();
        let scale = 1.0 / self.target_scale;
        let d: Vec<f32> = self.flows.demand_at(t).iter().map(|&v| v * scale).collect();
        let s: Vec<f32> = self.flows.supply_at(t).iter().map(|&v| v * scale).collect();
        (
            Tensor::from_vec(Shape::matrix(n, 1), d).expect("target shape"),
            Tensor::from_vec(Shape::matrix(n, 1), s).expect("target shape"),
        )
    }

    /// Raw (un-normalised) targets `(demand, supply)` at slot `t`.
    pub fn raw_targets(&self, t: usize) -> (&[f32], &[f32]) {
        (self.flows.demand_at(t), self.flows.supply_at(t))
    }

    /// Normalised multi-step targets: `n×horizon` matrices whose column `h`
    /// holds slot `t + h` (the §IX multi-step extension). Requires
    /// `t + horizon ≤ num_slots`.
    pub fn targets_horizon(&self, t: usize, horizon: usize) -> Result<(Tensor, Tensor)> {
        if t + horizon > self.flows.num_slots() {
            return Err(Error::OutOfRange(format!(
                "horizon window {t}+{horizon} exceeds {} slots",
                self.flows.num_slots()
            )));
        }
        let n = self.n_stations();
        let scale = 1.0 / self.target_scale;
        let mut d = vec![0.0f32; n * horizon];
        let mut s = vec![0.0f32; n * horizon];
        for h in 0..horizon {
            let dv = self.flows.demand_at(t + h);
            let sv = self.flows.supply_at(t + h);
            for i in 0..n {
                d[i * horizon + h] = dv[i] * scale;
                s[i * horizon + h] = sv[i] * scale;
            }
        }
        Ok((
            Tensor::from_vec(Shape::matrix(n, horizon), d).expect("horizon shape"),
            Tensor::from_vec(Shape::matrix(n, horizon), s).expect("horizon shape"),
        ))
    }

    /// Maps normalised predictions back to bike counts.
    pub fn denormalize(&self, values: &[f32]) -> Vec<f32> {
        values.iter().map(|&v| v * self.target_scale).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::CityConfig;

    fn dataset() -> BikeDataset {
        let city = SyntheticCity::generate(CityConfig::test_tiny(5));
        BikeDataset::from_city(&city, DatasetConfig::small(6, 2)).unwrap()
    }

    #[test]
    fn split_days_partition_the_horizon() {
        let ds = dataset();
        let (tr, va, te) = (
            ds.days(Split::Train),
            ds.days(Split::Val),
            ds.days(Split::Test),
        );
        assert_eq!(tr.start, 0);
        assert_eq!(tr.end, va.start);
        assert_eq!(va.end, te.start);
        assert_eq!(te.end, ds.flows().num_days());
        assert!(!te.is_empty());
    }

    #[test]
    fn slots_respect_window_validity() {
        let ds = dataset();
        let first = ds.first_valid_slot();
        assert_eq!(first, 2 * 24); // d=2 days × 24 slots > k=6
        assert!(ds.slots(Split::Train).iter().all(|&t| t >= first));
        // train slots start exactly at the first valid slot
        assert_eq!(ds.slots(Split::Train)[0], first);
    }

    #[test]
    fn rush_slots_fall_in_window() {
        let ds = dataset();
        let spd = ds.slots_per_day();
        for &t in &ds.rush_slots(Split::Test, true) {
            let hour = ds.flows().tod_of_slot(t) * 24 / spd;
            assert!((7..10).contains(&hour), "slot {t} at hour {hour}");
        }
        for &t in &ds.rush_slots(Split::Test, false) {
            let hour = ds.flows().tod_of_slot(t) * 24 / spd;
            assert!((17..20).contains(&hour));
        }
        assert!(!ds.rush_slots(Split::Test, true).is_empty());
    }

    #[test]
    fn stacks_have_window_shapes_and_unit_scale() {
        let ds = dataset();
        let t = ds.slots(Split::Train)[0];
        let n = ds.n_stations();
        let (si, so) = ds.short_term_stacks(t);
        assert_eq!(si.shape().dims(), &[6, n * n]);
        assert_eq!(so.shape().dims(), &[6, n * n]);
        let (li, lo) = ds.long_term_stacks(t);
        assert_eq!(li.shape().dims(), &[2, n * n]);
        assert_eq!(lo.shape().dims(), &[2, n * n]);
        // scaled inputs stay in [0, 1] on training data
        assert!(si.max_all() <= 1.0 + 1e-6);
        assert!(so.min_all() >= 0.0);
    }

    /// The `n×n` matrix of slot `t` counted straight from the city's trips,
    /// scaled: entry `(i, j)` counts the trips checked out (if `outflow`)
    /// or returned (if not) at `i` in slot `t`, with `j` the other end.
    fn counted(ds: &BikeDataset, city: &SyntheticCity, t: usize, outflow: bool) -> Vec<f32> {
        let n = ds.n_stations();
        let slot_minutes = ds.flows().slot_minutes();
        let mut m = vec![0.0f32; n * n];
        for trip in &city.trips {
            let (at, i, j) = if outflow {
                (trip.start_min, trip.origin, trip.dest)
            } else {
                (trip.end_min, trip.dest, trip.origin)
            };
            if at.div_euclid(slot_minutes) == t as i64 {
                m[i * n + j] += 1.0;
            }
        }
        m.iter().map(|v| v / ds.flow_scale()).collect()
    }

    #[test]
    fn short_term_stack_rows_match_source_slots() {
        let city = SyntheticCity::generate(CityConfig::test_tiny(5));
        let ds = BikeDataset::from_city(&city, DatasetConfig::small(6, 2)).unwrap();
        let t = ds.slots(Split::Train)[3];
        let (_, so) = ds.short_term_stacks(t);
        // Row k-1 (newest) is slot t-1's outflow, scaled.
        let expect = counted(&ds, &city, t - 1, true);
        assert!(
            expect.iter().any(|&v| v > 0.0),
            "slot {} has no trips",
            t - 1
        );
        let newest = so.slice_rows(5, 6).unwrap();
        assert!(newest
            .data()
            .iter()
            .zip(&expect)
            .all(|(a, b)| (a - b).abs() < 1e-6));
    }

    #[test]
    fn long_term_stack_uses_same_time_of_day() {
        let city = SyntheticCity::generate(CityConfig::test_tiny(5));
        let ds = BikeDataset::from_city(&city, DatasetConfig::small(6, 2)).unwrap();
        let spd = ds.slots_per_day();
        let t = ds.slots(Split::Val)[0];
        let (li, _) = ds.long_term_stacks(t);
        let expect = counted(&ds, &city, t - spd, false);
        let newest = li.slice_rows(1, 2).unwrap();
        assert!(newest
            .data()
            .iter()
            .zip(&expect)
            .all(|(a, b)| (a - b).abs() < 1e-6));
    }

    #[test]
    fn targets_normalise_and_round_trip() {
        let ds = dataset();
        let t = ds.slots(Split::Train)[0];
        let (d, s) = ds.targets(t);
        assert_eq!(d.shape().dims(), &[ds.n_stations(), 1]);
        let (raw_d, raw_s) = ds.raw_targets(t);
        let back = ds.denormalize(d.data());
        assert!(back.iter().zip(raw_d).all(|(a, b)| (a - b).abs() < 1e-4));
        let back_s = ds.denormalize(s.data());
        assert!(back_s.iter().zip(raw_s).all(|(a, b)| (a - b).abs() < 1e-4));
    }

    #[test]
    fn too_short_horizon_is_rejected() {
        let city = SyntheticCity::generate(CityConfig::test_tiny(5));
        // d = 20 days of history on an 8-day horizon cannot work.
        assert!(BikeDataset::from_city(&city, DatasetConfig::small(6, 20)).is_err());
    }

    #[test]
    fn registry_flow_mismatch_rejected() {
        let city = SyntheticCity::generate(CityConfig::test_tiny(5));
        let flows = FlowSeries::from_trips(&city.trips, city.registry.len(), 8, 24).unwrap();
        let small_reg = StationRegistry::new(city.registry.stations()[..3].to_vec());
        assert!(BikeDataset::new(flows, small_reg, DatasetConfig::small(6, 2)).is_err());
    }

    use crate::flow::FlowSeries;
}

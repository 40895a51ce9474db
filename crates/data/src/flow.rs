//! Aggregation of trips into the paper's flow matrices (§III-A).
//!
//! For each time slot `t`:
//!
//! * `O^t[i][j]` — bikes checked out at station `i` during slot `t` and
//!   (eventually) returned to `j`; `t` is the **checkout** slot.
//! * `I^t[i][j]` — bikes returned to station `i` during slot `t` that were
//!   borrowed from `j`; `t` is the **return** slot.
//!
//! Demand is the outflow row sum `x_i^t = Σ_j O^t[i][j]`; supply is the
//! inflow row sum `y_i^t = Σ_j I^t[i][j]` (Definition 1).

use crate::error::{Error, Result};
use crate::trip::TripRecord;
use stgnn_tensor::{Shape, Tensor};

/// Per-slot inflow/outflow matrices and derived demand/supply series.
#[derive(Debug, Clone)]
pub struct FlowSeries {
    n_stations: usize,
    slots_per_day: usize,
    slot_minutes: i64,
    /// `inflow[t]` is the `n×n` matrix `I^t`.
    inflow: Vec<Tensor>,
    /// `outflow[t]` is the `n×n` matrix `O^t`.
    outflow: Vec<Tensor>,
    /// `demand[t*n + i]` = `x_i^t`.
    demand: Vec<f32>,
    /// `supply[t*n + i]` = `y_i^t`.
    supply: Vec<f32>,
}

impl FlowSeries {
    /// Aggregates cleansed trips over `num_days` days.
    ///
    /// `slots_per_day` must divide the 1440 minutes of a day (the paper uses
    /// 96 slots of 15 minutes). Trips whose checkout or return falls outside
    /// the horizon contribute only the endpoint that falls inside it.
    pub fn from_trips(
        trips: &[TripRecord],
        n_stations: usize,
        num_days: usize,
        slots_per_day: usize,
    ) -> Result<Self> {
        if slots_per_day == 0 || 1440 % slots_per_day != 0 {
            return Err(Error::InvalidConfig(format!(
                "slots_per_day {slots_per_day} must divide 1440"
            )));
        }
        if n_stations == 0 {
            return Err(Error::InvalidConfig("no stations".into()));
        }
        let slot_minutes = (1440 / slots_per_day) as i64;
        let num_slots = num_days * slots_per_day;
        let mut inflow_raw = vec![vec![0.0f32; n_stations * n_stations]; num_slots];
        let mut outflow_raw = vec![vec![0.0f32; n_stations * n_stations]; num_slots];

        for trip in trips {
            let out_slot = trip.start_min / slot_minutes;
            let in_slot = trip.end_min / slot_minutes;
            if (0..num_slots as i64).contains(&out_slot) {
                outflow_raw[out_slot as usize][trip.origin * n_stations + trip.dest] += 1.0;
            }
            if (0..num_slots as i64).contains(&in_slot) {
                inflow_raw[in_slot as usize][trip.dest * n_stations + trip.origin] += 1.0;
            }
        }

        let shape = Shape::matrix(n_stations, n_stations);
        let inflow: Vec<Tensor> = inflow_raw
            .into_iter()
            .map(|d| Tensor::from_vec(shape.clone(), d).expect("flow shape"))
            .collect();
        let outflow: Vec<Tensor> = outflow_raw
            .into_iter()
            .map(|d| Tensor::from_vec(shape.clone(), d).expect("flow shape"))
            .collect();

        let mut demand = vec![0.0f32; num_slots * n_stations];
        let mut supply = vec![0.0f32; num_slots * n_stations];
        for t in 0..num_slots {
            for i in 0..n_stations {
                demand[t * n_stations + i] = outflow[t].row(i).iter().sum();
                supply[t * n_stations + i] = inflow[t].row(i).iter().sum();
            }
        }

        Ok(FlowSeries {
            n_stations,
            slots_per_day,
            slot_minutes,
            inflow,
            outflow,
            demand,
            supply,
        })
    }

    /// A windowed copy covering the whole days `days` (a `Range` of day
    /// indices): slot `t` of the view is slot
    /// `days.start * slots_per_day + t` of `self`, cloned bit-for-bit.
    /// The view is a normal
    /// [`FlowSeries`] — datasets built on it re-derive splits and scales
    /// from the window alone.
    pub fn window(&self, days: std::ops::Range<usize>) -> Result<Self> {
        if days.start >= days.end || days.end > self.num_days() {
            return Err(Error::OutOfRange(format!(
                "day window {days:?} outside horizon of {} days",
                self.num_days()
            )));
        }
        let spd = self.slots_per_day;
        let (lo, hi) = (days.start * spd, days.end * spd);
        let n = self.n_stations;
        Ok(FlowSeries {
            n_stations: n,
            slots_per_day: spd,
            slot_minutes: self.slot_minutes,
            inflow: self.inflow[lo..hi].to_vec(),
            outflow: self.outflow[lo..hi].to_vec(),
            demand: self.demand[lo * n..hi * n].to_vec(),
            supply: self.supply[lo * n..hi * n].to_vec(),
        })
    }

    /// Number of stations.
    pub fn n_stations(&self) -> usize {
        self.n_stations
    }

    /// Slots per day.
    pub fn slots_per_day(&self) -> usize {
        self.slots_per_day
    }

    /// Duration of one slot in minutes.
    pub fn slot_minutes(&self) -> i64 {
        self.slot_minutes
    }

    /// Total number of slots in the horizon.
    pub fn num_slots(&self) -> usize {
        self.inflow.len()
    }

    /// Number of whole days in the horizon.
    pub fn num_days(&self) -> usize {
        self.num_slots() / self.slots_per_day
    }

    /// The inflow matrix `I^t`.
    pub fn inflow(&self, t: usize) -> &Tensor {
        &self.inflow[t]
    }

    /// The outflow matrix `O^t`.
    pub fn outflow(&self, t: usize) -> &Tensor {
        &self.outflow[t]
    }

    /// Demand `x_i^t` for every station at slot `t`.
    pub fn demand_at(&self, t: usize) -> &[f32] {
        &self.demand[t * self.n_stations..(t + 1) * self.n_stations]
    }

    /// Supply `y_i^t` for every station at slot `t`.
    pub fn supply_at(&self, t: usize) -> &[f32] {
        &self.supply[t * self.n_stations..(t + 1) * self.n_stations]
    }

    /// The day index (0-based) of a slot.
    pub fn day_of_slot(&self, t: usize) -> usize {
        t / self.slots_per_day
    }

    /// The time-of-day slot index (0-based within the day) of a slot.
    pub fn tod_of_slot(&self, t: usize) -> usize {
        t % self.slots_per_day
    }

    /// Largest single flow-matrix entry across the horizon (normalisation).
    pub fn max_flow(&self) -> f32 {
        self.max_flow_in(0, self.num_slots())
    }

    /// Largest single flow-matrix entry in slots `[t_lo, t_hi)`.
    pub fn max_flow_in(&self, t_lo: usize, t_hi: usize) -> f32 {
        self.inflow[t_lo..t_hi]
            .iter()
            .chain(self.outflow[t_lo..t_hi].iter())
            .map(|m| m.max_all())
            .fold(0.0f32, f32::max)
    }

    /// Largest demand/supply value in `[t_lo, t_hi)` (normalisation).
    pub fn max_demand_supply(&self, t_lo: usize, t_hi: usize) -> f32 {
        let lo = t_lo * self.n_stations;
        let hi = t_hi * self.n_stations;
        self.demand[lo..hi]
            .iter()
            .chain(&self.supply[lo..hi])
            .copied()
            .fold(0.0f32, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trip(o: usize, d: usize, s: i64, e: i64) -> TripRecord {
        TripRecord {
            rid: 0,
            origin: o,
            dest: d,
            start_min: s,
            end_min: e,
        }
    }

    /// Two days, 4 slots/day (360-minute slots).
    fn series() -> FlowSeries {
        let trips = vec![
            trip(0, 1, 10, 30),     // slot 0 out at 0, slot 0 in at 1
            trip(0, 1, 370, 400),   // slot 1
            trip(1, 2, 350, 380),   // out slot 0, in slot 1
            trip(2, 0, 1500, 1550), // day 1, slot 0 (slot index 4)
        ];
        FlowSeries::from_trips(&trips, 3, 2, 4).unwrap()
    }

    #[test]
    fn dimensions() {
        let f = series();
        assert_eq!(f.n_stations(), 3);
        assert_eq!(f.num_slots(), 8);
        assert_eq!(f.num_days(), 2);
        assert_eq!(f.slot_minutes(), 360);
    }

    #[test]
    fn outflow_keyed_by_checkout_slot() {
        let f = series();
        assert_eq!(f.outflow(0).get2(0, 1), 1.0); // first trip
        assert_eq!(f.outflow(0).get2(1, 2), 1.0); // third trip checked out in slot 0
        assert_eq!(f.outflow(1).get2(0, 1), 1.0); // second trip
        assert_eq!(f.outflow(4).get2(2, 0), 1.0); // day-1 trip
    }

    #[test]
    fn inflow_keyed_by_return_slot() {
        let f = series();
        assert_eq!(f.inflow(0).get2(1, 0), 1.0); // first trip returned in slot 0
        assert_eq!(f.inflow(1).get2(1, 0), 1.0); // second trip
        assert_eq!(f.inflow(1).get2(2, 1), 1.0); // third trip crossed the slot boundary
    }

    #[test]
    fn demand_supply_are_row_sums() {
        let f = series();
        assert_eq!(f.demand_at(0), &[1.0, 1.0, 0.0]);
        assert_eq!(f.supply_at(0), &[0.0, 1.0, 0.0]);
        assert_eq!(f.supply_at(1), &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn conservation_over_closed_horizon() {
        // Every trip fully inside the horizon adds exactly one checkout and
        // one return: total outflow mass equals total inflow mass.
        let f = series();
        let total_out: f32 = (0..f.num_slots())
            .map(|t| f.outflow(t).sum_all().scalar())
            .sum();
        let total_in: f32 = (0..f.num_slots())
            .map(|t| f.inflow(t).sum_all().scalar())
            .sum();
        assert_eq!(total_out, total_in);
        assert_eq!(total_out, 4.0);
    }

    #[test]
    fn slot_time_helpers() {
        let f = series();
        assert_eq!(f.day_of_slot(5), 1);
        assert_eq!(f.tod_of_slot(5), 1);
        assert_eq!(f.day_of_slot(3), 0);
    }

    #[test]
    fn trips_outside_horizon_partially_counted() {
        let trips = vec![trip(0, 1, 1430, 1445)]; // starts day 0, ends day 1 — but horizon is 1 day
        let f = FlowSeries::from_trips(&trips, 2, 1, 4).unwrap();
        let total_out: f32 = (0..4).map(|t| f.outflow(t).sum_all().scalar()).sum();
        let total_in: f32 = (0..4).map(|t| f.inflow(t).sum_all().scalar()).sum();
        assert_eq!(total_out, 1.0);
        assert_eq!(total_in, 0.0);
    }

    #[test]
    fn max_helpers() {
        let f = series();
        assert_eq!(f.max_flow(), 1.0);
        assert_eq!(f.max_demand_supply(0, f.num_slots()), 1.0);
        assert_eq!(f.max_demand_supply(2, 3), 0.0);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(FlowSeries::from_trips(&[], 0, 1, 4).is_err());
        assert!(FlowSeries::from_trips(&[], 2, 1, 7).is_err()); // 7 ∤ 1440
        assert!(FlowSeries::from_trips(&[], 2, 1, 0).is_err());
    }

    #[test]
    fn window_views_slice_whole_days() {
        let f = series();
        let w = f.window(1..2).unwrap();
        assert_eq!(w.num_days(), 1);
        assert_eq!(w.num_slots(), 4);
        assert_eq!(w.outflow(0).data(), f.outflow(4).data());
        assert_eq!(w.demand_at(0), f.demand_at(4));
        assert!(f.window(1..1).is_err());
        assert!(f.window(1..3).is_err());
    }
}

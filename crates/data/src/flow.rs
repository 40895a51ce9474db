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
//!
//! Almost every matrix entry is zero (99.7 % at 64 stations), so a slot
//! keeps only its trip counts: the sorted nonzero `(origin, destination,
//! count)` entries of each direction. [`FlowSeries::window_stacks`] is the
//! one place that lays them out densely, for the window a forward reads.

use crate::error::{Error, Result};
use crate::trip::TripRecord;
use stgnn_tensor::{Shape, Tensor};

/// `count` trips from station `origin` to station `dest` in one slot: the
/// nonzero entry `O^t[origin][dest]` of an outflow matrix, or
/// `I^t[dest][origin]` of an inflow matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEntry {
    /// Checkout station.
    pub origin: u32,
    /// Return station.
    pub dest: u32,
    /// Trips between them in the slot (at least 1).
    pub count: u32,
}

/// The sorted entries of one slot's `(origin, dest)` pairs, one per trip.
fn count(mut pairs: Vec<(u32, u32)>) -> Vec<FlowEntry> {
    pairs.sort_unstable();
    pairs
        .chunk_by(|a, b| a == b)
        .map(|run| FlowEntry {
            origin: run[0].0,
            dest: run[0].1,
            count: u32::try_from(run.len()).unwrap_or(u32::MAX),
        })
        .collect()
}

/// Per-slot inflow/outflow trip counts and derived demand/supply series.
#[derive(Debug, Clone)]
pub struct FlowSeries {
    n_stations: usize,
    slots_per_day: usize,
    slot_minutes: i64,
    /// `inflow[t]`: the entries of `I^t`, keyed by return slot.
    inflow: Vec<Vec<FlowEntry>>,
    /// `outflow[t]`: the entries of `O^t`, keyed by checkout slot.
    outflow: Vec<Vec<FlowEntry>>,
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
    /// the horizon contribute only the endpoint that falls inside it. A trip
    /// with a station id of `n_stations` or more is an
    /// [`Error::OutOfRange`] naming it.
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
        if n_stations == 0 || u32::try_from(n_stations).is_err() {
            return Err(Error::InvalidConfig(format!(
                "{n_stations} stations: need 1 to {}",
                u32::MAX
            )));
        }
        let slot_minutes = (1440 / slots_per_day) as i64;
        let num_slots = num_days * slots_per_day;
        let mut out_pairs = vec![Vec::new(); num_slots];
        let mut in_pairs = vec![Vec::new(); num_slots];
        let slot = |minute: i64| usize::try_from(minute.div_euclid(slot_minutes)).ok();
        for trip in trips {
            if trip.origin >= n_stations || trip.dest >= n_stations {
                return Err(Error::OutOfRange(format!(
                    "trip {} runs from station {} to station {}, outside the {n_stations} stations",
                    trip.rid, trip.origin, trip.dest
                )));
            }
            // Both ids are below `n_stations`, which fits in u32.
            let pair = (trip.origin as u32, trip.dest as u32);
            if let Some(pairs) = slot(trip.start_min).and_then(|t| out_pairs.get_mut(t)) {
                pairs.push(pair);
            }
            if let Some(pairs) = slot(trip.end_min).and_then(|t| in_pairs.get_mut(t)) {
                pairs.push(pair);
            }
        }
        let inflow: Vec<Vec<FlowEntry>> = in_pairs.into_iter().map(count).collect();
        let outflow: Vec<Vec<FlowEntry>> = out_pairs.into_iter().map(count).collect();

        // Row sums of small integer counts are exact in f32, in any order.
        let mut demand = vec![0.0f32; num_slots * n_stations];
        let mut supply = vec![0.0f32; num_slots * n_stations];
        for t in 0..num_slots {
            for e in &outflow[t] {
                demand[t * n_stations + e.origin as usize] += e.count as f32;
            }
            for e in &inflow[t] {
                supply[t * n_stations + e.dest as usize] += e.count as f32;
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

    /// The nonzero entries of the inflow matrix `I^t`: the trips returned
    /// in slot `t`, sorted by `(origin, dest)`.
    pub fn inflow(&self, t: usize) -> &[FlowEntry] {
        &self.inflow[t]
    }

    /// The nonzero entries of the outflow matrix `O^t`: the trips checked
    /// out in slot `t`, sorted by `(origin, dest)`.
    pub fn outflow(&self, t: usize) -> &[FlowEntry] {
        &self.outflow[t]
    }

    /// The inflow and outflow matrices of `slots`, each slot one row of a
    /// `(slots.len(), n·n)` stack (row-major `I^t` and `O^t`), every count
    /// multiplied by `scale`. Written into zeroed pooled storage, so each
    /// window recycles through the tensor pool.
    pub fn window_stacks(&self, slots: &[usize], scale: f32) -> (Tensor, Tensor) {
        let n = self.n_stations;
        let stack = |series: &[Vec<FlowEntry>], cell: fn(&FlowEntry, usize) -> usize| {
            let mut out = Tensor::zeros(Shape::matrix(slots.len(), n * n));
            for (row, &t) in out.data_mut().chunks_exact_mut(n * n).zip(slots) {
                for e in &series[t] {
                    row[cell(e, n)] = e.count as f32 * scale;
                }
            }
            out
        };
        (
            stack(&self.inflow, |e, n| e.dest as usize * n + e.origin as usize),
            stack(&self.outflow, |e, n| {
                e.origin as usize * n + e.dest as usize
            }),
        )
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

    /// Largest single flow-matrix entry in slots `[t_lo, t_hi)`
    /// (normalisation); 0 when the slots hold no trips.
    pub fn max_flow_in(&self, t_lo: usize, t_hi: usize) -> f32 {
        self.inflow[t_lo..t_hi]
            .iter()
            .chain(&self.outflow[t_lo..t_hi])
            .flatten()
            .map(|e| e.count)
            .max()
            .map_or(0.0, |c| c as f32)
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

    fn entry(origin: u32, dest: u32, count: u32) -> FlowEntry {
        FlowEntry {
            origin,
            dest,
            count,
        }
    }

    /// Sum of every count over the horizon, outflow then inflow.
    fn totals(f: &FlowSeries) -> (u32, u32) {
        let sum = |entries: &[FlowEntry]| entries.iter().map(|e| e.count).sum::<u32>();
        (0..f.num_slots()).fold((0, 0), |(o, i), t| {
            (o + sum(f.outflow(t)), i + sum(f.inflow(t)))
        })
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
        // The first trip and the third, checked out in slot 0.
        assert_eq!(f.outflow(0), &[entry(0, 1, 1), entry(1, 2, 1)]);
        assert_eq!(f.outflow(1), &[entry(0, 1, 1)]); // second trip
        assert_eq!(f.outflow(4), &[entry(2, 0, 1)]); // day-1 trip
        assert!(f.outflow(2).is_empty());
    }

    #[test]
    fn inflow_keyed_by_return_slot() {
        let f = series();
        assert_eq!(f.inflow(0), &[entry(0, 1, 1)]); // first trip returned in slot 0
                                                    // The second trip, and the third, which crossed the slot boundary.
        assert_eq!(f.inflow(1), &[entry(0, 1, 1), entry(1, 2, 1)]);
    }

    #[test]
    fn repeated_pairs_in_a_slot_count_once_as_one_entry() {
        let trips = vec![trip(1, 0, 5, 20), trip(1, 0, 40, 50), trip(1, 1, 60, 70)];
        let f = FlowSeries::from_trips(&trips, 2, 1, 4).unwrap();
        assert_eq!(f.outflow(0), &[entry(1, 0, 2), entry(1, 1, 1)]);
        assert_eq!(f.max_flow_in(0, 4), 2.0);
        assert_eq!(f.demand_at(0), &[0.0, 3.0]);
        assert_eq!(f.supply_at(0), &[2.0, 1.0]);
    }

    /// `I^t[i][j]` sits at `i·n + j` with `i` the return station, `O^t[i][j]`
    /// with `i` the checkout station, every count scaled.
    #[test]
    fn window_stacks_lay_out_each_slot_as_a_scaled_row_major_matrix() {
        let f = series();
        let (inflow, outflow) = f.window_stacks(&[1, 0], 0.5);
        assert_eq!(inflow.shape(), &Shape::matrix(2, 9));
        let mut want_in = [0.0; 18];
        want_in[3] = 0.5; // slot 1: I[1][0], trip 0 → 1
        want_in[2 * 3 + 1] = 0.5; // slot 1: I[2][1], trip 1 → 2
        want_in[9 + 3] = 0.5; // slot 0: I[1][0], trip 0 → 1
        assert_eq!(inflow.data(), &want_in[..]);
        let mut want_out = [0.0; 18];
        want_out[1] = 0.5; // slot 1: O[0][1]
        want_out[9 + 1] = 0.5; // slot 0: O[0][1]
        want_out[9 + 3 + 2] = 0.5; // slot 0: O[1][2]
        assert_eq!(outflow.data(), &want_out[..]);
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
        assert_eq!(totals(&series()), (4, 4));
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
        // Starts day 0, ends day 1 — but the horizon is 1 day.
        let late = FlowSeries::from_trips(&[trip(0, 1, 1430, 1445)], 2, 1, 4).unwrap();
        assert_eq!(totals(&late), (1, 0));
        // Picked up 5 minutes before the epoch: only the return counts.
        let early = FlowSeries::from_trips(&[trip(0, 1, -5, 10)], 2, 1, 4).unwrap();
        assert_eq!(totals(&early), (0, 1));
    }

    #[test]
    fn max_helpers() {
        let f = series();
        assert_eq!(f.max_flow_in(0, f.num_slots()), 1.0);
        assert_eq!(f.max_flow_in(2, 4), 0.0);
        assert_eq!(f.max_demand_supply(0, f.num_slots()), 1.0);
        assert_eq!(f.max_demand_supply(2, 3), 0.0);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(FlowSeries::from_trips(&[], 0, 1, 4).is_err());
        assert!(FlowSeries::from_trips(&[], 2, 1, 7).is_err()); // 7 ∤ 1440
        assert!(FlowSeries::from_trips(&[], 2, 1, 0).is_err());
    }

    /// A trip to station 3 of a 3-station city is refused by name, whether
    /// its return falls past the horizon or inside it.
    #[test]
    fn out_of_range_trip_endpoints_are_a_typed_error() {
        let mut stray = trip(0, 3, 10, 30);
        stray.rid = 77;
        let past_horizon = TripRecord {
            end_min: 2000,
            ..stray
        };
        for bad in [
            past_horizon,
            stray,
            TripRecord {
                origin: 5,
                dest: 0,
                ..stray
            },
        ] {
            match FlowSeries::from_trips(&[trip(0, 1, 10, 30), bad], 3, 1, 4) {
                Err(Error::OutOfRange(msg)) => assert!(msg.contains("trip 77"), "{msg}"),
                other => panic!("{bad:?}: expected OutOfRange, got {other:?}"),
            }
        }
    }
}

//! Sliding whole-day ingestion window: the FCG/PCG inputs of the online
//! loop.
//!
//! The paper derives its graphs from the flow matrices: the FCG edge set
//! from inflow/outflow, the PCG attention from demand/supply. Refreshing
//! the graphs online therefore means holding a [`FlowSeries`] over the
//! most recent `window_days` of trips. [`TripWindow`] buffers whole days of
//! trips and, on every [`TripWindow::push_day`], re-aggregates the buffered
//! trips with [`FlowSeries::from_trips`], rebased so that window day 0 is
//! the oldest buffered day. The window's flows are therefore exactly the
//! batch aggregation of its trips, with the same clipping at both ends of
//! the horizon: a trip whose drop-off falls in a later day counts there
//! only while its pickup day is buffered, and a drop-off past the horizon
//! counts once a slide brings it inside.

use crate::{OnlineError, Result};
use std::collections::VecDeque;
use stgnn_data::{FlowSeries, TripRecord};

/// Minutes per day (trips carry absolute minutes-from-epoch timestamps).
const MINUTES_PER_DAY: i64 = 24 * 60;

/// A sliding window of whole days of trips, with their flow aggregation
/// and a monotone graph epoch that advances on every change of the
/// FCG/PCG inputs.
#[derive(Debug, Clone)]
pub struct TripWindow {
    /// Absolute day index of window day 0.
    start_day: usize,
    /// Buffered trips per window day, in absolute minutes, keyed by the
    /// day their pickup falls in.
    days: VecDeque<Vec<TripRecord>>,
    /// Aggregation of the buffered days over a horizon of the window's
    /// length.
    flows: FlowSeries,
    graph_epoch: u64,
}

impl TripWindow {
    /// An empty window covering `window_days` whole days.
    pub fn new(n_stations: usize, window_days: usize, slots_per_day: usize) -> Result<Self> {
        if window_days == 0 {
            return Err(OnlineError::BadPhase("window_days must be ≥ 1".into()));
        }
        let flows = FlowSeries::from_trips(&[], n_stations, window_days, slots_per_day)?;
        Ok(TripWindow {
            start_day: 0,
            days: VecDeque::new(),
            flows,
            graph_epoch: 1,
        })
    }

    /// Ingests one whole day of trips (the day after the newest buffered
    /// one). When the window is full the oldest day leaves first, and the
    /// flows are re-aggregated over the buffered days.
    pub fn push_day(&mut self, trips: &[TripRecord]) {
        if self.is_full() {
            self.days.pop_front();
            self.start_day += 1;
        }
        self.days.push_back(trips.to_vec());
        let offset = self.start_day as i64 * MINUTES_PER_DAY;
        let rebased: Vec<TripRecord> = self
            .days
            .iter()
            .flatten()
            .map(|t| TripRecord {
                start_min: t.start_min - offset,
                end_min: t.end_min - offset,
                ..*t
            })
            .collect();
        // `new` aggregated with these same dimensions, so this cannot fail.
        if let Ok(flows) = FlowSeries::from_trips(
            &rebased,
            self.flows.n_stations(),
            self.flows.num_days(),
            self.flows.slots_per_day(),
        ) {
            self.flows = flows;
        }
        self.graph_epoch += 1;
    }

    /// The flow aggregation over the window.
    pub fn flows(&self) -> &FlowSeries {
        &self.flows
    }

    /// Monotone FCG/PCG input generation; bumps on every ingested day.
    pub fn graph_epoch(&self) -> u64 {
        self.graph_epoch
    }

    /// Restores a persisted epoch after crash recovery replays the window:
    /// replay is deterministic in content but restarts the counter, and
    /// the epoch must stay monotone across restarts for cache-key
    /// invalidation to hold. Clamped to never move backwards.
    pub fn restore_graph_epoch(&mut self, epoch: u64) {
        self.graph_epoch = self.graph_epoch.max(epoch);
    }

    /// Absolute day index of window day 0.
    pub fn start_day(&self) -> usize {
        self.start_day
    }

    /// Days currently buffered (≤ the window length).
    pub fn days_buffered(&self) -> usize {
        self.days.len()
    }

    /// Whether the window has a full `window_days` of data.
    pub fn is_full(&self) -> bool {
        self.days.len() == self.flows.num_days()
    }

    /// Always `Ok(())`: the flows are re-aggregated by every
    /// [`Self::push_day`], so there is nothing left to check. Kept only
    /// because the repository benchmark (`perfbench/src/online.rs`) calls
    /// it as a step of its cycle replay.
    pub fn verify(&self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgnn_data::flow::FlowEntry;

    fn trip(rid: u64, origin: usize, dest: usize, start_min: i64, dur: i64) -> TripRecord {
        TripRecord {
            rid,
            origin,
            dest,
            start_min,
            end_min: start_min + dur,
        }
    }

    /// Sum of every inflow and every outflow count over the horizon.
    fn totals(flows: &FlowSeries) -> (u32, u32) {
        let sum = |entries: &[FlowEntry]| entries.iter().map(|e| e.count).sum::<u32>();
        (0..flows.num_slots()).fold((0, 0), |(i, o), t| {
            (i + sum(flows.inflow(t)), o + sum(flows.outflow(t)))
        })
    }

    /// The entries of a slot holding one trip `origin → dest`.
    fn one_trip(origin: u32, dest: u32) -> [FlowEntry; 1] {
        [FlowEntry {
            origin,
            dest,
            count: 1,
        }]
    }

    #[test]
    fn filling_and_sliding_track_days_and_epoch() {
        let mut w = TripWindow::new(6, 3, 24).unwrap();
        assert_eq!(w.graph_epoch(), 1);
        for day in 0..7 {
            let noon = day as i64 * MINUTES_PER_DAY + 720;
            w.push_day(&[trip(day, 0, 1, noon, 15)]);
            assert_eq!(w.days_buffered(), (day as usize + 1).min(3));
        }
        assert!(w.is_full());
        assert_eq!(w.start_day(), 4);
        assert_eq!(w.graph_epoch(), 8);
        // Days 4, 5 and 6 remain, each one trip in its noon slot.
        assert_eq!(totals(w.flows()), (3, 3));
        for day in 0..3 {
            assert_eq!(w.flows().outflow(day * 24 + 12), &one_trip(0, 1));
        }
        w.verify().unwrap();
    }

    /// A trip picked up at 23:55 of day 0 and dropped off on day 1 counts
    /// in day 1's inflow while day 0 is buffered; once day 0 slides out,
    /// its drop-off leaves the surviving day with it.
    #[test]
    fn a_departed_days_overnight_trip_no_longer_counts_in_the_surviving_day() {
        let mut w = TripWindow::new(4, 2, 24).unwrap();
        let overnight = trip(1, 0, 1, MINUTES_PER_DAY - 5, 30);
        let morning = trip(2, 2, 3, MINUTES_PER_DAY + 8 * 60 + 10, 30);
        w.push_day(&[overnight]);
        w.push_day(&[morning]);
        let f = w.flows();
        assert_eq!(f.outflow(23), &one_trip(0, 1));
        assert_eq!(f.inflow(24), &one_trip(0, 1));
        assert_eq!(f.supply_at(24), &[0.0, 1.0, 0.0, 0.0]);
        assert_eq!(f.outflow(32), &one_trip(2, 3));
        assert_eq!(totals(f), (2, 2));

        w.push_day(&[]);
        assert_eq!(w.start_day(), 1);
        let f = w.flows();
        // Day 1 is window day 0 now: the morning trip moved to its slot 8,
        // and the overnight drop-off is gone from its slot 0.
        assert!(f.inflow(0).is_empty());
        assert_eq!(f.supply_at(0), &[0.0; 4]);
        assert_eq!(f.outflow(8), &one_trip(2, 3));
        assert_eq!(f.demand_at(8), &[0.0, 0.0, 1.0, 0.0]);
        assert_eq!(totals(f), (1, 1));
    }

    /// A trip picked up at 22:00 of the newest day and dropped off at
    /// 02:30 the next day counts only its pickup until the window slides;
    /// the slide brings the drop-off inside the horizon.
    #[test]
    fn a_dropoff_past_the_horizon_is_clipped_until_a_slide_brings_it_inside() {
        let mut w = TripWindow::new(4, 2, 24).unwrap();
        let overnight = trip(1, 3, 0, MINUTES_PER_DAY - 5, 30);
        let late = trip(2, 1, 2, MINUTES_PER_DAY + 22 * 60, 4 * 60 + 30);
        w.push_day(&[overnight]);
        w.push_day(&[late]);
        let f = w.flows();
        assert_eq!(f.outflow(46), &one_trip(1, 2));
        assert_eq!(totals(f), (1, 2), "only the overnight drop-off is inside");

        w.push_day(&[]);
        let f = w.flows();
        assert_eq!(f.outflow(22), &one_trip(1, 2));
        assert_eq!(f.inflow(26), &one_trip(1, 2));
        assert_eq!(f.supply_at(26), &[0.0, 0.0, 1.0, 0.0]);
        assert_eq!(totals(f), (1, 1), "the departed overnight trip is gone");
    }
}

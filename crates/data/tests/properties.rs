//! Property-based tests for the data substrate.

use proptest::prelude::*;
use stgnn_data::flow::FlowSeries;
use stgnn_data::metrics::MetricsAccumulator;
use stgnn_data::trip::{cleanse, RawTripRecord, TripRecord};

const N_STATIONS: usize = 4;
const DAYS: usize = 2;
const SLOTS_PER_DAY: usize = 24;
const HORIZON_MIN: i64 = (DAYS as i64) * 1440;

/// Strategy: a trip fully inside the horizon with a sane duration.
fn trip() -> impl Strategy<Value = TripRecord> {
    (
        0usize..N_STATIONS,
        0usize..N_STATIONS,
        0i64..HORIZON_MIN - 120,
        1i64..120,
    )
        .prop_map(|(o, d, start, dur)| TripRecord {
            rid: 0,
            origin: o,
            dest: d,
            start_min: start,
            end_min: start + dur,
        })
}

/// Strategy: one to three copies of a trip (so a slot often repeats a
/// pair), a self-trip one time in four, whose checkout or return may fall
/// up to two hours outside the horizon at either end.
fn trip_burst() -> impl Strategy<Value = Vec<TripRecord>> {
    (
        0usize..N_STATIONS,
        0usize..N_STATIONS,
        -120i64..HORIZON_MIN + 120,
        0i64..240,
        1usize..4,
    )
        .prop_map(|(o, d, start, dur, copies)| {
            let trip = TripRecord {
                rid: 0,
                origin: o,
                dest: d,
                start_min: start,
                end_min: start + dur,
            };
            vec![trip; copies]
        })
}

/// Strategy: a raw record that may violate any cleansing rule.
fn raw_trip() -> impl Strategy<Value = RawTripRecord> {
    (
        proptest::option::of(0usize..N_STATIONS + 2),
        proptest::option::of(0usize..N_STATIONS + 2),
        -100i64..HORIZON_MIN,
        -200i64..26 * 60,
    )
        .prop_map(|(o, d, start, dur)| RawTripRecord {
            rid: 1,
            origin: o,
            dest: d,
            start_min: start,
            end_min: start + dur,
        })
}

proptest! {
    #[test]
    fn flow_mass_is_conserved(trips in proptest::collection::vec(trip(), 0..200)) {
        // Every in-horizon trip contributes exactly one checkout and one
        // return, so total outflow mass equals total inflow mass.
        let f = FlowSeries::from_trips(&trips, N_STATIONS, DAYS, SLOTS_PER_DAY).unwrap();
        let all: Vec<usize> = (0..f.num_slots()).collect();
        let (inflow, outflow) = f.window_stacks(&all, 1.0);
        let total_out: f32 = outflow.sum_all().scalar();
        let total_in: f32 = inflow.sum_all().scalar();
        prop_assert_eq!(total_out, trips.len() as f32);
        prop_assert_eq!(total_in, trips.len() as f32);
    }

    #[test]
    fn demand_supply_match_matrix_sums(trips in proptest::collection::vec(trip(), 0..100)) {
        let f = FlowSeries::from_trips(&trips, N_STATIONS, DAYS, SLOTS_PER_DAY).unwrap();
        for t in 0..f.num_slots() {
            let d = f.demand_at(t);
            let s = f.supply_at(t);
            let (inflow, outflow) = f.window_stacks(&[t], 1.0);
            for i in 0..N_STATIONS {
                let row = i * N_STATIONS..(i + 1) * N_STATIONS;
                let out_sum: f32 = outflow.data()[row.clone()].iter().sum();
                let in_sum: f32 = inflow.data()[row].iter().sum();
                prop_assert_eq!(d[i], out_sum);
                prop_assert_eq!(s[i], in_sum);
            }
        }
    }

    #[test]
    fn densified_slots_equal_a_brute_force_count(
        bursts in proptest::collection::vec(trip_burst(), 0..80),
    ) {
        // Every densified slot equals a brute-force count over the trips:
        // `O^t[o][d]` counts the trips `o → d` picked up in slot `t`, and
        // `I^t[d][o]` those returned in it; an endpoint outside the horizon
        // counts nowhere.
        let trips: Vec<TripRecord> = bursts.into_iter().flatten().collect();
        let f = FlowSeries::from_trips(&trips, N_STATIONS, DAYS, SLOTS_PER_DAY).unwrap();
        let slot_minutes = (1440 / SLOTS_PER_DAY) as i64;
        let n = N_STATIONS;
        for t in 0..f.num_slots() {
            let mut want_in = vec![0.0f32; n * n];
            let mut want_out = vec![0.0f32; n * n];
            for trip in &trips {
                if trip.start_min >= 0 && trip.start_min / slot_minutes == t as i64 {
                    want_out[trip.origin * n + trip.dest] += 1.0;
                }
                if trip.end_min >= 0 && trip.end_min / slot_minutes == t as i64 {
                    want_in[trip.dest * n + trip.origin] += 1.0;
                }
            }
            let (inflow, outflow) = f.window_stacks(&[t], 1.0);
            prop_assert_eq!(inflow.data(), &want_in[..], "inflow at slot {}", t);
            prop_assert_eq!(outflow.data(), &want_out[..], "outflow at slot {}", t);
        }
    }

    #[test]
    fn cleansing_report_accounts_for_every_record(raws in proptest::collection::vec(raw_trip(), 0..100)) {
        let (kept, report) = cleanse(&raws, N_STATIONS);
        prop_assert_eq!(report.total(), raws.len());
        prop_assert_eq!(report.kept, kept.len());
        // Survivors satisfy every rule.
        for t in &kept {
            prop_assert!(t.origin < N_STATIONS && t.dest < N_STATIONS);
            prop_assert!(t.start_min >= 0);
            prop_assert!(t.duration_min() >= 1 && t.duration_min() <= 24 * 60);
        }
    }

    #[test]
    fn metrics_are_nonnegative_and_rmse_dominates_mae(
        pred in proptest::collection::vec(0.0f32..20.0, 8),
        truth in proptest::collection::vec(0.5f32..20.0, 8),
    ) {
        let mut acc = MetricsAccumulator::new();
        acc.add_slot(&pred[..4], &pred[4..], &truth[..4], &truth[4..]);
        let row = acc.finalize();
        prop_assert!(row.rmse_mean >= 0.0);
        prop_assert!(row.mae_mean >= 0.0);
        // RMS ≥ mean of absolute values (Jensen), per slot and so in the mean.
        prop_assert!(row.rmse_mean >= row.mae_mean - 1e-5);
    }

    #[test]
    fn metrics_scale_linearly_with_error(
        truth in proptest::collection::vec(1.0f32..10.0, 4),
        delta in 0.1f32..5.0,
    ) {
        // pred = truth + delta everywhere ⇒ RMSE = MAE = delta.
        let pred: Vec<f32> = truth.iter().map(|&v| v + delta).collect();
        let mut acc = MetricsAccumulator::new();
        acc.add_slot(&pred[..2], &pred[2..], &truth[..2], &truth[2..]);
        let row = acc.finalize();
        prop_assert!((row.rmse_mean - delta).abs() < 1e-4);
        prop_assert!((row.mae_mean - delta).abs() < 1e-4);
    }
}

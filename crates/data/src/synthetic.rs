//! Calibrated synthetic bike-sharing city generator.
//!
//! The paper evaluates on the Divvy (Chicago) and Metro Bike (Los Angeles)
//! trip logs, which are not redistributable here. This module generates raw
//! trip records with the *structural properties the model exploits*, so the
//! whole pipeline — cleansing, slot aggregation, training, evaluation — runs
//! unchanged on data with the same shape:
//!
//! * **Archetype stations** (residential / office / school / transit /
//!   leisure / mixed) with schedule-driven origin–destination rates: the
//!   paper's "two schools far apart share a pattern" motif (Fig 3b) holds by
//!   construction, because all schools follow the same bell schedule.
//! * **Distance-dependent travel-time lags**: a checkout at `i` becomes a
//!   return at `j` one or more slots later, which is exactly the joint
//!   spatial-temporal dependency the flow-convoluted graph captures.
//! * **A non-monotone distance kernel**: riders rarely bike very short or
//!   very long distances, so nearby stations do *not* automatically have the
//!   strongest flow dependency (§VIII's counter-locality claim).
//! * **Daily and weekly periodicity** with weekday/weekend regime changes,
//!   feeding the long-term (`d`-day) branch of the flow convolution.
//! * **Non-stationary regimes**: a per-day intensity factor (weather-like),
//!   an autocorrelated within-day momentum process, and random school
//!   closure days. These matter: without them, same-interval averages are
//!   near-optimal and no model can beat Historical Average; with them,
//!   models that read *recent* flow (lags, and especially the full flow
//!   matrices) see today's regime while HA cannot — the same property that
//!   separates the model classes on the real Divvy/Metro data.
//! * **Poisson trip counts** per (origin, destination, slot).
//!
//! The presets are scaled down from the real systems (571→64 and 83→32
//! stations) so CPU training fits the experiment harness; per-station trip
//! densities match the real datasets (~20 and ~8.5 trips/station/day).

use crate::station::{Archetype, Station, StationRegistry};
use crate::trip::{RawTripRecord, TripRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a synthetic city.
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// Display name ("chicago-like", …).
    pub name: String,
    /// Number of stations.
    pub n_stations: usize,
    /// Horizon in days.
    pub days: usize,
    /// Slots per day (the paper uses 96 × 15 min).
    pub slots_per_day: usize,
    /// RNG seed; everything downstream is deterministic in it.
    pub seed: u64,
    /// Calibration target: mean trips per station per day.
    pub trips_per_station_day: f32,
    /// Mean riding speed used to derive travel times.
    pub bike_speed_kmh: f64,
    /// City radius in km (stations are scattered within it).
    pub radius_km: f64,
}

impl CityConfig {
    /// A Divvy-like city: larger, denser traffic (scaled from 571 stations /
    /// ~20 trips/station/day over 275 days).
    pub fn chicago_like() -> Self {
        CityConfig {
            name: "chicago-like".into(),
            n_stations: 64,
            days: 28,
            slots_per_day: 96,
            seed: 0xC41CA60,
            trips_per_station_day: 20.0,
            bike_speed_kmh: 9.0,
            radius_km: 7.0,
        }
    }

    /// A Metro-Bike-like city: smaller, sparser traffic (scaled from 83
    /// stations / ~8.5 trips/station/day over 457 days).
    pub fn los_angeles_like() -> Self {
        CityConfig {
            name: "la-like".into(),
            n_stations: 32,
            days: 35,
            slots_per_day: 96,
            seed: 0x10A276,
            trips_per_station_day: 8.5,
            bike_speed_kmh: 9.0,
            radius_km: 5.0,
        }
    }

    /// A deliberately tiny city for unit tests: fast to generate and train.
    pub fn test_tiny(seed: u64) -> Self {
        CityConfig {
            name: "tiny".into(),
            n_stations: 10,
            days: 8,
            slots_per_day: 24,
            seed,
            trips_per_station_day: 30.0,
            bike_speed_kmh: 9.0,
            radius_km: 4.0,
        }
    }

    /// A mid-size city for integration tests and quick experiments.
    pub fn test_small(seed: u64) -> Self {
        CityConfig {
            name: "small".into(),
            n_stations: 20,
            days: 14,
            slots_per_day: 48,
            seed,
            trips_per_station_day: 25.0,
            bike_speed_kmh: 9.0,
            radius_km: 5.0,
        }
    }
}

/// A generated city: stations plus cleansed trip records.
#[derive(Debug, Clone)]
pub struct SyntheticCity {
    /// The generating configuration.
    pub config: CityConfig,
    /// Stations with coordinates and archetypes.
    pub registry: StationRegistry,
    /// Trips, ordered by checkout time.
    pub trips: Vec<TripRecord>,
}

impl SyntheticCity {
    /// Generates a city from a configuration. Deterministic in the seed.
    pub fn generate(config: CityConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let registry = place_stations(&config, &mut rng);
        let trips = generate_trips(&config, &registry, &mut rng);
        SyntheticCity {
            config,
            registry,
            trips,
        }
    }

    /// The trips as raw records, optionally corrupting a fraction of them
    /// (missing stations, impossible durations) to exercise the cleansing
    /// pipeline end-to-end.
    pub fn to_raw(&self, dirty_fraction: f32, seed: u64) -> Vec<RawTripRecord> {
        let mut rng = StdRng::seed_from_u64(seed);
        self.trips
            .iter()
            .map(|t| {
                let mut raw = RawTripRecord {
                    rid: t.rid,
                    origin: Some(t.origin),
                    dest: Some(t.dest),
                    start_min: t.start_min,
                    end_min: t.end_min,
                };
                if rng.gen::<f32>() < dirty_fraction {
                    match rng.gen_range(0..3) {
                        0 => raw.origin = None,
                        1 => raw.end_min = raw.start_min - rng.gen_range(1..60),
                        _ => raw.end_min = raw.start_min + 25 * 60,
                    }
                }
                raw
            })
            .collect()
    }
}

/// Scatters stations around a city centre and assigns archetypes.
///
/// Guarantees at least two stations of each "scheduled" archetype (school,
/// office, residential) so the pattern-correlation motif always exists.
fn place_stations(config: &CityConfig, rng: &mut StdRng) -> StationRegistry {
    // Archetype mix loosely follows a commuter city.
    const WEIGHTS: [(Archetype, f32); 6] = [
        (Archetype::Residential, 0.32),
        (Archetype::Office, 0.22),
        (Archetype::School, 0.12),
        (Archetype::Transit, 0.12),
        (Archetype::Leisure, 0.10),
        (Archetype::Mixed, 0.12),
    ];
    let (lat0, lon0) = (41.88f64, -87.63f64);
    let mut stations = Vec::with_capacity(config.n_stations);
    for id in 0..config.n_stations {
        // Force the first six ids to cover every archetype twice-over the
        // scheduled ones; the remainder is sampled from the mix.
        let archetype = match id {
            0 | 1 => Archetype::School,
            2 | 3 => Archetype::Office,
            4 | 5 => Archetype::Residential,
            _ => {
                let x: f32 = rng.gen();
                let mut acc = 0.0;
                let mut chosen = Archetype::Mixed;
                for (a, w) in WEIGHTS {
                    acc += w;
                    if x < acc {
                        chosen = a;
                        break;
                    }
                }
                chosen
            }
        };
        // Radial scatter; schools are pushed apart deliberately (ids 0 and 1
        // land on opposite sides of town) so the "distant but correlated"
        // pair exists at any city size.
        let (r_km, angle) = match id {
            0 => (config.radius_km * 0.8, 0.0),
            1 => (config.radius_km * 0.8, std::f64::consts::PI),
            _ => {
                let r: f64 = rng.gen::<f64>().sqrt() * config.radius_km;
                (r, rng.gen::<f64>() * std::f64::consts::TAU)
            }
        };
        let dlat = r_km * angle.cos() / 110.574;
        let dlon = r_km * angle.sin() / (111.320 * lat0.to_radians().cos());
        stations.push(Station {
            id,
            name: format!("{}-{archetype}-{id}", config.name),
            lon: lon0 + dlon,
            lat: lat0 + dlat,
            archetype,
        });
    }
    StationRegistry::new(stations)
}

/// Distance attractiveness kernel: a bump peaking near 1.8 km. Riders rarely
/// bike trivially short or very long hops, so the *flow* dependency between
/// immediate neighbours is weak — the paper's counter-locality observation.
fn distance_kernel(d_km: f64) -> f32 {
    if d_km <= 0.05 {
        return 0.0; // no self-loops / same-dock hops
    }
    let z = (d_km - 1.8) / 1.2;
    (-z * z).exp() as f32
}

/// Emission propensity of an origin archetype (how many riders start there).
fn emission(a: Archetype) -> f32 {
    match a {
        Archetype::Residential => 1.0,
        Archetype::Office => 0.9,
        Archetype::School => 0.8,
        Archetype::Transit => 1.1,
        Archetype::Leisure => 0.6,
        Archetype::Mixed => 0.5,
    }
}

/// Attraction of a destination archetype.
fn attraction(a: Archetype) -> f32 {
    match a {
        Archetype::Residential => 0.9,
        Archetype::Office => 1.0,
        Archetype::School => 0.8,
        Archetype::Transit => 1.0,
        Archetype::Leisure => 0.7,
        Archetype::Mixed => 0.5,
    }
}

/// Gaussian bump over hour-of-day.
fn bump(hour: f32, centre: f32, width: f32) -> f32 {
    let z = (hour - centre) / width;
    (-0.5 * z * z).exp()
}

/// Schedule weight for an (origin, destination) archetype pair at a given
/// hour. This is where the joint spatial-temporal structure comes from.
fn pair_schedule(o: Archetype, d: Archetype, hour: f32, weekend: bool) -> f32 {
    use Archetype::*;
    let mut w = 0.05; // background traffic between any pair
    if !weekend {
        match (o, d) {
            (Residential, Office) | (Residential, Transit) | (Transit, Office) => {
                w += 1.0 * bump(hour, 8.0, 0.8);
            }
            (Office, Residential) | (Transit, Residential) | (Office, Transit) => {
                w += 1.0 * bump(hour, 17.5, 1.0);
            }
            (Residential, School) => {
                w += 1.2 * bump(hour, 7.9, 0.45);
            }
            (School, Residential) => {
                w += 1.2 * bump(hour, 15.3, 0.55);
            }
            (Office, Office) | (Office, Mixed) | (Mixed, Office) => {
                w += 0.3 * bump(hour, 12.5, 1.2); // lunch traffic
            }
            _ => {}
        }
    } else {
        // Weekend: leisure dominates, commute structure disappears.
        match (o, d) {
            (_, Leisure) => w += 0.8 * bump(hour, 13.5, 2.2),
            (Leisure, _) => w += 0.8 * bump(hour, 16.0, 2.2),
            _ => w += 0.15 * bump(hour, 14.0, 3.0),
        }
    }
    w
}

/// Standard normal sample via Box–Muller (avoids a rand_distr dependency).
fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen::<f32>().max(1e-7);
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

/// Samples a Poisson count (Knuth's method; λ here is always ≲ 5).
fn poisson(rng: &mut StdRng, lambda: f32) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0f32;
    loop {
        p *= rng.gen::<f32>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 1000 {
            return k; // λ misuse guard; unreachable at our rates
        }
    }
}

fn generate_trips(
    config: &CityConfig,
    registry: &StationRegistry,
    rng: &mut StdRng,
) -> Vec<TripRecord> {
    let n = registry.len();
    let slots = config.slots_per_day;
    let slot_min = (1440 / slots) as f32;

    // Station popularity is heavy-tailed in real systems (a few downtown
    // hubs carry most trips); lognormal multipliers reproduce that. The
    // busy stations are where per-slot counts rise above the Poisson noise
    // floor — and where the models separate, as in the paper's evaluation.
    let popularity: Vec<f32> = (0..n)
        .map(|_| (0.9 * gaussian(rng)).exp().clamp(0.1, 8.0))
        .collect();

    // Precompute the gravity term per pair and the schedule table per
    // (archetype pair, weekend, slot): O(n²) + O(36·2·slots) instead of
    // re-evaluating transcendentals n²·slots times.
    let mut gravity = vec![0.0f32; n * n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let d = registry.distance_km(i, j);
            gravity[i * n + j] = popularity[i]
                * popularity[j]
                * emission(registry.get(i).archetype)
                * attraction(registry.get(j).archetype)
                * distance_kernel(d);
        }
    }
    let arch_index = |a: Archetype| Archetype::ALL.iter().position(|&x| x == a).unwrap();
    let mut schedule = vec![0.0f32; 6 * 6 * 2 * slots];
    for (oi, &o) in Archetype::ALL.iter().enumerate() {
        for (di, &d) in Archetype::ALL.iter().enumerate() {
            for we in 0..2 {
                for s in 0..slots {
                    let hour = (s as f32 + 0.5) * slot_min / 60.0;
                    schedule[((oi * 6 + di) * 2 + we) * slots + s] =
                        pair_schedule(o, d, hour, we == 1);
                }
            }
        }
    }

    // Calibration: expected trips per day with intensity 1, averaged over a
    // 5-weekday/2-weekend-day week, then scale to the configured density.
    let mut expected_per_day = 0.0f64;
    for i in 0..n {
        let oi = arch_index(registry.get(i).archetype);
        for j in 0..n {
            let g = gravity[i * n + j];
            if g == 0.0 {
                continue;
            }
            let di = arch_index(registry.get(j).archetype);
            for s in 0..slots {
                let wd = schedule[((oi * 6 + di) * 2) * slots + s];
                let we = schedule[((oi * 6 + di) * 2 + 1) * slots + s];
                expected_per_day += (g * (wd * 5.0 + we * 2.0) / 7.0) as f64;
            }
        }
    }
    let target_per_day = config.trips_per_station_day as f64 * n as f64;
    let intensity = if expected_per_day > 0.0 {
        (target_per_day / expected_per_day) as f32
    } else {
        0.0
    };

    // Non-stationary regimes. A per-day, per-archetype intensity factor
    // models weather and events hitting activity types differently (rain
    // curbs leisure rides more than commutes); per-archetype momentum
    // processes model within-day bursts; school-closure days suppress
    // school traffic city-wide. All of this is visible in *recent flows*
    // but invisible to same-interval averages — and because the factor is
    // shared across stations of an archetype, pooling over pattern-similar
    // stations (what the PCG does) estimates it better than any per-station
    // history can. An origin–destination pair's factor is the geometric
    // mean of its endpoints'.
    let day_factor: Vec<f32> = (0..config.days * 6)
        .map(|_| (0.40 * gaussian(rng)).exp().clamp(0.4, 2.5))
        .collect();
    let school_closed: Vec<bool> = (0..config.days)
        .map(|day| day % 7 < 5 && rng.gen::<f32>() < 0.15)
        .collect();
    let school_idx = arch_index(Archetype::School);
    let mut momentum = [0.0f32; 6];

    let mut trips = Vec::new();
    let mut rid = 0u64;
    for day in 0..config.days {
        let weekend = usize::from(day % 7 >= 5);
        for s in 0..slots {
            let mut regime = [0.0f32; 6];
            for (a, m) in momentum.iter_mut().enumerate() {
                // ρ = 0.88, σ = 0.30 ⇒ stationary std ≈ 0.63: a fast,
                // archetype-wide swing. One sparse station cannot estimate
                // it from its own counts; pooling across the archetype can —
                // this is the component that separates spatial models from
                // per-station temporal ones.
                *m = 0.88 * *m + 0.30 * gaussian(rng);
                regime[a] = day_factor[day * 6 + a] * m.exp().clamp(0.35, 2.8);
            }
            let slot_start = (day * slots + s) as i64 * slot_min as i64;
            for i in 0..n {
                let oi = arch_index(registry.get(i).archetype);
                for j in 0..n {
                    // A zero-gravity pair (a self-loop, a same-dock hop) has
                    // rate 0, which `poisson` answers without a draw.
                    let g = gravity[i * n + j];
                    let di = arch_index(registry.get(j).archetype);
                    let pair_regime = (regime[oi] * regime[di]).sqrt();
                    let mut lambda = pair_regime
                        * intensity
                        * g
                        * schedule[((oi * 6 + di) * 2 + weekend) * slots + s];
                    if school_closed[day] && (oi == school_idx || di == school_idx) {
                        lambda *= 0.05;
                    }
                    for _ in 0..poisson(rng, lambda) {
                        let start = slot_start + rng.gen_range(0..slot_min as i64);
                        let ride_km = registry.distance_km(i, j);
                        let base_min = ride_km / config.bike_speed_kmh * 60.0;
                        let travel = (base_min * rng.gen_range(0.8..1.4) + 2.0).round() as i64;
                        trips.push(TripRecord {
                            rid,
                            origin: i,
                            dest: j,
                            start_min: start,
                            end_min: start + travel.max(1),
                        });
                        rid += 1;
                    }
                }
            }
        }
    }
    trips.sort_by_key(|t| t.start_min);
    trips
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSeries;
    use crate::trip::cleanse;

    fn tiny() -> SyntheticCity {
        SyntheticCity::generate(CityConfig::test_tiny(7))
    }

    #[test]
    fn deterministic_under_seed() {
        let a = SyntheticCity::generate(CityConfig::test_tiny(3));
        let b = SyntheticCity::generate(CityConfig::test_tiny(3));
        assert_eq!(a.trips, b.trips);
        let c = SyntheticCity::generate(CityConfig::test_tiny(4));
        assert_ne!(a.trips, c.trips);
    }

    #[test]
    fn trip_volume_near_calibration_target() {
        // The per-day regime factor makes any single short horizon noisy;
        // calibration is a property of the expectation, so average seeds.
        let mut total = 0.0f32;
        let mut station_days = 0.0f32;
        let mut target = 0.0f32;
        for seed in 0..5 {
            let city = SyntheticCity::generate(CityConfig::test_tiny(seed));
            total += city.trips.len() as f32;
            station_days += (city.config.n_stations * city.config.days) as f32;
            target = city.config.trips_per_station_day;
        }
        let per_station_day = total / station_days;
        assert!(
            (per_station_day - target).abs() / target < 0.3,
            "calibration off: {per_station_day} vs target {target}"
        );
    }

    #[test]
    fn trips_are_valid_and_sorted() {
        let city = tiny();
        let n = city.registry.len();
        let mut prev = i64::MIN;
        for t in &city.trips {
            assert!(t.origin < n && t.dest < n);
            assert!(t.origin != t.dest, "self-loop trip generated");
            assert!(t.duration_min() >= 1);
            assert!(t.start_min >= prev);
            prev = t.start_min;
        }
    }

    #[test]
    fn weekday_has_rush_hour_structure() {
        let city = SyntheticCity::generate(CityConfig::test_small(11));
        let f = FlowSeries::from_trips(
            &city.trips,
            city.registry.len(),
            city.config.days,
            city.config.slots_per_day,
        )
        .unwrap();
        // Compare total weekday demand in the 7-9am band vs 1-3am across
        // the whole horizon (regime factors make single days noisy).
        let spd = city.config.slots_per_day;
        let slot_of_hour = |h: usize| h * spd / 24;
        let demand_in = |lo: usize, hi: usize| -> f32 {
            (0..city.config.days)
                .filter(|day| day % 7 < 5)
                .flat_map(|day| day * spd + slot_of_hour(lo)..day * spd + slot_of_hour(hi))
                .map(|s| f.demand_at(s).iter().sum::<f32>())
                .sum()
        };
        let rush = demand_in(7, 9);
        let night = demand_in(1, 3);
        assert!(
            rush > 2.5 * night + 1.0,
            "no rush hour: rush {rush} vs night {night}"
        );
    }

    #[test]
    fn weekend_differs_from_weekday() {
        // Regime factors add day-level variance, so aggregate over seeds:
        // the *expected* morning-commute volume per weekday must clearly
        // exceed the weekend's.
        let mut weekday_am = 0.0f64;
        let mut weekend_am = 0.0f64;
        let mut weekdays = 0.0f64;
        let mut weekend_days = 0.0f64;
        for seed in 13..16 {
            let city = SyntheticCity::generate(CityConfig::test_small(seed));
            weekdays += city.config.days as f64 * 5.0 / 7.0;
            weekend_days += city.config.days as f64 * 2.0 / 7.0;
            for t in &city.trips {
                let day = (t.start_min / 1440) as usize;
                let hour = (t.start_min % 1440) as f32 / 60.0;
                if (7.0..9.5).contains(&hour) {
                    if day % 7 >= 5 {
                        weekend_am += 1.0;
                    } else {
                        weekday_am += 1.0;
                    }
                }
            }
        }
        assert!(
            weekday_am / weekdays > 1.5 * (weekend_am / weekend_days),
            "weekday {weekday_am}/{weekdays} vs weekend {weekend_am}/{weekend_days}"
        );
    }

    #[test]
    fn schools_are_far_apart_but_share_schedule() {
        let city = tiny();
        let schools = city.registry.with_archetype(Archetype::School);
        assert!(schools.len() >= 2);
        let d = city.registry.distance_km(schools[0], schools[1]);
        assert!(d > city.config.radius_km, "schools too close: {d} km");
    }

    #[test]
    fn distance_kernel_is_non_monotone() {
        assert_eq!(distance_kernel(0.0), 0.0);
        let near = distance_kernel(0.3);
        let sweet = distance_kernel(1.8);
        let far = distance_kernel(6.0);
        assert!(sweet > near, "kernel should peak mid-range");
        assert!(sweet > far);
    }

    #[test]
    fn poisson_mean_is_roughly_lambda() {
        let mut rng = StdRng::seed_from_u64(5);
        let lambda = 2.5f32;
        let n = 20_000;
        let total: u64 = (0..n).map(|_| poisson(&mut rng, lambda) as u64).sum();
        let mean = total as f32 / n as f32;
        assert!((mean - lambda).abs() < 0.1, "poisson mean {mean}");
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn raw_dirt_injection_is_cleaned_away() {
        let city = tiny();
        let raw = city.to_raw(0.2, 99);
        let (clean, report) = cleanse(&raw, city.registry.len());
        assert_eq!(report.total(), city.trips.len());
        assert!(
            report.dropped() > 0,
            "dirt was requested but nothing dropped"
        );
        assert!(clean.len() < city.trips.len());
        // With no dirt the pipeline is lossless.
        let (clean2, rep2) = cleanse(&city.to_raw(0.0, 1), city.registry.len());
        assert_eq!(clean2.len(), city.trips.len());
        assert_eq!(rep2.dropped(), 0);
    }

    #[test]
    fn presets_have_expected_scale() {
        let chi = CityConfig::chicago_like();
        let la = CityConfig::los_angeles_like();
        assert!(chi.n_stations > la.n_stations);
        assert!(chi.trips_per_station_day > la.trips_per_station_day);
        assert_eq!(chi.slots_per_day, 96);
    }
}

// sound: allow-file(L004): BUFFERS-SIZED-AT-CONSTRUCTION — flow/correlation
// matrices are allocated n*n right before the double loops that fill them.
//! Graph constructions used by the baselines.
//!
//! The paper's related-work critique (§II) is that prior models *assume* a
//! relationship between distance and dependency: they build graphs from
//! station distance or static correlation and then convolve over them. These
//! builders implement those priors so the baselines are faithful.

use crate::digraph::DiGraph;
use stgnn_data::flow::FlowSeries;
use stgnn_data::station::StationRegistry;

/// Distance-threshold graph: an undirected edge (both directions) between
/// stations closer than `threshold_km`, weighted `1/(1+d)` so nearer means
/// stronger — the locality prior of GCNN and GBike.
pub fn distance_graph(registry: &StationRegistry, threshold_km: f64) -> DiGraph {
    let n = registry.len();
    let mut edges = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let d = registry.distance_km(i, j);
            if d <= threshold_km {
                edges.push((i, j, (1.0 / (1.0 + d)) as f32));
            }
        }
    }
    DiGraph::from_edges(n, &edges)
}

/// K-nearest-neighbour distance graph: each station connects to its `k`
/// nearest stations (directed), weighted `1/(1+d)`. Guarantees connectivity
/// of attention even in sparse suburbs.
pub fn knn_graph(registry: &StationRegistry, k: usize) -> DiGraph {
    let n = registry.len();
    let mut edges = Vec::new();
    for i in 0..n {
        for j in registry.nearest(i, k) {
            let d = registry.distance_km(i, j);
            edges.push((i, j, (1.0 / (1.0 + d)) as f32));
        }
    }
    DiGraph::from_edges(n, &edges)
}

/// Aggregate flow graph: edge `i → j` weighted by total trips `i → j` over
/// slots `[t_lo, t_hi)` (checkout-keyed). The static flow prior MGNN uses.
pub fn flow_graph(flows: &FlowSeries, t_lo: usize, t_hi: usize) -> DiGraph {
    let n = flows.n_stations();
    let mut total = vec![0.0f32; n * n];
    for t in t_lo..t_hi {
        for e in flows.outflow(t) {
            total[e.origin as usize * n + e.dest as usize] += e.count as f32;
        }
    }
    let mut edges = Vec::new();
    for i in 0..n {
        for j in 0..n {
            let w = total[i * n + j];
            if w > 0.0 && i != j {
                edges.push((i, j, w));
            }
        }
    }
    DiGraph::from_edges(n, &edges)
}

/// Pattern-correlation graph: edge between stations whose *demand profiles*
/// over slots `[t_lo, t_hi)` have Pearson correlation at least `min_corr`
/// (undirected, weight = correlation). MGNN's similarity graph.
///
/// A station's profile is its mean demand per time-of-day slot, which is what
/// "demand-supply pattern" means in the paper (Fig 3b): averaging over days
/// removes per-slot Poisson noise and keeps the schedule shape.
pub fn correlation_graph(flows: &FlowSeries, t_lo: usize, t_hi: usize, min_corr: f32) -> DiGraph {
    let n = flows.n_stations();
    let profiles = demand_profiles(flows, t_lo, t_hi);
    let spd = flows.slots_per_day();
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let c = pearson(
                &profiles[i * spd..(i + 1) * spd],
                &profiles[j * spd..(j + 1) * spd],
            );
            if c >= min_corr {
                edges.push((i, j, c));
                edges.push((j, i, c));
            }
        }
    }
    DiGraph::from_edges(n, &edges)
}

/// Mean demand per time-of-day slot for every station over `[t_lo, t_hi)`,
/// flattened as `station-major` rows of length `slots_per_day`.
pub fn demand_profiles(flows: &FlowSeries, t_lo: usize, t_hi: usize) -> Vec<f32> {
    let n = flows.n_stations();
    let spd = flows.slots_per_day();
    let mut sums = vec![0.0f32; n * spd];
    let mut counts = vec![0u32; spd];
    for t in t_lo..t_hi {
        let tod = flows.tod_of_slot(t);
        counts[tod] += 1;
        let d = flows.demand_at(t);
        for i in 0..n {
            sums[i * spd + tod] += d[i];
        }
    }
    for i in 0..n {
        for tod in 0..spd {
            if counts[tod] > 0 {
                sums[i * spd + tod] /= counts[tod] as f32;
            }
        }
    }
    sums
}

/// Pearson correlation of two equal-length series; 0.0 when either is
/// constant (no signal to correlate).
pub fn pearson(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let ma = a.iter().map(|&x| x as f64).sum::<f64>() / n;
    let mb = b.iter().map(|&x| x as f64).sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let (dx, dy) = (x as f64 - ma, y as f64 - mb);
        cov += dx * dy;
        va += dx * dx;
        vb += dy * dy;
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    (cov / (va.sqrt() * vb.sqrt())) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgnn_data::station::{Archetype, Station};
    use stgnn_data::synthetic::{CityConfig, SyntheticCity};

    fn line_registry() -> StationRegistry {
        // Stations 1 km apart on a meridian: 0 —1km— 1 —1km— 2 —…— 3
        let stations = (0..4)
            .map(|id| Station {
                id,
                name: format!("s{id}"),
                lon: -87.63,
                lat: 41.88 + id as f64 / 110.574,
                archetype: Archetype::Mixed,
            })
            .collect();
        StationRegistry::new(stations)
    }

    #[test]
    fn distance_graph_respects_threshold() {
        let reg = line_registry();
        let g = distance_graph(&reg, 1.5);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        // closer edges weigh more
        assert!(g.weight(0, 1) > 0.0);
    }

    #[test]
    fn knn_graph_has_fixed_out_degree() {
        let reg = line_registry();
        let g = knn_graph(&reg, 2);
        for i in 0..4 {
            assert_eq!(g.out_degree(i), 2, "node {i}");
        }
        // nearest of node 0 are 1 and 2
        assert!(g.has_edge(0, 1) && g.has_edge(0, 2) && !g.has_edge(0, 3));
    }

    #[test]
    fn flow_graph_accumulates_trips() {
        let city = SyntheticCity::generate(CityConfig::test_tiny(17));
        let flows = FlowSeries::from_trips(&city.trips, city.registry.len(), 8, 24).unwrap();
        let g = flow_graph(&flows, 0, flows.num_slots());
        assert!(g.num_edges() > 0);
        let total: f32 = (0..g.num_nodes())
            .map(|s| g.neighbors(s).map(|(_, w)| w).sum::<f32>())
            .sum();
        // Total edge weight equals the in-horizon checkouts between two
        // different stations, counted from the trips.
        let horizon = 0..(flows.num_slots() as i64 * flows.slot_minutes());
        let expected = city
            .trips
            .iter()
            .filter(|t| t.origin != t.dest && horizon.contains(&t.start_min))
            .count();
        assert_eq!(total, expected as f32);
    }

    #[test]
    fn pearson_known_values() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-6);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-6);
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn correlation_graph_is_symmetric() {
        let city = SyntheticCity::generate(CityConfig::test_tiny(19));
        let flows = FlowSeries::from_trips(&city.trips, city.registry.len(), 8, 24).unwrap();
        let g = correlation_graph(&flows, 0, flows.num_slots(), 0.3);
        for s in 0..g.num_nodes() {
            for (d, w) in g.neighbors(s) {
                assert!((g.weight(d, s) - w).abs() < 1e-6, "asymmetric edge {s}→{d}");
                assert!(w >= 0.3);
            }
        }
    }

    #[test]
    fn correlated_schools_connect_despite_distance() {
        // The synthetic generator places two schools on opposite sides of
        // town with a shared bell schedule; the correlation graph should
        // link them even though the distance graph cannot.
        let city = SyntheticCity::generate(CityConfig::test_small(12));
        let flows = FlowSeries::from_trips(
            &city.trips,
            city.registry.len(),
            city.config.days,
            city.config.slots_per_day,
        )
        .unwrap();
        let schools = city.registry.with_archetype(Archetype::School);
        let (a, b) = (schools[0], schools[1]);
        let spd = flows.slots_per_day();
        let profiles = demand_profiles(&flows, 0, flows.num_slots());
        let profile = |i: usize| &profiles[i * spd..(i + 1) * spd];
        let school_corr = pearson(profile(a), profile(b));
        // The motif is *relative*: the distant school correlates with the
        // other school more strongly than with a typical non-school station.
        let others: Vec<f32> = (0..city.registry.len())
            .filter(|&i| i != a && !schools.contains(&i))
            .map(|i| pearson(profile(a), profile(i)))
            .collect();
        let mean_other = others.iter().sum::<f32>() / others.len() as f32;
        assert!(
            school_corr > mean_other + 0.1,
            "school pair correlation {school_corr} not above background {mean_other}"
        );
        let dist_g = distance_graph(&city.registry, 3.0);
        assert!(!dist_g.has_edge(a, b), "schools unexpectedly close");
    }
}

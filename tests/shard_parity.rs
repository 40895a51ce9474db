//! The sharding theorem (PARITY-LOCAL): on every halo-complete shard, the
//! FCG stage run on member-induced inputs reproduces the full-city owned
//! rows **bit for bit**, and a shard missing a needed halo diverges.
//!
//! The argument lives in `stgnn_scale::parity`'s module docs: the FCG
//! aggregation is row-local, entries of the Eq 10 weight matrix outside
//! the mask are exactly `+0.0`, and dropping such terms leaves every
//! ascending-order partial sum bitwise unchanged.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stgnn_core::config::StgnnConfig;
use stgnn_core::fcg::FcgNetwork;
use stgnn_core::flow_conv::{fcg_mask, FlowConvolution};
use stgnn_data::dataset::{BikeDataset, DatasetConfig};
use stgnn_data::synthetic::{CityConfig, SyntheticCity};
use stgnn_graph::builders::{trip_correlation_graph, trip_flow_graph};
use stgnn_scale::{halo_complete, induce_rows, induce_square, ShardPlan};
use stgnn_tensor::autograd::{Graph, ParamSet};
use stgnn_tensor::Tensor;

/// The FCG stage in evaluation mode on explicit inputs: `edges` (`m×m`)
/// feeds the Eq 10 weights, `features` (`m×n`) the aggregation.
fn fcg_stage(fcg: &FcgNetwork, edges: &Tensor, features: &Tensor, mask: &Tensor) -> Tensor {
    let g = Graph::new();
    let (edges, features) = (g.leaf(edges.clone()), g.leaf(features.clone()));
    fcg.forward(&g, &edges, &features, mask, None).value()
}

fn row_bits(t: &Tensor, r: usize) -> Vec<u32> {
    t.row(r).iter().map(|v| v.to_bits()).collect()
}

/// PARITY-LOCAL: on a districted synthetic city, on every halo-complete
/// shard, `FcgNetwork::forward` run on member-induced inputs reproduces
/// the full-city owned rows bit-for-bit.
#[test]
fn sharded_fcg_stage_matches_unsharded_bit_for_bit() {
    let city = SyntheticCity::generate(CityConfig::test_districted(42));
    let n = city.registry.len();
    let dataset = BikeDataset::from_city(&city, DatasetConfig::small(6, 2)).unwrap();

    let mut config = StgnnConfig::test_tiny(6, 2);
    config.fcg_layers = 2;
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let flow = FlowConvolution::new(&mut ps, &mut rng, &config, n);
    let fcg = FcgNetwork::new(&mut ps, &mut rng, &config, n);

    // Shard over the union trip adjacency with halo depth = fcg_layers.
    // Because the per-slot mask is a subgraph of this union (positive
    // fused flow needs observed flow, and conv weights start positive),
    // these halos dominate every slot's mask closure.
    let adj = trip_flow_graph(&city.trips, n).union_symmetric(&trip_correlation_graph(
        &city.trips,
        n,
        city.config.days,
        city.config.slots_per_day,
        0.95,
    ));
    let plan = ShardPlan::partition(&adj, 4, config.fcg_layers).unwrap();
    plan.validate().unwrap();
    assert!(
        plan.shards().iter().any(|s| s.members.len() < n),
        "vacuous plan: every shard sees the whole city"
    );

    let first = dataset.first_valid_slot();
    for slot in [first, first + 7, first + 13] {
        let (si, so) = dataset.short_term_stacks(slot);
        let (li, lo) = dataset.long_term_stacks(slot);
        let g = Graph::new();
        let out = flow.forward(&g, &si, &so, &li, &lo);
        let t_val = out.t.value();
        let mask = fcg_mask(&out.i_hat.value(), &out.o_hat.value());
        let full = fcg_stage(&fcg, &t_val, &t_val, &mask);

        for shard in plan.shards() {
            assert!(
                halo_complete(&mask, &shard.owned, &shard.members, config.fcg_layers),
                "slot {slot}: shard {} not halo-complete",
                shard.id
            );
            let sharded = fcg_stage(
                &fcg,
                &induce_square(&t_val, &shard.members),
                &induce_rows(&t_val, &shard.members),
                &induce_square(&mask, &shard.members),
            );
            for &station in &shard.owned {
                let local = shard
                    .members
                    .binary_search(&station)
                    .expect("owned ⊆ members");
                assert_eq!(
                    row_bits(&sharded, local),
                    row_bits(&full, station),
                    "slot {slot}: shard {} station {station} diverged",
                    shard.id
                );
            }
        }
    }
}

/// Negative control: a shard that is *not* halo-complete must diverge —
/// otherwise the parity test above would be vacuous.
#[test]
fn incomplete_halos_actually_diverge() {
    let city = SyntheticCity::generate(CityConfig::test_districted(42));
    let n = city.registry.len();
    let dataset = BikeDataset::from_city(&city, DatasetConfig::small(6, 2)).unwrap();
    let mut config = StgnnConfig::test_tiny(6, 2);
    config.fcg_layers = 2;
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let flow = FlowConvolution::new(&mut ps, &mut rng, &config, n);
    let fcg = FcgNetwork::new(&mut ps, &mut rng, &config, n);
    assert_eq!(fcg.depth(), 2);

    let slot = dataset.first_valid_slot();
    let (si, so) = dataset.short_term_stacks(slot);
    let (li, lo) = dataset.long_term_stacks(slot);
    let g = Graph::new();
    let out = flow.forward(&g, &si, &so, &li, &lo);
    let t_val = out.t.value();
    let mask = fcg_mask(&out.i_hat.value(), &out.o_hat.value());
    let full = fcg_stage(&fcg, &t_val, &t_val, &mask);

    // Find a station with at least one non-self mask neighbour and give
    // it a members set of just itself: not halo-complete at depth 2.
    let station = (0..n)
        .find(|&i| {
            mask.row(i)
                .iter()
                .enumerate()
                .any(|(j, &m)| j != i && m > 0.0)
        })
        .expect("some station has flow neighbours");
    let members = vec![station];
    assert!(!halo_complete(&mask, &members, &members, config.fcg_layers));
    let sharded = fcg_stage(
        &fcg,
        &induce_square(&t_val, &members),
        &induce_rows(&t_val, &members),
        &induce_square(&mask, &members),
    );
    assert_ne!(
        row_bits(&sharded, 0),
        row_bits(&full, station),
        "dropping a needed halo should change the owned row"
    );
}

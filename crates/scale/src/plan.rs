// sound: allow-file(L004): NODE-IDS-BELOW-N — every index in this module is a
// node id below `n = adj.num_nodes()`, the length of every buffer allocated
// here.
//! The shard planner: balanced edge-cut partition with halo sets.
//!
//! Stations are split into K **shards** by a deterministic greedy growth
//! heuristic over the union adjacency (flow graph ∪ correlation graph,
//! symmetrised — see [`stgnn_graph::DiGraph::union_symmetric`]): each shard
//! grows from a high-degree seed, always absorbing the frontier station
//! with the most weight into the shard, until it reaches its balanced
//! capacity `⌈n/K⌉` (±1). This is the classic linear-time edge-cut
//! heuristic; it is not METIS, but it is deterministic, dependency-free,
//! and on district-structured cities it recovers the districts.
//!
//! Each shard then gets a **halo**: the `halo_depth`-hop neighbourhood of
//! its owned stations. `halo_depth` should be the FCG depth (`fcg_layers`):
//! the Eq 14 aggregation pulls one hop of neighbours per layer, so the
//! L-layer FCG output at an owned station depends on at most the L-hop
//! closure — if that closure stays inside the shard's members the sharded
//! stage is **bit-identical** to the unsharded one (see [`crate::parity`]).
//! Because the per-slot FCG mask (positive fused flow, Definition 2) is a
//! subgraph of the all-slots flow graph, halos cut from the union adjacency
//! dominate every slot's mask closure.

use crate::ScaleError;
use std::collections::VecDeque;
use stgnn_graph::DiGraph;

/// One station shard: the stations it owns, the halo it needs for its
/// forward pass, and their union.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Shard id, `0..k`.
    pub id: usize,
    /// Stations this shard canonically answers for (sorted, disjoint
    /// across shards, together covering `0..n`).
    pub owned: Vec<usize>,
    /// Extra stations within `halo_depth` hops of an owned station
    /// (sorted, disjoint from `owned`).
    pub halo: Vec<usize>,
    /// `owned ∪ halo`, sorted — the shard's full station set.
    pub members: Vec<usize>,
}

impl Shard {
    /// Whether `station` is inside this shard (owned or halo).
    pub fn contains(&self, station: usize) -> bool {
        self.members.binary_search(&station).is_ok()
    }

    /// Whether this shard owns `station`.
    pub fn owns(&self, station: usize) -> bool {
        self.owned.binary_search(&station).is_ok()
    }
}

/// A complete partition of `0..n` stations into shards with halos.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    n_stations: usize,
    halo_depth: usize,
    owner: Vec<usize>,
    shards: Vec<Shard>,
}

impl ShardPlan {
    /// Partitions the `n` nodes of `adj` into `k` balanced shards and cuts
    /// a `halo_depth`-hop halo for each. `adj` should be symmetric (use
    /// [`DiGraph::union_symmetric`]); halos follow out-edges only.
    pub fn partition(adj: &DiGraph, k: usize, halo_depth: usize) -> Result<ShardPlan, ScaleError> {
        let n = adj.num_nodes();
        if k == 0 || k > n {
            return Err(ScaleError::InvalidConfig(format!(
                "cannot cut {n} stations into {k} shards"
            )));
        }
        let mut owner = vec![usize::MAX; n];
        let mut assigned = 0usize;
        for shard_id in 0..k {
            // Balanced capacity: the first n % k shards take one extra.
            let cap = n / k + usize::from(shard_id < n % k);
            // Weighted gain of each unassigned node into the growing shard.
            let mut gain = vec![0.0f32; n];
            let mut size = 0usize;
            while size < cap && assigned < n {
                // Best frontier node: max gain, ties to the lowest id. A
                // fresh component (all gains zero) falls back to the
                // unassigned node with the highest degree.
                let mut pick = usize::MAX;
                let mut pick_gain = -1.0f32;
                for v in 0..n {
                    if owner[v] == usize::MAX && gain[v] > pick_gain {
                        pick = v;
                        pick_gain = gain[v];
                    }
                }
                if pick == usize::MAX {
                    break; // no unassigned nodes left
                }
                if pick_gain <= 0.0 {
                    let mut best_deg = 0usize;
                    for (v, o) in owner.iter().enumerate().take(n) {
                        if *o == usize::MAX && adj.out_degree(v) > best_deg {
                            pick = v;
                            best_deg = adj.out_degree(v);
                        }
                    }
                }
                owner[pick] = shard_id;
                size += 1;
                assigned += 1;
                for (nb, w) in adj.neighbors(pick) {
                    if owner[nb] == usize::MAX {
                        gain[nb] += w.max(0.0);
                    }
                }
            }
        }
        if assigned != n {
            return Err(ScaleError::Plan(format!(
                "greedy growth assigned {assigned} of {n} stations"
            )));
        }

        let mut shards = Vec::with_capacity(k);
        for shard_id in 0..k {
            let owned: Vec<usize> = (0..n).filter(|&v| owner[v] == shard_id).collect();
            if owned.is_empty() {
                return Err(ScaleError::Plan(format!(
                    "shard {shard_id} owns no stations"
                )));
            }
            // BFS to halo_depth over out-edges from every owned node.
            let mut dist = vec![usize::MAX; n];
            let mut queue = VecDeque::new();
            for &v in &owned {
                dist[v] = 0;
                queue.push_back(v);
            }
            while let Some(v) = queue.pop_front() {
                if dist[v] == halo_depth {
                    continue;
                }
                for (nb, _) in adj.neighbors(v) {
                    if dist[nb] == usize::MAX {
                        dist[nb] = dist[v] + 1;
                        queue.push_back(nb);
                    }
                }
            }
            let members: Vec<usize> = (0..n).filter(|&v| dist[v] != usize::MAX).collect();
            let halo: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&v| owner[v] != shard_id)
                .collect();
            shards.push(Shard {
                id: shard_id,
                owned,
                halo,
                members,
            });
        }
        Ok(ShardPlan {
            n_stations: n,
            halo_depth,
            owner,
            shards,
        })
    }

    /// Number of stations the plan covers.
    pub fn n_stations(&self) -> usize {
        self.n_stations
    }

    /// Halo depth the plan was cut with.
    pub fn halo_depth(&self) -> usize {
        self.halo_depth
    }

    /// The shards.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The shard that owns `station`, if it is in range.
    pub fn owner_of(&self, station: usize) -> Option<usize> {
        self.owner.get(station).copied()
    }

    /// Directed edges of `adj` whose endpoints live in different shards.
    pub fn edge_cut(&self, adj: &DiGraph) -> usize {
        let n = self.n_stations.min(adj.num_nodes());
        (0..n)
            .map(|s| {
                adj.neighbors(s)
                    .filter(|&(d, _)| d != s && d < n && self.owner[s] != self.owner[d])
                    .count()
            })
            .sum()
    }

    /// Largest shard's owned size relative to the perfectly-balanced size
    /// `n / k` (1.0 = perfect; the greedy capacities bound this near 1).
    pub fn balance(&self) -> f64 {
        let k = self.shards.len();
        let max = self.shards.iter().map(|s| s.owned.len()).max().unwrap_or(0);
        max as f64 * k as f64 / self.n_stations.max(1) as f64
    }

    /// Structural invariants: ownership is a partition of `0..n`, every
    /// shard's member list is the sorted disjoint union of owned and halo,
    /// and the owner map matches the shard lists.
    pub fn validate(&self) -> Result<(), ScaleError> {
        let mut seen = vec![false; self.n_stations];
        for shard in &self.shards {
            for win in shard.members.windows(2) {
                if win[0] >= win[1] {
                    return Err(ScaleError::Plan(format!(
                        "shard {} members not strictly sorted",
                        shard.id
                    )));
                }
            }
            for &v in &shard.owned {
                if self.owner.get(v).copied() != Some(shard.id) {
                    return Err(ScaleError::Plan(format!(
                        "station {v} owned by shard {} but owner map disagrees",
                        shard.id
                    )));
                }
                if seen[v] {
                    return Err(ScaleError::Plan(format!("station {v} owned twice")));
                }
                seen[v] = true;
                if !shard.contains(v) {
                    return Err(ScaleError::Plan(format!(
                        "shard {} owns {v} but members miss it",
                        shard.id
                    )));
                }
            }
            for &v in &shard.halo {
                if shard.owns(v) {
                    return Err(ScaleError::Plan(format!(
                        "station {v} both owned and halo in shard {}",
                        shard.id
                    )));
                }
            }
            if shard.members.len() != shard.owned.len() + shard.halo.len() {
                return Err(ScaleError::Plan(format!(
                    "shard {} members ≠ owned ∪ halo",
                    shard.id
                )));
            }
        }
        if let Some(v) = seen.iter().position(|&s| !s) {
            return Err(ScaleError::Plan(format!("station {v} owned by no shard")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two 4-cliques joined by a single bridge edge.
    fn two_clusters() -> DiGraph {
        let mut edges = Vec::new();
        for base in [0usize, 4] {
            for i in 0..4 {
                for j in 0..4 {
                    if i != j {
                        edges.push((base + i, base + j, 1.0));
                    }
                }
            }
        }
        edges.push((3, 4, 0.1));
        edges.push((4, 3, 0.1));
        DiGraph::from_edges(8, &edges)
    }

    #[test]
    fn partition_recovers_clusters_and_balances() {
        let g = two_clusters();
        let plan = ShardPlan::partition(&g, 2, 1).unwrap();
        plan.validate().unwrap();
        assert_eq!(plan.shards().len(), 2);
        for shard in plan.shards() {
            assert_eq!(shard.owned.len(), 4);
        }
        // The only cut edges are the two directions of the bridge.
        assert_eq!(plan.edge_cut(&g), 2);
        assert!((plan.balance() - 1.0).abs() < 1e-9);
        // Halo at depth 1: exactly the bridge endpoint on the other side.
        let s0 = &plan.shards()[plan.owner_of(3).unwrap()];
        assert!(s0.halo.contains(&4) || s0.halo.contains(&3));
    }

    #[test]
    fn halo_contains_every_one_hop_neighbour() {
        let g = two_clusters();
        let plan = ShardPlan::partition(&g, 3, 1).unwrap();
        plan.validate().unwrap();
        for shard in plan.shards() {
            for &v in &shard.owned {
                for (nb, _) in g.neighbors(v) {
                    assert!(
                        shard.contains(nb),
                        "shard {} misses 1-hop neighbour {nb} of {v}",
                        shard.id
                    );
                }
            }
        }
    }

    #[test]
    fn deeper_halos_grow_monotonically() {
        let g = two_clusters();
        let p1 = ShardPlan::partition(&g, 2, 1).unwrap();
        let p2 = ShardPlan::partition(&g, 2, 2).unwrap();
        for (a, b) in p1.shards().iter().zip(p2.shards()) {
            assert_eq!(a.owned, b.owned, "partition must not depend on halo depth");
            assert!(a.members.len() <= b.members.len());
            for &v in &a.members {
                assert!(b.contains(v));
            }
        }
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let g = two_clusters();
        assert!(matches!(
            ShardPlan::partition(&g, 0, 1),
            Err(ScaleError::InvalidConfig(_))
        ));
        assert!(matches!(
            ShardPlan::partition(&g, 9, 1),
            Err(ScaleError::InvalidConfig(_))
        ));
        // k == n is legal: singleton shards.
        let p = ShardPlan::partition(&g, 8, 0).unwrap();
        p.validate().unwrap();
        assert!(p.shards().iter().all(|s| s.owned.len() == 1));
    }

    #[test]
    fn partition_is_deterministic() {
        let g = two_clusters();
        let a = ShardPlan::partition(&g, 2, 2).unwrap();
        let b = ShardPlan::partition(&g, 2, 2).unwrap();
        for (x, y) in a.shards().iter().zip(b.shards()) {
            assert_eq!(x.owned, y.owned);
            assert_eq!(x.members, y.members);
        }
    }

    #[test]
    fn disconnected_graphs_still_cover_every_node() {
        // Three isolated pairs and two singletons: growth must reseed.
        let g = DiGraph::from_edges(
            8,
            &[
                (0, 1, 1.0),
                (1, 0, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
                (4, 5, 1.0),
                (5, 4, 1.0),
            ],
        );
        let plan = ShardPlan::partition(&g, 3, 1).unwrap();
        plan.validate().unwrap();
        let total: usize = plan.shards().iter().map(|s| s.owned.len()).sum();
        assert_eq!(total, 8);
    }
}

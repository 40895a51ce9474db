//! Consistent-hash ring with virtual nodes.
//!
//! Stations are routed to replicas by hashing `station:{id}` onto a ring of
//! `vnodes` points per replica (each point hashes `{replica}#{vnode}`), and
//! walking clockwise to the first point. Two properties carry the serving
//! design:
//!
//! * **Determinism** — the ring is a pure function of the replica names and
//!   the vnode count. Any process (router, replica, debugger) rebuilds the
//!   identical ring and agrees on every station's home; there is no routing
//!   table to distribute. The hash is FNV-1a (`stgnn_faults::fsio::fnv1a`,
//!   whose vectors are pinned bit for bit), so placements survive
//!   recompilation and cross-machine comparison.
//! * **Minimal disruption** — removing a replica reassigns only the
//!   stations that hashed to it (≈ 1/N of the keyspace with enough vnodes);
//!   every other station keeps its home, so replica loss does not
//!   invalidate warm caches fleet-wide. The property tests pin both.
//!
//! [`HashRing::candidates`] yields the distinct replicas in ring order from
//! a station's point — the failover sequence the router walks when a
//! replica is down; the first candidate is exactly [`HashRing::route_station`].

use stgnn_faults::fsio::{fnv1a, FNV_OFFSET};

/// A consistent-hash ring mapping station ids to replica indices.
#[derive(Debug, Clone)]
pub struct HashRing {
    vnodes: usize,
    names: Vec<String>,
    /// `(point hash, replica index)`, sorted by hash.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Builds the ring for `names` with `vnodes` points per replica.
    pub fn new(names: &[String], vnodes: usize) -> HashRing {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(names.len() * vnodes);
        for (idx, name) in names.iter().enumerate() {
            for v in 0..vnodes {
                points.push((fnv1a(FNV_OFFSET, format!("{name}#{v}").as_bytes()), idx));
            }
        }
        points.sort_unstable();
        HashRing {
            vnodes,
            names: names.to_vec(),
            points,
        }
    }

    /// Replica count.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the ring has no replicas.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The replica names, in construction order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Routes an arbitrary key to a replica index (`None` on an empty ring).
    pub fn route_key(&self, key: &[u8]) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let h = fnv1a(FNV_OFFSET, key);
        let at = self.points.partition_point(|&(p, _)| p < h) % self.points.len();
        self.points.get(at).map(|&(_, idx)| idx)
    }

    /// Routes a station id to its home replica.
    pub fn route_station(&self, station: usize) -> Option<usize> {
        self.route_key(format!("station:{station}").as_bytes())
    }

    /// The distinct replicas in ring order starting from the station's
    /// point — the failover walk. First entry = [`Self::route_station`];
    /// every live replica appears exactly once.
    pub fn candidates(&self, station: usize) -> Vec<usize> {
        if self.points.is_empty() {
            return Vec::new();
        }
        let h = fnv1a(FNV_OFFSET, format!("station:{station}").as_bytes());
        let start = self.points.partition_point(|&(p, _)| p < h) % self.points.len();
        let mut seen = vec![false; self.names.len()];
        let mut out = Vec::with_capacity(self.names.len());
        for off in 0..self.points.len() {
            let at = (start + off) % self.points.len();
            if let Some(&(_, idx)) = self.points.get(at) {
                if !seen.get(idx).copied().unwrap_or(true) {
                    // sound: allow(L004): RING-IDS-BELOW-LEN — idx < names.len()
                    // by construction.
                    seen[idx] = true;
                    out.push(idx);
                }
            }
        }
        out
    }

    /// A new ring with the replica at `remove` taken out (same vnodes).
    /// Indices in the new ring refer to the shortened name list.
    pub fn without(&self, remove: usize) -> HashRing {
        let names: Vec<String> = self
            .names
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != remove)
            .map(|(_, n)| n.clone())
            .collect();
        HashRing::new(&names, self.vnodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("replica-{i}")).collect()
    }

    #[test]
    fn routing_is_deterministic_and_pinned() {
        let ring = HashRing::new(&names(4), 64);
        let again = HashRing::new(&names(4), 64);
        for s in 0..256 {
            assert_eq!(ring.route_station(s), again.route_station(s));
        }
        // Routing is total on a non-empty ring.
        assert!((0..256).all(|s| ring.route_station(s).is_some()));
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = HashRing::new(&[], 64);
        assert!(ring.is_empty());
        assert_eq!(ring.route_station(3), None);
        assert!(ring.candidates(3).is_empty());
    }

    #[test]
    fn candidates_enumerate_every_replica_once() {
        let ring = HashRing::new(&names(5), 32);
        for s in 0..64 {
            let c = ring.candidates(s);
            assert_eq!(c.len(), 5);
            assert_eq!(c.first().copied(), ring.route_station(s));
            let mut sorted = c.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn load_spreads_across_replicas() {
        let ring = HashRing::new(&names(4), 64);
        let mut counts = [0usize; 4];
        for s in 0..2048 {
            counts[ring.route_station(s).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > 2048 / 16,
                "replica {i} starved: {c}/2048 stations ({counts:?})"
            );
        }
    }

    proptest! {
        // Removing one replica remaps ONLY the stations it previously
        // served, and the moved fraction stays near 1/N.
        #[test]
        fn removal_is_minimally_disruptive(
            n in 2usize..8,
            remove in 0usize..8,
            vnodes in 16usize..128,
        ) {
            let remove = remove % n;
            let all = names(n);
            let ring = HashRing::new(&all, vnodes);
            let smaller = ring.without(remove);
            let stations = 512usize;
            let mut moved = 0usize;
            for s in 0..stations {
                let before = &all[ring.route_station(s).unwrap()];
                let after = &smaller.names()[smaller.route_station(s).unwrap()];
                if before == after {
                    continue;
                }
                // A station may only change homes if its old home was the
                // removed replica.
                prop_assert_eq!(
                    before,
                    &all[remove],
                    "station {} moved from a surviving replica", s
                );
                moved += 1;
            }
            // Moved fraction ≈ 1/n; allow generous slack for small vnode
            // counts (bound 4/n, and never more than the removed share).
            prop_assert!(
                moved <= stations * 4 / n,
                "moved {}/{} stations for n={}", moved, stations, n
            );
        }

        // Two rings built independently from the same inputs agree point
        // for point — the cross-process determinism the router relies on.
        #[test]
        fn independent_builds_agree(n in 1usize..10, vnodes in 1usize..96) {
            let a = HashRing::new(&names(n), vnodes);
            let b = HashRing::new(&names(n), vnodes);
            for s in 0..256 {
                prop_assert_eq!(a.route_station(s), b.route_station(s));
                prop_assert_eq!(a.candidates(s), b.candidates(s));
            }
        }
    }
}

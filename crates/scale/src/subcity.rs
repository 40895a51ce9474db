//! Shard sub-datasets: what a shard replica serves from.
//!
//! A full-city replica stores its flows as trip counts, but every forward
//! builds a `(k + d)·n²` input window and runs `n×n` model stages. A shard
//! replica instead serves from a **sub-city**: the trips with *both*
//! endpoints inside the shard's member set (owned ∪ halo), station ids
//! remapped to dense local indices, so its windows and stages are `m×m`
//! with `m ≈ n/K + halo`. Whether that split still pays is ROADMAP item
//! 8's measured decision.
//!
//! Cross-boundary trips whose far endpoint is outside even the halo are
//! dropped; the halo (cut over the union trip adjacency at FCG depth, see
//! [`crate::plan`]) is exactly the set that keeps every flow the owned
//! stations' forward pass reads.

use crate::ScaleError;
use stgnn_data::dataset::{BikeDataset, DatasetConfig};
use stgnn_data::station::{Station, StationRegistry};
use stgnn_data::synthetic::SyntheticCity;
use stgnn_data::trip::TripRecord;
use stgnn_data::FlowSeries;

/// One shard's self-contained dataset: member stations re-indexed to
/// `0..m`, trips restricted to member-internal pairs.
pub struct SubCity {
    /// Global station ids of the members, sorted; `members[local] = global`.
    pub members: Vec<usize>,
    /// The shard-local dataset (flows, registry, splits) over `m` stations.
    pub dataset: BikeDataset,
}

impl SubCity {
    /// Extracts the sub-dataset for `members` (sorted global station ids)
    /// from a synthetic city.
    pub fn extract(
        city: &SyntheticCity,
        members: &[usize],
        config: DatasetConfig,
    ) -> Result<SubCity, ScaleError> {
        let n = city.registry.len();
        let mut local_of = vec![usize::MAX; n];
        for (local, &global) in members.iter().enumerate() {
            if global >= n {
                return Err(ScaleError::Data(format!(
                    "member station {global} outside city of {n}"
                )));
            }
            // sound: allow(L004): NODE-IDS-BELOW-N — global < n checked just above.
            local_of[global] = local;
        }
        let stations: Vec<Station> = members
            .iter()
            .enumerate()
            .map(|(local, &global)| {
                let s = city.registry.get(global);
                Station {
                    id: local,
                    name: s.name.clone(),
                    lon: s.lon,
                    lat: s.lat,
                    archetype: s.archetype,
                }
            })
            .collect();
        let trips: Vec<TripRecord> = city
            .trips
            .iter()
            .filter_map(|t| {
                // sound: allow(L004): NODE-IDS-BELOW-N — cleansed trip endpoints
                // are < n, the length of `local_of`.
                let (o, d) = (local_of[t.origin], local_of[t.dest]);
                (o != usize::MAX && d != usize::MAX).then_some(TripRecord {
                    rid: t.rid,
                    origin: o,
                    dest: d,
                    start_min: t.start_min,
                    end_min: t.end_min,
                })
            })
            .collect();
        let flows = FlowSeries::from_trips(
            &trips,
            members.len(),
            city.config.days,
            city.config.slots_per_day,
        )
        .map_err(|e| ScaleError::Data(format!("sub-city flows: {e}")))?;
        let dataset = BikeDataset::new(flows, StationRegistry::new(stations), config)
            .map_err(|e| ScaleError::Data(format!("sub-city dataset: {e}")))?;
        Ok(SubCity {
            members: members.to_vec(),
            dataset,
        })
    }

    /// Number of member stations.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the sub-city has no stations.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Local index of a global station id, if it is a member.
    pub fn local_of(&self, global: usize) -> Option<usize> {
        self.members.binary_search(&global).ok()
    }

    /// Global station id of a local index, if in range.
    pub fn global_of(&self, local: usize) -> Option<usize> {
        self.members.get(local).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgnn_data::synthetic::CityConfig;

    #[test]
    fn extract_remaps_and_restricts() {
        let city = SyntheticCity::generate(CityConfig::test_districted(5));
        let n = city.registry.len();
        let members: Vec<usize> = (0..n).filter(|v| v % 2 == 0).collect();
        let sub = SubCity::extract(&city, &members, DatasetConfig::small(6, 2)).unwrap();
        assert_eq!(sub.len(), members.len());
        assert_eq!(sub.local_of(members[3]), Some(3));
        assert_eq!(sub.global_of(3), Some(members[3]));
        assert_eq!(sub.local_of(1), None, "odd stations are not members");
        // Local geometry matches the global stations.
        for (local, &global) in members.iter().enumerate() {
            let s = sub.dataset.registry().get(local);
            let g = city.registry.get(global);
            assert_eq!(s.id, local);
            assert_eq!((s.lon, s.lat), (g.lon, g.lat));
        }
    }

    #[test]
    fn full_member_set_preserves_every_flow() {
        let city = SyntheticCity::generate(CityConfig::test_districted(6));
        let n = city.registry.len();
        let members: Vec<usize> = (0..n).collect();
        let sub = SubCity::extract(&city, &members, DatasetConfig::small(6, 2)).unwrap();
        let full = BikeDataset::from_city(&city, DatasetConfig::small(6, 2)).unwrap();
        let slot = full.first_valid_slot();
        let (a_in, a_out) = full.short_term_stacks(slot);
        let (b_in, b_out) = sub.dataset.short_term_stacks(slot);
        assert_eq!(a_in.data(), b_in.data());
        assert_eq!(a_out.data(), b_out.data());
    }

    #[test]
    fn out_of_range_member_is_rejected() {
        let city = SyntheticCity::generate(CityConfig::test_districted(7));
        let n = city.registry.len();
        let err = SubCity::extract(&city, &[0, n + 3], DatasetConfig::small(6, 2));
        assert!(matches!(err, Err(ScaleError::Data(_))));
    }
}

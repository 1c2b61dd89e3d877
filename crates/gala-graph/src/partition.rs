//! Community assignments (partitions) over the vertices of a graph.

use crate::csr::VertexId;
use std::collections::HashMap;

/// Community identifier. Communities are identified by a stable id, matching
/// the paper's definition of "unmoved" (Eq. 3), which hinges on *id*
/// consistency rather than identical member sets.
pub type CommunityId = u32;

/// A community assignment: `assignment[v]` is the community id of vertex `v`.
///
/// Ids need not be contiguous; [`Partition::renumbered`] compacts them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    assignment: Vec<CommunityId>,
}

impl Partition {
    /// The singleton partition: each vertex in its own community (`C[v] = v`),
    /// the Louvain starting point.
    pub fn singletons(num_vertices: usize) -> Self {
        Self {
            assignment: (0..num_vertices as CommunityId).collect(),
        }
    }

    /// Wraps an explicit assignment vector.
    pub fn from_assignment(assignment: Vec<CommunityId>) -> Self {
        Self { assignment }
    }

    /// Number of vertices covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True when covering zero vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Community of vertex `v`.
    #[inline]
    pub fn community_of(&self, v: VertexId) -> CommunityId {
        self.assignment[v as usize]
    }

    /// Raw assignment slice.
    #[inline]
    pub fn assignment(&self) -> &[CommunityId] {
        &self.assignment
    }

    /// Consumes the partition, returning the raw assignment vector. The
    /// recycling counterpart of [`Partition::from_assignment`]: drivers give
    /// a spent hierarchy level's assignment back to
    /// [`crate::coarsen::CoarsenScratch`] instead of dropping it.
    #[inline]
    pub fn into_assignment(self) -> Vec<CommunityId> {
        self.assignment
    }

    /// Moves vertex `v` to community `c`.
    #[inline]
    pub fn assign(&mut self, v: VertexId, c: CommunityId) {
        self.assignment[v as usize] = c;
    }

    /// Number of distinct communities in use.
    pub fn num_communities(&self) -> usize {
        let mut ids: Vec<CommunityId> = self.assignment.clone();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Returns a copy with community ids renumbered to `0..k` (dense), and
    /// the number `k` of communities. Renumbering preserves the relative
    /// order of first appearance by ascending original id.
    pub fn renumbered(&self) -> (Self, usize) {
        let mut ids: Vec<CommunityId> = self.assignment.clone();
        ids.sort_unstable();
        ids.dedup();
        let remap: HashMap<CommunityId, CommunityId> = ids
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new as CommunityId))
            .collect();
        let assignment = self.assignment.iter().map(|c| remap[c]).collect();
        (Self { assignment }, ids.len())
    }

    /// Groups vertices by community: returns `(community_ids, members)` where
    /// `members[i]` lists the vertices of `community_ids[i]`, ids ascending.
    pub fn groups(&self) -> (Vec<CommunityId>, Vec<Vec<VertexId>>) {
        let mut map: HashMap<CommunityId, Vec<VertexId>> = HashMap::new();
        for (v, &c) in self.assignment.iter().enumerate() {
            map.entry(c).or_default().push(v as VertexId);
        }
        let mut ids: Vec<CommunityId> = map.keys().copied().collect();
        ids.sort_unstable();
        let members = ids.iter().map(|c| map.remove(c).unwrap()).collect();
        (ids, members)
    }

    /// Sizes (vertex counts) of each community, keyed by community id.
    pub fn sizes(&self) -> HashMap<CommunityId, usize> {
        let mut map = HashMap::new();
        for &c in &self.assignment {
            *map.entry(c).or_insert(0) += 1;
        }
        map
    }

    /// Composes a coarse-level partition with this one: if `self` maps
    /// vertices to communities `0..k` and `coarse` maps those `k` super
    /// vertices to higher-level communities, the result maps original
    /// vertices directly to the higher-level communities.
    ///
    /// `self` must be dense-renumbered (ids in `0..coarse.len()`).
    pub fn compose(&self, coarse: &Partition) -> Partition {
        let assignment = self
            .assignment
            .iter()
            .map(|&c| {
                assert!(
                    (c as usize) < coarse.len(),
                    "compose requires dense ids; community {c} out of range {}",
                    coarse.len()
                );
                coarse.community_of(c)
            })
            .collect();
        Partition { assignment }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_are_identity() {
        let p = Partition::singletons(4);
        assert_eq!(p.assignment(), &[0, 1, 2, 3]);
        assert_eq!(p.num_communities(), 4);
    }

    #[test]
    fn renumber_compacts_ids() {
        let p = Partition::from_assignment(vec![7, 7, 3, 9]);
        let (r, k) = p.renumbered();
        assert_eq!(k, 3);
        assert_eq!(r.assignment(), &[1, 1, 0, 2]);
    }

    #[test]
    fn groups_by_community() {
        let p = Partition::from_assignment(vec![1, 0, 1, 0]);
        let (ids, members) = p.groups();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(members, vec![vec![1, 3], vec![0, 2]]);
    }

    #[test]
    fn compose_two_levels() {
        // 4 vertices -> 2 communities -> 1 community
        let fine = Partition::from_assignment(vec![0, 0, 1, 1]);
        let coarse = Partition::from_assignment(vec![5, 5]);
        let flat = fine.compose(&coarse);
        assert_eq!(flat.assignment(), &[5, 5, 5, 5]);
    }

    #[test]
    fn sizes_counts_members() {
        let p = Partition::from_assignment(vec![2, 2, 2, 0]);
        let s = p.sizes();
        assert_eq!(s[&2], 3);
        assert_eq!(s[&0], 1);
    }

    #[test]
    #[should_panic(expected = "dense ids")]
    fn compose_requires_dense() {
        let fine = Partition::from_assignment(vec![0, 9]);
        let coarse = Partition::from_assignment(vec![0, 0]);
        fine.compose(&coarse);
    }
}

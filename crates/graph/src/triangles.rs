//! Triangle counting and per-edge support.
//!
//! The truss decomposition (and hence the truss-based edge ordering of the
//! paper) is driven by the *support* of an edge `(u, v)`: the number of
//! common neighbours of `u` and `v`, i.e. the number of triangles the edge
//! participates in. This module provides
//!
//! * [`EdgeIndex`] — a canonical dense numbering of the undirected edges,
//! * [`edge_supports`] — per-edge supports in `O(Σ_e min(deg u, deg v))`,
//! * [`triangle_count`] — the global triangle count.

use crate::graph::{Graph, VertexId};

/// Identifier of an undirected edge in an [`EdgeIndex`].
pub type EdgeId = u32;

/// Dense numbering of the undirected edges of a graph.
///
/// Edge ids follow the CSR "upper adjacency" order: edges are grouped by
/// their smaller endpoint `u` and, within a group, sorted by the larger
/// endpoint `v`. The index supports `O(log deg)` lookup of an edge id from
/// its endpoints.
#[derive(Clone, Debug)]
pub struct EdgeIndex {
    /// `endpoints[e] = (u, v)` with `u < v`.
    endpoints: Vec<(VertexId, VertexId)>,
    /// For each vertex `u`, the first edge id whose smaller endpoint is `u`.
    upper_offsets: Vec<usize>,
    /// Larger endpoints, parallel to the id range of each vertex.
    upper_neighbors: Vec<VertexId>,
}

impl EdgeIndex {
    /// Builds the edge index of `g`.
    pub fn new(g: &Graph) -> Self {
        let n = g.n();
        let mut endpoints = Vec::with_capacity(g.m());
        let mut upper_offsets = Vec::with_capacity(n + 1);
        let mut upper_neighbors = Vec::with_capacity(g.m());
        upper_offsets.push(0);
        for u in g.vertices() {
            for &v in g.neighbors(u) {
                if v > u {
                    endpoints.push((u, v));
                    upper_neighbors.push(v);
                }
            }
            upper_offsets.push(endpoints.len());
        }
        EdgeIndex {
            endpoints,
            upper_offsets,
            upper_neighbors,
        }
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// Whether the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// Endpoints `(u, v)` with `u < v` of edge `e`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.endpoints[e as usize]
    }

    /// All endpoints, indexed by edge id.
    pub fn all_endpoints(&self) -> &[(VertexId, VertexId)] {
        &self.endpoints
    }

    /// Looks up the id of the edge `{u, v}`, if present.
    pub fn edge_id(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if u == v {
            return None;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        let lo = self.upper_offsets[a as usize];
        let hi = self.upper_offsets[a as usize + 1];
        self.upper_neighbors[lo..hi]
            .binary_search(&b)
            .ok()
            .map(|off| (lo + off) as EdgeId)
    }
}

/// Computes the support (number of common neighbours) of every edge.
///
/// Returns the [`EdgeIndex`] together with `support[e]` for every edge id.
pub fn edge_supports(g: &Graph) -> (EdgeIndex, Vec<u32>) {
    let index = EdgeIndex::new(g);
    let mut support = vec![0u32; index.len()];
    let mut buf = Vec::new();
    for (e, s) in support.iter_mut().enumerate() {
        let (u, v) = index.endpoints(e as EdgeId);
        g.common_neighbors_into(u, v, &mut buf);
        *s = buf.len() as u32;
    }
    (index, support)
}

/// Counts the triangles of `g`.
///
/// Uses forward-neighbourhood intersection over a degree ordering so dense
/// graphs do not pay a quadratic factor per high-degree vertex.
pub fn triangle_count(g: &Graph) -> u64 {
    let n = g.n();
    // Rank vertices by (degree, id); forward edges go from lower to higher rank.
    let mut rank = vec![0u32; n];
    let mut by_degree: Vec<VertexId> = (0..n as VertexId).collect();
    by_degree.sort_unstable_by_key(|&v| (g.degree(v), v));
    for (r, &v) in by_degree.iter().enumerate() {
        rank[v as usize] = r as u32;
    }
    let forward: Vec<Vec<VertexId>> = (0..n as VertexId)
        .map(|u| {
            let mut f: Vec<VertexId> = g
                .neighbors(u)
                .iter()
                .copied()
                .filter(|&v| rank[v as usize] > rank[u as usize])
                .collect();
            f.sort_unstable();
            f
        })
        .collect();
    let mut count = 0u64;
    for u in 0..n {
        for &v in &forward[u] {
            count += sorted_intersection_len(&forward[u], &forward[v as usize]) as u64;
        }
    }
    count
}

fn sorted_intersection_len(a: &[VertexId], b: &[VertexId]) -> usize {
    let (mut i, mut j, mut c) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_with_tail() -> Graph {
        // Triangle 0-1-2, tail 2-3.
        Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn edge_index_enumerates_all_edges() {
        let g = triangle_with_tail();
        let idx = EdgeIndex::new(&g);
        assert_eq!(idx.len(), 4);
        assert!(!idx.is_empty());
        let all: Vec<_> = idx.all_endpoints().to_vec();
        assert_eq!(all, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn edge_id_lookup_both_orientations() {
        let g = triangle_with_tail();
        let idx = EdgeIndex::new(&g);
        let e = idx.edge_id(2, 0).unwrap();
        assert_eq!(idx.endpoints(e), (0, 2));
        assert_eq!(idx.edge_id(0, 2), Some(e));
        assert_eq!(idx.edge_id(1, 3), None);
        assert_eq!(idx.edge_id(3, 3), None);
    }

    #[test]
    fn supports_of_triangle_with_tail() {
        let g = triangle_with_tail();
        let (idx, sup) = edge_supports(&g);
        let s = |u, v| sup[idx.edge_id(u, v).unwrap() as usize];
        assert_eq!(s(0, 1), 1);
        assert_eq!(s(0, 2), 1);
        assert_eq!(s(1, 2), 1);
        assert_eq!(s(2, 3), 0);
    }

    #[test]
    fn triangle_count_small_graphs() {
        assert_eq!(triangle_count(&Graph::empty(5)), 0);
        assert_eq!(triangle_count(&Graph::complete(3)), 1);
        assert_eq!(triangle_count(&Graph::complete(5)), 10);
        assert_eq!(triangle_count(&triangle_with_tail()), 1);
        let c4 = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(triangle_count(&c4), 0);
    }

    #[test]
    fn support_sum_equals_three_times_triangles() {
        let g = Graph::from_edges(
            7,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (2, 4),
                (4, 5),
                (5, 6),
                (4, 6),
                (2, 5),
            ],
        )
        .unwrap();
        let (_, sup) = edge_supports(&g);
        let sum: u64 = sup.iter().map(|&s| s as u64).sum();
        assert_eq!(sum, 3 * triangle_count(&g));
    }
}

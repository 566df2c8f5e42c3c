//! Connected components.
//!
//! Enumeration work can be restricted to one component at a time (components
//! never share a clique); `mce stats` reports the component count.

use crate::graph::{Graph, VertexId};

/// Result of a connected-components computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnectedComponents {
    /// Component id of every vertex (ids are `0..count`, assigned in order of
    /// discovery from vertex 0 upwards).
    pub component_of: Vec<usize>,
    /// Number of components.
    pub count: usize,
}

impl ConnectedComponents {
    /// The vertices of component `id`.
    pub fn members(&self, id: usize) -> Vec<VertexId> {
        self.component_of
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == id)
            .map(|(v, _)| v as VertexId)
            .collect()
    }

    /// Sizes of all components, indexed by component id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &c in &self.component_of {
            sizes[c] += 1;
        }
        sizes
    }

    /// The id of a largest component (`None` on the empty graph).
    pub fn largest(&self) -> Option<usize> {
        let sizes = self.sizes();
        (0..self.count).max_by_key(|&i| sizes[i])
    }
}

/// Computes the connected components of `g` with an iterative DFS.
pub fn connected_components(g: &Graph) -> ConnectedComponents {
    let n = g.n();
    let mut component_of = vec![usize::MAX; n];
    let mut count = 0usize;
    let mut stack = Vec::new();
    for start in 0..n {
        if component_of[start] != usize::MAX {
            continue;
        }
        component_of[start] = count;
        stack.push(start as VertexId);
        while let Some(v) = stack.pop() {
            for &u in g.neighbors(v) {
                if component_of[u as usize] == usize::MAX {
                    component_of[u as usize] = count;
                    stack.push(u);
                }
            }
        }
        count += 1;
    }
    ConnectedComponents {
        component_of,
        count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_components() {
        let cc = connected_components(&Graph::empty(0));
        assert_eq!(cc.count, 0);
        assert!(cc.largest().is_none());
    }

    #[test]
    fn edgeless_graph_has_singleton_components() {
        let cc = connected_components(&Graph::empty(4));
        assert_eq!(cc.count, 4);
        assert_eq!(cc.sizes(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn two_components_identified() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        let cc = connected_components(&g);
        assert_eq!(cc.count, 2);
        assert_eq!(cc.component_of[0], cc.component_of[2]);
        assert_ne!(cc.component_of[0], cc.component_of[3]);
        let mut sizes = cc.sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![3, 3]);
    }

    #[test]
    fn members_returns_component_vertices() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3)]).unwrap();
        let cc = connected_components(&g);
        assert_eq!(cc.count, 3);
        let comp0 = cc.members(cc.component_of[0]);
        assert_eq!(comp0, vec![0, 1]);
    }

    #[test]
    fn connected_graph_is_single_component() {
        let g = Graph::complete(5);
        let cc = connected_components(&g);
        assert_eq!(cc.count, 1);
        assert_eq!(cc.largest(), Some(0));
        assert_eq!(cc.members(0).len(), 5);
    }
}

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
        assert!(cc.component_of.is_empty());
    }

    #[test]
    fn edgeless_graph_has_singleton_components() {
        let cc = connected_components(&Graph::empty(4));
        assert_eq!(cc.count, 4);
        assert_eq!(cc.component_of, vec![0, 1, 2, 3]);
    }

    #[test]
    fn two_components_identified() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        let cc = connected_components(&g);
        assert_eq!(cc.count, 2);
        assert_eq!(cc.component_of, vec![0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn component_ids_follow_discovery_order() {
        let g = Graph::from_edges(5, [(0, 1), (2, 4)]).unwrap();
        let cc = connected_components(&g);
        assert_eq!(cc.count, 3);
        assert_eq!(cc.component_of, vec![0, 0, 1, 2, 1]);
    }

    #[test]
    fn connected_graph_is_single_component() {
        let g = Graph::complete(5);
        let cc = connected_components(&g);
        assert_eq!(cc.count, 1);
        assert_eq!(cc.component_of, vec![0; 5]);
    }
}

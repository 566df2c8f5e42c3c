//! Incremental construction of [`Graph`]s from arbitrary vertex labels.

use std::collections::HashMap;

use crate::error::GraphError;
use crate::graph::{Graph, VertexId};

/// A forgiving, incremental graph builder.
///
/// The builder accepts edges with arbitrary `u64` vertex labels (so raw ids
/// from dataset files can be used directly), assigns dense `0..n` identifiers
/// in first-seen order, drops self-loops and collapses duplicates when
/// [`GraphBuilder::build`] is called.
///
/// ```
/// use mce_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// b.add_edge(10, 20);
/// b.add_edge(20, 30);
/// b.add_edge(10, 20); // duplicate, collapsed
/// let g = b.build().unwrap();
/// assert_eq!(g.n(), 3);
/// assert_eq!(g.m(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    /// `table[label]` is the label's id plus one, or 0 while it is unseen,
    /// for every label below `table.len()`.
    table: Vec<VertexId>,
    /// The ids of the labels at or above `table.len()`.
    labels: HashMap<u64, VertexId>,
    label_of: Vec<u64>,
    edges: Vec<(VertexId, VertexId)>,
    isolated: Vec<u64>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder that looks the labels below `limit` up in a table
    /// indexed by label instead of hashing them. The text loaders pass the
    /// input's byte length: the table then costs at most 4 bytes per input
    /// byte, and it is zero-filled, so the allocator maps in only the pages
    /// that the input's labels touch.
    pub(crate) fn with_label_table(limit: usize) -> Self {
        GraphBuilder {
            table: vec![0; limit],
            ..Self::default()
        }
    }

    /// Creates a builder and pre-registers the labels `0..n` so that the
    /// resulting graph has exactly `n` vertices even if some are isolated.
    pub fn with_num_vertices(n: usize) -> Self {
        let mut b = Self::new();
        for v in 0..n as u64 {
            b.intern(v);
        }
        b
    }

    fn intern(&mut self, label: u64) -> VertexId {
        // Past `u32::MAX` labels the ids wrap, as the vertex count then
        // fails `build` anyway.
        let next = self.label_of.len() as VertexId;
        let id = if label < self.table.len() as u64 {
            let entry = &mut self.table[label as usize];
            if *entry == 0 {
                *entry = next.wrapping_add(1);
            }
            entry.wrapping_sub(1)
        } else {
            *self.labels.entry(label).or_insert(next)
        };
        if id == next {
            self.label_of.push(label);
        }
        id
    }

    /// Registers a vertex without any incident edge.
    pub fn add_vertex(&mut self, label: u64) -> VertexId {
        let id = self.intern(label);
        self.isolated.push(label);
        id
    }

    /// Adds an undirected edge between the vertices labelled `u` and `v`.
    ///
    /// Self-loops are remembered only as vertex registrations.
    pub fn add_edge(&mut self, u: u64, v: u64) {
        let iu = self.intern(u);
        let iv = self.intern(v);
        if iu != iv {
            self.edges.push((iu, iv));
        }
    }

    /// Number of distinct vertex labels seen so far.
    pub fn num_vertices(&self) -> usize {
        self.label_of.len()
    }

    /// Number of edge insertions (before deduplication).
    pub fn num_edge_insertions(&self) -> usize {
        self.edges.len()
    }

    /// Finalises the builder into a CSR [`Graph`] plus the label of each vertex id.
    pub fn build_with_labels(self) -> Result<(Graph, Vec<u64>), GraphError> {
        let n = self.label_of.len();
        let g = Graph::from_edges(n, self.edges)?;
        Ok((g, self.label_of))
    }

    /// Finalises the builder into a CSR [`Graph`].
    pub fn build(self) -> Result<Graph, GraphError> {
        Ok(self.build_with_labels()?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_with_dense_relabeling() {
        let mut b = GraphBuilder::new();
        b.add_edge(100, 7);
        b.add_edge(7, 42);
        let (g, labels) = b.build_with_labels().unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
        assert_eq!(labels, vec![100, 7, 42]);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn duplicates_and_self_loops_collapsed() {
        let mut b = GraphBuilder::new();
        b.add_edge(1, 2);
        b.add_edge(2, 1);
        b.add_edge(1, 1);
        let g = b.build().unwrap();
        assert_eq!(g.n(), 2);
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn with_num_vertices_keeps_isolated_vertices() {
        let mut b = GraphBuilder::with_num_vertices(5);
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(4), 0);
    }

    #[test]
    fn add_vertex_registers_isolated_label() {
        let mut b = GraphBuilder::new();
        b.add_vertex(9);
        b.add_edge(1, 2);
        let (g, labels) = b.build_with_labels().unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(labels[0], 9);
        assert_eq!(g.degree(0), 0);
    }

    #[test]
    fn counts_before_build() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        assert_eq!(b.num_vertices(), 2);
        assert_eq!(b.num_edge_insertions(), 2);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build().unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
    }
}

//! A contiguous bit adjacency matrix for dense branch subgraphs.
//!
//! The enumeration recursion spends nearly all of its time intersecting a
//! candidate set against adjacency rows (`C ∩ N(v)`). Storing each row as its
//! own heap `Vec` (one `BitSet` per vertex) spreads the rows across the heap
//! and costs a pointer chase — and an allocation — per row. [`AdjMatrix`]
//! instead packs all rows into a **single `Vec<u64>` with a fixed row
//! stride**, so row access is one multiply, consecutive rows share cache
//! lines, and rebuilding the matrix for the next branch reuses the same
//! allocation ([`AdjMatrix::reset`]).
//!
//! Rows are exposed as `&[u64]` word slices; the fused kernels of
//! [`BitSet`](crate::BitSet) (`intersect_into`, `intersection_len_words`,
//! `and_not_iter`, …) consume them directly. This mirrors the bitstring
//! adjacency layout of bit-parallel MCE solvers (San Segundo et al.), which
//! is the dominant cost lever for dense branches.

/// A dense, contiguous bit matrix: `rows` rows, each covering the columns
/// `0..cols` in [`AdjMatrix::stride`] words. [`AdjMatrix::new`] makes the
/// square `n × n` case; a local graph keeps rectangular blocks of rows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdjMatrix {
    words: Vec<u64>,
    rows: usize,
    cols: usize,
    stride: usize,
}

const WORD_BITS: usize = 64;

impl AdjMatrix {
    /// Creates an all-zero `n × n` matrix.
    pub fn new(n: usize) -> Self {
        let mut m = AdjMatrix::default();
        m.reset(n, n);
        m
    }

    /// Empties the matrix and resizes it to `rows` rows over the columns
    /// `0..cols`, reusing the backing allocation whenever it is large enough.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        let stride = cols.div_ceil(WORD_BITS);
        self.words.clear();
        self.words.resize(rows * stride, 0);
        self.rows = rows;
        self.cols = cols;
        self.stride = stride;
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Words per row.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Row `i` as a word slice of length [`AdjMatrix::stride`].
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        debug_assert!(i < self.rows, "row {i} out of {}", self.rows);
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// Sets the directed bit `(i, j)`.
    #[inline]
    pub fn insert(&mut self, i: usize, j: usize) {
        debug_assert!(
            i < self.rows && j < self.cols,
            "({i}, {j}) out of {} × {}",
            self.rows,
            self.cols
        );
        self.words[i * self.stride + j / WORD_BITS] |= 1 << (j % WORD_BITS);
    }

    /// Sets both `(i, j)` and `(j, i)` — an undirected edge.
    #[inline]
    pub fn insert_sym(&mut self, i: usize, j: usize) {
        self.insert(i, j);
        self.insert(j, i);
    }

    /// Whether bit `(i, j)` is set.
    #[inline]
    pub fn contains(&self, i: usize, j: usize) -> bool {
        debug_assert!(
            i < self.rows && j < self.cols,
            "({i}, {j}) out of {} × {}",
            self.rows,
            self.cols
        );
        self.words[i * self.stride + j / WORD_BITS] & (1 << (j % WORD_BITS)) != 0
    }

    /// Number of set bits in row `i` (the degree of vertex `i`).
    pub fn row_len(&self, i: usize) -> usize {
        crate::bitset::popcount(self.row(i))
    }

    /// Iterates over the set bits of row `i` in increasing order.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(i).iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * WORD_BITS + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitSet;

    #[test]
    fn new_matrix_is_empty() {
        let m = AdjMatrix::new(100);
        assert_eq!(m.rows(), 100);
        assert_eq!(m.stride(), 2);
        assert!((0..100).all(|i| m.row_len(i) == 0));
    }

    #[test]
    fn insert_and_contains() {
        let mut m = AdjMatrix::new(70);
        m.insert_sym(0, 65);
        m.insert(3, 4);
        assert!(m.contains(0, 65) && m.contains(65, 0));
        assert!(m.contains(3, 4));
        assert!(!m.contains(4, 3), "insert is directed");
        assert_eq!(m.row_len(0), 1);
        assert_eq!(m.row_iter(0).collect::<Vec<_>>(), vec![65]);
    }

    #[test]
    fn rows_are_word_slices_compatible_with_bitset_kernels() {
        let mut m = AdjMatrix::new(70);
        m.insert_sym(1, 3);
        m.insert_sym(1, 69);
        let c: BitSet = [0usize, 3, 5, 69].into_iter().collect();
        assert_eq!(c.intersection_len_words(m.row(1)), 2);
        let mut out = BitSet::default();
        c.intersect_into(m.row(1), &mut out);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![3, 69]);
    }

    #[test]
    fn reset_reuses_and_clears() {
        let mut m = AdjMatrix::new(10);
        m.insert_sym(0, 9);
        m.reset(5, 5);
        assert_eq!(m.rows(), 5);
        assert!((0..5).all(|i| m.row_len(i) == 0));
        m.insert_sym(0, 4);
        assert!(m.contains(4, 0));
        m.reset(130, 130);
        assert_eq!(m.stride(), 3);
        assert!((0..130).all(|i| m.row_len(i) == 0));
        // Rectangular: 3 rows over 130 columns, then 200 rows over 3.
        m.reset(3, 130);
        assert_eq!((m.rows(), m.stride()), (3, 3));
        m.insert(2, 129);
        assert_eq!(m.row_iter(2).collect::<Vec<_>>(), vec![129]);
        m.reset(200, 3);
        assert_eq!((m.rows(), m.stride()), (200, 1));
        assert!((0..200).all(|i| m.row_len(i) == 0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of 3 × 70")]
    fn a_padding_column_is_out_of_range() {
        // Column 70 lies in row 0's second word but past the 70 columns.
        let mut m = AdjMatrix::default();
        m.reset(3, 70);
        m.insert(0, 70);
    }

    #[test]
    fn zero_vertices_matrix() {
        let m = AdjMatrix::new(0);
        assert_eq!(m.rows(), 0);
        assert_eq!(m.stride(), 0);
    }
}

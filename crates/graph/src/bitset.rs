//! A small, fixed-capacity bit set used for dense neighbourhood tests.
//!
//! The enumeration frameworks frequently need `O(1)` membership tests over
//! vertex sets whose universe is the (small) candidate subgraph of a branch.
//! [`BitSet`] is a plain `Vec<u64>` backed bit set with the operations those
//! hot loops need: insert/remove/contains, clear, fused in-place kernels
//! against raw word rows (the rows of an [`AdjMatrix`](crate::AdjMatrix)),
//! intersection counting and word-level iteration over set bits.
//!
//! # Out-of-range contract
//!
//! All membership operations treat a value `>= capacity` uniformly as *not
//! part of the universe*: [`BitSet::contains`] and [`BitSet::remove`] return
//! `false`, and [`BitSet::insert`] is a no-op returning `false`. The set never
//! grows implicitly — resizing is explicit via [`BitSet::reset`]. (Earlier
//! versions panicked in `insert` but silently accepted out-of-range values in
//! `remove`/`contains`; the contract is now total and consistent across the
//! three operations.)
//!
//! # Word rows
//!
//! The `*_words` kernels operate directly on `&[u64]` word slices so the hot
//! loops can intersect against contiguous adjacency-matrix rows without
//! materialising a second `BitSet`. Words missing from a shorter slice are
//! treated as zero; words beyond `self`'s length are ignored.
//!
//! # Word loops
//!
//! The dense part of every fused kernel is one of a handful of private
//! 4×-unrolled `u64` loops at the end of this file, called directly by
//! [`BitSet`], [`BitsRef`], [`BitsMut`] and [`AdjMatrix`](crate::AdjMatrix).
//! The loops take equal-length slices: callers slice both operands to their
//! shared word prefix and handle ragged tails themselves, so the tail rules
//! live in the methods and the loops are pure word math. Local rows are
//! ⌈δ/64⌉ words, usually one or two, so plain 64-bit word operations are the
//! whole trick (the bit-parallel layout of San Segundo et al.).
//!
//! [`BitsRef`]/[`BitsMut`] are borrowed views with the same semantics over
//! word rows owned elsewhere (the per-depth scratch slab of the solver).

/// A fixed-capacity bit set over the universe `0..capacity`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

const WORD_BITS: usize = 64;

impl BitSet {
    /// Creates an empty bit set able to hold values in `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            capacity,
        }
    }

    /// Creates a bit set with the given capacity and all bits in `0..capacity` set.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::with_capacity(capacity);
        for (i, w) in s.words.iter_mut().enumerate() {
            let lo = i * WORD_BITS;
            let bits = (capacity - lo).min(WORD_BITS);
            *w = if bits == WORD_BITS {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
        }
        s
    }

    /// The capacity (universe size) of the set.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The backing words, `capacity.div_ceil(64)` of them.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Empties the set and changes its capacity, reusing the existing
    /// allocation whenever the new capacity fits.
    pub fn reset(&mut self, capacity: usize) {
        self.words.clear();
        self.words.resize(capacity.div_ceil(WORD_BITS), 0);
        self.capacity = capacity;
    }

    /// Makes `self` a copy of `other` (capacity and contents), reusing the
    /// existing allocation whenever possible.
    #[inline]
    pub fn copy_from(&mut self, other: &BitSet) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
        self.capacity = other.capacity;
    }

    /// Returns `true` when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        popcount(&self.words)
    }

    /// Inserts `value`. Returns `true` if the value was not previously
    /// present. A value `>= capacity` is not part of the universe: the call
    /// is a no-op returning `false` (see the module-level contract).
    #[inline]
    pub fn insert(&mut self, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        let (w, b) = (value / WORD_BITS, value % WORD_BITS);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `value`. Returns `true` if the value was present; a value
    /// `>= capacity` was never present, so the call returns `false`.
    #[inline]
    pub fn remove(&mut self, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        let (w, b) = (value / WORD_BITS, value % WORD_BITS);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Membership test; `false` for any value `>= capacity`.
    #[inline]
    pub fn contains(&self, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        let (w, b) = (value / WORD_BITS, value % WORD_BITS);
        self.words[w] & (1 << b) != 0
    }

    /// The smallest element of the set, if any.
    #[inline]
    pub fn first(&self) -> Option<usize> {
        self.words
            .iter()
            .position(|&w| w != 0)
            .map(|wi| wi * WORD_BITS + self.words[wi].trailing_zeros() as usize)
    }

    /// Removes all elements, keeping the capacity.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    // ------------------------------------------------------------------
    // Set-against-set kernels
    // ------------------------------------------------------------------

    /// Number of elements present in both `self` and `other`.
    pub fn intersection_len(&self, other: &BitSet) -> usize {
        self.intersection_len_words(&other.words)
    }

    /// In-place intersection with `other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        self.intersect_with_words(&other.words);
    }

    /// In-place union with `other` (capacities must match or `other` be smaller).
    pub fn union_with(&mut self, other: &BitSet) {
        self.union_with_words(&other.words);
    }

    /// In-place difference: removes every element of `other` from `self`.
    pub fn difference_with(&mut self, other: &BitSet) {
        self.difference_with_words(&other.words);
    }

    // ------------------------------------------------------------------
    // Fused word-row kernels (hot path)
    // ------------------------------------------------------------------

    /// Number of elements of `self` whose bit is also set in `row`.
    ///
    /// The branching hot loops call this once per candidate per pivot scan.
    #[inline]
    pub fn intersection_len_words(&self, row: &[u64]) -> usize {
        self.view().intersection_len_words(row)
    }

    /// In-place intersection with a word row; words missing from a shorter
    /// `row` count as zero.
    #[inline]
    pub fn intersect_with_words(&mut self, row: &[u64]) {
        let shared = self.words.len().min(row.len());
        for (a, b) in self.words[..shared].iter_mut().zip(row.iter()) {
            *a &= *b;
        }
        for a in self.words[shared..].iter_mut() {
            *a = 0;
        }
    }

    /// In-place union with a word row (bits beyond `self`'s length ignored).
    #[inline]
    pub fn union_with_words(&mut self, row: &[u64]) {
        for (a, b) in self.words.iter_mut().zip(row.iter()) {
            *a |= *b;
        }
    }

    /// In-place difference with a word row.
    #[inline]
    pub fn difference_with_words(&mut self, row: &[u64]) {
        for (a, b) in self.words.iter_mut().zip(row.iter()) {
            *a &= !*b;
        }
    }

    /// Writes `self ∩ row` into `out` (fused copy + intersect, no
    /// intermediate clone). `out` takes `self`'s capacity, reusing its
    /// allocation. Words `row` is missing count as zero, so the tail of
    /// `out` beyond `row` stays cleared.
    #[inline]
    pub fn intersect_into(&self, row: &[u64], out: &mut BitSet) {
        self.intersect_into_count(row, out);
    }

    /// Writes `self ∩ row` into `out` and returns the element count of the
    /// intersection — the fused variant of [`BitSet::intersect_into`] +
    /// [`BitSet::len`] for callers that need the child set *and* its size
    /// (the bound checks of the branch-and-bound engine), saving a second
    /// popcount pass over the freshly written words.
    #[inline]
    pub fn intersect_into_count(&self, row: &[u64], out: &mut BitSet) -> usize {
        out.capacity = self.capacity;
        out.words.resize(self.words.len(), 0);
        BitsMut::new(&mut out.words, self.capacity).assign_and_count(self.view(), row)
    }

    /// Writes `self \ row` into `out` (fused copy + and-not). `out` takes
    /// `self`'s capacity, reusing its allocation. Elements of `self` in
    /// words `row` is missing all survive (the tail is copied verbatim).
    #[inline]
    pub fn difference_into(&self, row: &[u64], out: &mut BitSet) {
        out.capacity = self.capacity;
        out.words.resize(self.words.len(), 0);
        BitsMut::new(&mut out.words, self.capacity).assign_difference(self.view(), row);
    }

    /// Iterates over the set bits in increasing order, one word at a time
    /// (no per-bit bounds checks).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
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

    /// Iterates over the elements of `self` whose bit is **not** set in the
    /// word row `mask` (i.e. `self \ mask`), in increasing order. Words
    /// missing from a shorter `mask` are treated as zero, so those elements
    /// of `self` are all yielded.
    pub fn and_not_iter<'a>(&'a self, mask: &'a [u64]) -> impl Iterator<Item = usize> + 'a {
        self.words.iter().enumerate().flat_map(move |(wi, &word)| {
            let mut w = word & !mask.get(wi).copied().unwrap_or(0);
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

    /// Appends the elements of `self \ mask` to `out` in increasing order —
    /// the collector twin of [`BitSet::and_not_iter`] for the branch-list
    /// builders, which always drain the iterator into a `Vec` (no per-bit
    /// bounds checks). Words missing from a shorter `mask` are treated as
    /// zero, so those elements of `self` are all appended.
    pub fn and_not_collect(&self, mask: &[u64], out: &mut Vec<usize>) {
        self.view().and_not_collect(mask, out);
    }

    /// A borrowed read-only view of the whole set.
    #[inline]
    pub fn view(&self) -> BitsRef<'_> {
        BitsRef {
            words: &self.words,
            capacity: self.capacity,
        }
    }

    /// Makes `self` a copy of `view` (capacity and contents), reusing the
    /// existing allocation whenever possible.
    #[inline]
    pub fn copy_from_view(&mut self, view: BitsRef<'_>) {
        self.words.clear();
        self.words.extend_from_slice(view.words);
        self.capacity = view.capacity;
    }
}

/// A borrowed, read-only bit-set view over a word row owned elsewhere.
///
/// Semantically identical to an immutable [`BitSet`] with `words().len() ==
/// capacity.div_ceil(64)`: the solver's per-depth scratch slab stores its C/X
/// rows in one contiguous allocation and hands them out as views, so the hot
/// path keeps the exact `BitSet` word semantics without per-row `Vec`s.
#[derive(Clone, Copy, Debug)]
pub struct BitsRef<'a> {
    words: &'a [u64],
    capacity: usize,
}

impl<'a> BitsRef<'a> {
    /// Wraps a word row as a read-only view; `words.len()` must equal
    /// `capacity.div_ceil(64)` (the `BitSet` invariant).
    #[inline]
    pub fn new(words: &'a [u64], capacity: usize) -> Self {
        debug_assert_eq!(words.len(), capacity.div_ceil(WORD_BITS));
        BitsRef { words, capacity }
    }

    /// The capacity (universe size) of the viewed set.
    #[inline]
    pub fn capacity(self) -> usize {
        self.capacity
    }

    /// The backing words.
    #[inline]
    pub fn words(self) -> &'a [u64] {
        self.words
    }

    /// Number of set bits.
    #[inline]
    pub fn len(self) -> usize {
        popcount(self.words)
    }

    /// Returns `true` when no bit is set.
    pub fn is_empty(self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Membership test; `false` for any value `>= capacity`.
    #[inline]
    pub fn contains(self, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        self.words[value / WORD_BITS] & (1 << (value % WORD_BITS)) != 0
    }

    /// The smallest element of the set, if any.
    #[inline]
    pub fn first(self) -> Option<usize> {
        self.words
            .iter()
            .position(|&w| w != 0)
            .map(|wi| wi * WORD_BITS + self.words[wi].trailing_zeros() as usize)
    }

    /// Iterates over the set bits in increasing order.
    pub fn iter(self) -> impl Iterator<Item = usize> + 'a {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
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

    /// Number of elements of the view whose bit is also set in `row`.
    #[inline]
    pub fn intersection_len_words(self, row: &[u64]) -> usize {
        let shared = self.words.len().min(row.len());
        intersection_len(&self.words[..shared], &row[..shared])
    }

    /// Appends the elements of `self \ mask` to `out` in increasing order
    /// (same tail semantics as [`BitSet::and_not_collect`]).
    pub fn and_not_collect(self, mask: &[u64], out: &mut Vec<usize>) {
        let shared = self.words.len().min(mask.len());
        and_not_collect(&self.words[..shared], &mask[..shared], out);
        for wi in shared..self.words.len() {
            push_bits(wi, self.words[wi], out);
        }
    }

    /// Iterates over the elements of `self \ mask` in increasing order (same
    /// tail semantics as [`BitSet::and_not_iter`]).
    pub fn and_not_iter(self, mask: &'a [u64]) -> impl Iterator<Item = usize> + 'a {
        self.words.iter().enumerate().flat_map(move |(wi, &word)| {
            let mut w = word & !mask.get(wi).copied().unwrap_or(0);
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

    /// Copies the view into an owned [`BitSet`].
    pub fn to_bitset(self) -> BitSet {
        BitSet {
            words: self.words.to_vec(),
            capacity: self.capacity,
        }
    }
}

/// A borrowed, mutable bit-set view over a word row owned elsewhere — the
/// writable twin of [`BitsRef`], with the fused assign kernels the search
/// frames need (`self = a ∩ row`, `self = a \ row`).
#[derive(Debug)]
pub struct BitsMut<'a> {
    words: &'a mut [u64],
    capacity: usize,
}

impl<'a> BitsMut<'a> {
    /// Wraps a word row as a mutable view; `words.len()` must equal
    /// `capacity.div_ceil(64)` (the `BitSet` invariant).
    #[inline]
    pub fn new(words: &'a mut [u64], capacity: usize) -> Self {
        debug_assert_eq!(words.len(), capacity.div_ceil(WORD_BITS));
        BitsMut { words, capacity }
    }

    /// Reborrows as a read-only view.
    #[inline]
    pub fn as_ref(&self) -> BitsRef<'_> {
        BitsRef {
            words: self.words,
            capacity: self.capacity,
        }
    }

    /// The capacity (universe size) of the viewed set.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of set bits.
    #[inline]
    pub fn len(&self) -> usize {
        popcount(self.words)
    }

    /// Returns `true` when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Membership test; `false` for any value `>= capacity`.
    #[inline]
    pub fn contains(&self, value: usize) -> bool {
        self.as_ref().contains(value)
    }

    /// Inserts `value` (out-of-range is a no-op returning `false`, the
    /// [`BitSet::insert`] contract).
    #[inline]
    pub fn insert(&mut self, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        let (w, b) = (value / WORD_BITS, value % WORD_BITS);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `value` (out-of-range returns `false`, the
    /// [`BitSet::remove`] contract).
    #[inline]
    pub fn remove(&mut self, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        let (w, b) = (value / WORD_BITS, value % WORD_BITS);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Removes all elements, keeping the capacity.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Makes the view a copy of `other`, which must have the same capacity
    /// (views cannot resize their backing row).
    #[inline]
    pub fn copy_from(&mut self, other: BitsRef<'_>) {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words.copy_from_slice(other.words);
    }

    /// In-place intersection with a word row; words missing from a shorter
    /// `row` count as zero.
    #[inline]
    pub fn intersect_with_words(&mut self, row: &[u64]) {
        let shared = self.words.len().min(row.len());
        for (a, b) in self.words[..shared].iter_mut().zip(row.iter()) {
            *a &= *b;
        }
        for a in self.words[shared..].iter_mut() {
            *a = 0;
        }
    }

    /// In-place union with a word row (bits beyond the view's length
    /// ignored).
    #[inline]
    pub fn union_with_words(&mut self, row: &[u64]) {
        for (a, b) in self.words.iter_mut().zip(row.iter()) {
            *a |= *b;
        }
    }

    /// In-place difference with a word row.
    #[inline]
    pub fn difference_with_words(&mut self, row: &[u64]) {
        for (a, b) in self.words.iter_mut().zip(row.iter()) {
            *a &= !*b;
        }
    }

    /// `self = a ∩ row`, returning the element count — the view twin of
    /// [`BitSet::intersect_into_count`]. `a` must have the view's capacity.
    #[inline]
    pub fn assign_and_count(&mut self, a: BitsRef<'_>, row: &[u64]) -> usize {
        debug_assert_eq!(self.capacity, a.capacity);
        let shared = self.words.len().min(row.len());
        let count = intersect_count(
            &a.words[..shared],
            &row[..shared],
            &mut self.words[..shared],
        );
        for w in self.words[shared..].iter_mut() {
            *w = 0;
        }
        count
    }

    /// `self = a \ row` — the view twin of [`BitSet::difference_into`]
    /// (elements of `a` in words `row` is missing all survive). `a` must
    /// have the view's capacity.
    #[inline]
    pub fn assign_difference(&mut self, a: BitsRef<'_>, row: &[u64]) {
        debug_assert_eq!(self.capacity, a.capacity);
        let shared = self.words.len().min(row.len());
        difference(
            &a.words[..shared],
            &row[..shared],
            &mut self.words[..shared],
        );
        self.words[shared..].copy_from_slice(&a.words[shared..]);
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let values: Vec<usize> = iter.into_iter().collect();
        let cap = values.iter().max().map_or(0, |&m| m + 1);
        let mut s = BitSet::with_capacity(cap);
        for v in values {
            s.insert(v);
        }
        s
    }
}

// ----------------------------------------------------------------------
// Word loops: equal-length slices, `dst` fully overwritten (module docs)
// ----------------------------------------------------------------------

/// `dst = a & b`; returns the popcount of the result.
#[inline]
fn intersect_count(a: &[u64], b: &[u64], dst: &mut [u64]) -> usize {
    debug_assert!(a.len() == b.len() && a.len() == dst.len());
    let n = a.len();
    let mut count = 0usize;
    let mut i = 0;
    while i + 4 <= n {
        let (w0, w1) = (a[i] & b[i], a[i + 1] & b[i + 1]);
        let (w2, w3) = (a[i + 2] & b[i + 2], a[i + 3] & b[i + 3]);
        dst[i] = w0;
        dst[i + 1] = w1;
        dst[i + 2] = w2;
        dst[i + 3] = w3;
        count += (w0.count_ones() + w1.count_ones() + w2.count_ones() + w3.count_ones()) as usize;
        i += 4;
    }
    while i < n {
        let w = a[i] & b[i];
        dst[i] = w;
        count += w.count_ones() as usize;
        i += 1;
    }
    count
}

/// Popcount of `a & b` without materialising it.
#[inline]
fn intersection_len(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut total = 0usize;
    let mut i = 0;
    while i + 4 <= n {
        total += (a[i] & b[i]).count_ones() as usize
            + (a[i + 1] & b[i + 1]).count_ones() as usize
            + (a[i + 2] & b[i + 2]).count_ones() as usize
            + (a[i + 3] & b[i + 3]).count_ones() as usize;
        i += 4;
    }
    while i < n {
        total += (a[i] & b[i]).count_ones() as usize;
        i += 1;
    }
    total
}

/// `dst = a & !b`.
#[inline]
fn difference(a: &[u64], b: &[u64], dst: &mut [u64]) {
    debug_assert!(a.len() == b.len() && a.len() == dst.len());
    let n = a.len();
    let mut i = 0;
    while i + 4 <= n {
        dst[i] = a[i] & !b[i];
        dst[i + 1] = a[i + 1] & !b[i + 1];
        dst[i + 2] = a[i + 2] & !b[i + 2];
        dst[i + 3] = a[i + 3] & !b[i + 3];
        i += 4;
    }
    while i < n {
        dst[i] = a[i] & !b[i];
        i += 1;
    }
}

/// Appends the bit positions of word `w` (word index `wi`) in increasing
/// order.
#[inline]
fn push_bits(wi: usize, mut w: u64, out: &mut Vec<usize>) {
    while w != 0 {
        let b = w.trailing_zeros() as usize;
        w &= w - 1;
        out.push(wi * WORD_BITS + b);
    }
}

/// Appends the bit positions of `a & !mask` in increasing order.
#[inline]
fn and_not_collect(a: &[u64], mask: &[u64], out: &mut Vec<usize>) {
    debug_assert_eq!(a.len(), mask.len());
    let n = a.len();
    let mut i = 0;
    while i + 4 <= n {
        let (w0, w1) = (a[i] & !mask[i], a[i + 1] & !mask[i + 1]);
        let (w2, w3) = (a[i + 2] & !mask[i + 2], a[i + 3] & !mask[i + 3]);
        push_bits(i, w0, out);
        push_bits(i + 1, w1, out);
        push_bits(i + 2, w2, out);
        push_bits(i + 3, w3, out);
        i += 4;
    }
    while i < n {
        push_bits(i, a[i] & !mask[i], out);
        i += 1;
    }
}

/// Total popcount of `a`.
#[inline]
pub(crate) fn popcount(a: &[u64]) -> usize {
    let n = a.len();
    let mut total = 0usize;
    let mut i = 0;
    while i + 4 <= n {
        total += (a[i].count_ones()
            + a[i + 1].count_ones()
            + a[i + 2].count_ones()
            + a[i + 3].count_ones()) as usize;
        i += 4;
    }
    while i < n {
        total += a[i].count_ones() as usize;
        i += 1;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_set_is_empty() {
        let s = BitSet::with_capacity(100);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.capacity(), 100);
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::with_capacity(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "second insert reports already present");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn out_of_range_contract_is_uniform() {
        // insert / remove / contains all treat value >= capacity as "not in
        // the universe": no panic, no mutation, `false` everywhere.
        let mut s = BitSet::with_capacity(10);
        assert!(!s.insert(10), "insert out of range is a no-op");
        assert!(!s.insert(1000));
        assert!(s.is_empty(), "out-of-range insert must not set stray bits");
        assert!(!s.contains(10));
        assert!(!s.contains(1000));
        assert!(!s.remove(10));
        assert_eq!(s.len(), 0);

        // Values just past the capacity but inside the last backing word are
        // equally rejected (the subtle case: capacity 70 uses 2 words of 128
        // bits, so bit 71 physically exists in the buffer).
        let mut s = BitSet::with_capacity(70);
        assert!(!s.insert(71));
        assert!(s.is_empty());
        assert!(!s.contains(71));
    }

    #[test]
    fn full_contains_everything() {
        let s = BitSet::full(70);
        assert_eq!(s.len(), 70);
        assert!((0..70).all(|v| s.contains(v)));
        assert!(!s.contains(70));
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::full(10);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 10);
    }

    #[test]
    fn reset_changes_capacity_and_empties() {
        let mut s = BitSet::full(100);
        s.reset(40);
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 40);
        assert!(s.insert(39));
        assert!(!s.insert(40));
        s.reset(200);
        assert!(s.is_empty());
        assert!(s.insert(199));
    }

    #[test]
    fn copy_from_mirrors_contents_and_capacity() {
        let a: BitSet = [1usize, 64, 99].into_iter().collect();
        let mut b = BitSet::with_capacity(3);
        b.copy_from(&a);
        assert_eq!(b, a);
        assert_eq!(b.capacity(), a.capacity());
    }

    #[test]
    fn first_returns_smallest() {
        assert_eq!(BitSet::with_capacity(100).first(), None);
        let s: BitSet = [70usize, 3, 65].into_iter().collect();
        assert_eq!(s.first(), Some(3));
        let s: BitSet = [70usize].into_iter().collect();
        assert_eq!(s.first(), Some(70));
    }

    #[test]
    fn intersection_len_counts_common_bits() {
        let a: BitSet = [1usize, 3, 5, 64, 65].into_iter().collect();
        let b: BitSet = [3usize, 5, 65, 66].into_iter().collect();
        assert_eq!(a.intersection_len(&b), 3);
        assert_eq!(b.intersection_len(&a), 3);
    }

    #[test]
    fn intersect_with_keeps_common() {
        let mut a: BitSet = [1usize, 3, 5, 64].into_iter().collect();
        let b: BitSet = [3usize, 64].into_iter().collect();
        a.intersect_with(&b);
        let got: Vec<usize> = a.iter().collect();
        assert_eq!(got, vec![3, 64]);
    }

    #[test]
    fn union_with_merges() {
        let mut a: BitSet = [1usize, 2].into_iter().collect();
        let b: BitSet = [2usize].into_iter().collect();
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn difference_with_removes_members() {
        let mut a: BitSet = [1usize, 2, 65, 70].into_iter().collect();
        let b: BitSet = [2usize, 70].into_iter().collect();
        a.difference_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 65]);
    }

    #[test]
    fn intersect_into_writes_fused_result() {
        let a: BitSet = [1usize, 3, 64, 100].into_iter().collect();
        let row: BitSet = [3usize, 64, 99].into_iter().collect();
        let mut out = BitSet::default();
        a.intersect_into(row.words(), &mut out);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![3, 64]);
        assert_eq!(out.capacity(), a.capacity());
        // Shorter mask: missing words behave as zero.
        let mut out2 = BitSet::default();
        a.intersect_into(&row.words()[..1], &mut out2);
        assert_eq!(out2.iter().collect::<Vec<_>>(), vec![3]);
        assert_eq!(out2.words().len(), a.words().len());
    }

    #[test]
    fn difference_into_writes_fused_result() {
        let a: BitSet = [1usize, 3, 64, 100].into_iter().collect();
        let row: BitSet = [3usize, 64].into_iter().collect();
        let mut out = BitSet::default();
        a.difference_into(row.words(), &mut out);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![1, 100]);
        // Shorter mask: elements in the missing words all survive.
        let mut out2 = BitSet::default();
        a.difference_into(&row.words()[..1], &mut out2);
        assert_eq!(out2.iter().collect::<Vec<_>>(), vec![1, 64, 100]);
    }

    #[test]
    fn and_not_iter_skips_masked_bits() {
        let a: BitSet = [0usize, 2, 64, 66, 130].into_iter().collect();
        let mask: BitSet = [2usize, 66].into_iter().collect();
        let got: Vec<usize> = a.and_not_iter(mask.words()).collect();
        assert_eq!(got, vec![0, 64, 130]);
        // Empty mask yields everything.
        let got: Vec<usize> = a.and_not_iter(&[]).collect();
        assert_eq!(got, vec![0, 2, 64, 66, 130]);
    }

    #[test]
    fn intersect_into_count_matches_len_of_fused_result() {
        let a: BitSet = [1usize, 3, 64, 100, 250, 300].into_iter().collect();
        let row: BitSet = [3usize, 64, 99, 250].into_iter().collect();
        let mut out = BitSet::default();
        let count = a.intersect_into_count(row.words(), &mut out);
        assert_eq!(count, out.len());
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![3, 64, 250]);
        // Shorter mask: missing words count as zero, and so does the count.
        let count = a.intersect_into_count(&row.words()[..1], &mut out);
        assert_eq!(count, 1);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![3]);
        assert_eq!(out.words().len(), a.words().len());
    }

    #[test]
    fn and_not_collect_matches_and_not_iter() {
        let a: BitSet = [0usize, 2, 64, 66, 130, 200, 290].into_iter().collect();
        let mask: BitSet = [2usize, 66, 200].into_iter().collect();
        let mut got = Vec::new();
        a.and_not_collect(mask.words(), &mut got);
        assert_eq!(got, a.and_not_iter(mask.words()).collect::<Vec<_>>());
        // Appends (does not clear), and a short mask lets everything through.
        a.and_not_collect(&[], &mut got);
        let mut expected: Vec<usize> = a.and_not_iter(mask.words()).collect();
        expected.extend(a.iter());
        assert_eq!(got, expected);
    }

    #[test]
    fn iter_yields_sorted_values() {
        let s: BitSet = [67usize, 2, 0, 128, 5].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 2, 5, 67, 128]);
    }

    #[test]
    fn from_iter_empty() {
        let s: BitSet = std::iter::empty().collect();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 0);
    }
}

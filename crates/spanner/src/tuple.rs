//! `(V, d)`-tuples and span relations (paper §2).
//!
//! A [`SpanRelation`] stores its tuples **row-major** in one flat span
//! buffer: row `i` is `spans[i·arity .. (i+1)·arity]`, in variable order.
//! Rows are sorted lexicographically over their span slices — the order
//! [`SpanTuple`] derives — and distinct. Iteration hands out borrowed
//! rows ([`TupleRef`]); [`SpanTuple`] is the owned tuple, used where a
//! single tuple outlives its relation (witnesses, oracles, membership
//! probes).
//!
//! The empty relation is normalised to arity 0, so empty relations
//! compare equal whatever spanner produced them. A non-empty Boolean
//! (arity-0) relation holds exactly the unit tuple `()` and no spans.

use crate::span::Span;
use crate::vars::{VarId, VarTable};
use std::cmp::Ordering;
use std::fmt;

/// A `(V, d)`-tuple: a total assignment of spans to the variables of a
/// table. Spans are stored densely, indexed by [`VarId`].
///
/// All spanners in this library are *functional* (every output tuple
/// assigns every variable), matching the paper's setting.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanTuple {
    spans: Box<[Span]>,
}

impl SpanTuple {
    /// Creates a tuple from the dense span assignment.
    pub fn new(spans: Vec<Span>) -> SpanTuple {
        SpanTuple {
            spans: spans.into_boxed_slice(),
        }
    }

    /// The empty tuple `()` of a Boolean spanner.
    pub fn unit() -> SpanTuple {
        SpanTuple {
            spans: Box::new([]),
        }
    }

    /// This tuple as a borrowed row.
    #[inline]
    fn row(&self) -> TupleRef<'_> {
        TupleRef { spans: &self.spans }
    }

    /// Number of variables.
    #[inline]
    pub fn arity(&self) -> usize {
        self.spans.len()
    }

    /// Span assigned to `v`.
    #[inline]
    pub fn get(&self, v: VarId) -> Span {
        self.spans[v.index()]
    }

    /// All spans in variable order.
    #[inline]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The paper's tuple shift `t ≫ s`: shifts every span by `s`.
    pub fn shift(&self, s: Span) -> SpanTuple {
        self.row().shift(s)
    }

    /// Inverse shift; `None` if some span is not contained in `s`.
    pub fn unshift(&self, s: Span) -> Option<SpanTuple> {
        let mut out = Vec::with_capacity(self.spans.len());
        for sp in self.spans.iter() {
            out.push(sp.unshift(s)?);
        }
        Some(SpanTuple::new(out))
    }

    /// Whether `s` *covers* this tuple: `s` contains every assigned span
    /// (Definition 5.2).
    pub fn covered_by(&self, s: Span) -> bool {
        self.row().covered_by(s)
    }

    /// The minimal span containing every assigned span, or `None` for the
    /// empty tuple (which is covered by any span).
    pub fn minimal_cover(&self) -> Option<Span> {
        self.row().minimal_cover()
    }

    /// Renders with variable names.
    pub fn display<'a>(&'a self, table: &'a VarTable) -> TupleDisplay<'a> {
        self.row().display(table)
    }
}

/// One row of a [`SpanRelation`], borrowed: the tuple's spans in
/// variable order. Ordered like [`SpanTuple`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleRef<'a> {
    spans: &'a [Span],
}

impl<'a> TupleRef<'a> {
    /// Span assigned to `v`.
    #[inline]
    pub fn get(self, v: VarId) -> Span {
        self.spans[v.index()]
    }

    /// All spans in variable order.
    #[inline]
    pub fn spans(self) -> &'a [Span] {
        self.spans
    }

    /// An owned copy of the row.
    pub fn to_owned(self) -> SpanTuple {
        SpanTuple::new(self.spans.to_vec())
    }

    /// The paper's tuple shift `t ≫ s`: shifts every span by `s`.
    pub fn shift(self, s: Span) -> SpanTuple {
        SpanTuple {
            spans: self.spans.iter().map(|sp| sp.shift(s)).collect(),
        }
    }

    /// Whether `s` *covers* this tuple: `s` contains every assigned span
    /// (Definition 5.2).
    pub fn covered_by(self, s: Span) -> bool {
        self.spans.iter().all(|sp| s.contains_span(*sp))
    }

    /// The minimal span containing every assigned span, or `None` for the
    /// empty tuple (which is covered by any span).
    pub fn minimal_cover(self) -> Option<Span> {
        let start = self.spans.iter().map(|s| s.start).min()?;
        let end = self.spans.iter().map(|s| s.end).max()?;
        Some(Span::new(start, end))
    }

    /// Renders with variable names.
    pub fn display(self, table: &'a VarTable) -> TupleDisplay<'a> {
        TupleDisplay { tuple: self, table }
    }
}

impl PartialEq<SpanTuple> for TupleRef<'_> {
    fn eq(&self, other: &SpanTuple) -> bool {
        self.spans == other.spans()
    }
}

/// Display helper pairing a tuple with its variable table.
pub struct TupleDisplay<'a> {
    tuple: TupleRef<'a>,
    table: &'a VarTable,
}

impl fmt::Display for TupleDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.table.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", self.table.name(v), self.tuple.get(v))?;
        }
        write!(f, ")")
    }
}

/// A span relation: the output of a spanner on one document — a sorted,
/// duplicate-free set of tuples, stored row-major in one `Vec<Span>`
/// (see the [module docs](self) for the layout, the order and the
/// normalised empty relation).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanRelation {
    arity: usize,
    len: usize,
    spans: Vec<Span>,
}

impl SpanRelation {
    /// The empty relation.
    pub fn empty() -> SpanRelation {
        SpanRelation::default()
    }

    /// Builds a relation from `len` rows of `arity` spans each, laid out
    /// row-major in `spans`, sorting and deduplicating. Already-sorted
    /// inputs (the common case for evaluator output merged across
    /// ordered disjoint chunks) are detected in `O(n)` and not re-sorted.
    ///
    /// Panics if `spans.len() != arity · len`.
    pub fn from_rows(arity: usize, len: usize, mut spans: Vec<Span>) -> SpanRelation {
        assert_eq!(spans.len(), arity * len, "row-major buffer size");
        if len == 0 {
            return SpanRelation::empty();
        }
        if arity == 0 {
            // Every row is the unit tuple: the set holds it once.
            return SpanRelation {
                arity,
                len: 1,
                spans,
            };
        }
        let sorted = spans
            .chunks_exact(arity)
            .zip(spans.chunks_exact(arity).skip(1))
            .all(|(a, b)| a <= b);
        if !sorted {
            let mut rows: Vec<&[Span]> = spans.chunks_exact(arity).collect();
            rows.sort_unstable();
            spans = rows.concat();
        }
        // Compact duplicate neighbours in place.
        let mut kept = 1;
        for i in 1..len {
            let row = i * arity;
            if spans[row..row + arity] != spans[(kept - 1) * arity..kept * arity] {
                if kept != i {
                    spans.copy_within(row..row + arity, kept * arity);
                }
                kept += 1;
            }
        }
        spans.truncate(kept * arity);
        SpanRelation {
            arity,
            len: kept,
            spans,
        }
    }

    /// The union of relations (per-segment results, say): their rows
    /// concatenated, in order, into one buffer sized up front. When every
    /// part's first row is strictly greater than the previous part's last
    /// row — ordered disjoint segments — the buffer is already sorted
    /// and duplicate-free, so it is the relation, at one comparison per
    /// part. Otherwise (overlapping parts, empty spans shared on a
    /// boundary, Boolean parts) [`SpanRelation::from_rows`] sorts and
    /// dedups it. Empty parts are skipped, so the non-empty ones must
    /// share one arity.
    pub fn concat(parts: Vec<SpanRelation>) -> SpanRelation {
        let mut spans = Vec::with_capacity(parts.iter().map(|r| r.spans.len()).sum());
        let (mut arity, mut rows, mut ordered) = (0, 0, true);
        for rel in parts.into_iter().filter(|r| !r.is_empty()) {
            ordered &= rows == 0 || spans[spans.len() - arity..] < rel.spans[..rel.arity];
            arity = rel.arity;
            rows += rel.len;
            spans.extend_from_slice(&rel.spans);
        }
        if ordered && arity > 0 {
            return SpanRelation {
                arity,
                len: rows,
                spans,
            };
        }
        SpanRelation::from_rows(arity, rows, spans)
    }

    /// Builds a relation from owned tuples, sorting and deduplicating.
    ///
    /// Panics if the tuples disagree on their arity.
    pub fn from_tuples(tuples: Vec<SpanTuple>) -> SpanRelation {
        let Some(first) = tuples.first() else {
            return SpanRelation::empty();
        };
        let arity = first.arity();
        let mut spans = Vec::with_capacity(arity * tuples.len());
        for t in &tuples {
            assert_eq!(t.arity(), arity, "tuples of one relation share an arity");
            spans.extend_from_slice(t.spans());
        }
        SpanRelation::from_rows(arity, tuples.len(), spans)
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of variables per tuple (0 for the empty relation).
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Every span of every row, row-major.
    #[inline]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The `i`-th tuple in order. Panics if `i >= len()`.
    #[inline]
    pub fn tuple(&self, i: usize) -> TupleRef<'_> {
        assert!(i < self.len, "tuple index out of range");
        TupleRef {
            spans: &self.spans[i * self.arity..(i + 1) * self.arity],
        }
    }

    /// Membership test (binary search).
    pub fn contains(&self, t: &SpanTuple) -> bool {
        if self.is_empty() || t.arity() != self.arity {
            return false;
        }
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.tuple(mid).spans().cmp(t.spans()) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return true,
            }
        }
        false
    }

    /// Union of two relations.
    ///
    /// Panics if both are non-empty and their arities differ.
    pub fn union(&self, other: &SpanRelation) -> SpanRelation {
        if self.is_empty() {
            return other.clone();
        }
        let mut spans = self.spans.clone();
        spans.extend_from_slice(&other.spans);
        SpanRelation::from_rows(self.arity, self.len + other.len, spans)
    }

    /// Shifts every tuple by `s` (used when assembling `P ∘ S` outputs).
    pub fn shift(&self, s: Span) -> SpanRelation {
        let mut out = self.clone();
        out.shift_in_place(s);
        out
    }

    /// [`SpanRelation::shift`] on an owned relation: rewrites the spans
    /// where they are. Shifting preserves the row order, so no re-sort
    /// is needed.
    pub fn shift_in_place(&mut self, s: Span) {
        for sp in &mut self.spans {
            *sp = sp.shift(s);
        }
    }

    /// Iterates the tuples in order, as borrowed rows.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TupleRef<'_>> + DoubleEndedIterator {
        let arity = self.arity;
        (0..self.len).map(move |i| TupleRef {
            spans: &self.spans[i * arity..(i + 1) * arity],
        })
    }
}

impl FromIterator<SpanTuple> for SpanRelation {
    fn from_iter<I: IntoIterator<Item = SpanTuple>>(iter: I) -> Self {
        SpanRelation::from_tuples(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(spans: &[(usize, usize)]) -> SpanTuple {
        SpanTuple::new(spans.iter().map(|&(a, b)| Span::new(a, b)).collect())
    }

    #[test]
    fn tuple_shift() {
        let tu = t(&[(1, 3), (2, 2)]);
        let s = Span::new(5, 20);
        let shifted = tu.shift(s);
        assert_eq!(shifted.get(VarId(0)), Span::new(6, 8));
        assert_eq!(shifted.get(VarId(1)), Span::new(7, 7));
        assert_eq!(shifted.unshift(s).unwrap(), tu);
    }

    #[test]
    fn shift_in_place_equals_shift() {
        let s = Span::new(5, 20);
        for rel in [
            SpanRelation::from_tuples(vec![t(&[(1, 3), (2, 2)]), t(&[(0, 0), (4, 9)])]),
            SpanRelation::from_tuples(vec![t(&[(4, 9)])]),
            SpanRelation::from_tuples(vec![SpanTuple::unit()]),
            SpanRelation::empty(),
        ] {
            let mut owned = rel.clone();
            owned.shift_in_place(s);
            assert_eq!(owned, rel.shift(s));
            let shifted: Vec<SpanTuple> = rel.iter().map(|r| r.shift(s)).collect();
            assert_eq!(owned, SpanRelation::from_tuples(shifted));
        }
    }

    #[test]
    fn unshift_requires_containment() {
        let tu = t(&[(1, 3)]);
        assert!(tu.unshift(Span::new(2, 9)).is_none());
        assert!(tu.unshift(Span::new(0, 3)).is_some());
    }

    #[test]
    fn cover() {
        let tu = t(&[(2, 4), (6, 8)]);
        assert!(tu.covered_by(Span::new(2, 8)));
        assert!(tu.covered_by(Span::new(0, 10)));
        assert!(!tu.covered_by(Span::new(3, 10)));
        assert_eq!(tu.minimal_cover(), Some(Span::new(2, 8)));
        assert_eq!(SpanTuple::unit().minimal_cover(), None);
        assert!(SpanTuple::unit().covered_by(Span::new(3, 3)));
    }

    #[test]
    fn relation_set_semantics() {
        let r = SpanRelation::from_tuples(vec![t(&[(1, 2)]), t(&[(0, 1)]), t(&[(1, 2)])]);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&t(&[(0, 1)])));
        assert!(!r.contains(&t(&[(5, 6)])));
        assert_eq!(r.tuple(0), t(&[(0, 1)]));
    }

    #[test]
    fn relation_union_and_shift() {
        let a = SpanRelation::from_tuples(vec![t(&[(0, 1)])]);
        let b = SpanRelation::from_tuples(vec![t(&[(1, 2)])]);
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
        let sh = u.shift(Span::new(10, 30));
        assert!(sh.contains(&t(&[(10, 11)])));
        assert!(sh.contains(&t(&[(11, 12)])));
    }

    /// `concat` against `from_rows` of the same rows in part order.
    fn concat_is_from_rows(parts: Vec<SpanRelation>) -> SpanRelation {
        let arity = parts.iter().map(SpanRelation::arity).max().unwrap_or(0);
        let rows = parts.iter().map(SpanRelation::len).sum();
        let spans = parts.iter().flat_map(|r| r.spans().to_vec()).collect();
        let reference = SpanRelation::from_rows(arity, rows, spans);
        let merged = SpanRelation::concat(parts);
        assert_eq!(merged, reference);
        merged
    }

    #[test]
    fn concat_of_ordered_parts_is_their_rows() {
        let parts = vec![
            SpanRelation::from_tuples(vec![t(&[(0, 2), (3, 5)]), t(&[(0, 2), (3, 4)])]),
            SpanRelation::empty(),
            SpanRelation::from_tuples(vec![t(&[(6, 8), (9, 9)])]),
            SpanRelation::from_tuples(vec![t(&[(10, 11), (12, 14)]), t(&[(12, 14), (15, 16)])]),
        ];
        assert_eq!(concat_is_from_rows(parts).len(), 5);
        assert_eq!(concat_is_from_rows(Vec::new()), SpanRelation::empty());
    }

    #[test]
    fn concat_falls_back_on_overlapping_parts() {
        // Tokens per `ngram_windows(2)` window: neighbouring windows share
        // a token, so each part starts before the previous one ends.
        let vsa = crate::rgx::Rgx::parse("(.*[^A-Za-z0-9]|)x{[A-Za-z0-9]+}([^A-Za-z0-9].*|)")
            .unwrap()
            .to_vsa()
            .unwrap();
        let doc = b"one two, three four.";
        let parts: Vec<SpanRelation> = crate::splitter::ngram_windows(2)
            .split(doc)
            .into_iter()
            .map(|w| crate::eval::eval(&vsa, w.slice(doc)).shift(w))
            .collect();
        assert!(parts.len() > 4, "{} windows", parts.len());
        let merged = concat_is_from_rows(parts);
        assert_eq!(merged, crate::eval::eval(&vsa, doc));
        assert_eq!(merged.len(), 4);
        // Out of order entirely: the later part is concatenated first.
        let late = SpanRelation::from_tuples(vec![t(&[(8, 9)])]);
        let early = SpanRelation::from_tuples(vec![t(&[(0, 1)])]);
        assert_eq!(
            concat_is_from_rows(vec![late, early]).tuple(0),
            t(&[(0, 1)])
        );
    }

    #[test]
    fn concat_falls_back_on_a_shared_boundary_span() {
        // Two segments meeting at 4 both report the empty span [4, 4⟩.
        let left = SpanRelation::from_tuples(vec![t(&[(0, 0)]), t(&[(4, 4)])]);
        let right = SpanRelation::from_tuples(vec![t(&[(4, 4)]), t(&[(9, 9)])]);
        assert_eq!(concat_is_from_rows(vec![left, right]).len(), 3);
    }

    #[test]
    fn concat_falls_back_on_boolean_parts() {
        let unit = || SpanRelation::from_tuples(vec![SpanTuple::unit()]);
        let merged = concat_is_from_rows(vec![unit(), SpanRelation::empty(), unit()]);
        assert_eq!(merged, unit());
        assert_eq!(merged.len(), 1);
    }

    #[test]
    fn display_uses_one_based_paper_notation() {
        let table = VarTable::new(["x"]).unwrap();
        let tu = t(&[(0, 2)]);
        assert_eq!(format!("{}", tu.display(&table)), "(x: [1, 3⟩)");
    }
}

//! `(V, d)`-tuples and span relations (paper §2).

use crate::span::Span;
use crate::vars::{VarId, VarTable};
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
        SpanTuple {
            spans: self.spans.iter().map(|sp| sp.shift(s)).collect(),
        }
    }

    /// [`SpanTuple::shift`] on an owned tuple: rewrites the spans where
    /// they are instead of allocating a shifted copy.
    pub fn shift_in_place(&mut self, s: Span) {
        for sp in self.spans.iter_mut() {
            *sp = sp.shift(s);
        }
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
        self.spans.iter().all(|sp| s.contains_span(*sp))
    }

    /// The minimal span containing every assigned span, or `None` for the
    /// empty tuple (which is covered by any span).
    pub fn minimal_cover(&self) -> Option<Span> {
        let start = self.spans.iter().map(|s| s.start).min()?;
        let end = self.spans.iter().map(|s| s.end).max()?;
        Some(Span::new(start, end))
    }

    /// Renders with variable names.
    pub fn display<'a>(&'a self, table: &'a VarTable) -> TupleDisplay<'a> {
        TupleDisplay { tuple: self, table }
    }
}

/// Display helper pairing a tuple with its variable table.
pub struct TupleDisplay<'a> {
    tuple: &'a SpanTuple,
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
/// duplicate-free set of tuples.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanRelation {
    tuples: Vec<SpanTuple>,
}

impl SpanRelation {
    /// The empty relation.
    pub fn empty() -> SpanRelation {
        SpanRelation { tuples: Vec::new() }
    }

    /// Builds a relation, sorting and deduplicating. Already-sorted
    /// inputs (the common case for evaluator output merged across
    /// ordered disjoint chunks) are detected in `O(n)` and not re-sorted.
    pub fn from_tuples(mut tuples: Vec<SpanTuple>) -> SpanRelation {
        if !tuples.windows(2).all(|w| w[0] <= w[1]) {
            tuples.sort_unstable();
        }
        tuples.dedup();
        SpanRelation { tuples }
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples, sorted.
    #[inline]
    pub fn tuples(&self) -> &[SpanTuple] {
        &self.tuples
    }

    /// Membership test (binary search).
    pub fn contains(&self, t: &SpanTuple) -> bool {
        self.tuples.binary_search(t).is_ok()
    }

    /// Union of two relations.
    pub fn union(&self, other: &SpanRelation) -> SpanRelation {
        let mut all = self.tuples.clone();
        all.extend(other.tuples.iter().cloned());
        SpanRelation::from_tuples(all)
    }

    /// Shifts every tuple by `s` (used when assembling `P ∘ S` outputs).
    pub fn shift(&self, s: Span) -> SpanRelation {
        // Shifting preserves order, so no re-sort is needed.
        SpanRelation {
            tuples: self.tuples.iter().map(|t| t.shift(s)).collect(),
        }
    }

    /// Iterates the tuples.
    pub fn iter(&self) -> impl Iterator<Item = &SpanTuple> {
        self.tuples.iter()
    }

    /// The sorted tuples, by value.
    pub fn into_tuples(self) -> Vec<SpanTuple> {
        self.tuples
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
        for tu in [
            t(&[(1, 3), (2, 2), (0, 0)]),
            t(&[(4, 9)]),
            SpanTuple::unit(),
        ] {
            let mut owned = tu.clone();
            owned.shift_in_place(s);
            assert_eq!(owned, tu.shift(s));
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
        assert_eq!(r.tuples()[0], t(&[(0, 1)]));
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

    #[test]
    fn display_uses_one_based_paper_notation() {
        let table = VarTable::new(["x"]).unwrap();
        let tu = t(&[(0, 2)]);
        assert_eq!(format!("{}", tu.display(&table)), "(x: [1, 3⟩)");
    }
}

//! Literal prefilters for spanner evaluation.
//!
//! The dense engine ([`crate::dense`]) made the per-byte cost of
//! evaluation nearly constant; this module attacks the *number of bytes
//! that pay it*. Real corpora are match-sparse — most sentences of a log
//! or wiki dump contain no transaction, no number, no entity — yet the
//! dense engine still walks its lazy DFA over every byte of every
//! segment. The `prefilter` engine answers most of those scans without
//! touching the DFA at all:
//!
//! 1. **Analysis** ([`PrefilterAnalysis::analyze`]) runs once per
//!    compiled spanner and extracts three document-level facts from the
//!    block-normal-form automaton: the *minimum match length* (shortest
//!    accepted document), the *required prefix literal* (bytes every
//!    accepted document must start with), and a *required byte class* (a
//!    byte-class of the automaton's alphabet partition that every
//!    accepted document must contain — verified by an emptiness check of
//!    the automaton restricted to the class's complement).
//! 2. **Gate** ([`PrefilterGate`]) compiles those facts into `O(1)` /
//!    one-SWAR-scan document rejection tests: too short → empty relation;
//!    wrong prefix → empty relation; no required byte present
//!    ([`splitc_automata::scan::ByteFinder`]) → empty relation. Only
//!    documents that survive — the *candidates* — reach the DFA.
//! 3. **Skip-loop** — candidates are evaluated by the dense engine with
//!    its skip-loop on, so `Σ*`-style contexts are crossed by the
//!    scanner instead of the transition table.
//!
//! The tiered core ([`crate::engine::TieredEvsa`]) composes the three:
//! the gate sits in front of both the `prefilter` and the `aot` tier,
//! and counts [`PrefilterStats`] for each.
//!
//! Every test is conservative (may pass a non-matching document, never
//! rejects a matching one), so the engine is exact: a spanner whose
//! analysis finds nothing useful (`PrefilterAnalysis::is_trivial`)
//! degrades to plain dense evaluation (plus the skip-loop)
//! automatically — the fallback invariant the differential suites
//! assert, and the reason the prefilter engine never loses more than
//! scanner noise on match-dense workloads.

use crate::byteset::ByteSet;
use crate::evsa::EVsa;
use splitc_automata::classes::ByteClassBuilder;
use splitc_automata::nfa::StateId;
use splitc_automata::scan::ByteFinder;
use std::collections::VecDeque;

/// Longest required-prefix literal the analysis extracts.
const MAX_PREFIX: usize = 16;

/// Longest required *contained* literal the analysis grows from a
/// required singleton byte.
const MAX_LITERAL: usize = 12;

/// Largest transition mask whose bytes are tried as literal-extension
/// candidates. Keyword-shaped spanners force their literal bytes
/// through tiny (usually singleton) masks; wide masks only describe
/// contexts and would bloat the candidate set for nothing.
const MAX_CANDIDATE_MASK: usize = 4;

/// Largest required-byte-set size worth scanning for: a set covering
/// more than half the alphabet rejects almost nothing, so the gate
/// drops it rather than paying a scan per document.
const MAX_REQUIRED_BYTES: usize = 128;

/// Counters of one prefiltered evaluation stream, surfaced per corpus
/// run in `splitc_exec::CorpusStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefilterStats {
    /// Bytes never stepped through a DFA table: documents rejected
    /// wholesale by the gate plus bytes jumped by the skip-loop scanner.
    pub bytes_skipped: u64,
    /// Documents that passed the gate and were handed to the DFA.
    pub candidates: u64,
    /// Candidates whose evaluation produced no tuple — the gate's false
    /// positives (a high rate means the analysis is too coarse for the
    /// workload).
    pub false_candidates: u64,
}

impl PrefilterStats {
    /// Component-wise sum (for aggregating per-worker stats).
    pub fn merge(self, other: PrefilterStats) -> PrefilterStats {
        PrefilterStats {
            bytes_skipped: self.bytes_skipped + other.bytes_skipped,
            candidates: self.candidates + other.candidates,
            false_candidates: self.false_candidates + other.false_candidates,
        }
    }
}

/// Document-level facts extracted from a block-normal-form automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefilterAnalysis {
    /// Length of the shortest accepted document; `usize::MAX` when the
    /// language is empty (every document is rejected).
    pub min_len: usize,
    /// Bytes every accepted document starts with (may be empty).
    pub prefix: Vec<u8>,
    /// A byte set every accepted document intersects, when the analysis
    /// found a selective one (at most `MAX_REQUIRED_BYTES` bytes).
    pub required: Option<ByteSet>,
    /// A literal every accepted document *contains* (anywhere), grown
    /// from a required singleton byte by product-emptiness checks; empty
    /// when no single byte is required. A one-byte literal carries no
    /// information beyond `required` (gates skip it); longer literals
    /// are what make multi-spanner needle scanning selective.
    pub literal: Vec<u8>,
}

impl PrefilterAnalysis {
    /// Analyzes `evsa`. Cost is a handful of BFS passes over the
    /// automaton — negligible next to compilation.
    pub fn analyze(evsa: &EVsa) -> PrefilterAnalysis {
        let min_len = min_match_len(evsa);
        if min_len == 0 || min_len == usize::MAX {
            // Empty document accepted: nothing is required. Empty
            // language: the length test alone rejects everything.
            return PrefilterAnalysis {
                min_len,
                prefix: Vec::new(),
                required: None,
                literal: Vec::new(),
            };
        }
        let required = required_byteset(evsa);
        let literal = match &required {
            Some(set) if set.len() == 1 => required_literal(evsa, set.first().expect("singleton")),
            _ => Vec::new(),
        };
        PrefilterAnalysis {
            min_len,
            prefix: required_prefix(evsa),
            required,
            literal,
        }
    }

    /// Whether the analysis found nothing a gate could use — the
    /// documented fallback condition: a trivial analysis makes the
    /// `prefilter` engine behave exactly like the dense engine (plus the
    /// skip-loop).
    pub fn is_trivial(&self) -> bool {
        self.min_len == 0 && self.prefix.is_empty() && self.required.is_none()
    }

    /// Literal *content needles* for multi-spanner scanning: a set of
    /// byte strings such that every document with a non-empty relation
    /// contains at least one of them (at most `max_set` needles).
    /// `None` means the analysis found no usable content fact, or the
    /// needle set would be larger than `max_set` — the caller must then
    /// treat the spanner as always-viable.
    ///
    /// Soundness: a non-empty required prefix is in particular a
    /// *contained* literal, so it alone suffices; a grown required
    /// literal likewise; otherwise each byte of a small required
    /// [`ByteSet`] becomes a one-byte needle. All three facts come from
    /// the emptiness/frontier analyses above, so the needles inherit
    /// their conservativeness: a document containing no needle provably
    /// yields an empty relation, while containing one promises nothing.
    pub fn content_needles(&self, max_set: usize) -> Option<Vec<Vec<u8>>> {
        if !self.prefix.is_empty() {
            return Some(vec![self.prefix.clone()]);
        }
        if !self.literal.is_empty() {
            return Some(vec![self.literal.clone()]);
        }
        if let Some(set) = &self.required {
            if set.len() <= max_set {
                return Some(set.iter().map(|b| vec![b]).collect());
            }
        }
        None
    }

    /// Compiles the analysis into a document gate.
    pub fn gate(&self) -> PrefilterGate {
        PrefilterGate {
            min_len: self.min_len,
            prefix: self.prefix.clone(),
            required: self.required.as_ref().map(|set| {
                let set = *set;
                ByteFinder::from_predicate(move |b| set.contains(b))
            }),
            literal: (self.literal.len() >= 2).then(|| {
                let first = self.literal[0];
                (
                    self.literal.clone(),
                    ByteFinder::from_predicate(move |b| b == first),
                )
            }),
        }
    }
}

/// Length of the shortest accepted document: BFS over byte transitions
/// (blocks are free), `usize::MAX` when no accepting configuration is
/// reachable.
fn min_match_len(evsa: &EVsa) -> usize {
    let ns = evsa.num_states();
    if ns == 0 {
        return usize::MAX;
    }
    let mut dist = vec![usize::MAX; ns];
    let mut queue = VecDeque::new();
    dist[evsa.start() as usize] = 0;
    queue.push_back(evsa.start());
    let mut best = usize::MAX;
    while let Some(q) = queue.pop_front() {
        let d = dist[q as usize];
        if d >= best {
            continue;
        }
        if !evsa.final_blocks(q).is_empty() {
            best = best.min(d);
            continue;
        }
        for (_, mask, r) in evsa.transitions_from(q) {
            if !mask.is_empty() && dist[*r as usize] == usize::MAX {
                dist[*r as usize] = d + 1;
                queue.push_back(*r);
            }
        }
    }
    best
}

/// The longest literal (capped at [`MAX_PREFIX`]) every accepted
/// document starts with: follow the frontier from the start state while
/// no frontier state accepts and all outgoing byte sets agree on a
/// single byte.
fn required_prefix(evsa: &EVsa) -> Vec<u8> {
    let mut prefix = Vec::new();
    let mut frontier: Vec<StateId> = vec![evsa.start()];
    while prefix.len() < MAX_PREFIX {
        if frontier.iter().any(|&q| !evsa.final_blocks(q).is_empty()) {
            break; // a document may end here
        }
        let mut union = ByteSet::EMPTY;
        for &q in &frontier {
            for (_, mask, _) in evsa.transitions_from(q) {
                union = union.or(mask);
            }
        }
        if union.len() != 1 {
            break;
        }
        let b = union.first().expect("non-empty union");
        prefix.push(b);
        let mut next: Vec<StateId> = Vec::new();
        for &q in &frontier {
            for (_, mask, r) in evsa.transitions_from(q) {
                if mask.contains(b) && !next.contains(r) {
                    next.push(*r);
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break; // unreachable for a non-empty language, but be safe
        }
    }
    prefix
}

/// Searches the automaton's byte-class partition for a *required* class
/// union: a set of bytes `B` such that the automaton restricted to
/// transitions avoidable without `B` reaches no accepting state — i.e.
/// every accepted (non-empty-checked by the caller) document contains a
/// byte of `B`. Returns the smallest selective class found.
fn required_byteset(evsa: &EVsa) -> Option<ByteSet> {
    let mut builder = ByteClassBuilder::new();
    for m in evsa.byte_masks() {
        builder.add_set(|b| m.contains(b));
    }
    let classes = builder.build();
    let mut best: Option<ByteSet> = None;
    for c in 0..classes.num_classes() {
        let mut bytes = ByteSet::EMPTY;
        for b in classes.bytes_of(c) {
            bytes.insert(b);
        }
        if bytes.len() > MAX_REQUIRED_BYTES {
            continue;
        }
        if let Some(prev) = &best {
            if bytes.len() >= prev.len() {
                continue; // only interested in a more selective class
            }
        }
        if class_is_required(evsa, &bytes) {
            best = Some(bytes);
        }
    }
    best
}

/// Whether every accepted document contains a byte of `bytes`:
/// reachability from the start over transitions whose mask has at least
/// one byte *outside* `bytes`; required iff no reachable state accepts.
fn class_is_required(evsa: &EVsa, bytes: &ByteSet) -> bool {
    let avoid = bytes.complement();
    let ns = evsa.num_states();
    let mut seen = vec![false; ns];
    let mut queue = VecDeque::new();
    seen[evsa.start() as usize] = true;
    queue.push_back(evsa.start());
    while let Some(q) = queue.pop_front() {
        if !evsa.final_blocks(q).is_empty() {
            return false; // an accepting run avoiding `bytes` exists
        }
        for (_, mask, r) in evsa.transitions_from(q) {
            if !mask.and(&avoid).is_empty() && !seen[*r as usize] {
                seen[*r as usize] = true;
                queue.push_back(*r);
            }
        }
    }
    true
}

/// Grows a required singleton byte into the longest *contained* literal
/// (capped at [`MAX_LITERAL`]): greedy extension to the right, then to
/// the left, keeping each candidate word only when the product-emptiness
/// check proves every accepted document contains it. Extension
/// candidates are the bytes of small transition masks — the bytes a
/// keyword-shaped spanner actually forces.
fn required_literal(evsa: &EVsa, seed: u8) -> Vec<u8> {
    let mut candidates: Vec<u8> = Vec::new();
    for m in evsa.byte_masks() {
        if !m.is_empty() && m.len() <= MAX_CANDIDATE_MASK {
            for b in m.iter() {
                if !candidates.contains(&b) {
                    candidates.push(b);
                }
            }
        }
    }
    candidates.sort_unstable();
    let mut w = vec![seed];
    loop {
        if w.len() >= MAX_LITERAL {
            break;
        }
        let grown = candidates.iter().find_map(|&x| {
            let mut t = w.clone();
            t.push(x);
            word_is_required(evsa, &t).then_some(t)
        });
        match grown {
            Some(t) => w = t,
            None => break,
        }
    }
    loop {
        if w.len() >= MAX_LITERAL {
            break;
        }
        let grown = candidates.iter().find_map(|&x| {
            let mut t = Vec::with_capacity(w.len() + 1);
            t.push(x);
            t.extend_from_slice(&w);
            word_is_required(evsa, &t).then_some(t)
        });
        match grown {
            Some(t) => w = t,
            None => break,
        }
    }
    w
}

/// Whether every accepted document contains `w` as a substring: the
/// product of the automaton with the KMP automaton of `w`, restricted
/// to runs that never complete `w`, must reach no accepting state.
/// Exact (like [`class_is_required`]) — the product explores every
/// byte value a transition mask admits.
fn word_is_required(evsa: &EVsa, w: &[u8]) -> bool {
    let m = w.len();
    debug_assert!(m > 0);
    // KMP failure table and dense per-state byte stepper.
    let mut fail = vec![0usize; m];
    for i in 1..m {
        let mut k = fail[i - 1];
        while k > 0 && w[i] != w[k] {
            k = fail[k - 1];
        }
        if w[i] == w[k] {
            k += 1;
        }
        fail[i] = k;
    }
    let step = |k: usize, b: u8| -> usize {
        let mut k = k;
        while k > 0 && b != w[k] {
            k = fail[k - 1];
        }
        if b == w[k] {
            k + 1
        } else {
            0
        }
    };
    let ns = evsa.num_states();
    let mut seen = vec![false; ns * m];
    let mut queue = VecDeque::new();
    let start = evsa.start() as usize * m;
    seen[start] = true;
    queue.push_back((evsa.start(), 0usize));
    while let Some((q, k)) = queue.pop_front() {
        if !evsa.final_blocks(q).is_empty() {
            return false; // an accepting run avoiding `w` exists
        }
        for (_, mask, r) in evsa.transitions_from(q) {
            for b in mask.iter() {
                let k2 = step(k, b);
                if k2 == m {
                    continue; // this byte completes `w` — pruned
                }
                let idx = *r as usize * m + k2;
                if !seen[idx] {
                    seen[idx] = true;
                    queue.push_back((*r, k2));
                }
            }
        }
    }
    true
}

/// The compiled document-rejection test of a [`PrefilterAnalysis`].
#[derive(Debug, Clone)]
pub struct PrefilterGate {
    min_len: usize,
    prefix: Vec<u8>,
    required: Option<ByteFinder>,
    /// A contained literal of length ≥ 2 (one-byte literals are already
    /// covered by `required`), plus a SWAR finder for its first byte.
    literal: Option<(Vec<u8>, ByteFinder)>,
}

impl PrefilterGate {
    /// Whether `doc` provably produces an empty relation — without
    /// touching any automaton. Conservative: `false` means "maybe".
    pub fn rejects(&self, doc: &[u8]) -> bool {
        if doc.len() < self.min_len {
            return true;
        }
        if !self.prefix.is_empty() && !doc.starts_with(&self.prefix) {
            return true;
        }
        if let Some(f) = &self.required {
            if f.find(doc).is_none() {
                return true;
            }
        }
        if let Some((lit, first)) = &self.literal {
            if !contains_literal(doc, lit, first) {
                return true;
            }
        }
        false
    }

    /// Whether the gate can never reject anything (trivial analysis).
    pub fn is_transparent(&self) -> bool {
        self.min_len == 0 && self.prefix.is_empty() && self.required.is_none()
    }
}

/// Substring search driven by a SWAR finder over the literal's first
/// byte — the match-sparse shape the gate cares about (the literal's
/// first byte is itself rare in rejected documents, so the quadratic
/// worst case never materializes there).
fn contains_literal(doc: &[u8], lit: &[u8], first: &ByteFinder) -> bool {
    let mut i = 0;
    while i + lit.len() <= doc.len() {
        match first.find(&doc[i..=doc.len() - lit.len()]) {
            Some(j) => {
                if doc[i + j..].starts_with(lit) {
                    return true;
                }
                i += j + 1;
            }
            None => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{DenseCache, DenseCacheStats, DenseConfig};
    use crate::engine::{Engine, TieredEvsa};
    use crate::eval::eval_evsa;
    use crate::rgx::Rgx;
    use std::sync::Arc;

    fn compile(pattern: &str) -> Arc<EVsa> {
        let vsa = Rgx::parse(pattern).unwrap().to_vsa().unwrap();
        Arc::new(EVsa::from_functional(&vsa.functionalize()))
    }

    /// The `prefilter` engine: the dense tier behind the gate.
    fn engine(e: &Arc<EVsa>, engine: Engine) -> TieredEvsa {
        TieredEvsa::compile(e.clone(), engine, DenseConfig::default(), None)
    }

    fn prefiltered(pattern: &str) -> TieredEvsa {
        engine(&compile(pattern), Engine::Prefilter)
    }

    #[test]
    fn analysis_extracts_min_len_prefix_and_required_class() {
        let a = PrefilterAnalysis::analyze(&compile("ab(x{c+})d.*"));
        assert_eq!(a.min_len, 4);
        // The capture's first byte is forced too: every match reads "abc".
        assert_eq!(a.prefix, b"abc".to_vec());

        // Digits are mandatory for the number extractor even though the
        // contexts accept anything.
        let a = PrefilterAnalysis::analyze(&compile("(.*[^0-9]|)x{[0-9]+}([^0-9].*|)"));
        assert_eq!(a.min_len, 1);
        assert!(a.prefix.is_empty());
        let required = a.required.expect("digits are required");
        assert_eq!(required, ByteSet::range(b'0', b'9'));

        // `.*x{a+}.*`: an 'a' is required.
        let a = PrefilterAnalysis::analyze(&compile(".*x{a+}.*"));
        assert_eq!(a.min_len, 1);
        assert_eq!(a.required, Some(ByteSet::single(b'a')));
    }

    #[test]
    fn literal_grows_from_the_required_byte() {
        // Keyword extractor: every accepted document contains "qab".
        let a = PrefilterAnalysis::analyze(&compile(".*x{qab[0-9]+}.*"));
        assert_eq!(a.literal, b"qab".to_vec());
        assert!(a.prefix.is_empty(), "the .* context forbids a prefix");
        // The literal feeds both the gate and the needle extraction.
        assert_eq!(a.content_needles(16), Some(vec![b"qab".to_vec()]));
        let gate = a.gate();
        assert!(gate.rejects(b"qa ba qb aq but never the word"));
        assert!(!gate.rejects(b"here qab7 lives"));
        // Multi-byte required sets grow no literal.
        let a = PrefilterAnalysis::analyze(&compile("(.*[^0-9]|)x{[0-9]+}([^0-9].*|)"));
        assert!(a.literal.is_empty());
        // Gate + engine equivalence on literal-gated documents.
        let e = compile(".*x{qab[0-9]+}.*");
        let p = engine(&e, Engine::Prefilter);
        for doc in [
            b"qab1 and qab22".as_slice(),
            b"qa b a b q no hit",
            b"qab", // literal present, but no digit: false candidate
            b"",
        ] {
            assert_eq!(p.eval(doc), eval_evsa(&e, doc));
        }
    }

    #[test]
    fn content_needles_prefer_the_prefix_literal() {
        // Forced prefix: the single needle is the literal itself.
        let a = PrefilterAnalysis::analyze(&compile("ab(x{c+})d.*"));
        assert_eq!(a.content_needles(16), Some(vec![b"abc".to_vec()]));
        // Required byte set: one single-byte needle per member.
        let a = PrefilterAnalysis::analyze(&compile("(.*[^0-9]|)x{[0-9]+}([^0-9].*|)"));
        let needles = a.content_needles(16).expect("digits required");
        assert_eq!(needles.len(), 10);
        assert!(needles.contains(&vec![b'0']));
        // ...but not when the set exceeds the cap.
        assert_eq!(a.content_needles(4), None);
        // Trivial analysis: no needles.
        assert_eq!(
            PrefilterAnalysis::analyze(&compile(".*x{}.*")).content_needles(16),
            None
        );
    }

    #[test]
    fn shared_classes_prefilter_matches_own_partition() {
        let e = compile("(.*[^0-9]|)x{[0-9]+}([^0-9].*|)");
        let own = engine(&e, Engine::Prefilter);
        let mut builder = ByteClassBuilder::new();
        for m in e.byte_masks() {
            builder.add_set(|b| m.contains(b));
        }
        builder.add_set(|b: u8| b.is_ascii_lowercase());
        let shared = TieredEvsa::compile(
            e.clone(),
            Engine::Prefilter,
            DenseConfig::default(),
            Some(builder.build()),
        );
        for doc in [b"x 12 y".as_slice(), b"plain", b"", b"7"] {
            assert_eq!(shared.eval(doc), own.eval(doc));
        }
    }

    #[test]
    fn trivial_analyses_fall_back() {
        // Zero-length-match spanner: the empty document is accepted, so
        // neither length nor content can be required.
        let a = PrefilterAnalysis::analyze(&compile(".*x{}.*"));
        assert_eq!(a.min_len, 0);
        assert!(a.is_trivial());
        assert!(a.gate().is_transparent());
        // Universal matcher.
        assert!(PrefilterAnalysis::analyze(&compile("x{.*}")).is_trivial());
    }

    #[test]
    fn empty_language_rejects_everything() {
        // An automaton with no accepting run at all.
        let v = crate::vsa::Vsa::new(crate::vars::VarTable::empty());
        let e = Arc::new(EVsa::from_functional(&v));
        let a = PrefilterAnalysis::analyze(&e);
        assert_eq!(a.min_len, usize::MAX);
        let p = engine(&e, Engine::Prefilter);
        assert!(p.eval(b"anything").is_empty());
    }

    #[test]
    fn gate_rejections_do_not_change_results() {
        for (pat, docs) in [
            (
                "(.*[^0-9]|)x{[0-9]+}([^0-9].*|)",
                vec![
                    b"no digits here at all".to_vec(),
                    b"answer 42 found".to_vec(),
                    b"7".to_vec(),
                    b"".to_vec(),
                ],
            ),
            (
                ".*x{a+}.*",
                vec![b"bbbb".to_vec(), b"bab".to_vec(), b"".to_vec()],
            ),
            (
                "ab(x{c+})d",
                vec![
                    b"abccd".to_vec(),
                    b"xbccd".to_vec(),
                    b"a".to_vec(),
                    b"".to_vec(),
                ],
            ),
            (".*x{}.*", vec![b"ab".to_vec(), b"".to_vec()]),
        ] {
            let e = compile(pat);
            let p = engine(&e, Engine::Prefilter);
            for doc in docs {
                assert_eq!(p.eval(&doc), eval_evsa(&e, &doc), "pattern {pat}");
            }
        }
    }

    #[test]
    fn short_documents_short_circuit_without_touching_the_dfa() {
        let p = prefiltered("ab(x{c+})d");
        assert_eq!(PrefilterAnalysis::analyze(p.evsa()).min_len, 4);
        let mut cache = DenseCache::default();
        let mut stats = PrefilterStats::default();
        assert!(p.eval_with(b"abc", &mut cache, &mut stats).is_empty());
        // Rejected before evaluation: no DFA step ran, the whole
        // document counts as skipped, and it is not a candidate.
        assert_eq!(cache.stats(), DenseCacheStats::default());
        assert_eq!(stats.bytes_skipped, 3);
        assert_eq!(stats.candidates, 0);

        // Zero-length-match corner: min length 0 never rejects; the
        // empty document still produces its tuple.
        let z = prefiltered(".*x{}.*");
        assert_eq!(PrefilterAnalysis::analyze(z.evsa()).min_len, 0);
        assert_eq!(z.eval(b"").len(), 1);
    }

    #[test]
    fn stats_count_candidates_and_false_candidates() {
        // The counters behind `/stats` and perfbench's `prefilter.*`
        // lines, per engine over one fixed document set with per-call
        // scratch: both gated engines count the same candidates and
        // false candidates, the ungated ones count nothing, and every
        // gate-rejected document adds its full length to bytes_skipped.
        let e = compile(".*x{qab[0-9]+}.*");
        let docs: [&[u8]; 5] = [
            b"plain words only", // rejected: no "qab"
            b"qab12",            // candidate with a match
            b"",                 // rejected: too short
            b"qabx",             // literal present, no digit: false candidate
            b"qa b",             // rejected: no "qab"
        ];
        // Candidates are shorter than the skip-loop's streak threshold,
        // so only rejected documents add skipped bytes.
        let rejected_bytes = 16 + 4;
        let count = |kind: Engine| {
            let t = engine(&e, kind);
            let mut stats = PrefilterStats::default();
            for doc in docs {
                let rel = t.eval_with(doc, &mut DenseCache::default(), &mut stats);
                assert_eq!(rel, eval_evsa(&e, doc), "{kind:?}");
            }
            stats
        };
        for ungated in [Engine::Nfa, Engine::Dense] {
            assert_eq!(count(ungated), PrefilterStats::default(), "{ungated:?}");
        }
        let expected = PrefilterStats {
            bytes_skipped: rejected_bytes,
            candidates: 2,
            false_candidates: 1,
        };
        assert_eq!(count(Engine::Prefilter), expected);
        assert_eq!(count(Engine::Aot), expected);
        let merged = expected.merge(expected);
        assert_eq!(merged.candidates, 4);
        assert_eq!(merged.false_candidates, 2);
        assert_eq!(merged.bytes_skipped, 2 * rejected_bytes);
    }

    #[test]
    fn skip_loop_skips_sparse_context_bytes() {
        let p = prefiltered("(.*[^0-9]|)x{[0-9]+}([^0-9].*|)");
        let mut doc = vec![b'a'; 4096];
        doc[2048] = b'7';
        let e = compile("(.*[^0-9]|)x{[0-9]+}([^0-9].*|)");
        let mut cache = DenseCache::default();
        let mut stats = PrefilterStats::default();
        let rel = p.eval_with(&doc, &mut cache, &mut stats);
        assert_eq!(rel, eval_evsa(&e, &doc));
        assert_eq!(rel.len(), 1);
        assert!(
            stats.bytes_skipped > 3000,
            "skip-loop should cross the flat context: {stats:?}"
        );
    }
}

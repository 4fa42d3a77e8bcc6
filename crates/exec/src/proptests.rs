//! Property-based differential tests for the streaming execution layer.
//!
//! The two invariants the streaming subsystem promises:
//!
//! 1. [`StreamingSplitter`] over **arbitrary chunk boundaries**
//!    (including 1-byte chunks and cuts inside multi-byte segments)
//!    yields exactly the segments of the batch splitter, in the same
//!    order;
//! 2. [`CorpusRunner`] equals [`evaluate_many_split`] on the same
//!    corpus, for every engine, worker count (including the normalized
//!    `0`), batch size and queue depth.

use crate::corpus::{CorpusRunner, CorpusRunnerConfig};
use crate::engine::{evaluate_many_split, split_fn_of_splitter, Engine, ExecSpanner, SplitFn};
use crate::stream::StreamingSplitter;
use proptest::prelude::*;
use splitc_spanner::rgx::Rgx;
use splitc_spanner::splitter::{self, Splitter};

/// `sentences` with a before phase that also remembers whether an `a`
/// sat 12 bytes back: the same language (the extra prefix alternative
/// is subsumed by `.*\.`), but phase DFAs past the stream budget.
const OVER_BUDGET_SENTENCES: &str = r"((.*a...........)?.*\.)?x{[^.]+}(\..*)?";

/// Splitters covering the interesting shapes: disjoint delimiters,
/// overlapping windows, nested candidate spans, empty spans (whole-doc
/// only, and everywhere — one before each `a`), a non-universal
/// post-split language (confirmation only at end of stream), and a
/// splitter past the phase-DFA budget (no stream: split whole).
pub(crate) fn splitter_pool() -> Vec<Splitter> {
    vec![
        splitter::sentences(),
        splitter::lines(),
        splitter::paragraphs(),
        splitter::ngrams(2),
        splitter::char_windows(3),
        Splitter::parse("x{abc}|a(x{b})c").unwrap(),
        Splitter::parse("x{ab}b|a(x{bb})").unwrap(), // paper Ex. 5.8
        Splitter::parse("x{aa}|a(x{})a").unwrap(),   // empty spans
        Splitter::parse("x{a*}b*").unwrap(),         // non-universal suffix
        Splitter::parse(".*x{}a.*").unwrap(),        // empty spans everywhere
        Splitter::parse(OVER_BUDGET_SENTENCES).unwrap(),
    ]
}

const PATTERNS: &[&str] = &[".*x{a+}.*", "x{[ab]+}", ".*x{}.*", ".*x{a.a}.*", ".*ab.*"];

/// Documents over an alphabet that exercises every pool splitter:
/// letters, the sentence/line delimiters, spaces (token boundaries).
fn doc_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            Just(b'a'),
            Just(b'b'),
            Just(b'c'),
            Just(b'.'),
            Just(b'\n'),
            Just(b' '),
        ],
        0..48,
    )
}

/// Chunk sizes the stream is cut into (cycled); 1-byte chunks included.
fn chunking_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..6, 1..8)
}

/// Feeds `doc` to a streaming splitter cut at the given chunk sizes.
fn stream_segments(s: &Splitter, doc: &[u8], sizes: &[usize]) -> Vec<(usize, usize, Vec<u8>)> {
    let compiled = s.compile();
    let mut st = StreamingSplitter::new(&compiled);
    let mut out = Vec::new();
    let mut pos = 0;
    let mut i = 0;
    while pos < doc.len() {
        let take = sizes[i % sizes.len()].min(doc.len() - pos);
        i += 1;
        out.extend(st.push(&doc[pos..pos + take]));
        pos += take;
    }
    out.extend(st.finish());
    out.into_iter()
        .map(|seg| (seg.span.start, seg.span.end, seg.bytes.to_vec()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streaming_splitter_matches_batch_over_random_chunks(
        si in 0..splitter_pool().len(),
        doc in doc_strategy(),
        sizes in chunking_strategy(),
    ) {
        let pool = splitter_pool();
        let s = &pool[si];
        let batch: Vec<(usize, usize, Vec<u8>)> = s
            .compile()
            .split(&doc)
            .into_iter()
            .map(|sp| (sp.start, sp.end, sp.slice(&doc).to_vec()))
            .collect();
        let streamed = stream_segments(s, &doc, &sizes);
        prop_assert_eq!(streamed, batch);
    }

    /// At chunk sizes 1, 7 and 4096, every pool splitter's stream hands
    /// out the batch split's segments holding the document's bytes, and
    /// copies exactly the segments that cross a chunk boundary: none
    /// when the document arrives as one chunk, overlapping windows
    /// included.
    #[test]
    fn streamed_segments_copy_only_what_crosses_a_chunk(
        si in 0..splitter_pool().len(),
        doc in doc_strategy(),
    ) {
        let compiled = splitter_pool()[si].compile();
        let batch = compiled.split(&doc);
        for chunk in [1, 7, 4096] {
            let mut st = StreamingSplitter::new(&compiled);
            let mut got = Vec::new();
            for piece in doc.chunks(chunk) {
                got.extend(st.push(piece));
            }
            let (tail, stats) = st.finish_with_stats();
            got.extend(tail);
            let spans: Vec<Span> = got.iter().map(|seg| seg.span).collect();
            prop_assert_eq!(&spans, &batch, "splitter {}, chunk {}", si, chunk);
            for seg in &got {
                prop_assert!(seg.bytes == seg.span.slice(&doc), "{:?}, chunk {}", seg, chunk);
            }
            let crossing: u64 = batch
                .iter()
                .filter(|sp| sp.start < sp.end && sp.start / chunk != (sp.end - 1) / chunk)
                .map(|sp| sp.len() as u64)
                .sum();
            prop_assert_eq!(stats.bytes_stitched, crossing, "splitter {}, chunk {}", si, chunk);
            if doc.len() <= chunk {
                prop_assert_eq!(stats.bytes_stitched, 0);
            }
        }
    }

    #[test]
    fn corpus_runner_matches_evaluate_many_split(
        pi in 0..PATTERNS.len(),
        docs in proptest::collection::vec(doc_strategy(), 0..6),
        workers in 0usize..5,
        batch_bytes in 1usize..32,
        chunk_bytes in 1usize..16,
        engine_pick in 0usize..4,
    ) {
        // All four engines, including Prefilter (gate + skip-loop)
        // and the AOT premultiplied tables, over random chunkings down
        // to 1-byte streaming chunks.
        let engine = pick_engine(engine_pick);
        let vsa = Rgx::parse(PATTERNS[pi]).unwrap().to_vsa().unwrap();
        let spanner = ExecSpanner::compile_with(&vsa, engine);
        let s = splitter::sentences();
        let runner = CorpusRunner::new(
            spanner.clone(),
            s.compile(),
            CorpusRunnerConfig {
                workers,
                batch_bytes,
                queue_depth: 2,
                chunk_bytes,
            },
        );
        let refs: Vec<&[u8]> = docs.iter().map(Vec::as_slice).collect();
        let got = runner.run_slices(&refs);
        let split: SplitFn = split_fn_of_splitter(&s);
        let expected = evaluate_many_split(&spanner, &split, &refs, workers);
        prop_assert_eq!(got.relations, expected);
        prop_assert_eq!(got.stats.docs, refs.len());
    }
}

// ---------------------------------------------------------------------------
// Fused fleet evaluation: differential and metamorphic suites.
//
// The fleet engine promises that fusing N spanners into one pass —
// shared splitter, shared byte partition, shared multi-needle scan —
// is *invisible* in the results:
//
// 3. **Differential**: [`FleetRunner`] equals one [`CorpusRunner`] per
//    member, for every engine, down to 1-byte streaming chunks and
//    starved lazy-DFA caches (fallback scans);
// 4. **Metamorphic**: a member's relation depends only on its own
//    automaton — permuting, duplicating, or partitioning the fleet
//    never changes any member's output.

use crate::fleet::{Fleet, FleetRunner};
use crate::options::CompileOptions;
use splitc_spanner::vsa::Vsa;
use splitc_textgen::spangen::{rand_fleet, Mix};
use std::sync::Arc;

fn pick_engine(pick: usize) -> Engine {
    match pick % 4 {
        0 => Engine::Nfa,
        1 => Engine::Dense,
        2 => Engine::Prefilter,
        _ => Engine::Aot,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Differential: the fused runner is byte-identical to one corpus
    /// runner per member — each independently compiled (own byte
    /// partition, default cache bound), so the shared partition, shared
    /// scan, and starved-cache fallback paths are all cross-checked
    /// against an unfused oracle.
    #[test]
    fn fleet_runner_matches_per_member_corpus_runners(
        seed in 0u64..u64::MAX,
        n in 1usize..33,
        docs in proptest::collection::vec(doc_strategy(), 0..5),
        engine_pick in 0usize..4,
        chunk_bytes in 1usize..16,
        workers in 0usize..4,
        starve_pick in 0usize..2,
    ) {
        let starve = starve_pick == 1;
        let engine = pick_engine(engine_pick);
        let vsas = rand_fleet(seed, n);
        let config = CorpusRunnerConfig {
            workers,
            batch_bytes: 16,
            queue_depth: 2,
            chunk_bytes,
        };
        // A 2-state cache bound starves the lazy DFA into its exact
        // NFA-fallback path mid-corpus; results must not move.
        let opts = CompileOptions::new()
            .engine(engine)
            .max_cache_states(if starve { 2 } else { 8192 });
        let fleet = Arc::new(opts.compile_fleet(&vsas));
        let runner = FleetRunner::new(fleet, splitter::sentences().compile(), config);
        let refs: Vec<&[u8]> = docs.iter().map(Vec::as_slice).collect();
        let got = runner.run_slices(&refs);
        prop_assert_eq!(got.stats.docs, refs.len());
        for (mi, vsa) in vsas.iter().enumerate() {
            let seq = CorpusRunner::new(
                ExecSpanner::compile_with(vsa, engine),
                splitter::sentences().compile(),
                config,
            );
            let expected = seq.run_slices(&refs);
            // Same splitter, same batching: the producer side of both
            // runs is one pipeline and must agree exactly.
            let (f, c) = (&got.stats, &expected.stats);
            prop_assert_eq!(
                (f.docs, f.segments, f.segment_bytes, f.batches, f.peak_buffered_bytes),
                (c.docs, c.segments, c.segment_bytes, c.batches, c.peak_buffered_bytes),
                "producer-side stats, member {}", mi
            );
            for (di, rel) in expected.relations.iter().enumerate() {
                prop_assert_eq!(
                    &got.relations[di][mi],
                    rel,
                    "doc {} member {} under {:?} (starved: {})",
                    di, mi, engine, starve
                );
            }
        }
    }

    /// Metamorphic: permuting the fleet permutes the relations and
    /// nothing else.
    #[test]
    fn fleet_is_permutation_invariant(
        seed in 0u64..u64::MAX,
        n in 1usize..12,
        docs in proptest::collection::vec(doc_strategy(), 1..4),
        engine_pick in 0usize..4,
        perm_seed in 0u64..u64::MAX,
    ) {
        let engine = pick_engine(engine_pick);
        let vsas = rand_fleet(seed, n);
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = Mix(perm_seed);
        for i in (1..n).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let permuted: Vec<Vsa> = order.iter().map(|&i| vsas[i].clone()).collect();
        let fleet = Fleet::compile(&vsas, engine);
        let pfleet = Fleet::compile(&permuted, engine);
        for doc in &docs {
            let base = fleet.eval(doc);
            let perm = pfleet.eval(doc);
            for (j, &i) in order.iter().enumerate() {
                prop_assert_eq!(&perm[j], &base[i], "slot {} came from member {}", j, i);
            }
        }
    }

    /// Metamorphic: duplicating a member changes neither the original's
    /// relation nor the copy's (identical automata, identical outputs —
    /// and the duplicate's needles double-enroll in the shared scanner
    /// without perturbing anyone).
    #[test]
    fn fleet_is_duplication_invariant(
        seed in 0u64..u64::MAX,
        n in 1usize..12,
        k_pick in 0u64..u64::MAX,
        docs in proptest::collection::vec(doc_strategy(), 1..4),
        engine_pick in 0usize..4,
    ) {
        let engine = pick_engine(engine_pick);
        let vsas = rand_fleet(seed, n);
        let k = (k_pick % n as u64) as usize;
        let mut dup = vsas.clone();
        dup.push(vsas[k].clone());
        let fleet = Fleet::compile(&vsas, engine);
        let dfleet = Fleet::compile(&dup, engine);
        for doc in &docs {
            let base = fleet.eval(doc);
            let with_dup = dfleet.eval(doc);
            for i in 0..n {
                prop_assert_eq!(&with_dup[i], &base[i], "member {} perturbed by a duplicate", i);
            }
            prop_assert_eq!(&with_dup[n], &base[k], "the copy must equal its original");
        }
    }

    /// Metamorphic: partitioning the fleet into two sub-fleets and
    /// concatenating their results equals the full fused pass — fusion
    /// granularity is unobservable.
    #[test]
    fn fleet_is_partition_invariant(
        seed in 0u64..u64::MAX,
        n in 2usize..12,
        cut_pick in 0u64..u64::MAX,
        docs in proptest::collection::vec(doc_strategy(), 1..4),
        engine_pick in 0usize..4,
    ) {
        let engine = pick_engine(engine_pick);
        let vsas = rand_fleet(seed, n);
        let cut = 1 + (cut_pick % (n as u64 - 1)) as usize;
        let fleet = Fleet::compile(&vsas, engine);
        let left = Fleet::compile(&vsas[..cut], engine);
        let right = Fleet::compile(&vsas[cut..], engine);
        for doc in &docs {
            let full = fleet.eval(doc);
            let mut parts = left.eval(doc);
            parts.extend(right.eval(doc));
            prop_assert_eq!(&parts, &full);
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental maintenance: random edit scripts.
//
// The maintained-corpus subsystem promises:
//
// 5. **Differential**: a [`CorpusHandle`] driven by an arbitrary edit
//    script — point edits, appends, shard replacements, in any order —
//    holds exactly the segmentation a from-scratch split of the edited
//    bytes would produce, and extraction through a *bounded* shared
//    [`SegmentCache`] (capacity 2 here, so eviction churns on every
//    step) equals full re-extraction from scratch, for every engine
//    and both runners, down to 1-byte streaming chunks.

use crate::handle::CorpusHandle;
use crate::segcache::SegmentCache;
use splitc_spanner::span::Span;

/// One step of a random edit script. Picks are raw `u64`s reduced
/// modulo the current corpus shape at application time, so scripts
/// stay valid regardless of how earlier steps resized the shards.
#[derive(Debug, Clone)]
enum EditOp {
    /// Replace `start..end` of a shard with `text`.
    Point {
        shard_pick: u64,
        start_pick: u64,
        len_pick: u64,
        text: Vec<u8>,
    },
    /// Extend a shard at its end.
    Append { shard_pick: u64, text: Vec<u8> },
    /// Swap a shard's bytes wholesale.
    Replace { shard_pick: u64, text: Vec<u8> },
}

fn edit_op_strategy() -> impl Strategy<Value = EditOp> {
    prop_oneof![
        (
            0u64..u64::MAX,
            0u64..u64::MAX,
            0u64..u64::MAX,
            doc_strategy()
        )
            .prop_map(|(shard_pick, start_pick, len_pick, text)| EditOp::Point {
                shard_pick,
                start_pick,
                len_pick,
                text,
            }),
        (0u64..u64::MAX, doc_strategy())
            .prop_map(|(shard_pick, text)| EditOp::Append { shard_pick, text }),
        (0u64..u64::MAX, doc_strategy())
            .prop_map(|(shard_pick, text)| EditOp::Replace { shard_pick, text }),
    ]
}

/// Applies one step to the handle and to the plain-bytes shadow state
/// the differential oracle re-splits from scratch.
fn apply_edit(op: &EditOp, handle: &mut CorpusHandle, shadow: &mut [Vec<u8>]) {
    let n = shadow.len() as u64;
    match op {
        EditOp::Point {
            shard_pick,
            start_pick,
            len_pick,
            text,
        } => {
            let sh = (*shard_pick % n) as usize;
            let len = shadow[sh].len() as u64;
            let start = (*start_pick % (len + 1)) as usize;
            let end = start + (*len_pick % (len + 1 - start as u64)) as usize;
            handle.edit(sh, start..end, text);
            shadow[sh].splice(start..end, text.iter().copied());
        }
        EditOp::Append { shard_pick, text } => {
            let sh = (*shard_pick % n) as usize;
            handle.append(sh, text);
            shadow[sh].extend_from_slice(text);
        }
        EditOp::Replace { shard_pick, text } => {
            let sh = (*shard_pick % n) as usize;
            handle.replace_shard(sh, text.clone());
            shadow[sh] = text.clone();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Edit scripts under every pool splitter and every engine: the
    /// maintained segmentation equals a from-scratch split after every
    /// step, and cached extraction (capacity-2 cache) equals a fresh
    /// uncached run.
    #[test]
    fn corpus_handle_edit_scripts_match_full_reextraction(
        si in 0..splitter_pool().len(),
        pi in 0..PATTERNS.len(),
        engine_pick in 0usize..4,
        chunk_bytes in 1usize..8,
        shards in proptest::collection::vec(doc_strategy(), 1..4),
        script in proptest::collection::vec(edit_op_strategy(), 1..6),
    ) {
        let pool = splitter_pool();
        let compiled = pool[si].compile();
        let engine = pick_engine(engine_pick);
        let vsa = Rgx::parse(PATTERNS[pi]).unwrap().to_vsa().unwrap();
        let spanner = ExecSpanner::compile_with(&vsa, engine);
        let config = CorpusRunnerConfig {
            workers: 2,
            batch_bytes: 16,
            queue_depth: 2,
            chunk_bytes,
        };
        // Capacity 2: far below the working set, so the FIFO evicts on
        // nearly every insertion — results must not move.
        let cache = Arc::new(SegmentCache::new(2));
        let runner = CorpusRunner::new(spanner.clone(), compiled.clone(), config)
            .with_segment_cache(cache);
        let mut handle = CorpusHandle::from_shards(compiled.clone(), shards.clone());
        let mut shadow = shards.clone();
        for (step, op) in script.iter().enumerate() {
            apply_edit(op, &mut handle, &mut shadow);
            for (i, bytes) in shadow.iter().enumerate() {
                let full: Vec<Span> = compiled.split(bytes);
                prop_assert_eq!(
                    handle.segments(i),
                    &full[..],
                    "step {} ({:?}): shard {} segmentation diverged",
                    step, op, i
                );
            }
            let incremental = handle.extract(&runner);
            let refs: Vec<&[u8]> = shadow.iter().map(Vec::as_slice).collect();
            let fresh = CorpusRunner::new(spanner.clone(), compiled.clone(), config);
            let expected = fresh.run_slices(&refs);
            prop_assert_eq!(
                incremental.relations,
                expected.relations,
                "step {} ({:?}): cached incremental extraction diverged",
                step, op
            );
        }
    }

    /// The same contract through the fused fleet runner: an edited,
    /// cache-backed corpus equals a fresh full fleet re-extraction.
    #[test]
    fn corpus_handle_edit_scripts_match_fleet_reextraction(
        seed in 0u64..u64::MAX,
        n in 1usize..6,
        engine_pick in 0usize..4,
        chunk_bytes in 1usize..8,
        shards in proptest::collection::vec(doc_strategy(), 1..3),
        script in proptest::collection::vec(edit_op_strategy(), 1..5),
    ) {
        let compiled = splitter::sentences().compile();
        let engine = pick_engine(engine_pick);
        let vsas = rand_fleet(seed, n);
        let fleet = Arc::new(Fleet::compile(&vsas, engine));
        let config = CorpusRunnerConfig {
            workers: 2,
            batch_bytes: 16,
            queue_depth: 2,
            chunk_bytes,
        };
        let cache = Arc::new(SegmentCache::new(2));
        let runner = FleetRunner::new(fleet.clone(), compiled.clone(), config)
            .with_segment_cache(cache);
        let mut handle = CorpusHandle::from_shards(compiled.clone(), shards.clone());
        let mut shadow = shards.clone();
        for op in &script {
            apply_edit(op, &mut handle, &mut shadow);
            let incremental = handle.extract_fleet(&runner);
            let refs: Vec<&[u8]> = shadow.iter().map(Vec::as_slice).collect();
            let fresh = FleetRunner::new(fleet.clone(), compiled.clone(), config);
            let expected = fresh.run_slices(&refs);
            prop_assert_eq!(
                incremental.relations,
                expected.relations,
                "after {:?}: fleet incremental extraction diverged",
                op
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Over-budget splitters: no stream, documents split whole.

use splitc_textgen::corpus::{wiki_corpus, CorpusConfig};

fn wiki(bytes: usize, seed: u64) -> Vec<u8> {
    wiki_corpus(&CorpusConfig {
        target_bytes: bytes,
        seed,
        ..Default::default()
    })
}

/// The over-budget splitter has no stream, so each document is buffered
/// whole and batch-split. It splits exactly like builtin `sentences` on
/// every runtime path: the streaming splitter (with follow-mode peeks),
/// the corpus runner and a maintained corpus under point edits and
/// appends.
#[test]
fn over_budget_splitter_matches_sentences_on_every_path() {
    let over = Splitter::parse(OVER_BUDGET_SENTENCES).unwrap().compile();
    let ten_dots = OVER_BUDGET_SENTENCES.replacen("...........", "..........", 1);
    let fits = Splitter::parse(&ten_dots).unwrap().compile();
    assert!(over.stream().is_none(), "11 dots exceed the budget");
    assert!(fits.stream().is_some(), "10 dots fit");
    let sentences = splitter::sentences().compile();
    let spans_of =
        |segs: &[crate::stream::Segment]| segs.iter().map(|s| s.span).collect::<Vec<_>>();

    let doc = wiki(16 << 10, 23);
    for chunk in [1, 7, 4096, doc.len()] {
        let mut st = StreamingSplitter::new(&over);
        for (k, piece) in doc.chunks(chunk).enumerate() {
            assert!(
                st.push(piece).is_empty(),
                "nothing is emitted before finish"
            );
            if k % 251 == 0 {
                let fed = st.pos();
                let peek = st.peek_finish();
                assert_eq!(
                    spans_of(&peek),
                    sentences.split(&doc[..fed]),
                    "peek at {fed}"
                );
                assert!(peek.iter().all(|s| s.bytes == s.span.slice(&doc)));
            }
        }
        assert_eq!(st.last_quiescent(), 0);
        assert!(!st.is_quiescent(), "only position 0 is quiescent");
        assert_eq!(st.stats().bytes_skipped, 0);
        assert_eq!(st.stats().peak_buffered_bytes, doc.len(), "one copy, whole");
        let got = st.finish();
        assert_eq!(spans_of(&got), sentences.split(&doc), "chunk {chunk}");
        assert!(got.iter().all(|s| s.bytes == s.span.slice(&doc)));
    }

    let spanner = ExecSpanner::compile(&Rgx::parse(".*x{a+}.*").unwrap().to_vsa().unwrap());
    let config = CorpusRunnerConfig {
        workers: 2,
        batch_bytes: 512,
        queue_depth: 2,
        chunk_bytes: 1000,
    };
    let docs: Vec<Vec<u8>> = (0..3).map(|i| wiki(1000, 40 + i)).collect();
    let refs: Vec<&[u8]> = docs.iter().map(Vec::as_slice).collect();
    let over_runner = CorpusRunner::new(spanner.clone(), over.clone(), config);
    let reference = CorpusRunner::new(spanner, sentences.clone(), config);
    assert_eq!(
        over_runner.run_slices(&refs).relations,
        reference.run_slices(&refs).relations
    );

    let mut handle = CorpusHandle::from_shards(over.clone(), docs.clone());
    let mut shadow = docs.clone();
    let edits = [
        EditOp::Point {
            shard_pick: 0,
            start_pick: 500,
            len_pick: 5,
            text: b"a. aaaa b.".to_vec(),
        },
        EditOp::Append {
            shard_pick: 1,
            text: b" tail aaaa. more".to_vec(),
        },
        EditOp::Point {
            shard_pick: 2,
            start_pick: 0,
            len_pick: 0,
            text: b"aaaaaaaaaaaaaa.".to_vec(),
        },
        EditOp::Append {
            shard_pick: 0,
            text: Vec::new(),
        },
    ];
    for op in &edits {
        apply_edit(op, &mut handle, &mut shadow);
        for (i, bytes) in shadow.iter().enumerate() {
            assert_eq!(handle.segments(i), &sentences.split(bytes)[..], "{op:?}");
        }
        let refs: Vec<&[u8]> = shadow.iter().map(Vec::as_slice).collect();
        assert_eq!(
            handle.extract(&over_runner).relations,
            reference.run_slices(&refs).relations,
            "{op:?}"
        );
    }
}

//! Smoke tests exercising the main path of each program under
//! `examples/`, so the documented workflows cannot silently rot. Each
//! test is a compact replica of the corresponding example (smaller
//! corpora, assertions instead of prints); the examples themselves are
//! additionally compile-checked by `cargo test` / `cargo build
//! --examples`.

use split_correctness::core::blackbox::{
    infer_join_splittable, Signature, SpannerSymbol, SplitConstraint,
};
use split_correctness::core::filters::{
    lp_language, self_splittable_with_filter, FilterVerdict, FilteredSplitter,
};
use split_correctness::core::reasoning::{commute, subsumes};
use split_correctness::prelude::*;
use split_correctness::textgen::{self, CorpusConfig};
use splitc_spanner::eval::eval;
use splitc_textgen::spanners;
use std::sync::Arc;

/// `examples/quickstart.rs`: certify self-splittability, reject a
/// sentence-crossing extractor, then evaluate split + parallel.
#[test]
fn quickstart_main_path() {
    let p = Rgx::parse(".*x{a+}.*").unwrap().to_vsa().unwrap();
    let s = splitters::sentences();
    assert!(s.is_disjoint());
    assert!(self_splittable(&p, &s).unwrap().holds());

    let crossing = Rgx::parse(".*x{a\\.a}.*").unwrap().to_vsa().unwrap();
    match self_splittable(&crossing, &s).unwrap() {
        Verdict::Fails(cex) => assert!(cex.doc.contains(&b'.'), "witness crosses a sentence"),
        Verdict::Holds => panic!("crossing extractor must be rejected"),
    }

    let spanner = ExecSpanner::compile(&p);
    let split: SplitFn = Arc::new(native_splitters::sentences);
    let doc = b"aa bbb aaa. baab. ab aaaa b".repeat(50);
    let sequential = evaluate_sequential(&spanner, &doc);
    let parallel = evaluate_split(&spanner, &split, &doc, 5);
    assert_eq!(sequential, parallel, "certified: identical semantics");
    assert!(!sequential.is_empty());
}

/// `examples/ngram_pipeline.rs`: N-gram certification, the §3.1
/// adjacent-pair fact, and the measured pipeline.
#[test]
fn ngram_pipeline_main_path() {
    let bigrams = spanners::ngram_extractor(2);
    let sentences = splitters::sentences();
    assert!(self_splittable(&bigrams, &sentences).unwrap().holds());

    let pair = Rgx::parse("(.*[^A-Za-z0-9]|)e{[ab]+} p{[ab]+}([^A-Za-z0-9].*|)")
        .unwrap()
        .to_vsa()
        .unwrap();
    assert!(self_splittable(&pair, &splitters::ngrams(2))
        .unwrap()
        .holds());
    assert!(!self_splittable(&pair, &splitters::ngrams(1))
        .unwrap()
        .holds());

    let cfg = CorpusConfig {
        target_bytes: 16 << 10,
        ..Default::default()
    };
    let doc = textgen::wiki_corpus(&cfg);
    let spanner = ExecSpanner::compile(&bigrams);
    let split: SplitFn = Arc::new(native_splitters::sentences);
    let seq = evaluate_sequential(&spanner, &doc);
    for workers in [1, 2, 5] {
        assert_eq!(
            seq,
            evaluate_split(&spanner, &split, &doc, workers),
            "semantics preserved at {workers} workers"
        );
    }
    assert!(!seq.is_empty());
}

/// `examples/incremental_wiki.rs`: certified incremental maintenance —
/// an in-sentence edit recomputes at most the touched segments.
#[test]
fn incremental_wiki_main_path() {
    let p = spanners::entity_extractor();
    let s = splitters::sentences();
    assert!(self_splittable(&p, &s).unwrap().holds());

    let cfg = CorpusConfig {
        target_bytes: 32 << 10,
        ..Default::default()
    };
    let doc = textgen::wiki_corpus(&cfg);
    let cache = Arc::new(SegmentCache::new(1 << 16));
    let runner = RunnerOptions::new()
        .workers(1)
        .segment_cache(cache.clone())
        .corpus_runner(ExecSpanner::compile(&p), s.compile());
    let mut handle = CorpusHandle::from_shards(s.compile(), [doc.clone()]);

    handle.extract(&runner);
    let s0 = cache.stats();
    assert!(s0.misses > 0, "cold run evaluates segments");

    let mid = doc.len() / 2;
    handle.edit(0, mid..mid + 7, b"Newname");
    let after = handle.extract(&runner);
    let s1 = cache.stats();
    assert!(
        s1.misses - s0.misses <= 2,
        "an in-sentence edit touches at most the edited segment(s)"
    );
    assert!(s1.hits > 0, "untouched segments come from cache");

    let direct = evaluate_sequential(&ExecSpanner::compile(&p), handle.shard_bytes(0));
    assert_eq!(
        after.relations,
        vec![direct],
        "incremental equals from-scratch"
    );
}

/// `examples/http_log_debugging.rs`: the buggy host/date extractor is
/// rejected, the fixed one certified, and request lines parallelize.
#[test]
fn http_log_debugging_main_path() {
    let messages = splitters::http_messages();

    match self_splittable(&spanners::host_date_buggy(), &messages).unwrap() {
        Verdict::Fails(_) => {}
        Verdict::Holds => panic!("buggy extractor must not be splittable by messages"),
    }
    assert!(self_splittable(&spanners::host_date_fixed(), &messages)
        .unwrap()
        .holds());

    let request_lines = spanners::request_line_extractor();
    assert!(self_splittable(&request_lines, &messages).unwrap().holds());
    let log = textgen::http_log(200, 17);
    let spanner = ExecSpanner::compile(&request_lines);
    let split: SplitFn = Arc::new(native_splitters::paragraphs);
    let seq = evaluate_sequential(&spanner, &log);
    assert_eq!(seq, evaluate_split(&spanner, &split, &log, 5));
    assert_eq!(seq.len(), 200, "one request line per message");
}

/// `examples/corpus_stream.rs`: certified streaming corpus execution —
/// the streamed relations equal batch evaluation, and the streaming
/// buffer stays at segment + chunk scale.
#[test]
fn corpus_stream_main_path() {
    let p = Rgx::parse("(.*[^A-Za-z0-9]|)x{[A-Za-z0-9]+}([^A-Za-z0-9].*|)")
        .unwrap()
        .to_vsa()
        .unwrap();
    let s = splitters::sentences();
    assert!(self_splittable(&p, &s).unwrap().holds());

    let cfg = CorpusConfig {
        target_bytes: 8 << 10,
        ..Default::default()
    };
    let shards = 4;
    let runner = CorpusRunner::new(
        ExecSpanner::compile(&p),
        s.compile(),
        CorpusRunnerConfig {
            workers: 4,
            ..Default::default()
        },
    );
    let result = runner.run_streams(textgen::wiki_corpus_shards(shards, &cfg));
    assert_eq!(result.stats.docs, shards);
    assert!(result.stats.segments > 0);
    assert!(result.stats.cache.hit_rate() > 0.5, "lazy DFA amortized");
    assert!(
        result.stats.peak_buffered_bytes < 4 << 10,
        "buffer bounded by segment + chunk, got {}",
        result.stats.peak_buffered_bytes
    );

    let owned: Vec<Vec<u8>> = textgen::wiki_corpus_shards(shards, &cfg)
        .into_iter()
        .map(|sh| sh.flatten().collect())
        .collect();
    let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
    let spanner = ExecSpanner::compile(&p);
    let split: SplitFn = Arc::new(native_splitters::sentences);
    assert_eq!(
        result.relations,
        evaluate_many_split(&spanner, &split, &refs, 4),
        "streaming equals batch semantics"
    );
}

/// `examples/fleet_certification.rs`: batch certification of an
/// extractor fleet sharing one splitter, then a corpus run with a
/// certified survivor.
#[test]
fn fleet_certification_main_path() {
    let patterns = [
        ".*x{a+}.*",
        "(.*[^A-Za-z0-9]|)x{[A-Za-z0-9]+}([^A-Za-z0-9].*|)",
        ".*x{a\\.a}.*",
        ".*\\. x{[a-z]+}.*",
    ];
    let fleet: Vec<Vsa> = patterns
        .iter()
        .map(|p| Rgx::parse(p).unwrap().to_vsa().unwrap())
        .collect();
    let s = splitters::sentences();
    let pairs: Vec<(usize, usize)> = (0..fleet.len()).map(|i| (i, i)).collect();
    let result = certify_many(&fleet, &s, &pairs, &CertifyConfig::default());
    assert_eq!(result.stats.pairs, pairs.len());
    assert!(result.outcomes[0].holds(), "a-runs are sentence-local");
    assert!(result.outcomes[1].holds(), "tokens are sentence-local");
    assert!(!result.outcomes[2].holds(), "crossing window must fail");
    assert!(!result.outcomes[3].holds(), "context extractor must fail");
    // Every verdict matches the single-pair procedure.
    for (outcome, &(pi, si)) in result.outcomes.iter().zip(&pairs) {
        let single = split_correct(&fleet[pi], &fleet[si], &s).unwrap();
        assert_eq!(outcome.verdict.as_ref().unwrap().holds(), single.holds());
    }
    // The certified survivor distributes over a streamed corpus.
    let runner = CorpusRunner::new(
        ExecSpanner::compile(&fleet[0]),
        s.compile(),
        CorpusRunnerConfig::default(),
    );
    let cfg = CorpusConfig {
        target_bytes: 8 << 10,
        ..Default::default()
    };
    let out = runner.run_streams(textgen::wiki_corpus_shards(2, &cfg));
    assert_eq!(out.stats.docs, 2);
}

/// `examples/sparse_scan.rs`: the prefiltered engine agrees with dense
/// on a sparse corpus, the analysis finds the required digits, and the
/// gate statistics show most segments never touched a DFA.
#[test]
fn sparse_scan_main_path() {
    use split_correctness::spanner::dense::DenseConfig;
    use split_correctness::spanner::evsa::EVsa;

    let p = Rgx::parse("(.*[^0-9]|)x{[0-9]+}([^0-9].*|)")
        .unwrap()
        .to_vsa()
        .unwrap();
    let compiled =
        EVsa::from_functional(&p.functionalize()).compile_prefilter(DenseConfig::default());
    let analysis = compiled.analysis();
    assert_eq!(analysis.min_len, 1);
    assert!(analysis.required.is_some(), "digits must be required");
    assert!(!analysis.is_trivial());

    let s = splitters::sentences();
    assert!(self_splittable(&p, &s).unwrap().holds());

    let cfg = CorpusConfig {
        target_bytes: 16 << 10,
        seed: 0x5CA7,
        ..Default::default()
    };
    let docs = textgen::sparse_number_shards(2, &cfg, 64);
    let refs: Vec<&[u8]> = docs.iter().map(Vec::as_slice).collect();
    let mut results = Vec::new();
    let mut prefilter_stats = PrefilterStats::default();
    for engine in [Engine::Dense, Engine::Prefilter] {
        let runner = CorpusRunner::new(
            ExecSpanner::compile_with(&p, engine),
            s.compile(),
            CorpusRunnerConfig::default(),
        );
        let out = runner.run_slices(&refs);
        if engine == Engine::Prefilter {
            prefilter_stats = out.stats.prefilter;
        }
        results.push(out.relations);
    }
    assert_eq!(results[0], results[1], "engines agree tuple for tuple");
    assert!(
        prefilter_stats.bytes_skipped > 10_000,
        "most of the corpus is answered without a DFA: {prefilter_stats:?}"
    );
    assert!(prefilter_stats.candidates >= 1);
}

/// `examples/query_planning.rs`: §6 reasoning and §7.1 black-box
/// inference.
#[test]
fn query_planning_main_path() {
    let sentences = splitters::sentences();
    let lines = splitters::lines();
    let paragraphs = splitters::paragraphs();

    assert!(commute(&sentences, &lines, None).unwrap().holds());
    // Sentences may cross paragraph boundaries (a blank line is
    // period-free), so paragraph-first splitting changes the chunks.
    assert!(!subsumes(&sentences, &paragraphs, None).unwrap().holds());
    let whole = splitters::whole_document();
    assert!(subsumes(&whole, &whole, None).unwrap().holds());

    let alpha = Rgx::parse(".*q(x{[ab]+})q.*").unwrap().to_vsa().unwrap();
    let signature = Signature::new(vec![SpannerSymbol {
        name: "coref".into(),
        vars: VarTable::new(["x", "y"]).unwrap(),
    }])
    .unwrap();
    let constraints = vec![SplitConstraint {
        symbol: "coref".into(),
        splitter: sentences.clone(),
    }];
    assert!(
        infer_join_splittable(&alpha, &signature, &constraints, &sentences)
            .unwrap()
            .inferred()
    );

    let windows = splitters::ngrams(2);
    let constraints2 = vec![SplitConstraint {
        symbol: "coref".into(),
        splitter: windows.clone(),
    }];
    assert!(
        !infer_join_splittable(&alpha, &signature, &constraints2, &windows)
            .unwrap()
            .inferred(),
        "non-disjoint splitter must refuse the inference"
    );
}

/// `examples/regular_preconditions.rs`: §7.2 regular filters restore
/// split-correctness; the filtered splitter materializes.
#[test]
fn regular_preconditions_main_path() {
    let p = Rgx::parse("x{[a-z]+}").unwrap().to_vsa().unwrap();
    let s = splitters::sentences();

    assert!(
        matches!(self_splittable(&p, &s).unwrap(), Verdict::Fails(_)),
        "plain self-splittability must fail"
    );

    match self_splittable_with_filter(&p, &s).unwrap() {
        FilterVerdict::HoldsWith { filter } => {
            assert!(!eval(&filter, b"abc").is_empty(), "abc ∈ L_P");
            assert!(eval(&filter, b"ab.cd").is_empty(), "ab.cd ∉ L_P");
            assert!(eval(&filter, b"ab cd").is_empty(), "ab cd ∉ L_P");
        }
        FilterVerdict::Fails(cex) => panic!("filter must exist, got counterexample {cex}"),
    }

    let filtered = FilteredSplitter::new(s, lp_language(&p)).unwrap();
    let mat = filtered.to_splitter();
    assert_eq!(mat.split(b"abc").len(), 1, "single-token doc splits whole");
    assert!(mat.split(b"ab.cd").is_empty(), "filtered out");
}

/// `examples/fleet_extraction.rs`: the fused fleet agrees member for
/// member with sequential per-member corpus runs, the catalog's
/// keywords all enroll in the shared scanner, and the dispatch stats
/// show most (segment, member) pairs never touched an engine.
#[test]
fn fleet_extraction_main_path() {
    let n = 8;
    let catalog = spanners::keyword_fleet(n);
    let s = splitters::sentences();
    assert!(self_splittable(&catalog[0], &s).unwrap().holds());

    let fleet = Arc::new(Fleet::compile(&catalog, Engine::Prefilter));
    assert_eq!(fleet.num_members(), n);
    assert!(
        fleet.num_needles() >= n,
        "every keyword is a required literal and must enroll"
    );

    let cfg = CorpusConfig {
        target_bytes: 16 << 10,
        seed: 0xF1EE7,
        ..Default::default()
    };
    let docs = textgen::keyword_corpus_shards(2, &cfg, n, 8);
    let refs: Vec<&[u8]> = docs.iter().map(Vec::as_slice).collect();
    let runner = FleetRunner::new(fleet, s.compile(), CorpusRunnerConfig::default());
    let fused = runner.run_slices(&refs);

    let mut tuples = 0;
    for (mi, member) in catalog.iter().enumerate() {
        let seq = CorpusRunner::new(
            ExecSpanner::compile_with(member, Engine::Prefilter),
            s.compile(),
            CorpusRunnerConfig::default(),
        )
        .run_slices(&refs);
        for (di, rel) in seq.relations.iter().enumerate() {
            assert_eq!(&fused.relations[di][mi], rel, "doc {di} member {mi}");
            tuples += rel.len();
        }
    }
    assert!(tuples > 0, "the corpus mentions catalog keywords");

    let st = &fused.stats;
    let pairs = (st.segments * n) as u64;
    assert_eq!(st.dispatches + st.gate_rejected + st.scan_rejected, pairs);
    assert!(
        st.dispatches * 4 < pairs,
        "most pairs are pruned without an engine dispatch: {st:?}"
    );
    assert!(st.fan_out() < n as f64 / 4.0);
}

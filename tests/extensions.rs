//! Integration coverage for the §7 extensions working together through
//! the public facade: filters + splittability, black-box inference over
//! realistic workloads, annotated plans end to end.

use split_correctness::core::annotated::{
    annotated_split_correct, annotated_splittable, AnnotatedSplitter, KeySpannerMapping,
};
use split_correctness::core::blackbox::{
    infer_join_splittable, Instance, Signature, SpannerSymbol, SplitConstraint,
};
use split_correctness::core::filters::{
    lp_language, self_splittable_with_filter, FilterVerdict, FilteredSplitter,
};
use split_correctness::prelude::*;
use split_correctness::textgen;
use splitc_spanner::eval::eval;

fn vsa(p: &str) -> Vsa {
    Rgx::parse(p).unwrap().to_vsa().unwrap()
}

/// A format-checking extractor over HTTP logs: only extracts from logs
/// whose first message is a GET. Not self-splittable by messages, but
/// self-splittable with the L_P filter... only if the filter can carry
/// the context — here it cannot (later chunks lose the first-message
/// context), so the verdict is negative and the witness explains why.
#[test]
fn filtered_http_extractor() {
    let p = vsa("get [a-z]+\\n(.*\\n|)host h{[a-z]+}(\\n.*|)");
    let s = splitters::http_messages();
    assert!(!self_splittable(&p, &s).unwrap().holds());
    match self_splittable_with_filter(&p, &s).unwrap() {
        FilterVerdict::Fails(cex) => {
            // The witness is a document in L_P where per-chunk evaluation
            // differs.
            let lp = lp_language(&p);
            assert!(!eval(&lp, &cex.doc).is_empty(), "witness lies in L_P");
        }
        FilterVerdict::HoldsWith { .. } => {
            panic!("host extraction depends on cross-chunk context")
        }
    }
}

/// A single-message format check *is* repaired by the filter: P extracts
/// the host of one-message logs.
#[test]
fn filter_repairs_single_message_format() {
    let p = vsa("get [a-z]+\\nhost h{[a-z]+}");
    let s = splitters::http_messages();
    assert!(!self_splittable(&p, &s).unwrap().holds());
    match self_splittable_with_filter(&p, &s).unwrap() {
        FilterVerdict::HoldsWith { filter } => {
            assert!(!eval(&filter, b"get a\nhost b").is_empty());
            assert!(eval(&filter, b"post a\nhost b").is_empty());
        }
        FilterVerdict::Fails(cex) => panic!("filter should repair: {cex}"),
    }
    // Operationally: the filtered splitter evaluates correctly.
    let filtered = FilteredSplitter::new(s, lp_language(&p)).unwrap();
    let good = b"get a\nhost b";
    let bad = b"get a\nhost b\n\nget c\nhost d";
    assert_eq!(filtered.split(good).len(), 1);
    assert!(filtered.split(bad).is_empty(), "two messages: outside L_P");
}

/// Black-box inference over the realistic transaction workload: the glue
/// spanner α captures the amount; the "ML" relation extractor is opaque
/// but constrained to sentences.
#[test]
fn blackbox_inference_on_transactions() {
    let alpha = vsa("(.*[^A-Za-z0-9]|)amt{[0-9]+}([^A-Za-z0-9].*|)");
    let s = splitters::sentences();
    let sig = Signature::new(vec![SpannerSymbol {
        name: "relation_extractor".into(),
        vars: VarTable::new(["a", "b", "amt"]).unwrap(),
    }])
    .unwrap();
    let constraints = vec![SplitConstraint {
        symbol: "relation_extractor".into(),
        splitter: s.clone(),
    }];
    let verdict = infer_join_splittable(&alpha, &sig, &constraints, &s).unwrap();
    assert!(verdict.inferred());

    // Instantiate the black box with the actual transaction extractor
    // and check the instance satisfies its constraint.
    let mut inst = Instance::new();
    inst.bind(
        "relation_extractor",
        splitc_textgen::spanners::transaction_extractor(),
    );
    assert!(inst.satisfies(&constraints).unwrap());
    // Joined output on a concrete article: same amounts as the black box
    // itself (α only adds a redundant amt constraint here).
    let join = inst.join_with(&alpha, &sig).unwrap();
    let doc = b"Acme paid Globex 500 units.";
    let j = eval(&join, doc);
    assert_eq!(j.len(), 1);
    let amt = join.vars().lookup("amt").unwrap();
    assert_eq!(j.tuple(0).get(amt).slice(doc), b"500");
}

/// Annotated splittability produces a canonical mapping that the
/// operational plan can execute over a generated log.
#[test]
fn annotated_pipeline_end_to_end() {
    // Suffix tolerates trailing newlines so every P-match is covered on
    // every document (certification quantifies over all documents, not
    // just well-formed logs).
    let get = Splitter::parse("(.*\\n\\n|)x{get [a-z]+(\\n[a-z ]+)*}(\\n\\n.*|\\n*)").unwrap();
    let post = Splitter::parse("(.*\\n\\n|)x{post [a-z]+(\\n[a-z ]+)*}(\\n\\n.*|\\n*)").unwrap();
    let sk =
        AnnotatedSplitter::new([("get".to_string(), get), ("post".to_string(), post)]).unwrap();
    assert!(sk.is_highlander());

    // Method-blind request-path extractor, message-shaped so that every
    // match lies inside a message chunk.
    let p = vsa("(.*\\n\\n|)(get|post) y{[a-z]+}(\\n[a-z ]+)*(\\n\\n.*|\\n*)");
    let verdict = annotated_splittable(&p, &sk).unwrap();
    let witness: KeySpannerMapping = match verdict {
        split_correctness::core::annotated::AnnotatedSplittability::Splittable { witness } => {
            witness
        }
        other => panic!("should be annotated-splittable: {other:?}"),
    };
    assert!(annotated_split_correct(&p, &witness, &sk).unwrap().holds());

    // Execute the canonical mapping over a generated log, comparing
    // against direct evaluation.
    let log = textgen::http_log(30, 99);
    let mut expected = eval(&p, &log);
    let mut got = Vec::new();
    for (key, sp) in sk.split(&log) {
        let ps = witness.get(&key).unwrap();
        for t in eval(ps, sp.slice(&log)).iter() {
            got.push(t.shift(sp));
        }
    }
    let got = SpanRelation::from_tuples(got);
    assert_eq!(got.len(), 30, "one path per message");
    assert_eq!(got, std::mem::take(&mut expected));
}

/// The whole certification-to-execution chain for the paper's
/// "materialize splitters upfront" story: several extractors certified
/// against one splitter library, then run on one corpus scan each.
#[test]
fn splitter_materialization_story() {
    let sentence = splitters::sentences();
    let message = splitters::http_messages();
    let extractors: Vec<(&str, Vsa, &Splitter)> = vec![
        (
            "ngram2",
            splitc_textgen::spanners::ngram_extractor(2),
            &sentence,
        ),
        (
            "entity",
            splitc_textgen::spanners::entity_extractor(),
            &sentence,
        ),
        (
            "request",
            splitc_textgen::spanners::request_line_extractor(),
            &message,
        ),
    ];
    for (name, p, s) in &extractors {
        assert!(
            self_splittable(p, s).unwrap().holds(),
            "{name} certified against its splitter"
        );
    }
    // The buggy host/date pairing is flagged against the same library —
    // the paper's debugging pitch.
    let buggy = splitc_textgen::spanners::host_date_buggy();
    assert!(!self_splittable(&buggy, &message).unwrap().holds());
}

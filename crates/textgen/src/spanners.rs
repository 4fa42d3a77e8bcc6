//! Workload spanners: the information extractors the experiments run.
//!
//! Every extractor exists in formal form (a [`Vsa`] compiled from a regex
//! formula), so the split-correctness decision procedures can certify
//! them against the formal splitters; the execution engine then runs the
//! very same automata on the synthetic corpora.

use splitc_spanner::rgx::Rgx;
use splitc_spanner::vsa::Vsa;

const TOKEN: &str = "[A-Za-z0-9]+";
const LOWER: &str = "[a-z]+";
const CAP: &str = "[A-Z][a-z]+";
/// Left token boundary: document start or any non-alphanumeric byte.
/// Using the full non-token byte class (rather than just spaces) keeps
/// the extractors consistent with sentence/paragraph chunk edges — the
/// split-correctness checker itself caught a boundary mismatch in an
/// earlier space-only formulation (witness document ".0 0").
const PRE: &str = "(.*[^A-Za-z0-9]|)";
/// Right token boundary.
const POST: &str = "([^A-Za-z0-9].*|)";

fn compile(pattern: &str) -> Vsa {
    Rgx::parse(pattern)
        .unwrap_or_else(|e| panic!("workload pattern {pattern:?}: {e}"))
        .to_vsa()
        .unwrap_or_else(|e| panic!("workload pattern {pattern:?}: {e}"))
}

/// The N-gram enumerator (paper §1: "we have extracted N-grams from
/// 1.53 GB Wikipedia sentences"): captures every window of `n`
/// consecutive tokens separated by single spaces.
pub fn ngram_extractor(n: usize) -> Vsa {
    assert!(n >= 1);
    let mut inner = String::from(TOKEN);
    for _ in 1..n {
        inner.push(' ');
        inner.push_str(TOKEN);
    }
    compile(&format!("{PRE}g{{{inner}}}{POST}"))
}

/// Financial-transaction event extractor (paper §1, Reuters experiment):
/// `Org (paid|acquired) Org <amount>` with the organizations and amount
/// captured.
pub fn transaction_extractor() -> Vsa {
    compile(&format!(
        "{PRE}a{{{CAP}}} (paid|acquired) b{{{CAP}}} amt{{[0-9]+}}{POST}"
    ))
}

/// Negative-sentiment target extractor (paper §1, Amazon reviews):
/// `<target> (is|was) (bad|poor|awful)`, capturing the target token.
pub fn negative_sentiment_targets() -> Vsa {
    compile(&format!(
        "{PRE}t{{{LOWER}}} (is|was) (bad|poor|awful){POST}"
    ))
}

/// A NER-like person/organization name extractor: capitalized tokens.
pub fn entity_extractor() -> Vsa {
    compile(&format!("{PRE}e{{{CAP}}}{POST}"))
}

/// HTTP request-line extractor for blank-line-separated logs: the
/// lowercase method + path line at the start of each message (the
/// self-splittable variant of the paper's §3.1 example).
pub fn request_line_extractor() -> Vsa {
    compile("(.*\\n\\n|)m{(get|post) [a-z]+}(\\n.*|)")
}

/// The *buggy* variant from the paper's debugging motivation (§1): pairs
/// a `host` header with a `date` header that may belong to a *different*
/// message (the pattern gladly crosses blank lines) — the system should
/// report it as not splittable by HTTP messages.
pub fn host_date_buggy() -> Vsa {
    compile("(.*\\n|)host h{[a-z]+}\\n(.*\\n|)date d{[a-z]+}(\\n.*|)")
}

/// The repaired variant: host and date within the same message (no blank
/// line between them). The suffix tolerates a single document-final
/// newline, mirroring the message splitter's chunk suffix `(\n\n.*|\n?)`
/// — without it, a log ending in `\n` is rejected whole-document but
/// accepted per-message, and certification rightly fails.
pub fn host_date_fixed() -> Vsa {
    compile(
        "(.*\\n\\n|)([a-z ]+\\n)*host h{[a-z]+}\\n([a-z ]+\\n)*date d{[a-z]+}(\\n[a-z ]+)*(\\n\\n.*|\\n|)",
    )
}

/// The fleet-member extractor for keyword `i` of
/// [`crate::corpus::fleet_keyword`]: spans of `<keyword><digits>`
/// mention tokens, anywhere in the segment. The keyword is a required
/// literal of the automaton, so the prefilter analysis recovers it and
/// the fleet engine enrolls it in the shared multi-needle scanner.
pub fn keyword_extractor(i: usize) -> Vsa {
    let kw = crate::corpus::fleet_keyword(i);
    Rgx::parse(&format!(".*x{{{kw}[0-9]+}}.*"))
        .unwrap()
        .to_vsa()
        .unwrap()
}

/// The first `n` keyword extractors — a ready-made fleet for the
/// `e7_fleet` benchmark and the fleet example.
pub fn keyword_fleet(n: usize) -> Vec<Vsa> {
    (0..n).map(keyword_extractor).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_spanner::eval::eval;
    use splitc_spanner::span::Span;

    #[test]
    fn ngram_extractor_counts() {
        let p = ngram_extractor(2);
        let rel = eval(&p, b"one two three");
        assert_eq!(rel.len(), 2);
        let p3 = ngram_extractor(3);
        assert_eq!(eval(&p3, b"one two three").len(), 1);
        assert!(eval(&p3, b"one two").is_empty());
    }

    #[test]
    fn transaction_extractor_finds_events() {
        let p = transaction_extractor();
        let doc = b"intro words Acme paid Globex 500 more words.";
        let rel = eval(&p, doc);
        assert_eq!(rel.len(), 1);
        let t = rel.tuple(0);
        let a = p.vars().lookup("a").unwrap();
        let amt = p.vars().lookup("amt").unwrap();
        assert_eq!(t.get(a).slice(doc), b"Acme");
        assert_eq!(t.get(amt).slice(doc), b"500");
        assert!(
            eval(&p, b"Acme paid globex 500").is_empty(),
            "lowercase org"
        );
    }

    #[test]
    fn negative_sentiment_targets_work() {
        let p = negative_sentiment_targets();
        let doc = b"the soup was awful";
        let rel = eval(&p, doc);
        assert_eq!(rel.len(), 1);
        let t = p.vars().lookup("t").unwrap();
        assert_eq!(rel.tuple(0).get(t).slice(doc), b"soup");
        assert!(eval(&p, b"the soup was great").is_empty());
    }

    #[test]
    fn entity_extractor_finds_caps() {
        let p = entity_extractor();
        let rel = eval(&p, b"met Alice and Bob today");
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn request_line_extractor_on_log() {
        let p = request_line_extractor();
        let log = b"get alpha\nhost h\n\npost beta\nhost i";
        let rel = eval(&p, log);
        assert_eq!(rel.len(), 2);
        let m = p.vars().lookup("m").unwrap();
        let spans: Vec<Span> = rel.iter().map(|t| t.get(m)).collect();
        assert_eq!(spans[0].slice(log), b"get alpha");
        assert_eq!(spans[1].slice(log), b"post beta");
    }

    #[test]
    fn host_date_bug_crosses_messages() {
        let buggy = host_date_buggy();
        // host in message 1, date in message 2 — the bug.
        let log = b"host abc\n\ndate xyz\n";
        let rel = eval(&buggy, log);
        assert!(!rel.is_empty(), "buggy extractor pairs across messages");
        let fixed = host_date_fixed();
        assert!(eval(&fixed, log).is_empty());
        // Within one message both fire.
        let ok_log = b"host abc\ndate xyz";
        assert!(!eval(&buggy, ok_log).is_empty());
        assert!(!eval(&fixed, ok_log).is_empty());
    }

    #[test]
    fn workloads_fire_on_generated_corpora() {
        let articles = crate::articles_corpus(20, 42);
        let tx = transaction_extractor();
        let total: usize = articles.iter().map(|d| eval(&tx, d).len()).sum();
        assert!(total > 0, "transactions extracted from articles");

        let reviews = crate::reviews_corpus(20, 42);
        let neg = negative_sentiment_targets();
        let total: usize = reviews.iter().map(|d| eval(&neg, d).len()).sum();
        assert!(total > 0, "targets extracted from reviews");

        let log = crate::http_log(8, 42);
        let rl = request_line_extractor();
        assert_eq!(eval(&rl, &log).len(), 8);
    }
}

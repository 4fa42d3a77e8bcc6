//! Independent references for the workloads' outputs.
//!
//! Each extractor the benchmark runs has a plain byte-scanning
//! equivalent here that shares no code with the automata: the program's
//! relations are compared against these outside the timed window. The
//! splitter is the built-in sentence splitter (maximal period-free
//! chunks), and none of the extractors can match across a period, so
//! scanning whole documents gives the same spans as scanning segments.

use splitc_spanner::SpanRelation;
use splitc_textgen::fleet_keyword;
use std::collections::HashMap;

/// A relation of a one-variable extractor: `(start, end)` per tuple,
/// sorted.
pub type Spans = Vec<(usize, usize)>;

/// The program's relation as sorted `(start, end)` pairs (each tuple of
/// the workloads' extractors has exactly one variable).
pub fn spans_of(rel: &SpanRelation) -> Spans {
    let mut out: Spans = rel
        .iter()
        .map(|t| {
            let s = t.spans()[0];
            (s.start, s.end)
        })
        .collect();
    out.sort_unstable();
    out
}

fn is_alnum(b: u8) -> bool {
    b.is_ascii_alphanumeric()
}

/// Maximal alphanumeric runs of `doc`, as `(start, end)`.
fn tokens(doc: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < doc.len() {
        if is_alnum(doc[i]) {
            let start = i;
            while i < doc.len() && is_alnum(doc[i]) {
                i += 1;
            }
            out.push((start, i));
        } else {
            i += 1;
        }
    }
    out
}

/// `ngram_extractor(2)`: two maximal tokens joined by exactly one space.
pub fn bigrams(doc: &[u8]) -> Spans {
    tokens(doc)
        .windows(2)
        .filter(|w| w[1].0 == w[0].1 + 1 && doc[w[0].1] == b' ')
        .map(|w| (w[0].0, w[1].1))
        .collect()
}

/// `entity_extractor()`: maximal tokens of one capital letter followed
/// by one or more lowercase letters.
pub fn entities(doc: &[u8]) -> Spans {
    tokens(doc)
        .into_iter()
        .filter(|&(s, e)| {
            e - s >= 2
                && doc[s].is_ascii_uppercase()
                && doc[s + 1..e].iter().all(u8::is_ascii_lowercase)
        })
        .collect()
}

/// `keyword_extractor(i)` for every member `i < members`: each
/// occurrence of the member's keyword followed by `d >= 1` digits
/// yields the `d` spans keyword + first `1..=d` digits.
pub fn keyword_mentions(doc: &[u8], members: usize) -> Vec<Spans> {
    let owner: HashMap<Vec<u8>, usize> = (0..members)
        .map(|i| (fleet_keyword(i).into_bytes(), i))
        .collect();
    let kw_len = fleet_keyword(0).len();
    let mut first = [false; 256];
    for kw in owner.keys() {
        first[kw[0] as usize] = true;
    }
    let mut out = vec![Spans::new(); members];
    for start in 0..doc.len().saturating_sub(kw_len) {
        if !first[doc[start] as usize] {
            continue;
        }
        let Some(&member) = owner.get(&doc[start..start + kw_len]) else {
            continue;
        };
        let digits_from = start + kw_len;
        let digits = doc[digits_from..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        out[member].extend((1..=digits).map(|d| (start, digits_from + d)));
    }
    out
}

/// Renders per-document relations the way the service encodes them:
/// `[[{"var":[start,end]},...],...]`, tuples in sorted order.
pub fn render(docs: &[&Spans], var: &str) -> String {
    let mut out = String::from("[");
    for (i, spans) in docs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, (s, e)) in spans.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"{var}\":[{s},{e}]}}"));
        }
        out.push(']');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_exec::{CorpusRunner, CorpusRunnerConfig, Engine, ExecSpanner};
    use splitc_spanner::splitter;
    use splitc_textgen::{keyword_corpus, spanners, wiki_corpus, CorpusConfig};

    fn engine_spans(vsa: &splitc_spanner::Vsa, doc: &[u8]) -> Spans {
        let runner = CorpusRunner::new(
            ExecSpanner::compile_with(vsa, Engine::Nfa),
            splitter::sentences().compile(),
            CorpusRunnerConfig {
                workers: 1,
                ..Default::default()
            },
        );
        spans_of(&runner.run_slices(&[doc]).relations[0])
    }

    fn wiki(seed: u64) -> Vec<u8> {
        wiki_corpus(&CorpusConfig {
            target_bytes: 3000,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn bigrams_agree_with_the_nfa_engine() {
        let vsa = spanners::ngram_extractor(2);
        for seed in 0..3 {
            let doc = wiki(seed);
            let want = engine_spans(&vsa, &doc);
            assert!(!want.is_empty());
            assert_eq!(bigrams(&doc), want, "seed {seed}");
        }
    }

    #[test]
    fn entities_agree_with_the_nfa_engine() {
        let vsa = spanners::entity_extractor();
        for seed in 0..3 {
            let doc = wiki(seed);
            let want = engine_spans(&vsa, &doc);
            assert!(!want.is_empty());
            assert_eq!(entities(&doc), want, "seed {seed}");
        }
    }

    #[test]
    fn keyword_mentions_agree_with_the_nfa_engine() {
        let doc = keyword_corpus(
            &CorpusConfig {
                target_bytes: 4000,
                seed: 5,
                ..Default::default()
            },
            4,
            1,
        );
        let got = keyword_mentions(&doc, 4);
        for (i, spans) in got.iter().enumerate() {
            assert_eq!(
                spans,
                &engine_spans(&spanners::keyword_extractor(i), &doc),
                "member {i}"
            );
        }
        assert!(got.iter().any(|s| !s.is_empty()));
    }

    #[test]
    fn render_matches_the_wire_shape() {
        let a: Spans = vec![(0, 3), (4, 9)];
        let b: Spans = vec![];
        assert_eq!(render(&[&a, &b], "e"), r#"[[{"e":[0,3]},{"e":[4,9]}],[]]"#);
    }
}

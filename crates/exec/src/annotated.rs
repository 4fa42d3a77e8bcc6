//! Execution of annotated split plans (paper §7.3): chunks are routed to
//! a per-key split-spanner, the operational counterpart of the
//! key–spanner mappings certified by `splitc_core::annotated`.

use crate::engine::ExecSpanner;
use splitc_spanner::span::Span;
use splitc_spanner::tuple::SpanRelation;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A keyed splitting function: documents to `(key, span)` pairs.
pub type AnnotatedSplitFn = Arc<dyn Fn(&[u8]) -> Vec<(String, Span)> + Send + Sync>;

/// An executable annotated plan: one compiled spanner per key.
pub struct AnnotatedPlan {
    split: AnnotatedSplitFn,
    spanners: BTreeMap<String, ExecSpanner>,
}

impl AnnotatedPlan {
    /// Builds a plan; every key the splitter may emit must be bound.
    pub fn new(
        split: AnnotatedSplitFn,
        spanners: impl IntoIterator<Item = (String, ExecSpanner)>,
    ) -> AnnotatedPlan {
        AnnotatedPlan {
            split,
            spanners: spanners.into_iter().collect(),
        }
    }

    /// Evaluates `P_S ∘ S_K`: every chunk is evaluated by the spanner of
    /// its key; results are shifted and unioned. Chunks with unbound
    /// keys are an error (the certification pipeline prevents them).
    pub fn eval(&self, doc: &[u8]) -> Result<SpanRelation, String> {
        let mut parts = Vec::new();
        for (key, sp) in (self.split)(doc) {
            let spanner = self
                .spanners
                .get(&key)
                .ok_or_else(|| format!("no spanner bound for key {key}"))?;
            let mut local = spanner.eval(sp.slice(doc));
            local.shift_in_place(sp);
            parts.push(local);
        }
        Ok(SpanRelation::concat(parts))
    }

    /// The bound keys.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.spanners.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_spanner::rgx::Rgx;
    use splitc_spanner::splitter::native;

    /// Key HTTP-like messages by their first word.
    fn method_split(doc: &[u8]) -> Vec<(String, Span)> {
        native::paragraphs(doc)
            .into_iter()
            .map(|sp| {
                let text = sp.slice(doc);
                let key = if text.starts_with(b"get") {
                    "get"
                } else {
                    "post"
                };
                (key.to_string(), sp)
            })
            .collect()
    }

    fn spanner(pat: &str) -> ExecSpanner {
        ExecSpanner::compile(&Rgx::parse(pat).unwrap().to_vsa().unwrap())
    }

    #[test]
    fn routes_by_key() {
        let plan = AnnotatedPlan::new(
            Arc::new(method_split),
            [
                ("get".to_string(), spanner("get y{[a-z]+}(\\n.*|)")),
                (
                    "post".to_string(),
                    spanner("post [a-z]+\\nhost y{[a-z]+}(\\n.*|)"),
                ),
            ],
        );
        let log = b"get alpha\nhost h\n\npost beta\nhost i";
        let rel = plan.eval(log).unwrap();
        assert_eq!(rel.len(), 2);
        let texts: Vec<&[u8]> = rel.iter().map(|t| t.spans()[0].slice(log)).collect();
        assert_eq!(texts, vec![b"alpha".as_slice(), b"i".as_slice()]);
        assert_eq!(plan.keys().count(), 2);
    }

    #[test]
    fn unbound_key_is_reported() {
        let plan = AnnotatedPlan::new(
            Arc::new(method_split),
            [("get".to_string(), spanner("get y{[a-z]+}(\\n.*|)"))],
        );
        assert!(plan.eval(b"post x\n").is_err());
        assert!(plan.eval(b"get x\n").is_ok());
    }

    #[test]
    fn agrees_with_formal_annotated_composition() {
        // The operational plan equals the Lemma E.2 composition spanner.
        use splitc_core::annotated::{annotated_compose, AnnotatedSplitter, KeySpannerMapping};
        use splitc_spanner::Splitter;
        let get_s = Splitter::parse("(.*\\n\\n|)x{get [a-z]+(\\n[a-z ]+)*}(\\n\\n.*|)").unwrap();
        let post_s = Splitter::parse("(.*\\n\\n|)x{post [a-z]+(\\n[a-z ]+)*}(\\n\\n.*|)").unwrap();
        let sk = AnnotatedSplitter::new([("get".to_string(), get_s), ("post".to_string(), post_s)])
            .unwrap();
        let get_p = Rgx::parse("get y{[a-z]+}(\\n.*|)")
            .unwrap()
            .to_vsa()
            .unwrap();
        let post_p = Rgx::parse("post [a-z]+\\nhost y{[a-z]+}(\\n.*|)")
            .unwrap()
            .to_vsa()
            .unwrap();
        let mapping = KeySpannerMapping::new([
            ("get".to_string(), get_p.clone()),
            ("post".to_string(), post_p.clone()),
        ])
        .unwrap();
        let formal = annotated_compose(&mapping, &sk).unwrap();

        let plan = AnnotatedPlan::new(
            Arc::new(method_split),
            [
                ("get".to_string(), ExecSpanner::compile(&get_p)),
                ("post".to_string(), ExecSpanner::compile(&post_p)),
            ],
        );
        let log = b"get alpha\nhost h\n\npost beta\nhost i";
        assert_eq!(
            plan.eval(log).unwrap(),
            splitc_spanner::eval::eval(&formal, log)
        );
    }
}

//! Streaming document splitting with bounded byte buffering.
//!
//! [`StreamingSplitter`] wraps the incremental splitter simulation of
//! [`splitc_spanner::stream`] with the byte management a corpus pipeline
//! needs: it consumes a document **chunk by chunk**, hands out finished
//! [`Segment`]s (absolute span + owned segment bytes, ready to ship to a
//! worker), and discards consumed input eagerly. The retained window is
//! `[low watermark, current position)` — for the built-in disjoint
//! splitters that is the segment currently being read plus the incoming
//! chunk, **independent of document length**, which is what lets
//! [`crate::corpus::CorpusRunner`] process corpora far larger than
//! memory.

use splitc_spanner::span::Span;
use splitc_spanner::splitter::CompiledSplitter;
use splitc_spanner::stream::SplitterState;

/// One split segment of a streamed document: its span in the document's
/// absolute coordinates plus an owned copy of the segment bytes (the
/// streaming buffer the span pointed into is reclaimed eagerly, so the
/// bytes must be detached).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// The split span, in absolute document offsets.
    pub span: Span,
    /// The bytes `doc[span.start..span.end]`.
    pub bytes: Vec<u8>,
}

/// Incremental splitter over a byte stream.
///
/// Feed chunks with [`StreamingSplitter::push`]; each call returns the
/// segments completed by that chunk, in ascending `(start, end)` order —
/// exactly the segments `CompiledSplitter::split` would produce on the
/// materialized document (a property the differential proptest suite
/// asserts over random chunk boundaries). Close the stream with
/// [`StreamingSplitter::finish`].
///
/// A splitter whose phase DFAs exceed their budget has no stream
/// ([`CompiledSplitter::stream`] is `None`). Its document is buffered
/// whole, once, and batch-split at [`StreamingSplitter::finish`]: `push`
/// emits nothing, only position 0 is quiescent, and each
/// [`StreamingSplitter::peek_finish`] splits everything buffered so far.
#[derive(Debug)]
pub struct StreamingSplitter {
    split: Split,
    /// Bytes `[base, pos)` of the stream still referenced by unresolved
    /// candidates or by segments not yet handed out (the whole stream
    /// under [`Split::Whole`]).
    buf: Vec<u8>,
    /// Stream offset of `buf[0]`.
    base: usize,
    /// Largest buffer size observed (bytes), for memory accounting.
    peak_buffered: usize,
}

/// How a [`StreamingSplitter`] finds its segments.
#[derive(Debug)]
enum Split {
    /// Incrementally, through the splitter's phase DFAs.
    Stream(SplitterState),
    /// At the end, by batch-splitting the whole buffer (a splitter
    /// without a stream).
    Whole(CompiledSplitter),
}

impl StreamingSplitter {
    /// Starts streaming one document through `splitter`.
    pub fn new(splitter: &CompiledSplitter) -> StreamingSplitter {
        StreamingSplitter {
            split: match splitter.stream() {
                Some(state) => Split::Stream(state),
                None => Split::Whole(splitter.clone()),
            },
            buf: Vec::new(),
            base: 0,
            peak_buffered: 0,
        }
    }

    /// Consumes the next chunk and returns the segments it completed.
    pub fn push(&mut self, chunk: &[u8]) -> Vec<Segment> {
        self.buf.extend_from_slice(chunk);
        self.peak_buffered = self.peak_buffered.max(self.buf.len());
        let Split::Stream(state) = &mut self.split else {
            return Vec::new();
        };
        let spans = state.push(chunk);
        let segments = detach(&self.buf, self.base, spans);
        // Discard buffered bytes below the splitter's low watermark.
        let low = state.low_watermark();
        if low > self.base {
            self.buf.drain(..low - self.base);
            self.base = low;
        }
        segments
    }

    /// Log-tailing **follow mode**: returns the segments
    /// [`StreamingSplitter::finish`] would emit *right now*, without
    /// closing the stream. A consumer tailing a growing log calls this
    /// after each [`StreamingSplitter::push`] to see the provisional
    /// trailing segment(s) of the data so far, then keeps pushing —
    /// the stream state is untouched (the peek runs on a clone of the
    /// splitter simulation), so subsequent pushes behave exactly as if
    /// the peek never happened. Segments already returned by `push`
    /// are final and are not repeated here. For a splitter without a
    /// stream, each peek batch-splits the whole buffer.
    pub fn peek_finish(&self) -> Vec<Segment> {
        let spans = match &self.split {
            Split::Stream(state) => state.clone().finish(),
            Split::Whole(splitter) => splitter.split(&self.buf),
        };
        detach(&self.buf, self.base, spans)
    }

    /// Whether the underlying splitter stream is at a quiescent
    /// position (see
    /// [`SplitterState::is_quiescent`]):
    /// everything up to the current position is finalized and the
    /// continuation depends only on future bytes. In follow mode this
    /// is the "nothing provisional right now" signal
    /// ([`StreamingSplitter::peek_finish`] returns no segments ending
    /// at the current position beyond what `push` already emitted).
    pub fn is_quiescent(&self) -> bool {
        match &self.split {
            Split::Stream(state) => state.is_quiescent(),
            Split::Whole(_) => self.pos() == 0,
        }
    }

    /// The largest stream position observed quiescent so far (see
    /// [`SplitterState::last_quiescent`]). Tracked per byte, so
    /// quiescent positions strictly inside pushed chunks are reported —
    /// the corpus-maintenance layer records these as stable resplit
    /// frontiers.
    pub fn last_quiescent(&self) -> usize {
        match &self.split {
            Split::Stream(state) => state.last_quiescent(),
            Split::Whole(_) => 0,
        }
    }

    /// Ends the stream and returns the remaining segments.
    pub fn finish(self) -> Vec<Segment> {
        let spans = match self.split {
            Split::Stream(state) => state.finish(),
            Split::Whole(splitter) => splitter.split(&self.buf),
        };
        detach(&self.buf, self.base, spans)
    }

    /// Bytes currently buffered.
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len()
    }

    /// The largest number of bytes ever buffered at once. For splitters
    /// that confirm segments promptly (all built-ins) this is bounded by
    /// `max segment length + chunk length`, not by document size.
    pub fn peak_buffered_bytes(&self) -> usize {
        self.peak_buffered
    }

    /// Bytes consumed from the stream so far.
    pub fn pos(&self) -> usize {
        self.base + self.buf.len()
    }

    /// Bytes the incremental splitter resolved through its skip-loop
    /// scanner instead of phase-DFA steps (see
    /// `splitc_spanner::stream::SplitterState::bytes_skipped`).
    pub fn bytes_skipped(&self) -> u64 {
        match &self.split {
            Split::Stream(state) => state.bytes_skipped(),
            Split::Whole(_) => 0,
        }
    }
}

/// Slices emitted spans out of `buf` (stream bytes from offset `base`)
/// into owned segments.
fn detach(buf: &[u8], base: usize, spans: Vec<Span>) -> Vec<Segment> {
    spans
        .into_iter()
        .map(|span| Segment {
            span,
            bytes: buf[span.start - base..span.end - base].to_vec(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_spanner::splitter;

    #[test]
    fn streamed_segments_match_batch_split() {
        let s = splitter::sentences();
        let compiled = s.compile();
        let doc = b"one one. two two. three three. tail";
        for chunk in [1, 3, 7, doc.len()] {
            let mut st = StreamingSplitter::new(&compiled);
            let mut got = Vec::new();
            for piece in doc.chunks(chunk) {
                got.extend(st.push(piece));
            }
            got.extend(st.finish());
            let expected: Vec<Segment> = compiled
                .split(doc)
                .into_iter()
                .map(|span| Segment {
                    span,
                    bytes: span.slice(doc).to_vec(),
                })
                .collect();
            assert_eq!(got, expected, "chunk size {chunk}");
        }
    }

    #[test]
    fn buffer_is_bounded_by_segment_plus_chunk() {
        let s = splitter::sentences().compile();
        let mut st = StreamingSplitter::new(&s);
        // 64 segments of ~16 bytes, fed in 8-byte chunks: the buffer
        // must stay near one segment + one chunk, not grow with the
        // document.
        let doc: Vec<u8> = (0..64).flat_map(|_| b"fifteen bytes x.".to_vec()).collect();
        let mut total = 0;
        for piece in doc.chunks(8) {
            total += st.push(piece).len();
        }
        assert!(
            st.peak_buffered_bytes() <= 32,
            "{}",
            st.peak_buffered_bytes()
        );
        total += st.finish().len();
        assert_eq!(total, 64);
    }

    #[test]
    fn empty_stream() {
        let s = splitter::sentences().compile();
        let st = StreamingSplitter::new(&s);
        assert!(st.finish().is_empty());
    }

    #[test]
    fn follow_mode_peeks_without_disturbing_the_stream() {
        let s = splitter::sentences().compile();
        let mut st = StreamingSplitter::new(&s);
        let mut emitted = Vec::new();
        // Tail a "log" arriving in pieces; after each push, peek at the
        // provisional tail and check it completes the stream so far.
        let log = b"first line x. second y. trailing tail";
        for piece in log.chunks(5) {
            emitted.extend(st.push(piece));
            let peek = st.peek_finish();
            let fed = st.pos();
            let expect: Vec<Segment> = s
                .split(&log[..fed])
                .into_iter()
                .map(|span| Segment {
                    span,
                    bytes: span.slice(&log[..fed]).to_vec(),
                })
                .collect();
            let mut seen = emitted.clone();
            seen.extend(peek);
            assert_eq!(seen, expect, "after {fed} bytes");
        }
        // The peeks must not have perturbed the final result.
        emitted.extend(st.finish());
        let expect: Vec<Segment> = s
            .split(log)
            .into_iter()
            .map(|span| Segment {
                span,
                bytes: span.slice(log).to_vec(),
            })
            .collect();
        assert_eq!(emitted, expect);
    }

    #[test]
    fn quiescence_tracks_segment_boundaries() {
        let s = splitter::sentences().compile();
        let mut st = StreamingSplitter::new(&s);
        st.push(b"a sentence.");
        assert!(
            st.is_quiescent(),
            "just past the delimiter the stream is at a fresh start"
        );
        st.push(b" an open");
        assert!(
            !st.is_quiescent(),
            "mid-segment is not quiescent (the next segment opened at the space)"
        );
        // The per-byte tracker still remembers the interior boundary.
        assert_eq!(st.last_quiescent(), 11, "position just past the period");
        st.push(b" more. and tail");
        assert_eq!(
            st.last_quiescent(),
            25,
            "advanced to just past the second period"
        );
    }

    #[test]
    fn sentences_stream_skips_inside_segments() {
        // Inside a segment the stream holds one pending open and no
        // candidate, so the skip loop jumps to the closing '.'; only the
        // '.' and the opening byte after it are stepped.
        let doc = splitc_textgen::wiki_corpus(&splitc_textgen::CorpusConfig {
            target_bytes: 64 << 10,
            ..Default::default()
        });
        let compiled = splitter::sentences().compile();
        let batch = compiled.split(&doc);
        for chunk in [1, 7, 4096] {
            let mut st = StreamingSplitter::new(&compiled);
            let mut got = Vec::new();
            for piece in doc.chunks(chunk) {
                got.extend(st.push(piece).into_iter().map(|seg| seg.span));
            }
            let skipped = st.bytes_skipped();
            got.extend(st.finish().into_iter().map(|seg| seg.span));
            assert_eq!(got, batch, "chunk {chunk}");
            let floor = (doc.len() - 2 * batch.len()) as u64;
            assert!(
                skipped >= floor,
                "chunk {chunk}: skipped {skipped} < {floor} ({} bytes, {} segments)",
                doc.len(),
                batch.len()
            );
        }
    }
}

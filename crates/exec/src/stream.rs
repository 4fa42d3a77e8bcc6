//! Streaming document splitting with bounded byte buffering.
//!
//! [`StreamingSplitter`] wraps the incremental splitter simulation of
//! [`splitc_spanner::stream`] with the byte management a corpus pipeline
//! needs: it consumes a document **chunk by chunk**, hands out finished
//! [`Segment`]s (absolute span + the segment bytes, ready to ship to a
//! worker), and lets go of consumed input eagerly.
//!
//! Each pushed chunk is copied once, into a refcounted buffer, and a
//! segment's bytes are a range of the buffer that holds them
//! ([`SegBytes`]): handing a segment to a worker copies no bytes, and
//! the worker that drops it frees nothing but a reference. Only a
//! segment that crosses a chunk boundary is stitched into a fresh buffer
//! of its own, once ([`StreamStats::bytes_stitched`] counts those
//! bytes).
//!
//! The splitter's window is `[low watermark, current position)` — for
//! the built-in disjoint splitters that is the segment currently being
//! read plus the incoming chunk, **independent of document length**,
//! which is what lets [`crate::corpus::CorpusRunner`] process corpora far
//! larger than memory. What stays resident is the chunks overlapping
//! that window, plus the chunks that segments still in flight reference.

use splitc_spanner::span::Span;
use splitc_spanner::splitter::CompiledSplitter;
use splitc_spanner::stream::SplitterState;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::{Arc, LazyLock};

/// One split segment of a streamed document: its span in the document's
/// absolute coordinates plus the segment bytes, shared with the buffer
/// the splitter read them into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// The split span, in absolute document offsets.
    pub span: Span,
    /// The bytes `doc[span.start..span.end]`.
    pub bytes: SegBytes,
}

/// A byte range of a shared, immutable buffer: a segment's bytes without
/// a copy of their own. Dereferences to `[u8]`; clones share the buffer,
/// and equality compares contents.
#[derive(Clone)]
pub struct SegBytes {
    buf: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl SegBytes {
    /// The bytes `buf[range]`, sharing `buf`.
    ///
    /// # Panics
    /// If `range` is not within `buf`.
    pub(crate) fn new(buf: Arc<[u8]>, range: Range<usize>) -> SegBytes {
        assert!(
            range.start <= range.end && range.end <= buf.len(),
            "range {range:?} outside a {}-byte buffer",
            buf.len()
        );
        SegBytes {
            buf,
            start: range.start,
            end: range.end,
        }
    }
}

/// The empty range, of one buffer shared by every empty `SegBytes`.
impl Default for SegBytes {
    fn default() -> SegBytes {
        static EMPTY: LazyLock<Arc<[u8]>> = LazyLock::new(|| Arc::from(&[][..]));
        SegBytes::new(EMPTY.clone(), 0..0)
    }
}

impl Deref for SegBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

impl fmt::Debug for SegBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl PartialEq for SegBytes {
    fn eq(&self, other: &SegBytes) -> bool {
        **self == **other
    }
}

impl Eq for SegBytes {}

impl PartialEq<&[u8]> for SegBytes {
    fn eq(&self, other: &&[u8]) -> bool {
        **self == **other
    }
}

/// A copy of `bytes` in a buffer of its own.
impl From<&[u8]> for SegBytes {
    fn from(bytes: &[u8]) -> SegBytes {
        SegBytes::new(Arc::from(bytes), 0..bytes.len())
    }
}

/// Counters of one [`StreamingSplitter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// The largest `[low watermark, position)` window the splitter held
    /// at once, in bytes. For splitters that confirm segments promptly
    /// (all built-ins) this is bounded by `max segment length + chunk
    /// length`, not by document size; a splitter without a stream holds
    /// the whole document.
    pub peak_buffered_bytes: usize,
    /// Bytes the incremental splitter resolved through its skip-loop
    /// scanner instead of phase-DFA steps (see
    /// `splitc_spanner::stream::SplitterState::bytes_skipped`).
    pub bytes_skipped: u64,
    /// Bytes copied into a fresh buffer because their segment crossed a
    /// pushed chunk's boundary: the total length of the segments handed
    /// out (by `push` and `finish`) that no single chunk holds. Zero when
    /// the document arrives as one chunk.
    pub bytes_stitched: u64,
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
    /// The pushed chunks that still overlap `[low watermark, pos]` (all
    /// of them under [`Split::Whole`]).
    chunks: Chunks,
    /// The low watermark: no future segment starts below it.
    base: usize,
    /// Bytes consumed from the stream so far.
    pos: usize,
    /// See [`StreamStats::peak_buffered_bytes`].
    peak_buffered: usize,
    /// See [`StreamStats::bytes_stitched`].
    stitched: u64,
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
            chunks: Chunks::default(),
            base: 0,
            pos: 0,
            peak_buffered: 0,
            stitched: 0,
        }
    }

    /// Consumes the next chunk and returns the segments it completed.
    pub fn push(&mut self, chunk: &[u8]) -> Vec<Segment> {
        self.chunks.push(self.pos, chunk);
        self.pos += chunk.len();
        self.peak_buffered = self.peak_buffered.max(self.pos - self.base);
        let Split::Stream(state) = &mut self.split else {
            return Vec::new();
        };
        let spans = state.push(chunk);
        let low = state.low_watermark();
        let (segments, stitched) = self.chunks.cut(spans);
        self.stitched += stitched;
        // Let go of the chunks below the splitter's low watermark.
        if low > self.base {
            self.base = low;
            self.chunks.release(low);
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
    /// stream, each peek batch-splits the whole buffer. A peek's stitched
    /// segments are not counted in [`StreamStats::bytes_stitched`].
    pub fn peek_finish(&self) -> Vec<Segment> {
        let spans = match &self.split {
            Split::Stream(state) => state.clone().finish(),
            Split::Whole(splitter) => splitter.split(&self.chunks.contiguous()),
        };
        self.chunks.cut(spans).0
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
            Split::Whole(_) => self.pos == 0,
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
        self.finish_with_stats().0
    }

    /// [`StreamingSplitter::finish`], also returning the splitter's
    /// final counters (which include the stitching of the last
    /// segments).
    pub fn finish_with_stats(self) -> (Vec<Segment>, StreamStats) {
        let mut stats = self.stats();
        let spans = match self.split {
            Split::Stream(state) => state.finish(),
            Split::Whole(splitter) => splitter.split(&self.chunks.contiguous()),
        };
        let (segments, stitched) = self.chunks.cut(spans);
        stats.bytes_stitched += stitched;
        (segments, stats)
    }

    /// The splitter's counters so far.
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            peak_buffered_bytes: self.peak_buffered,
            bytes_skipped: match &self.split {
                Split::Stream(state) => state.bytes_skipped(),
                Split::Whole(_) => 0,
            },
            bytes_stitched: self.stitched,
        }
    }

    /// Bytes of the current window, `[low watermark, position)`.
    pub fn buffered_bytes(&self) -> usize {
        self.pos - self.base
    }

    /// Bytes consumed from the stream so far.
    pub fn pos(&self) -> usize {
        self.pos
    }
}

/// The pushed chunks a [`StreamingSplitter`] still holds, each with the
/// stream offset of its first byte, in stream order.
#[derive(Debug, Default)]
struct Chunks(VecDeque<(usize, Arc<[u8]>)>);

impl Chunks {
    /// Keeps one copy of `chunk`, which starts at stream offset `at`.
    fn push(&mut self, at: usize, chunk: &[u8]) {
        if !chunk.is_empty() {
            self.0.push_back((at, Arc::from(chunk)));
        }
    }

    /// Drops the chunks that end at or below `low`, keeping the last one:
    /// every position in `[low, pos]`, the end included, stays inside a
    /// held chunk, so even an empty segment there shares one.
    fn release(&mut self, low: usize) {
        while self.0.len() > 1 && self.0[0].0 + self.0[0].1.len() <= low {
            self.0.pop_front();
        }
    }

    /// The held bytes as one slice: borrowed from a lone chunk, joined
    /// otherwise (the batch split of a splitter without a stream).
    fn contiguous(&self) -> Cow<'_, [u8]> {
        match self.0.len() {
            0 => Cow::Borrowed(&[]),
            1 => Cow::Borrowed(&self.0[0].1),
            _ => {
                let mut joined = Vec::with_capacity(self.0.iter().map(|(_, c)| c.len()).sum());
                for (_, chunk) in &self.0 {
                    joined.extend_from_slice(chunk);
                }
                Cow::Owned(joined)
            }
        }
    }

    /// The segments of `spans`, and how many of their bytes had to be
    /// stitched across chunks.
    fn cut(&self, spans: Vec<Span>) -> (Vec<Segment>, u64) {
        let mut stitched = 0;
        let segments = spans
            .into_iter()
            .map(|span| {
                let (bytes, copied) = self.bytes(span);
                stitched += copied;
                Segment { span, bytes }
            })
            .collect();
        (segments, stitched)
    }

    /// The bytes of `span`: a range of the chunk that holds it, or, when
    /// it crosses a chunk boundary, a fresh buffer stitched from the
    /// chunks it covers — with the number of bytes that copied.
    fn bytes(&self, span: Span) -> (SegBytes, u64) {
        // The first chunk ending past the start; for an empty span at
        // the end of the stream, the last chunk.
        let first = self
            .0
            .partition_point(|(at, c)| at + c.len() <= span.start)
            .min(self.0.len().saturating_sub(1));
        let Some((at, chunk)) = self.0.get(first) else {
            return (SegBytes::default(), 0); // nothing pushed: an empty span
        };
        if span.end <= at + chunk.len() {
            let range = span.start - at..span.end - at;
            return (SegBytes::new(chunk.clone(), range), 0);
        }
        let mut buf: Arc<[u8]> = std::iter::repeat_n(0, span.len()).collect();
        let dst = Arc::get_mut(&mut buf).expect("a fresh buffer is unshared");
        let mut filled = 0;
        for (at, chunk) in self.0.range(first..) {
            if *at >= span.end {
                break;
            }
            let piece = &chunk[span.start.max(*at) - at..(span.end - at).min(chunk.len())];
            dst[filled..filled + piece.len()].copy_from_slice(piece);
            filled += piece.len();
        }
        debug_assert_eq!(filled, span.len(), "the held chunks cover {span:?}");
        (SegBytes::new(buf, 0..span.len()), span.len() as u64)
    }
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
                    bytes: span.slice(doc).into(),
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
            st.stats().peak_buffered_bytes <= 32,
            "{}",
            st.stats().peak_buffered_bytes
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
                    bytes: span.slice(&log[..fed]).into(),
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
                bytes: span.slice(log).into(),
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
            let skipped = st.stats().bytes_skipped;
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
    #[test]
    fn one_chunk_segments_share_it_and_crossing_ones_are_stitched_once() {
        let compiled = splitter::sentences().compile();
        let doc = b"one one. two two. three three. tail";
        let mut st = StreamingSplitter::new(&compiled);
        let mut got = st.push(doc);
        let (tail, stats) = st.finish_with_stats();
        got.extend(tail);
        assert_eq!(got.len(), 4);
        assert!(got
            .iter()
            .all(|s| Arc::ptr_eq(&s.bytes.buf, &got[0].bytes.buf)));
        assert_eq!(stats.bytes_stitched, 0);
        // Overlapping windows share the one chunk too: no byte is copied
        // once per window it falls in.
        for (name, s) in [
            ("bigrams", splitter::ngrams(2)),
            ("3-byte windows", splitter::char_windows(3)),
        ] {
            let mut st = StreamingSplitter::new(&s.compile());
            let mut got = st.push(doc);
            let (tail, stats) = st.finish_with_stats();
            got.extend(tail);
            assert!(got.len() > 2, "{name}: {} windows", got.len());
            assert!(got.iter().all(|s| s.bytes == s.span.slice(doc)));
            assert_eq!(stats.bytes_stitched, 0, "{name}");
        }

        // Cut at 10 and 20: "two two." (9..17) crosses 10, "three
        // three." (18..30) crosses 20; the others lie in one chunk.
        let mut st = StreamingSplitter::new(&compiled);
        let mut got = Vec::new();
        for piece in doc.chunks(10) {
            got.extend(st.push(piece));
        }
        let (tail, stats) = st.finish_with_stats();
        got.extend(tail);
        assert!(got.iter().all(|s| s.bytes == s.span.slice(doc)));
        assert_eq!(stats.bytes_stitched, 8 + 12);
    }

    #[test]
    fn chunks_below_the_low_watermark_are_released() {
        let compiled = splitter::sentences().compile();
        let mut st = StreamingSplitter::new(&compiled);
        let doc: Vec<u8> = (0..64).flat_map(|_| b"fifteen bytes x.".to_vec()).collect();
        let mut held = 0;
        for piece in doc.chunks(8) {
            drop(st.push(piece));
            held = held.max(st.chunks.0.len());
        }
        // A segment spans at most three 8-byte chunks; none is kept
        // past the window once its segments are gone.
        assert!(held <= 3, "held {held} chunks");
    }
}

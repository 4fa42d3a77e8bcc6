//! Content-hash-keyed registries of compiled artifacts plus the
//! certification cache.
//!
//! Registration is idempotent and deduplicating: the id of a spanner is
//! the FNV-1a hash of `engine ++ pattern` (a splitter's of its source
//! spec, a fleet's of its member ids), so re-registering byte-identical
//! artifacts — from any connection, in any order — returns the already
//! compiled entry and counts a compile-cache hit. Certification
//! verdicts are memoized in a [`CertCache`] keyed by
//! `(spanner id, splitter id)`. A spanner and a fleet certify by one
//! route: probe the cache per member, certify the *uncached* members in
//! one [`certify_many`] batch (sharing that engine's composition memo
//! and fast-path routing), and seed the cache with the outcomes. So a
//! key's verdict does not depend on whether a spanner or a fleet asked
//! first.

use splitc_core::cache::{content_hash, CachedVerdict, CertCache, CertCacheStats};
use splitc_exec::{certify_many, CertifyConfig, CorpusHandle, Engine, ExecSpanner, Fleet};
use splitc_spanner::splitter as splitters;
use splitc_spanner::splitter::CompiledSplitter;
use splitc_spanner::{Splitter, Vsa};

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Renders a registry id in the wire format (16 hex digits). Ids are
/// strings on the wire because JSON numbers cannot carry 64 bits
/// exactly.
pub fn hex_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a wire-format id.
pub fn parse_hex_id(text: &str) -> Option<u64> {
    if text.len() != 16 {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

/// A registered, compiled spanner.
#[derive(Debug)]
pub struct SpannerEntry {
    /// Content hash of `(engine, pattern)` — the wire id.
    pub id: u64,
    /// The source regex formula.
    pub pattern: String,
    /// The engine it was compiled for.
    pub engine: Engine,
    /// The parsed VSA (kept for certification).
    pub vsa: Vsa,
    /// The compiled evaluator.
    pub exec: ExecSpanner,
}

/// A registered, compiled splitter.
#[derive(Debug)]
pub struct SplitterEntry {
    /// Content hash of the source spec — the wire id.
    pub id: u64,
    /// The source spec (`pattern:...` or `builtin:...`).
    pub spec: String,
    /// The parsed splitter (kept for certification).
    pub splitter: Splitter,
    /// The compiled streaming splitter.
    pub compiled: CompiledSplitter,
}

/// A registered fleet of spanners compiled for fused evaluation.
#[derive(Debug)]
pub struct FleetEntry {
    /// Content hash of the ordered member ids — the wire id.
    pub id: u64,
    /// Member spanner ids, in fleet order.
    pub member_ids: Vec<u64>,
    /// Member VSAs, in fleet order (kept for certification).
    pub vsas: Vec<Vsa>,
    /// The engine every member was compiled for.
    pub engine: Engine,
    /// The fused evaluator.
    pub fleet: Arc<Fleet>,
}

/// A server-maintained corpus resource: shard bytes plus their
/// maintained segmentation, bound to the splitter it was split under.
///
/// Unlike the compiled-artifact registries, corpora are **named by the
/// client** (ids are resource names, not content hashes — the same
/// name is re-`PUT` to replace) and **mutable**: `POST
/// /corpus/{id}/delta` edits the handle in place, resplitting only the
/// dirty window (see [`CorpusHandle`]). The per-entry mutex serializes
/// mutation and extraction of one corpus; distinct corpora proceed in
/// parallel.
#[derive(Debug)]
pub struct CorpusEntry {
    /// The client-chosen resource name.
    pub id: String,
    /// Id of the registered splitter the corpus is maintained under —
    /// extraction by corpus id certifies against *this* splitter.
    pub splitter_id: u64,
    /// The maintained shards + segmentations.
    pub handle: Mutex<CorpusHandle>,
}

/// Whether `id` is a legal corpus resource name: 1–64 characters from
/// `[A-Za-z0-9_-]` (it appears in a URL path, so no separators).
pub fn valid_corpus_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// How a splitter is specified on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SplitterSpec {
    /// A unary spanner given as a regex formula.
    Pattern(String),
    /// One of the built-in splitters by name.
    Builtin(String),
}

impl SplitterSpec {
    /// The canonical string hashed into the splitter's id.
    fn canonical(&self) -> String {
        match self {
            SplitterSpec::Pattern(p) => format!("pattern:{p}"),
            SplitterSpec::Builtin(b) => format!("builtin:{b}"),
        }
    }

    fn build(&self) -> Result<Splitter, String> {
        match self {
            SplitterSpec::Pattern(p) => Splitter::parse(p),
            SplitterSpec::Builtin(name) => match name.as_str() {
                "sentences" => Ok(splitters::sentences()),
                "lines" => Ok(splitters::lines()),
                "paragraphs" => Ok(splitters::paragraphs()),
                "http_messages" => Ok(splitters::http_messages()),
                "whole_document" => Ok(splitters::whole_document()),
                other => Err(format!(
                    "unknown builtin splitter {other:?} (expected sentences|lines|paragraphs|http_messages|whole_document)"
                )),
            },
        }
    }
}

/// Hit/miss counters of the compile cache, one pair per artifact kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileCacheStats {
    /// Registrations answered by an existing entry.
    pub hits: u64,
    /// Registrations that compiled a new entry.
    pub misses: u64,
}

/// The server's shared state: three artifact registries and the
/// certification cache.
#[derive(Debug, Default)]
pub struct Registry {
    spanners: Mutex<HashMap<u64, Arc<SpannerEntry>>>,
    splitters: Mutex<HashMap<u64, Arc<SplitterEntry>>>,
    fleets: Mutex<HashMap<u64, Arc<FleetEntry>>>,
    corpora: Mutex<HashMap<String, Arc<CorpusEntry>>>,
    cert: CertCache,
    compile_hits: AtomicU64,
    compile_misses: AtomicU64,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or finds) a spanner compiled from `pattern` for
    /// `engine`. The boolean is `true` when the entry already existed.
    pub fn register_spanner(
        &self,
        pattern: &str,
        engine: Engine,
    ) -> Result<(Arc<SpannerEntry>, bool), String> {
        let id = content_hash(format!("spanner:{}:{pattern}", engine.name()).as_bytes());
        if let Some(entry) = self.spanners.lock().get(&id) {
            self.compile_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((entry.clone(), true));
        }
        // Compile outside the lock; first insert wins on a race.
        let rgx = splitc_spanner::Rgx::parse(pattern).map_err(|e| e.to_string())?;
        let vsa = rgx.to_vsa().map_err(|e| e.to_string())?;
        let exec = ExecSpanner::compile_with(&vsa, engine);
        let entry = Arc::new(SpannerEntry {
            id,
            pattern: pattern.to_string(),
            engine,
            vsa,
            exec,
        });
        let stored = self.spanners.lock().entry(id).or_insert(entry).clone();
        self.compile_misses.fetch_add(1, Ordering::Relaxed);
        Ok((stored, false))
    }

    /// Registers (or finds) a splitter. The boolean is `true` when the
    /// entry already existed.
    pub fn register_splitter(
        &self,
        spec: &SplitterSpec,
    ) -> Result<(Arc<SplitterEntry>, bool), String> {
        let canonical = spec.canonical();
        let id = content_hash(canonical.as_bytes());
        if let Some(entry) = self.splitters.lock().get(&id) {
            self.compile_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((entry.clone(), true));
        }
        let splitter = spec.build()?;
        let compiled = splitter.compile();
        let entry = Arc::new(SplitterEntry {
            id,
            spec: canonical,
            splitter,
            compiled,
        });
        let stored = self.splitters.lock().entry(id).or_insert(entry).clone();
        self.compile_misses.fetch_add(1, Ordering::Relaxed);
        Ok((stored, false))
    }

    /// Registers (or finds) a fleet over already-registered member
    /// spanners. All members must share one engine (the fused pass
    /// compiles one shared byte partition). The boolean is `true` when
    /// the entry already existed.
    pub fn register_fleet(&self, member_ids: &[u64]) -> Result<(Arc<FleetEntry>, bool), String> {
        if member_ids.is_empty() {
            return Err("a fleet needs at least one member".into());
        }
        let mut key = String::from("fleet");
        for m in member_ids {
            key.push(':');
            key.push_str(&hex_id(*m));
        }
        let id = content_hash(key.as_bytes());
        if let Some(entry) = self.fleets.lock().get(&id) {
            self.compile_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((entry.clone(), true));
        }
        let mut vsas = Vec::with_capacity(member_ids.len());
        let mut engine = None;
        for m in member_ids {
            let member = self
                .spanner(*m)
                .ok_or_else(|| format!("unknown spanner {}", hex_id(*m)))?;
            match engine {
                None => engine = Some(member.engine),
                Some(e) if e == member.engine => {}
                Some(e) => {
                    return Err(format!(
                        "fleet members must share one engine ({} vs {})",
                        e.name(),
                        member.engine.name()
                    ))
                }
            }
            vsas.push(member.vsa.clone());
        }
        let engine = engine.expect("non-empty fleet");
        let fleet = Arc::new(Fleet::compile(&vsas, engine));
        let entry = Arc::new(FleetEntry {
            id,
            member_ids: member_ids.to_vec(),
            vsas,
            engine,
            fleet,
        });
        let stored = self.fleets.lock().entry(id).or_insert(entry).clone();
        self.compile_misses.fetch_add(1, Ordering::Relaxed);
        Ok((stored, false))
    }

    /// Creates or replaces the corpus resource named `id`, split under
    /// `splitter_id`. Returns the stored entry plus whether an existing
    /// corpus was replaced. `PUT` semantics: the whole resource is the
    /// request's shard set; incremental changes go through deltas.
    pub fn put_corpus(
        &self,
        id: &str,
        splitter_id: u64,
        handle: CorpusHandle,
    ) -> (Arc<CorpusEntry>, bool) {
        let entry = Arc::new(CorpusEntry {
            id: id.to_string(),
            splitter_id,
            handle: Mutex::new(handle),
        });
        let replaced = self
            .corpora
            .lock()
            .insert(id.to_string(), entry.clone())
            .is_some();
        (entry, replaced)
    }

    /// Looks a corpus resource up by name.
    pub fn corpus(&self, id: &str) -> Option<Arc<CorpusEntry>> {
        self.corpora.lock().get(id).cloned()
    }

    /// Deletes the corpus resource named `id`; `false` if it did not
    /// exist.
    pub fn remove_corpus(&self, id: &str) -> bool {
        self.corpora.lock().remove(id).is_some()
    }

    /// Corpus resources currently held.
    pub fn corpus_count(&self) -> usize {
        self.corpora.lock().len()
    }

    /// Looks a spanner up by id.
    pub fn spanner(&self, id: u64) -> Option<Arc<SpannerEntry>> {
        self.spanners.lock().get(&id).cloned()
    }

    /// Looks a splitter up by id.
    pub fn splitter(&self, id: u64) -> Option<Arc<SplitterEntry>> {
        self.splitters.lock().get(&id).cloned()
    }

    /// Looks a fleet up by id.
    pub fn fleet(&self, id: u64) -> Option<Arc<FleetEntry>> {
        self.fleets.lock().get(&id).cloned()
    }

    /// Certifies `P = P ∘ S` (self-split-correctness — the property
    /// that licenses per-segment parallel evaluation) for a registered
    /// pair, through the cache. The boolean is `true` on a cache hit.
    pub fn certify_spanner(
        &self,
        spanner: &SpannerEntry,
        splitter: &SplitterEntry,
    ) -> (CachedVerdict, bool) {
        let ids = std::slice::from_ref(&spanner.id);
        let (mut verdicts, cached) =
            self.certify_members(ids, std::slice::from_ref(&spanner.vsa), splitter);
        (verdicts.pop().expect("one member"), cached)
    }

    /// Certifies every member of a fleet against `splitter` through the
    /// cache. Returns per-member verdicts in fleet order plus whether
    /// every member was already cached.
    pub fn certify_fleet(
        &self,
        fleet: &FleetEntry,
        splitter: &SplitterEntry,
    ) -> (Vec<CachedVerdict>, bool) {
        self.certify_members(&fleet.member_ids, &fleet.vsas, splitter)
    }

    /// The one certification route: one [`CertCache::get`] per member
    /// (`ids[i]` names `vsas[i]`), one [`certify_many`] batch over the
    /// misses, then a [`CertCache::insert`] per outcome. Returns the
    /// verdicts in member order and whether every member was cached.
    pub(crate) fn certify_members(
        &self,
        ids: &[u64],
        vsas: &[Vsa],
        splitter: &SplitterEntry,
    ) -> (Vec<CachedVerdict>, bool) {
        let mut verdicts: Vec<Option<CachedVerdict>> = ids
            .iter()
            .map(|&id| self.cert.get((id, splitter.id)))
            .collect();
        let missing: Vec<(usize, usize)> = (0..ids.len())
            .filter(|&i| verdicts[i].is_none())
            .map(|i| (i, i))
            .collect();
        let all_cached = missing.is_empty();
        if !all_cached {
            let result = certify_many(
                vsas,
                &splitter.splitter,
                &missing,
                &CertifyConfig::default(),
            );
            for outcome in result.outcomes {
                let i = outcome.pair.0;
                verdicts[i] = Some(self.cert.insert((ids[i], splitter.id), outcome.verdict));
            }
        }
        let verdicts = verdicts
            .into_iter()
            .map(|v| v.expect("every member resolved"));
        (verdicts.collect(), all_cached)
    }

    /// Certification-cache counters.
    pub fn cert_stats(&self) -> CertCacheStats {
        self.cert.stats()
    }

    /// Compile-cache counters.
    pub fn compile_stats(&self) -> CompileCacheStats {
        CompileCacheStats {
            hits: self.compile_hits.load(Ordering::Relaxed),
            misses: self.compile_misses.load(Ordering::Relaxed),
        }
    }

    /// All registered spanner entries, sorted by id for deterministic
    /// listings (`/stats` reports each entry's requested engine and the
    /// tier compile-time tiering actually chose).
    pub fn spanner_entries(&self) -> Vec<Arc<SpannerEntry>> {
        let mut entries: Vec<Arc<SpannerEntry>> = self.spanners.lock().values().cloned().collect();
        entries.sort_by_key(|e| e.id);
        entries
    }

    /// `(spanners, splitters, fleets)` currently registered.
    pub fn counts(&self) -> (usize, usize, usize) {
        (
            self.spanners.lock().len(),
            self.splitters.lock().len(),
            self.fleets.lock().len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip_and_are_content_addressed() {
        let r = Registry::new();
        let (a, cached_a) = r.register_spanner(".*x{a+}.*", Engine::Dense).unwrap();
        let (b, cached_b) = r.register_spanner(".*x{a+}.*", Engine::Dense).unwrap();
        assert!(!cached_a && cached_b);
        assert_eq!(a.id, b.id);
        assert_eq!(parse_hex_id(&hex_id(a.id)), Some(a.id));
        assert_eq!(parse_hex_id("zz"), None);
        // Same pattern, different engine: a different artifact.
        let (c, _) = r.register_spanner(".*x{a+}.*", Engine::Nfa).unwrap();
        assert_ne!(a.id, c.id);
        let stats = r.compile_stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert!(r.register_spanner("x{", Engine::Dense).is_err());
    }

    #[test]
    fn splitter_specs() {
        let r = Registry::new();
        let (s1, _) = r
            .register_splitter(&SplitterSpec::Builtin("sentences".into()))
            .unwrap();
        let (s2, cached) = r
            .register_splitter(&SplitterSpec::Builtin("sentences".into()))
            .unwrap();
        assert!(cached);
        assert_eq!(s1.id, s2.id);
        assert!(r
            .register_splitter(&SplitterSpec::Builtin("bogus".into()))
            .is_err());
        let (p, _) = r
            .register_splitter(&SplitterSpec::Pattern(r"(.*,)?x{[^,]+}(,.*)?".into()))
            .unwrap();
        assert_ne!(p.id, s1.id);
        assert!(r
            .register_splitter(&SplitterSpec::Pattern("x{".into()))
            .is_err());
    }

    #[test]
    fn certification_caches_across_spanner_and_fleet_paths() {
        let r = Registry::new();
        let (sp, _) = r.register_spanner(".*x{a+}.*", Engine::Dense).unwrap();
        let (sl, _) = r
            .register_splitter(&SplitterSpec::Builtin("sentences".into()))
            .unwrap();
        let (v, cached) = r.certify_spanner(&sp, &sl);
        assert!(!cached);
        assert!(v.unwrap().holds());
        let (_, cached) = r.certify_spanner(&sp, &sl);
        assert!(cached);

        // A fleet containing the already-certified member plus a fresh
        // one: only the fresh member goes through certify_many.
        let (sp2, _) = r.register_spanner(".*y{b+}.*", Engine::Dense).unwrap();
        let (fl, _) = r.register_fleet(&[sp.id, sp2.id]).unwrap();
        let misses_before = r.cert_stats().misses;
        let (verdicts, all_cached) = r.certify_fleet(&fl, &sl);
        assert!(!all_cached);
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts.iter().all(|v| v.as_ref().unwrap().holds()));
        assert_eq!(r.cert_stats().misses, misses_before + 1, "one new member");
        let (_, all_cached) = r.certify_fleet(&fl, &sl);
        assert!(all_cached, "second fleet certification is all hits");
    }

    #[test]
    fn corpus_store_is_named_and_mutable() {
        let r = Registry::new();
        let (sl, _) = r
            .register_splitter(&SplitterSpec::Builtin("sentences".into()))
            .unwrap();
        let handle = CorpusHandle::from_shards(
            sl.compiled.clone(),
            vec![b"one one. two.".to_vec(), b"three.".to_vec()],
        );
        let (entry, replaced) = r.put_corpus("wiki", sl.id, handle);
        assert!(!replaced);
        assert_eq!(entry.handle.lock().num_shards(), 2);
        assert_eq!(r.corpus("wiki").unwrap().splitter_id, sl.id);
        assert_eq!(r.corpus_count(), 1);
        // Re-PUT replaces the whole resource under the same name.
        let (_, replaced) = r.put_corpus("wiki", sl.id, CorpusHandle::new(sl.compiled.clone()));
        assert!(replaced);
        assert_eq!(r.corpus("wiki").unwrap().handle.lock().num_shards(), 0);
        // Deltas through the stored entry are visible to later lookups.
        let entry = r.corpus("wiki").unwrap();
        entry.handle.lock().push_shard(b"added.".to_vec());
        assert_eq!(r.corpus("wiki").unwrap().handle.lock().num_shards(), 1);
        assert!(r.remove_corpus("wiki"));
        assert!(!r.remove_corpus("wiki"), "already gone");
        assert!(r.corpus("wiki").is_none());

        for ok in ["a", "wiki-2_dump", &"x".repeat(64)] {
            assert!(valid_corpus_id(ok), "{ok:?}");
        }
        for bad in ["", "a/b", "a b", "é", &"x".repeat(65)] {
            assert!(!valid_corpus_id(bad), "{bad:?}");
        }
    }

    #[test]
    fn fleet_registration_validates_members() {
        let r = Registry::new();
        assert!(r.register_fleet(&[]).is_err());
        assert!(r.register_fleet(&[42]).is_err(), "unknown member");
        let (a, _) = r.register_spanner(".*x{a+}.*", Engine::Dense).unwrap();
        let (b, _) = r.register_spanner(".*x{b+}.*", Engine::Nfa).unwrap();
        assert!(r.register_fleet(&[a.id, b.id]).is_err(), "mixed engines");
        let (fl, cached) = r.register_fleet(&[a.id]).unwrap();
        assert!(!cached);
        assert_eq!(fl.member_ids, vec![a.id]);
        let (_, cached) = r.register_fleet(&[a.id]).unwrap();
        assert!(cached);
    }
}

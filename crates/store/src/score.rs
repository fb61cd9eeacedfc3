//! Per-sub-graph score spans in lanes over one slot-stable layout.
//!
//! The engine's global score vector is the Equation-8 fold of one local
//! contribution vector per sub-graph, added in **ascending sub-graph index
//! order** (the bitwise determinism anchor, DESIGN.md §3.8). The sampled
//! estimator folds its scaled estimates and their squared standard errors
//! the same way. This module stores all three as **lanes** ([`Lane`]) over
//! one shared layout — one `Arc<[f64]>` span per sub-graph per lane — plus
//! enough indexing to fold any single vertex of any lane on demand:
//!
//! * **Slots.** Sub-graph indices are renumbered by every structural
//!   splice (survivors compact downward, fresh groups append at the tail),
//!   so per-vertex owner entries reference a stable *slot* instead. A
//!   splice then rewrites only the O(S) `order`/`rank` maps, never the
//!   owner entries of untouched vertices.
//! * **Owner index.** `vertex -> [(slot, local)]` lists, chunked
//!   [`INDEX_CHUNK_SIZE`] vertices per `Arc` so a splice deep-copies only
//!   the chunks containing touched vertices. Entries are unordered; folds
//!   sort the (tiny — one per owning sub-graph) list by current rank.
//! * **Layout sharing.** Slot maps, vertex lists and the owner index sit
//!   behind one `Arc`, so every lane's [`ScoreChunks`] snapshot shares it;
//!   only a splice or rebuild replaces it.
//! * **Fold order.** [`FoldStore::fold_vertex`] and
//!   [`ScoreChunks::score`] start from `0.0` and add owner contributions
//!   in ascending current-index order — the exact float-add sequence of
//!   the full from-zeros refold, hence bitwise-identical results. A lane
//!   span that was never set contributes nothing.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use apgre_graph::VertexId;

/// Vertices per owner-index chunk.
pub const INDEX_CHUNK_SIZE: usize = 1024;
const INDEX_CHUNK_BITS: u32 = INDEX_CHUNK_SIZE.trailing_zeros();

/// One kind of per-sub-graph span the store folds. Every lane shares the
/// store's slot layout; each slot holds at most one span per lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// Exact Equation-7 contributions: the engine's BC scores.
    Exact,
    /// Scaled sampled contributions: the sampled estimates.
    Estimate,
    /// Squared standard-error contributions of the estimates.
    StderrSq,
}

impl Lane {
    /// Every lane, in storage order.
    pub const ALL: [Lane; 3] = [Lane::Exact, Lane::Estimate, Lane::StderrSq];
}

/// Per-slot spans of one lane (`None` = never set, or a free slot).
type Spans = Vec<Option<Arc<[f64]>>>;

/// Owner entries for one run of [`INDEX_CHUNK_SIZE`] consecutive vertices:
/// CSR-style offsets into a flat `(slot, local)` pair list.
#[derive(Clone, Debug)]
struct IndexChunk {
    /// Per-vertex entry ranges; `covered_vertices + 1` offsets. Vertices
    /// past the covered prefix (grown after the chunk was last rebuilt)
    /// implicitly have no entries.
    offsets: Vec<u32>,
    /// `(slot, local)` owner pairs, unordered within a vertex.
    pairs: Vec<(u32, u32)>,
}

impl IndexChunk {
    fn empty() -> Self {
        IndexChunk { offsets: vec![0], pairs: Vec::new() }
    }

    fn entries(&self, local: usize) -> &[(u32, u32)] {
        if local + 1 >= self.offsets.len() {
            return &[];
        }
        &self.pairs[self.offsets[local] as usize..self.offsets[local + 1] as usize]
    }
}

/// The slot layout every lane shares: per-slot vertex lists, the
/// `index <-> slot` maps and the chunked owner index.
#[derive(Clone, Debug, Default)]
struct Layout {
    num_vertices: usize,
    /// Per-slot sub-graph vertex lists (`None` = free slot). Retained for
    /// dead slots' vertices at splice time, so the engine never needs the
    /// pre-splice decomposition.
    globals: Vec<Option<Arc<[u32]>>>,
    /// Current sub-graph index -> slot (ascending fold order).
    order: Vec<u32>,
    /// Slot -> current sub-graph index (`u32::MAX` when dead).
    rank: Vec<u32>,
    index: Vec<Arc<IndexChunk>>,
}

impl Layout {
    /// Folds vertex `v` of the lane whose per-slot spans are `spans`, in
    /// ascending current-index order, starting from `0.0` — the same
    /// float-add sequence as [`Layout::flat`].
    fn fold_at(&self, spans: &[Option<Arc<[f64]>>], v: usize) -> f64 {
        let entries = match self.index.get(v >> INDEX_CHUNK_BITS) {
            Some(c) => c.entries(v & (INDEX_CHUNK_SIZE - 1)),
            None => &[],
        };
        let mut owners: Vec<(u32, u32)> = entries.to_vec();
        if owners.len() > 1 {
            owners.sort_unstable_by_key(|&(slot, _)| self.rank.get(slot as usize));
        }
        let mut acc = 0.0f64;
        for (slot, local) in owners {
            if let Some(Some(span)) = spans.get(slot as usize) {
                acc += span[local as usize];
            }
        }
        acc
    }

    /// The whole lane folded from zeros in ascending sub-graph index order.
    fn flat(&self, spans: &[Option<Arc<[f64]>>]) -> Vec<f64> {
        let mut out = vec![0.0f64; self.num_vertices];
        for &slot in &self.order {
            let slot = slot as usize;
            if let (Some(Some(globals)), Some(Some(span))) =
                (self.globals.get(slot), spans.get(slot))
            {
                for (&v, &x) in globals.iter().zip(span.iter()) {
                    if let Some(o) = out.get_mut(v as usize) {
                        *o += x;
                    }
                }
            }
        }
        out
    }

    /// Replaces owner-index chunk `c`, recomputing the entries of
    /// `touched` vertices (all within the chunk) and carrying everything
    /// else over verbatim.
    fn rebuild_index_chunk(
        &mut self,
        c: usize,
        touched: &[u32],
        dead: &[bool],
        fresh: &HashMap<u32, Vec<(u32, u32)>>,
    ) {
        let Some(old) = self.index.get(c).map(Arc::clone) else { return };
        let first = c * INDEX_CHUNK_SIZE;
        let len = INDEX_CHUNK_SIZE.min(self.num_vertices - first);
        let mut chunk = IndexChunk {
            offsets: Vec::with_capacity(len + 1),
            pairs: Vec::with_capacity(old.pairs.len()),
        };
        chunk.offsets.push(0);
        let mut ti = 0;
        for local in 0..len {
            let v = (first + local) as u32;
            let is_touched = ti < touched.len() && touched[ti] == v;
            if is_touched {
                ti += 1;
                for &(slot, sl) in old.entries(local) {
                    if !dead.get(slot as usize).copied().unwrap_or(false) {
                        chunk.pairs.push((slot, sl));
                    }
                }
                if let Some(extra) = fresh.get(&v) {
                    chunk.pairs.extend_from_slice(extra);
                }
            } else {
                chunk.pairs.extend_from_slice(old.entries(local));
            }
            chunk.offsets.push(chunk.pairs.len() as u32);
        }
        debug_assert_eq!(ti, touched.len(), "touched vertex outside chunk {c}");
        self.index[c] = Arc::new(chunk);
    }
}

/// The engine-side store: one slot layout and, per slot, one span per
/// [`Lane`].
///
/// The engine is the only mutator; [`FoldStore::chunks`] snapshots one
/// lane in O(sub-graphs) `Arc` clones, sharing the layout itself.
#[derive(Debug, Default)]
pub struct FoldStore {
    layout: Arc<Layout>,
    free: Vec<u32>,
    /// Per-lane spans, each aligned with the layout's slots; indexed in
    /// [`Lane::ALL`] order.
    spans: [Spans; Lane::ALL.len()],
    /// Slots whose [`Lane::Exact`] span was replaced since the last
    /// [`FoldStore::take_copied`] window.
    copied: HashSet<u32>,
}

impl FoldStore {
    // `spans` has one entry per `Lane` variant, so `lane as usize` is
    // always in bounds.
    fn lane(&self, lane: Lane) -> &Spans {
        &self.spans[lane as usize] // lint:allow(panic_path)
    }

    fn lane_mut(&mut self, lane: Lane) -> &mut Spans {
        &mut self.spans[lane as usize] // lint:allow(panic_path)
    }

    /// The slot of sub-graph `index` (current indexing), if it is live.
    fn slot(&self, index: usize) -> Option<usize> {
        self.layout.order.get(index).map(|&s| s as usize)
    }

    /// A store laid out over `globals`, the vertex lists of every sub-graph
    /// in index order, with every lane unset.
    pub fn new<'a>(num_vertices: usize, globals: impl IntoIterator<Item = &'a [u32]>) -> Self {
        let mut store = FoldStore::default();
        let _ = store.rebuild(num_vertices, globals, &[]);
        store
    }

    /// Replaces the layout with `globals`, the vertex lists of every
    /// sub-graph in index order (seed and rebuild paths — O(V) by nature
    /// there). `carry[i] = Some(old)` moves every lane span of pre-rebuild
    /// sub-graph `old` to new sub-graph `i` ([`carry_by_fingerprint`]
    /// builds such a map, equal lengths guaranteed); every other span
    /// starts unset. An empty `carry` carries nothing.
    ///
    /// Returns the carry inverted into an `old_to_new` map (the
    /// [`FoldStore::apply_splice`] contract), for remapping per-sub-graph
    /// metadata the same way.
    pub fn rebuild<'a>(
        &mut self,
        num_vertices: usize,
        globals: impl IntoIterator<Item = &'a [u32]>,
        carry: &[Option<u32>],
    ) -> Vec<Option<u32>> {
        let mut old = std::mem::take(self);
        let mut old_to_new = vec![None; old.num_subgraphs()];
        for (new, src) in carry.iter().enumerate() {
            if let Some(dst) = src.and_then(|o| old_to_new.get_mut(o as usize)) {
                *dst = Some(new as u32);
            }
        }
        // Every sub-graph is fresh to the empty store: slot `i` holds
        // sub-graph `i`, and the owner index is built by the splice path.
        let globals: Vec<&[u32]> = globals.into_iter().collect();
        self.apply_splice(num_vertices, &[], &globals);
        for (lane, old_lane) in self.spans.iter_mut().zip(&mut old.spans) {
            for (&slot, &dst) in old.layout.order.iter().zip(&old_to_new) {
                let to = dst.and_then(|n| lane.get_mut(n as usize));
                if let (Some(to), Some(span)) = (to, old_lane.get_mut(slot as usize)) {
                    *to = span.take();
                }
            }
        }
        self.copied = (0..globals.len() as u32).collect();
        old_to_new
    }

    /// Number of sub-graphs currently stored.
    pub fn num_subgraphs(&self) -> usize {
        self.layout.order.len()
    }

    /// The `lane` span of sub-graph `index` (current indexing); `None`
    /// when it was never set.
    pub fn values_of(&self, lane: Lane, index: usize) -> Option<Arc<[f64]>> {
        self.slot(index).and_then(|s| self.lane(lane).get(s)).and_then(Clone::clone)
    }

    /// Replaces the `lane` span of sub-graph `index` (current indexing).
    /// Only [`Lane::Exact`] writes count toward [`FoldStore::take_copied`].
    ///
    /// # Panics
    /// Panics when `index` is not a live sub-graph or `values` does not
    /// have one entry per vertex of it.
    pub fn set_values(&mut self, lane: Lane, index: usize, values: Arc<[f64]>) {
        let slot = self.slot(index);
        let len =
            slot.and_then(|s| self.layout.globals.get(s)).and_then(|g| g.as_ref()).map(|g| g.len());
        assert_eq!(
            len,
            Some(values.len()),
            "sub-graph {index}: no live slot or span length mismatch"
        );
        if let Some(dst) = slot.and_then(|s| self.lane_mut(lane).get_mut(s)) {
            *dst = Some(values);
        }
        if let (Lane::Exact, Some(s)) = (lane, slot) {
            self.copied.insert(s as u32);
        }
    }

    /// Unsets the `lane` span of sub-graph `index` (current indexing), so
    /// it folds as absent.
    pub fn clear_values(&mut self, lane: Lane, index: usize) {
        if let Some(dst) = self.slot(index).and_then(|s| self.lane_mut(lane).get_mut(s)) {
            *dst = None;
        }
    }

    /// Applies a structural splice: `old_to_new` maps pre-splice sub-graph
    /// indices to post-splice ones (`None` = dissolved), `new_globals`
    /// lists every post-splice sub-graph's vertex list (only consulted for
    /// fresh ones). Survivors keep every lane span; fresh sub-graphs start
    /// with every lane unset — the engine fills their [`Lane::Exact`] span
    /// via [`FoldStore::set_values`], since every fresh sub-graph is dirty
    /// by construction.
    ///
    /// Returns the sorted, deduplicated vertices whose owner set changed
    /// (members of dissolved and fresh sub-graphs); the engine refolds
    /// exactly these into its flat score vector. Every other vertex's fold
    /// input sequence is unchanged: survivors keep their relative order
    /// and unchanged spans, so its folded score is bitwise-stable.
    pub fn apply_splice(
        &mut self,
        num_vertices: usize,
        old_to_new: &[Option<u32>],
        new_globals: &[&[u32]],
    ) -> Vec<u32> {
        assert_eq!(old_to_new.len(), self.layout.order.len(), "splice map arity");
        // A patch-only batch keeps every sub-graph in place: leave the
        // layout, and every snapshot sharing it, untouched.
        let kept = old_to_new.iter().zip(0u32..).all(|(&dst, i)| dst == Some(i));
        if kept && new_globals.len() == old_to_new.len() && num_vertices == self.layout.num_vertices
        {
            return Vec::new();
        }
        let layout = Arc::make_mut(&mut self.layout);
        let mut new_order = vec![u32::MAX; new_globals.len()];
        let mut touched: Vec<u32> = Vec::new();
        let mut dead = vec![false; layout.globals.len()];

        for (old, &dst) in old_to_new.iter().enumerate() {
            let slot = layout.order[old];
            match dst {
                Some(n) => {
                    new_order[n as usize] = slot;
                    debug_assert_eq!(
                        layout.globals[slot as usize].as_deref(),
                        Some(new_globals[n as usize]),
                        "survivor {old}->{n} changed its vertex set"
                    );
                }
                None => {
                    dead[slot as usize] = true;
                    if let Some(g) = layout.globals[slot as usize].take() {
                        touched.extend_from_slice(&g);
                    }
                    for lane in &mut self.spans {
                        lane[slot as usize] = None;
                    }
                    self.free.push(slot);
                    self.copied.remove(&slot);
                }
            }
        }

        let mut fresh: HashMap<u32, Vec<(u32, u32)>> = HashMap::new();
        for (slot, g) in new_order.iter_mut().zip(new_globals) {
            if *slot != u32::MAX {
                continue;
            }
            let s = match self.free.pop() {
                Some(s) => s,
                None => {
                    layout.globals.push(None);
                    for lane in &mut self.spans {
                        lane.push(None);
                    }
                    dead.push(false);
                    (layout.globals.len() - 1) as u32
                }
            };
            for (local, &v) in g.iter().enumerate() {
                fresh.entry(v).or_default().push((s, local as u32));
                touched.push(v);
            }
            layout.globals[s as usize] = Some(Arc::from(*g));
            *slot = s;
        }

        layout.rank = vec![u32::MAX; layout.globals.len()];
        for (i, &s) in new_order.iter().enumerate() {
            layout.rank[s as usize] = i as u32;
        }
        layout.order = new_order;

        // Vertex growth: cover new ids with (implicitly empty) chunks.
        let num_chunks = num_vertices.div_ceil(INDEX_CHUNK_SIZE);
        while layout.index.len() < num_chunks {
            layout.index.push(Arc::new(IndexChunk::empty()));
        }
        layout.num_vertices = num_vertices;

        touched.sort_unstable();
        touched.dedup();
        // Rebuild the owner lists of touched vertices, one affected chunk
        // at a time; untouched chunks stay shared.
        for run in touched.chunk_by(|a, b| a >> INDEX_CHUNK_BITS == b >> INDEX_CHUNK_BITS) {
            let c = run.first().map_or(0, |&v| v as usize >> INDEX_CHUNK_BITS);
            layout.rebuild_index_chunk(c, run, &dead, &fresh);
        }
        touched
    }

    /// Folds one vertex of `lane` (ascending sub-graph index order, from
    /// `0.0`).
    pub fn fold_vertex(&self, lane: Lane, v: VertexId) -> f64 {
        self.layout.fold_at(self.lane(lane), v as usize)
    }

    /// The full `lane` vector, folded from zeros in ascending sub-graph
    /// index order — bitwise-identical to the engine's historical
    /// `refold`.
    pub fn to_flat(&self, lane: Lane) -> Vec<f64> {
        self.layout.flat(self.lane(lane))
    }

    /// An immutable snapshot of one lane: one `Arc` clone of the shared
    /// layout plus O(sub-graphs) span `Arc` clones.
    pub fn chunks(&self, lane: Lane) -> ScoreChunks {
        ScoreChunks { layout: Arc::clone(&self.layout), spans: self.lane(lane).clone() }
    }

    /// Publish accounting: `(exact spans replaced since the last call,
    /// live sub-graphs)`; resets the window.
    pub fn take_copied(&mut self) -> (usize, usize) {
        let live = self.num_subgraphs();
        let copied = self.copied.len().min(live);
        self.copied.clear();
        (copied, live)
    }

    /// Cross-checks one lane against a freshly-built store over the same
    /// `(vertex list, span)` pairs (`None` = span unset): identical flat
    /// fold (bitwise) and identical per-vertex folds. Used by the engine's
    /// `invariants` feature and the property tests.
    pub fn verify_against_fresh(
        &self,
        lane: Lane,
        num_vertices: usize,
        subgraphs: &[(&[u32], Option<Arc<[f64]>>)],
    ) -> Result<(), String> {
        let mut fresh = FoldStore::new(num_vertices, subgraphs.iter().map(|s| s.0));
        for (i, (_, span)) in subgraphs.iter().enumerate() {
            if let Some(span) = span {
                fresh.set_values(lane, i, Arc::clone(span));
            }
        }
        let want = fresh.to_flat(lane);
        let got = self.to_flat(lane);
        if got.len() != want.len() {
            return Err(format!("{lane:?}: length mismatch: {} vs {}", got.len(), want.len()));
        }
        for (v, (g, w)) in got.iter().zip(&want).enumerate() {
            let single = self.fold_vertex(lane, v as u32);
            if g.to_bits() != w.to_bits() || single.to_bits() != w.to_bits() {
                return Err(format!(
                    "{lane:?} vertex {v}: flat {g}, fold_vertex {single}, fresh {w}"
                ));
            }
        }
        Ok(())
    }
}

/// The rebuild path's carry map. Sub-graphs are keyed `(content
/// fingerprint, vertex count)`; `result[i] = Some(j)` when `new[i]` and
/// `old[j]` share a key, each old index used at most once (equal keys mean
/// bitwise-equal kernel input, so duplicates are interchangeable).
///
/// The vertex count in the key is the unconditional length guard: a 64-bit
/// fingerprint collision between sub-graphs of different sizes is a carry
/// miss, never a wrong-length span.
pub fn carry_by_fingerprint(old: &[(u64, usize)], new: &[(u64, usize)]) -> Vec<Option<u32>> {
    let mut pool: HashMap<(u64, usize), Vec<u32>> = HashMap::new();
    for (j, &key) in old.iter().enumerate() {
        pool.entry(key).or_default().push(j as u32);
    }
    new.iter().map(|key| pool.get_mut(key).and_then(Vec::pop)).collect()
}

/// An immutable, `Send + Sync` snapshot of one [`FoldStore`] lane:
/// per-sub-graph spans and the shared layout (owner index included, for
/// per-vertex folds), all behind `Arc`s. This is what [`apgre-serve`]'s
/// snapshots hold instead of a flat `Vec<f64>` clone.
///
/// [`apgre-serve`]: index.html
#[derive(Clone, Debug)]
pub struct ScoreChunks {
    layout: Arc<Layout>,
    spans: Spans,
}

impl ScoreChunks {
    /// Number of vertices covered (the length of [`ScoreChunks::to_vec`]).
    pub fn len(&self) -> usize {
        self.layout.num_vertices
    }

    /// Whether the score vector is empty.
    pub fn is_empty(&self) -> bool {
        self.layout.num_vertices == 0
    }

    /// One vertex's score, folded from its owning sub-graphs' spans in
    /// ascending sub-graph index order from `0.0` — bitwise-identical to
    /// `to_vec()[v]`.
    ///
    /// # Panics
    /// Panics when `v >= len()` (use [`ScoreChunks::get`] for checked
    /// access).
    pub fn score(&self, v: usize) -> f64 {
        assert!(v < self.len(), "vertex {v} out of range");
        self.layout.fold_at(&self.spans, v)
    }

    /// Checked [`ScoreChunks::score`].
    pub fn get(&self, v: usize) -> Option<f64> {
        (v < self.len()).then(|| self.layout.fold_at(&self.spans, v))
    }

    /// The flat score vector, folded from zeros in ascending sub-graph
    /// index order (bitwise-identical to the engine's flat scores).
    pub fn to_vec(&self) -> Vec<f64> {
        self.layout.flat(&self.spans)
    }

    /// Whether this snapshot and `other` share the backing span of
    /// sub-graph `index` (test/metrics introspection; both indices are in
    /// the *respective* snapshot's ordering).
    pub fn shares_span(&self, other: &ScoreChunks, index: usize) -> bool {
        let span = |s: &ScoreChunks| {
            let slot = *s.layout.order.get(index)? as usize;
            s.spans.get(slot)?.clone()
        };
        matches!((span(self), span(other)), (Some(x), Some(y)) if Arc::ptr_eq(&x, &y))
    }

    /// Whether this snapshot and `other` share one layout allocation (true
    /// for snapshots of any lanes taken with no splice or rebuild between
    /// them).
    pub fn shares_layout(&self, other: &ScoreChunks) -> bool {
        Arc::ptr_eq(&self.layout, &other.layout)
    }
}

/// Incremental top-k ranking over successive [`ScoreChunks`] snapshots.
///
/// A snapshot shares every span and owner-index chunk a batch did not touch
/// with its predecessor, so ranking work should track the dirty set the
/// same way publishing does. The cache therefore keys two artifacts by
/// **span identity** (the `Arc` allocation address, pinned by a held clone
/// so the address cannot be recycled while the entry lives):
///
/// * per score span: a prefix of its vertices ordered by `(value desc,
///   vertex id asc)` — recomputed only when the span was replaced (or a
///   larger prefix is needed),
/// * per owner-index chunk: the vertices with two or more owner entries
///   (articulation points shared by sub-graphs), whose global score is not
///   any single span's value.
///
/// At ranking time multi-owner vertices are folded exactly (there are few —
/// one per shared articulation point) and span prefixes contribute their
/// best `k` *single-owner* vertices; a single-owner vertex's global score
/// is bitwise its span value (folded `0.0 + x`), so span-local order is
/// global order. Caching a prefix of `k + |multi|` entries guarantees at
/// least `k` usable single-owner candidates precede any vertex the prefix
/// cut off, which makes the merge exact. Two cases fall back to ranking the
/// full folded vector: fewer than `k` candidates, and a `k`-th candidate of
/// exactly `0.0` (ownerless vertices — score `0.0` — appear in no span but
/// still rank by the id tie-break).
#[derive(Debug, Default)]
pub struct TopCache {
    /// Span address -> cached prefix.
    spans: HashMap<usize, SpanPrefix>,
    /// Owner-index chunk address -> multi-owner vertices in the chunk.
    multis: HashMap<usize, ChunkMulti>,
}

#[derive(Debug)]
struct SpanPrefix {
    /// Pins the span allocation so the address key stays unambiguous.
    _pin: Arc<[f64]>,
    /// `(value, vertex)` ordered by value desc, vertex asc; covers the
    /// whole span when `entries.len() == span length`.
    entries: Vec<(f64, u32)>,
}

#[derive(Debug)]
struct ChunkMulti {
    /// Pins the chunk allocation (same reasoning as [`SpanPrefix::_pin`]).
    _pin: Arc<IndexChunk>,
    /// Global ids of vertices with >= 2 owner entries, ascending.
    multi: Vec<u32>,
}

/// `(value desc, id asc)` — the ranking order of `/top` and the ranking
/// tests.
fn rank_cmp(a: &(f64, u32), b: &(f64, u32)) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1))
}

impl TopCache {
    /// An empty cache.
    pub fn new() -> Self {
        TopCache::default()
    }

    /// Cached span prefixes (introspection for reuse tests).
    pub fn cached_spans(&self) -> usize {
        self.spans.len()
    }

    /// The ids of the `k` highest-scoring vertices of `snap`, ordered by
    /// `(value desc, id asc)` — identical to sorting the full folded vector,
    /// but touching only spans that changed since the previous call.
    pub fn top_k(&mut self, snap: &ScoreChunks, k: usize) -> Vec<u32> {
        let k = k.min(snap.len());
        if k == 0 {
            return Vec::new();
        }

        // Multi-owner vertices, from per-chunk caches (chunk `Arc`s are
        // position-stable: chunk `c` always covers the same vertex range).
        let mut live_chunks: HashSet<usize> = HashSet::with_capacity(snap.layout.index.len());
        let mut multi: Vec<u32> = Vec::new();
        for (c, chunk) in snap.layout.index.iter().enumerate() {
            let key = Arc::as_ptr(chunk) as usize;
            live_chunks.insert(key);
            let entry = self.multis.entry(key).or_insert_with(|| {
                let first = c * INDEX_CHUNK_SIZE;
                let mut m = Vec::new();
                for local in 0..chunk.offsets.len().saturating_sub(1) {
                    if chunk.entries(local).len() >= 2 {
                        m.push((first + local) as u32);
                    }
                }
                ChunkMulti { _pin: Arc::clone(chunk), multi: m }
            });
            multi.extend_from_slice(&entry.multi);
        }
        self.multis.retain(|key, _| live_chunks.contains(key));

        // Per-span prefixes, recomputed only for replaced spans (or when a
        // larger prefix is needed than was cached).
        let cap_target = k + multi.len();
        let mut live_spans: HashSet<usize> = HashSet::with_capacity(snap.layout.order.len());
        let mut cands: Vec<(f64, u32)> =
            Vec::with_capacity(multi.len() + k * snap.layout.order.len());
        for &slot in &snap.layout.order {
            let (globals, values) =
                match (snap.layout.globals.get(slot as usize), snap.spans.get(slot as usize)) {
                    (Some(Some(g)), Some(Some(v))) => (g, v),
                    _ => continue,
                };
            let key = Arc::as_ptr(values) as *const u8 as usize;
            live_spans.insert(key);
            let cap = cap_target.min(globals.len());
            let stale = match self.spans.get(&key) {
                Some(p) => p.entries.len() < cap,
                None => true,
            };
            if stale {
                let mut all: Vec<(f64, u32)> =
                    values.iter().copied().zip(globals.iter().copied()).collect();
                if cap < all.len() {
                    all.select_nth_unstable_by(cap - 1, rank_cmp);
                    all.truncate(cap);
                }
                all.sort_unstable_by(rank_cmp);
                self.spans.insert(key, SpanPrefix { _pin: Arc::clone(values), entries: all });
            }
            let prefix = &self.spans[&key];
            let mut taken = 0usize;
            for &(v, id) in &prefix.entries {
                if taken == k {
                    break;
                }
                if multi.binary_search(&id).is_err() {
                    cands.push((v, id));
                    taken += 1;
                }
            }
        }
        self.spans.retain(|key, _| live_spans.contains(key));

        // Multi-owner vertices enter with their exact fold.
        for &v in &multi {
            cands.push((snap.score(v as usize), v));
        }
        cands.sort_unstable_by(rank_cmp);

        if cands.len() < k || cands[k - 1].0 == 0.0 {
            // Not enough owned vertices, or zero-score ties with ownerless
            // vertices: rank the full folded vector.
            let flat = snap.to_vec();
            let mut all: Vec<(f64, u32)> = flat.into_iter().zip(0u32..).collect();
            all.sort_unstable_by(rank_cmp);
            return all.into_iter().take(k).map(|(_, id)| id).collect();
        }
        cands.truncate(k);
        cands.into_iter().map(|(_, id)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc_u32(v: &[u32]) -> Arc<[u32]> {
        Arc::from(v)
    }

    fn arc_f64(v: &[f64]) -> Arc<[f64]> {
        Arc::from(v)
    }

    /// A store laid out over `subgraphs` with their spans in the exact lane.
    fn built(num_vertices: usize, subgraphs: Vec<(Arc<[u32]>, Arc<[f64]>)>) -> FoldStore {
        let mut store = FoldStore::new(num_vertices, subgraphs.iter().map(|s| &s.0[..]));
        for (i, (_, span)) in subgraphs.into_iter().enumerate() {
            store.set_values(Lane::Exact, i, span);
        }
        store
    }

    /// Two sub-graphs sharing vertex 2 (an articulation point).
    fn seed() -> FoldStore {
        built(
            6,
            vec![
                (arc_u32(&[0, 1, 2]), arc_f64(&[1.0, 2.0, 3.0])),
                (arc_u32(&[2, 3, 4]), arc_f64(&[0.5, 6.0, 7.0])),
            ],
        )
    }

    #[test]
    fn flat_and_per_vertex_folds_agree() {
        let store = seed();
        let flat = store.to_flat(Lane::Exact);
        assert_eq!(flat, vec![1.0, 2.0, 3.5, 6.0, 7.0, 0.0]);
        for v in 0..6 {
            assert_eq!(store.fold_vertex(Lane::Exact, v).to_bits(), flat[v as usize].to_bits());
        }
        let snap = store.chunks(Lane::Exact);
        assert_eq!(snap.to_vec(), flat);
        assert_eq!(snap.score(2).to_bits(), flat[2].to_bits());
        assert_eq!(snap.get(6), None);
    }

    #[test]
    fn set_values_updates_only_its_span() {
        let mut store = seed();
        let before = store.chunks(Lane::Exact);
        store.take_copied();
        store.set_values(Lane::Exact, 1, arc_f64(&[1.5, 1.5, 1.5]));
        let after = store.chunks(Lane::Exact);
        assert!(before.shares_span(&after, 0), "untouched span shared");
        assert!(!before.shares_span(&after, 1), "dirty span replaced");
        assert_eq!(store.take_copied(), (1, 2));
        assert_eq!(after.score(2), 3.0 + 1.5);
        assert_eq!(before.score(2), 3.5, "old snapshot unaffected");
    }

    #[test]
    fn splice_replaces_dissolved_with_fresh_at_tail() {
        let mut store = seed();
        store.take_copied();
        // Sub-graph 0 survives (now index 0), sub-graph 1 dissolves into
        // two fresh groups appended at the tail.
        let touched = store.apply_splice(7, &[Some(0), None], &[&[0, 1, 2], &[2, 3], &[3, 4, 6]]);
        assert_eq!(touched, vec![2, 3, 4, 6]);
        store.set_values(Lane::Exact, 1, arc_f64(&[0.25, 0.5]));
        store.set_values(Lane::Exact, 2, arc_f64(&[1.0, 2.0, 4.0]));
        assert_eq!(store.num_subgraphs(), 3);
        let flat = store.to_flat(Lane::Exact);
        assert_eq!(flat, vec![1.0, 2.0, 3.25, 1.5, 2.0, 0.0, 4.0]);
        for v in 0..7 {
            assert_eq!(store.fold_vertex(Lane::Exact, v).to_bits(), flat[v as usize].to_bits());
        }
        // Survivor's span is still shared with pre-splice snapshots.
        assert_eq!(store.take_copied(), (2, 3), "two fresh spans copied");
        store
            .verify_against_fresh(
                Lane::Exact,
                7,
                &[
                    (&[0, 1, 2], Some(arc_f64(&[1.0, 2.0, 3.0]))),
                    (&[2, 3], Some(arc_f64(&[0.25, 0.5]))),
                    (&[3, 4, 6], Some(arc_f64(&[1.0, 2.0, 4.0]))),
                ],
            )
            .expect("matches a fresh store");
    }

    #[test]
    fn fold_order_is_ascending_index_even_after_slot_reuse() {
        let mut store = seed();
        // Dissolve sub-graph 0; its slot is reused by a fresh group that
        // lands at the *tail* of the order.
        store.apply_splice(6, &[None, Some(0)], &[&[2, 3, 4], &[0, 1, 2]]);
        store.set_values(Lane::Exact, 1, arc_f64(&[10.0, 20.0, 30.0]));
        // Vertex 2 is owned by both; fold order must be index order
        // (survivor first), not slot order.
        let flat = store.to_flat(Lane::Exact);
        assert_eq!(flat[2].to_bits(), (0.0f64 + 0.5 + 30.0).to_bits());
        assert_eq!(store.fold_vertex(Lane::Exact, 2).to_bits(), flat[2].to_bits());
        let snap = store.chunks(Lane::Exact);
        assert_eq!(snap.score(2).to_bits(), flat[2].to_bits());
    }

    #[test]
    fn index_chunks_shared_when_untouched() {
        // Vertices split across two index chunks; splice touches only the
        // second chunk's vertices.
        let far = INDEX_CHUNK_SIZE as u32 + 5;
        let mut store = built(
            far as usize + 1,
            vec![
                (arc_u32(&[0, 1]), arc_f64(&[1.0, 2.0])),
                (arc_u32(&[far - 1, far]), arc_f64(&[3.0, 4.0])),
            ],
        );
        let before = store.chunks(Lane::Exact);
        store.apply_splice(far as usize + 1, &[Some(0), None], &[&[0, 1], &[far - 1, far]]);
        store.set_values(Lane::Exact, 1, arc_f64(&[5.0, 6.0]));
        let after = store.chunks(Lane::Exact);
        assert!(Arc::ptr_eq(&before.layout.index[0], &after.layout.index[0]), "chunk 0 untouched");
        assert!(!Arc::ptr_eq(&before.layout.index[1], &after.layout.index[1]), "chunk 1 rebuilt");
        assert_eq!(after.score(far as usize), 6.0);
        assert_eq!(before.score(far as usize), 4.0);
    }

    /// Reference ranking: full fold, sorted `(value desc, id asc)`.
    fn ranked_flat(snap: &ScoreChunks, k: usize) -> Vec<u32> {
        let mut all: Vec<(f64, u32)> = snap.to_vec().into_iter().zip(0u32..).collect();
        all.sort_unstable_by(rank_cmp);
        all.into_iter().take(k).map(|(_, id)| id).collect()
    }

    #[test]
    fn top_k_matches_full_sort_including_multi_owner_folds() {
        let store = seed();
        let snap = store.chunks(Lane::Exact);
        let mut cache = TopCache::new();
        for k in 0..=6 {
            assert_eq!(cache.top_k(&snap, k), ranked_flat(&snap, k), "k={k}");
        }
        // k beyond the vertex count clamps.
        assert_eq!(cache.top_k(&snap, 99).len(), 6);
    }

    #[test]
    fn top_k_reuses_untouched_span_prefixes() {
        let mut store = seed();
        let mut cache = TopCache::new();
        let before = store.chunks(Lane::Exact);
        assert_eq!(cache.top_k(&before, 3), ranked_flat(&before, 3));
        assert_eq!(cache.cached_spans(), 2);

        // Replace one span: the other's prefix must survive the prune.
        store.set_values(Lane::Exact, 1, arc_f64(&[0.5, 9.0, 8.0]));
        let after = store.chunks(Lane::Exact);
        let kept: Vec<usize> = cache.spans.keys().copied().collect();
        assert_eq!(cache.top_k(&after, 3), ranked_flat(&after, 3));
        assert_eq!(cache.cached_spans(), 2);
        let survivors = cache.spans.keys().filter(|k| kept.contains(k)).count();
        assert_eq!(survivors, 1, "untouched span prefix reused, dirty one replaced");
    }

    #[test]
    fn top_k_is_exact_when_the_articulation_fold_beats_span_values() {
        // Vertex 2 is owned by both spans with small per-span values whose
        // *sum* tops the ranking — the merge must fold it exactly rather
        // than trust either span-local order.
        let store = built(
            5,
            vec![
                (arc_u32(&[0, 1, 2]), arc_f64(&[4.0, 1.0, 3.0])),
                (arc_u32(&[2, 3, 4]), arc_f64(&[3.0, 2.0, 1.0])),
            ],
        );
        let snap = store.chunks(Lane::Exact);
        let mut cache = TopCache::new();
        assert_eq!(cache.top_k(&snap, 2), vec![2, 0], "2 folds to 6.0");
        assert_eq!(cache.top_k(&snap, 5), ranked_flat(&snap, 5));
    }

    #[test]
    fn top_k_breaks_zero_ties_by_id_with_ownerless_vertices() {
        // Vertices 0..3 are ownerless (score 0.0); the owned vertices also
        // fold to 0.0. Ranking is then purely the id tie-break, which only
        // the fallback path can see.
        let store = built(6, vec![(arc_u32(&[4, 5]), arc_f64(&[0.0, 0.0]))]);
        let snap = store.chunks(Lane::Exact);
        let mut cache = TopCache::new();
        assert_eq!(cache.top_k(&snap, 3), vec![0, 1, 2]);
        assert_eq!(cache.top_k(&snap, 6), ranked_flat(&snap, 6));
    }

    #[test]
    fn top_k_tracks_splices() {
        let mut store = seed();
        let mut cache = TopCache::new();
        let _ = cache.top_k(&store.chunks(Lane::Exact), 4);
        store.apply_splice(7, &[Some(0), None], &[&[0, 1, 2], &[2, 3], &[3, 4, 6]]);
        store.set_values(Lane::Exact, 1, arc_f64(&[0.25, 0.5]));
        store.set_values(Lane::Exact, 2, arc_f64(&[1.0, 2.0, 4.0]));
        let snap = store.chunks(Lane::Exact);
        for k in 1..=7 {
            assert_eq!(cache.top_k(&snap, k), ranked_flat(&snap, k), "k={k}");
        }
    }

    #[test]
    fn vertex_growth_extends_coverage() {
        let mut store = seed();
        let touched = store.apply_splice(9, &[Some(0), Some(1)], &[&[0, 1, 2], &[2, 3, 4]]);
        assert!(touched.is_empty(), "no membership changed");
        assert_eq!(store.to_flat(Lane::Exact).len(), 9);
        assert_eq!(store.fold_vertex(Lane::Exact, 8), 0.0);
        assert_eq!(store.chunks(Lane::Exact).get(8), Some(0.0));
    }
}

//! Seeded inputs: the relabelled workload graph and the mutation stream.
//!
//! The graph's shape comes from the repository's workload registry; the seed
//! picks a vertex relabelling (an isomorphic copy, so the work per solve is
//! the same for every seed) and drives every random choice of the mutation
//! stream and the request schedule.

use apgre_decomp::Decomposition;
use apgre_dynamic::MutationBatch;
use apgre_graph::{Graph, VertexId};
use apgre_workloads::Scale;

/// SplitMix64: a small, fully specified seeded generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate` per second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Builds the registry graph `name` at `scale` and relabels its vertices by
/// a seeded cyclic shift, reversed for odd seeds. The copy is isomorphic and
/// keeps the generator's id locality, so every seed costs the same work.
pub fn graph(name: &str, scale: Scale, seed: u64) -> Graph {
    let spec = apgre_workloads::get(name).expect("workload graph names come from the registry");
    let g = spec.graph(scale);
    let n = g.num_vertices();
    let shift = Rng::new(seed, 1).below(n.max(1));
    let label = |v: VertexId| {
        let v = (v as usize + shift) % n;
        (if seed % 2 == 1 { n - 1 - v } else { v }) as VertexId
    };
    let edges: Vec<(VertexId, VertexId)> =
        g.undirected_edges().map(|(u, v)| (label(u), label(v))).collect();
    Graph::undirected_from_edges(n, &edges)
}

/// Block vertices per chord candidate.
const CHORD_SPACING: usize = 8;

/// The two batch classes the stream mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Chord toggles inside non-top sub-graphs.
    Local,
    /// Whisker detach/attach, or a new vertex attached as a whisker.
    Structural,
}

/// A seeded, endless stream of valid mutation batches.
///
/// It tracks the edges it has toggled, so every batch it emits changes the
/// graph: a chord is added when absent and removed when this stream added
/// it; a whisker is detached when attached and re-attached when detached.
pub struct Stream {
    rng: Rng,
    /// Non-adjacent pairs inside one block, and whether each
    /// is currently present.
    chords: Vec<((VertexId, VertexId), bool)>,
    /// (whisker, host) pairs, and whether each is currently attached.
    whiskers: Vec<((VertexId, VertexId), bool)>,
    /// Vertex count of the graph the stream has produced so far.
    vertices: usize,
}

impl Stream {
    /// Candidates come from `g` and its decomposition `d`.
    pub fn new(g: &Graph, d: &Decomposition, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 2);
        // A chord joins two non-articulation vertices of one block outside
        // the top sub-graph (inside it only when no other block has room),
        // so adding or removing it never changes the block-cut tree. Each
        // block gets one chord per `CHORD_SPACING` of its vertices (at least
        // one), so chords fall on blocks in proportion to their size.
        let bcc = apgre_decomp::biconnected_components(g);
        let top = &d.subgraphs[d.top_subgraph];
        let chords_in = |skip_top: bool| {
            let mut chords = Vec::new();
            for block in &bcc.bcc_vertices {
                let inner: Vec<VertexId> = block
                    .iter()
                    .copied()
                    .filter(|&v| !(bcc.is_articulation[v as usize] || skip_top && top.contains(v)))
                    .collect();
                let wanted = (inner.len() / CHORD_SPACING).max(1);
                let pairs = inner.iter().enumerate().filter_map(|(a, &u)| {
                    let v = inner[a + 1..].iter().find(|&&v| !g.out_neighbors(u).contains(&v));
                    v.map(|&v| ((u, v), false))
                });
                chords.extend(pairs.take(wanted));
            }
            chords
        };
        let mut chords = chords_in(true);
        if chords.is_empty() {
            chords = chords_in(false);
        }
        let whiskers: Vec<((VertexId, VertexId), bool)> = g
            .vertices()
            .filter(|&v| g.out_degree(v) == 1 && g.out_degree(g.out_neighbors(v)[0]) > 1)
            .map(|v| ((v, g.out_neighbors(v)[0]), true))
            .collect();
        assert!(!chords.is_empty(), "graph has no block with room for a chord");
        assert!(!whiskers.is_empty(), "graph has no whiskers");
        // Shuffle so the seed decides which candidates the stream visits.
        for i in (1..chords.len()).rev() {
            chords.swap(i, rng.below(i + 1));
        }
        Stream { rng, chords, whiskers, vertices: g.num_vertices() }
    }

    /// The next batch of class `kind`.
    pub fn next(&mut self, kind: Kind) -> MutationBatch {
        match kind {
            Kind::Local => {
                let i = self.rng.below(self.chords.len());
                let ((u, v), present) = &mut self.chords[i];
                *present = !*present;
                if *present {
                    MutationBatch::new().add_edge(*u, *v)
                } else {
                    MutationBatch::new().remove_edge(*u, *v)
                }
            }
            Kind::Structural => {
                if self.rng.below(3) == 0 {
                    let host = self.whiskers[self.rng.below(self.whiskers.len())].0 .1;
                    let new = self.vertices as VertexId;
                    self.vertices += 1;
                    self.whiskers.push(((new, host), true));
                    MutationBatch::new().add_vertex().add_edge(new, host)
                } else {
                    let i = self.rng.below(self.whiskers.len());
                    let ((w, h), attached) = &mut self.whiskers[i];
                    *attached = !*attached;
                    if *attached {
                        MutationBatch::new().add_edge(*w, *h)
                    } else {
                        MutationBatch::new().remove_edge(*w, *h)
                    }
                }
            }
        }
    }
}

/// Renders a batch in the `POST /mutate` body format.
pub fn mutate_body(batch: &MutationBatch) -> String {
    use apgre_dynamic::Mutation;
    let mut body = String::new();
    for m in batch.mutations() {
        let line = match *m {
            Mutation::AddEdge(u, v) => format!("add {u} {v}\n"),
            Mutation::RemoveEdge(u, v) => format!("remove {u} {v}\n"),
            Mutation::AddVertex => "add-vertex\n".to_owned(),
            Mutation::RemoveVertex(v) => format!("remove-vertex {v}\n"),
        };
        body.push_str(&line);
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = graph("youtube-like", Scale::Tiny, 3);
        let b = graph("youtube-like", Scale::Tiny, 3);
        let c = graph("youtube-like", Scale::Tiny, 4);
        assert_eq!(a.csr(), b.csr());
        assert_ne!(a.csr(), c.csr());
        assert_eq!(a.num_edges(), c.num_edges());
    }

    #[test]
    fn stream_toggles_stay_valid() {
        let g = graph("youtube-like", Scale::Tiny, 1);
        let d = apgre_decomp::decompose(&g, &Default::default());
        let mut s = Stream::new(&g, &d, 1);
        let body = mutate_body(&s.next(Kind::Structural));
        assert!(body.starts_with("add") || body.starts_with("remove"), "{body}");
        // A chord is added the first time the stream toggles it.
        assert!(mutate_body(&s.next(Kind::Local)).starts_with("add "));
    }
}

//! The per-sub-graph BC kernels — the paper's Algorithm 2 (`BCinSG`).
//!
//! For every root `s ∈ R_sgi` a kernel runs one BFS over the sub-graph's
//! local CSR and one backward sweep that accumulates the four dependencies of
//! §3.1.1 simultaneously:
//!
//! * `δ_i2i` — Brandes' classic dependency, restricted to the sub-graph
//!   (Equation 3),
//! * `δ_i2o` — paths ending beyond a boundary articulation point, weighted by
//!   `α` (Equation 4),
//! * `δ_o2o` — paths crossing the sub-graph between two boundary points,
//!   weighted by `β(s)·α(t)` (Equation 6; only when `s` is itself a boundary
//!   point),
//! * `δ_o2i` — sources beyond `s`; never materialized as an array because
//!   Equation 5 reduces it to `β(s)·δ_i2i(v)` (the `sizeO2I` factor of
//!   Algorithm 2).
//!
//! The `δ^init` terms of Equations 4/6 are folded into the backward sweep
//! lazily (when a vertex is popped) rather than pre-initialized as in the
//! paper's phase 0 — same recursion, but the workspace reset stays
//! `O(reached)`.
//!
//! Scores merge per Equation 7. One deviation from the paper as printed, with
//! rationale in DESIGN.md §3.3: for **undirected** whiskers the root's own
//! score uses `γ(s)·(δ_i2i(s) − 1 + δ_i2o(s) + α(s))` — the `−1` excludes the
//! whisker itself from its derived target set, and the `+α(s)` restores the
//! `δ^init_i2o` term at the root that Algorithm 2's `i != s` guard drops.
//! Both corrections are pinned by the `apgre ≡ brandes` property tests.
//!
//! # One entry point, three schedules
//!
//! [`bc_in_subgraph`] is the only way in. It sweeps an explicit root slice
//! (`&sg.roots` for exact BC, a sample for the estimator) under one of three
//! schedules, chosen per sub-graph by [`super::KernelPolicy`] (see DESIGN.md
//! §3.7):
//!
//! * [`KernelChoice::Seq`] — one thread, plain `f64`, the shared
//!   `sweep_root` loop body;
//! * [`KernelChoice::RootParallel`] — coarse-grained **root-parallel**: roots
//!   are split into fixed chunks, each chunk swept with the *same* sequential
//!   sweep into a private partial score vector (zero atomics on the hot
//!   path), and the partials are merged by a fixed-shape tree — bitwise
//!   deterministic per pool size regardless of scheduling;
//! * [`KernelChoice::LevelSync`] — fine-grained **level-synchronous**: the
//!   paper's inner level of the two-level parallelization, for the
//!   few-roots-but-huge sub-graph regime where root supply cannot feed the
//!   workers.
//!
//! An observer (the adaptive estimator's per-root hook) forces the
//! sequential schedule, so roots are observed in slice order whatever the
//! choice. One caller-owned [`Workspace`] serves every schedule, so the
//! driver's buffer pool can recycle the `O(n)` scratch arrays across
//! sub-graphs instead of reallocating them per call.

use super::KernelChoice;
use crate::sync::{AtomicU32, Ordering};
use crate::util::{add_assign_scores, atomic_f64_vec, AtomicF64, Levels};
use apgre_decomp::SubGraph;
use apgre_graph::{VertexId, UNREACHED};
use rayon::prelude::*;
use std::collections::VecDeque;

/// Scratch for [`bc_in_subgraph`], reusable across roots, calls and (via the
/// driver's pool) whole sub-graphs of any size: the sequential sweep's BFS
/// and four-dependency arrays, the observer's contribution buffer, and the
/// level-synchronous atomics. Each part grows on first use by the schedule
/// that needs it — the atomics only when [`KernelChoice::LevelSync`] is
/// dispatched, the contribution buffer only when an observer is given.
pub struct Workspace {
    seq: SeqWs,
    /// Per-root contribution scratch of the observed sweep; zero between
    /// roots.
    contrib: Vec<f64>,
    level: Option<LevelWs>,
}

impl Workspace {
    /// Workspace whose sequential arrays already cover `n` vertices.
    pub fn new(n: usize) -> Self {
        Workspace { seq: SeqWs::new(n), contrib: Vec::new(), level: None }
    }
}

/// Sequential scratch: the BFS and four-dependency arrays of Algorithm 2,
/// reset in `O(reached)` between roots.
struct SeqWs {
    dist: Vec<u32>,
    sigma: Vec<f64>,
    d_i2i: Vec<f64>,
    d_i2o: Vec<f64>,
    d_o2o: Vec<f64>,
    order: Vec<VertexId>,
    queue: VecDeque<VertexId>,
}

impl SeqWs {
    fn new(n: usize) -> Self {
        SeqWs {
            dist: vec![UNREACHED; n],
            sigma: vec![0.0; n],
            d_i2i: vec![0.0; n],
            d_i2o: vec![0.0; n],
            d_o2o: vec![0.0; n],
            order: Vec::with_capacity(n),
            queue: VecDeque::new(),
        }
    }

    /// Grows the arrays to cover `n` vertices. Cells keep the reset-clean
    /// invariant (`dist = UNREACHED`, everything else zero), so a pooled
    /// workspace can serve sub-graphs of any size up to its capacity.
    fn ensure(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, UNREACHED);
            self.sigma.resize(n, 0.0);
            self.d_i2i.resize(n, 0.0);
            self.d_i2o.resize(n, 0.0);
            self.d_o2o.resize(n, 0.0);
        }
    }

    fn reset_touched(&mut self) {
        for &v in &self.order {
            self.dist[v as usize] = UNREACHED;
            self.sigma[v as usize] = 0.0;
            self.d_i2i[v as usize] = 0.0;
            self.d_i2o[v as usize] = 0.0;
            self.d_o2o[v as usize] = 0.0;
        }
        self.order.clear();
    }
}

/// One root's forward BFS plus backward four-dependency sweep — Algorithm 2's
/// loop body, shared verbatim by the sequential and root-parallel kernels so
/// they cannot drift apart. Accumulates into `bc_local`, returns the number
/// of edges examined, and leaves `ws` reset for the next root.
fn sweep_root(sg: &SubGraph, s: VertexId, ws: &mut SeqWs, bc_local: &mut [f64]) -> u64 {
    let edges = sweep_root_core(sg, s, ws, bc_local, None);
    ws.reset_touched();
    edges
}

/// The sweep body proper. When `contrib` is given, the root's own Equation-7
/// term for every touched vertex is *also* recorded there (`contrib[v] =
/// term` before the `bc_local[v] += term` add, so the accumulated span stays
/// bitwise identical to the unobserved sweep). Does **not** reset the
/// workspace — the caller decides when, so an observer can still read
/// `ws.order` / `contrib` after the sweep.
fn sweep_root_core(
    sg: &SubGraph,
    s: VertexId,
    ws: &mut SeqWs,
    bc_local: &mut [f64],
    mut contrib: Option<&mut [f64]>,
) -> u64 {
    let csr = sg.graph.csr();
    let directed = sg.graph.is_directed();
    let mut edges = 0u64;
    // Phase 1: forward BFS (σ and order).
    ws.dist[s as usize] = 0;
    ws.sigma[s as usize] = 1.0;
    ws.order.push(s);
    ws.queue.push_back(s);
    // Audited: every id is a compacted sub-graph id `< sg.n` by construction,
    // and all workspace arrays are sized to sg.n. lint:allow(hot_index)
    while let Some(u) = ws.queue.pop_front() {
        let du = ws.dist[u as usize];
        for &v in csr.neighbors(u) {
            edges += 1;
            if ws.dist[v as usize] == UNREACHED {
                ws.dist[v as usize] = du + 1;
                ws.order.push(v);
                ws.queue.push_back(v);
            }
            if ws.dist[v as usize] == du + 1 {
                ws.sigma[v as usize] += ws.sigma[u as usize];
            }
        }
    }
    // Phase 2: backward accumulation of the four dependencies and the
    // score merge (Equation 7).
    let s_boundary = sg.is_boundary[s as usize];
    let beta_s = if s_boundary { sg.beta[s as usize] as f64 } else { 0.0 };
    let gamma_s = sg.gamma[s as usize] as f64;
    // Audited: same compacted-id invariant as phase 1; `order` holds only
    // ids the BFS itself pushed. lint:allow(hot_index)
    for idx in (0..ws.order.len()).rev() {
        let v = ws.order[idx];
        let vu = v as usize;
        let dv = ws.dist[vu];
        let sv = ws.sigma[vu];
        let boundary_v = sg.is_boundary[vu] && v != s;
        let mut i2i = 0.0;
        let mut i2o = if boundary_v { sg.alpha[vu] as f64 } else { 0.0 };
        let mut o2o = if s_boundary && boundary_v { beta_s * sg.alpha[vu] as f64 } else { 0.0 };
        for &w in csr.neighbors(v) {
            edges += 1;
            if ws.dist[w as usize] == dv + 1 {
                let c = sv / ws.sigma[w as usize];
                i2i += c * (1.0 + ws.d_i2i[w as usize]);
                i2o += c * ws.d_i2o[w as usize];
                if s_boundary {
                    o2o += c * ws.d_o2o[w as usize];
                }
            }
        }
        ws.d_i2i[vu] = i2i;
        ws.d_i2o[vu] = i2o;
        ws.d_o2o[vu] = o2o;
        if v != s {
            let term = (1.0 + gamma_s) * (i2i + i2o) + beta_s * i2i + o2o;
            if let Some(c) = contrib.as_deref_mut() {
                c[vu] = term;
            }
            bc_local[vu] += term;
        } else if gamma_s > 0.0 {
            let alpha_s = if s_boundary { sg.alpha[vu] as f64 } else { 0.0 };
            let whisker_self = if directed { 0.0 } else { 1.0 };
            let term = gamma_s * ((i2i - whisker_self) + i2o + alpha_s);
            if let Some(c) = contrib.as_deref_mut() {
                c[vu] = term;
            }
            bc_local[vu] += term;
        }
    }
    edges
}

/// Algorithm 2 over one sub-graph: sweeps every root of `roots` (compacted
/// local ids of `sg`) under the schedule `choice` and adds each root's
/// Equation-7 contribution into `local` (length `sg.num_vertices()`).
/// Returns the number of edges examined (forward + backward scans).
///
/// * Exact BC passes `roots = &sg.roots`; a subset yields that subset's exact
///   contribution (the sampled estimator rescales it).
/// * `grain` is the minimum number of roots per root-parallel chunk and the
///   minimum frontier width before a level-synchronous level forks.
/// * `ws` may be fresh or pooled and oversized; results never depend on it.
/// * `observe`, when given, is called after every root with that root's
///   *own* dense contribution vector (`0` where the root reached nothing).
///   It forces the sequential schedule whatever `choice` says, so roots are
///   observed in slice order — the determinism anchor of the estimator's
///   streaming statistics — and `local` receives exactly the adds of an
///   unobserved sequential sweep, bitwise.
///
/// Determinism: `Seq` and observed runs are bitwise reproducible, as is
/// `LevelSync` (single writer per cell); `RootParallel` is bitwise per pool
/// size. Pinned against serial Brandes by the zoo equivalence tests.
pub fn bc_in_subgraph(
    sg: &SubGraph,
    roots: &[VertexId],
    choice: KernelChoice,
    grain: usize,
    ws: &mut Workspace,
    local: &mut [f64],
    observe: Option<&mut dyn FnMut(&[f64])>,
) -> u64 {
    let n = sg.num_vertices();
    debug_assert_eq!(local.len(), n);
    let choice = if observe.is_some() { KernelChoice::Seq } else { choice };
    match choice {
        KernelChoice::Seq => sweep_roots_seq(sg, roots, ws, local, observe),
        KernelChoice::RootParallel => sweep_roots_parallel(sg, roots, local, grain),
        KernelChoice::LevelSync => {
            let lws = ws.level.get_or_insert_with(|| LevelWs::new(n));
            lws.ensure(n);
            sweep_roots_level_sync(sg, roots, local, grain, lws)
        }
    }
}

/// The sequential schedule, optionally observed: with an observer each
/// root's contribution is also recorded in `ws.contrib`, handed to
/// `observe`, and zeroed again before the next root.
fn sweep_roots_seq(
    sg: &SubGraph,
    roots: &[VertexId],
    ws: &mut Workspace,
    local: &mut [f64],
    mut observe: Option<&mut dyn FnMut(&[f64])>,
) -> u64 {
    let n = sg.num_vertices();
    ws.seq.ensure(n);
    if observe.is_some() && ws.contrib.len() < n {
        ws.contrib.resize(n, 0.0);
    }
    let mut edges = 0u64;
    // Audited: `contrib[..n]` is a length-n slice take with n ≤ contrib.len()
    // ensured above; the reset loop writes only compacted ids the BFS
    // pushed, all `< n`. lint:allow(hot_index)
    for &s in roots {
        match observe.as_mut() {
            None => edges += sweep_root(sg, s, &mut ws.seq, local),
            Some(f) => {
                edges += sweep_root_core(sg, s, &mut ws.seq, local, Some(&mut ws.contrib));
                f(&ws.contrib[..n]);
                for &v in &ws.seq.order {
                    ws.contrib[v as usize] = 0.0;
                }
                ws.seq.reset_touched();
            }
        }
    }
    edges
}

/// The root-parallel schedule — the coarse-grained inner kernel.
///
/// `roots` is split into fixed contiguous chunks (boundaries depend only on
/// `|roots|`, `grain` and the pool's worker count, never on scheduling).
/// Each worker lazily creates one long-lived sequential workspace
/// (`map_init`) and sweeps whole chunks with the same [`sweep_root`] body
/// the sequential schedule uses, accumulating into a **private** plain-`f64`
/// partial score vector — zero atomics, zero CAS traffic, zero per-level
/// fork-join on the hot path. The per-chunk partials are then merged by a
/// **pairwise tree reduction** of fixed shape: round `r` adds partial
/// `2^r·(2k+1)` into partial `2^r·2k` for every `k`, in parallel across
/// pairs, until one vector remains, which folds into `local`. The tree's
/// shape depends only on the chunk count, so the floating-point fold order
/// is fixed and two runs on the same pool size produce bitwise-identical
/// scores, while the merge drops from `O(chunks·n)` sequential work to
/// `O(log(chunks))` parallel rounds.
///
/// Chunks hold at least `grain` roots and target ~4 per worker so stealing
/// can balance uneven sweep costs.
fn sweep_roots_parallel(sg: &SubGraph, roots: &[VertexId], local: &mut [f64], grain: usize) -> u64 {
    let n = sg.num_vertices();
    if roots.is_empty() {
        return 0;
    }
    let threads = rayon::current_num_threads().max(1);
    // Fixed, deterministic chunking: at least `grain` roots per chunk (one
    // partial vector is allocated per chunk), at most ~4 chunks per worker.
    let chunk = roots.len().div_ceil(4 * threads).max(grain.max(1));
    let mut partials: Vec<(Vec<f64>, u64)> = roots
        .par_chunks(chunk)
        .map_init(
            || SeqWs::new(n),
            |ws, roots| {
                let mut part = vec![0.0f64; n];
                let mut edges = 0u64;
                for &s in roots {
                    edges += sweep_root(sg, s, ws, &mut part);
                }
                (part, edges)
            },
        )
        .collect();
    // Pairwise tree reduction over the chunk partials. Each round pairs
    // neighbours — partial 2k absorbs 2k+1, the pair merges running in
    // parallel — so the reduction tree, and therefore the f64 fold order, is
    // a pure function of the chunk count. The u64 edge tallies are exact
    // under any association; they ride along with the surviving partial.
    while partials.len() > 1 {
        let mut pairs: Vec<((Vec<f64>, u64), Option<(Vec<f64>, u64)>)> =
            Vec::with_capacity(partials.len().div_ceil(2));
        let mut it = partials.into_iter();
        while let Some(a) = it.next() {
            pairs.push((a, it.next()));
        }
        partials = pairs
            .into_par_iter()
            .map(|((mut a, mut edges), b)| {
                if let Some((bv, be)) = b {
                    add_assign_scores(&mut a, &bv);
                    edges += be;
                }
                (a, edges)
            })
            .collect();
    }
    let (part, edges) = partials.pop().expect("roots non-empty implies at least one chunk");
    add_assign_scores(local, &part);
    edges
}

/// Level-synchronous scratch: the parallel mirror of the sequential arrays,
/// plus the shared `bc` accumulation mirror (reused across every root of a
/// call) and the back frontier buffer (`next`) of the double-buffered
/// frontier — `levels.order` holds the settled front, `next` is refilled in
/// place each level, so frontier expansion allocates nothing after warm-up.
struct LevelWs {
    dist: Vec<AtomicU32>,
    sigma: Vec<AtomicF64>,
    d_i2i: Vec<AtomicF64>,
    d_i2o: Vec<AtomicF64>,
    d_o2o: Vec<AtomicF64>,
    bc: Vec<AtomicF64>,
    next: Vec<VertexId>,
    levels: Levels,
}

impl LevelWs {
    fn new(n: usize) -> Self {
        LevelWs {
            dist: (0..n).map(|_| AtomicU32::new(UNREACHED)).collect(),
            sigma: atomic_f64_vec(n),
            d_i2i: atomic_f64_vec(n),
            d_i2o: atomic_f64_vec(n),
            d_o2o: atomic_f64_vec(n),
            bc: atomic_f64_vec(n),
            next: Vec::new(),
            levels: Levels::default(),
        }
    }

    /// Grows the arrays to cover `n` vertices; existing cells keep the
    /// reset-clean invariant.
    fn ensure(&mut self, n: usize) {
        let len = self.dist.len();
        if len < n {
            self.dist.extend((len..n).map(|_| AtomicU32::new(UNREACHED)));
            self.sigma.extend((len..n).map(|_| AtomicF64::new(0.0)));
            self.d_i2i.extend((len..n).map(|_| AtomicF64::new(0.0)));
            self.d_i2o.extend((len..n).map(|_| AtomicF64::new(0.0)));
            self.d_o2o.extend((len..n).map(|_| AtomicF64::new(0.0)));
            self.bc.extend((len..n).map(|_| AtomicF64::new(0.0)));
        }
    }

    fn reset_touched(&mut self) {
        for &v in &self.levels.order {
            self.dist[v as usize].store(UNREACHED, Ordering::Relaxed);
            self.sigma[v as usize].store(0.0);
            self.d_i2i[v as usize].store(0.0);
            self.d_i2o[v as usize].store(0.0);
            self.d_o2o[v as usize].store(0.0);
        }
        self.levels.clear();
    }
}

/// The level-synchronous schedule — the paper's fine-grained inner level of
/// the two-level parallelization. Forward σ is pulled per level (single
/// writer per cell), the backward sweep scans successors; no locks
/// anywhere, exactly as in Algorithm 2's successor method. Levels narrower
/// than `grain` vertices run sequentially to dodge fork-join overhead.
fn sweep_roots_level_sync(
    sg: &SubGraph,
    roots: &[VertexId],
    bc_local: &mut [f64],
    grain: usize,
    ws: &mut LevelWs,
) -> u64 {
    let grain = grain.max(1);
    let csr = sg.graph.csr();
    let rev = sg.graph.rev_csr();
    let directed = sg.graph.is_directed();
    let mut edges = 0u64;

    // Seed the shared bc mirror once per call; it then accumulates across
    // every root (cells ≥ n are stale pool leftovers and never read).
    for (cell, &x) in ws.bc.iter().zip(bc_local.iter()) {
        cell.store(x);
    }

    // Audited: roots and neighbors are compacted sub-graph ids `< sg.n`;
    // `bc_in_subgraph` ensured every shared array covers `sg.n`.
    // lint:allow(hot_index)
    for &s in roots {
        // Split borrows: the frontier is a slice of `levels.order`, the back
        // buffer `next` refills in place, the atomic arrays are shared.
        let LevelWs { dist, sigma, d_i2i, d_i2o, d_o2o, bc, next, levels } = &mut *ws;
        let (dist, sigma) = (&*dist, &*sigma);

        // Phase 1: frontier discovery by CAS; σ pulled per level.
        dist[s as usize].store(0, Ordering::Relaxed);
        sigma[s as usize].store(1.0);
        levels.order.push(s);
        levels.starts.push(0);
        let mut level_start = 0usize;
        let mut d = 0u32;
        loop {
            let frontier = &levels.order[level_start..];
            if frontier.is_empty() {
                levels.starts.pop();
                break;
            }
            next.clear();
            if frontier.len() < grain {
                for &u in frontier {
                    for &v in csr.neighbors(u) {
                        if dist[v as usize]
                            .compare_exchange(
                                UNREACHED,
                                d + 1,
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                        {
                            next.push(v);
                        }
                    }
                }
            } else {
                next.par_extend(frontier.par_iter().flat_map_iter(|&u| {
                    csr.neighbors(u).iter().copied().filter(|&v| {
                        dist[v as usize]
                            .compare_exchange(
                                UNREACHED,
                                d + 1,
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                    })
                }));
            }
            let pull = |&w: &VertexId| {
                let mut acc = 0.0;
                for &u in rev.neighbors(w) {
                    if dist[u as usize].load(Ordering::Relaxed) == d {
                        acc += sigma[u as usize].load();
                    }
                }
                sigma[w as usize].store(acc);
            };
            if next.len() < grain {
                next.iter().for_each(pull);
            } else {
                next.par_iter().for_each(pull);
            }
            level_start = levels.order.len();
            levels.starts.push(level_start);
            levels.order.extend_from_slice(next);
            d += 1;
        }
        levels.starts.push(levels.order.len());
        #[cfg(feature = "invariants")]
        crate::util::check_levels(levels, dist, sigma, s);

        // Phase 2: backward sweep, one level at a time, single writer per
        // vertex; δ of deeper levels is final thanks to the fork-join
        // barrier between levels.
        let s_boundary = sg.is_boundary[s as usize];
        let beta_s = if s_boundary { sg.beta[s as usize] as f64 } else { 0.0 };
        let gamma_s = sg.gamma[s as usize] as f64;
        let (d_i2i, d_i2o, d_o2o, bc_ref) = (&*d_i2i, &*d_i2o, &*d_o2o, &*bc);
        for dd in (0..levels.num_levels()).rev() {
            let level = levels.level(dd);
            let dv = dd as u32;
            let body = |&v: &VertexId| {
                let vu = v as usize;
                let sv = sigma[vu].load();
                let boundary_v = sg.is_boundary[vu] && v != s;
                let mut i2i = 0.0;
                let mut i2o = if boundary_v { sg.alpha[vu] as f64 } else { 0.0 };
                let mut o2o =
                    if s_boundary && boundary_v { beta_s * sg.alpha[vu] as f64 } else { 0.0 };
                for &w in csr.neighbors(v) {
                    if dist[w as usize].load(Ordering::Relaxed) == dv + 1 {
                        let c = sv / sigma[w as usize].load();
                        i2i += c * (1.0 + d_i2i[w as usize].load());
                        i2o += c * d_i2o[w as usize].load();
                        if s_boundary {
                            o2o += c * d_o2o[w as usize].load();
                        }
                    }
                }
                d_i2i[vu].store(i2i);
                d_i2o[vu].store(i2o);
                d_o2o[vu].store(o2o);
                let cell = &bc_ref[vu];
                if v != s {
                    cell.store(cell.load() + (1.0 + gamma_s) * (i2i + i2o) + beta_s * i2i + o2o);
                } else if gamma_s > 0.0 {
                    let alpha_s = if s_boundary { sg.alpha[vu] as f64 } else { 0.0 };
                    let whisker_self = if directed { 0.0 } else { 1.0 };
                    cell.store(cell.load() + gamma_s * ((i2i - whisker_self) + i2o + alpha_s));
                }
            };
            if level.len() < grain {
                level.iter().for_each(body);
            } else {
                level.par_iter().for_each(body);
            }
        }
        // Forward and backward both scan the out-edges of every reached
        // vertex once.
        edges += 2 * ws.levels.order.iter().map(|&v| csr.degree(v) as u64).sum::<u64>();
        ws.reset_touched();
    }
    for (dst, cell) in bc_local.iter_mut().zip(ws.bc.iter()) {
        *dst = cell.load();
    }
    edges
}

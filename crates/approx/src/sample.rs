//! The decomposition-composed sampled estimator and its incremental store.
//!
//! The paper's X3 extension observes that the articulation-point
//! decomposition composes with *any* per-sub-graph BC routine. This module
//! composes it with Brandes–Pich pivot sampling: each sub-graph sweeps a
//! seeded sample of its root set (whiskers and γ folding untouched), the
//! per-root Equation-7 contributions are scaled by `|R_i| / k_i`, and the
//! scaled spans fold into global estimates in ascending sub-graph index
//! order from zeros — the same determinism anchor as the exact path
//! (DESIGN.md §3.8).
//!
//! Two budget regimes select `k_i` ([`SampleBudget`]):
//!
//! * **Uniform** — the PR 9 behaviour: `k_i = min(|R_i|, cap)` with one cap
//!   for every sub-graph.
//! * **Adaptive** — a *global* root budget distributed proportionally to
//!   `|R_i| · σ_i` by the variance-guided allocator (the [`crate::budget`]
//!   module; DESIGN.md §3.13), with per-vertex standard errors derived from
//!   the same per-root Welford accumulators.
//!
//! Because sub-graph `i`'s sample depends only on the global seed and the
//! sub-graph's content fingerprint — and, in the adaptive regime, on pilot
//! variances that are themselves content-pure — an estimate span never has
//! to be recomputed unless the sub-graph itself changed or its *allocation*
//! moved. [`SampleStore`] exploits that: it keeps only sampling metadata
//! and the pending set, and writes the scaled sample spans and their
//! squared standard errors into the [`Lane::Estimate`] and
//! [`Lane::StderrSq`] lanes of the caller's [`FoldStore`] — the same
//! slot-stable store, on the same layout, as the exact scores. Unaffected
//! sub-graphs' spans carry across generations verbatim and only the dirty
//! set is resampled, so refresh cost tracks the dirty set the way publish
//! cost does.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apgre_bc::apgre::{run_kernels, ApgreOptions, SubgraphKernelRun};
use apgre_decomp::{decompose, Decomposition, SubGraph};
use apgre_graph::Graph;
use apgre_store::{FoldStore, Lane};

use crate::budget::{plan_adaptive, stderr_sq_span, DEFAULT_PILOT};
use crate::rng::{mix_seed, sample_roots};

/// How the per-sub-graph root-sample sizes are chosen.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SampleBudget {
    /// One root-sample cap for every sub-graph: sub-graph `i` sweeps
    /// `k_i = min(|R_i|, samples_per_subgraph)` sampled roots. Sub-graphs at
    /// or under the cap run exhaustively (scale 1 — their spans are exact),
    /// so error concentrates where sampling actually saves work.
    Uniform {
        /// The per-sub-graph cap.
        samples_per_subgraph: usize,
    },
    /// A global root budget distributed across sub-graphs proportionally to
    /// `|R_i| · σ_i` by [`crate::budget::allocate_budget`], where `σ_i` is
    /// the pilot standard deviation of the per-root contribution mass.
    /// Every span is floored at `min(pilot, |R_i|)` roots (so its variance
    /// accumulators are defined) and capped at `|R_i|` (exhaustive).
    Adaptive {
        /// The global root budget (Σ `k_i` targets this; floors may
        /// overshoot it, caps may undershoot it).
        total_roots: usize,
        /// Pilot sweep size per sub-graph (clamped to ≥ 2).
        pilot: usize,
    },
}

/// Sampling parameters of the composed estimator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampleOptions {
    /// Budget regime (uniform cap or variance-guided global budget).
    pub budget: SampleBudget,
    /// Global seed; sub-graph `i` draws from a stream seeded by
    /// `mix_seed(seed, fingerprint_i)`, making the draw generation-stable.
    pub seed: u64,
}

impl SampleOptions {
    /// Uniform per-sub-graph cap (the PR 9 estimator).
    pub fn uniform(samples_per_subgraph: usize, seed: u64) -> Self {
        SampleOptions { budget: SampleBudget::Uniform { samples_per_subgraph }, seed }
    }

    /// Variance-guided global budget with the default pilot size.
    pub fn adaptive(total_roots: usize, seed: u64) -> Self {
        SampleOptions { budget: SampleBudget::Adaptive { total_roots, pilot: DEFAULT_PILOT }, seed }
    }

    /// Whether the adaptive allocator (and therefore the standard-error
    /// accumulators) is active.
    pub fn is_adaptive(&self) -> bool {
        matches!(self.budget, SampleBudget::Adaptive { .. })
    }
}

impl Default for SampleOptions {
    fn default() -> Self {
        SampleOptions::uniform(16, 0xA99)
    }
}

/// Accounting for one [`SampleStore::refresh`].
#[derive(Clone, Debug, Default)]
pub struct SampleRefresh {
    /// Sub-graphs whose sample span was recomputed this refresh.
    pub resampled: usize,
    /// Sub-graphs whose span was carried verbatim.
    pub reused: usize,
    /// Σ sampled roots swept by the recomputed spans.
    pub sampled_roots: u64,
    /// Σ pilot roots swept by the adaptive planner (0 in uniform mode).
    pub pilot_roots: u64,
    /// Σ edges traversed by the recomputed spans' kernels (pilots included).
    pub edges: u64,
    /// The configured global root budget (0 in uniform mode).
    pub budget: usize,
    /// Σ allocated roots across *all* sub-graphs under the adaptive plan
    /// (0 in uniform mode). Caps can leave it under the budget, floors can
    /// push it over.
    pub allocated: u64,
    /// Wall clock of the refresh (planning + draw + kernels + installs).
    pub wall: Duration,
}

impl SampleRefresh {
    /// Fraction of sub-graphs resampled (0 when the store is empty).
    pub fn resample_fraction(&self) -> f64 {
        let total = self.resampled + self.reused;
        if total == 0 {
            0.0
        } else {
            self.resampled as f64 / total as f64
        }
    }

    /// Allocated roots over the configured budget (0 in uniform mode; above
    /// 1 when the per-span floors overshoot a small budget, below 1 when
    /// exhaustive caps bind before the budget is spent).
    pub fn budget_utilization(&self) -> f64 {
        if self.budget == 0 {
            0.0
        } else {
            self.allocated as f64 / self.budget as f64
        }
    }
}

/// Draws sub-graph `sg`'s root sample at cap `cap`: `(sampled roots,
/// scale)` with `scale = |R| / k` and `k = min(|R|, max(cap, 1))`. The draw
/// depends only on the seed, the cap, and the sub-graph's content (via
/// [`SubGraph::fingerprint`]), never on generation history.
pub fn draw_roots(sg: &SubGraph, seed: u64, cap: usize) -> (Vec<u32>, f64) {
    let total = sg.roots.len();
    let k = total.min(cap.max(1));
    if k == total {
        return (sg.roots.clone(), 1.0);
    }
    let sample = sample_roots(&sg.roots, k, mix_seed(seed, sg.fingerprint()));
    (sample, total as f64 / k as f64)
}

/// From-scratch composed estimator over an existing decomposition: plans
/// the per-sub-graph sample sizes (fixed cap or adaptive allocation), runs
/// the sampled kernels, scales, and folds ascending from zeros. This is the
/// oracle of the determinism contract — [`SampleStore::refresh`] must
/// reproduce its output bitwise, *including* the allocator's decisions.
pub fn bc_sampled_from_decomposition(
    decomp: &Decomposition,
    opts: &ApgreOptions,
    sopts: &SampleOptions,
) -> Vec<f64> {
    bc_sampled_with_stderr_from_decomposition(decomp, opts, sopts).0
}

/// [`bc_sampled_from_decomposition`] plus the per-vertex standard error of
/// the estimate (DESIGN.md §3.13): `stderr[v] = sqrt(Σ_i se²_i(v))` over
/// the sub-graphs owning `v`, folded in the same ascending-index order as
/// the estimates. In uniform mode no accumulators exist and the error
/// vector is all zeros (the uniform estimator reports no error bound).
pub fn bc_sampled_with_stderr_from_decomposition(
    decomp: &Decomposition,
    opts: &ApgreOptions,
    sopts: &SampleOptions,
) -> (Vec<f64>, Vec<f64>) {
    let mut out = vec![0.0f64; decomp.num_vertices];
    let mut err_sq = vec![0.0f64; decomp.num_vertices];
    let (targets, _) = plan_targets(decomp, opts, sopts, &vec![None; decomp.num_subgraphs()]);
    let all: Vec<usize> = (0..decomp.num_subgraphs()).collect();
    for Sweep { run, scale, se, .. } in sweep(decomp, opts, sopts, &targets, &all) {
        let sg = &decomp.subgraphs[run.index];
        for (local, &v) in sg.globals.iter().enumerate() {
            out[v as usize] += run.local[local] * scale;
            if let Some(se) = &se {
                err_sq[v as usize] += se[local];
            }
        }
    }
    let stderr = err_sq.into_iter().map(f64::sqrt).collect();
    (out, stderr)
}

/// Convenience one-shot: decompose `g` and run the composed estimator.
pub fn bc_sampled(g: &Graph, opts: &ApgreOptions, sopts: &SampleOptions) -> Vec<f64> {
    let decomp = decompose(g, &opts.partition);
    bc_sampled_from_decomposition(&decomp, opts, sopts)
}

/// [`bc_sampled`] plus the per-vertex standard error (zeros in uniform
/// mode).
pub fn bc_sampled_with_stderr(
    g: &Graph,
    opts: &ApgreOptions,
    sopts: &SampleOptions,
) -> (Vec<f64>, Vec<f64>) {
    let decomp = decompose(g, &opts.partition);
    bc_sampled_with_stderr_from_decomposition(&decomp, opts, sopts)
}

/// Per-sub-graph sampling metadata, aligned with the current sub-graph
/// indexing. `sigma` caches the pilot standard deviation (content-pure, so
/// it carries with the sub-graph) and `k` records the sample size the span
/// was drawn at — a later allocation that disagrees with `k` forces a
/// resample even when the content itself is clean. A clean sub-graph's
/// drawn content is its current content, so no fingerprint is kept.
#[derive(Clone, Debug)]
struct SampleMeta {
    sigma: f64,
    k: usize,
}

/// Per-sub-graph sample targets under `sopts` — the uniform cap, or the
/// adaptive plan, which re-pilots every sub-graph whose `cached` σ is
/// `None` — plus the planning's accounting.
fn plan_targets(
    decomp: &Decomposition,
    opts: &ApgreOptions,
    sopts: &SampleOptions,
    cached: &[Option<f64>],
) -> (Vec<SampleMeta>, SampleRefresh) {
    match sopts.budget {
        SampleBudget::Uniform { samples_per_subgraph: k } => {
            (vec![SampleMeta { sigma: 0.0, k }; decomp.num_subgraphs()], SampleRefresh::default())
        }
        SampleBudget::Adaptive { total_roots, pilot } => {
            let plan = plan_adaptive(decomp, opts, sopts.seed, total_roots, pilot, cached);
            let report = SampleRefresh {
                pilot_roots: plan.pilot_roots,
                edges: plan.pilot_edges,
                budget: total_roots,
                allocated: plan.allocated(),
                ..SampleRefresh::default()
            };
            let targets = plan
                .sigma
                .iter()
                .zip(&plan.k)
                .map(|(&sigma, &k)| SampleMeta { sigma, k })
                .collect();
            (targets, report)
        }
    }
}

/// One sampled sub-graph sweep: the kernel run, the number of roots drawn,
/// the `|R|/k` scale, and (adaptive mode only) the squared-standard-error
/// span.
struct Sweep {
    run: SubgraphKernelRun,
    drawn: usize,
    scale: f64,
    se: Option<Vec<f64>>,
}

/// Draws and sweeps sub-graphs `which` at their `targets` sizes, in
/// ascending index order; adaptive mode also collects the per-root
/// statistics behind the standard errors.
fn sweep(
    decomp: &Decomposition,
    opts: &ApgreOptions,
    sopts: &SampleOptions,
    targets: &[SampleMeta],
    which: &[usize],
) -> Vec<Sweep> {
    // Keyed by sub-graph index so a kernel-side reorder (or a future
    // dropped-empty-job optimization) can never scale the wrong span.
    let mut draws: HashMap<usize, (Vec<u32>, f64)> = HashMap::with_capacity(which.len());
    for &i in which {
        if let (Some(sg), Some(t)) = (decomp.subgraphs.get(i), targets.get(i)) {
            draws.insert(i, draw_roots(sg, sopts.seed, t.k));
        }
    }
    let jobs: Vec<(usize, &[u32])> =
        which.iter().filter_map(|&i| Some((i, draws.get(&i)?.0.as_slice()))).collect();
    let runs = run_kernels(decomp, &jobs, opts, sopts.is_adaptive());
    assert_eq!(runs.len(), which.len(), "one kernel run per sampled sub-graph");
    let mut out = Vec::with_capacity(runs.len());
    for run in runs {
        let (roots, scale) = draws
            .remove(&run.index)
            .expect("kernel returned a run for a sub-graph that was never dispatched");
        let total = decomp.subgraphs.get(run.index).map_or(0, |sg| sg.roots.len());
        let se = run.stats.as_ref().map(|st| stderr_sq_span(&st.vertex_m2, st.roots, total));
        out.push(Sweep { run, drawn: roots.len(), scale, se });
    }
    out
}

/// The incremental estimator's bookkeeping: per-sub-graph sampling
/// metadata, the pending dirty set, and the parameters the live spans were
/// drawn with. The spans themselves live in the [`Lane::Estimate`] and
/// [`Lane::StderrSq`] lanes of the caller's [`FoldStore`], which shares its
/// slot layout with the exact scores.
///
/// Lifecycle (driven by `DynamicBc`): [`SampleStore::seed`] over the
/// initial decomposition (everything pending), then per batch
/// [`SampleStore::apply_splice`] (after the store's splice or fingerprint
/// carry) + [`SampleStore::mark_dirty`], and finally
/// [`SampleStore::refresh`] when estimates are demanded — resampling the
/// accumulated dirty set (plus, in adaptive mode, any span whose budget
/// allocation moved).
#[derive(Debug, Default)]
pub struct SampleStore {
    meta: Vec<Option<SampleMeta>>,
    pending: BTreeSet<usize>,
    /// Parameters the live spans were drawn with; a refresh under different
    /// parameters invalidates everything.
    params: Option<SampleOptions>,
}

impl SampleStore {
    /// Seeds the bookkeeping over `decomp`: no spans, every sub-graph
    /// pending.
    pub fn seed(decomp: &Decomposition) -> Self {
        let count = decomp.num_subgraphs();
        SampleStore { meta: vec![None; count], pending: (0..count).collect(), params: None }
    }

    /// Sub-graphs awaiting a resample.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Remaps the metadata through a re-indexing of the sub-graphs — a
    /// structural splice or the rebuild path's fingerprint carry, with the
    /// same `old_to_new` contract as `FoldStore::apply_splice` — that
    /// `fold` has already applied. Sub-graphs without a clean source join
    /// the pending set; a pending source's approx lanes describe content
    /// the sub-graph no longer has, so they are cleared rather than
    /// carried.
    pub fn apply_splice(&mut self, old_to_new: &[Option<u32>], fold: &mut FoldStore) {
        let count = fold.num_subgraphs();
        let mut meta: Vec<Option<SampleMeta>> = vec![None; count];
        for (old, (&dst, m)) in old_to_new.iter().zip(&mut self.meta).enumerate() {
            let Some(n) = dst.map(|n| n as usize) else { continue };
            if self.pending.contains(&old) {
                fold.clear_values(Lane::Estimate, n);
                fold.clear_values(Lane::StderrSq, n);
            } else if let Some(slot) = meta.get_mut(n) {
                *slot = m.take();
            }
        }
        self.pending = (0..count).filter(|&i| meta.get(i).is_some_and(Option::is_none)).collect();
        self.meta = meta;
    }

    /// Marks sub-graphs (current indexing) whose content changed in place.
    pub fn mark_dirty(&mut self, dirty: &[usize]) {
        self.pending.extend(dirty.iter().copied());
    }

    /// Resamples the pending sub-graphs — plus, in adaptive mode, any span
    /// whose budget allocation moved (and *all* of them when the sampling
    /// parameters changed since the last refresh) — into the
    /// [`Lane::Estimate`] and [`Lane::StderrSq`] lanes of `fold`, and
    /// clears the pending set. After a refresh the estimate lane is
    /// bitwise-identical to [`bc_sampled_from_decomposition`] over the same
    /// decomposition and parameters — the determinism contract, asserted
    /// here under `--features invariants`.
    pub fn refresh(
        &mut self,
        fold: &mut FoldStore,
        decomp: &Decomposition,
        opts: &ApgreOptions,
        sopts: &SampleOptions,
    ) -> SampleRefresh {
        let t = Instant::now();
        assert_eq!(decomp.num_subgraphs(), self.meta.len(), "store lags the decomposition");
        if self.params.as_ref() != Some(sopts) {
            self.pending.extend(0..self.meta.len());
            self.params = Some(sopts.clone());
        }
        let count = self.meta.len();
        // σ is content-pure, so clean sub-graphs reuse their cached value;
        // pending ones re-pilot (their content — or existence — changed).
        let cached: Vec<Option<f64>> = (0..count)
            .map(|i| self.meta[i].as_ref().filter(|_| !self.pending.contains(&i)).map(|m| m.sigma))
            .collect();
        let (targets, mut report) = plan_targets(decomp, opts, sopts, &cached);
        // The pending set, plus (adaptive mode) every span whose allocated
        // `k` moved.
        let resample: Vec<usize> = (0..count)
            .filter(|&i| {
                self.pending.contains(&i)
                    || self.meta[i].as_ref().map(|m| m.k) != targets.get(i).map(|t| t.k)
            })
            .collect();
        report.resampled = resample.len();
        report.reused = count - resample.len();
        for Sweep { run, drawn, scale, se } in sweep(decomp, opts, sopts, &targets, &resample) {
            let i = run.index;
            let span: Vec<f64> = run.local.iter().map(|&x| x * scale).collect();
            fold.set_values(Lane::Estimate, i, Arc::from(span));
            // The uniform estimator carries no error accumulators; an unset
            // stderr span folds as zero (this also scrubs stale spans after
            // an adaptive → uniform parameter switch).
            match se {
                Some(se) => fold.set_values(Lane::StderrSq, i, Arc::from(se)),
                None => fold.clear_values(Lane::StderrSq, i),
            }
            self.meta[i] = targets.get(i).cloned();
            report.sampled_roots += drawn as u64;
            report.edges += run.edges;
        }
        self.pending.clear();
        report.wall = t.elapsed();
        #[cfg(feature = "invariants")]
        self.verify_against_scratch(fold, decomp, opts, sopts)
            .expect("incremental sampled estimates diverged from the from-scratch oracle");
        report
    }

    /// Bitwise cross-check of `fold`'s approx lanes against
    /// [`bc_sampled_with_stderr_from_decomposition`] — estimates *and*
    /// standard errors. Errors when sub-graphs are still pending or
    /// anything diverges.
    pub fn verify_against_scratch(
        &self,
        fold: &FoldStore,
        decomp: &Decomposition,
        opts: &ApgreOptions,
        sopts: &SampleOptions,
    ) -> Result<(), String> {
        if !self.pending.is_empty() {
            return Err(format!("{} sub-graphs still pending", self.pending.len()));
        }
        let (want, want_err) = bc_sampled_with_stderr_from_decomposition(decomp, opts, sopts);
        let got = fold.to_flat(Lane::Estimate);
        if got.len() != want.len() {
            return Err(format!("length mismatch: {} vs {}", got.len(), want.len()));
        }
        for (v, (g, w)) in got.iter().zip(&want).enumerate() {
            if g.to_bits() != w.to_bits() {
                return Err(format!("estimate diverged at vertex {v}: {g} vs {w}"));
            }
        }
        for (v, w) in want_err.iter().enumerate() {
            let g = fold.fold_vertex(Lane::StderrSq, v as u32).sqrt();
            if g.to_bits() != w.to_bits() {
                return Err(format!("stderr diverged at vertex {v}: {g} vs {w}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apgre_graph::generators;
    use apgre_store::carry_by_fingerprint;

    /// A fold store laid out over `decomp`, every lane unset.
    fn layout(decomp: &Decomposition) -> FoldStore {
        FoldStore::new(decomp.num_vertices, decomp.subgraphs.iter().map(|sg| &sg.globals[..]))
    }

    fn keys(decomp: &Decomposition) -> Vec<(u64, usize)> {
        decomp.subgraphs.iter().map(|sg| (sg.fingerprint(), sg.num_vertices())).collect()
    }

    /// Re-lays `fold` out over `decomp` through `carry` and remaps `store`
    /// the same way — the engine's rebuild path.
    fn rebuild(
        store: &mut SampleStore,
        fold: &mut FoldStore,
        decomp: &Decomposition,
        carry: &[Option<u32>],
    ) {
        let globals = decomp.subgraphs.iter().map(|sg| &sg.globals[..]);
        let old_to_new = fold.rebuild(decomp.num_vertices, globals, carry);
        store.apply_splice(&old_to_new, fold);
    }

    /// Two structurally different graphs whose decompositions yield
    /// sub-graphs of different sizes; the test forges a fingerprint match
    /// to simulate an FNV collision across a rebuild.
    #[test]
    fn rebuild_rejects_forged_fingerprint_collisions() {
        let opts = ApgreOptions::default();
        let sopts = SampleOptions::uniform(4, 0xFEED);
        // Seed + refresh a store over a lollipop: clique sub-graph + path.
        let a = generators::lollipop(6, 8);
        let da = decompose(&a, &opts.partition);
        let mut fold = layout(&da);
        let mut store = SampleStore::seed(&da);
        store.refresh(&mut fold, &da, &opts, &sopts);
        assert_eq!(store.pending_len(), 0);

        // A different graph whose sub-graphs have different vertex counts.
        let b = generators::lollipop(9, 3);
        let db = decompose(&b, &opts.partition);
        // Forge: give every old sub-graph one of the new decomposition's
        // fingerprints, misaligned with the span sizes.
        let new_keys = keys(&db);
        let forged: Vec<(u64, usize)> = keys(&da)
            .iter()
            .enumerate()
            .map(|(slot, &(_, len))| (new_keys[slot % new_keys.len()].0, len))
            .collect();
        let carry = carry_by_fingerprint(&forged, &new_keys);
        let collides = |k: &(u64, usize)| forged.iter().any(|f| f.0 == k.0 && f.1 != k.1);
        assert!(new_keys.iter().any(collides), "the forgery must produce a wrong-length collision");
        rebuild(&mut store, &mut fold, &db, &carry);
        // Every sub-graph whose forged carry candidate had the wrong length
        // must have missed the carry instead of installing it.
        for (i, sg) in db.subgraphs.iter().enumerate() {
            if let Some(old) = carry[i] {
                assert_eq!(da.subgraphs[old as usize].num_vertices(), sg.num_vertices());
            }
            for lane in Lane::ALL {
                if let Some(span) = fold.values_of(lane, i) {
                    assert_eq!(
                        span.len(),
                        sg.num_vertices(),
                        "sub-graph {i} {lane:?}: collision carry installed a wrong-length span"
                    );
                }
            }
        }
        // And a refresh lands back on the oracle.
        let r = store.refresh(&mut fold, &db, &opts, &sopts);
        assert!(r.resampled > 0);
        store.verify_against_scratch(&fold, &db, &opts, &sopts).unwrap();
    }

    /// Same-length collisions are indistinguishable from true carries by
    /// construction (same fingerprint, same size); the guard only needs to
    /// reject the length mismatch, and a legitimate carry must survive.
    #[test]
    fn rebuild_still_carries_matching_spans() {
        let opts = ApgreOptions::default();
        let sopts = SampleOptions::uniform(3, 7);
        let g = generators::lollipop(7, 5);
        let d = decompose(&g, &opts.partition);
        let mut fold = layout(&d);
        let mut store = SampleStore::seed(&d);
        store.refresh(&mut fold, &d, &opts, &sopts);
        let carry = carry_by_fingerprint(&keys(&d), &keys(&d));
        assert!(carry.iter().all(Option::is_some), "identical keys must all carry");
        rebuild(&mut store, &mut fold, &d, &carry);
        assert_eq!(store.pending_len(), 0, "identical rebuild must carry every span");
        store.verify_against_scratch(&fold, &d, &opts, &sopts).unwrap();
    }
}

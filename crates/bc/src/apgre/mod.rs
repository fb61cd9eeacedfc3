//! APGRE — articulation-points-guided redundancy elimination for BC
//! (the paper's Figure 5 driver plus the two-level parallelization of §4).
//!
//! Three steps:
//!
//! 1. decompose the graph through articulation points
//!    ([`apgre_decomp::decompose`] — Algorithm 1 + α/β/γ counting),
//! 2. for every sub-graph, run the four-dependency kernel
//!    (the [`kernel`] module — Algorithm 2),
//! 3. merge per-sub-graph scores: an articulation point's BC is the sum of
//!    its local scores (Equation 8).
//!
//! Parallelism is two-level: **coarse-grained asynchronous across
//! sub-graphs** (a rayon parallel iterator, largest sub-graph first so the
//! dominant task starts immediately) and, within a sub-graph, one of the
//! [`kernel`] module's implementations, selected per sub-graph by
//! [`KernelPolicy`] from its root count and size (DESIGN.md §3.7). All
//! levels share one rayon pool, so inner parallelism of the top sub-graph
//! soaks up workers once the small sub-graphs drain — the behaviour §5.4
//! describes.
//!
//! One dispatcher, [`run_kernels`], runs every sub-graph job — exact,
//! sampled, or observed for the estimator's statistics — through the one
//! kernel entry point [`kernel::bc_in_subgraph`]. It threads a
//! buffer pool (`BufferPool`) of kernel workspaces through the sub-graph
//! loop: workspaces are checked out, grown in place if needed, and
//! returned, so the long tail of small sub-graphs reuses the scratch arrays
//! of the large ones. Runs come back in **ascending index order** regardless
//! of completion order, and [`bc_from_decomposition`] folds them in that
//! order — the floating-point fold order is fixed, keeping whole-run results
//! bitwise deterministic (and the golden checksums stable).

pub mod kernel;

use apgre_decomp::{decompose, Decomposition, PartitionOptions};
use apgre_graph::{Graph, VertexId};
use rayon::prelude::*;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Default scheduling grain: minimum roots per root-parallel chunk and
/// minimum frontier width before the level-synchronous kernel forks a level.
pub const DEFAULT_GRAIN: usize = 256;

/// Per-sub-graph kernel scheduling policy (DESIGN.md §3.7).
///
/// The three forced variants pin every sub-graph to one kernel; [`Auto`]
/// picks per sub-graph from the decomposition statistics. Replaces the old
/// single `inner_parallel_min_vertices` threshold, which could only express
/// "level-sync above N vertices" and always paid atomic-traffic overhead on
/// sub-graphs whose abundant roots made coarse parallelism free.
///
/// [`Auto`]: KernelPolicy::Auto
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPolicy {
    /// Always the sequential kernel ([`KernelChoice::Seq`]).
    Seq,
    /// Always the root-parallel kernel ([`KernelChoice::RootParallel`]).
    RootParallel,
    /// Always the level-synchronous kernel ([`KernelChoice::LevelSync`]).
    LevelSync,
    /// Choose per sub-graph — see [`KernelPolicy::choose`].
    Auto,
}

/// The kernel actually dispatched for one sub-graph (the resolution of a
/// [`KernelPolicy`], reported in [`ApgreReport::kernel_counts`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelChoice {
    /// Sequential sweep.
    Seq,
    /// Coarse-grained root-parallel sweep.
    RootParallel,
    /// Fine-grained level-synchronous sweep.
    LevelSync,
}

impl KernelPolicy {
    /// Resolves the policy for one sub-graph.
    ///
    /// The `Auto` heuristic, in order:
    ///
    /// 1. **Too small to parallelize at all** — one worker available, fewer
    ///    vertices than one grain, or total sweep work (`roots · edges`)
    ///    under ~8 grain² edge visits: the fork overhead cannot amortize, run
    ///    [`Seq`](KernelChoice::Seq).
    /// 2. **Root-rich** — at least two roots per worker: chunked roots feed
    ///    every worker with whole sequential sweeps, so take the
    ///    atomic-free coarse kernel
    ///    ([`RootParallel`](KernelChoice::RootParallel)).
    /// 3. **Root-starved but big** — few roots over a big vertex set (the
    ///    paper's top-sub-graph regime): only intra-sweep parallelism can
    ///    use the machine, take [`LevelSync`](KernelChoice::LevelSync) when
    ///    there are at least `16 · grain` vertices (with the default grain
    ///    that is 4096, the old `inner_parallel_min_vertices` default).
    /// 4. Otherwise sequential.
    pub fn choose(
        self,
        roots: usize,
        vertices: usize,
        edges: usize,
        threads: usize,
        grain: usize,
    ) -> KernelChoice {
        let grain = grain.max(1);
        match self {
            KernelPolicy::Seq => KernelChoice::Seq,
            KernelPolicy::RootParallel => KernelChoice::RootParallel,
            KernelPolicy::LevelSync => KernelChoice::LevelSync,
            KernelPolicy::Auto => {
                let work = roots.saturating_mul(edges.max(1));
                let min_work = grain.saturating_mul(grain).saturating_mul(8);
                if threads <= 1 || vertices < grain || work < min_work {
                    KernelChoice::Seq
                } else if roots >= threads.saturating_mul(2) {
                    KernelChoice::RootParallel
                } else if vertices >= grain.saturating_mul(16) {
                    KernelChoice::LevelSync
                } else {
                    KernelChoice::Seq
                }
            }
        }
    }
}

impl std::str::FromStr for KernelPolicy {
    type Err = String;

    /// Parses the CLI spellings `auto`, `seq`, `rootpar`, `levelsync`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(KernelPolicy::Auto),
            "seq" => Ok(KernelPolicy::Seq),
            "rootpar" | "root-parallel" => Ok(KernelPolicy::RootParallel),
            "levelsync" | "level-sync" => Ok(KernelPolicy::LevelSync),
            other => {
                Err(format!("unknown kernel policy `{other}` (want auto|seq|rootpar|levelsync)"))
            }
        }
    }
}

/// Options for [`bc_apgre_with`].
#[derive(Clone, Debug)]
pub struct ApgreOptions {
    /// Decomposition options (merge threshold, α/β method).
    pub partition: PartitionOptions,
    /// Process sub-graphs in parallel (the coarse level).
    pub outer_parallel: bool,
    /// Per-sub-graph kernel selection.
    pub kernel: KernelPolicy,
    /// Scheduling grain: minimum roots per root-parallel chunk, minimum
    /// frontier/level width before the level-synchronous kernel goes
    /// parallel, and the unit of the `Auto` size thresholds.
    pub grain: usize,
}

impl Default for ApgreOptions {
    fn default() -> Self {
        ApgreOptions {
            partition: PartitionOptions::default(),
            outer_parallel: true,
            kernel: KernelPolicy::Auto,
            grain: DEFAULT_GRAIN,
        }
    }
}

/// Phase breakdown and decomposition statistics of one APGRE run — the data
/// behind the paper's Figure 8 and Table 4.
#[derive(Clone, Debug)]
pub struct ApgreReport {
    /// Algorithm 1 (BCC finding, merging, sub-graph construction).
    pub partition_time: Duration,
    /// α/β counting.
    pub alpha_beta_time: Duration,
    /// All sub-graph BC kernels (wall clock of the whole phase).
    pub bc_time: Duration,
    /// BC kernel time of the largest sub-graph alone.
    pub top_subgraph_bc_time: Duration,
    /// Number of sub-graphs.
    pub num_subgraphs: usize,
    /// Number of articulation points in the graph.
    pub num_articulation_points: usize,
    /// Vertices / edges of the top sub-graph.
    pub top_subgraph_vertices: usize,
    /// Edges of the top sub-graph.
    pub top_subgraph_edges: usize,
    /// Total roots swept (Σ |R_sgi|) — Brandes would sweep |V|.
    pub total_roots: usize,
    /// Total whiskers folded by γ.
    pub total_whiskers: usize,
    /// Edges examined across all kernels (forward + backward scans).
    pub edges_traversed: u64,
    /// The policy the run was configured with.
    pub kernel_policy: KernelPolicy,
    /// The scheduling grain the run was configured with.
    pub grain: usize,
    /// Kernel dispatched for the largest sub-graph (`None` when the graph is
    /// empty).
    pub top_subgraph_kernel: Option<KernelChoice>,
    /// How many sub-graphs ran each kernel: `(seq, root_parallel,
    /// level_sync)`.
    pub kernel_counts: (usize, usize, usize),
}

impl KernelChoice {
    /// Stable lower-case label for logs and metrics exporters
    /// (`seq` / `root_parallel` / `level_sync`).
    pub fn name(self) -> &'static str {
        match self {
            KernelChoice::Seq => "seq",
            KernelChoice::RootParallel => "root_parallel",
            KernelChoice::LevelSync => "level_sync",
        }
    }
}

impl ApgreReport {
    /// The per-kernel dispatch counts of [`ApgreReport::kernel_counts`]
    /// paired with their [`KernelChoice::name`] labels, in the fixed
    /// `(seq, root_parallel, level_sync)` order — the shape metrics
    /// exporters want.
    pub fn kernel_counts_named(&self) -> [(&'static str, usize); 3] {
        let (seq, rootpar, levelsync) = self.kernel_counts;
        [
            (KernelChoice::Seq.name(), seq),
            (KernelChoice::RootParallel.name(), rootpar),
            (KernelChoice::LevelSync.name(), levelsync),
        ]
    }

    /// Partition + α/β counting: everything that happens before the first
    /// kernel runs (the paper's "extra computations").
    pub fn decomposition_time(&self) -> Duration {
        self.partition_time + self.alpha_beta_time
    }

    /// Decomposition plus all kernel time.
    pub fn total_time(&self) -> Duration {
        self.decomposition_time() + self.bc_time
    }

    /// A report describing `decomp` under `opts` before any kernel ran:
    /// timings come from the decomposition, structure fields from
    /// [`ApgreReport::refresh_structure`], every kernel counter is zero
    /// (filled by [`ApgreReport::absorb_runs`]). `grain` is the effective
    /// grain the kernels use (`opts.grain`, at least 1).
    pub fn from_structure(decomp: &Decomposition, opts: &ApgreOptions) -> Self {
        let mut report = ApgreReport {
            partition_time: decomp.timings.partition,
            alpha_beta_time: decomp.timings.alpha_beta,
            bc_time: Duration::ZERO,
            top_subgraph_bc_time: Duration::ZERO,
            num_subgraphs: 0,
            num_articulation_points: 0,
            top_subgraph_vertices: 0,
            top_subgraph_edges: 0,
            total_roots: 0,
            total_whiskers: 0,
            edges_traversed: 0,
            kernel_policy: opts.kernel,
            grain: opts.grain.max(1),
            top_subgraph_kernel: None,
            kernel_counts: (0, 0, 0),
        };
        report.refresh_structure(decomp);
        report
    }

    /// Overwrites the structure fields (counts that describe the *current*
    /// decomposition, not accumulated work) from `decomp`.
    pub fn refresh_structure(&mut self, decomp: &Decomposition) {
        let top = decomp.subgraphs.get(decomp.top_subgraph);
        self.num_subgraphs = decomp.num_subgraphs();
        self.num_articulation_points = decomp.is_articulation.iter().filter(|&&a| a).count();
        self.top_subgraph_vertices = top.map_or(0, |sg| sg.num_vertices());
        self.top_subgraph_edges = top.map_or(0, |sg| sg.num_edges());
        self.total_roots = decomp.subgraphs.iter().map(|sg| sg.roots.len()).sum();
        self.total_whiskers =
            decomp.subgraphs.iter().map(|sg| sg.is_whisker.iter().filter(|&&w| w).count()).sum();
    }

    /// Accumulates kernel-run work (time, traversed edges, per-kernel
    /// counts); the run of sub-graph `top_index` also fills the
    /// top-sub-graph fields.
    pub fn absorb_runs(&mut self, top_index: usize, runs: &[SubgraphKernelRun]) {
        for run in runs {
            self.bc_time += run.time;
            self.edges_traversed += run.edges;
            match run.choice {
                KernelChoice::Seq => self.kernel_counts.0 += 1,
                KernelChoice::RootParallel => self.kernel_counts.1 += 1,
                KernelChoice::LevelSync => self.kernel_counts.2 += 1,
            }
            if run.index == top_index {
                self.top_subgraph_kernel = Some(run.choice);
                self.top_subgraph_bc_time += run.time;
            }
        }
    }
}

/// A pool of kernel [`kernel::Workspace`]s shared by all workers of the
/// outer parallel loop. Workers check one out under a short lock, run a
/// whole kernel on it lock-free, and return it; the kernel grows a recycled
/// workspace in place when a larger sub-graph draws it.
#[derive(Default)]
struct BufferPool(Mutex<Vec<kernel::Workspace>>);

impl BufferPool {
    // Pool locks recover from poisoning: a pooled workspace is reset-clean
    // between roots, so a worker that panicked mid-kernel cannot corrupt a
    // later checkout — and a second panic here would abort the process.
    fn take(&self) -> kernel::Workspace {
        self.0
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop()
            .unwrap_or_else(|| kernel::Workspace::new(0))
    }

    fn put(&self, ws: kernel::Workspace) {
        self.0.lock().unwrap_or_else(|p| p.into_inner()).push(ws);
    }
}

/// APGRE with default options.
pub fn bc_apgre(g: &Graph) -> Vec<f64> {
    bc_apgre_with(g, &ApgreOptions::default()).0
}

/// APGRE with explicit options; returns scores plus the phase report.
pub fn bc_apgre_with(g: &Graph, opts: &ApgreOptions) -> (Vec<f64>, ApgreReport) {
    let decomp = decompose(g, &opts.partition);
    bc_from_decomposition(g, &decomp, opts)
}

/// Runs only steps 2–3 on a pre-built decomposition: [`run_kernels`] over
/// every sub-graph's full root set, then the Equation-8 fold in ascending
/// sub-graph index order. Exposed so the harness can sweep kernel options
/// without re-decomposing, and so incremental callers can reuse a
/// decomposition across BC computations.
pub fn bc_from_decomposition(
    g: &Graph,
    decomp: &Decomposition,
    opts: &ApgreOptions,
) -> (Vec<f64>, ApgreReport) {
    let bc_start = Instant::now();
    let jobs: Vec<(usize, &[VertexId])> =
        decomp.subgraphs.iter().enumerate().map(|(i, sg)| (i, sg.roots.as_slice())).collect();
    let runs = run_kernels(decomp, &jobs, opts, false);
    let mut bc = vec![0.0f64; g.num_vertices()];
    for run in &runs {
        let sg = &decomp.subgraphs[run.index];
        for (&v, &score) in sg.globals.iter().zip(&run.local) {
            bc[v as usize] += score;
        }
    }
    let mut report = ApgreReport::from_structure(decomp, opts);
    report.absorb_runs(decomp.top_subgraph, &runs);
    // The batch phase reports its wall clock, not the sum of kernel times.
    report.bc_time = bc_start.elapsed();
    (bc, report)
}

/// The outcome of one job of [`run_kernels`]: the local score vector
/// (indexed by local vertex id, scatter via `sg.globals`) plus per-run
/// statistics.
#[derive(Clone, Debug)]
pub struct SubgraphKernelRun {
    /// Index of the sub-graph within the decomposition.
    pub index: usize,
    /// Unscaled Equation-7 contribution of the swept roots (the Equation-8
    /// summand when every root was swept), indexed by local vertex id.
    pub local: Vec<f64>,
    /// Edges examined by the kernel (forward + backward scans).
    pub edges: u64,
    /// The kernel actually dispatched (`Seq` whenever stats were
    /// requested: the observed sweep is sequential).
    pub choice: KernelChoice,
    /// Wall clock of this sub-graph's kernel.
    pub time: Duration,
    /// Per-root contribution statistics, present exactly when
    /// [`run_kernels`] was called with `stats`.
    pub stats: Option<RootStats>,
}

/// Streaming (Welford) statistics of the per-root contributions of one
/// [`run_kernels`] job — the kernel side of the variance-guided budget
/// allocator. Roots are folded in slice order, so the statistics are a pure
/// function of `(sub-graph content, root slice)` regardless of policy,
/// thread count, or scheduling.
#[derive(Clone, Debug)]
pub struct RootStats {
    /// Per-local-vertex Welford `M2` of the per-root contributions: the
    /// sample variance of root `r`'s contribution to vertex `v` is
    /// `vertex_m2[v] / (roots − 1)` (0 when fewer than two roots).
    pub vertex_m2: Vec<f64>,
    /// Welford mean of the per-root total contribution mass `Σ_v c_r(v)`.
    pub mass_mean: f64,
    /// Welford `M2` of the per-root total contribution mass.
    pub mass_m2: f64,
    /// Number of roots swept.
    pub roots: usize,
}

impl RootStats {
    fn new(n: usize) -> Self {
        RootStats { vertex_m2: vec![0.0; n], mass_mean: 0.0, mass_m2: 0.0, roots: 0 }
    }

    /// Folds one root's dense contribution vector `c` into the accumulators;
    /// `mean` is the per-vertex running mean, same length as `c`.
    fn observe(&mut self, mean: &mut [f64], c: &[f64]) {
        self.roots += 1;
        let k = self.roots as f64;
        let mut mass = 0.0f64;
        for ((&x, m), m2) in c.iter().zip(mean.iter_mut()).zip(self.vertex_m2.iter_mut()) {
            mass += x;
            let d = x - *m;
            *m += d / k;
            *m2 += d * (x - *m);
        }
        let d = mass - self.mass_mean;
        self.mass_mean += d / k;
        self.mass_m2 += d * (mass - self.mass_mean);
    }
}

/// The sub-graph dispatcher: runs [`kernel::bc_in_subgraph`] for every job
/// `(index, roots)` — `roots` being compacted local ids of sub-graph
/// `index`, `&sg.roots` for exact BC or a sample for the estimator — and
/// returns each job's local span **without** scattering it into a global
/// vector.
///
/// Scheduling: largest sub-graph first (the top sub-graph dominates,
/// Table 4, so it must start immediately), one shared `BufferPool` of
/// kernel workspaces, `opts.kernel`/`opts.grain` resolved per job on the
/// job's root count, and the outer rayon loop when `opts.outer_parallel`.
/// Results come back sorted by ascending job sub-graph index, so a caller
/// folding them in list order reproduces the batch driver's deterministic
/// merge order; each span is bitwise reproducible (`Seq`/`LevelSync`
/// unconditionally, `RootParallel` per pool size).
///
/// With `stats`, every job runs the observed sequential sweep and carries
/// its [`RootStats`]; the span stays bitwise identical to a
/// `KernelPolicy::Seq` run over the same roots. Parallelism then applies
/// only *across* jobs, which is where the sampled workload's concurrency
/// lives anyway.
pub fn run_kernels(
    decomp: &Decomposition,
    jobs: &[(usize, &[VertexId])],
    opts: &ApgreOptions,
    stats: bool,
) -> Vec<SubgraphKernelRun> {
    let threads = rayon::current_num_threads().max(1);
    let grain = opts.grain.max(1);
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    // Callers pass sub-graph ids taken from this same decomposition.
    order.sort_by_key(|&j| std::cmp::Reverse(decomp.subgraphs[jobs[j].0].num_vertices())); // lint:allow(panic_path)

    let pool = BufferPool::default();
    let out: Mutex<Vec<SubgraphKernelRun>> = Mutex::new(Vec::with_capacity(order.len()));
    let run_one = |&j: &usize| {
        let (index, roots) = jobs[j]; // lint:allow(panic_path) — j comes from the order permutation
        let sg = &decomp.subgraphs[index]; // lint:allow(panic_path) — same contract as the sort above
        let n = sg.num_vertices();
        let t = Instant::now();
        let mut local = vec![0.0f64; n];
        let mut ws = pool.take();
        let choice = if stats {
            KernelChoice::Seq
        } else {
            opts.kernel.choose(roots.len(), n, sg.num_edges(), threads, grain)
        };
        let mut acc = stats.then(|| (RootStats::new(n), vec![0.0f64; n]));
        let mut observe = acc.as_mut().map(|(st, mean)| move |c: &[f64]| st.observe(mean, c));
        let observe = observe.as_mut().map(|f| f as &mut dyn FnMut(&[f64]));
        let edges = kernel::bc_in_subgraph(sg, roots, choice, grain, &mut ws, &mut local, observe);
        let stats = acc.map(|(st, _)| st);
        pool.put(ws);
        let run = SubgraphKernelRun { index, local, edges, choice, time: t.elapsed(), stats };
        // Recover from poisoning: a panicking sibling kernel must not turn
        // into a second panic here — completed runs are still valid.
        out.lock().unwrap_or_else(|p| p.into_inner()).push(run);
    };
    if opts.outer_parallel {
        order.par_iter().for_each(run_one);
    } else {
        order.iter().for_each(run_one);
    }
    let mut runs = out.into_inner().unwrap_or_else(|p| p.into_inner());
    runs.sort_by_key(|r| r.index);
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes::bc_serial;
    use crate::parallel::test_support::zoo;
    use apgre_decomp::AlphaBetaMethod;
    use apgre_graph::generators;

    fn assert_close(name: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{name}");
        for i in 0..want.len() {
            let (x, y) = (got[i], want[i]);
            assert!(
                (x - y).abs() <= 1e-6 * (1.0 + x.abs().max(y.abs())),
                "{name}: vertex {i}: apgre {x}, brandes {y}"
            );
        }
    }

    #[test]
    fn matches_brandes_on_zoo() {
        for (name, g) in zoo() {
            let want = bc_serial(&g);
            assert_close(&name, &bc_apgre(&g), &want);
        }
    }

    #[test]
    fn matches_brandes_across_thresholds() {
        for (name, g) in zoo() {
            let want = bc_serial(&g);
            for threshold in [0, 1, 2, 4, 16, 1_000_000] {
                let opts = ApgreOptions {
                    partition: PartitionOptions {
                        merge_threshold: threshold,
                        ..Default::default()
                    },
                    ..Default::default()
                };
                let (got, _) = bc_apgre_with(&g, &opts);
                assert_close(&format!("{name}@t{threshold}"), &got, &want);
            }
        }
    }

    #[test]
    fn matches_with_bfs_alpha_beta() {
        for (name, g) in zoo() {
            let want = bc_serial(&g);
            let opts = ApgreOptions {
                partition: PartitionOptions {
                    merge_threshold: 4,
                    alpha_beta: AlphaBetaMethod::BlockedBfs,
                    ..Default::default()
                },
                ..Default::default()
            };
            let (got, _) = bc_apgre_with(&g, &opts);
            assert_close(&format!("{name}+bfsab"), &got, &want);
        }
    }

    #[test]
    fn forced_level_sync_matches() {
        for (name, g) in zoo() {
            let want = bc_serial(&g);
            let opts =
                ApgreOptions { kernel: KernelPolicy::LevelSync, grain: 1, ..Default::default() };
            let (got, report) = bc_apgre_with(&g, &opts);
            assert_close(&format!("{name}+levelsync"), &got, &want);
            assert_eq!(report.kernel_counts.2, report.num_subgraphs, "{name}");
        }
    }

    #[test]
    fn forced_root_parallel_matches() {
        for (name, g) in zoo() {
            let want = bc_serial(&g);
            let opts =
                ApgreOptions { kernel: KernelPolicy::RootParallel, grain: 1, ..Default::default() };
            let (got, report) = bc_apgre_with(&g, &opts);
            assert_close(&format!("{name}+rootpar"), &got, &want);
            assert_eq!(report.kernel_counts.1, report.num_subgraphs, "{name}");
        }
    }

    #[test]
    fn forced_seq_matches() {
        for (name, g) in zoo() {
            let want = bc_serial(&g);
            let opts = ApgreOptions { kernel: KernelPolicy::Seq, ..Default::default() };
            let (got, report) = bc_apgre_with(&g, &opts);
            assert_close(&format!("{name}+seq"), &got, &want);
            assert_eq!(report.kernel_counts.0, report.num_subgraphs, "{name}");
        }
    }

    #[test]
    fn serial_outer_matches() {
        for (name, g) in zoo() {
            let want = bc_serial(&g);
            let opts = ApgreOptions { outer_parallel: false, ..Default::default() };
            let (got, _) = bc_apgre_with(&g, &opts);
            assert_close(&format!("{name}+seqouter"), &got, &want);
        }
    }

    #[test]
    fn auto_policy_heuristic() {
        let p = KernelPolicy::Auto;
        let g = DEFAULT_GRAIN;
        // One thread: always sequential, whatever the size.
        assert_eq!(p.choose(10_000, 100_000, 500_000, 1, g), KernelChoice::Seq);
        // Tiny sub-graph: sequential.
        assert_eq!(p.choose(10, 12, 30, 8, g), KernelChoice::Seq);
        // Root-rich and big: root-parallel.
        assert_eq!(p.choose(10_000, 100_000, 500_000, 8, g), KernelChoice::RootParallel);
        // Root-starved top sub-graph: level-sync.
        assert_eq!(p.choose(4, 100_000, 500_000, 8, g), KernelChoice::LevelSync);
        // Root-starved and mid-sized: not worth forking.
        assert_eq!(p.choose(4, 2 * g, 500_000, 8, g), KernelChoice::Seq);
        // Forced policies ignore the statistics.
        assert_eq!(KernelPolicy::Seq.choose(0, 0, 0, 64, g), KernelChoice::Seq);
        assert_eq!(KernelPolicy::RootParallel.choose(0, 0, 0, 1, g), KernelChoice::RootParallel);
        assert_eq!(KernelPolicy::LevelSync.choose(0, 0, 0, 1, g), KernelChoice::LevelSync);
    }

    #[test]
    fn auto_policy_saturates_at_extreme_inputs() {
        let p = KernelPolicy::Auto;
        // A usize::MAX grain must not overflow the work thresholds: every
        // multiply saturates, so the policy degrades to Seq instead of
        // panicking in debug builds.
        assert_eq!(p.choose(10_000, 100_000, 500_000, 8, usize::MAX), KernelChoice::Seq);
        // usize::MAX thread count: `threads * 2` saturates, the root-rich
        // branch can no longer trigger, and the size branch decides.
        assert_eq!(p.choose(4, 100_000, 500_000, usize::MAX, 64), KernelChoice::LevelSync);
        // usize::MAX roots and edges: `roots * edges` saturates instead of
        // wrapping to something below `min_work`.
        assert_eq!(p.choose(usize::MAX, 100_000, usize::MAX, 8, 64), KernelChoice::RootParallel);
    }

    #[test]
    fn kernel_policy_parses() {
        for (s, want) in [
            ("auto", KernelPolicy::Auto),
            ("seq", KernelPolicy::Seq),
            ("rootpar", KernelPolicy::RootParallel),
            ("levelsync", KernelPolicy::LevelSync),
        ] {
            assert_eq!(s.parse::<KernelPolicy>().unwrap(), want);
        }
        assert!("fancy".parse::<KernelPolicy>().is_err());
    }

    #[test]
    fn report_accounts_match_decomposition() {
        let g = generators::whiskered_community(&generators::WhiskeredCommunityParams {
            core_vertices: 90,
            core_attach: 2,
            community_count: 7,
            community_size: 10,
            community_density: 1.6,
            whiskers: 45,
            seed: 33,
        });
        let (bc, report) = bc_apgre_with(&g, &ApgreOptions::default());
        assert_eq!(bc.len(), g.num_vertices());
        assert!(report.num_subgraphs >= 1);
        assert!(report.total_whiskers >= 40, "whiskers folded: {}", report.total_whiskers);
        assert!(report.total_roots < g.num_vertices());
        assert!(report.edges_traversed > 0);
        let (s, r, l) = report.kernel_counts;
        assert_eq!(s + r + l, report.num_subgraphs, "every sub-graph dispatched exactly once");
        assert!(report.top_subgraph_kernel.is_some());
        assert_eq!(report.kernel_policy, KernelPolicy::Auto);
        assert_eq!(report.grain, DEFAULT_GRAIN);
        // Redundancy elimination means strictly less sweep work than
        // Brandes' n·2m·2 on this articulation-rich graph.
        let brandes_edges = (g.num_vertices() as u64) * (g.num_arcs() as u64) * 2;
        assert!(report.edges_traversed < brandes_edges / 2);
    }

    fn all_roots(decomp: &Decomposition) -> Vec<(usize, &[VertexId])> {
        decomp.subgraphs.iter().enumerate().map(|(i, sg)| (i, sg.roots.as_slice())).collect()
    }

    #[test]
    fn run_kernels_refolds_bitwise_to_batch_result() {
        for (name, g) in zoo() {
            for kernel in [KernelPolicy::Seq, KernelPolicy::Auto, KernelPolicy::LevelSync] {
                let opts = ApgreOptions { kernel, grain: 1, ..Default::default() };
                let decomp = decompose(&g, &opts.partition);
                let (want, _) = bc_from_decomposition(&g, &decomp, &opts);
                let runs = run_kernels(&decomp, &all_roots(&decomp), &opts, false);
                assert_eq!(runs.len(), decomp.num_subgraphs(), "{name}");
                let mut got = vec![0.0f64; g.num_vertices()];
                for (k, run) in runs.iter().enumerate() {
                    assert_eq!(run.index, k, "{name}: sorted ascending");
                    assert!(run.stats.is_none(), "{name}: no stats unless requested");
                    let sg = &decomp.subgraphs[run.index];
                    for (l, &score) in run.local.iter().enumerate() {
                        got[sg.globals[l] as usize] += score;
                    }
                }
                assert_eq!(got, want, "{name}/{kernel:?}: ascending refold must be bitwise");
            }
        }
    }

    #[test]
    fn stats_runs_are_bitwise_to_seq_and_welford_consistent() {
        for (name, g) in zoo() {
            let decomp = decompose(&g, &PartitionOptions::default());
            let jobs = all_roots(&decomp);
            let seq = ApgreOptions { kernel: KernelPolicy::Seq, ..Default::default() };
            let want = run_kernels(&decomp, &jobs, &seq, false);
            for kernel in [KernelPolicy::Seq, KernelPolicy::RootParallel, KernelPolicy::LevelSync] {
                let opts = ApgreOptions { kernel, grain: 1, ..Default::default() };
                let got = run_kernels(&decomp, &jobs, &opts, true);
                assert_eq!(got.len(), want.len(), "{name}");
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!(a.index, b.index, "{name}");
                    assert_eq!(
                        a.choice,
                        KernelChoice::Seq,
                        "{name}: observed sweeps are sequential"
                    );
                    assert_eq!(
                        a.local, b.local,
                        "{name}/{kernel:?}: SG{} observed sweep must be bitwise to the plain one",
                        a.index
                    );
                    assert_eq!(a.edges, b.edges, "{name}");
                    let st = a.stats.as_ref().expect("stats requested");
                    assert_eq!(st.roots, decomp.subgraphs[a.index].roots.len(), "{name}");
                    // The Welford mass mean times the root count is the span
                    // total (up to fp association), and M2 is non-negative.
                    let total: f64 = a.local.iter().sum();
                    let welford_total = st.mass_mean * st.roots as f64;
                    assert!(
                        (total - welford_total).abs() <= 1e-9 * (1.0 + total.abs()),
                        "{name}: SG{}: span total {total} vs Welford {welford_total}",
                        a.index
                    );
                    assert!(st.mass_m2 >= 0.0, "{name}");
                    assert!(st.vertex_m2.iter().all(|&x| x >= 0.0), "{name}");
                }
            }
        }
    }

    #[test]
    fn whisker_on_articulation_point_regression() {
        // Whisker u attached to an articulation point s that borders another
        // sub-graph: exercises the `+α(s)` root correction.
        // 0 (whisker) - 1 - [triangle 1,2,3] - 3 - [triangle 3,4,5]
        let g = apgre_graph::Graph::undirected_from_edges(
            6,
            &[(0, 1), (1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)],
        );
        let want = bc_serial(&g);
        for threshold in [0, 1, 4, 100] {
            let opts = ApgreOptions {
                partition: PartitionOptions { merge_threshold: threshold, ..Default::default() },
                ..Default::default()
            };
            let (got, _) = bc_apgre_with(&g, &opts);
            assert_close(&format!("whisker-art@t{threshold}"), &got, &want);
        }
    }

    #[test]
    fn directed_whisker_on_articulation_point() {
        // Directed analogue: whisker 0 -> 1 where 1 is a cut vertex between
        // two directed cycles.
        let g = apgre_graph::Graph::directed_from_edges(
            6,
            &[(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3)],
        );
        let want = bc_serial(&g);
        let (got, _) = bc_apgre_with(&g, &ApgreOptions::default());
        assert_close("dir-whisker-art", &got, &want);
    }

    #[test]
    fn star_exact() {
        let g = generators::star(25);
        let bc = bc_apgre(&g);
        assert_eq!(bc[0], 25.0 * 24.0);
        assert!(bc[1..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn path_exact() {
        let n = 12;
        let g = generators::path(n);
        let bc = bc_apgre(&g);
        for i in 0..n {
            let want = 2.0 * (i as f64) * ((n - 1 - i) as f64);
            assert!((bc[i] - want).abs() < 1e-9, "vertex {i}: {} vs {want}", bc[i]);
        }
    }

    #[test]
    fn empty_and_isolated() {
        let g = apgre_graph::Graph::undirected_from_edges(0, &[]);
        assert!(bc_apgre(&g).is_empty());
        let g = apgre_graph::Graph::undirected_from_edges(4, &[(1, 2)]);
        assert_eq!(bc_apgre(&g), vec![0.0; 4]);
    }
}

//! The compute path: `decompose` then `bc_from_decomposition`, repeated for
//! each round's time budget and checked against Brandes after every solve.

use std::time::{Duration, Instant};

use apgre_bc::{bc_from_decomposition, bc_serial, ApgreOptions};
use apgre_decomp::decompose;
use apgre_graph::Graph;

use crate::stats::median;
use crate::trace::Tracer;
use crate::Run;

/// One solve's observations, in seconds.
struct Solve {
    total: f64,
    decompose: f64,
    partition: f64,
    alpha_beta: f64,
    kernels: f64,
    top: f64,
    edges: u64,
    roots: usize,
    /// Kernels `Auto` dispatched: (seq, root-parallel, level-sync).
    kernels_run: (usize, usize, usize),
}

/// Runs one solve, with spans around the two public calls.
fn solve(g: &Graph, opts: &ApgreOptions, tr: &mut Tracer) -> (Vec<f64>, Solve) {
    let t0 = Instant::now();
    let s = tr.open("compute.solve");
    let sd = tr.open("decomp.decompose");
    let d = decompose(g, &opts.partition);
    tr.close(sd);
    let decompose_t = t0.elapsed();
    let sb = tr.open("bc.kernels");
    let (bc, rep) = bc_from_decomposition(g, &d, opts);
    tr.close(sb);
    tr.close(s);
    let obs = Solve {
        total: t0.elapsed().as_secs_f64(),
        decompose: decompose_t.as_secs_f64(),
        partition: d.timings.partition.as_secs_f64(),
        alpha_beta: d.timings.alpha_beta.as_secs_f64(),
        kernels: rep.bc_time.as_secs_f64(),
        top: rep.top_subgraph_bc_time.as_secs_f64(),
        edges: rep.edges_traversed,
        roots: rep.total_roots,
        kernels_run: rep.kernel_counts,
    };
    (std::hint::black_box(bc), obs)
}

/// Samples gathered across rounds.
pub struct Compute {
    opts: ApgreOptions,
    /// Brandes scores, computed once per process.
    reference: Vec<f64>,
    traced: Vec<Solve>,
    untraced: Vec<Solve>,
}

impl Compute {
    /// Computes the Brandes reference for `g` (untimed).
    pub fn new(g: &Graph) -> Self {
        Compute {
            opts: ApgreOptions::default(),
            reference: bc_serial(g),
            traced: Vec::new(),
            untraced: Vec::new(),
        }
    }

    /// Solves repeatedly for `budget` (at least once).
    pub fn round(&mut self, g: &Graph, budget: Duration, run: &mut Run) {
        let traced = run.tracer.enabled();
        let start = Instant::now();
        let mut checking = Duration::ZERO;
        let mut first = true;
        while first || start.elapsed().saturating_sub(checking) < budget {
            first = false;
            // The traced run alternates traced and untraced solves, so the
            // tracing overhead is measured in one process on one graph.
            let trace_this = traced && (self.traced.len() + self.untraced.len()).is_multiple_of(2);
            run.tracer.set_enabled(trace_this);
            let opts = &self.opts;
            let (bc, obs) = run.pool.install(|| solve(g, opts, &mut run.tracer));
            run.tracer.set_enabled(traced);
            let t = Instant::now();
            run.attempted += 1;
            if let Err(e) = crate::check::scores_match(&bc, &self.reference) {
                run.fail(format!("compute: solve vs Brandes: {e}"));
            }
            checking += t.elapsed();
            if trace_this {
                self.traced.push(obs);
            } else {
                self.untraced.push(obs);
            }
        }
    }

    /// Reports the phase's metrics.
    pub fn finish(self, g: &Graph, run: &mut Run) {
        let col = |v: &[Solve], f: fn(&Solve) -> f64| median(&v.iter().map(f).collect::<Vec<_>>());
        let solve_s = col(&self.untraced, |s| s.total);
        eprintln!(
            "compute: {} solves, solve_s median {solve_s:.4} s, MTEPS {:.2} (n·m/solve_s)",
            self.traced.len() + self.untraced.len(),
            g.num_vertices() as f64 * g.num_edges() as f64 / solve_s / 1e6
        );
        run.e2e("solve_s", solve_s, "s");
        if !run.tracer.enabled() {
            return;
        }
        let on = &self.traced;
        // t₁ for the parallel efficiency: the same solve in a 1-thread pool.
        let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("1-thread pool");
        let t1 = median(
            &(0..3)
                .map(|_| {
                    let mut quiet = Tracer::new(false, 0);
                    one.install(|| solve(g, &self.opts, &mut quiet)).1.total
                })
                .collect::<Vec<_>>(),
        );
        let kernels = col(on, |s| s.kernels);
        let decompose_ms = col(on, |s| s.decompose) * 1e3;
        let traced_solve = col(on, |s| s.total);
        eprintln!(
            "compute: decompose {decompose_ms:.3} ms + kernels {kernels:.4} s = {:.2}% of traced solve_s {traced_solve:.4} s",
            100.0 * (decompose_ms / 1e3 + kernels) / traced_solve
        );
        run.layer("decomp.decompose_ms", decompose_ms, "ms");
        run.layer("decomp.partition_ms", col(on, |s| s.partition) * 1e3, "ms");
        run.layer("decomp.alpha_beta_ms", col(on, |s| s.alpha_beta) * 1e3, "ms");
        run.layer("bc.kernels_s", kernels, "s");
        run.layer("bc.edges_traversed", on[0].edges as f64, "count");
        run.layer("bc.edges_per_s", col(on, |s| s.edges as f64 / s.kernels), "1/s");
        run.layer("bc.top_subgraph_s", col(on, |s| s.top), "s");
        run.layer("bc.top_share", col(on, |s| s.top / s.kernels), "frac");
        run.layer("bc.roots_per_vertex", on[0].roots as f64 / g.num_vertices() as f64, "ratio");
        let (seq, rootpar, levelsync) = on[0].kernels_run;
        run.layer("bc.kernel_seq", seq as f64, "count");
        run.layer("bc.kernel_rootpar", rootpar as f64, "count");
        run.layer("bc.kernel_levelsync", levelsync as f64, "count");
        run.layer("bc.threads_observed", run.observed_threads as f64, "count");
        run.layer("bc.parallel_efficiency", t1 / (run.nproc as f64 * solve_s), "frac");
        // Compute solves only; see `bench.tracing_overhead_mutate_frac` for
        // the mutation phase.
        run.layer("bench.tracing_overhead_frac", traced_solve / solve_s - 1.0, "frac");
    }
}

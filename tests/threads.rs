//! Determinism on real worker threads: APGRE's two-level parallelism (the
//! outer loop over sub-graphs, the root-parallel chunks inside one) runs on
//! every thread of the pool, yet each pool size gives one bitwise answer —
//! run to run, nested or not, batch or incremental.

use apgre::bc::apgre::kernel::{bc_in_subgraph, Workspace};
use apgre::bc::bc_from_decomposition;
use apgre::prelude::*;
use apgre::workloads::{get, Scale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool")
}

fn assert_close(ctx: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (v, (&x, &y)) in got.iter().zip(want).enumerate() {
        assert!(
            (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs())),
            "{ctx}: vertex {v}: got {x}, want {y}"
        );
    }
}

fn graph(name: &str) -> Graph {
    get(name).unwrap_or_else(|| panic!("workload {name}")).graph(Scale::Tiny)
}

#[test]
fn auto_is_bitwise_stable_in_a_two_thread_pool() {
    let two = pool(2);
    for name in ["youtube-like", "usa-road-ny-like"] {
        let g = graph(name);
        let d = decompose(&g, &PartitionOptions::default());
        let opts = ApgreOptions::default();
        let runs: Vec<Vec<f64>> =
            (0..3).map(|_| two.install(|| bc_from_decomposition(&g, &d, &opts).0)).collect();
        assert_eq!(runs[0], runs[1], "{name}: run 2 diverged bitwise");
        assert_eq!(runs[0], runs[2], "{name}: run 3 diverged bitwise");
        assert_close(name, &runs[0], &bc_serial(&g));
    }
}

#[test]
fn nested_root_parallel_matches_the_callers_run() {
    let two = pool(2);
    let g = graph("youtube-like");
    let d = decompose(&g, &PartitionOptions::default());
    let sg = &d.subgraphs[d.top_subgraph];
    let sweep = || {
        let mut local = vec![0.0f64; sg.num_vertices()];
        let ws = &mut Workspace::new(1);
        bc_in_subgraph(sg, &sg.roots, KernelChoice::RootParallel, 2, ws, &mut local, None);
        local
    };
    let from_caller = two.install(sweep);
    // Four sweeps from inside an outer parallel loop: some start on the
    // worker, some on the caller, all while the other thread is busy.
    let nested: Vec<Vec<f64>> = two.install(|| (0..4).into_par_iter().map(|_| sweep()).collect());
    for (k, run) in nested.iter().enumerate() {
        assert_eq!(run, &from_caller, "nested sweep {k} diverged bitwise");
    }
    // The same through the whole driver: a forced RootParallel solve per
    // outer item.
    let opts = ApgreOptions { kernel: KernelPolicy::RootParallel, grain: 2, ..Default::default() };
    let solve = || bc_from_decomposition(&g, &d, &opts).0;
    let from_caller = two.install(solve);
    let nested: Vec<Vec<f64>> = two.install(|| (0..3).into_par_iter().map(|_| solve()).collect());
    for (k, run) in nested.iter().enumerate() {
        assert_eq!(run, &from_caller, "nested solve {k} diverged bitwise");
    }
}

#[test]
fn a_two_thread_pool_runs_on_two_threads() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 2 {
        assert_eq!(apgre_bench::observed_parallelism(2), 2);
    }
}

#[test]
fn dynamic_engine_stays_bitwise_in_a_two_thread_pool() {
    let two = pool(2);
    let g = graph("youtube-like");
    let opts = ApgreOptions::default();
    let mut engine = two.install(|| DynamicBc::new(&g, opts.clone()));
    let mut rng = StdRng::seed_from_u64(0x7468_7265_6164_7321);
    for step in 0..20 {
        // Toggle a seeded vertex pair: an add or a remove, local or
        // structural depending on where it lands.
        let n = engine.num_vertices();
        let (u, v) = (rng.gen_range(0..n) as VertexId, rng.gen_range(0..n) as VertexId);
        let current = engine.current_graph();
        let batch = if u != v && current.out_neighbors(u).contains(&v) {
            MutationBatch::new().remove_edge(u, v)
        } else {
            MutationBatch::new().add_edge(u, v)
        };
        two.install(|| engine.apply(&batch));
        let current = engine.current_graph();
        // Bitwise: the batch driver on the engine's own decomposition, in
        // the same pool. A from-scratch solve agrees to 1e-9 but not
        // bitwise: a fresh decomposition may split an edited sub-graph
        // differently, which changes the fold order (it does on this seeded
        // stream, in a one-thread pool as well).
        let (anchor, _) =
            two.install(|| bc_from_decomposition(&current, engine.decomposition(), &opts));
        assert_eq!(engine.scores(), &anchor[..], "step {step}: diverged bitwise");
        let (scratch, _) = two.install(|| bc_apgre_with(&current, &opts));
        assert_close(&format!("step {step} vs scratch"), engine.scores(), &scratch);
    }
}

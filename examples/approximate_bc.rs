//! Approximate BC by source sampling (the paper's §6 approximation line,
//! and the §5.2 GPU-sampling comparison): quality/time trade-off of the
//! Brandes–Pich estimator and the APGRE-composed sampler against exact BC.
//!
//! ```sh
//! cargo run --release --example approximate_bc
//! ```

use apgre::bc::approx::{bc_approx, spearman_rank_correlation};
use apgre::prelude::*;
use apgre::workloads::{get, Scale};
use std::time::Instant;

fn main() {
    let g = get("email-enron-like").unwrap().graph(Scale::Small);
    println!(
        "workload: email-enron-like, {} vertices, {} edges\n",
        g.num_vertices(),
        g.num_edges()
    );

    let t = Instant::now();
    let exact = bc_serial(&g);
    let t_exact = t.elapsed();
    println!("exact serial Brandes: {t_exact:.2?}");

    println!("\nBrandes–Pich source sampling:");
    println!("{:<10} {:>10} {:>10} {:>12}", "pivots", "time", "speedup", "spearman ρ");
    let n = g.num_vertices();
    for k in [n / 20, n / 10, n / 4, n / 2] {
        let t = Instant::now();
        let est = bc_approx(&g, k, 7);
        let dt = t.elapsed();
        let rho = spearman_rank_correlation(&exact, &est);
        println!(
            "{:<10} {:>10.2?} {:>9.1}x {:>12.4}",
            k,
            dt,
            t_exact.as_secs_f64() / dt.as_secs_f64(),
            rho
        );
    }

    // The composed estimator takes a global root budget: ⌈fraction · Σ|R|⌉
    // roots, spread over the sub-graphs by the variance-guided allocator.
    let opts = ApgreOptions::default();
    let total_roots: usize =
        decompose(&g, &opts.partition).subgraphs.iter().map(|sg| sg.roots.len()).sum();
    let budget =
        |fraction: f64| SampleOptions::adaptive((fraction * total_roots as f64).ceil() as usize, 7);

    println!("\nsampling composed with APGRE (per-sub-graph pivots, γ folding kept):");
    println!("{:<10} {:>10} {:>10} {:>12}", "fraction", "time", "speedup", "spearman ρ");
    for fraction in [0.05, 0.1, 0.25, 0.5] {
        let t = Instant::now();
        let est = bc_sampled(&g, &opts, &budget(fraction));
        let dt = t.elapsed();
        let rho = spearman_rank_correlation(&exact, &est);
        println!(
            "{:<10} {:>10.2?} {:>9.1}x {:>12.4}",
            fraction,
            dt,
            t_exact.as_secs_f64() / dt.as_secs_f64(),
            rho
        );
    }

    // Top-10 overlap at the cheapest setting.
    let est = bc_sampled(&g, &opts, &budget(0.1));
    let top = |xs: &[f64]| -> std::collections::HashSet<usize> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|&a, &b| xs[b].total_cmp(&xs[a]));
        idx.into_iter().take(10).collect()
    };
    let overlap = top(&exact).intersection(&top(&est)).count();
    println!("\ntop-10 overlap at 10% APGRE sampling: {overlap}/10");
}

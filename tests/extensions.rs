//! Integration tests for the extension modules (weighted, edge, sampled
//! approximation) across the workload registry.

use apgre::bc::approx::spearman_rank_correlation;
use apgre::bc::edge::{edge_bc, undirected_edge_scores};
use apgre::bc::weighted::{bc_weighted_apgre, bc_weighted_serial};
use apgre::graph::WeightedGraph;
use apgre::prelude::*;
use apgre::workloads::{registry, Scale};

#[test]
fn weighted_apgre_matches_weighted_serial_on_workloads() {
    for spec in registry().into_iter().step_by(4) {
        let g = spec.graph(Scale::Tiny);
        let wg = WeightedGraph::random_weights(g, 8, 77);
        let want = bc_weighted_serial(&wg);
        let got = bc_weighted_apgre(&wg);
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!(
                (a - b).abs() <= 1e-6 * (1.0 + b.abs()),
                "{} vertex {i}: {a} vs {b}",
                spec.name
            );
        }
    }
}

#[test]
fn unit_weighted_apgre_equals_unweighted_apgre() {
    let g = registry()[0].graph(Scale::Tiny);
    let wg = WeightedGraph::unit(g.clone());
    let a = bc_weighted_apgre(&wg);
    let b = bc_apgre(&g);
    for (x, y) in a.iter().zip(&b) {
        assert!((x - y).abs() <= 1e-7 * (1.0 + y.abs()));
    }
}

#[test]
fn edge_bc_total_mass_invariant_on_workloads() {
    // Σ EBC(e) = Σ_{s,t reachable} d(s,t) on every workload family.
    for spec in registry().into_iter().step_by(5) {
        let g = spec.graph(Scale::Tiny);
        let scores = edge_bc(&g);
        let total: f64 = scores.iter().sum();
        let mut dist_sum = 0f64;
        for s in g.vertices() {
            let d = apgre::graph::traversal::bfs_distances(g.csr(), s);
            for v in g.vertices() {
                if v != s && d[v as usize] != apgre::graph::UNREACHED {
                    dist_sum += d[v as usize] as f64;
                }
            }
        }
        assert!(
            (total - dist_sum).abs() < 1e-6 * (1.0 + dist_sum),
            "{}: {total} vs {dist_sum}",
            spec.name
        );
    }
}

#[test]
fn undirected_edge_scores_are_complete() {
    let g = registry()[0].graph(Scale::Tiny); // email-enron-like, undirected
    let scores = edge_bc(&g);
    let per_edge = undirected_edge_scores(&g, &scores);
    assert_eq!(per_edge.len(), g.num_edges());
    let arc_total: f64 = scores.iter().sum();
    let edge_total: f64 = per_edge.iter().map(|(_, s)| s).sum();
    assert!((arc_total - edge_total).abs() < 1e-6 * (1.0 + arc_total));
}

#[test]
fn approx_apgre_quality_on_workloads() {
    for name in ["youtube-like", "wikitalk-like"] {
        let g = apgre::workloads::get(name).unwrap().graph(Scale::Tiny);
        let exact = bc_serial(&g);
        // Half the decomposition's roots, spread by the adaptive allocator.
        let opts = ApgreOptions::default();
        let total: usize =
            decompose(&g, &opts.partition).subgraphs.iter().map(|sg| sg.roots.len()).sum();
        let est = bc_sampled(&g, &opts, &SampleOptions::adaptive(total.div_ceil(2), 11));
        let rho = spearman_rank_correlation(&exact, &est);
        assert!(rho > 0.8, "{name}: spearman {rho}");
    }
}

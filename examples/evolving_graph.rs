//! Evolving-graph BC with the incremental engine: recompute betweenness
//! after small edits, re-sweeping only the sub-graphs whose structure
//! actually changed and reusing every other sub-graph's contribution.
//!
//! ```sh
//! cargo run --release --example evolving_graph
//! ```

use apgre::prelude::*;
use apgre::workloads::{get, Scale};
use std::time::Instant;

fn main() {
    let g0 = get("email-enron-like").unwrap().graph(Scale::Small);
    println!("base graph: {} vertices, {} edges", g0.num_vertices(), g0.num_edges());

    let t = Instant::now();
    let mut engine = DynamicBc::new(&g0, ApgreOptions::default());
    println!(
        "\ncold run: {:?} ({} sub-graph kernels)",
        t.elapsed(),
        engine.decomposition().num_subgraphs()
    );

    // Simulate an evolving network: add a chord between two interior
    // (non-boundary, non-whisker) vertices of one community at a time. The
    // edit stays inside that sub-graph, so only its kernel re-runs.
    let decomp = engine.decomposition().clone();
    let chords: Vec<(usize, VertexId, VertexId)> = decomp
        .subgraphs
        .iter()
        .filter(|sg| sg.id != decomp.top_subgraph)
        .filter_map(|sg| {
            let interior: Vec<VertexId> = (0..sg.num_vertices() as VertexId)
                .filter(|&l| !sg.is_boundary[l as usize] && !sg.is_whisker[l as usize])
                .collect();
            interior.iter().enumerate().find_map(|(i, &lu)| {
                interior[i + 1..]
                    .iter()
                    .find(|&&lv| !sg.graph.out_neighbors(lu).contains(&lv))
                    .map(|&lv| (sg.id, sg.globals[lu as usize], sg.globals[lv as usize]))
            })
        })
        .take(5)
        .collect();

    let mut reused = 0usize;
    let mut rerun = 0usize;
    for (step, &(sg, a, b)) in chords.iter().enumerate() {
        let report = engine.apply(&MutationBatch::new().add_edge(a, b));
        reused += report.reused_contributions;
        rerun += report.dirty_subgraphs;
        println!(
            "edit {}: +chord in SG{sg} -> {:?} batch in {:?}, re-ran {} sub-graph(s), \
             reused {} contribution(s)",
            step + 1,
            report.class,
            report.wall_clock,
            report.dirty_subgraphs,
            report.reused_contributions
        );
        // Exactness spot-check every other step.
        if step % 2 == 0 {
            let exact = bc_serial(&engine.current_graph());
            let max_err = engine
                .scores()
                .iter()
                .zip(&exact)
                .map(|(x, y)| (x - y).abs() / (1.0 + y.abs()))
                .fold(0.0f64, f64::max);
            assert!(max_err < 1e-9, "max rel err {max_err}");
        }
    }

    println!("\ntotals: {reused} contributions reused / {rerun} kernel runs");
}

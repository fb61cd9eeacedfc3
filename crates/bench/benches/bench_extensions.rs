//! Criterion micro-benchmarks for the extension modules: weighted BC,
//! source-sampled approximation, and incremental BC on an evolving graph.

use apgre_bc::approx::bc_approx;
use apgre_bc::weighted::{bc_weighted_apgre, bc_weighted_serial};
use apgre_bc::ApgreOptions;
use apgre_bench::interior_chord;
use apgre_dynamic::{DynamicBc, MutationBatch};
use apgre_graph::WeightedGraph;
use apgre_workloads::{get, Scale};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_extensions(c: &mut Criterion) {
    let mut group = c.benchmark_group("extensions");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    let g = get("email-enron-like").unwrap().graph(Scale::Tiny);
    let wg = WeightedGraph::random_weights(g.clone(), 8, 1);
    group.bench_function("weighted-serial", |b| b.iter(|| bc_weighted_serial(&wg)));
    group.bench_function("weighted-apgre", |b| b.iter(|| bc_weighted_apgre(&wg)));
    group.bench_function("approx-10pct", |b| b.iter(|| bc_approx(&g, g.num_vertices() / 10, 3)));
    group.bench_function("dynamic-local-batch", |b| {
        let mut engine = DynamicBc::new(&g, ApgreOptions::default());
        let d = engine.decomposition();
        let (u, v) = d
            .subgraphs
            .iter()
            .filter(|sg| sg.id != d.top_subgraph)
            .find_map(interior_chord)
            .expect("no community sub-graph with an interior chord");
        let mut present = false;
        b.iter(|| {
            present = !present;
            let batch = if present {
                MutationBatch::new().add_edge(u, v)
            } else {
                MutationBatch::new().remove_edge(u, v)
            };
            engine.apply(&batch)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_extensions);
criterion_main!(benches);

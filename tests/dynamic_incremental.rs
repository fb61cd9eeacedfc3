//! Incremental-vs-scratch equivalence (Issue 3 acceptance criteria).
//!
//! Drives [`DynamicBc`] with random mutation streams and asserts, **after
//! every batch**, that the maintained scores match a from-scratch APGRE run
//! on the current graph (1e-9 relative), and — for the forced-`Seq` kernel —
//! that the maintained scores are bitwise identical to
//! `bc_from_decomposition` on the engine's own maintained decomposition.
//! (A *fresh* decomposition may legitimately split a locally-edited
//! sub-graph at new internal articulation points, so the bitwise anchor is
//! the engine's decomposition; the fresh-scratch comparison uses the 1e-9
//! relative tolerance.)

use apgre::approx::bc_sampled_with_stderr_from_decomposition;
use apgre::bc::bc_from_decomposition;
use apgre::graph::generators::{whiskered_community, WhiskeredCommunityParams};
use apgre::prelude::*;
use apgre_workloads::{registry, Scale};

fn assert_close(ctx: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{ctx}");
    for i in 0..want.len() {
        assert!(
            (got[i] - want[i]).abs() <= 1e-9 * (1.0 + got[i].abs().max(want[i].abs())),
            "{ctx}: vertex {i}: incremental {} vs scratch {}",
            got[i],
            want[i]
        );
    }
}

/// Deterministic xorshift64*: independent of which `rand` build is linked
/// (the offline stand-in and upstream `rand` have different streams).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One random mutation against the current graph: biased toward edge adds
/// and removals (including whisker edges), with occasional vertex churn so
/// the stream exercises every classification path.
fn random_batch(rng: &mut Rng, engine: &DynamicBc) -> MutationBatch {
    let n = engine.num_vertices();
    let g = engine.current_graph();
    let roll = rng.below(100);
    if roll < 45 {
        // Random add: often creates chords (local) or bridges/articulation
        // points (structural). Duplicate picks are harmless no-ops.
        MutationBatch::new().add_edge(rng.below(n) as u32, rng.below(n) as u32)
    } else if roll < 85 {
        // Remove an existing edge (uniform over edges, so whisker edges are
        // picked at their natural frequency).
        let edges: Vec<(u32, u32)> =
            if g.is_directed() { g.arcs().collect() } else { g.undirected_edges().collect() };
        if edges.is_empty() {
            return MutationBatch::new().add_edge(0, (n - 1) as u32);
        }
        let (u, v) = edges[rng.below(edges.len())];
        MutationBatch::new().remove_edge(u, v)
    } else if roll < 93 {
        // Grow a fresh whisker: new vertex wired to a random host.
        MutationBatch::new().add_vertex().add_edge(n as u32, rng.below(n) as u32)
    } else {
        MutationBatch::new().remove_vertex(rng.below(n) as u32)
    }
}

/// The tentpole stream: ≥200 effective edits over a whiskered community
/// graph, scratch-checked after every batch.
#[test]
fn random_stream_matches_scratch_every_batch() {
    let g = whiskered_community(&WhiskeredCommunityParams {
        core_vertices: 60,
        core_attach: 2,
        community_count: 6,
        community_size: 10,
        community_density: 1.6,
        whiskers: 30,
        seed: 77,
    });
    let opts = ApgreOptions::default();
    let mut engine = DynamicBc::new(&g, opts.clone());
    let mut rng = Rng(0x1234_5678_9abc_def0);
    let mut applied = 0usize;
    let mut batches = 0usize;
    let mut classes = (0usize, 0usize, 0usize); // (noop, local, structural)
    let mut spliced = 0usize;
    let mut rebuilt = 0usize;
    while applied < 200 || batches < 210 {
        let batch = random_batch(&mut rng, &engine);
        let report = engine.apply(&batch);
        applied += report.applied_mutations;
        batches += 1;
        match report.class {
            BatchClass::Noop => classes.0 += 1,
            BatchClass::Local => classes.1 += 1,
            BatchClass::Structural => classes.2 += 1,
        }
        if report.rebuilt {
            rebuilt += 1;
        } else if report.class == BatchClass::Structural {
            spliced += 1;
        }
        let current = engine.current_graph();
        let (scratch, _) = bc_apgre_with(&current, &opts);
        assert_close(&format!("batch {batches} ({:?})", report.class), engine.scores(), &scratch);
        assert!(batches < 1000, "stream failed to accumulate 200 effective edits");
    }
    assert!(applied >= 200, "only {applied} effective edits");
    assert!(classes.1 > 0, "stream never exercised the local path: {classes:?}");
    assert!(classes.2 > 0, "stream never exercised the structural path: {classes:?}");
    // The incremental maintainer must carry the structural load: full
    // rebuilds are reserved for the rare batches it declines (multiple
    // component-bridging additions), not the common case.
    assert!(spliced > 0, "no structural batch was spliced in place");
    assert!(
        rebuilt <= classes.2 / 4,
        "rebuilds ({rebuilt}) should be rare next to splices ({spliced})"
    );
}

/// Forced-`Seq` engines must be bitwise identical to the batch driver run on
/// the engine's own maintained decomposition — the determinism half of the
/// acceptance criteria.
#[test]
fn forced_seq_stream_is_bitwise_vs_own_decomposition() {
    let g = whiskered_community(&WhiskeredCommunityParams {
        core_vertices: 50,
        core_attach: 2,
        community_count: 5,
        community_size: 8,
        community_density: 1.5,
        whiskers: 20,
        seed: 41,
    });
    let opts = ApgreOptions { kernel: KernelPolicy::Seq, ..Default::default() };
    let mut engine = DynamicBc::new(&g, opts.clone());
    let mut rng = Rng(0xfeed_beef_cafe_0042);
    for step in 0..60 {
        let batch = random_batch(&mut rng, &engine);
        engine.apply(&batch);
        let current = engine.current_graph();
        let (anchor, _) = bc_from_decomposition(&current, engine.decomposition(), &opts);
        assert_eq!(
            engine.scores(),
            &anchor[..],
            "step {step}: forced-Seq scores diverged bitwise from the batch driver"
        );
        // And the engine's decomposition stays *valid*: scores also match a
        // fresh scratch run within tolerance.
        let (scratch, _) = bc_apgre_with(&current, &opts);
        assert_close(&format!("step {step} scratch"), engine.scores(), &scratch);
    }
}

/// Short streams across the full workload zoo (directed graphs take the
/// structural path every batch; undirected ones mix local and structural).
#[test]
fn zoo_short_streams_match_scratch() {
    let opts = ApgreOptions::default();
    for spec in registry() {
        let g = spec.graph(Scale::Tiny);
        let mut engine = DynamicBc::new(&g, opts.clone());
        let mut rng = Rng(0x5151_0000 ^ spec.name.len() as u64);
        for step in 0..12 {
            let batch = random_batch(&mut rng, &engine);
            engine.apply(&batch);
            let current = engine.current_graph();
            let (scratch, _) = bc_apgre_with(&current, &opts);
            assert_close(&format!("{} step {step}", spec.name), engine.scores(), &scratch);
        }
    }
}

/// The incremental sampled estimator: after **every** batch of a random
/// mutation stream, `DynamicBc::approx_snapshot` must be bitwise identical
/// to the from-scratch composed estimator
/// (`bc_sampled_with_stderr_from_decomposition`) over the engine's own
/// decomposition — estimates and standard errors — independent of which
/// sub-graphs were resampled vs carried. Three inputs: the uniform cap on
/// the maintained path, the adaptive budget (non-zero standard errors), and
/// the adaptive budget with forced-rebuild batches interleaved, which
/// drives the engine's fingerprint carry of every lane — including carries
/// out of sub-graphs dirtied by an earlier, unrefreshed batch.
#[test]
fn approx_stream_is_bitwise_vs_scratch_estimator_every_batch() {
    let g = whiskered_community(&WhiskeredCommunityParams {
        core_vertices: 50,
        core_attach: 2,
        community_count: 5,
        community_size: 9,
        community_density: 1.6,
        whiskers: 24,
        seed: 19,
    });
    let opts = ApgreOptions::default();
    let cases = [
        ("uniform", SampleOptions::uniform(6, 0xBEAD), false),
        ("adaptive", SampleOptions::adaptive(60, 0xBEAD), false),
        ("adaptive + forced rebuilds", SampleOptions::adaptive(60, 0xBEAD), true),
    ];
    for (name, sopts, interleave_rebuilds) in cases {
        let mut engine = DynamicBc::new(&g, opts.clone());
        engine.enable_approx(sopts.clone());
        assert!(engine.approx_enabled());
        let mut rng = Rng(0x0900_cafe_f00d_0042);
        let mut carried_any = false;
        let mut carried_across_rebuild = false;
        for step in 0..60 {
            // The rebuild case applies two batches per refresh and forces a
            // rebuild on the second one every other step, so sub-graphs
            // still pending from the first batch cross the carry.
            let mut rebuilt = false;
            for b in 0..1 + interleave_rebuilds as usize {
                engine.set_force_rebuild(b == 1 && step % 2 == 1);
                rebuilt |= engine.apply(&random_batch(&mut rng, &engine)).rebuilt;
            }
            let ap = engine.approx_snapshot().expect("estimator enabled");
            let (want, want_err) =
                bc_sampled_with_stderr_from_decomposition(engine.decomposition(), &opts, &sopts);
            let got = ap.estimates.to_vec();
            assert_eq!(got.len(), want.len(), "{name} step {step}");
            for v in 0..want.len() {
                let (inc, scratch) = ((got[v], ap.stderr(v)), (want[v], want_err[v]));
                assert!(
                    inc.0.to_bits() == scratch.0.to_bits()
                        && inc.1.to_bits() == scratch.1.to_bits(),
                    "{name} step {step}: vertex {v}: incremental (estimate, stderr) {inc:?} vs \
                     scratch estimator {scratch:?}"
                );
            }
            assert_eq!(
                ap.refresh.resampled + ap.refresh.reused,
                engine.decomposition().num_subgraphs(),
                "{name} step {step}: refresh accounting must cover every sub-graph"
            );
            carried_any |= ap.refresh.reused > 0;
            carried_across_rebuild |= rebuilt && ap.refresh.reused > 0;
        }
        assert!(
            carried_any,
            "{name}: no refresh ever reused a span — the store is not incremental"
        );
        assert_eq!(carried_across_rebuild, interleave_rebuilds, "{name}: rebuild carried no span");
    }
}

/// `bc_dynamic` (the one-shot entry point) equals serial Brandes on the
/// final graph — the serial-oracle anchor for `xtask lint` rule R4.
#[test]
fn bc_dynamic_matches_serial_oracle() {
    let g = whiskered_community(&WhiskeredCommunityParams {
        core_vertices: 40,
        core_attach: 2,
        community_count: 4,
        community_size: 8,
        community_density: 1.5,
        whiskers: 16,
        seed: 9,
    });
    let batches = vec![
        MutationBatch::new().add_edge(1, 17),
        MutationBatch::new().remove_edge(1, 17),
        MutationBatch::new().add_vertex(),
        MutationBatch::new().add_edge(g.num_vertices() as u32, 3),
    ];
    let got = bc_dynamic(&g, &batches, &ApgreOptions::default());
    let mut overlay = GraphOverlay::from_graph(&g);
    overlay.add_edge(1, 17);
    overlay.remove_edge(1, 17);
    let w = overlay.add_vertex();
    overlay.add_edge(w, 3);
    let want = bc_serial(&overlay.to_graph());
    assert_close("bc_dynamic vs bc_serial", &got, &want);
}

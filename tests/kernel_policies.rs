//! Kernel-policy equivalence: the sub-graph kernel entry point
//! `bc_in_subgraph` under every `KernelChoice`, and every `KernelPolicy`,
//! must reproduce serial Brandes (`bc_serial`) on the Table-1 workload
//! stand-ins, across grains, pool sizes, root splits, observers, and pooled
//! (recycled, oversized) workspaces.

use apgre::bc::apgre::kernel::{bc_in_subgraph, Workspace};
use apgre::bc::run_kernels;
use apgre::prelude::*;
use apgre::workloads::{registry, Scale};

fn assert_close(name: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{name}: length");
    for i in 0..want.len() {
        let (x, y) = (got[i], want[i]);
        assert!(
            (x - y).abs() <= 1e-6 * (1.0 + x.abs().max(y.abs())),
            "{name}: vertex {i}: got {x}, want {y}"
        );
    }
}

/// Every forced policy and Auto must match serial Brandes end to end, and
/// the report must account for every sub-graph under the forced policies.
#[test]
fn all_policies_match_bc_serial_on_workloads() {
    for spec in registry().into_iter().step_by(2) {
        let g = spec.graph(Scale::Tiny);
        let want = bc_serial(&g);
        for (name, kernel, grain) in [
            ("auto", KernelPolicy::Auto, 256),
            ("seq", KernelPolicy::Seq, 256),
            ("rootpar", KernelPolicy::RootParallel, 1),
            ("levelsync", KernelPolicy::LevelSync, 1),
        ] {
            let opts = ApgreOptions { kernel, grain, ..Default::default() };
            let (got, report) = bc_apgre_with(&g, &opts);
            assert_close(&format!("{}/{name}", spec.name), &got, &want);
            let (s, r, l) = report.kernel_counts;
            assert_eq!(s + r + l, report.num_subgraphs, "{}/{name}", spec.name);
            match kernel {
                KernelPolicy::Seq => assert_eq!(s, report.num_subgraphs),
                KernelPolicy::RootParallel => assert_eq!(r, report.num_subgraphs),
                KernelPolicy::LevelSync => assert_eq!(l, report.num_subgraphs),
                KernelPolicy::Auto => {}
            }
        }
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

const CHOICES: [KernelChoice; 3] =
    [KernelChoice::Seq, KernelChoice::RootParallel, KernelChoice::LevelSync];

/// Sweeps every sub-graph of `d` under `choice` and folds the spans into a
/// global vector (ascending index order); also returns the edges examined.
/// `pooled` shares one workspace across all sub-graphs (otherwise each gets
/// a fresh one); `halves` sweeps each root set as two slices into the same
/// span.
fn compose(
    d: &Decomposition,
    choice: KernelChoice,
    mut pooled: Option<&mut Workspace>,
    halves: bool,
) -> (Vec<f64>, u64) {
    let mut bc = vec![0.0f64; d.num_vertices];
    let mut edges = 0u64;
    for sg in &d.subgraphs {
        let mut fresh = Workspace::new(sg.num_vertices());
        let ws = match pooled.as_deref_mut() {
            Some(ws) => ws,
            None => &mut fresh,
        };
        let mut local = vec![0.0f64; sg.num_vertices()];
        let grain = if choice == KernelChoice::RootParallel { 2 } else { 1 };
        let split = if halves { sg.roots.len() / 2 } else { sg.roots.len() };
        let (front, back) = sg.roots.split_at(split);
        for roots in [front, back] {
            edges += bc_in_subgraph(sg, roots, choice, grain, ws, &mut local, None);
        }
        for (l, &score) in local.iter().enumerate() {
            bc[sg.globals[l] as usize] += score;
        }
    }
    (bc, edges)
}

/// Runs the single kernel entry point under every `KernelChoice` ×
/// {fresh, oversized pooled `Workspace`}, sweeping each root set whole or
/// (`halves`) as two slices: each variant reproduces serial Brandes and
/// agrees with the choice's fresh whole-root-set run — bitwise for `Seq` and
/// `LevelSync`, to 1e-9 for `RootParallel` (halving the root slice
/// re-chunks it) — and examines the same number of edges.
fn assert_kernel_variants(halves: bool) {
    for spec in registry().into_iter().step_by(3) {
        let g = spec.graph(Scale::Tiny);
        let want = bc_serial(&g);
        let d = decompose(&g, &PartitionOptions::default());
        // Warm one shared workspace on the whole graph under every choice so
        // it is oversized for every sub-graph it later serves.
        let mut pooled = Workspace::new(1);
        for choice in CHOICES {
            compose(&d, choice, Some(&mut pooled), false);
        }
        let (_, want_edges) = compose(&d, KernelChoice::Seq, None, false);
        for choice in CHOICES {
            let (reference, _) = compose(&d, choice, None, false);
            for pool in [false, true] {
                let ctx = format!("{}/{choice:?}/pooled={pool}/halves={halves}", spec.name);
                let (got, edges) = compose(&d, choice, pool.then_some(&mut pooled), halves);
                assert_close(&ctx, &got, &want);
                assert_eq!(edges, want_edges, "{ctx}: edges examined");
                for v in 0..got.len() {
                    let (x, y) = (got[v], reference[v]);
                    if choice == KernelChoice::RootParallel {
                        assert!((x - y).abs() <= 1e-9 * (1.0 + y.abs()), "{ctx}: vertex {v}");
                    } else {
                        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: vertex {v}: {x} vs {y}");
                    }
                }
            }
        }
    }
}

/// Every kernel choice, fresh or on a recycled oversized workspace, matches
/// the others and serial Brandes over whole root sets.
#[test]
fn subgraph_kernels_agree_with_each_other_and_bc_serial() {
    assert_kernel_variants(false);
}

/// Explicit root slices: sweeping each root set as two halves into one span
/// reproduces the whole-root-set sweep under every choice and workspace.
#[test]
fn roots_kernel_variants_match_their_full_kernels_and_bc_serial() {
    assert_kernel_variants(true);
}

/// An observer forces the sequential, slice-order sweep whatever the
/// choice: an observed `RootParallel` or `LevelSync` run returns the
/// `Seq`-bitwise span and hands the observer bitwise the same per-root
/// contributions, so the estimator's Welford statistics are identical under
/// every policy — and the observed spans still compose to serial Brandes.
#[test]
fn observed_sweeps_are_seq_bitwise_under_every_choice() {
    for spec in registry().into_iter().step_by(3) {
        let g = spec.graph(Scale::Tiny);
        let d = decompose(&g, &PartitionOptions::default());
        let mut composed = vec![0.0f64; g.num_vertices()];
        for sg in &d.subgraphs {
            let n = sg.num_vertices();
            let mut plain = vec![0.0f64; n];
            bc_in_subgraph(
                sg,
                &sg.roots,
                KernelChoice::Seq,
                1,
                &mut Workspace::new(n),
                &mut plain,
                None,
            );
            let mut seen: Vec<Vec<Vec<u64>>> = Vec::new();
            for choice in CHOICES {
                let mut local = vec![0.0f64; n];
                let mut per_root: Vec<Vec<u64>> = Vec::new();
                let mut observe = |c: &[f64]| per_root.push(bits(c));
                let ws = &mut Workspace::new(1);
                bc_in_subgraph(sg, &sg.roots, choice, 1, ws, &mut local, Some(&mut observe));
                assert_eq!(bits(&local), bits(&plain), "{}/SG{}/{choice:?}", spec.name, sg.id);
                assert_eq!(per_root.len(), sg.roots.len(), "{}/SG{}", spec.name, sg.id);
                seen.push(per_root);
            }
            assert!(
                seen.windows(2).all(|w| w[0] == w[1]),
                "{}/SG{}: per-root contributions",
                spec.name,
                sg.id
            );
            for (l, &score) in plain.iter().enumerate() {
                composed[sg.globals[l] as usize] += score;
            }
        }
        assert_close(&format!("{}/observed-composed", spec.name), &composed, &bc_serial(&g));

        // Through the dispatcher: stats runs under any policy carry the
        // same Welford statistics.
        let jobs: Vec<(usize, &[u32])> =
            d.subgraphs.iter().enumerate().map(|(i, sg)| (i, sg.roots.as_slice())).collect();
        let stats = |kernel| {
            let opts = ApgreOptions { kernel, grain: 1, ..Default::default() };
            run_kernels(&d, &jobs, &opts, true)
                .into_iter()
                .map(|run| {
                    let st = run.stats.expect("stats requested");
                    (
                        bits(&run.local),
                        bits(&st.vertex_m2),
                        st.mass_mean.to_bits(),
                        st.mass_m2.to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let seq = stats(KernelPolicy::Seq);
        for kernel in [KernelPolicy::RootParallel, KernelPolicy::LevelSync, KernelPolicy::Auto] {
            assert!(
                stats(kernel) == seq,
                "{}/{kernel:?}: Welford stats differ from Seq",
                spec.name
            );
        }
    }
}

/// The parallel kernels must also be exact inside a single-worker pool (the
/// degenerate scheduling case: every chunk and level runs on one thread).
#[test]
fn forced_parallel_kernels_match_bc_serial_on_one_thread() {
    let spec = &registry()[1];
    let g = spec.graph(Scale::Tiny);
    let want = bc_serial(&g);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    for kernel in [KernelPolicy::RootParallel, KernelPolicy::LevelSync] {
        let opts = ApgreOptions { kernel, grain: 1, ..Default::default() };
        let got = pool.install(|| bc_apgre_with(&g, &opts).0);
        assert_close(&format!("{}/{kernel:?}@1thread", spec.name), &got, &want);
    }
}

/// Exactness must not depend on the scheduling grain.
#[test]
fn grain_sweep_matches_bc_serial() {
    let spec = &registry()[4];
    let g = spec.graph(Scale::Tiny);
    let want = bc_serial(&g);
    for grain in [1, 3, 64, 1_000_000] {
        for kernel in [KernelPolicy::Auto, KernelPolicy::RootParallel, KernelPolicy::LevelSync] {
            let opts = ApgreOptions { kernel, grain, ..Default::default() };
            let (got, report) = bc_apgre_with(&g, &opts);
            assert_close(&format!("{}/{kernel:?}@g{grain}", spec.name), &got, &want);
            assert_eq!(report.grain, grain.max(1));
        }
    }
}

/// The sampled estimator must respect the kernel policy the same way the
/// exact pipeline does: with every sub-graph fully sampled (scale 1.0) its
/// estimates are **bitwise** the exact APGRE scores under every forced
/// policy, and the whole composition stays close to serial Brandes.
#[test]
fn sampled_estimator_full_draw_is_exact_under_every_policy() {
    for spec in registry().into_iter().step_by(4) {
        let g = spec.graph(Scale::Tiny);
        let want = bc_serial(&g);
        let full = SampleOptions::uniform(usize::MAX, 0xA99);
        for (name, kernel) in [
            ("seq", KernelPolicy::Seq),
            ("rootpar", KernelPolicy::RootParallel),
            ("levelsync", KernelPolicy::LevelSync),
        ] {
            let opts = ApgreOptions { kernel, grain: 2, ..Default::default() };
            let (exact, _) = bc_apgre_with(&g, &opts);
            let est = bc_sampled(&g, &opts, &full);
            assert_eq!(est.len(), exact.len());
            for v in 0..exact.len() {
                assert!(
                    est[v].to_bits() == exact[v].to_bits(),
                    "{}/{name}: vertex {v}: full-draw estimate {} != exact {}",
                    spec.name,
                    est[v],
                    exact[v]
                );
            }
            assert_close(&format!("{}/{name}/estimator", spec.name), &est, &want);
        }
    }
}

/// The estimator's parallel kernels must be exact and bitwise-stable in a
/// single-worker pool (the degenerate scheduling case), matching the
/// ambient-pool run of the same draw — the pooled-workspace anchor the
/// exact kernels already carry.
#[test]
fn sampled_estimator_is_bitwise_stable_in_a_one_thread_pool() {
    let spec = &registry()[1];
    let g = spec.graph(Scale::Tiny);
    let sopts = SampleOptions::uniform(4, 0x5EED);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    for kernel in [KernelPolicy::Seq, KernelPolicy::RootParallel, KernelPolicy::LevelSync] {
        let opts = ApgreOptions { kernel, grain: 1, ..Default::default() };
        let ambient = bc_sampled(&g, &opts, &sopts);
        let pooled = pool.install(|| bc_sampled(&g, &opts, &sopts));
        for v in 0..ambient.len() {
            assert!(
                ambient[v].to_bits() == pooled[v].to_bits(),
                "{}/{kernel:?}: vertex {v} diverges between pool sizes",
                spec.name
            );
        }
    }
}

/// The root-parallel kernel merges fixed chunks in chunk order, so repeated
/// runs are bitwise identical — f64 non-associativity notwithstanding.
#[test]
fn root_par_kernel_is_bitwise_deterministic_on_workloads() {
    for spec in registry().into_iter().step_by(4) {
        let g = spec.graph(Scale::Tiny);
        let d = decompose(&g, &PartitionOptions::default());
        for sg in &d.subgraphs {
            let run = || {
                let mut local = vec![0.0f64; sg.num_vertices()];
                let ws = &mut Workspace::new(1);
                bc_in_subgraph(sg, &sg.roots, KernelChoice::RootParallel, 2, ws, &mut local, None);
                local
            };
            assert_eq!(run(), run(), "{}/SG{}", spec.name, sg.id);
        }
    }
}

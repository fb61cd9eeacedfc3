//! Property-based tests for the copy-on-write snapshot store.
//!
//! * [`CowGraph`] is driven in lockstep with a [`GraphOverlay`] (the
//!   engine's source of truth) through random mutation streams — edge
//!   churn, vertex growth, vertex stripping — and must stay CSR-identical
//!   to `overlay.to_graph()` after every batch, including immediately
//!   after an explicit `compact()`.
//! * [`FoldStore`] receives random splice sequences (survivor subsets kept
//!   in order, fresh groups appended at the tail) interleaved with random
//!   lane writes that leave some lanes unset, and every lane must stay
//!   bitwise-identical to a store rebuilt from scratch over the same spans,
//!   for both the flat fold and every per-vertex fold. Snapshots of all
//!   lanes share one layout until a splice replaces it.

use std::sync::Arc;

use apgre_graph::{Graph, GraphOverlay};
use apgre_store::{CowGraph, FoldStore, Lane};
use proptest::prelude::*;

/// Raw mutation descriptor, clamped against the live vertex count at apply
/// time (mirrors the dynamic crate's property-test driver).
#[derive(Clone, Debug)]
enum RawMut {
    Add(u32, u32),
    Remove(u32, u32),
    AddVertex,
    StripVertex(u32),
}

fn raw_mutation() -> impl Strategy<Value = RawMut> {
    (0u32..11, 0u32..4096, 0u32..4096).prop_map(|(roll, a, b)| match roll {
        0..=4 => RawMut::Add(a, b),
        5..=8 => RawMut::Remove(a, b),
        9 => RawMut::AddVertex,
        _ => RawMut::StripVertex(a),
    })
}

fn cow_scenario(
    n_max: u32,
    m_max: usize,
) -> impl Strategy<Value = (u32, Vec<(u32, u32)>, Vec<Vec<RawMut>>)> {
    (3..n_max).prop_flat_map(move |n| {
        let edge = (0..n, 0..n);
        (
            Just(n),
            proptest::collection::vec(edge, 1..m_max),
            proptest::collection::vec(proptest::collection::vec(raw_mutation(), 1..6), 1..6),
        )
    })
}

/// Applies one raw mutation to the overlay and mirrors the *effective*
/// outcome into the cow — exactly the engine's phase-1 contract (the cow
/// only ever sees edits that changed the overlay's state).
fn apply_mirrored(overlay: &mut GraphOverlay, cow: &mut CowGraph, m: &RawMut) {
    let n = overlay.num_vertices().max(1) as u32;
    let clamp = |v: u32| v % n;
    match *m {
        RawMut::Add(u, v) => {
            let (u, v) = (clamp(u), clamp(v));
            if overlay.add_edge(u, v) {
                cow.add_edge(u, v);
            }
        }
        RawMut::Remove(u, v) => {
            let (u, v) = (clamp(u), clamp(v));
            if overlay.remove_edge(u, v) {
                cow.remove_edge(u, v);
            }
        }
        RawMut::AddVertex => {
            overlay.add_vertex();
            cow.add_vertex();
        }
        RawMut::StripVertex(v) => {
            let v = clamp(v);
            if overlay.is_directed() {
                return; // undirected-only lowering, like the engine
            }
            let nbrs = overlay.neighbors(v).to_vec();
            if overlay.remove_vertex(v) > 0 {
                for w in nbrs {
                    cow.remove_edge(v, w);
                }
            }
        }
    }
}

/// One sub-graph for the fold-store property test: sorted unique vertex ids.
fn group(n: u32) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..n, 1..12).prop_map(|mut ids| {
        ids.sort_unstable();
        ids.dedup();
        ids
    })
}

/// One scenario step: a keep/dissolve coin per survivor candidate, fresh
/// groups to append, a value seed, a per-sub-graph lane mask (bit `l`
/// writes lane `l`, bit 3 clears the stderr lane), and whether the step
/// splices at all.
type LaneStep = (Vec<u32>, Vec<Vec<u32>>, u32, Vec<u8>, bool);

fn fold_scenario() -> impl Strategy<Value = (u32, Vec<Vec<u32>>, Vec<LaneStep>)> {
    (4u32..2200).prop_flat_map(|n| {
        let step = (
            (proptest::collection::vec(0u32..2, 1..10), proptest::collection::vec(group(n), 0..4)),
            (0u32..1000, proptest::collection::vec(0u8..16, 1..10), 0u32..3),
        );
        let step = step
            .prop_map(|((keep, fresh), (seed, masks, coin))| (keep, fresh, seed, masks, coin > 0));
        (Just(n), proptest::collection::vec(group(n), 1..8), proptest::collection::vec(step, 1..6))
    })
}

/// One modelled sub-graph: its vertex ids and, per lane, the span it
/// should fold (`None` = unset).
type Model = (Arc<[u32]>, [Option<Arc<[f64]>>; 3]);

fn lane_spans(models: &[Model], lane: usize) -> Vec<(&[u32], Option<Arc<[f64]>>)> {
    models.iter().map(|(g, lanes)| (&g[..], lanes[lane].clone())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn cow_stays_csr_identical_undirected(
        (n, edges, stream) in cow_scenario(1500, 160),
    ) {
        let g = Graph::undirected_from_edges(n as usize, &edges);
        let mut overlay = GraphOverlay::from_graph(&g);
        // The engine normalizes through the overlay before seeding the cow.
        let mut cow = CowGraph::from_graph(&overlay.to_graph());
        for (k, batch) in stream.iter().enumerate() {
            for m in batch {
                apply_mirrored(&mut overlay, &mut cow, m);
            }
            let fresh = overlay.to_graph();
            cow.verify_against_fresh(&fresh)
                .unwrap_or_else(|e| panic!("n={n} batch {k}: {e}"));
            prop_assert_eq!(cow.num_edges(), fresh.num_edges());
            // Compaction must be invisible to readers.
            if k % 2 == 1 {
                cow.compact();
                prop_assert_eq!(cow.delta_arcs(), 0);
                cow.verify_against_fresh(&fresh)
                    .unwrap_or_else(|e| panic!("n={n} batch {k} post-compact: {e}"));
            }
        }
    }

    #[test]
    fn cow_stays_csr_identical_directed(
        (n, edges, stream) in cow_scenario(900, 120),
    ) {
        let arcs: Vec<(u32, u32)> = edges.into_iter().filter(|&(u, v)| u != v).collect();
        let g = Graph::directed_from_edges(n as usize, &arcs);
        let mut overlay = GraphOverlay::from_graph(&g);
        let mut cow = CowGraph::from_graph(&overlay.to_graph());
        for (k, batch) in stream.iter().enumerate() {
            for m in batch {
                apply_mirrored(&mut overlay, &mut cow, m);
            }
            let fresh = overlay.to_graph();
            cow.verify_against_fresh(&fresh)
                .unwrap_or_else(|e| panic!("dir n={n} batch {k}: {e}"));
            if k % 2 == 0 {
                cow.compact();
                cow.verify_against_fresh(&fresh)
                    .unwrap_or_else(|e| panic!("dir n={n} batch {k} post-compact: {e}"));
            }
        }
    }

    #[test]
    fn cow_views_survive_later_mutations(
        (n, edges, stream) in cow_scenario(1300, 120),
    ) {
        let g = Graph::undirected_from_edges(n as usize, &edges);
        let mut overlay = GraphOverlay::from_graph(&g);
        let mut cow = CowGraph::from_graph(&overlay.to_graph());
        let frozen = cow.view();
        let want = overlay.to_graph();
        for batch in &stream {
            for m in batch {
                apply_mirrored(&mut overlay, &mut cow, m);
            }
        }
        cow.compact();
        // The pre-mutation view still materializes the pre-mutation CSR.
        let got = frozen.to_graph();
        prop_assert_eq!(got.csr().offsets(), want.csr().offsets());
        prop_assert_eq!(got.csr().targets(), want.csr().targets());
    }

    #[test]
    fn fold_store_matches_fresh_after_random_splices(
        (n, seed_groups, steps) in fold_scenario(),
    ) {
        let n = n as usize;
        let model = |g: &Vec<u32>| -> Model { (Arc::from(g.as_slice()), [None, None, None]) };
        let mut shadow: Vec<Model> = seed_groups.iter().map(model).collect();
        let mut store = FoldStore::new(n, shadow.iter().map(|m| &m.0[..]));
        let mut held = store.chunks(Lane::Exact);

        for (k, (keep, fresh_groups, seed, masks, splice)) in steps.iter().enumerate() {
            let mut touched: Vec<u32> = Vec::new();
            let mut relaid = false;
            if *splice {
                // Survivors keep relative order and every lane span; fresh
                // groups land at the tail with every lane unset — the
                // maintainer's splice contract.
                let mut old_to_new: Vec<Option<u32>> = Vec::with_capacity(shadow.len());
                let mut next: Vec<Model> = Vec::new();
                for (i, m) in shadow.iter().enumerate() {
                    let kept = keep[i % keep.len()] == 1;
                    old_to_new.push(kept.then_some(next.len() as u32));
                    if kept {
                        next.push(m.clone());
                    }
                }
                next.extend(fresh_groups.iter().map(model));
                let new_globals: Vec<&[u32]> = next.iter().map(|m| &m.0[..]).collect();
                touched = store.apply_splice(n, &old_to_new, &new_globals);
                relaid = old_to_new.iter().any(Option::is_none) || !fresh_groups.is_empty();
                shadow = next;
            }
            // Random lane writes; whatever a mask leaves alone keeps its
            // previous span (or stays unset). Halves are exact in binary
            // floating point, so any fold-order bug shows up as a hard
            // bitwise mismatch, not a rounding blur.
            for (i, (globals, lanes)) in shadow.iter_mut().enumerate() {
                let mask = masks[i % masks.len()];
                for (l, lane) in Lane::ALL.into_iter().enumerate() {
                    if mask & (1 << l) != 0 {
                        let span: Arc<[f64]> =
                            globals.iter().map(|&v| (v + seed + 7 * l as u32) as f64 / 2.0).collect();
                        store.set_values(lane, i, Arc::clone(&span));
                        lanes[l] = Some(span);
                    }
                }
                if mask & 0b1100 == 0b1000 {
                    store.clear_values(Lane::StderrSq, i);
                    lanes[2] = None;
                }
            }
            let snaps: Vec<_> = Lane::ALL.into_iter().map(|lane| store.chunks(lane)).collect();
            for (l, lane) in Lane::ALL.into_iter().enumerate() {
                store
                    .verify_against_fresh(lane, n, &lane_spans(&shadow, l))
                    .unwrap_or_else(|e| panic!("step {k} {lane:?}: {e}"));
                // The snapshot folds bitwise-identically, flat and per vertex.
                let flat = store.to_flat(lane);
                prop_assert_eq!(snaps[l].to_vec(), flat.clone());
                for &v in &touched {
                    prop_assert_eq!(snaps[l].score(v as usize).to_bits(), flat[v as usize].to_bits());
                }
                prop_assert!(snaps[l].shares_layout(&snaps[0]), "step {}: lanes split the layout", k);
            }
            // Span writes and in-place splices never copy the layout; any
            // other splice under a held snapshot does (the snapshot keeps
            // the old one).
            prop_assert_eq!(held.shares_layout(&snaps[2]), !relaid, "step {}", k);
            held = snaps[0].clone();
        }
    }
}

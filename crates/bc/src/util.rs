//! Shared utilities for the parallel kernels: level-structure helpers and
//! (re-exported from [`crate::sync`]) the atomic `f64` cell.
//!
//! The atomic types themselves live behind the [`crate::sync`] facade so the
//! kernels can be built against model-checked atomics under `--cfg loom`;
//! the re-exports here keep the historical `crate::util::AtomicF64` paths
//! working.

pub use crate::sync::{atomic_f64_vec, into_f64_vec, AtomicF64};

/// Element-wise `acc[i] += part[i]`: the score-vector reduction step shared
/// by the coarse-grained source-parallel baseline
/// ([`crate::parallel::bc_coarse`]) and the root-parallel sub-graph kernel
/// (`apgre::kernel::bc_in_subgraph`'s root-parallel schedule). Kept as one
/// function so every tree reduction of partial BC vectors folds terms the
/// same way.
pub fn add_assign_scores(acc: &mut [f64], part: &[f64]) {
    debug_assert_eq!(acc.len(), part.len());
    for (x, y) in acc.iter_mut().zip(part) {
        *x += y;
    }
}

/// Vertices of one BFS, grouped by level: `order[starts[d]..starts[d+1]]`
/// holds the vertices at distance `d` from the root. The backward sweeps of
/// every level-synchronous kernel iterate this structure in reverse.
#[derive(Clone, Debug, Default)]
pub struct Levels {
    /// Vertices in non-decreasing distance order.
    pub order: Vec<u32>,
    /// Level boundaries into `order` (length = number of levels + 1).
    pub starts: Vec<usize>,
}

impl Levels {
    /// Empties the structure for reuse.
    pub fn clear(&mut self) {
        self.order.clear();
        self.starts.clear();
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// The vertices at level `d`.
    pub fn level(&self, d: usize) -> &[u32] {
        &self.order[self.starts[d]..self.starts[d + 1]]
    }

    /// Total vertices reached.
    pub fn reached(&self) -> usize {
        self.order.len()
    }
}

/// Runtime invariant check (`--features invariants`) run after every forward
/// phase: validates the level structure underpinning the kernels'
/// single-writer discipline.
///
/// Asserts that `starts` is monotone and closed over `order`, that every
/// reached vertex appears in exactly one level with `dist[v]` equal to that
/// level, that the source sits alone at level 0 with σ = 1, and that every
/// reached vertex has σ ≥ 1 (each shortest path counted at least once).
/// Violations would mean two levels could write the same σ/δ cell
/// concurrently — exactly the discipline the Relaxed-ordering argument in
/// [`crate::sync`] depends on.
#[cfg(feature = "invariants")]
pub fn check_levels(
    levels: &Levels,
    dist: &[crate::sync::AtomicU32],
    sigma: &[AtomicF64],
    source: u32,
) {
    use crate::sync::Ordering;
    assert!(
        levels.starts.first() == Some(&0) && levels.starts.last() == Some(&levels.order.len()),
        "levels.starts must span order: {:?} over {} vertices",
        levels.starts,
        levels.order.len()
    );
    assert!(
        levels.starts.windows(2).all(|w| w[0] <= w[1]),
        "levels.starts must be monotone: {:?}",
        levels.starts
    );
    if levels.reached() > 0 {
        assert_eq!(levels.level(0), &[source], "source must sit alone at level 0");
        assert_eq!(sigma[source as usize].load(), 1.0, "σ(source) must be 1");
    }
    let mut seen = std::collections::HashSet::with_capacity(levels.reached());
    for d in 0..levels.num_levels() {
        for &v in levels.level(d) {
            assert!(seen.insert(v), "vertex {v} appears in more than one level");
            let dv = dist[v as usize].load(Ordering::Relaxed);
            assert_eq!(dv, d as u32, "vertex {v} sits at level {d} but dist says {dv}");
            let sv = sigma[v as usize].load();
            assert!(sv >= 1.0, "reached vertex {v} has σ = {sv} < 1");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_f64_ops() {
        let a = AtomicF64::new(1.5);
        assert_eq!(a.load(), 1.5);
        a.store(2.0);
        assert_eq!(a.fetch_add(0.25), 2.0);
        assert_eq!(a.load(), 2.25);
        assert_eq!(a.into_inner(), 2.25);
    }

    #[test]
    fn concurrent_fetch_add_sums() {
        use rayon::prelude::*;
        let a = AtomicF64::new(0.0);
        (0..1000).into_par_iter().for_each(|_| {
            let _ = a.fetch_add(1.0);
        });
        assert_eq!(a.load(), 1000.0);
    }

    #[test]
    fn add_assign_scores_sums_elementwise() {
        let mut acc = vec![1.0, 2.0, 3.0];
        add_assign_scores(&mut acc, &[0.5, 0.0, -1.0]);
        assert_eq!(acc, vec![1.5, 2.0, 2.0]);
    }

    #[test]
    fn levels_accessors() {
        let l = Levels { order: vec![0, 1, 2, 3], starts: vec![0, 1, 3, 4] };
        assert_eq!(l.num_levels(), 3);
        assert_eq!(l.level(0), &[0]);
        assert_eq!(l.level(1), &[1, 2]);
        assert_eq!(l.level(2), &[3]);
        assert_eq!(l.reached(), 4);
    }

    #[cfg(feature = "invariants")]
    #[test]
    fn check_levels_accepts_a_valid_structure() {
        use crate::sync::AtomicU32;
        let l = Levels { order: vec![2, 0, 1], starts: vec![0, 1, 3] };
        let dist: Vec<AtomicU32> = vec![AtomicU32::new(1), AtomicU32::new(1), AtomicU32::new(0)];
        let sigma = atomic_f64_vec(3);
        sigma[0].store(1.0);
        sigma[1].store(2.0);
        sigma[2].store(1.0);
        check_levels(&l, &dist, &sigma, 2);
    }

    #[cfg(feature = "invariants")]
    #[test]
    #[should_panic(expected = "dist says")]
    fn check_levels_rejects_a_mislevelled_vertex() {
        use crate::sync::AtomicU32;
        let l = Levels { order: vec![2, 0], starts: vec![0, 1, 2] };
        let dist: Vec<AtomicU32> = vec![AtomicU32::new(7), AtomicU32::new(0), AtomicU32::new(0)];
        let sigma = atomic_f64_vec(3);
        sigma[2].store(1.0);
        sigma[0].store(1.0);
        check_levels(&l, &dist, &sigma, 2);
    }
}

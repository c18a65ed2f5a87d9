//! Constrained minimum dominating set.
//!
//! This is our stand-in for the paper's Gurobi ILP (Section 5.3): an
//! exact branch-and-bound for
//!
//! > minimise `|D ∖ forced|` subject to `D ⊇ forced` and
//! > `∀ v ∈ universe: D ∩ dominators(v) ≠ ∅`,
//!
//! where coverage is symmetric (`v ∈ covers[s] ⇔ s ∈ covers[v]`) and
//! inside the universe, so `dominators(v) = covers[v]`; in the
//! best-response reduction `covers[s]` is the radius-`(h−1)` ball
//! around `s` in `H ∖ {u}`.
//!
//! The search — branching on the uncovered vertex with the fewest
//! dominators, bounds, scratch pools, the incremental state the
//! reduction grows across eccentricity guesses, and the greedy
//! baseline — lives in [`crate::engine`]; this module keeps the
//! one-shot instance type.

use crate::bitset::BitSet;

/// A domination instance over elements `0..n`, under the coverage
/// contract of [`crate::engine::DominationEngine`] (asserted per solve).
#[derive(Debug, Clone)]
pub struct DominationInstance {
    /// `covers[s]` = set of vertices dominated when `s` is chosen.
    pub covers: Vec<BitSet>,
    /// Vertices that must be dominated.
    pub universe: BitSet,
    /// Elements that are already in `D` for free.
    pub forced: Vec<u32>,
}

/// Result of a domination solve: the chosen *extra* elements
/// (`D ∖ forced`), sorted.
pub type Solution = Vec<u32>;

impl DominationInstance {
    /// The classic graph-domination instance over `g`: `covers[s]` is
    /// the closed neighbourhood of `s` and every vertex must be
    /// dominated. The shared builder behind the domination tests,
    /// benches and the perf smoke test.
    pub fn closed_neighborhoods(g: &ncg_graph::Graph, forced: Vec<u32>) -> Self {
        let n = g.node_count();
        let covers = (0..n as u32)
            .map(|s| {
                let mut b = BitSet::new(n);
                b.insert(s);
                for &v in g.neighbors(s) {
                    b.insert(v);
                }
                b
            })
            .collect();
        DominationInstance { covers, universe: BitSet::full(n), forced }
    }

    /// Number of elements in the ground set.
    pub fn n(&self) -> usize {
        self.covers.len()
    }

    #[cfg(test)]
    fn initial_covered(&self) -> BitSet {
        let mut covered = BitSet::new(self.n());
        for &f in &self.forced {
            covered.union_with(&self.covers[f as usize]);
        }
        covered
    }

    /// Whether the instance is feasible at all (every universe vertex
    /// has at least one dominator).
    pub fn is_feasible(&self) -> bool {
        let mut any = BitSet::new(self.n());
        for c in &self.covers {
            any.union_with(c);
        }
        any.is_superset(&self.universe)
    }

    /// Greedy `(1 + ln n)`-approximation: repeatedly take the element
    /// covering the most still-uncovered universe vertices (ties to
    /// the smallest element). Builds a throwaway
    /// [`crate::engine::DominationEngine`], like
    /// [`solve_exact`](Self::solve_exact).
    ///
    /// Returns `None` if infeasible.
    pub fn solve_greedy(&self) -> Option<Solution> {
        crate::engine::DominationEngine::from_instance(self).solve_greedy()
    }

    /// Exact minimum via branch-and-bound.
    ///
    /// `cutoff`: only solutions with strictly fewer than `cutoff` extra
    /// elements are interesting; pass `usize::MAX` for unconditional
    /// optimality. Returns `None` if infeasible or no solution beats
    /// the cutoff.
    ///
    /// This is the one-shot entry point: it builds a fresh
    /// [`crate::engine::DominationEngine`] (contract check, packing
    /// order, scratch pools) and solves once. Callers that
    /// solve a *growing* family of instances — the per-`h` loop of the
    /// best-response reduction — should hold an engine and feed it
    /// incrementally instead; see `DESIGN.md` §4.3 and the
    /// `dominating_set/exact_bnb_incremental` bench for the delta.
    pub fn solve_exact(&self, cutoff: usize) -> Option<Solution> {
        crate::engine::DominationEngine::from_instance(self).solve_exact(cutoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncg_graph::{generators, Graph};

    fn graph_instance(g: &Graph, forced: Vec<u32>) -> DominationInstance {
        DominationInstance::closed_neighborhoods(g, forced)
    }

    /// Brute-force minimum dominating set by subset enumeration.
    fn brute_force(inst: &DominationInstance) -> Option<usize> {
        let n = inst.n();
        assert!(n <= 20);
        let mut best: Option<usize> = None;
        for mask in 0u32..(1 << n) {
            let mut covered = inst.initial_covered();
            let mut size = 0;
            for s in 0..n as u32 {
                if mask & (1 << s) != 0 {
                    covered.union_with(&inst.covers[s as usize]);
                    size += 1;
                }
            }
            if covered.is_superset(&inst.universe) && best.is_none_or(|b| size < b) {
                best = Some(size);
            }
        }
        best
    }

    #[test]
    fn star_is_dominated_by_its_center() {
        let inst = graph_instance(&generators::star(9), vec![]);
        assert_eq!(inst.solve_exact(usize::MAX).unwrap(), vec![0]);
    }

    #[test]
    fn path_domination_number() {
        // γ(P_n) = ⌈n/3⌉.
        for n in [3usize, 4, 7, 9, 10] {
            let inst = graph_instance(&generators::path(n), vec![]);
            let exact = inst.solve_exact(usize::MAX).unwrap();
            assert_eq!(exact.len(), n.div_ceil(3), "path n={n}");
        }
    }

    #[test]
    fn cycle_domination_number() {
        for n in [3usize, 5, 6, 9, 12] {
            let inst = graph_instance(&generators::cycle(n), vec![]);
            assert_eq!(inst.solve_exact(usize::MAX).unwrap().len(), n.div_ceil(3));
        }
    }

    #[test]
    fn forced_vertices_are_free_and_respected() {
        // Path of 9 with a forced end: the end covers {0,1}; the rest
        // needs 2 more.
        let inst = graph_instance(&generators::path(9), vec![0]);
        let extra = inst.solve_exact(usize::MAX).unwrap();
        assert!(extra.len() <= 3);
        // The forced element must never be re-bought.
        assert!(!extra.contains(&0));
        // Verify coverage.
        let mut covered = inst.initial_covered();
        for &s in &extra {
            covered.union_with(&inst.covers[s as usize]);
        }
        assert!(covered.is_superset(&inst.universe));
    }

    #[test]
    fn exact_matches_brute_force_on_random_graphs() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        for trial in 0..40 {
            let g = generators::gnp(12, 0.25, &mut rng).unwrap();
            let inst = graph_instance(&g, vec![]);
            let exact = inst.solve_exact(usize::MAX).map(|s| s.len());
            assert_eq!(exact, brute_force(&inst), "trial {trial}");
        }
    }

    #[test]
    fn exact_with_forced_matches_brute_force() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(78);
        for trial in 0..25 {
            let g = generators::gnp(11, 0.3, &mut rng).unwrap();
            let inst = graph_instance(&g, vec![0, 3]);
            let exact = inst.solve_exact(usize::MAX).map(|s| s.len());
            assert_eq!(exact, brute_force(&inst), "trial {trial}");
        }
    }

    #[test]
    fn greedy_is_feasible_and_not_better_than_exact() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(79);
        for _ in 0..20 {
            let g = generators::gnp(14, 0.2, &mut rng).unwrap();
            let inst = graph_instance(&g, vec![]);
            let greedy = inst.solve_greedy().unwrap();
            let exact = inst.solve_exact(usize::MAX).unwrap();
            assert!(greedy.len() >= exact.len());
            let mut covered = inst.initial_covered();
            for &s in &greedy {
                covered.union_with(&inst.covers[s as usize]);
            }
            assert!(covered.is_superset(&inst.universe));
        }
    }

    #[test]
    fn infeasible_instance_returns_none() {
        // Universe includes a vertex nobody covers.
        let covers = vec![BitSet::from_elems(3, [0]), BitSet::from_elems(3, [1]), BitSet::new(3)];
        let inst = DominationInstance { covers, universe: BitSet::full(3), forced: vec![] };
        assert!(!inst.is_feasible());
        assert_eq!(inst.solve_exact(usize::MAX), None);
        assert_eq!(inst.solve_greedy(), None);
    }

    #[test]
    fn cutoff_suppresses_uninteresting_solutions() {
        let inst = graph_instance(&generators::path(9), vec![]);
        // Optimum is 3; cutoff 3 demands < 3 → None.
        assert_eq!(inst.solve_exact(3), None);
        assert!(inst.solve_exact(4).is_some());
    }

    #[test]
    fn empty_universe_needs_nothing() {
        let covers = vec![BitSet::new(2), BitSet::new(2)];
        let inst = DominationInstance { covers, universe: BitSet::new(2), forced: vec![] };
        assert_eq!(inst.solve_exact(usize::MAX).unwrap(), Vec::<u32>::new());
        assert_eq!(inst.solve_greedy().unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn zero_radius_domination_requires_everything() {
        // covers[s] = {s} only: D must be the whole universe.
        let n = 6;
        let covers = (0..n as u32).map(|s| BitSet::from_elems(n, [s])).collect();
        let inst = DominationInstance { covers, universe: BitSet::full(n), forced: vec![2] };
        let extra = inst.solve_exact(usize::MAX).unwrap();
        assert_eq!(extra.len(), n - 1, "all but the forced element");
    }
}

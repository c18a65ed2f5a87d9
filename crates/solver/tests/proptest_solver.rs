//! Property-based tests for the solver crate: the bitset, the
//! dominating-set branch-and-bound, the incremental engine, and the
//! best-response reduction.

use ncg_core::deviation::{evaluate_total, EvalScratch};
use ncg_core::equilibrium::best_response_exhaustive;
use ncg_core::{GameSpec, GameState, PlayerView};
use ncg_graph::bfs::DistanceBuffer;
use ncg_graph::NodeId;
use ncg_solver::bitset::BitSet;
use ncg_solver::dominating::DominationInstance;
use ncg_solver::engine::DominationEngine;
use ncg_solver::sum_engine::SumEngine;
use ncg_solver::{max_br, sum_br, Mode, SolverScratch};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The number of connected components of `H ∖ {center}`: one BFS from
/// every vertex no earlier BFS reached.
fn components_minus_center(view: &PlayerView) -> usize {
    let (mut buf, mut reached) = (DistanceBuffer::new(), vec![false; view.len()]);
    let mut count = 0;
    for v in view.candidates_iter() {
        if !reached[v as usize] {
            count += 1;
            view.bfs_minus_center(&[v], &mut buf);
            for &w in buf.visited() {
                reached[w as usize] = true;
            }
        }
    }
    count
}

fn arb_elems(cap: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..cap as u32, 0..cap)
}

/// The radius-`r` ball system of `g`: `covers[s]` is the radius-`r`
/// ball around `s`, and every vertex must be dominated.
fn ball_instance(g: &ncg_graph::Graph, r: u32, forced: Vec<u32>) -> DominationInstance {
    let n = g.node_count();
    let csr = ncg_graph::CsrGraph::from_graph(g);
    let mut buf = ncg_graph::bfs::DistanceBuffer::with_capacity(n);
    let covers = (0..n as u32)
        .map(|s| {
            csr.bfs_bounded(s, r, &mut buf);
            BitSet::from_elems(n, buf.visited().iter().copied())
        })
        .collect();
    DominationInstance { covers, universe: BitSet::full(n), forced }
}

proptest! {
    // Each case runs n + 3 solves of a 63–70-element instance (sparser
    // graphs take far longer than dense ones): four cases keep the
    // debug tier-1 run within seconds; the weekly deep run raises the
    // count.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every cutoff gets exactly the unbounded optimum's answer — the
    /// root gate (which answers low cutoffs without an incumbent)
    /// included — from one engine solved again and again, on
    /// radius-0..2 ball systems across the word boundary.
    #[test]
    fn solve_exact_agrees_with_the_unbounded_optimum_at_every_cutoff(
        seed in 0u64..10_000,
        n in 63usize..71,
        radius in 0u32..3,
        p in 0.25f64..0.45,
        forced in any::<bool>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = ncg_graph::generators::gnp(n, p, &mut rng).unwrap();
        let inst = ball_instance(&g, radius, if forced { vec![n as u32 - 2] } else { vec![] });
        let mut engine = DominationEngine::from_instance(&inst);
        let optimum = engine.solve_exact(usize::MAX);
        for cutoff in 0..=n + 1 {
            let expected = optimum.clone().filter(|s| s.len() < cutoff);
            prop_assert_eq!(&engine.solve_exact(cutoff), &expected, "cutoff {}", cutoff);
        }
    }
}

proptest! {
    // Capped so a full `cargo test -q` stays fast and deterministic;
    // override with PROPTEST_CASES (and PROPTEST_SEED) for deeper runs.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// BitSet behaves like a BTreeSet.
    #[test]
    fn bitset_matches_btreeset(elems in arb_elems(150), removals in arb_elems(150)) {
        let mut bs = BitSet::new(150);
        let mut reference = std::collections::BTreeSet::new();
        for &e in &elems {
            prop_assert_eq!(bs.insert(e), reference.insert(e));
        }
        for &e in &removals {
            prop_assert_eq!(bs.remove(e), reference.remove(&e));
        }
        prop_assert_eq!(bs.len(), reference.len());
        prop_assert_eq!(bs.to_vec(), reference.iter().copied().collect::<Vec<u32>>());
    }

    /// Set algebra: union, superset, missing counts agree with the
    /// reference implementation.
    #[test]
    fn bitset_algebra(a in arb_elems(100), b in arb_elems(100)) {
        let sa = BitSet::from_elems(100, a.iter().copied());
        let sb = BitSet::from_elems(100, b.iter().copied());
        let ra: std::collections::BTreeSet<u32> = a.into_iter().collect();
        let rb: std::collections::BTreeSet<u32> = b.into_iter().collect();
        prop_assert_eq!(sa.is_superset(&sb), rb.is_subset(&ra));
        prop_assert_eq!(sa.missing_from(&sb), rb.difference(&ra).count());
        prop_assert_eq!(sa.intersection_len(&sb), ra.intersection(&rb).count());
        let mut u = sa.clone();
        u.union_with(&sb);
        prop_assert_eq!(u.len(), ra.union(&rb).count());
        prop_assert_eq!(
            sa.first_missing_from(&sb),
            rb.difference(&ra).next().copied()
        );
    }

    /// The exact dominating-set solver is optimal: no smaller feasible
    /// subset exists (verified by exhaustive enumeration on ≤ 12
    /// elements) and its output is feasible.
    #[test]
    fn exact_domination_is_optimal(seed in 0u64..500, p in 0.15f64..0.5) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = 11usize;
        let g = ncg_graph::generators::gnp(n, p, &mut rng).unwrap();
        let covers: Vec<BitSet> = (0..n as u32).map(|s| {
            let mut b = BitSet::new(n);
            b.insert(s);
            for &v in g.neighbors(s) { b.insert(v); }
            b
        }).collect();
        let inst = DominationInstance {
            covers,
            universe: BitSet::full(n),
            forced: vec![],
        };
        let exact = inst.solve_exact(usize::MAX).map(|s| s.len());
        // Brute force.
        let mut best: Option<usize> = None;
        for mask in 0u32..(1 << n) {
            let mut covered = BitSet::new(n);
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
        prop_assert_eq!(exact, best);
    }

    /// Greedy solutions are always feasible and within the classical
    /// (1 + ln n) factor of exact.
    #[test]
    fn greedy_domination_quality(seed in 0u64..300) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = 40usize;
        let g = ncg_graph::generators::gnp_connected(n, 0.12, 500, &mut rng).unwrap();
        let covers: Vec<BitSet> = (0..n as u32).map(|s| {
            let mut b = BitSet::new(n);
            b.insert(s);
            for &v in g.neighbors(s) { b.insert(v); }
            b
        }).collect();
        let inst = DominationInstance { covers, universe: BitSet::full(n), forced: vec![] };
        let greedy = inst.solve_greedy().unwrap();
        let exact = inst.solve_exact(usize::MAX).unwrap();
        let bound = (1.0 + (n as f64).ln()) * exact.len() as f64;
        prop_assert!(greedy.len() as f64 <= bound + 1e-9);
        let mut covered = BitSet::new(n);
        for &s in &greedy {
            covered.union_with(&inst.covers[s as usize]);
        }
        prop_assert!(covered.is_superset(&inst.universe));
    }

    /// The incremental engine's best responses are cost-identical to
    /// the seed per-`h` rebuild, and (on small views) to exhaustive
    /// subset enumeration — the end-to-end parity contract of the
    /// engine rearchitecture.
    #[test]
    fn incremental_engine_matches_rebuild_and_brute_force(
        seed in 0u64..300,
        k in 1u32..5,
        alpha in 0.05f64..6.0,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = ncg_graph::generators::gnp_connected(14, 0.2, 500, &mut rng).unwrap();
        let state = GameState::from_graph_random_ownership(&g, &mut rng);
        let spec = GameSpec::max(alpha, k);
        let mut scratch = SolverScratch::new();
        for u in (0..state.n() as NodeId).step_by(3) {
            let view = PlayerView::build(&state, u, k);
            let incremental =
                max_br::max_best_response_with(&spec, &view, Mode::Exact, &mut scratch);
            let rebuild_cost = max_br::max_best_response_cost_rebuild(&spec, &view);
            prop_assert!(
                (incremental.total_cost - rebuild_cost).abs() < 1e-9,
                "u={u}: engine {} vs rebuild {rebuild_cost}",
                incremental.total_cost,
            );
            if view.candidates().len() <= 14 {
                let brute = best_response_exhaustive(&spec, &view).unwrap();
                prop_assert!(
                    (incremental.total_cost - brute.total_cost).abs() < 1e-9,
                    "u={u}: engine {} vs brute {}",
                    incremental.total_cost,
                    brute.total_cost,
                );
            }
        }
    }

    /// The sum branch-and-bound agrees with exhaustive subset
    /// enumeration — strategy and cost bits, not just cost — on every
    /// view small enough to enumerate (all of them sit under the old
    /// 14-candidate `SUM_EXACT_CAP` this engine removed). About half the
    /// cases draw α from the gadgets' range (they certify at α = 40,
    /// 110 and 2n), where the dual ascent runs the most passes.
    #[test]
    fn sum_bnb_matches_exhaustive(
        seed in 0u64..200,
        k in 1u32..5,
        alpha in (any::<bool>(), 0.05f64..6.0, 20.0f64..200.0)
            .prop_map(|(high, low, gadget)| if high { gadget } else { low }),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = ncg_graph::generators::gnp_connected(13, 0.2, 500, &mut rng).unwrap();
        let state = GameState::from_graph_random_ownership(&g, &mut rng);
        let spec = GameSpec::sum(alpha, k);
        let mut scratch = SolverScratch::new();
        for u in (0..state.n() as NodeId).step_by(3) {
            let view = PlayerView::build(&state, u, k);
            let bnb = sum_br::sum_best_response_with(&spec, &view, Mode::Exact, &mut scratch);
            let brute = best_response_exhaustive(&spec, &view).unwrap();
            prop_assert_eq!(&bnb.strategy_local, &brute.strategy_local, "u = {}", u);
            prop_assert_eq!(bnb.total_cost.to_bits(), brute.total_cost.to_bits(), "u = {}", u);
        }
    }

    /// The Sum response splits the view at the player: each component of
    /// `H ∖ {u}` is solved on its own and the strategies are merged. On
    /// random trees and sparse G(n, p) of at most 14 nodes, at radii 1,
    /// 2, 3 and full knowledge and with α drawn from both of the ranges
    /// above, the merged response must be exhaustive enumeration's, in
    /// strategy and cost bits. Every tree case has views that split, so
    /// the split path runs in every other case.
    #[test]
    fn sum_split_matches_exhaustive(
        seed in 0u64..10_000,
        n in 4usize..15,
        tree in any::<bool>(),
        p in 0.12f64..0.3,
        k in (0usize..4).prop_map(|i| [1u32, 2, 3, 1000][i]),
        alpha in (any::<bool>(), 0.05f64..6.0, 20.0f64..200.0)
            .prop_map(|(high, low, gadget)| if high { gadget } else { low }),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = if tree {
            ncg_graph::generators::random_tree(n, &mut rng)
        } else {
            ncg_graph::generators::gnp_connected(n, p, 500, &mut rng).unwrap()
        };
        let state = GameState::from_graph_random_ownership(&g, &mut rng);
        let spec = GameSpec::sum(alpha, k);
        let mut scratch = SolverScratch::new();
        let mut split_views = 0;
        for u in 0..state.n() as NodeId {
            let view = PlayerView::build(&state, u, k);
            split_views += usize::from(components_minus_center(&view) >= 2);
            let split = sum_br::sum_best_response_with(&spec, &view, Mode::Exact, &mut scratch);
            let brute = best_response_exhaustive(&spec, &view).unwrap();
            prop_assert_eq!(&split.strategy_local, &brute.strategy_local, "u = {}", u);
            prop_assert_eq!(split.total_cost.to_bits(), brute.total_cost.to_bits(), "u = {}", u);
        }
        prop_assert!(!tree || split_views > 0, "no view of the tree split");
    }

    /// Beyond the old enumeration cap the exact engine must never lose
    /// to the hill-climb heuristic, nor to standing pat — on
    /// full-knowledge views of ~30 nodes where the seed solver could
    /// only hill-climb.
    #[test]
    fn sum_bnb_never_worse_than_hill_climb(
        seed in 0u64..100,
        alpha in 0.1f64..5.0,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = ncg_graph::generators::gnp_connected(28, 0.12, 500, &mut rng).unwrap();
        let state = GameState::from_graph_random_ownership(&g, &mut rng);
        let spec = GameSpec::sum(alpha, 1000);
        let mut scratch = SolverScratch::new();
        for u in (0..state.n() as NodeId).step_by(9) {
            let view = PlayerView::build(&state, u, spec.k);
            let exact = sum_br::sum_best_response_with(&spec, &view, Mode::Exact, &mut scratch);
            let greedy = sum_br::sum_best_response_with(&spec, &view, Mode::Greedy, &mut scratch);
            let current = ncg_core::deviation::current_total(&spec, &view);
            prop_assert!(
                exact.total_cost <= greedy.total_cost + ncg_core::EPS,
                "u={}: exact {} vs hill climb {}", u, exact.total_cost, greedy.total_cost,
            );
            prop_assert!(exact.total_cost <= current + ncg_core::EPS);
        }
    }

    /// A warm scratch reused across every solve returns what a cold
    /// one per call returns, strategy and cost bits.
    #[test]
    fn sum_bnb_warm_scratch_is_transparent(
        seed in 0u64..60,
        k in 2u32..6,
        alpha in 0.1f64..4.0,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = ncg_graph::generators::gnp_connected(24, 0.14, 500, &mut rng).unwrap();
        let state = GameState::from_graph_random_ownership(&g, &mut rng);
        let spec = GameSpec::sum(alpha, k);
        let mut warm = SolverScratch::new();
        for u in (0..state.n() as NodeId).step_by(7) {
            let view = PlayerView::build(&state, u, k);
            let a = sum_br::sum_best_response_with(&spec, &view, Mode::Exact, &mut warm);
            let mut cold = SolverScratch::new();
            let b = sum_br::sum_best_response_with(&spec, &view, Mode::Exact, &mut cold);
            prop_assert_eq!(&a.strategy_local, &b.strategy_local, "u = {}", u);
            prop_assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits(), "u = {}", u);
        }
    }

    /// The MaxNCG best response is stable under irrelevant graph
    /// relabelling of the *view* — computed twice it returns the same
    /// thing (pure function), and its strategy only names visible,
    /// non-incoming vertices.
    #[test]
    fn max_br_is_pure_and_well_formed(seed in 0u64..200, k in 1u32..4, alpha in 0.1f64..5.0) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = ncg_graph::generators::gnp_connected(18, 0.18, 500, &mut rng).unwrap();
        let state = GameState::from_graph_random_ownership(&g, &mut rng);
        let spec = GameSpec::max(alpha, k);
        for u in (0..state.n() as NodeId).step_by(5) {
            let view = PlayerView::build(&state, u, k);
            let a = max_br::max_best_response(&spec, &view, Mode::Exact);
            let b = max_br::max_best_response(&spec, &view, Mode::Exact);
            prop_assert_eq!(&a.strategy_local, &b.strategy_local);
            prop_assert_eq!(a.total_cost, b.total_cost);
            for &s in &a.strategy_local {
                prop_assert!((s as usize) < view.len());
                prop_assert_ne!(s, view.center);
                prop_assert!(!view.incoming.contains(&s),
                    "best responses never re-buy incoming edges");
            }
        }
    }
}

proptest! {
    // At mid α one 60-node full-knowledge tree view takes the engine up
    // to about 2 s in a debug build, solved once split and once whole:
    // four cases, and two or three players a case in debug builds
    // (every eleventh player in release), keep the tier-1 run short;
    // the weekly deep run raises the count.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Past the enumeration cap the split response must equal the engine
    /// run on the whole view, re-scored through the evaluator, in
    /// strategy and cost bits: full-knowledge views of 30- to 64-node
    /// random trees, where every inner player's view splits.
    #[test]
    fn sum_split_matches_the_whole_view_engine(
        seed in 0u64..10_000,
        n in 30usize..65,
        alpha in (any::<bool>(), 0.05f64..6.0, 20.0f64..200.0)
            .prop_map(|(high, low, gadget)| if high { gadget } else { low }),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = ncg_graph::generators::random_tree(n, &mut rng);
        let state = GameState::from_graph_random_ownership(&g, &mut rng);
        let spec = GameSpec::sum(alpha, 1000);
        let mut scratch = SolverScratch::new();
        let (mut whole, mut eval) = (SumEngine::default(), EvalScratch::new());
        for u in (0..state.n() as NodeId).step_by(if cfg!(debug_assertions) { 29 } else { 11 }) {
            let view = PlayerView::build(&state, u, spec.k);
            let split = sum_br::sum_best_response_with(&spec, &view, Mode::Exact, &mut scratch);
            whole.prepare(&spec, &view);
            let inc = whole.solve();
            let cost = evaluate_total(&spec, &view, &inc.strategy, &mut eval);
            prop_assert_eq!(&split.strategy_local, &inc.strategy, "u = {}", u);
            prop_assert_eq!(split.total_cost.to_bits(), cost.to_bits(), "u = {}", u);
        }
    }
}

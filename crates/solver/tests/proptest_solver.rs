//! Property-based tests for the solver crate: the bitset, the
//! dominating-set branch-and-bound, the incremental engine, and the
//! best-response reduction.

use ncg_core::equilibrium::best_response_exhaustive;
use ncg_core::{GameSpec, GameState, PlayerView};
use ncg_graph::NodeId;
use ncg_solver::bitset::BitSet;
use ncg_solver::dominating::DominationInstance;
use ncg_solver::engine::DominationEngine;
use ncg_solver::{max_br, sum_br, Mode, ParallelPolicy, SolverScratch};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn arb_elems(cap: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..cap as u32, 0..cap)
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

    /// The parallel branch-and-bound returns the *bit-identical*
    /// solution (not just the same size) as the sequential solver, for
    /// every worker count and under real thread pools — including
    /// cutoff (`None`) and infeasible instances. This is the §8
    /// two-pass canonical-selection contract the CI determinism job
    /// relies on.
    #[test]
    fn parallel_solve_is_bit_identical_across_thread_counts(
        seed in 0u64..400,
        p in 0.08f64..0.35,
        forced in any::<bool>(),
        sabotage in any::<bool>(),
        cutoff_slack in 0usize..3,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = 24usize;
        let g = ncg_graph::generators::gnp(n, p, &mut rng).unwrap();
        let mut inst = DominationInstance::closed_neighborhoods(
            &g,
            if forced { vec![3] } else { vec![] },
        );
        if sabotage {
            // Vertex 0 loses every dominator: the instance is
            // infeasible and every solver must say `None`.
            for c in &mut inst.covers {
                c.remove(0);
            }
        }
        let opt = DominationEngine::from_instance(&inst).solve_exact(usize::MAX);
        let cutoff = match (&opt, cutoff_slack) {
            (Some(sol), 0) => sol.len(),     // optimum is not < cutoff → None
            (Some(sol), 1) => sol.len() + 1, // tightest feasible cutoff
            _ => usize::MAX,
        };
        let expected = DominationEngine::from_instance(&inst).solve_exact(cutoff);
        for workers in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(workers).build().unwrap();
            let got = pool.install(|| {
                DominationEngine::from_instance(&inst).solve_exact_parallel(cutoff, workers, 3)
            });
            prop_assert_eq!(&got, &expected, "workers = {}", workers);
        }
    }

    /// Forcing the parallel policy all the way down (every view
    /// parallelises) leaves the full best-response reduction
    /// bit-identical — strategy and cost — to the sequential-only
    /// policy: the `ParallelPolicy` is purely a performance knob.
    #[test]
    fn max_br_parallel_policy_is_transparent(
        seed in 0u64..60,
        k in 2u32..5,
        alpha in 0.1f64..4.0,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = ncg_graph::generators::gnp_connected(26, 0.12, 500, &mut rng).unwrap();
        let state = GameState::from_graph_random_ownership(&g, &mut rng);
        let spec = GameSpec::max(alpha, k);
        let mut seq = SolverScratch::new();
        seq.parallel = ParallelPolicy::sequential();
        let mut par = SolverScratch::new();
        par.parallel = ParallelPolicy { min_ground: 0, per_worker: 2 };
        let pool = rayon::ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        for u in (0..state.n() as NodeId).step_by(7) {
            let view = PlayerView::build(&state, u, k);
            let a = max_br::max_best_response_with(&spec, &view, Mode::Exact, &mut seq);
            let b = pool.install(|| {
                max_br::max_best_response_with(&spec, &view, Mode::Exact, &mut par)
            });
            prop_assert_eq!(&a.strategy_local, &b.strategy_local, "u = {}", u);
            prop_assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits(), "u = {}", u);
        }
    }

    /// The sum branch-and-bound agrees with exhaustive subset
    /// enumeration — strategy and cost bits, not just cost — on every
    /// view small enough to enumerate (all of them sit under the old
    /// 14-candidate `SUM_EXACT_CAP` this engine removed).
    #[test]
    fn sum_bnb_matches_exhaustive(
        seed in 0u64..200,
        k in 1u32..5,
        alpha in 0.05f64..6.0,
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

    /// Forcing the sum solves to parallelise leaves the best response
    /// bit-identical — strategy and cost — to the sequential policy,
    /// for worker pools of 1, 2 and 4 threads (the `NCG_THREADS`
    /// determinism contract, sum side), and a warm scratch reused
    /// across every solve matches a cold one per call.
    #[test]
    fn sum_bnb_parallel_and_warm_scratch_are_transparent(
        seed in 0u64..60,
        k in 2u32..6,
        alpha in 0.1f64..4.0,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = ncg_graph::generators::gnp_connected(24, 0.14, 500, &mut rng).unwrap();
        let state = GameState::from_graph_random_ownership(&g, &mut rng);
        let spec = GameSpec::sum(alpha, k);
        let mut seq = SolverScratch::new();
        seq.parallel = ParallelPolicy::sequential();
        let mut warm = SolverScratch::new();
        warm.parallel = ParallelPolicy { min_ground: 0, per_worker: 2 };
        for u in (0..state.n() as NodeId).step_by(7) {
            let view = PlayerView::build(&state, u, k);
            let a = sum_br::sum_best_response_with(&spec, &view, Mode::Exact, &mut seq);
            for workers in [1usize, 2, 4] {
                let pool =
                    rayon::ThreadPoolBuilder::new().num_threads(workers).build().unwrap();
                let b = pool.install(|| {
                    sum_br::sum_best_response_with(&spec, &view, Mode::Exact, &mut warm)
                });
                // Cold scratch, same pool: warm reuse must be invisible.
                let c = pool.install(|| {
                    let mut cold = SolverScratch::new();
                    cold.parallel = ParallelPolicy { min_ground: 0, per_worker: 2 };
                    sum_br::sum_best_response_with(&spec, &view, Mode::Exact, &mut cold)
                });
                prop_assert_eq!(&a.strategy_local, &b.strategy_local, "u = {}", u);
                prop_assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits(), "u = {}", u);
                prop_assert_eq!(&b.strategy_local, &c.strategy_local, "u = {}", u);
                prop_assert_eq!(b.total_cost.to_bits(), c.total_cost.to_bits(), "u = {}", u);
            }
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

//! The exact engines against exhaustive search on every tiny game.
//!
//! A player's best response depends only on her view, her purchases and
//! her incoming edges, so the cases are (connected graph, ownership of
//! player 0's incident edges): all 728 labelled connected graphs on 5
//! nodes, player 0 owning every subset of her incident edges, and every
//! other edge bought by its lower endpoint. Each case is solved at
//! k ∈ {1, 2, 3, 4} and α ∈ {0.5, 1, 1.5, 2, 3} for both objectives.
//!
//! - The exact Sum response must equal [`best_response_exhaustive`] in
//!   strategy and in cost bits: both return the comparator minimum
//!   (cost, then fewer edges, then lexicographic).
//! - The exact Max response must equal it in cost bits only, and its
//!   witness must cost what it reports. The witness is the smallest
//!   eccentricity guess that reaches the optimal cost, with the current
//!   strategy winning any tie, so it may differ at equal cost
//!   (DESIGN.md §4.1).
//! - [`is_lke`] must equal [`is_lke_exhaustive`] on one ownership per
//!   graph.

use ncg_core::deviation::{evaluate_total, EvalScratch};
use ncg_core::equilibrium::{best_response_exhaustive, is_lke_exhaustive};
use ncg_core::{GameSpec, GameState, PlayerView};
use ncg_graph::{metrics, Graph, NodeId};
use ncg_solver::max_br::max_best_response_with;
use ncg_solver::sum_br::sum_best_response_with;
use ncg_solver::{is_lke, Mode, SolverScratch};

const N: usize = 5;
const RADII: [u32; 4] = [1, 2, 3, 4];
const ALPHAS: [f64; 5] = [0.5, 1.0, 1.5, 2.0, 3.0];

/// Every labelled connected graph on `N` nodes, in the order of its
/// edge mask over the pairs `(u, v)`, `u < v`, listed lexicographically.
fn connected_graphs() -> Vec<Graph> {
    let pairs: Vec<(NodeId, NodeId)> =
        (0..N as NodeId).flat_map(|u| (u + 1..N as NodeId).map(move |v| (u, v))).collect();
    let graphs: Vec<Graph> = (0u32..1 << pairs.len())
        .map(|mask| {
            let edges = pairs.iter().enumerate().filter(|&(i, _)| mask >> i & 1 == 1);
            Graph::from_edges(N, edges.map(|(_, &e)| e)).unwrap()
        })
        .filter(metrics::is_connected)
        .collect();
    assert_eq!(graphs.len(), 728, "labelled connected graphs on 5 nodes");
    graphs
}

/// The state in which player 0 buys the edges to the neighbours whose
/// bit is set in `mask` (bit `i` is her `i`-th neighbour in id order),
/// her other neighbours buy theirs to her, and every other edge is
/// bought by its lower endpoint.
fn state_with_ownership(g: &Graph, mask: u32) -> GameState {
    let mut strategies = vec![Vec::new(); N];
    for (u, v) in g.edges() {
        let (lo, hi) = (u.min(v), u.max(v));
        strategies[lo as usize].push(hi);
    }
    let neighbours = std::mem::take(&mut strategies[0]);
    for (i, &v) in neighbours.iter().enumerate() {
        if mask >> i & 1 == 1 {
            strategies[0].push(v);
        } else {
            strategies[v as usize].push(0);
        }
    }
    GameState::from_strategies(N, strategies)
}

/// Every (graph, ownership) case, as `(graph index, mask, state)`.
fn cases() -> Vec<(usize, u32, GameState)> {
    let mut out = Vec::new();
    for (gi, g) in connected_graphs().iter().enumerate() {
        for mask in 0..1u32 << g.degree(0) {
            out.push((gi, mask, state_with_ownership(g, mask)));
        }
    }
    out
}

/// Runs `check` on player 0's view of every case under every spec that
/// `make_spec` builds from the grid, and returns the number of views
/// checked.
fn for_every_view(
    make_spec: fn(f64, u32) -> GameSpec,
    mut check: impl FnMut(&GameSpec, &PlayerView, &str),
) -> usize {
    let mut checked = 0;
    for (gi, mask, state) in cases() {
        for k in RADII {
            let view = PlayerView::build(&state, 0, k);
            for alpha in ALPHAS {
                let spec = make_spec(alpha, k);
                check(&spec, &view, &format!("graph {gi}, mask {mask:#b}, k = {k}, α = {alpha}"));
                checked += 1;
            }
        }
    }
    checked
}

#[test]
fn sum_engine_matches_exhaustive_search_on_every_5_node_game() {
    let mut scratch = SolverScratch::new();
    let checked = for_every_view(GameSpec::sum, |spec, view, tag| {
        let exact = sum_best_response_with(spec, view, Mode::Exact, &mut scratch);
        let brute = best_response_exhaustive(spec, view).unwrap();
        assert_eq!(exact.strategy_local, brute.strategy_local, "{tag}");
        assert_eq!(exact.total_cost.to_bits(), brute.total_cost.to_bits(), "{tag}");
    });
    assert_eq!(checked, 85_440);
}

#[test]
fn max_engine_matches_exhaustive_cost_on_every_5_node_game() {
    let (mut scratch, mut eval) = (SolverScratch::new(), EvalScratch::new());
    let checked = for_every_view(GameSpec::max, |spec, view, tag| {
        let exact = max_best_response_with(spec, view, Mode::Exact, &mut scratch);
        let brute = best_response_exhaustive(spec, view).unwrap();
        assert_eq!(exact.total_cost.to_bits(), brute.total_cost.to_bits(), "{tag}");
        let priced = evaluate_total(spec, view, &exact.strategy_local, &mut eval);
        assert_eq!(priced.to_bits(), exact.total_cost.to_bits(), "{tag}: witness cost");
    });
    assert_eq!(checked, 85_440);
}

#[test]
fn is_lke_matches_exhaustive_certification_on_every_5_node_graph() {
    let (mut stable, mut checked) = (0, 0);
    for (gi, g) in connected_graphs().iter().enumerate() {
        // One ownership of player 0's edges per graph, varied across
        // the graphs.
        let mask = gi as u32 % (1 << g.degree(0));
        let state = state_with_ownership(g, mask);
        for k in RADII {
            for alpha in ALPHAS {
                for spec in [GameSpec::max(alpha, k), GameSpec::sum(alpha, k)] {
                    let expected = is_lke_exhaustive(&state, &spec).unwrap();
                    let tag = format!("graph {gi}, mask {mask:#b}, {spec:?}");
                    assert_eq!(is_lke(&state, &spec), expected, "{tag}");
                    stable += usize::from(expected);
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 728 * 40);
    // Both verdicts occur, so neither side can pass by saying one thing.
    assert!(stable > 0 && stable < checked, "{stable} of {checked} stable");
}

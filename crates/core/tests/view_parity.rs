//! Parity of the ball-local CSR view with an independent construction.
//!
//! [`PlayerView`] builds `H` as one CSR through an epoch-stamped id map
//! and never materialises `H ∖ {u}`: it reads the same CSR with the
//! center skipped. The reference here is built the straightforward
//! way, inside the test: the ball from a full BFS, a `Graph` over the
//! ball with ids mapped by binary search, distances from a BFS on that
//! graph, and `H ∖ {u}` as a copy with the center detached. Every
//! field, every `H ∖ {u}` read, every per-source `H ∖ {u}` distance row
//! and every deviation price must agree — on one view slot and one row
//! scratch reused across states of different sizes, the warm path the
//! dynamics view cache and the solvers take.

use ncg_core::deviation::{evaluate_max, evaluate_sum, DeviationEval, EvalScratch};
use ncg_core::{GameState, PlayerView, RowScratch, ViewScratch};
use ncg_graph::bfs::{bfs, bfs_multi, DistanceBuffer};
use ncg_graph::{generators, Graph, NodeId, INFINITY};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The view of `u` at radius `k`, built independently of `PlayerView`.
struct Reference {
    ball: Vec<NodeId>,
    h: Graph,
    minus_center: Graph,
    center: NodeId,
    dist: Vec<u32>,
    purchases: Vec<NodeId>,
    incoming: Vec<NodeId>,
}

impl Reference {
    fn build(state: &GameState, u: NodeId, k: u32) -> Self {
        let mut buf = DistanceBuffer::new();
        bfs(state.graph(), u, &mut buf);
        let ball: Vec<NodeId> = (0..state.n() as NodeId).filter(|&v| buf.dist(v) <= k).collect();
        let local = |v: NodeId| ball.binary_search(&v).ok().map(|l| l as NodeId);
        let edges = state.graph().edges().filter_map(|(a, b)| Some((local(a)?, local(b)?)));
        let h = Graph::from_edges(ball.len(), edges).unwrap();
        let center = local(u).unwrap();
        bfs(&h, center, &mut buf);
        let dist = buf.distances().to_vec();
        let to_local = |globals: &[NodeId]| {
            let mut out: Vec<NodeId> = globals.iter().map(|&g| local(g).unwrap()).collect();
            out.sort_unstable();
            out
        };
        let purchases = to_local(state.strategy(u));
        let incoming = to_local(&state.incoming(u));
        let mut minus_center = h.clone();
        minus_center.detach_node(center);
        Reference { ball, h, minus_center, center, dist, purchases, incoming }
    }

    /// Propositions 2.1/2.2 priced by one multi-source BFS on the
    /// detached copy.
    fn evaluate(&self, k: u32, strategy: &[NodeId], sum: bool) -> DeviationEval {
        if self.ball.len() == 1 {
            return DeviationEval::Usage(0);
        }
        let sources: Vec<NodeId> = strategy.iter().chain(&self.incoming).copied().collect();
        let mut buf = DistanceBuffer::new();
        bfs_multi(&self.minus_center, &sources, &mut buf);
        let others = || (0..self.ball.len()).filter(|&v| v != self.center as usize);
        if sum && others().any(|v| self.dist[v] == k && buf.dist(v as NodeId) > k - 1) {
            return DeviationEval::ForbiddenFrontier;
        }
        let mut usage = 0u64;
        for v in others() {
            let d = buf.dist(v as NodeId);
            if d == INFINITY {
                return DeviationEval::Disconnecting;
            }
            usage = if sum { usage + 1 + d as u64 } else { usage.max(1 + d as u64) };
        }
        DeviationEval::Usage(usage)
    }
}

/// A state on `g` where each edge is bought by one endpoint or, one
/// time in four, by both.
fn random_ownership(g: &Graph, rng: &mut ChaCha8Rng) -> GameState {
    let mut strategies = vec![Vec::new(); g.node_count()];
    for (a, b) in g.edges() {
        match rng.random_range(0..4) {
            0 => {
                strategies[a as usize].push(b);
                strategies[b as usize].push(a);
            }
            1 => strategies[a as usize].push(b),
            _ => strategies[b as usize].push(a),
        }
    }
    GameState::from_strategies(g.node_count(), strategies)
}

/// Random trees and `G(n, p)` of every size class up to 40 nodes, and
/// on either side of one and two 64-bit words (full views of 64, 65,
/// 128 and 130 nodes), in an order that grows and shrinks the warm
/// slot and the row scratch.
fn states() -> Vec<GameState> {
    let mut rng = ChaCha8Rng::seed_from_u64(1907);
    let mut out = Vec::new();
    for n in [40usize, 1, 17, 130, 2, 33, 65, 9, 128, 26, 64, 40, 5] {
        let tree = generators::random_tree(n, &mut rng);
        out.push(random_ownership(&tree, &mut rng));
        let p = rng.random_range(0.05..0.3);
        let g = generators::gnp(n, p, &mut rng).unwrap();
        out.push(random_ownership(&g, &mut rng));
    }
    out
}

fn assert_view_matches(view: &PlayerView, r: &Reference, tag: &str) {
    assert_eq!(view.sub.local_to_global, r.ball, "{tag}: ball");
    assert_eq!(view.sub.graph.node_count(), r.h.node_count(), "{tag}: node count");
    for v in 0..r.h.node_count() as NodeId {
        assert_eq!(view.sub.graph.neighbors(v), r.h.neighbors(v), "{tag}: row {v}");
        let minus: Vec<NodeId> = view.neighbors_minus_center(v).collect();
        assert_eq!(minus, r.minus_center.neighbors(v), "{tag}: row {v} of H minus u");
    }
    assert_eq!(view.center, r.center, "{tag}: center");
    assert_eq!(view.dist, r.dist, "{tag}: dist");
    assert_eq!(view.purchases, r.purchases, "{tag}: purchases");
    assert_eq!(view.incoming, r.incoming, "{tag}: incoming");
}

#[test]
fn csr_view_matches_the_detached_graph_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(19);
    let mut scratch = ViewScratch::new();
    let mut slot: Option<PlayerView> = None;
    let mut from_ball: Option<PlayerView> = None;
    let mut eval = EvalScratch::new();
    let (mut a, mut b) = (DistanceBuffer::new(), DistanceBuffer::new());
    let (mut row_scratch, mut rows) = (RowScratch::new(), Vec::new());
    for (i, state) in states().iter().enumerate() {
        for k in [1u32, 2, 3, 1000] {
            for u in 0..state.n() as NodeId {
                let tag = format!("state {i} (n = {}), k = {k}, u = {u}", state.n());
                let r = Reference::build(state, u, k);
                let view = slot.get_or_insert_with(|| PlayerView::build(state, u, k));
                view.rebuild(state, u, k, &mut scratch);
                assert_view_matches(view, &r, &tag);
                assert_eq!(*view, PlayerView::build(state, u, k), "{tag}: warm vs fresh");
                let other = from_ball.get_or_insert_with(|| PlayerView::build(state, u, k));
                other.rebuild_from_ball(state, u, k, &r.ball, &mut scratch);
                assert_eq!(other, view, "{tag}: rebuild_from_ball");

                // Every source's row, from one warm scratch.
                let n = view.len();
                rows.clear();
                view.extend_rows_minus_center(0..n as NodeId, &mut row_scratch, &mut rows);
                assert_eq!(rows.len(), n * n, "{tag}: row matrix size");
                for (s, row) in rows.chunks(n).enumerate() {
                    if s == r.center as usize {
                        assert!(row.iter().all(|&d| d == INFINITY), "{tag}: center row");
                    } else {
                        bfs_multi(&r.minus_center, &[s as NodeId], &mut b);
                        assert_eq!(row, b.distances(), "{tag}: row {s}");
                    }
                }

                // Strategies: current, empty, and random candidate sets.
                let mut strategies = vec![r.purchases.clone(), Vec::new()];
                for _ in 0..4 {
                    strategies
                        .push(view.candidates_iter().filter(|_| rng.random_bool(0.3)).collect());
                }
                for s in &strategies {
                    let sources: Vec<NodeId> = s.iter().chain(&r.incoming).copied().collect();
                    let da = view.bfs_minus_center(&sources, &mut a);
                    let db = bfs_multi(&r.minus_center, &sources, &mut b);
                    assert_eq!(da, db, "{tag}, σ' = {s:?}: eccentricity");
                    assert_eq!(a.distances(), b.distances(), "{tag}, σ' = {s:?}: distances");
                    assert_eq!(a.visited(), b.visited(), "{tag}, σ' = {s:?}: visit order");
                    let max = evaluate_max(view, s, &mut eval);
                    assert_eq!(max, r.evaluate(k, s, false), "{tag}, σ' = {s:?}: Max");
                    let sum = evaluate_sum(view, s, &mut eval);
                    assert_eq!(sum, r.evaluate(k, s, true), "{tag}, σ' = {s:?}: Sum");
                }
            }
        }
    }
}

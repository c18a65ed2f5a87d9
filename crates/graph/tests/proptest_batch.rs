//! Property-based parity tests for the bit-parallel batched BFS
//! engine against the scalar kernel it replaces.
//!
//! Strategy: random graphs and random source lists (sizes 1..=130, so
//! single-word, multi-word, and partial-last-word lane layouts are all
//! exercised, with duplicate sources common), random limits, optional
//! skip node, and both traversal directions. Every lane must then be
//! bit-identical to an independent scalar run of the same source —
//! full distance rows, the derived aggregates (eccentricity, reach
//! count, status sum, ball sizes), the sorted per-lane balls, and the
//! visited union. A reuse property carries one scratch and one result
//! buffer through calls of changing shape and checks each against a
//! fresh-buffer run.

use ncg_graph::batch::{batch_bfs_opts, BatchDistances, BatchOptions, BatchScratch, Direction};
use ncg_graph::bfs::{bfs, bfs_skipping, DistanceBuffer};
use ncg_graph::{Graph, NodeId, INFINITY};
use proptest::prelude::*;

/// An arbitrary graph on up to `max_n` nodes via a random edge list.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    arb_graph_in(2, max_n)
}

/// An arbitrary graph on `min_n..=max_n` nodes via a random edge list.
fn arb_graph_in(min_n: usize, max_n: usize) -> impl Strategy<Value = Graph> {
    (min_n..=max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..=max_edges.min(60)).prop_map(
            move |pairs| {
                let mut g = Graph::new(n);
                for (u, v) in pairs {
                    if u != v {
                        g.add_edge(u, v);
                    }
                }
                g
            },
        )
    })
}

/// A graph plus a source list with duplicates, spanning 1..=130 lanes.
fn arb_instance(max_n: usize) -> impl Strategy<Value = (Graph, Vec<NodeId>)> {
    arb_graph(max_n).prop_flat_map(|g| {
        let n = g.node_count() as NodeId;
        let sources = proptest::collection::vec(0..n, 1..=130);
        (Just(g), sources)
    })
}

/// One call of a scratch-reuse sequence: a graph on `min_n..=max_n`
/// nodes, 130 candidate sources (each call keeps a prefix), and the
/// option selectors (limit, skip, top-down, distances).
type Call = (Graph, Vec<NodeId>, (usize, usize, bool, bool));

fn arb_call(min_n: usize, max_n: usize) -> impl Strategy<Value = Call> {
    arb_graph_in(min_n, max_n).prop_flat_map(|g| {
        let n = g.node_count() as NodeId;
        let sources = proptest::collection::vec(0..n, 130);
        (Just(g), sources, (0usize..5, 0usize..3, any::<bool>(), any::<bool>()))
    })
}

/// Asserts that two runs of the same call agree on everything a caller
/// can read: rows (when materialised), aggregates, balls, the union.
fn assert_same_run(reused: &BatchDistances, fresh: &BatchDistances, distances: bool) {
    prop_assert_eq!(reused.lanes(), fresh.lanes());
    prop_assert_eq!(reused.node_count(), fresh.node_count());
    prop_assert_eq!(reused.union_visited(), fresh.union_visited());
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for lane in 0..fresh.lanes() {
        prop_assert_eq!(reused.ecc(lane), fresh.ecc(lane));
        prop_assert_eq!(reused.reached(lane), fresh.reached(lane));
        prop_assert_eq!(reused.status_sum(lane), fresh.status_sum(lane));
        for radius in [0u32, 1, 2, u32::MAX] {
            prop_assert_eq!(reused.ball_size(lane, radius), fresh.ball_size(lane, radius));
        }
        reused.lane_ball_into(lane, &mut a);
        fresh.lane_ball_into(lane, &mut b);
        prop_assert_eq!(&a, &b, "lane {} ball", lane);
        for v in 0..fresh.node_count() as NodeId {
            prop_assert_eq!(reused.lane_visited(lane, v), fresh.lane_visited(lane, v));
        }
        if distances {
            prop_assert_eq!(reused.lane_distances(lane), fresh.lane_distances(lane));
        }
    }
}

/// The scalar reference for one lane: the distance row a skip-aware,
/// limit-truncated single-source BFS produces (`INFINITY` everywhere
/// when the source itself is skipped — the batched seed convention).
fn scalar_row(
    g: &Graph,
    source: NodeId,
    limit: u32,
    skip: Option<NodeId>,
    buf: &mut DistanceBuffer,
) -> Vec<u32> {
    let n = g.node_count();
    let mut row = vec![INFINITY; n];
    if skip == Some(source) {
        return row;
    }
    match skip {
        Some(s) => bfs_skipping(g, &[source], s, buf),
        None => bfs(g, source, buf),
    };
    for (v, d) in row.iter_mut().enumerate() {
        let full = buf.dist(v as NodeId);
        if full != INFINITY && full <= limit {
            *d = full;
        }
    }
    row
}

proptest! {
    // Capped so a full `cargo test -q` stays fast and deterministic;
    // override with PROPTEST_CASES (and PROPTEST_SEED) for deeper runs.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_lanes_match_scalar_bfs(
        (g, sources) in arb_instance(24),
        limit_ix in 0usize..5,
        skip_sel in 0usize..3,
        top_down in any::<bool>(),
    ) {
        let n = g.node_count();
        let limit = [0u32, 1, 2, 3, u32::MAX][limit_ix];
        // No skip, skip a node that is often a source, skip the last
        // node (often not a source).
        let skip = match skip_sel {
            0 => None,
            1 => Some(0),
            _ => Some(n as NodeId - 1),
        };
        let opts = BatchOptions {
            limit,
            skip,
            direction: if top_down { Direction::TopDown } else { Direction::Auto },
            distances: true,
        };
        let mut scratch = BatchScratch::new();
        let mut out = BatchDistances::new();
        batch_bfs_opts(&g, &sources, &opts, &mut scratch, &mut out);
        prop_assert_eq!(out.lanes(), sources.len());
        prop_assert_eq!(out.node_count(), n);

        let mut buf = DistanceBuffer::new();
        let mut ball = Vec::new();
        let mut expect_union = vec![false; n];
        for (lane, &s) in sources.iter().enumerate() {
            let expect = scalar_row(&g, s, limit, skip, &mut buf);
            prop_assert_eq!(out.lane_distances(lane), &expect[..], "lane {} src {}", lane, s);

            // Aggregates derived from the level histogram must agree
            // with the same quantities recomputed from the row.
            let finite: Vec<u32> =
                expect.iter().copied().filter(|&d| d != INFINITY).collect();
            prop_assert_eq!(out.reached(lane), finite.len());
            prop_assert_eq!(out.ecc(lane), finite.iter().max().copied().unwrap_or(0));
            prop_assert_eq!(
                out.status_sum(lane),
                finite.iter().map(|&d| d as u64).sum::<u64>()
            );
            for radius in [0u32, 1, 2, 5, u32::MAX] {
                prop_assert_eq!(
                    out.ball_size(lane, radius),
                    expect.iter().filter(|&&d| d != INFINITY && d <= radius).count(),
                    "lane {} radius {}", lane, radius
                );
            }

            // Per-lane membership and the sorted ball view.
            out.lane_ball_into(lane, &mut ball);
            let expect_ball: Vec<NodeId> = (0..n as NodeId)
                .filter(|&v| expect[v as usize] != INFINITY)
                .collect();
            for &v in &expect_ball {
                prop_assert!(out.lane_visited(lane, v));
                expect_union[v as usize] = true;
            }
            prop_assert_eq!(&ball, &expect_ball, "lane {} ball", lane);
        }

        // The first-visit union covers exactly the lanes' visited sets.
        let mut union: Vec<NodeId> = out.union_visited().to_vec();
        union.sort_unstable();
        let expected: Vec<NodeId> =
            (0..n as NodeId).filter(|&v| expect_union[v as usize]).collect();
        prop_assert_eq!(union, expected);
    }

    #[test]
    fn directions_agree_bitwise(
        (g, sources) in arb_instance(20),
        limit_ix in 0usize..3,
    ) {
        // The direction heuristic may change the traversal order but
        // never the result: TopDown and Auto must emit identical
        // distance rows and identical first-visit unions.
        let limit = [1u32, 3, u32::MAX][limit_ix];
        let mut scratch = BatchScratch::new();
        let mut td = BatchDistances::new();
        let mut auto = BatchDistances::new();
        for (out, direction) in
            [(&mut td, Direction::TopDown), (&mut auto, Direction::Auto)]
        {
            let opts = BatchOptions { limit, skip: None, direction, distances: true };
            batch_bfs_opts(&g, &sources, &opts, &mut scratch, out);
        }
        for lane in 0..sources.len() {
            prop_assert_eq!(td.lane_distances(lane), auto.lane_distances(lane));
        }
        // The union is first-visit ordered, and *within* a level the
        // visit order is traversal-dependent (frontier order top-down,
        // ascending scan bottom-up) — only the set is invariant.
        let mut a: Vec<NodeId> = td.union_visited().to_vec();
        let mut b: Vec<NodeId> = auto.union_visited().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch(
        calls in (
            arb_call(20, 40),
            arb_call(2, 8),
            arb_call(24, 40),
            arb_call(2, 6),
            arb_call(10, 30),
        ),
    ) {
        // One scratch and one result buffer carried through calls whose
        // graph size grows and shrinks and whose lane count moves the
        // mask stride 1 → 1 → 2 → 3 → 1 words: each call must read
        // exactly like a run on fresh buffers, so no bit a previous
        // call set may survive its sparse reset.
        let (c0, c1, c2, c3, c4) = calls;
        let mut scratch = BatchScratch::new();
        let mut reused = BatchDistances::new();
        for ((g, pool, (limit_ix, skip_sel, top_down, distances)), lanes) in
            [c0, c1, c2, c3, c4].into_iter().zip([1usize, 64, 65, 130, 3])
        {
            let n = g.node_count();
            let opts = BatchOptions {
                limit: [0u32, 1, 2, 3, u32::MAX][limit_ix],
                skip: [None, Some(0), Some(n as NodeId - 1)][skip_sel],
                direction: if top_down { Direction::TopDown } else { Direction::Auto },
                distances,
            };
            let sources = &pool[..lanes];
            batch_bfs_opts(&g, sources, &opts, &mut scratch, &mut reused);
            let mut fresh = BatchDistances::new();
            batch_bfs_opts(&g, sources, &opts, &mut BatchScratch::new(), &mut fresh);
            assert_same_run(&reused, &fresh, distances);
        }
    }
}

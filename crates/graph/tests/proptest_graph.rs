//! Property-based tests for the graph substrate.
//!
//! Strategy: generate random edge lists / random graphs and check the
//! structural invariants that the rest of the workspace relies on:
//! BFS against a reference Floyd–Warshall, ball/view consistency,
//! power-graph semantics, and mutation round-trips.

use ncg_graph::bfs::{bfs, bfs_bounded, bfs_multi, bfs_skipping, DistanceBuffer};
use ncg_graph::{generators, metrics, view, Graph, NodeId, INFINITY};
use proptest::prelude::*;

/// Reference all-pairs shortest paths: Floyd–Warshall on a dense
/// matrix. O(n³) — fine for the sizes proptest generates.
#[allow(clippy::needless_range_loop)] // index triples mirror the textbook recurrence
fn floyd_warshall(g: &Graph) -> Vec<Vec<u64>> {
    let n = g.node_count();
    const INF: u64 = u64::MAX / 4;
    let mut d = vec![vec![INF; n]; n];
    for u in 0..n {
        d[u][u] = 0;
    }
    for (u, v) in g.edges() {
        d[u as usize][v as usize] = 1;
        d[v as usize][u as usize] = 1;
    }
    for m in 0..n {
        for u in 0..n {
            for v in 0..n {
                let via = d[u][m] + d[m][v];
                if via < d[u][v] {
                    d[u][v] = via;
                }
            }
        }
    }
    d
}

/// An arbitrary graph on up to `max_n` nodes via a random edge list.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(|n| {
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

proptest! {
    // Capped so a full `cargo test -q` stays fast and deterministic;
    // override with PROPTEST_CASES (and PROPTEST_SEED) for deeper runs.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    #[allow(clippy::needless_range_loop)] // (u, v) indices are compared across two matrices
    fn bfs_matches_floyd_warshall(g in arb_graph(24)) {
        let reference = floyd_warshall(&g);
        let mut buf = DistanceBuffer::new();
        for u in 0..g.node_count() as NodeId {
            bfs(&g, u, &mut buf);
            for v in 0..g.node_count() {
                let expect = reference[u as usize][v];
                let got = buf.dist(v as NodeId);
                if expect >= u64::MAX / 4 {
                    prop_assert_eq!(got, INFINITY);
                } else {
                    prop_assert_eq!(got as u64, expect);
                }
            }
        }
    }

    #[test]
    fn bounded_bfs_is_truncated_full_bfs(g in arb_graph(20), k in 0u32..6) {
        let mut full = DistanceBuffer::new();
        let mut bounded = DistanceBuffer::new();
        for u in 0..g.node_count() as NodeId {
            bfs(&g, u, &mut full);
            bfs_bounded(&g, u, k, &mut bounded);
            for v in 0..g.node_count() as NodeId {
                let f = full.dist(v);
                let b = bounded.dist(v);
                if f <= k {
                    prop_assert_eq!(b, f);
                } else {
                    prop_assert_eq!(b, INFINITY);
                }
            }
        }
    }

    #[test]
    fn skipping_bfs_equals_bfs_on_deleted_graph(
        g in arb_graph(16),
        skip_seed in 0usize..16,
        mask in 0u32..(1 << 16),
    ) {
        // Any source set, on both representations: same distances and
        // the same visit order as a plain BFS on a detached copy.
        let n = g.node_count();
        let skip = (skip_seed % n) as NodeId;
        let sources: Vec<NodeId> =
            (0..n as NodeId).filter(|&v| v != skip && mask >> v & 1 == 1).collect();
        let mut deleted = g.clone();
        deleted.detach_node(skip);
        let mut b = DistanceBuffer::new();
        let db = bfs_multi(&deleted, &sources, &mut b);
        let csr = ncg_graph::CsrGraph::from_graph(&g);
        let (mut a, mut c) = (DistanceBuffer::new(), DistanceBuffer::new());
        let da = bfs_skipping(&g, &sources, skip, &mut a);
        let dc = bfs_skipping(&csr, &sources, skip, &mut c);
        for (d, buf) in [(da, &a), (dc, &c)] {
            prop_assert_eq!(d, db);
            prop_assert_eq!(buf.dist(skip), INFINITY);
            prop_assert_eq!(buf.distances(), b.distances());
            prop_assert_eq!(buf.visited(), b.visited());
        }
    }

    #[test]
    fn multi_source_is_min_over_sources(g in arb_graph(14)) {
        let n = g.node_count() as NodeId;
        let sources: Vec<NodeId> = (0..n).filter(|v| v % 3 == 0).collect();
        let mut multi = DistanceBuffer::new();
        bfs_multi(&g, &sources, &mut multi);
        let mut single = DistanceBuffer::new();
        for v in 0..n {
            let best = sources
                .iter()
                .map(|&s| {
                    bfs(&g, s, &mut single);
                    single.dist(v)
                })
                .min()
                .unwrap_or(INFINITY);
            prop_assert_eq!(multi.dist(v), best);
        }
    }

    #[test]
    fn ball_is_distance_filtered_vertex_set(g in arb_graph(18), k in 0u32..5) {
        let mut buf = DistanceBuffer::new();
        for u in 0..g.node_count() as NodeId {
            bfs(&g, u, &mut buf);
            let expected: Vec<NodeId> = (0..g.node_count() as NodeId)
                .filter(|&v| buf.dist(v) <= k)
                .collect();
            prop_assert_eq!(view::ball(&g, u, k), expected);
        }
    }

    #[test]
    fn induced_subgraph_preserves_internal_adjacency(g in arb_graph(16)) {
        let nodes: Vec<NodeId> =
            (0..g.node_count() as NodeId).filter(|v| v % 2 == 0).collect();
        let sub = view::induced_subgraph(&g, &nodes);
        prop_assert_eq!(sub.graph.node_count(), nodes.len());
        for (i, &gu) in sub.local_to_global.iter().enumerate() {
            let row = sub.graph.neighbors(i as NodeId);
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "row {} not strictly sorted", i);
            for (j, &gv) in sub.local_to_global.iter().enumerate() {
                prop_assert_eq!(row.binary_search(&(j as NodeId)).is_ok(), g.has_edge(gu, gv));
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // (u, v) indices are compared across two matrices
    fn power_edge_iff_distance_at_most_h(g in arb_graph(14), h in 0u32..5) {
        let p = view::power(&g, h);
        let reference = floyd_warshall(&g);
        for u in 0..g.node_count() {
            for v in (u + 1)..g.node_count() {
                let d = reference[u][v];
                let expect = d >= 1 && d <= h as u64;
                prop_assert_eq!(p.has_edge(u as NodeId, v as NodeId), expect,
                    "u={}, v={}, d={}, h={}", u, v, d, h);
            }
        }
    }

    #[test]
    fn add_remove_round_trip(g in arb_graph(20)) {
        let mut h = g.clone();
        let edges: Vec<_> = g.edges().collect();
        for &(u, v) in &edges {
            prop_assert!(h.remove_edge(u, v));
        }
        prop_assert_eq!(h.edge_count(), 0);
        for &(u, v) in &edges {
            prop_assert!(h.add_edge(u, v));
        }
        prop_assert_eq!(&h, &g);
        prop_assert!(h.validate().is_ok());
    }

    #[test]
    fn serde_round_trip(g in arb_graph(16)) {
        let json = serde_json::to_string(&g).unwrap();
        let back: Graph = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn eccentricity_bounds_on_connected_graphs(n in 3usize..40) {
        // Deterministic family: cycles. diameter = floor(n/2), radius same.
        let g = generators::cycle(n);
        let d = metrics::diameter(&g).unwrap();
        let r = metrics::radius(&g).unwrap();
        prop_assert_eq!(d as usize, n / 2);
        prop_assert_eq!(r, d);
        prop_assert!(r <= d && d <= 2 * r);
    }

    #[test]
    fn girth_of_random_graph_matches_bruteforce(g in arb_graph(10)) {
        // Brute force: shortest cycle via BFS from every edge removal.
        let mut best: Option<u32> = None;
        let mut buf = DistanceBuffer::new();
        let edges: Vec<_> = g.edges().collect();
        let mut h = g.clone();
        for &(u, v) in &edges {
            h.remove_edge(u, v);
            let d = ncg_graph::bfs::distance(&h, u, v, &mut buf);
            h.add_edge(u, v);
            if d != INFINITY {
                let cycle = d + 1;
                best = Some(best.map_or(cycle, |b: u32| b.min(cycle)));
            }
        }
        prop_assert_eq!(metrics::girth(&g), best);
    }

    #[test]
    fn random_tree_invariants(n in 1usize..80, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let t = generators::random_tree(n, &mut rng);
        prop_assert_eq!(t.node_count(), n);
        prop_assert_eq!(t.edge_count(), n.saturating_sub(1));
        prop_assert!(metrics::is_connected(&t));
    }
}

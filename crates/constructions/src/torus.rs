//! The stretched toroidal grid of Section 3.1 (Figures 1 and 2).
//!
//! The construction is parameterised by a dimension `d ≥ 2`,
//! per-dimension sizes `δ₁, …, δ_d ≥ 2` and a stretch `ℓ ≥ 1`:
//!
//! * **Intersection vertices** are the tuples `(ℓa₁, …, ℓa_d)` with
//!   all `aᵢ` of equal parity, `0 ≤ aᵢ < 2δᵢ`; the `i`-th coordinate
//!   lives modulo `2δᵢℓ`. There are `N = 2·∏δᵢ` of them.
//! * Each intersection vertex is joined to the `2^d` vertices
//!   `(x₁±ℓ, …, x_d±ℓ)` by a fresh path of length `ℓ`, whose `ℓ−1`
//!   interior **non-intersection vertices** are labelled by stepping
//!   every coordinate by `±1` along the path. Total
//!   `n = N·(1 + 2^{d−1}(ℓ−1))`.
//! * **Ownership**: walking a path `x = x₀, x₁, …, x_ℓ = y`, vertex
//!   `xᵢ` buys the edge to `xᵢ₋₁` (for `1 ≤ i ≤ ℓ−1`) and `x_{ℓ−1}`
//!   additionally buys the edge to `y`; intersection vertices buy
//!   nothing. (For `ℓ = 1` there are no interior vertices; we let the
//!   canonical endpoint buy the edge — a documented deviation, as the
//!   paper only instantiates `ℓ ≥ 2`.)
//!
//! Lemma 3.3 gives the coordinate distance bound
//! `d(x,y) ≥ maxᵢ min(|xᵢ−yᵢ|, 2δᵢℓ−|xᵢ−yᵢ|)`, hence Corollary 3.4:
//! the diameter is at least `ℓ·δ_d`. For the right `(α, k)` the graph
//! is an LKE (Theorem 3.12 for MaxNCG, Lemma 4.1/Theorem 4.2 for
//! SumNCG) with diameter `Ω(n / stuff)` — the strongest lower bounds
//! of the paper. [`TorusGrid::certify`] checks the LKE property
//! directly with the exact solver.

use std::collections::HashMap;

use ncg_core::{GameSpec, GameState};
use ncg_graph::{Graph, GraphError, NodeId};
use ncg_solver::is_lke;

/// A built torus/grid instance: graph, ownership and coordinates.
#[derive(Debug, Clone)]
pub struct TorusGrid {
    /// Dimension `d ≥ 2`.
    pub d: usize,
    /// Sizes `δ₁ … δ_d`.
    pub deltas: Vec<u32>,
    /// Stretch `ℓ ≥ 1` (paths replacing edges have this length).
    pub ell: u32,
    /// Coordinates of every vertex (`coords[id][i] < 2·δᵢ·ℓ`).
    pub coords: Vec<Vec<u32>>,
    /// Number of intersection vertices (`ids 0..intersections`).
    pub intersections: usize,
    /// The game profile with the Section 3.1 ownership.
    state: GameState,
    /// Coordinate → vertex id.
    index: HashMap<Vec<u32>, NodeId>,
}

impl TorusGrid {
    /// Builds the closed (toroidal) construction.
    ///
    /// # Errors
    /// `InvalidParameter` if `d < 2`, any `δᵢ < 2`, `ℓ < 1`, or the
    /// parameters make interior path labels collide (cannot happen for
    /// `δᵢ ≥ 2` — asserted defensively).
    pub fn closed(deltas: &[u32], ell: u32) -> Result<Self, GraphError> {
        let d = deltas.len();
        if d < 2 {
            return Err(GraphError::InvalidParameter(format!(
                "torus dimension d = {d} must be ≥ 2"
            )));
        }
        if ell < 1 {
            return Err(GraphError::InvalidParameter("stretch ℓ must be ≥ 1".into()));
        }
        if deltas.iter().any(|&x| x < 2) {
            return Err(GraphError::InvalidParameter(format!(
                "every δᵢ must be ≥ 2, got {deltas:?}"
            )));
        }
        let modulus: Vec<u64> = deltas.iter().map(|&dl| 2 * dl as u64 * ell as u64).collect();
        // Enumerate intersection vertices: tuples a with equal parity.
        let mut coords: Vec<Vec<u32>> = Vec::new();
        let mut index: HashMap<Vec<u32>, NodeId> = HashMap::new();
        for parity in 0..2u32 {
            let mut a: Vec<u32> = vec![parity; d];
            loop {
                let coord: Vec<u32> = a.iter().map(|&ai| ai * ell).collect();
                index.insert(coord.clone(), coords.len() as NodeId);
                coords.push(coord);
                // Odometer over aᵢ ∈ {parity, parity+2, …, parity+2(δᵢ−1)}.
                let mut i = 0;
                loop {
                    if i == d {
                        break;
                    }
                    a[i] += 2;
                    if a[i] < 2 * deltas[i] {
                        break;
                    }
                    a[i] = parity;
                    i += 1;
                }
                if i == d {
                    break;
                }
            }
        }
        let n_inter = coords.len();
        debug_assert_eq!(n_inter as u64, 2 * deltas.iter().map(|&x| x as u64).product::<u64>());
        let paths_per_vertex = 1usize << (d - 1); // canonical: s_d = +1
        let total_paths = n_inter * paths_per_vertex;
        let n_total = n_inter + total_paths * (ell as usize - 1);
        let mut graph = Graph::new(n_total);
        let mut strategies: Vec<Vec<NodeId>> = vec![Vec::new(); n_total];
        // Walk every canonical path.
        let step = |c: &[u32], s: &[i64], t: i64| -> Vec<u32> {
            c.iter()
                .enumerate()
                .map(|(i, &ci)| {
                    let m = modulus[i] as i64;
                    (((ci as i64 + t * s[i]) % m + m) % m) as u32
                })
                .collect()
        };
        for x_id in 0..n_inter as NodeId {
            let x_coord = coords[x_id as usize].clone();
            for sign_mask in 0..paths_per_vertex {
                // signs for dims 0..d−1 from the mask; dim d−1 fixed +1.
                let s: Vec<i64> = (0..d)
                    .map(|i| if i == d - 1 || sign_mask >> i & 1 == 1 { 1 } else { -1 })
                    .collect();
                let mut prev = x_id;
                for t in 1..=ell as i64 {
                    let c = step(&x_coord, &s, t);
                    let id = if t == ell as i64 {
                        *index.get(&c).ok_or_else(|| {
                            GraphError::InvalidParameter(format!(
                                "path endpoint {c:?} is not an intersection vertex"
                            ))
                        })?
                    } else {
                        match index.get(&c) {
                            Some(_) => {
                                return Err(GraphError::InvalidParameter(format!(
                                    "interior label collision at {c:?}"
                                )))
                            }
                            None => {
                                let id = coords.len() as NodeId;
                                index.insert(c.clone(), id);
                                coords.push(c.clone());
                                id
                            }
                        }
                    };
                    graph.add_edge(prev, id);
                    // Ownership: interior vertices buy backwards; the
                    // last interior vertex also buys the final edge.
                    if t < ell as i64 {
                        strategies[id as usize].push(prev);
                    } else if ell == 1 {
                        // No interior vertices: canonical start buys.
                        strategies[x_id as usize].push(id);
                    } else {
                        strategies[prev as usize].push(id);
                    }
                    prev = id;
                }
            }
        }
        debug_assert_eq!(coords.len(), n_total);
        debug_assert_eq!(graph.edge_count(), total_paths * ell as usize);
        let state = {
            // from_strategies re-sorts and validates against the graph.
            let st = GameState::from_strategies(n_total, strategies);
            debug_assert_eq!(st.graph(), &graph, "ownership must cover exactly the built edges");
            st
        };
        Ok(TorusGrid {
            d,
            deltas: deltas.to_vec(),
            ell,
            coords,
            intersections: n_inter,
            state,
            index,
        })
    }

    /// The Theorem 3.12 instantiation for MaxNCG: `ℓ = ⌈α⌉`,
    /// `d = max(2, ⌈log₂(k/ℓ + 2)⌉)`, `δ₁ = … = δ_{d−1} = ⌈k/ℓ⌉ + 1`
    /// and `δ_d = max(δ₁, delta_last)` (the free parameter that drives
    /// the diameter, hence `n`).
    ///
    /// # Errors
    /// `InvalidParameter` unless `1 < α ≤ k`.
    pub fn for_theorem_312(alpha: f64, k: u32, delta_last: u32) -> Result<Self, GraphError> {
        if !(alpha > 1.0 && alpha <= k as f64) {
            return Err(GraphError::InvalidParameter(format!(
                "Theorem 3.12 needs 1 < α ≤ k, got α={alpha}, k={k}"
            )));
        }
        let ell = alpha.ceil() as u32;
        let d = ((k as f64 / ell as f64 + 2.0).log2().ceil() as usize).max(2);
        let base = k.div_ceil(ell) + 1;
        let mut deltas = vec![base; d];
        deltas[d - 1] = delta_last.max(base);
        Self::closed(&deltas, ell)
    }

    /// The Lemma 4.1 / Theorem 4.2 instantiation for SumNCG: `d = 2`,
    /// `ℓ = 2`, `δ₁ = ⌈k/2⌉ + 1`, `δ₂ = max(δ₁, delta2)`.
    pub fn for_theorem_42(k: u32, delta2: u32) -> Result<Self, GraphError> {
        let d1 = k.div_ceil(2) + 1;
        Self::closed(&[d1, d1.max(delta2)], 2)
    }

    /// The "open" variant of the construction (used by the paper's
    /// proofs, Lemma 3.5): coordinates are *not* taken modularly —
    /// intersection vertices are `(ℓa₁, …, ℓa_d)` with `1 ≤ aᵢ ≤ δᵢ`
    /// and equal parities, and paths only join intersection vertices
    /// whose every coordinate differs by exactly `ℓ` (no wrap-around).
    /// Every player's view in the closed graph is isomorphic to a
    /// subgraph of a large enough open graph.
    ///
    /// Ownership follows the same rule as the closed variant.
    ///
    /// # Errors
    /// Same parameter constraints as [`TorusGrid::closed`].
    pub fn open(deltas: &[u32], ell: u32) -> Result<Self, GraphError> {
        let d = deltas.len();
        if d < 2 {
            return Err(GraphError::InvalidParameter(format!(
                "grid dimension d = {d} must be ≥ 2"
            )));
        }
        if ell < 1 {
            return Err(GraphError::InvalidParameter("stretch ℓ must be ≥ 1".into()));
        }
        if deltas.iter().any(|&x| x < 2) {
            return Err(GraphError::InvalidParameter(format!(
                "every δᵢ must be ≥ 2, got {deltas:?}"
            )));
        }
        // Enumerate intersection vertices with equal-parity aᵢ ∈ [1, δᵢ].
        let mut coords: Vec<Vec<u32>> = Vec::new();
        let mut index: HashMap<Vec<u32>, NodeId> = HashMap::new();
        for parity in 1..=2u32 {
            let mut a: Vec<u32> = vec![parity; d];
            if deltas.iter().any(|&dl| parity > dl) {
                continue;
            }
            loop {
                let coord: Vec<u32> = a.iter().map(|&ai| ai * ell).collect();
                index.insert(coord.clone(), coords.len() as NodeId);
                coords.push(coord);
                let mut i = 0;
                loop {
                    if i == d {
                        break;
                    }
                    a[i] += 2;
                    if a[i] <= deltas[i] {
                        break;
                    }
                    a[i] = parity;
                    i += 1;
                }
                if i == d {
                    break;
                }
            }
        }
        let n_inter = coords.len();
        // Connect pairs differing by exactly ℓ in every coordinate via
        // fresh paths. Canonical direction: positive last coordinate.
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut owners: Vec<NodeId> = Vec::new();
        for x_id in 0..n_inter as NodeId {
            let x = coords[x_id as usize].clone();
            for sign_mask in 0..(1usize << (d - 1)) {
                let s: Vec<i64> = (0..d)
                    .map(|i| if i == d - 1 || sign_mask >> i & 1 == 1 { 1i64 } else { -1i64 })
                    .collect();
                // Endpoint must exist (no wrap): compute and look up.
                let endpoint: Option<Vec<u32>> = x
                    .iter()
                    .zip(&s)
                    .map(|(&ci, &si)| {
                        let v = ci as i64 + si * ell as i64;
                        if v >= 0 {
                            Some(v as u32)
                        } else {
                            None
                        }
                    })
                    .collect();
                let Some(endpoint) = endpoint else { continue };
                if !index.contains_key(&endpoint) {
                    continue;
                }
                let y_id = index[&endpoint];
                let mut prev = x_id;
                for t in 1..=ell as i64 {
                    let id = if t == ell as i64 {
                        y_id
                    } else {
                        let c: Vec<u32> = x
                            .iter()
                            .zip(&s)
                            .map(|(&ci, &si)| (ci as i64 + t * si) as u32)
                            .collect();
                        *index.entry(c.clone()).or_insert_with(|| {
                            coords.push(c.clone());
                            (coords.len() - 1) as NodeId
                        })
                    };
                    edges.push((prev, id));
                    owners.push(if t < ell as i64 {
                        id
                    } else if ell == 1 {
                        x_id
                    } else {
                        prev
                    });
                    prev = id;
                }
            }
        }
        let n_total = coords.len();
        let mut graph = Graph::new(n_total);
        let mut strategies: Vec<Vec<NodeId>> = vec![Vec::new(); n_total];
        for (&(a, b), &w) in edges.iter().zip(&owners) {
            graph.add_edge(a, b);
            let other = if w == a { b } else { a };
            strategies[w as usize].push(other);
        }
        let state = GameState::from_strategies(n_total, strategies);
        debug_assert_eq!(state.graph(), &graph);
        Ok(TorusGrid {
            d,
            deltas: deltas.to_vec(),
            ell,
            coords,
            intersections: n_inter,
            state,
            index,
        })
    }

    /// The Lemma 3.5 coordinate bound for the *open* variant:
    /// `d(x, y) ≥ maxᵢ |xᵢ − yᵢ|` (no modular wrap).
    pub fn open_distance_lb(&self, x: NodeId, y: NodeId) -> u32 {
        let cx = &self.coords[x as usize];
        let cy = &self.coords[y as usize];
        (0..self.d).map(|i| cx[i].abs_diff(cy[i])).max().unwrap_or(0)
    }

    /// The game profile.
    pub fn state(&self) -> &GameState {
        &self.state
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.coords.len()
    }

    /// Whether vertex `id` is an intersection vertex.
    pub fn is_intersection(&self, id: NodeId) -> bool {
        (id as usize) < self.intersections
    }

    /// Vertex id at the given coordinates, if any.
    pub fn vertex_at(&self, coord: &[u32]) -> Option<NodeId> {
        self.index.get(coord).copied()
    }

    /// The Lemma 3.3 coordinate lower bound on `d(x, y)`:
    /// `maxᵢ min(|xᵢ−yᵢ|, 2δᵢℓ − |xᵢ−yᵢ|)`.
    pub fn coordinate_distance_lb(&self, x: NodeId, y: NodeId) -> u32 {
        let cx = &self.coords[x as usize];
        let cy = &self.coords[y as usize];
        (0..self.d)
            .map(|i| {
                let m = 2 * self.deltas[i] * self.ell;
                let diff = cx[i].abs_diff(cy[i]);
                diff.min(m - diff)
            })
            .max()
            .unwrap_or(0)
    }

    /// The set `F_h(v)` of the paper: vertices reachable by moving
    /// every coordinate by `±h` (existing ones only; for intersection
    /// vertices and `h ≤ k` the paper shows `|F_h| = 2^d`).
    pub fn f_h(&self, v: NodeId, h: u32) -> Vec<NodeId> {
        let c = &self.coords[v as usize];
        let mut out = Vec::new();
        for mask in 0..(1u32 << self.d) {
            let coord: Vec<u32> = (0..self.d)
                .map(|i| {
                    let m = 2 * self.deltas[i] as i64 * self.ell as i64;
                    let s: i64 = if mask >> i & 1 == 1 { 1 } else { -1 };
                    (((c[i] as i64 + s * h as i64) % m + m) % m) as u32
                })
                .collect();
            if let Some(id) = self.vertex_at(&coord) {
                out.push(id);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Certifies the LKE property with the exact solver (`n` best
    /// responses, fanned out over the work-stealing pool with
    /// per-worker solver scratch). Exact for both objectives.
    pub fn certify(&self, spec: &GameSpec) -> bool {
        is_lke(&self.state, spec)
    }

    /// Corollary 3.4: the diameter lower bound `ℓ·δ_d`.
    pub fn diameter_lower_bound(&self) -> u32 {
        self.ell * self.deltas[self.d - 1]
    }

    /// The PoA this instance witnesses under `spec`.
    pub fn witnessed_poa(&self, spec: &GameSpec) -> Option<f64> {
        let sc = ncg_core::social::social_cost(&self.state, spec)?;
        Some(sc / ncg_core::social::optimum_cost(self.n(), spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncg_graph::metrics;

    #[test]
    #[allow(clippy::identity_op)] // the factors spell out N(1 + 2^{d−1}(ℓ−1))
    fn figure2_shape() {
        // Figure 2: d = 2, δ = (3, 4), ℓ = 2.
        let t = TorusGrid::closed(&[3, 4], 2).unwrap();
        assert_eq!(t.intersections, 2 * 3 * 4);
        assert_eq!(t.n(), 24 * (1 + 2 * 1));
        assert_eq!(t.state().graph().edge_count(), 24 * 2 * 2);
        assert!(t.state().validate().is_ok());
        assert!(metrics::is_connected(t.state().graph()));
    }

    #[test]
    fn intersection_vertices_buy_nothing_and_interiors_buy_at_most_two() {
        let t = TorusGrid::closed(&[3, 4], 2).unwrap();
        for id in 0..t.n() as NodeId {
            if t.is_intersection(id) {
                assert_eq!(t.state().bought(id), 0, "intersection {id} bought an edge");
            } else {
                let b = t.state().bought(id);
                assert!((1..=2).contains(&b), "interior {id} bought {b}");
            }
        }
        // Interior vertices have degree exactly 2; intersections 2^d.
        for id in 0..t.n() as NodeId {
            let deg = t.state().graph().degree(id);
            if t.is_intersection(id) {
                assert_eq!(deg, 4);
            } else {
                assert_eq!(deg, 2);
            }
        }
    }

    #[test]
    fn lemma_3_3_distance_bound_holds() {
        let t = TorusGrid::closed(&[2, 3], 2).unwrap();
        let dm = metrics::distance_matrix(t.state().graph());
        for x in 0..t.n() as NodeId {
            for y in 0..t.n() as NodeId {
                let lb = t.coordinate_distance_lb(x, y);
                let real = dm[x as usize][y as usize];
                assert!(real >= lb, "d({x},{y}) = {real} below coordinate bound {lb}");
                // Note: the paper also claims strictness when an
                // endpoint is an intersection vertex, but that fails
                // already for adjacent diagonal pairs (e.g. (0,0) and
                // (1,1) at distance 1 = bound). The equilibrium
                // arguments (Lemmas 3.7–3.11) only use the non-strict
                // bound, which is what we verify exhaustively here.
            }
        }
    }

    #[test]
    fn corollary_3_4_diameter() {
        let t = TorusGrid::closed(&[2, 5], 2).unwrap();
        let diam = metrics::diameter(t.state().graph()).unwrap();
        assert!(diam >= t.diameter_lower_bound(), "{diam} < {}", t.diameter_lower_bound());
    }

    #[test]
    fn f_h_of_intersection_vertex_has_2_to_d_members() {
        let t = TorusGrid::closed(&[3, 4], 2).unwrap();
        // k* corner: any intersection vertex works by vertex-transitivity.
        let v = 0;
        for h in [1u32, 2] {
            let fh = t.f_h(v, h);
            assert_eq!(fh.len(), 4, "h = {h}: {fh:?}");
        }
    }

    #[test]
    fn theorem_312_instance_is_max_lke() {
        // α = 2, k = 2 ⇒ ℓ = 2, d = 2, δ₁ = 2.
        let t = TorusGrid::for_theorem_312(2.0, 2, 3).unwrap();
        assert_eq!(t.ell, 2);
        assert_eq!(t.d, 2);
        assert_eq!(t.deltas, vec![2, 3]);
        assert!(t.certify(&GameSpec::max(2.0, 2)), "Theorem 3.12 instance must be a MaxNCG LKE");
    }

    #[test]
    fn theorem_312_rejects_bad_parameters() {
        assert!(TorusGrid::for_theorem_312(0.5, 3, 3).is_err());
        assert!(TorusGrid::for_theorem_312(5.0, 3, 3).is_err());
    }

    #[test]
    fn theorem_42_instance_is_sum_lke() {
        // k = 2, α ≥ 4k³ = 32.
        let t = TorusGrid::for_theorem_42(2, 3).unwrap();
        assert!(
            t.certify(&GameSpec::sum(40.0, 2)),
            "Theorem 4.2 instance must be a SumNCG LKE at α ≥ 4k³"
        );
    }

    #[test]
    fn closed_rejects_degenerate_parameters() {
        assert!(TorusGrid::closed(&[3], 2).is_err(), "d < 2");
        assert!(TorusGrid::closed(&[1, 3], 2).is_err(), "δ < 2");
        assert!(TorusGrid::closed(&[3, 3], 0).is_err(), "ℓ < 1");
    }

    #[test]
    fn stretch_one_works_with_documented_ownership() {
        let t = TorusGrid::closed(&[2, 2], 1).unwrap();
        assert_eq!(t.n(), t.intersections);
        assert!(t.state().validate().is_ok());
        assert!(metrics::is_connected(t.state().graph()));
    }

    #[test]
    fn poa_witness_grows_with_delta_last() {
        let spec = GameSpec::max(2.0, 2);
        let small = TorusGrid::for_theorem_312(2.0, 2, 3).unwrap();
        let large = TorusGrid::for_theorem_312(2.0, 2, 9).unwrap();
        let p_small = small.witnessed_poa(&spec).unwrap();
        let p_large = large.witnessed_poa(&spec).unwrap();
        assert!(
            p_large > p_small,
            "longer last dimension ⇒ bigger diameter ⇒ worse PoA: {p_large} vs {p_small}"
        );
    }

    #[test]
    fn open_grid_has_no_wraparound() {
        let t = TorusGrid::open(&[4, 4], 2).unwrap();
        assert!(t.state().validate().is_ok());
        // Lemma 3.5: d(x, y) ≥ maxᵢ |xᵢ − yᵢ| for every pair.
        let dm = metrics::distance_matrix(t.state().graph());
        for x in 0..t.n() as NodeId {
            for y in 0..t.n() as NodeId {
                if dm[x as usize][y as usize] != ncg_graph::INFINITY {
                    assert!(
                        dm[x as usize][y as usize] >= t.open_distance_lb(x, y),
                        "open bound violated at ({x},{y})"
                    );
                }
            }
        }
    }

    #[test]
    fn open_grid_is_smaller_than_closed() {
        // The open grid drops the wrap-around paths, so with the same
        // parameters it has strictly fewer vertices and edges than the
        // closed torus.
        let open = TorusGrid::open(&[4, 4], 2).unwrap();
        let closed = TorusGrid::closed(&[4, 4], 2).unwrap();
        assert!(open.n() < closed.n());
        assert!(open.state().graph().edge_count() < closed.state().graph().edge_count());
    }

    #[test]
    fn open_grid_corner_has_low_degree() {
        // Corners of the open grid have a single incident path
        // (degree 1 at stretch interior ends ≥ 1), in contrast to the
        // vertex-transitive closed torus where intersections all have
        // degree 2^d.
        let t = TorusGrid::open(&[4, 4], 2).unwrap();
        let min_deg = (0..t.n() as NodeId)
            .filter(|&v| t.is_intersection(v))
            .map(|v| t.state().graph().degree(v))
            .min()
            .unwrap();
        let max_deg = (0..t.n() as NodeId)
            .filter(|&v| t.is_intersection(v))
            .map(|v| t.state().graph().degree(v))
            .max()
            .unwrap();
        assert!(min_deg < max_deg, "open grids are not vertex-transitive");
        assert!(max_deg <= 4);
    }

    #[test]
    fn three_dimensional_torus_builds() {
        let t = TorusGrid::closed(&[2, 2, 3], 2).unwrap();
        assert_eq!(t.intersections, 2 * 2 * 2 * 3);
        assert_eq!(t.n(), 24 * (1 + 4));
        for id in 0..t.intersections as NodeId {
            assert_eq!(t.state().graph().degree(id), 8, "2^d edges per intersection");
        }
        assert!(metrics::is_connected(t.state().graph()));
        assert!(t.state().validate().is_ok());
    }
}

//! Pinned witnesses: every player's exact best response on one
//! instance of each dynamics class — the Max classes and the SumNCG
//! tree class — hashed with FNV-1a over (instance, player, strategy,
//! cost bits) and compared with the digest committed below.
//!
//! The witness — which optimal strategy the branch-and-bound returns,
//! not only its cost — decides the move, so it is part of the output
//! contract (DESIGN.md §4.1). A change to the engine's internal state
//! must leave every digest alone; the full-knowledge views are also
//! solved through the parallel frontier, which must return the same
//! witnesses. A deliberate tie-break change re-pins: copy the digest
//! the failure message prints and record the reason in the change log.

use ncg_core::equilibrium::Deviation;
use ncg_core::{GameSpec, GameState, PlayerView};
use ncg_graph::NodeId;
use ncg_solver::max_br::max_best_response_with;
use ncg_solver::sum_br::sum_best_response_with;
use ncg_solver::{Mode, ParallelPolicy, SolverScratch};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// FNV-1a, 64-bit, fed little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// An exact best-response entry point: the Max or the Sum responder.
type Respond = fn(&GameSpec, &PlayerView, Mode, &mut SolverScratch) -> Deviation;

/// Hashes every player's exact best response on `state` under `spec`,
/// computed by `respond`; `instance` tags the input.
fn witness_digest(
    instance: u64,
    state: &GameState,
    spec: GameSpec,
    respond: Respond,
    scratch: &mut SolverScratch,
) -> u64 {
    let mut h = Fnv::new();
    for u in 0..state.n() as NodeId {
        let view = PlayerView::build(state, u, spec.k);
        let d = respond(&spec, &view, Mode::Exact, scratch);
        h.word(instance);
        h.word(u as u64);
        h.word(d.strategy_local.len() as u64);
        for &s in &d.strategy_local {
            h.word(s as u64);
        }
        h.word(d.total_cost.to_bits());
    }
    h.0
}

fn assert_pins(class: &str, actual: &[(f64, u64)], pins: &[(f64, u64)]) {
    let listing: String =
        actual.iter().map(|(a, d)| format!("    ({a:?}, 0x{d:016x}),\n")).collect();
    assert_eq!(
        actual, pins,
        "{class} witnesses no longer match their pins; if the change is intended, \
         re-pin with:\n{listing}"
    );
}

/// Random 200-node trees at radius 2: the local views of the
/// `tree_local` benchmark class, a few nodes each.
#[test]
fn tree200_k2_witnesses_are_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7472_6565);
    let tree = ncg_graph::generators::random_tree(200, &mut rng);
    let state = GameState::from_graph_random_ownership(&tree, &mut rng);
    let mut scratch = SolverScratch::new();
    let actual: Vec<(f64, u64)> = [0.2, 0.5]
        .into_iter()
        .map(|alpha| {
            let spec = GameSpec::max(alpha, 2);
            (alpha, witness_digest(1, &state, spec, max_best_response_with, &mut scratch))
        })
        .collect();
    assert_pins(
        "tree200, k = 2",
        &actual,
        &[(0.2, 0x29ba_9a19_6e87_3b24), (0.5, 0x283d_e3ba_04ac_047e)],
    );
}

/// A connected G(70, 0.15) under full knowledge: the whole-graph views
/// of the `er_full` benchmark class, solved sequentially and through
/// the parallel frontier of a two-thread pool.
#[test]
fn er70_full_witnesses_are_pinned_sequential_and_parallel() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x6572);
    let g = ncg_graph::generators::gnp_connected(70, 0.15, 10_000, &mut rng).unwrap();
    let state = GameState::from_graph_random_ownership(&g, &mut rng);
    let mut seq = SolverScratch::new();
    seq.parallel = ParallelPolicy::sequential();
    let mut par = SolverScratch::new();
    par.parallel = ParallelPolicy { min_ground: 0, per_worker: 2 };
    let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    let mut sequential = Vec::new();
    let mut parallel = Vec::new();
    for alpha in [0.3, 2.0] {
        let spec = GameSpec::max(alpha, 1000);
        let respond = max_best_response_with;
        sequential.push((alpha, witness_digest(2, &state, spec, respond, &mut seq)));
        parallel.push((alpha, pool.install(|| witness_digest(2, &state, spec, respond, &mut par))));
    }
    assert_eq!(sequential, parallel, "the parallel frontier must return the sequential witnesses");
    assert_pins(
        "G(70, 0.15), k = 1000",
        &sequential,
        &[(0.3, 0xf043_d2d9_5ec4_458a), (2.0, 0x6c7e_e5e3_f001_2b5c)],
    );
}

/// A random 30-node tree under SumNCG: the `sum_tree` benchmark class,
/// across the α ≈ 1 tie plateau, at radius 2 and under full knowledge.
/// The full-knowledge views are solved again through the parallel
/// frontier of a two-thread pool, so the layer cuts meet both the
/// sequential recursion and the frontier expansion.
#[test]
fn tree30_sum_witnesses_are_pinned_sequential_and_parallel() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x73_756d);
    let tree = ncg_graph::generators::random_tree(30, &mut rng);
    let state = GameState::from_graph_random_ownership(&tree, &mut rng);
    let mut seq = SolverScratch::new();
    seq.parallel = ParallelPolicy::sequential();
    let mut par = SolverScratch::new();
    par.parallel = ParallelPolicy { min_ground: 0, per_worker: 2 };
    let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    let respond = sum_best_response_with;
    let mut local = Vec::new();
    let mut full = Vec::new();
    let mut parallel = Vec::new();
    for alpha in [0.5, 1.0, 2.0] {
        local.push((alpha, witness_digest(3, &state, GameSpec::sum(alpha, 2), respond, &mut seq)));
        let spec = GameSpec::sum(alpha, 1000);
        full.push((alpha, witness_digest(4, &state, spec, respond, &mut seq)));
        parallel.push((alpha, pool.install(|| witness_digest(4, &state, spec, respond, &mut par))));
    }
    assert_eq!(full, parallel, "the parallel frontier must return the sequential witnesses");
    assert_pins(
        "sum tree30, k = 2",
        &local,
        &[(0.5, 0xbf09_ae6d_3a3b_f3b3), (1.0, 0xd6c4_d32d_454b_a889), (2.0, 0x2ee9_b61b_5764_3dcb)],
    );
    assert_pins(
        "sum tree30, k = 1000",
        &full,
        &[(0.5, 0x34b8_53db_4a3f_746d), (1.0, 0x40d0_15bd_3bc6_1d53), (2.0, 0x96ec_ed25_e6e6_aa83)],
    );
}

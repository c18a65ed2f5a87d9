//! Pinned witnesses: every player's exact best response on one
//! instance of each dynamics class — the Max classes and the SumNCG
//! tree class — hashed with FNV-1a over (instance, player, strategy,
//! cost bits) and compared with the digest committed below. The greedy
//! climb is pinned the same way, through the front's two paths to it:
//! [`Mode::Greedy`] and per-target pricing past the enumeration cap.
//!
//! The witness — which optimal strategy the branch-and-bound returns,
//! not only its cost — decides the move, so it is part of the output
//! contract (DESIGN.md §4.1). A change to the engine's internal state
//! must leave every digest alone. A deliberate tie-break change
//! re-pins: copy the digest the failure message prints and record the
//! reason in the change log.

use ncg_core::equilibrium::{Deviation, EXHAUSTIVE_CAP};
use ncg_core::{GameSpec, GameState, Objective, PlayerView, Scenario};
use ncg_graph::NodeId;
use ncg_solver::front::best_response_with;
use ncg_solver::max_br::max_best_response_with;
use ncg_solver::sum_br::sum_best_response_with;
use ncg_solver::{Mode, SolverScratch};
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

/// A best-response entry point: the Max or the Sum responder, or the
/// front that dispatches every scenario.
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
    mode_digest(instance, state, spec, respond, Mode::Exact, scratch)
}

/// [`witness_digest`] in the given search mode.
fn mode_digest(
    instance: u64,
    state: &GameState,
    spec: GameSpec,
    respond: Respond,
    mode: Mode,
    scratch: &mut SolverScratch,
) -> u64 {
    let mut h = Fnv::new();
    for u in 0..state.n() as NodeId {
        let view = PlayerView::build(state, u, spec.k);
        let d = respond(&spec, &view, mode, scratch);
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

fn assert_pins<T: PartialEq + std::fmt::Debug>(
    class: &str,
    actual: &[(T, u64)],
    pins: &[(T, u64)],
) {
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
/// of the `er_full` benchmark class.
#[test]
fn er70_full_witnesses_are_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x6572);
    let g = ncg_graph::generators::gnp_connected(70, 0.15, 10_000, &mut rng).unwrap();
    let state = GameState::from_graph_random_ownership(&g, &mut rng);
    let mut scratch = SolverScratch::new();
    let actual: Vec<(f64, u64)> = [0.3, 2.0]
        .into_iter()
        .map(|alpha| {
            let spec = GameSpec::max(alpha, 1000);
            (alpha, witness_digest(2, &state, spec, max_best_response_with, &mut scratch))
        })
        .collect();
    assert_pins(
        "G(70, 0.15), k = 1000",
        &actual,
        &[(0.3, 0xf043_d2d9_5ec4_458a), (2.0, 0x6c7e_e5e3_f001_2b5c)],
    );
}

/// A random 30-node tree under SumNCG: the `sum_tree` benchmark class,
/// across the α ≈ 1 tie plateau, at radius 2 and under full knowledge.
#[test]
fn tree30_sum_witnesses_are_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x73_756d);
    let tree = ncg_graph::generators::random_tree(30, &mut rng);
    let state = GameState::from_graph_random_ownership(&tree, &mut rng);
    let mut scratch = SolverScratch::new();
    let respond = sum_best_response_with;
    let mut local = Vec::new();
    let mut full = Vec::new();
    for alpha in [0.5, 1.0, 2.0] {
        let spec = GameSpec::sum(alpha, 2);
        local.push((alpha, witness_digest(3, &state, spec, respond, &mut scratch)));
        let spec = GameSpec::sum(alpha, 1000);
        full.push((alpha, witness_digest(4, &state, spec, respond, &mut scratch)));
    }
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

/// A random tree and a connected sparse G(n, p), both with coin-toss
/// ownership.
fn greedy_instances(n: usize) -> [GameState; 2] {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0063_6c69_6d62);
    let tree = ncg_graph::generators::random_tree(n, &mut rng);
    let tree = GameState::from_graph_random_ownership(&tree, &mut rng);
    let g = ncg_graph::generators::gnp_connected(n, 3.0 / n as f64, 10_000, &mut rng).unwrap();
    [tree, GameState::from_graph_random_ownership(&g, &mut rng)]
}

/// The greedy climb behind [`Mode::Greedy`]: uniform Sum (the Sum
/// engine's greedy arm) and per-target Max and Sum (the front's
/// non-uniform arm), on a random tree and a sparse G(n, p), at radius
/// 2 and under full knowledge.
#[test]
fn greedy_witnesses_are_pinned() {
    let mut scratch = SolverScratch::new();
    let scenarios = [
        ("uniform Sum", Scenario::from(Objective::Sum), 0.5),
        ("per-target Max", Scenario::non_uniform(Objective::Max, 0xA5), 0.3),
        ("per-target Sum", Scenario::non_uniform(Objective::Sum, 0xBEE), 1.0),
    ];
    let mut actual = Vec::new();
    for (graph, state) in ["tree", "G(n, p)"].into_iter().zip(greedy_instances(24)) {
        for k in [2, 1000] {
            for (name, scenario, alpha) in scenarios {
                let spec = scenario.spec(alpha, k);
                let respond = best_response_with;
                let d = mode_digest(5, &state, spec, respond, Mode::Greedy, &mut scratch);
                actual.push(((graph, name, k), d));
            }
        }
    }
    let pins = [
        (("tree", "uniform Sum", 2), 0xc31c_6b04_467d_dae8),
        (("tree", "per-target Max", 2), 0xada4_93f4_a909_4f63),
        (("tree", "per-target Sum", 2), 0xfd6b_a32c_56bc_5d90),
        (("tree", "uniform Sum", 1000), 0x7857_9c95_de5e_2411),
        (("tree", "per-target Max", 1000), 0x8e84_bbe6_90d6_31e4),
        (("tree", "per-target Sum", 1000), 0x30f4_83d7_f843_aee2),
        (("G(n, p)", "uniform Sum", 2), 0x2af6_5441_9e75_8424),
        (("G(n, p)", "per-target Max", 2), 0x6c67_d415_1a78_96cb),
        (("G(n, p)", "per-target Sum", 2), 0x28a2_de80_738d_3a6b),
        (("G(n, p)", "uniform Sum", 1000), 0xce3c_39dd_527e_0863),
        (("G(n, p)", "per-target Max", 1000), 0x203d_112b_7cd1_8181),
        (("G(n, p)", "per-target Sum", 1000), 0x4d49_3040_55d0_1795),
    ];
    assert_pins("greedy", &actual, &pins);
}

/// Per-target pricing under full knowledge on trees whose views pass
/// [`EXHAUSTIVE_CAP`]: [`Mode::Exact`] falls back to the greedy climb.
#[test]
fn per_target_witnesses_past_the_enumeration_cap_are_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0063_6170);
    let tree = ncg_graph::generators::random_tree(26, &mut rng);
    let state = GameState::from_graph_random_ownership(&tree, &mut rng);
    assert!(PlayerView::build(&state, 0, 1000).candidate_count() > EXHAUSTIVE_CAP);
    let mut scratch = SolverScratch::new();
    let mut actual = Vec::new();
    for (j, objective) in [Objective::Max, Objective::Sum].into_iter().enumerate() {
        for alpha in [0.4, 1.5] {
            let spec = Scenario::non_uniform(objective, 0x7a6f).spec(alpha, 1000);
            let respond = best_response_with;
            let d = mode_digest(6 + j as u64, &state, spec, respond, Mode::Exact, &mut scratch);
            actual.push(((objective, alpha), d));
        }
    }
    let pins = [
        ((Objective::Max, 0.4), 0x68fc_041b_cf01_8d0b),
        ((Objective::Max, 1.5), 0xede2_674a_1d13_1fab),
        ((Objective::Sum, 0.4), 0x808f_03a4_7919_44c5),
        ((Objective::Sum, 1.5), 0xec01_503e_6e0f_420c),
    ];
    assert_pins("per-target, k = 1000", &actual, &pins);
}

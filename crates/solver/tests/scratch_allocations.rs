//! The scratch allocation contract: a warm [`SolverScratch`] makes a
//! best response allocate little beyond the strategy it returns.
//!
//! `SolverScratch` keeps the Max reduction's ring growth and domination
//! engine, the Sum engine and the greedy climb, with their distance-row
//! scratch, across views of any size. This binary counts heap
//! allocations per thread through its own global allocator, warms one
//! scratch over a set of players' views, and then averages the
//! allocations of a second pass over the same views. The views are
//! built before the count starts, so only the solver is counted. Run
//! with `--nocapture` to see the measured averages.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ncg_core::equilibrium::Deviation;
use ncg_core::{GameSpec, GameState, PlayerView};
use ncg_graph::NodeId;
use ncg_solver::max_br::max_best_response_with;
use ncg_solver::sum_br::sum_best_response_with;
use ncg_solver::{Mode, SolverScratch};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

thread_local! {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) made by
    /// this thread, so tests running beside each other cannot mix.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting every allocation call of the calling thread.
struct CountingAllocator;

fn count_one() {
    // A thread being torn down has no counter left; it is not measured.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are the caller's; the counter is
// a const-initialised thread-local `Cell` without a destructor, which
// never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

type Respond = fn(&GameSpec, &PlayerView, Mode, &mut SolverScratch) -> Deviation;

/// Mean allocations per exact best response over every player's
/// radius-`spec.k` view of `state`, on a scratch warmed over the same
/// views first.
fn allocations_per_call(state: &GameState, spec: &GameSpec, respond: Respond) -> f64 {
    allocations_per_call_of(state, 0..state.n() as NodeId, spec, Mode::Exact, respond)
}

/// [`allocations_per_call`] over the views of `players` only, in `mode`.
fn allocations_per_call_of(
    state: &GameState,
    players: std::ops::Range<NodeId>,
    spec: &GameSpec,
    mode: Mode,
    respond: Respond,
) -> f64 {
    let views: Vec<PlayerView> = players.map(|u| PlayerView::build(state, u, spec.k)).collect();
    let mut scratch = SolverScratch::new();
    for view in &views {
        respond(spec, view, mode, &mut scratch);
    }
    let before = allocations();
    for view in &views {
        respond(spec, view, mode, &mut scratch);
    }
    (allocations() - before) as f64 / views.len() as f64
}

/// Checks each case's mean against `limit`, after printing them all.
fn assert_at_most(class: &str, limit: f64, measured: &[(String, f64)]) {
    for (case, per_call) in measured {
        println!("{class}, {case}: {per_call:.2} allocations per call (limit {limit})");
    }
    for (case, per_call) in measured {
        assert!(
            *per_call <= limit,
            "{class}, {case}: {per_call:.2} allocations per warm call, more than {limit}"
        );
    }
}

/// Radius-2 views of a random 200-node tree: a few nodes each, and a
/// different size from one player to the next.
#[test]
fn max_on_tree200_k2_views_allocates_at_most_two_per_call() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0061_6c6c_6f63);
    let tree = ncg_graph::generators::random_tree(200, &mut rng);
    let state = GameState::from_graph_random_ownership(&tree, &mut rng);
    let measured: Vec<(String, f64)> = [0.2, 0.5]
        .into_iter()
        .map(|alpha| {
            let spec = GameSpec::max(alpha, 2);
            (format!("α = {alpha}"), allocations_per_call(&state, &spec, max_best_response_with))
        })
        .collect();
    assert_at_most("Max, tree200 k = 2", 2.0, &measured);
}

/// Full views of a connected G(70, 0.15): one 70-node view per player,
/// with deep searches.
#[test]
fn max_on_er70_full_views_allocates_at_most_six_per_call() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x6572_3730);
    let g = ncg_graph::generators::gnp_connected(70, 0.15, 10_000, &mut rng).unwrap();
    let state = GameState::from_graph_random_ownership(&g, &mut rng);
    let measured: Vec<(String, f64)> = [0.3, 2.0]
        .into_iter()
        .map(|alpha| {
            let spec = GameSpec::max(alpha, 1000);
            (format!("α = {alpha}"), allocations_per_call(&state, &spec, max_best_response_with))
        })
        .collect();
    assert_at_most("Max, G(70, 0.15) full views", 6.0, &measured);
}

/// A random 30-node tree under SumNCG at the α = 1 tie plateau, at
/// radius 2 and under full knowledge.
#[test]
fn sum_on_tree30_views_allocates_at_most_three_per_call() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0073_756d_3330);
    let tree = ncg_graph::generators::random_tree(30, &mut rng);
    let state = GameState::from_graph_random_ownership(&tree, &mut rng);
    let measured: Vec<(String, f64)> = [2u32, 1000]
        .into_iter()
        .map(|k| {
            let spec = GameSpec::sum(1.0, k);
            (format!("k = {k}"), allocations_per_call(&state, &spec, sum_best_response_with))
        })
        .collect();
    assert_at_most("Sum, tree30 α = 1", 3.0, &measured);
}

/// Radius-2 views of a 1,200-node high-girth gadget (girth at least 6,
/// degree about 3) under SumNCG at α = 2n, Theorem 4.3's certification:
/// about ten nodes each, whose `H ∖ {u}` falls apart into one component
/// per neighbour, so the exact response solves every component on its
/// own in the scratch's sub-view slot.
#[test]
fn sum_on_high_girth_k2_views_allocates_at_most_two_per_call() {
    use ncg_graph::generators::{high_girth, HighGirthParams};
    let mut rng = ChaCha8Rng::seed_from_u64(0x0067_6972_7468);
    let g = high_girth(HighGirthParams::new(1200, 3, 6), &mut rng).unwrap();
    let state = GameState::from_graph_random_ownership(&g, &mut rng);
    let spec = GameSpec::sum(2400.0, 2);
    let measured =
        vec![("α = 2n".to_string(), allocations_per_call(&state, &spec, sum_best_response_with))];
    assert_at_most("Sum, high girth n = 1200 k = 2", 2.0, &measured);
}

/// Radius-2 views of a sparse G(2000, 10/n), about 110 nodes each and
/// one to three words wide, through the greedy climb, which builds one
/// distance row per candidate: the row scratch must keep its words
/// across views of different widths. The candidate list lives in the
/// climb's scratch, so the returned strategy is the one allocation.
#[test]
fn sum_greedy_on_gnp2000_k2_views_allocates_at_most_one_per_call() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0067_6e70_3230);
    let g = ncg_graph::generators::gnp(2000, 10.0 / 2000.0, &mut rng).unwrap();
    let state = GameState::from_graph_random_ownership(&g, &mut rng);
    let measured: Vec<(String, f64)> = [1.5, 3.0]
        .into_iter()
        .map(|alpha| {
            let spec = GameSpec::sum(alpha, 2);
            let per_call = allocations_per_call_of(
                &state,
                0..100,
                &spec,
                Mode::Greedy,
                sum_best_response_with,
            );
            (format!("α = {alpha}"), per_call)
        })
        .collect();
    assert_at_most("Sum greedy, G(2000, 10/n) k = 2", 1.0, &measured);
}

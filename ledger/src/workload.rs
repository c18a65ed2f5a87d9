//! The five workloads: how each builds its inputs from a seed, runs its
//! timed phase through the program's public entry points, digests the
//! outputs, and checks them.
//!
//! A run repeats *iterations* until its time budget is spent. Iteration
//! `i` draws fresh inputs from [`iteration_seed`]`(seed, i)`, so one run
//! averages over many instances of the workload's input class and the
//! median iteration is steady from seed to seed.

use std::path::Path;
use std::time::Instant;

use ncg_constructions::{cycle, high_girth, TorusGrid};
use ncg_core::{GameSpec, GameState, Objective};
use ncg_dynamics::scale::{ScaleArena, ScaleState};
use ncg_dynamics::CacheArena;
use ncg_experiments::engine::{execute, SweepContext, SweepMode};
use ncg_experiments::journal::{self, JournalLine};
use ncg_experiments::sweep::{solve_cell_guarded, solve_scale_cell_guarded, RunRecord, SweepSpec};
use ncg_graph::metrics;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::stats::{mix, process_cpu_s, Fnv};

/// The paper's 15-value edge-price grid (Section 5.1).
pub const PAPER_ALPHAS: [f64; 15] =
    [0.025, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0, 7.0, 10.0];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TreeLocal,
    ErFull,
    SumTree,
    ScaleEr,
    LkeGadgets,
}

/// Input sizes: `Full` is the benchmark; `Smoke` is a reduced grid that
/// finishes in seconds in a debug build, for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::TreeLocal,
        Workload::ErFull,
        Workload::SumTree,
        Workload::ScaleEr,
        Workload::LkeGadgets,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TreeLocal => "tree_local",
            Workload::ErFull => "er_full",
            Workload::SumTree => "sum_tree",
            Workload::ScaleEr => "scale_er",
            Workload::LkeGadgets => "lke_gadgets",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sweep an iteration executes (`None` for `lke_gadgets`).
    pub fn sweep_spec(self, size: Size, seed: u64) -> Option<SweepSpec> {
        let smoke = size == Size::Smoke;
        // Every other value of the paper's grid (0.025 to 10, with 1):
        // four inputs at 8 prices rather than two at 15, so a run
        // averages over more instances and both threads stay busy.
        let alphas: Vec<f64> =
            if smoke { vec![0.5, 2.0] } else { PAPER_ALPHAS.iter().step_by(2).copied().collect() };
        let reps = if smoke { 2 } else { 4 };
        let spec = match self {
            // Radius 2 and the part of the α grid where trees of 200
            // players keep moving: views cover ≈5% of the graph and the
            // cache skips ≈40% of turns. At α ≤ 0.1 views grow to a fifth
            // of the graph and more; from α = 1 the trees are already stable.
            Workload::TreeLocal => SweepSpec::tree(
                self.name(),
                if smoke { 16 } else { 200 },
                if smoke { 2 } else { 12 },
                seed,
                if smoke { vec![0.3, 0.5] } else { vec![0.2, 0.3, 0.4, 0.5, 0.7] },
                vec![2],
                Objective::Max,
            ),
            Workload::ErFull => {
                let (n, p) = if smoke { (16, 0.3) } else { (70, 0.15) };
                SweepSpec::er(self.name(), n, p, reps, seed, alphas, vec![1000], Objective::Max)
            }
            Workload::SumTree => {
                let ks = if smoke { vec![2, 1000] } else { vec![2, 3, 5, 1000] };
                SweepSpec::tree(
                    self.name(),
                    if smoke { 12 } else { 30 },
                    reps,
                    seed,
                    alphas,
                    ks,
                    Objective::Sum,
                )
            }
            // One cell, large enough that the scale tier's arrays are most
            // of the process's peak memory. At α = 3 all four rounds
            // propose moves and most proposals conflict; at α ≤ 2 almost
            // nobody proposes, so the rounds would skip conflict resolution.
            Workload::ScaleEr => SweepSpec::scale_er(
                self.name(),
                if smoke { 400 } else { 20_000 },
                10.0,
                4,
                1,
                seed,
                vec![3.0],
                vec![2],
                Objective::Max,
            ),
            Workload::LkeGadgets => return None,
        };
        Some(spec)
    }
}

/// Seed of iteration `i` of a run seeded `seed`.
pub fn iteration_seed(seed: u64, i: usize) -> u64 {
    mix(seed ^ mix(i as u64 + 1))
}

/// One certification of the `lke_gadgets` workload. Every instance lies
/// inside its lemma's premise, so the exact verdict must be `true`.
pub struct Gadget {
    pub label: String,
    pub state: GameState,
    pub spec: GameSpec,
}

/// An iteration's validated inputs.
pub enum Inputs {
    /// Exact-tier sweep: the spec plus the states it samples.
    Sweep(SweepSpec, Vec<GameState>),
    /// Scale-tier sweep: the spec plus its flat states.
    Scale(SweepSpec, Vec<ScaleState>),
    Lke(Vec<Gadget>),
}

/// Builds and validates one iteration's inputs with the program's own
/// generators — the work `setup_s` times.
pub fn setup(workload: Workload, size: Size, seed: u64) -> Inputs {
    if workload == Workload::LkeGadgets {
        return Inputs::Lke(gadgets(size, seed));
    }
    let spec = workload.sweep_spec(size, seed).expect("sweep workload");
    if spec.is_scale() {
        let states = spec.scale_states();
        for s in &states {
            s.validate().expect("sampled scale state violates its invariants");
        }
        Inputs::Scale(spec, states)
    } else {
        let states = spec.states();
        for s in &states {
            s.validate().expect("sampled state violates its invariants");
            assert!(metrics::is_connected(s.graph()), "sampled input must be connected");
        }
        Inputs::Sweep(spec, states)
    }
}

fn gadgets(size: Size, seed: u64) -> Vec<Gadget> {
    // (Theorem 3.12 δ_last, Theorem 4.2 δ₂, high-girth n, cycle n).
    let (d312, d42, hg_n, cycle_n) =
        if size == Size::Smoke { (6, 4, 60, 40) } else { (1200, 800, 12_000, 15_000) };
    let torus = |t: Result<TorusGrid, _>| t.expect("parameters inside the theorem's premise");
    let mut out = Vec::new();
    for (alpha, k, dlast) in [(2.0, 2, d312), (3.0, 3, 2 * d312 / 3)] {
        let t = torus(TorusGrid::for_theorem_312(alpha, k, dlast));
        out.push(Gadget {
            label: format!("torus312 a={alpha} k={k} d={dlast}"),
            state: t.state().clone(),
            spec: GameSpec::max(alpha, k),
        });
    }
    for (k, d2, alpha) in [(2, d42, 40.0), (3, 3 * d42 / 4, 110.0)] {
        let t = torus(TorusGrid::for_theorem_42(k, d2));
        out.push(Gadget {
            label: format!("torus42 k={k} d={d2}"),
            state: t.state().clone(),
            spec: GameSpec::sum(alpha, k),
        });
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let hg = high_girth::build(hg_n, 3, 2, &mut rng).expect("generator parameters valid");
    for spec in [GameSpec::max(5.0, 2), GameSpec::sum((2 * hg_n) as f64, 2)] {
        out.push(Gadget {
            label: format!("high_girth n={hg_n} {:?} a={}", spec.objective, spec.alpha),
            state: hg.state.clone(),
            spec,
        });
    }
    let spec = GameSpec::max(9.0, 6);
    assert!(cycle::lemma_premise(cycle_n, spec.alpha, spec.k));
    out.push(Gadget {
        label: format!("cycle n={cycle_n}"),
        state: cycle::cycle_equilibrium(cycle_n),
        spec,
    });
    for g in &out {
        g.state.validate().expect("gadget violates its invariants");
    }
    out
}

/// What one timed iteration produced.
pub struct Iteration {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub attempted: usize,
    pub failed: usize,
    /// Digest of the canonical output stream.
    pub digest: String,
    /// Canonical-order records (sweeps) — kept for the checks.
    pub records: Vec<RunRecord>,
}

/// Runs one iteration's timed phase. Sweeps go through
/// `engine::execute` exactly as the CLI does (local mode, warm starts,
/// a journal under `scratch`, compaction); gadgets through `is_lke_par`.
pub fn run_timed(inputs: &Inputs, scratch: &Path) -> Iteration {
    match inputs {
        Inputs::Sweep(spec, _) | Inputs::Scale(spec, _) => run_sweep(spec, scratch),
        Inputs::Lke(gadgets) => {
            let cpu0 = process_cpu_s();
            let start = Instant::now();
            let verdicts: Vec<bool> =
                gadgets.iter().map(|g| ncg_solver::is_lke_par(&g.state, &g.spec)).collect();
            let wall_s = start.elapsed().as_secs_f64();
            let cpu_s = process_cpu_s() - cpu0;
            Iteration {
                wall_s,
                cpu_s,
                attempted: gadgets.len(),
                failed: verdicts.iter().filter(|&&v| !v).count(),
                digest: lke_digest(gadgets, &verdicts),
                records: Vec::new(),
            }
        }
    }
}

fn run_sweep(spec: &SweepSpec, scratch: &Path) -> Iteration {
    let ctx = SweepContext {
        mode: SweepMode::Local,
        journal_dir: Some(scratch.to_path_buf()),
        warm_start: true,
    };
    let mut records: Vec<RunRecord> = Vec::with_capacity(spec.cell_count());
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    // `execute` panics after journaling when a cell failed; the
    // failures are then read back from the journal's `CellFailed` lines.
    let completed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute(&ctx, spec.label.as_str(), std::slice::from_ref(spec), &mut |_, _, record| {
            records.push(record.clone())
        });
    }))
    .is_ok();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let failed = if completed {
        0
    } else {
        let path = journal::journal_path(scratch, &spec.label);
        let lines = journal::read_lines(&path).expect("reading the run journal");
        lines.iter().filter(|l| matches!(l, JournalLine::Failed(_))).count().max(1)
    };
    Iteration {
        wall_s,
        cpu_s,
        attempted: spec.cell_count(),
        failed,
        digest: records_digest(&records),
        records,
    }
}

/// Digest of the canonical-order `serde_json` record stream.
pub fn records_digest(records: &[RunRecord]) -> String {
    let mut h = Fnv::new();
    for r in records {
        h.line(&serde_json::to_string(r).expect("records serialise"));
    }
    h.hex()
}

/// Digest of the gadgets (size, edges, strategy profile) and verdicts.
pub fn lke_digest(gadgets: &[Gadget], verdicts: &[bool]) -> String {
    let mut h = Fnv::new();
    for (g, v) in gadgets.iter().zip(verdicts) {
        let mut profile = Fnv::new();
        for u in 0..g.state.n() as u32 {
            profile.line(&format!("{:?}", g.state.strategy(u)));
        }
        h.line(&format!(
            "{} n={} m={} profile={} verdict={v}",
            g.label,
            g.state.n(),
            g.state.graph().edge_count(),
            profile.hex()
        ));
    }
    h.hex()
}

/// Checks an iteration's outputs beyond its digest:
///
/// * sweeps — one record per cell in canonical order, and the compacted
///   journal holds exactly the folded records; on the `first` iteration one cell
///   re-solved cold outside the engine yields the same record, and if it
///   converged its final state is certified an LKE (exact tier) or
///   passes the state invariants (scale tier);
/// * gadgets — every verdict is `true`, and a cycle outside Lemma 3.1's
///   premise is rejected (the certifier is not a constant).
pub fn check(inputs: &Inputs, it: &Iteration, scratch: &Path, first: bool) -> Result<(), String> {
    match inputs {
        Inputs::Lke(_) => {
            if it.failed > 0 {
                return Err(format!("{} in-premise gadget(s) failed certification", it.failed));
            }
            if ncg_solver::is_lke_par(&cycle::cycle_equilibrium(40), &GameSpec::max(0.2, 9)) {
                return Err("a cycle outside Lemma 3.1's premise certified as an LKE".into());
            }
            Ok(())
        }
        Inputs::Sweep(spec, _) | Inputs::Scale(spec, _) => {
            if it.failed > 0 {
                return Err(format!("{} cell(s) failed", it.failed));
            }
            check_journal(spec, &it.records, scratch)?;
            if first {
                check_cold_cell(inputs, spec, &it.records)?;
            }
            Ok(())
        }
    }
}

fn check_journal(spec: &SweepSpec, records: &[RunRecord], scratch: &Path) -> Result<(), String> {
    if records.len() != spec.cell_count() {
        return Err(format!("folded {} records for {} cells", records.len(), spec.cell_count()));
    }
    let path = journal::journal_path(scratch, &spec.label);
    let entries = journal::read(&path).map_err(|e| format!("reading the journal: {e}"))?;
    let canonical = entries.len() == records.len()
        && entries.iter().zip(records).enumerate().all(|(i, (e, r))| e.cell == i && &e.record == r);
    if !canonical {
        return Err("the compacted journal differs from the folded record stream".into());
    }
    Ok(())
}

fn check_cold_cell(inputs: &Inputs, spec: &SweepSpec, records: &[RunRecord]) -> Result<(), String> {
    // A mid-grid cell: cheap enough to re-solve, far from the corners.
    let cell = spec.cell(spec.cell_count() / 2);
    let (alpha, k) = (spec.alphas[cell.ai], spec.ks[cell.ki]);
    let expected = &records[cell.index];
    let cold = match inputs {
        Inputs::Sweep(_, states) => {
            let state = &states[cell.rep];
            let mut arena = CacheArena::new();
            let result =
                solve_cell_guarded(state, spec.scenario(), alpha, k, false, &mut arena, false)?;
            if result.outcome.converged()
                && !ncg_solver::is_lke(&result.state, &spec.scenario().spec(alpha, k))
            {
                return Err(format!("cell {}: converged state is not an LKE", cell.index));
            }
            RunRecord::new(spec.class(), spec.n, alpha, k, cell.rep, &result)
        }
        Inputs::Scale(_, states) => {
            let mut arena = ScaleArena::new();
            let (result, state) =
                solve_scale_cell_guarded(&states[cell.rep], spec, alpha, k, &mut arena, false)?;
            state
                .validate()
                .map_err(|e| format!("cell {}: final state invalid: {e}", cell.index))?;
            RunRecord::from_scale(spec.class(), alpha, k, cell.rep, &result, &state)
        }
        Inputs::Lke(_) => unreachable!("gadgets have no cells"),
    };
    if &cold != expected {
        return Err(format!("cell {}: cold re-solve differs from the engine's record", cell.index));
    }
    Ok(())
}

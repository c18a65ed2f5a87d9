//! The traced run: the work of iteration 0 driven again one layer down,
//! through public calls only, with a span around each call into a layer.
//!
//! * Exact sweeps sample their states (`SweepSpec::states`, as the
//!   engine does inside its timed phase), run each cell as a cold
//!   `run_with` with the engine's `DynamicsConfig` and a timed
//!   responder, and journal the records through `JournalWriter`, then
//!   compact the journal.
//! * `scale_er` samples its flat states, runs each cell's `run_scale`
//!   with the engine's configuration, and journals likewise.
//! * `lke_gadgets` recomposes `is_lke_batched`: `batch_bfs` →
//!   `lane_ball_into` → `PlayerView::build_from_ball` →
//!   `Responder::best_response`, in parallel groups of 64 players.
//!
//! The drive's records or verdicts must reproduce the untraced digest.
//! A layer the workload does not call reports 0. Per-layer times are
//! self times (span minus child spans), reported as shares of the
//! drive's busy time, which other tenants of the machine slow alike.
//! Counts are deterministic for a given seed.

use std::path::Path;
use std::time::Instant;

use ncg_core::{GameSpec, GameState, PlayerView, ViewScratch};
use ncg_dynamics::scale::{run_scale, ScaleArena, ScaleConfig};
use ncg_dynamics::{run_with, DynamicsConfig};
use ncg_experiments::journal::{self, JournalEntry, JournalWriter};
use ncg_experiments::sweep::{RunRecord, SweepSpec, Workload as Family};
use ncg_graph::batch::{batch_bfs, BatchDistances, BatchScratch, WORD_LANES};
use ncg_graph::{CsrGraph, NodeId};
use ncg_solver::Responder;
use rayon::prelude::*;

use crate::stats::ratio;
use crate::trace::{Timed, Tracer};
use crate::workload::{self, iteration_seed, lke_digest, records_digest, Inputs, Size, Workload};
use crate::{Metric, Report};

pub fn run(workload: Workload, size: Size, seed: u64, scratch: &Path, trace_out: &Path) -> Report {
    let mut t = Tracer::new(Instant::now());
    let inputs = workload::setup(workload, size, iteration_seed(seed, 0));

    // The untraced timed phase of the same inputs: the reference digest
    // and the denominator of the tracing overhead.
    let untraced_dir = scratch.join("untraced");
    let untraced = workload::run_timed(&inputs, &untraced_dir);
    let mut failed = match workload::check(&inputs, &untraced, &untraced_dir, true) {
        Ok(()) => untraced.failed,
        Err(e) => {
            eprintln!("ledger: untraced iteration: {e}");
            untraced.attempted
        }
    };

    let drive_start = Instant::now();
    let digest = match &inputs {
        Inputs::Sweep(spec, _) => {
            let records = drive_sweep(spec, &mut t);
            journal(spec, &records, &scratch.join("traced"), &mut t);
            records_digest(&records)
        }
        Inputs::Scale(spec, _) => {
            let records = drive_scale(spec, &mut t);
            journal(spec, &records, &scratch.join("traced"), &mut t);
            records_digest(&records)
        }
        Inputs::Lke(gadgets) => {
            let verdicts: Vec<bool> =
                gadgets.iter().map(|g| recompose(&g.state, &g.spec, &mut t)).collect();
            lke_digest(gadgets, &verdicts)
        }
    };
    let drive_s = drive_start.elapsed().as_secs_f64();
    if digest != untraced.digest {
        eprintln!("ledger: traced digest {digest} differs from the untraced {}", untraced.digest);
        failed = untraced.attempted;
    }

    if let Some(dir) = trace_out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("creating the trace directory");
    }
    std::fs::write(trace_out, t.to_jsonl()).expect("writing trace.jsonl");
    eprintln!("ledger: wrote {} spans to {}", t.spans.len(), trace_out.display());

    let (metrics, counters) = layer_metrics(&t, drive_s / untraced.wall_s - 1.0);
    Report { attempted: untraced.attempted, failed, metrics, counters, digest }
}

/// Exact-tier cells, one cold `run_with` each, repetitions in parallel
/// like the engine; returns the records in canonical order.
fn drive_sweep(spec: &SweepSpec, t: &mut Tracer) -> Vec<RunRecord> {
    let states = t.span("experiments.sample", |_| spec.states());
    let origin = t.origin();
    let per_rep: Vec<(Vec<(usize, RunRecord)>, Tracer)> = (0..states.len())
        .into_par_iter()
        .map(|rep| {
            let mut t = Tracer::new(origin);
            let mut responder = Responder::exact();
            let mut out = Vec::new();
            for (ai, &alpha) in spec.alphas.iter().enumerate() {
                for (ki, &k) in spec.ks.iter().enumerate() {
                    let index = spec.index_of(ai, ki, rep);
                    t.cell = Some(index);
                    let config = DynamicsConfig::new(spec.scenario().spec(alpha, k));
                    let result = t.span("dynamics.run", |t| {
                        let n = states[rep].n();
                        let mut timed = Timed { inner: &mut responder, tracer: t, n };
                        run_with(states[rep].clone(), &config, &mut timed)
                    });
                    let stats = result.cache_stats.expect("the view cache is on by default");
                    t.add("dynamics.cells", 1.0);
                    t.add("dynamics.rounds", result.outcome.rounds() as f64);
                    t.add("dynamics.moves", result.total_moves as f64);
                    t.add("dynamics.view_rebuilds", stats.rebuilds as f64);
                    t.add("dynamics.view_skips", stats.skips as f64);
                    out.push((index, RunRecord::new(spec.class(), spec.n, alpha, k, rep, &result)));
                }
            }
            t.cell = None;
            (out, t)
        })
        .collect();
    collect_records(per_rep, t)
}

/// Scale-tier cells, one `run_scale` each (the engine's configuration).
fn drive_scale(spec: &SweepSpec, t: &mut Tracer) -> Vec<RunRecord> {
    let Family::ScaleEr { max_rounds, .. } = spec.workload else {
        unreachable!("scale inputs come from a scale sweep")
    };
    let states = t.span("experiments.sample", |_| spec.scale_states());
    let origin = t.origin();
    let per_rep: Vec<(Vec<(usize, RunRecord)>, Tracer)> = (0..states.len())
        .into_par_iter()
        .map(|rep| {
            let mut t = Tracer::new(origin);
            let mut arena = ScaleArena::new();
            let mut out = Vec::new();
            for (ai, &alpha) in spec.alphas.iter().enumerate() {
                for (ki, &k) in spec.ks.iter().enumerate() {
                    let index = spec.index_of(ai, ki, rep);
                    t.cell = Some(index);
                    let mut config = ScaleConfig::new(spec.scenario().spec(alpha, k));
                    config.max_rounds = max_rounds;
                    let (result, state) = t.span("scale.run", |_| {
                        let mut state = states[rep].clone();
                        (run_scale(&mut state, &config, &mut arena), state)
                    });
                    t.add("scale.rounds", result.rounds.len() as f64);
                    for r in &result.rounds {
                        t.add("scale.dirty", r.dirty as f64);
                        t.add("scale.proposals", r.proposals as f64);
                        t.add("scale.applied", r.applied as f64);
                        t.add("scale.conflicts", r.conflicts as f64);
                    }
                    let record =
                        RunRecord::from_scale(spec.class(), alpha, k, rep, &result, &state);
                    out.push((index, record));
                }
            }
            t.cell = None;
            (out, t)
        })
        .collect();
    collect_records(per_rep, t)
}

fn collect_records(
    per_rep: Vec<(Vec<(usize, RunRecord)>, Tracer)>,
    t: &mut Tracer,
) -> Vec<RunRecord> {
    let mut all = Vec::new();
    for (records, worker) in per_rep {
        all.extend(records);
        t.absorb(worker);
    }
    all.sort_by_key(|(index, _)| *index);
    all.into_iter().map(|(_, r)| r).collect()
}

/// The engine's journal work for the drive's records: one
/// `JournalWriter` line per cell, then compaction.
fn journal(spec: &SweepSpec, records: &[RunRecord], dir: &Path, t: &mut Tracer) {
    let path = journal::journal_path(dir, &spec.label);
    t.span("experiments.journal", |t| {
        let mut writer = JournalWriter::append(&path).expect("opening the journal");
        let grid = spec.fingerprint();
        for (cell, record) in records.iter().enumerate() {
            let entry =
                JournalEntry { sweep: spec.label.clone(), cell, grid, record: record.clone() };
            t.call("experiments.append", || writer.push(&entry)).expect("appending to the journal");
        }
        drop(writer);
        t.span("experiments.compact", |_| journal::compact(&path, std::slice::from_ref(spec)))
            .expect("compacting the journal");
    });
    let bytes = std::fs::metadata(&path).expect("the journal exists").len();
    t.add("experiments.journal_lines", records.len() as f64);
    t.add("experiments.journal_bytes", bytes as f64);
}

/// `is_lke_batched` recomposed: one batched ball sweep per 64-player
/// group, each lane's ball turned into a view and solved. Groups run in
/// parallel like `is_lke_par`. Returns whether no player has an
/// improving move.
fn recompose(state: &GameState, spec: &GameSpec, t: &mut Tracer) -> bool {
    let origin = t.origin();
    let n = state.n();
    let csr = t.span("graph.freeze", |_| CsrGraph::from_graph(state.graph()));
    let players: Vec<NodeId> = (0..n as NodeId).collect();
    let groups: Vec<Vec<NodeId>> = players.chunks(WORD_LANES).map(<[NodeId]>::to_vec).collect();
    let results: Vec<(bool, Tracer)> = groups
        .into_par_iter()
        .map_init(
            || {
                (
                    Responder::exact(),
                    BatchScratch::new(),
                    BatchDistances::default(),
                    ViewScratch::new(),
                    Vec::<NodeId>::new(),
                    None::<PlayerView>,
                )
            },
            |(responder, scratch, dists, vscratch, ball, view), sources| {
                let mut t = Tracer::new(origin);
                let mut stable = true;
                t.span("solver.certify", |t| {
                    t.span("graph.batch_bfs", |_| {
                        batch_bfs(&csr, &sources, spec.k, scratch, dists)
                    });
                    t.add("graph.batch_bfs_calls", 1.0);
                    for (lane, &u) in sources.iter().enumerate() {
                        t.call("graph.lane_ball", || dists.lane_ball_into(lane, ball));
                        t.add("graph.ball_nodes", ball.len() as f64);
                        t.call("core.view_build", || match view.as_mut() {
                            Some(v) => v.rebuild_from_ball(state, u, spec.k, ball, vscratch),
                            None => {
                                *view = Some(PlayerView::build_from_ball(
                                    state, u, spec.k, ball, vscratch,
                                ))
                            }
                        });
                        let v = view.as_ref().expect("slot filled above");
                        let (_, improving) =
                            Timed { inner: responder, tracer: t, n }.respond(spec, v);
                        stable &= !improving;
                    }
                });
                (stable, t)
            },
        )
        .collect();
    let mut stable = true;
    for (ok, worker) in results {
        stable &= ok;
        t.absorb(worker);
    }
    stable
}

/// The per-layer time shares and counts; every workload reports all of
/// them.
fn layer_metrics(t: &Tracer, overhead: f64) -> (Vec<Metric>, Vec<Metric>) {
    let c = |name: &str| t.counters.get(name).copied().unwrap_or(0.0);
    let busy = t.self_s(|_| true);
    let share = |keep: &dyn Fn(&str) -> bool| ratio(t.self_s(keep), busy);
    let m = |name, unit, value| Metric { name, unit, value };
    let metrics = vec![
        m("graph.share", "ratio", share(&|n| n.starts_with("graph."))),
        m("graph.lane_ball_share", "ratio", share(&|n| n == "graph.lane_ball")),
        m("core.share", "ratio", share(&|n| n.starts_with("core."))),
        m("solver.share", "ratio", share(&|n| n.starts_with("solver."))),
        m("dynamics.share", "ratio", share(&|n| n.starts_with("dynamics."))),
        m("scale.share", "ratio", share(&|n| n.starts_with("scale."))),
        m("experiments.share", "ratio", share(&|n| n.starts_with("experiments."))),
        m("trace.overhead_frac", "ratio", overhead),
    ];
    let counts = vec![
        m("graph.batch_bfs_calls", "count", c("graph.batch_bfs_calls")),
        m("graph.ball_nodes", "count", c("graph.ball_nodes")),
        m("core.view_nodes_mean", "count", ratio(c("core.view_nodes_total"), c("solver.calls"))),
        m(
            "core.view_nodes_max",
            "count",
            t.maxima.get("core.view_nodes_max").copied().unwrap_or(0.0),
        ),
        m("core.view_share", "ratio", ratio(c("core.view_share_total"), c("solver.calls"))),
        m("solver.calls", "count", c("solver.calls")),
        m("solver.improving_ratio", "ratio", ratio(c("solver.improving"), c("solver.calls"))),
        m("dynamics.cells", "count", c("dynamics.cells")),
        m("dynamics.rounds", "count", c("dynamics.rounds")),
        m("dynamics.moves", "count", c("dynamics.moves")),
        m("dynamics.view_rebuilds", "count", c("dynamics.view_rebuilds")),
        m("dynamics.view_skips", "count", c("dynamics.view_skips")),
        m(
            "dynamics.skip_ratio",
            "ratio",
            ratio(c("dynamics.view_skips"), c("dynamics.view_skips") + c("dynamics.view_rebuilds")),
        ),
        m("scale.rounds", "count", c("scale.rounds")),
        m("scale.dirty", "count", c("scale.dirty")),
        m("scale.proposals", "count", c("scale.proposals")),
        m("scale.applied", "count", c("scale.applied")),
        m("scale.conflicts", "count", c("scale.conflicts")),
        m("scale.propose_ratio", "ratio", ratio(c("scale.proposals"), c("scale.dirty"))),
        m("scale.accept_ratio", "ratio", ratio(c("scale.applied"), c("scale.proposals"))),
        m("experiments.journal_lines", "count", c("experiments.journal_lines")),
        m("experiments.journal_bytes", "count", c("experiments.journal_bytes")),
        m("trace.spans", "count", t.spans.len() as f64),
    ];
    (metrics, counts)
}

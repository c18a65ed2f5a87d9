//! Times one simultaneous round of the approximate scale tier on
//! G(10^6, avg deg 10) — the tentpole throughput demo of DESIGN.md
//! §13. The first round is the worst case (every player is dirty);
//! later rounds shrink to the balls the previous round touched.
//! Players an earlier resolve window already marked are skipped
//! unpriced; the rest respond in parallel, so wall-clock scales with
//! cores while artifacts stay byte-identical.
//!
//! ```text
//! cargo run --release -p ncg-experiments --example scale_round_timing
//! ```

use ncg_core::GameSpec;
use ncg_dynamics::scale::{run_scale, ScaleArena, ScaleConfig};
use ncg_experiments::workloads;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let mut state = workloads::scale_er_states(1_000_000, 10.0, 1, 7).remove(0);
    println!("sample G(10^6, avg deg 10): {:.1?}", t0.elapsed());
    let mut config = ScaleConfig::new(GameSpec::max(5.0, 2));
    config.max_rounds = 1;
    let mut arena = ScaleArena::new();
    let t1 = Instant::now();
    let result = run_scale(&mut state, &config, &mut arena);
    println!(
        "one simultaneous round: {:.1?} ({} skipped, {} proposals, {} applied, {} conflicts)",
        t1.elapsed(),
        result.total_skipped,
        result.total_proposals,
        result.total_moves,
        result.total_conflicts
    );
}

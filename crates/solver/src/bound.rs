//! Shared pruning bounds used across best-response engines.
//!
//! The MaxNCG eccentricity-guess loop ([`crate::max_br`]) and the
//! greedy climb ([`crate::climb`]) prune the same way: when every edge
//! costs at least `α`, a candidate strategy with `c` purchases costs at
//! least `α·c + usage_floor`, so once `c` reaches
//! `⌈(cost_to_beat − usage_floor)/α⌉` the candidate cannot strictly
//! beat the incumbent and the whole purchase-count stratum can be
//! skipped. Factoring the arithmetic here keeps the two agreeing on
//! the boundary case (`slack` exactly integral) instead of each
//! re-deriving the ceiling dance inline.

/// Smallest purchase count that can **no longer** strictly beat
/// `cost_to_beat` given that any candidate's usage cost is at least
/// `usage_floor` and every edge costs at least `alpha`.
///
/// Returns `0` when even a purchase-free strategy cannot win (the
/// caller skips the stratum entirely), and `usize::MAX` when `alpha`
/// is non-positive (edge counts are free, so no count-based pruning is
/// sound). A candidate with `count` purchases is worth evaluating iff
/// `count < purchase_cutoff(..)`.
///
/// Sound whenever every edge costs at least `alpha`: uniform pricing,
/// and per-target pricing, whose multipliers are all at least 1. The
/// Max engine runs only under uniform pricing (its reduction minimises
/// the purchase count); the greedy climb cuts with it under both.
#[inline]
pub fn purchase_cutoff(cost_to_beat: f64, usage_floor: f64, alpha: f64) -> usize {
    if alpha <= 0.0 {
        return usize::MAX;
    }
    let slack = (cost_to_beat - usage_floor) / alpha;
    if slack <= 0.0 {
        0
    } else {
        // The smallest integer count with α·count ≥ slack·α, i.e. the
        // first stratum that cannot be strictly better.
        slack.ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cutoff_matches_inline_derivation() {
        // slack = (10 − 4)/2 = 3: counts 0..=2 interesting, 3 is not.
        assert_eq!(purchase_cutoff(10.0, 4.0, 2.0), 3);
        // Non-integral slack rounds up: (10 − 4)/1.75 ≈ 3.43 → 4.
        assert_eq!(purchase_cutoff(10.0, 4.0, 1.75), 4);
        // Floor at or above the incumbent: nothing can win.
        assert_eq!(purchase_cutoff(5.0, 5.0, 1.0), 0);
        assert_eq!(purchase_cutoff(5.0, 7.0, 1.0), 0);
        // Free edges: no pruning.
        assert_eq!(purchase_cutoff(5.0, 1.0, 0.0), usize::MAX);
    }

    #[test]
    fn boundary_is_exclusive() {
        // Exactly-integral slack: a count equal to slack yields cost
        // α·slack + floor == cost_to_beat, which is not *strictly*
        // better, so the cutoff equals slack itself.
        assert_eq!(purchase_cutoff(9.0, 3.0, 2.0), 3);
    }
}

use serde::{Deserialize, Serialize};

use crate::scenario::{EdgeCostModel, MoveRulePolicy, Scenario};
use crate::PlayerView;

/// Comparison slack for floating-point costs.
///
/// Player costs are sums of terms `α·w·(integer) + (integer)`, where
/// the per-edge weight `w` is `1` under uniform pricing and a quarter
/// step in `{1, 1.25, 1.5, 1.75}` under
/// [`EdgeCostModel::PerTarget`](crate::scenario::EdgeCostModel)
/// pricing (the multipliers are asserted to stay exact quarter steps,
/// which are exactly representable in an `f64`). On the paper's `α`
/// grid (multiples of 0.025) the smallest nonzero cost difference is
/// therefore `0.025` uniformly and `0.025/4 = 0.00625` with per-target
/// pricing — either way more than six orders of magnitude above `EPS`,
/// so `1e-9` cleanly separates "strictly better" from accumulated
/// rounding noise in every scenario the workspace ships.
pub const EPS: f64 = 1e-9;

/// Which usage cost the players pay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Objective {
    /// MaxNCG: usage cost is the player's eccentricity (Eq. (2)).
    Max,
    /// SumNCG: usage cost is the sum of distances, her *status* (Eq. (1)).
    Sum,
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Objective::Max => write!(f, "MaxNCG"),
            Objective::Sum => write!(f, "SumNCG"),
        }
    }
}

/// The parameters of one game instance: edge price `α`, knowledge
/// radius `k`, the objective (Max or Sum), and the scenario axes of
/// the model zoo (edge-cost model and move rule, both defaulting to
/// the paper's uniform-α / buy-any-subset game).
///
/// `k` is a radius in hops; the paper's "full knowledge" runs use
/// `k = 1000`, far above any diameter reached — [`GameSpec::full_knowledge`]
/// reproduces that convention.
///
/// Serialization is hand-written for forward compatibility: the two
/// scenario fields are emitted only when non-default, so default specs
/// serialize byte-identically to the pre-scenario format and old
/// journals (`{"alpha":…,"k":…,"objective":"Max"}`) keep
/// deserializing. Unknown objective / scenario tags fail loudly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GameSpec {
    /// Edge activation cost `α > 0`.
    pub alpha: f64,
    /// Knowledge radius `k ≥ 1`.
    pub k: u32,
    /// Usage-cost objective.
    pub objective: Objective,
    /// Edge pricing model (default: every edge costs `α`).
    pub edge_cost: EdgeCostModel,
    /// Move rule (default: a move may rewrite the whole strategy).
    pub move_rule: MoveRulePolicy,
}

impl Serialize for GameSpec {
    fn to_value(&self) -> serde::Value {
        let mut fields: Vec<(String, serde::Value)> = vec![
            ("alpha".to_string(), Serialize::to_value(&self.alpha)),
            ("k".to_string(), Serialize::to_value(&self.k)),
            ("objective".to_string(), Serialize::to_value(&self.objective)),
        ];
        if self.edge_cost != EdgeCostModel::Uniform {
            fields.push(("edge_cost".to_string(), Serialize::to_value(&self.edge_cost)));
        }
        if self.move_rule != MoveRulePolicy::AnySubset {
            fields.push(("move_rule".to_string(), Serialize::to_value(&self.move_rule)));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for GameSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        if v.as_object().is_none() {
            return Err(serde::DeError::invalid_type("object", v));
        }
        let edge_cost = match v.get_field("edge_cost") {
            Some(ec) => Deserialize::from_value(ec)?,
            None => EdgeCostModel::Uniform,
        };
        let move_rule = match v.get_field("move_rule") {
            Some(mr) => Deserialize::from_value(mr)?,
            None => MoveRulePolicy::AnySubset,
        };
        Ok(GameSpec {
            alpha: Deserialize::from_value(serde::require(v, "GameSpec", "alpha")?)?,
            k: Deserialize::from_value(serde::require(v, "GameSpec", "k")?)?,
            objective: Deserialize::from_value(serde::require(v, "GameSpec", "objective")?)?,
            edge_cost,
            move_rule,
        })
    }
}

impl GameSpec {
    /// A spec of the paper's default scenario (uniform pricing, subset
    /// moves) with the given objective.
    pub fn new(alpha: f64, k: u32, objective: Objective) -> Self {
        Scenario::from(objective).spec(alpha, k)
    }

    /// MaxNCG with the given `α` and `k`.
    pub fn max(alpha: f64, k: u32) -> Self {
        Self::new(alpha, k, Objective::Max)
    }

    /// SumNCG with the given `α` and `k`.
    pub fn sum(alpha: f64, k: u32) -> Self {
        Self::new(alpha, k, Objective::Sum)
    }

    /// The paper's full-knowledge convention: `k = 1000`.
    pub fn full_knowledge(alpha: f64, objective: Objective) -> Self {
        Self::new(alpha, 1000, objective)
    }

    /// The scenario axes of this spec, as one [`Scenario`] value.
    pub fn scenario(&self) -> Scenario {
        Scenario { objective: self.objective, edge_cost: self.edge_cost, move_rule: self.move_rule }
    }

    /// Total cost of a player buying `bought` *uniformly priced* edges
    /// with the given usage cost; `None` usage (disconnection) is `+∞`.
    ///
    /// This is the count-based form the exact engines price with — it
    /// ignores [`GameSpec::edge_cost`], so it is only meaningful on
    /// uniform specs (the solver front routes non-uniform specs away
    /// from the count-based engines). Scenario-aware callers use
    /// [`GameSpec::priced_total`].
    #[inline]
    pub fn total_cost(&self, bought: usize, usage: Option<u64>) -> f64 {
        match usage {
            Some(u) => self.alpha * bought as f64 + u as f64,
            None => f64::INFINITY,
        }
    }

    /// Total cost of playing `strategy_local` from `view` with the
    /// given usage: the spec's edge-cost model prices the strategy and
    /// the usage is added on top. On uniform specs this is exactly
    /// [`GameSpec::total_cost`] of the strategy length, bit for bit.
    #[inline]
    pub fn priced_total(
        &self,
        view: &PlayerView,
        strategy_local: &[ncg_graph::NodeId],
        usage: Option<u64>,
    ) -> f64 {
        match usage {
            Some(u) => self.edge_cost.strategy_price(self.alpha, view, strategy_local) + u as f64,
            None => f64::INFINITY,
        }
    }

    /// Whether cost `a` is strictly better (smaller) than `b`, with
    /// [`EPS`] slack.
    #[inline]
    pub fn strictly_better(a: f64, b: f64) -> bool {
        a < b - EPS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GameState;

    #[test]
    fn total_cost_combines_alpha_and_usage() {
        let spec = GameSpec::max(2.5, 3);
        assert!((spec.total_cost(2, Some(4)) - 9.0).abs() < 1e-12);
        assert_eq!(spec.total_cost(0, Some(0)), 0.0);
    }

    #[test]
    fn disconnection_is_infinitely_costly() {
        let spec = GameSpec::sum(0.1, 2);
        assert!(spec.total_cost(5, None).is_infinite());
    }

    #[test]
    fn strictly_better_uses_eps_slack() {
        assert!(GameSpec::strictly_better(1.0, 1.1));
        assert!(!GameSpec::strictly_better(1.0, 1.0));
        assert!(!GameSpec::strictly_better(1.0, 1.0 + EPS / 2.0));
        assert!(!GameSpec::strictly_better(1.1, 1.0));
    }

    #[test]
    fn constructors_set_fields() {
        let m = GameSpec::max(1.0, 4);
        assert_eq!(m.objective, Objective::Max);
        assert_eq!(m.k, 4);
        assert_eq!(m.edge_cost, EdgeCostModel::Uniform);
        assert_eq!(m.move_rule, MoveRulePolicy::AnySubset);
        let s = GameSpec::sum(1.0, 4);
        assert_eq!(s.objective, Objective::Sum);
        let f = GameSpec::full_knowledge(2.0, Objective::Max);
        assert_eq!(f.k, 1000);
    }

    #[test]
    fn objective_display() {
        assert_eq!(Objective::Max.to_string(), "MaxNCG");
        assert_eq!(Objective::Sum.to_string(), "SumNCG");
    }

    #[test]
    fn serde_round_trip() {
        let spec = GameSpec::max(0.025, 7);
        let json = serde_json::to_string(&spec).unwrap();
        let back: GameSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn default_specs_serialize_in_the_pre_scenario_format() {
        // Forward-compat contract: default scenario axes are omitted,
        // so the bytes match what the derived pre-scenario impl wrote.
        let json = serde_json::to_string(&GameSpec::max(0.5, 3)).unwrap();
        assert!(!json.contains("edge_cost"), "{json}");
        assert!(!json.contains("move_rule"), "{json}");
        assert!(json.contains("\"objective\":\"Max\""), "{json}");
    }

    #[test]
    fn pre_scenario_json_round_trips_with_defaults() {
        // A journal line written before the scenario axes existed.
        let old = r#"{"alpha":0.5,"k":3,"objective":"Sum"}"#;
        let spec: GameSpec = serde_json::from_str(old).unwrap();
        assert_eq!(spec, GameSpec::sum(0.5, 3));
        assert_eq!(spec.edge_cost, EdgeCostModel::Uniform);
        assert_eq!(spec.move_rule, MoveRulePolicy::AnySubset);
    }

    #[test]
    fn non_default_scenarios_round_trip() {
        let swap = Scenario::swap(Objective::Max).spec(1.0, 2);
        let json = serde_json::to_string(&swap).unwrap();
        assert!(json.contains("\"move_rule\":\"Swap\""), "{json}");
        assert_eq!(serde_json::from_str::<GameSpec>(&json).unwrap(), swap);

        let nu = Scenario::non_uniform(Objective::Sum, 42).spec(0.7, 4);
        let json = serde_json::to_string(&nu).unwrap();
        assert!(json.contains("edge_cost"), "{json}");
        assert_eq!(serde_json::from_str::<GameSpec>(&json).unwrap(), nu);
    }

    #[test]
    fn unknown_scenario_tags_fail_loudly() {
        let bad_obj = r#"{"alpha":0.5,"k":3,"objective":"Median"}"#;
        assert!(serde_json::from_str::<GameSpec>(bad_obj).is_err());
        let bad_rule = r#"{"alpha":0.5,"k":3,"objective":"Max","move_rule":"Teleport"}"#;
        assert!(serde_json::from_str::<GameSpec>(bad_rule).is_err());
        let bad_cost = r#"{"alpha":0.5,"k":3,"objective":"Max","edge_cost":"Quadratic"}"#;
        assert!(serde_json::from_str::<GameSpec>(bad_cost).is_err());
    }

    #[test]
    fn priced_total_matches_total_cost_on_uniform_specs() {
        let state = GameState::cycle_successor(8);
        let view = crate::PlayerView::build(&state, 0, 3);
        let spec = GameSpec::max(0.7, 3);
        let strat = view.candidates();
        assert_eq!(
            spec.priced_total(&view, &strat, Some(5)).to_bits(),
            spec.total_cost(strat.len(), Some(5)).to_bits()
        );
        assert!(spec.priced_total(&view, &strat, None).is_infinite());
    }

    #[test]
    fn priced_total_uses_per_target_multipliers() {
        let state = GameState::cycle_successor(8);
        let view = crate::PlayerView::build(&state, 0, 3);
        let spec = Scenario::non_uniform(Objective::Max, 3).spec(1.0, 3);
        let strat = view.candidates();
        let by_hand: f64 =
            strat.iter().map(|&l| spec.edge_cost.multiplier(view.sub.to_global(l))).sum::<f64>()
                + 5.0;
        assert!((spec.priced_total(&view, &strat, Some(5)) - by_hand).abs() < 1e-12);
    }
}

//! Diversity reward (paper §4.2): encourage actions that lead to displays
//! unlike anything seen earlier in the session, measured as the minimal
//! Euclidean distance between the new display vector and all previous ones.

use atena_env::{DisplayVector, StepInfo};
use serde::{Deserialize, Serialize};

/// Configuration of the diversity signal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiversityConfig {
    /// Slope of the `1 - exp(-k·d)` squashing applied to the normalized
    /// minimal distance; larger `k` saturates faster.
    pub saturation: f64,
}

impl Default for DiversityConfig {
    fn default() -> Self {
        Self { saturation: 6.0 }
    }
}

/// Minimal Euclidean distance between `vector` and every element of
/// `earlier`, normalized by `sqrt(dim)` so datasets of different widths are
/// comparable. Returns 0 when `earlier` is empty.
pub fn min_distance(vector: &DisplayVector, earlier: &[&DisplayVector]) -> f64 {
    let dim = vector.dim().max(1) as f64;
    earlier
        .iter()
        .map(|e| vector.euclidean_distance(e) / dim.sqrt())
        .fold(f64::INFINITY, f64::min)
        .min(f64::MAX)
        .min(if earlier.is_empty() {
            0.0
        } else {
            f64::INFINITY
        })
}

/// Diversity score of a step in `[0, 1)`: squashed minimal distance to all
/// previously seen display vectors. Operations that fail or revisit an old
/// display earn zero (their distance to that display is zero).
pub fn step_diversity(cfg: &DiversityConfig, info: &StepInfo<'_>) -> f64 {
    if !info.outcome.is_applied() {
        return 0.0;
    }
    if info.earlier_vectors.is_empty() {
        return 0.0;
    }
    let d = min_distance(&info.new_display.vector, &info.earlier_vectors);
    1.0 - (-cfg.saturation * d).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atena_dataframe::{AttrRole, CmpOp, DataFrame, Predicate};
    use atena_env::{Display, DisplaySpec, OpOutcome, ResolvedOp};
    use std::f64::consts::FRAC_1_SQRT_2;

    fn base() -> DataFrame {
        DataFrame::builder()
            .int("x", AttrRole::Numeric, (0..50).map(|i| Some(i % 10)))
            .build()
            .unwrap()
    }

    #[test]
    fn revisiting_scores_zero_distance() {
        let b = base();
        let root = Display::root(&b);
        let d = min_distance(&root.vector, &[&root.vector]);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn new_view_scores_positive() {
        let b = base();
        let root = Display::root(&b);
        let filtered = Display::materialize(
            &b,
            DisplaySpec::default().with_predicate(Predicate::new("x", CmpOp::Lt, 3i64)),
        )
        .unwrap();
        let d = min_distance(&filtered.vector, &[&root.vector]);
        assert!(d > 0.0);
        let cfg = DiversityConfig::default();
        let squashed = 1.0 - (-cfg.saturation * d).exp();
        assert!(squashed > 0.0 && squashed < 1.0);
    }

    #[test]
    fn min_over_history() {
        let b = base();
        let root = Display::root(&b);
        let filtered = Display::materialize(
            &b,
            DisplaySpec::default().with_predicate(Predicate::new("x", CmpOp::Lt, 3i64)),
        )
        .unwrap();
        // With the identical display in history the min is zero even though
        // the root is far away.
        let d = min_distance(&filtered.vector, &[&root.vector, &filtered.vector]);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn empty_history_is_zero() {
        let b = base();
        let root = Display::root(&b);
        assert_eq!(min_distance(&root.vector, &[]), 0.0);
    }

    fn vector(values: &str) -> DisplayVector {
        serde_json::from_str(values).unwrap()
    }

    #[test]
    fn min_distance_and_step_diversity_match_hand_computed_values() {
        let new = vector("[1.0, 1.0, 0.0, 0.0]");
        let far = vector("[0.0, 0.0, 0.0, 0.0]");
        let near = vector("[1.0, 0.0, 0.0, 0.0]");
        // ‖new − far‖ / √dim = √2 / √4 = 1/√2
        let got = min_distance(&new, &[&far]);
        assert!((got - FRAC_1_SQRT_2).abs() < 1e-12, "got {got}");
        // min(√2, ‖new − near‖ = 1) / √4 = 0.5
        assert!((min_distance(&new, &[&far, &near]) - 0.5).abs() < 1e-12);

        let b = base();
        let root = Display::root(&b);
        let mut shown = root.clone();
        shown.vector = new;
        let info = StepInfo {
            op: &ResolvedOp::Filter(Predicate::new("x", CmpOp::Lt, 3i64)),
            outcome: &OpOutcome::Applied,
            prev_display: &root,
            new_display: &shown,
            earlier_vectors: vec![&far, &near],
            past_ops: &[],
            step: 1,
            base: &b,
        };
        // 1 − exp(−k·d) with k = 6, d = 0.5: 1 − e^−3 = 0.950212931632136
        let got = step_diversity(&DiversityConfig::default(), &info);
        assert!((got - 0.950212931632136).abs() < 1e-12, "got {got}");
    }
}

//! Interestingness measures (paper §4.2): a conciseness-based signal for
//! group-by operations and a KL-deviation signal for filter operations.

use crate::sigmoid::NormalizedSigmoid;
use atena_env::{Display, OpType, ResolvedOp, StepInfo};
use serde::{Deserialize, Serialize};

/// Configuration of the interestingness measures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterestingnessConfig {
    /// Decreasing sigmoid over `g / r` (groups per underlying tuple):
    /// compact groupings that cover many tuples score high.
    pub group_ratio: NormalizedSigmoid,
    /// Decreasing sigmoid over the number of stacked group-by attributes.
    pub group_attrs: NormalizedSigmoid,
    /// Increasing sigmoid over the maximal KL divergence (bits) between the
    /// filtered display and its predecessor.
    pub filter_kl: NormalizedSigmoid,
    /// Multiplier applied when a grouping is degenerate (fewer than 2
    /// groups): a one-group table conveys nothing.
    pub degenerate_group_scale: f64,
    /// Attributes with more distinct values than this in the reference
    /// display are excluded from the KL deviation (their supports barely
    /// overlap between subsets, so KL on them is noise).
    pub max_kl_support: usize,
}

impl Default for InterestingnessConfig {
    fn default() -> Self {
        Self {
            group_ratio: NormalizedSigmoid::decreasing(0.25, 0.08),
            group_attrs: NormalizedSigmoid::decreasing(2.5, 0.6),
            filter_kl: NormalizedSigmoid::increasing(0.4, 0.25),
            degenerate_group_scale: 0.2,
            max_kl_support: 500,
        }
    }
}

/// Interestingness of a group-by display: `h₁(g/r) · h₂(a)` where `g` is the
/// number of groups, `r` the number of underlying tuples, and `a` the number
/// of grouped attributes — a conciseness measure in the spirit of [9, 17]:
/// compact group-by results covering many tuples are informative and easy to
/// understand.
pub fn group_interestingness(cfg: &InterestingnessConfig, display: &Display) -> f64 {
    let Some(g) = display.grouping.as_ref() else {
        return 0.0;
    };
    let r = display.n_data_rows();
    if r == 0 || g.n_groups == 0 {
        return 0.0;
    }
    let ratio = g.n_groups as f64 / r as f64;
    let score = cfg.group_ratio.eval(ratio) * cfg.group_attrs.eval(g.n_group_attrs as f64);
    if g.n_groups < 2 {
        score * cfg.degenerate_group_scale
    } else {
        score
    }
}

/// Interestingness of a filter display: `h(max_A D_KL(P_A(d_t) ‖ P_A(d_{t-1})))`
/// following the exceptionality measures of [37, 44, 45] — a filter is
/// interesting when the value distributions of the kept subset deviate
/// sharply from the previous display.
///
/// When the display is grouped, the comparison is restricted to the
/// currently aggregated attributes (paper §4.2); distributions are computed
/// over the underlying data views so dimensions always align.
///
/// `exclude` names the filtered attribute itself: a `time < 107` filter
/// trivially (tautologically) shifts the `time` distribution, so the
/// deviation that counts is the one induced in the *other* attributes —
/// the SeeDB-style reading of exceptionality.
pub fn filter_interestingness(
    cfg: &InterestingnessConfig,
    prev: &Display,
    new: &Display,
    exclude: Option<&str>,
) -> f64 {
    if new.n_data_rows() == 0 {
        return 0.0;
    }
    let schema = new.frame.schema();
    let mut attrs: Vec<&str> = if new.spec.is_grouped() {
        new.spec
            .aggregations
            .iter()
            .map(|(_, a)| a.as_str())
            .collect()
    } else {
        schema.fields().iter().map(|f| f.name.as_str()).collect()
    };
    // Drop the tautological self-deviation — unless it is the only
    // attribute under examination (a grouped display aggregating exactly
    // the filtered column), where the deviation is still the display's
    // content.
    if let Some(ex) = exclude {
        if attrs.iter().any(|a| *a != ex) {
            attrs.retain(|a| *a != ex);
        }
    }
    let mut max_kl: f64 = 0.0;
    for attr in attrs {
        // Near-unique columns (ports, timestamps, identifiers) make any two
        // subsets look divergent because their supports barely overlap; KL
        // on them is noise, not exceptionality. Only compare attributes
        // whose reference distribution is genuinely categorical-shaped.
        if let Ok(stats) = prev.frame.column_stats(attr) {
            if stats.n_distinct > cfg.max_kl_support || stats.distinct_ratio() > 0.3 {
                continue;
            }
        }
        // The shared (Arc-memoized) variant: distributions for a frame are
        // computed once and reused across steps, lanes, and the display
        // cache — the dominant cost of this reward on repeated prefixes.
        let (Ok(p_new), Ok(p_prev)) = (
            new.frame.value_distribution_shared(attr),
            prev.frame.value_distribution_shared(attr),
        ) else {
            continue;
        };
        if p_new.is_empty() {
            continue;
        }
        max_kl = max_kl.max(p_new.kl_divergence(&p_prev));
    }
    cfg.filter_kl.eval(max_kl)
}

/// Interestingness of one step, dispatched on the operation type. BACK and
/// invalid operations earn zero.
pub fn step_interestingness(cfg: &InterestingnessConfig, info: &StepInfo<'_>) -> f64 {
    if !info.outcome.is_applied() {
        return 0.0;
    }
    match info.op.op_type() {
        OpType::Back => 0.0,
        OpType::Group => {
            // A GROUP that adds no new key (same grouping, rotated
            // aggregate) re-displays a view the user has already seen; its
            // conciseness conveys nothing new and earns nothing — otherwise
            // the agent can farm the same compact grouping every step.
            if info.prev_display.spec.group_keys == info.new_display.spec.group_keys
                && info.prev_display.spec.is_grouped()
            {
                0.0
            } else {
                group_interestingness(cfg, info.new_display)
            }
        }
        OpType::Filter => {
            let filtered_attr = match info.op {
                ResolvedOp::Filter(p) => Some(p.attr.as_str()),
                _ => None,
            };
            filter_interestingness(cfg, info.prev_display, info.new_display, filtered_attr)
        }
    }
}

/// Interestingness of a display reached by an arbitrary (replayed) op — used
/// by the benchmark and the greedy baselines when re-scoring notebooks.
pub fn display_interestingness(
    cfg: &InterestingnessConfig,
    op: &ResolvedOp,
    prev: &Display,
    new: &Display,
) -> f64 {
    match op {
        ResolvedOp::Back => 0.0,
        ResolvedOp::Group { .. } => group_interestingness(cfg, new),
        ResolvedOp::Filter(p) => filter_interestingness(cfg, prev, new, Some(p.attr.as_str())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atena_dataframe::{AggFunc, AttrRole, CmpOp, DataFrame, Predicate};
    use atena_env::{DisplaySpec, GroupingInfo};

    fn base() -> DataFrame {
        // 100 rows: protocol heavily skewed toward "tcp" except a block of
        // "icmp" rows with high port values.
        let protocols: Vec<Option<&str>> = (0..100)
            .map(|i| Some(if i < 80 { "tcp" } else { "icmp" }))
            .collect();
        let ports: Vec<Option<i64>> = (0..100)
            .map(|i| {
                Some(if i < 80 {
                    (i % 5) as i64
                } else {
                    9000 + i as i64
                })
            })
            .collect();
        DataFrame::builder()
            .str("protocol", AttrRole::Categorical, protocols)
            .int("port", AttrRole::Numeric, ports)
            .build()
            .unwrap()
    }

    #[test]
    fn compact_grouping_beats_shattered() {
        let cfg = InterestingnessConfig::default();
        let b = base();
        let compact = Display::materialize(
            &b,
            DisplaySpec::default().with_grouping("protocol".into(), AggFunc::Count, "port".into()),
        )
        .unwrap();
        let shattered = Display::materialize(
            &b,
            DisplaySpec::default().with_grouping("port".into(), AggFunc::Count, "port".into()),
        )
        .unwrap();
        let c = group_interestingness(&cfg, &compact);
        let s = group_interestingness(&cfg, &shattered);
        assert!(c > s, "compact {c} should beat shattered {s}");
        assert!(c > 0.5);
    }

    #[test]
    fn stacked_group_attrs_reduce_score() {
        let cfg = InterestingnessConfig::default();
        // Same g/r, different attribute counts.
        let one = cfg.group_ratio.eval(0.05) * cfg.group_attrs.eval(1.0);
        let five = cfg.group_ratio.eval(0.05) * cfg.group_attrs.eval(5.0);
        assert!(one > five * 2.0);
    }

    #[test]
    fn single_group_degenerate() {
        let cfg = InterestingnessConfig::default();
        let b = DataFrame::builder()
            .str("k", AttrRole::Categorical, vec![Some("a"); 50])
            .int("v", AttrRole::Numeric, (0..50).map(Some))
            .build()
            .unwrap();
        let d = Display::materialize(
            &b,
            DisplaySpec::default().with_grouping("k".into(), AggFunc::Avg, "v".into()),
        )
        .unwrap();
        let score = group_interestingness(&cfg, &d);
        assert!(
            score < 0.25,
            "one-group display should score low, got {score}"
        );
    }

    #[test]
    fn group_interestingness_matches_hand_computed_values() {
        let cfg = InterestingnessConfig::default();
        // r = 100 data rows; the group shape is set by hand.
        let mut d = Display::root(&base());
        let shape = |n_groups, n_group_attrs| GroupingInfo {
            n_groups,
            size_mean: 0.0,
            size_variance: 0.0,
            n_group_attrs,
        };
        // g = 5, a = 2: h₁(g/r) · h₂(a) with
        //   h₁(x) = 1 / (1 + exp((x − 0.25) / 0.08)): h₁(0.05) = 1 / (1 + e^−2.5)
        //   h₂(a) = 1 / (1 + exp((a − 2.5) / 0.6)):   h₂(2)    = 1 / (1 + e^−5/6)
        //   0.9241418199787566 · 0.6970592839654074 = 0.6441816353168804
        d.grouping = Some(shape(5, 2));
        let got = group_interestingness(&cfg, &d);
        assert!((got - 0.6441816353168804).abs() < 1e-12, "got {got}");
        // g = 1 < 2 groups, a = 1: 0.2 · h₁(0.01) · h₂(1)
        //   = 0.2 · 1 / (1 + e^−3) · 1 / (1 + e^−2.5)
        //   = 0.2 · 0.9525741268224334 · 0.9241418199787566 = 0.1760627174452717
        d.grouping = Some(shape(1, 1));
        let got = group_interestingness(&cfg, &d);
        assert!((got - 0.1760627174452717).abs() < 1e-12, "got {got}");
    }

    #[test]
    fn filter_interestingness_matches_hand_computed_kl() {
        let cfg = InterestingnessConfig::default();
        let col = |values: &[&'static str]| values.iter().map(|&v| Some(v)).collect::<Vec<_>>();
        let b = DataFrame::builder()
            .str(
                "a",
                AttrRole::Categorical,
                col(&["x", "x", "x", "x", "y", "y", "y", "y"]),
            )
            .str(
                "b",
                AttrRole::Categorical,
                col(&["p", "p", "p", "p", "p", "p", "q", "q"]),
            )
            .build()
            .unwrap();
        let root = Display::root(&b);
        let kept = Display::materialize(
            &b,
            DisplaySpec::default().with_predicate(Predicate::new("a", CmpOp::Eq, "y")),
        )
        .unwrap();
        // The filtered attribute `a` is excluded, leaving `b`:
        //   P_b before = {p: 3/4, q: 1/4}, after = {p: 1/2, q: 1/2}
        //   D_KL = ½·log₂(½ / ¾) + ½·log₂(½ / ¼) = 0.20751874963942185 bits
        //   h(D) = 1 / (1 + exp(−(D − 0.4) / 0.25)) = 0.31649533018109555
        let got = filter_interestingness(&cfg, &root, &kept, Some("a"));
        assert!((got - 0.31649533018109555).abs() < 1e-12, "got {got}");
    }

    #[test]
    fn surprising_filter_beats_bland_filter() {
        let cfg = InterestingnessConfig::default();
        let b = base();
        let root = Display::root(&b);
        // Selecting the icmp minority shifts both distributions sharply.
        let surprising = Display::materialize(
            &b,
            DisplaySpec::default().with_predicate(Predicate::new("protocol", CmpOp::Eq, "icmp")),
        )
        .unwrap();
        // Selecting 99% of rows barely changes anything.
        let bland = Display::materialize(
            &b,
            DisplaySpec::default().with_predicate(Predicate::new("port", CmpOp::Ge, 0i64)),
        )
        .unwrap();
        let s = filter_interestingness(&cfg, &root, &surprising, Some("protocol"));
        let l = filter_interestingness(&cfg, &root, &bland, Some("port"));
        assert!(s > l, "surprising {s} vs bland {l}");
        assert!(s > 0.5);
        assert!(l < 0.3);
    }

    #[test]
    fn empty_filter_scores_zero() {
        let cfg = InterestingnessConfig::default();
        let b = base();
        let root = Display::root(&b);
        let empty = Display::materialize(
            &b,
            DisplaySpec::default().with_predicate(Predicate::new("port", CmpOp::Gt, 999999i64)),
        )
        .unwrap();
        assert_eq!(
            filter_interestingness(&cfg, &root, &empty, Some("port")),
            0.0
        );
    }

    #[test]
    fn back_scores_zero_via_display_interestingness() {
        let cfg = InterestingnessConfig::default();
        let b = base();
        let root = Display::root(&b);
        assert_eq!(
            display_interestingness(&cfg, &ResolvedOp::Back, &root, &root),
            0.0
        );
    }

    #[test]
    fn grouped_filter_uses_aggregated_attrs() {
        let cfg = InterestingnessConfig::default();
        let b = base();
        let grouped_spec =
            DisplaySpec::default().with_grouping("protocol".into(), AggFunc::Avg, "port".into());
        let prev = Display::materialize(&b, grouped_spec.clone()).unwrap();
        let new = Display::materialize(
            &b,
            grouped_spec.with_predicate(Predicate::new("port", CmpOp::Ge, 9000i64)),
        )
        .unwrap();
        // Port distribution shifts drastically once tcp rows are dropped.
        let s = filter_interestingness(&cfg, &prev, &new, Some("port"));
        assert!(s > 0.5, "got {s}");
    }
}

//! Replays recorded operations through the public functions of the
//! dataframe, env, reward and nn crates, one span per call, so the traced
//! run can split an env step into the layers it is built from.

use crate::stats::Spans;
use atena_dataframe::{AggFunc, CmpOp, DataFrame};
use atena_env::{Display, DisplayVector, EdaAction, EdaEnv, FrequencyBins, ResolvedOp};
use atena_nn::Tensor;
use atena_reward::{
    step_diversity, step_interestingness, CompoundReward, DiversityConfig, InterestingnessConfig,
};
use atena_rl::{Policy, TwofoldPolicy};

/// What a replay step records besides the display materialization.
pub struct StepLayers<'a> {
    /// Score applied steps with the three reward terms.
    pub reward: Option<&'a CompoundReward>,
    /// Run one policy forward per step at this temperature.
    pub policy: Option<(&'a TwofoldPolicy, f32)>,
    /// Time `EdaEnv::resolve` on the index-form action behind each op.
    pub resolve: bool,
    /// Time `EdaEnv::preview` of each op.
    pub preview: bool,
}

/// Replay one episode's operations from the environment's root display.
pub fn replay_episode(
    env: &mut EdaEnv,
    ops: &[ResolvedOp],
    layers: &StepLayers,
    spans: &mut Spans,
) {
    env.reset();
    for op in ops {
        if let Some((policy, temperature)) = layers.policy {
            let obs = env.observation();
            let row = Tensor::from_vec(1, obs.len(), obs);
            let _ = spans.time("nn.forward", || policy.forward_rows(&row, temperature));
            spans.add("nn.forward.rows", 1.0);
        }
        let current = env.session().current().clone();
        if layers.resolve {
            let action = action_of(env, &current, op);
            spans.time("env.resolve", || env.resolve(&action));
        }
        materialize(env.base(), &current, op, env.config().n_bins, spans);
        let preview = if layers.preview {
            spans.time("env.preview", || env.preview(op))
        } else {
            env.preview(op)
        };
        if let Some(reward) = layers.reward {
            let info = env.step_info(&preview);
            if info.outcome.is_applied() {
                spans.time("reward.interestingness", || {
                    step_interestingness(&InterestingnessConfig::default(), &info)
                });
                spans.time("reward.diversity", || {
                    step_diversity(&DiversityConfig::default(), &info)
                });
                spans.time("reward.coherency", || reward.classifier().score(&info));
            }
        }
        env.commit(preview);
    }
}

/// Rebuild, uncached and piece by piece, the display `op` produces from
/// `current`: the frequency bins a filter samples its term from, the
/// filter or group-by kernel, the column statistics of a new data view,
/// and the display-vector encoding.
fn materialize(
    base: &DataFrame,
    current: &Display,
    op: &ResolvedOp,
    n_bins: usize,
    spans: &mut Spans,
) {
    match op {
        ResolvedOp::Filter(pred) => {
            let Ok(column) = current.frame.column(&pred.attr) else {
                return;
            };
            spans.time("env.bins", || FrequencyBins::build(column, n_bins));
            let rows = current.frame.n_rows();
            let filtered = spans.time("dataframe.filter", || current.frame.filter(pred));
            spans.add("dataframe.filter.rows", rows as f64);
            if let Ok(frame) = filtered {
                spans.time("dataframe.stats", || frame.all_column_stats());
                let spec = current.spec.with_predicate(pred.clone());
                // Statistics are memoized on the frame by now, so this
                // span is the encoding alone.
                spans.time("env.display.encode", || {
                    DisplayVector::encode(base, &frame, &spec, None)
                });
            }
        }
        ResolvedOp::Group { key, func, agg } => {
            let spec = current.spec.with_grouping(key.clone(), *func, agg.clone());
            let keys: Vec<&str> = spec.group_keys.iter().map(String::as_str).collect();
            let aggs: Vec<(AggFunc, &str)> = spec
                .aggregations
                .iter()
                .map(|(f, a)| (*f, a.as_str()))
                .collect();
            // An invalid grouping fails here as it does in the env.
            let _ = spans.time("dataframe.group", || {
                current.frame.group_aggregate_multi(&keys, &aggs)
            });
            // Group-shape globals change three numbers of the vector, not
            // the work of encoding it.
            spans.time("env.display.encode", || {
                DisplayVector::encode(base, &current.frame, &spec, None)
            });
        }
        ResolvedOp::Back => {}
    }
}

/// The index-form action the policy chose to produce `op` from `current`.
fn action_of(env: &EdaEnv, current: &Display, op: &ResolvedOp) -> EdaAction {
    let attr = |name: &str| {
        env.action_space()
            .attrs()
            .iter()
            .position(|a| a == name)
            .unwrap_or(0)
    };
    match op {
        ResolvedOp::Back => EdaAction::Back,
        ResolvedOp::Group { key, func, agg } => EdaAction::Group {
            key: attr(key),
            func: AggFunc::ALL.iter().position(|f| f == func).unwrap_or(0),
            agg: attr(agg),
        },
        ResolvedOp::Filter(pred) => {
            let n_bins = env.config().n_bins;
            let bin = current
                .frequency_bins(&pred.attr, n_bins)
                .and_then(|bins| (0..bins.n_bins()).find(|&b| bins.bin(b).contains(&pred.term)))
                .unwrap_or(0);
            EdaAction::Filter {
                attr: attr(&pred.attr),
                op: CmpOp::ALL.iter().position(|o| *o == pred.op).unwrap_or(0),
                bin,
            }
        }
    }
}

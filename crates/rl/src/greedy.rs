//! Greedy non-learned baselines (paper §6.1):
//!
//! - **Greedy-IO** — at each step, evaluate the interestingness of every
//!   possible operation and pick the maximum (baseline 3A);
//! - **Greedy-CR** — the same one-step lookahead but over the full compound
//!   reward (baseline 4C).
//!
//! Both share [`greedy_episode`]; the difference is the reward model passed
//! in.

use crate::trainer::EpisodeRecord;
use atena_env::{EdaEnv, PreviewedStep, RewardBreakdown, RewardModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Run one full greedy episode: at every step, preview every candidate
/// action, score it with `reward`, and commit the argmax — exactly the term
/// draw it scored. `seed` seeds the term sampling.
pub fn greedy_episode(env: &mut EdaEnv, reward: &dyn RewardModel, seed: u64) -> EpisodeRecord {
    env.reset_with_seed(seed);
    let mut breakdown = RewardBreakdown::default();
    while !env.done() {
        let mut best: Option<(f64, PreviewedStep)> = None;
        for action in &env.action_space().enumerate_binned() {
            let op = env.resolve(action);
            let preview = env.preview(&op);
            let score = {
                let info = env.step_info(&preview);
                reward.score(&info).total
            };
            // Deterministic tie-break: strictly greater wins, first seen kept.
            if best.as_ref().is_none_or(|(b, _)| score > *b) {
                best = Some((score, preview));
            }
        }
        let (_score, preview) = best.expect("candidate set is never empty (BACK always exists)");
        // Re-score the winner once to keep the full decomposition (the
        // candidate loop only tracked totals).
        breakdown += {
            let info = env.step_info(&preview);
            reward.score(&info)
        };
        env.commit(preview);
    }
    EpisodeRecord {
        ops: env.session().ops().iter().map(|o| o.op.clone()).collect(),
        total_reward: breakdown.total,
        breakdown,
    }
}

/// Run a *random*-policy episode (used as a floor in convergence plots and
/// for reward-probe statistics).
pub fn random_episode(env: &mut EdaEnv, reward: &dyn RewardModel, seed: u64) -> EpisodeRecord {
    let mut rng = StdRng::seed_from_u64(seed);
    env.reset_with_seed(rng.gen());
    let mut breakdown = RewardBreakdown::default();
    while !env.done() {
        let action = atena_reward::random_action(env, &mut rng);
        let op = env.resolve(&action);
        let preview = env.preview(&op);
        breakdown += {
            let info = env.step_info(&preview);
            reward.score(&info)
        };
        env.commit(preview);
    }
    EpisodeRecord {
        ops: env.session().ops().iter().map(|o| o.op.clone()).collect(),
        total_reward: breakdown.total,
        breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atena_dataframe::{AttrRole, DataFrame};
    use atena_env::EnvConfig;
    use atena_reward::{CoherencyConfig, CompoundReward, RewardComponents};

    fn base() -> DataFrame {
        DataFrame::builder()
            .str(
                "proto",
                AttrRole::Categorical,
                (0..50).map(|i| Some(if i % 4 == 0 { "udp" } else { "tcp" })),
            )
            .int(
                "len",
                AttrRole::Numeric,
                (0..50).map(|i| Some((i % 7) as i64)),
            )
            .build()
            .unwrap()
    }

    fn env() -> EdaEnv {
        EdaEnv::new(
            base(),
            EnvConfig {
                episode_len: 4,
                n_bins: 4,
                history_window: 3,
                seed: 0,
            },
        )
    }

    fn reward() -> CompoundReward {
        let mut r = CompoundReward::new(CoherencyConfig::with_focal_attrs(vec![]));
        let mut e = env();
        r.fit(&mut e, 80, 0);
        r
    }

    #[test]
    fn greedy_completes_episode() {
        let mut e = env();
        let r = reward();
        let ep = greedy_episode(&mut e, &r, 0);
        assert_eq!(ep.ops.len(), 4);
        assert!(ep.total_reward.is_finite());
    }

    #[test]
    fn greedy_beats_random_on_average() {
        let mut e = env();
        let r = reward();
        let greedy = greedy_episode(&mut e, &r, 0).total_reward;
        let mut random_sum = 0.0;
        for seed in 0..8 {
            random_sum += random_episode(&mut e, &r, seed).total_reward;
        }
        let random_mean = random_sum / 8.0;
        assert!(
            greedy > random_mean,
            "greedy {greedy:.3} should beat random mean {random_mean:.3}"
        );
    }

    #[test]
    fn greedy_io_differs_from_greedy_cr() {
        let mut e = env();
        let cr = reward();
        let io = CompoundReward::new(CoherencyConfig::default())
            .with_components(RewardComponents::interestingness_only());
        let ep_cr = greedy_episode(&mut e, &cr, 0);
        let ep_io = greedy_episode(&mut e, &io, 0);
        // The two objectives generally select different operation sequences.
        assert_ne!(ep_cr.ops, ep_io.ops);
    }

    #[test]
    fn greedy_is_deterministic_given_seed() {
        let mut e = env();
        let r = reward();
        let a = greedy_episode(&mut e, &r, 9);
        let b = greedy_episode(&mut e, &r, 9);
        assert_eq!(a.ops, b.ops);
    }
}

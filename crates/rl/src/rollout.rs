//! Rollout storage and generalized advantage estimation.

use crate::policy::ActionChoice;
use serde::{Deserialize, Serialize};

/// One recorded environment step.
#[derive(Debug, Clone)]
pub struct RolloutStep {
    /// Observation the action was taken at.
    pub obs: Vec<f32>,
    /// The policy's choice.
    pub choice: ActionChoice,
    /// Log-probability at collection time (for the PPO ratio).
    pub log_prob: f32,
    /// Critic value estimate at collection time.
    pub value: f32,
    /// Reward received.
    pub reward: f32,
    /// True if this step ended the episode.
    pub done: bool,
}

/// A batch of steps from one or more episodes/workers, in collection order
/// (episode boundaries marked by `done`).
#[derive(Debug, Clone, Default)]
pub struct RolloutBuffer {
    steps: Vec<RolloutStep>,
}

impl RolloutBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one step.
    pub fn push(&mut self, step: RolloutStep) {
        self.steps.push(step);
    }

    /// Append all steps of another buffer.
    pub fn extend(&mut self, other: RolloutBuffer) {
        self.steps.extend(other.steps);
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if no steps are stored.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Stored steps.
    pub fn steps(&self) -> &[RolloutStep] {
        &self.steps
    }

    /// Drop all steps.
    pub fn clear(&mut self) {
        self.steps.clear();
    }

    /// Compute per-step returns and GAE(λ) advantages.
    ///
    /// Episodes in the EDA environment are finite (`N` operations) and every
    /// recorded segment ends at an episode boundary, so no bootstrap value is
    /// needed beyond the terminal.
    pub fn advantages(&self, gamma: f32, lambda: f32) -> AdvantageEstimates {
        let n = self.steps.len();
        let mut advantages = vec![0.0f32; n];
        let mut returns = vec![0.0f32; n];
        let mut next_value = 0.0f32;
        let mut next_advantage = 0.0f32;
        for i in (0..n).rev() {
            let s = &self.steps[i];
            if s.done {
                next_value = 0.0;
                next_advantage = 0.0;
            }
            let delta = s.reward + gamma * next_value - s.value;
            let adv = delta + gamma * lambda * next_advantage;
            advantages[i] = adv;
            returns[i] = adv + s.value;
            next_value = s.value;
            next_advantage = adv;
        }
        AdvantageEstimates {
            advantages,
            returns,
        }
    }
}

/// Advantages and returns aligned with the buffer's steps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdvantageEstimates {
    /// GAE(λ) advantages.
    pub advantages: Vec<f32>,
    /// Discounted returns (`advantage + value`).
    pub returns: Vec<f32>,
}

impl AdvantageEstimates {
    /// Normalize advantages to zero mean / unit variance (standard PPO
    /// stabilization). No-op for fewer than 2 samples.
    pub fn normalize_advantages(&mut self) {
        let n = self.advantages.len();
        if n < 2 {
            return;
        }
        let mean = self.advantages.iter().sum::<f32>() / n as f32;
        let var = self
            .advantages
            .iter()
            .map(|a| (a - mean).powi(2))
            .sum::<f32>()
            / n as f32;
        let std = var.sqrt().max(1e-6);
        for a in &mut self.advantages {
            *a = (*a - mean) / std;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(reward: f32, value: f32, done: bool) -> RolloutStep {
        RolloutStep {
            obs: vec![0.0],
            choice: ActionChoice::Flat { index: 0 },
            log_prob: 0.0,
            value,
            reward,
            done,
        }
    }

    #[test]
    fn montecarlo_returns_when_lambda_one() {
        let mut buf = RolloutBuffer::new();
        buf.push(step(1.0, 0.0, false));
        buf.push(step(1.0, 0.0, false));
        buf.push(step(1.0, 0.0, true));
        let est = buf.advantages(1.0, 1.0);
        // With zero values and γ=λ=1, returns are suffix sums of rewards.
        assert_eq!(est.returns, vec![3.0, 2.0, 1.0]);
        assert_eq!(est.advantages, est.returns);
    }

    #[test]
    fn discounting() {
        let mut buf = RolloutBuffer::new();
        buf.push(step(0.0, 0.0, false));
        buf.push(step(2.0, 0.0, true));
        let est = buf.advantages(0.5, 1.0);
        assert_eq!(est.returns, vec![1.0, 2.0]);
    }

    #[test]
    fn episode_boundaries_reset() {
        let mut buf = RolloutBuffer::new();
        buf.push(step(5.0, 0.0, true)); // episode 1
        buf.push(step(1.0, 0.0, true)); // episode 2
        let est = buf.advantages(1.0, 1.0);
        // No leakage from episode 2 into episode 1.
        assert_eq!(est.returns, vec![5.0, 1.0]);
    }

    #[test]
    fn gae_with_perfect_critic_is_zero_advantage() {
        // If V(s) equals the true return everywhere, deltas vanish.
        let mut buf = RolloutBuffer::new();
        buf.push(step(1.0, 3.0, false));
        buf.push(step(1.0, 2.0, false));
        buf.push(step(1.0, 1.0, true));
        let est = buf.advantages(1.0, 0.95);
        for a in est.advantages {
            assert!(a.abs() < 1e-6, "advantage {a}");
        }
    }

    #[test]
    fn gae_matches_hand_computed_values() {
        let mut buf = RolloutBuffer::new();
        buf.push(step(1.0, 0.5, false));
        buf.push(step(0.0, 0.25, false));
        buf.push(step(2.0, 1.0, true));
        let est = buf.advantages(0.9, 0.5);
        // δₜ = rₜ + γ·V(sₜ₊₁) − V(sₜ),  Aₜ = δₜ + γλ·Aₜ₊₁,  Rₜ = Aₜ + V(sₜ); γλ = 0.45
        //   δ₂ = 2 − 1 = 1                  A₂ = 1                  R₂ = 2
        //   δ₁ = 0 + 0.9·1 − 0.25 = 0.65    A₁ = 0.65 + 0.45·1 = 1.1    R₁ = 1.35
        //   δ₀ = 1 + 0.9·0.25 − 0.5 = 0.725 A₀ = 0.725 + 0.45·1.1 = 1.22 R₀ = 1.72
        let expected_adv = [1.22f32, 1.1, 1.0];
        let expected_ret = [1.72f32, 1.35, 2.0];
        for i in 0..3 {
            assert!(
                (est.advantages[i] - expected_adv[i]).abs() < 1e-6,
                "{est:?}"
            );
            assert!((est.returns[i] - expected_ret[i]).abs() < 1e-6, "{est:?}");
        }
    }

    #[test]
    fn normalization() {
        let mut est = AdvantageEstimates {
            advantages: vec![1.0, 2.0, 3.0, 4.0],
            returns: vec![0.0; 4],
        };
        est.normalize_advantages();
        let mean: f32 = est.advantages.iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
        let var: f32 = est
            .advantages
            .iter()
            .map(|a| (a - mean).powi(2))
            .sum::<f32>()
            / 4.0;
        assert!((var - 1.0).abs() < 1e-4);

        // Tiny inputs are left alone.
        let mut single = AdvantageEstimates {
            advantages: vec![7.0],
            returns: vec![0.0],
        };
        single.normalize_advantages();
        assert_eq!(single.advantages, vec![7.0]);
    }

    #[test]
    fn extend_and_clear() {
        let mut a = RolloutBuffer::new();
        a.push(step(1.0, 0.0, true));
        let mut b = RolloutBuffer::new();
        b.push(step(2.0, 0.0, true));
        a.extend(b);
        assert_eq!(a.len(), 2);
        a.clear();
        assert!(a.is_empty());
    }
}

//! # atena-env
//!
//! The episodic MDP environment for exploratory data analysis (paper §3–4):
//!
//! - a parameterized **action space** `{FILTER, GROUP, BACK}` with per-
//!   parameter value domains ([`ActionSpace`], [`EdaAction`]);
//! - **logarithmic frequency binning** of filter terms ([`FrequencyBins`],
//!   paper §5), so the agent chooses a frequency range instead of a token;
//! - **displays** and their fixed-size numeric encodings ([`Display`],
//!   [`DisplayVector`]);
//! - a **session tree** with BACK semantics ([`SessionTree`]);
//! - a **content-addressed display cache** ([`DisplayCache`]) memoizing
//!   materialized displays by `(dataset fingerprint, operation path)` across
//!   rollout lanes and server requests (DESIGN.md §4i);
//! - the environment itself ([`EdaEnv`]) with a resolve → preview → commit
//!   step pipeline that supports both RL training and greedy lookahead
//!   baselines, and a [`RewardModel`] trait implemented by `atena-reward`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod binning;
mod cache;
mod display;
mod env;
mod session;

pub use action::{ActionSpace, EdaAction, FlatTermAction, HeadSizes, OpType, ResolvedOp};
pub use binning::FrequencyBins;
pub use cache::{display_key, DisplayCache, DisplayCacheStats, LruCache};
pub use display::{Display, DisplaySpec, DisplayVector, GroupingInfo};
pub use env::{
    EdaEnv, EnvConfig, NullReward, PreviewedStep, RewardBreakdown, RewardModel, StepInfo,
};
pub use session::{AppliedOp, OpOutcome, SessionTree};

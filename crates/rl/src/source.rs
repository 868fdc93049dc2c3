//! The rollout engine: where the trainer's experience comes from.
//!
//! [`ParallelRollouts`] owns a fleet of episode *lanes* — independent
//! [`EdaEnv`]s that persist across iterations — shards them over an
//! [`atena_runtime::Runtime`], and collects one iteration's worth of
//! trajectory fragments on demand. Within a shard all lanes advance in
//! lockstep, one batched policy forward per env step. The serial schedule
//! is simply `workers = 1`. The determinism contract (DESIGN.md §4h) is
//! enforced here:
//!
//! - lane `l`'s randomness at iteration `k` comes from the counter-derived
//!   stream `stream_seed(base_seed, l, k)` — never from a shared stateful
//!   RNG, so it cannot depend on scheduling;
//! - the batched forward is row-independent (DESIGN.md §4l), so a lane's
//!   step does not depend on which lanes shared its forward;
//! - fragments are merged in lane order, so the buffer layout depends
//!   only on `(n_lanes, rollout_len)`.
//!
//! Worker count, row cap, and display-cache capacity therefore change
//! speed, never transcripts.

use crate::policy::{ActionMapper, MappedAction, Policy, PolicyStep};
use crate::rollout::{RolloutBuffer, RolloutStep};
use crate::trainer::EpisodeRecord;
use atena_batch::BatchPlanner;
use atena_dataframe::DataFrame;
use atena_env::{DisplayCache, EdaEnv, EnvConfig, RewardBreakdown, RewardModel};
use atena_runtime::{stream_seed, Runtime, ScatterProfile, STREAM_ENV, STREAM_INIT};
use atena_telemetry::MetricsRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Everything a source needs to collect one iteration of experience.
///
/// Borrowed, not owned: the plan is rebuilt by the trainer each iteration
/// with the current temperature and iteration counter.
pub struct RolloutPlan<'a> {
    /// The policy to sample actions from (read-only snapshot).
    pub policy: &'a dyn Policy,
    /// Decodes policy choices into environment actions.
    pub mapper: &'a ActionMapper,
    /// Scores each transition.
    pub reward: &'a dyn RewardModel,
    /// Steps to collect per lane.
    pub rollout_len: usize,
    /// Boltzmann exploration temperature.
    pub temperature: f32,
    /// Master seed the per-lane streams are derived from.
    pub base_seed: u64,
    /// Training iteration counter (selects the per-lane RNG stream).
    pub iteration: u64,
}

/// One episode lane: an environment plus the running reward breakdown of
/// its current episode, which survives across iteration boundaries
/// (episodes need not align with rollout fragments).
struct Lane {
    env: EdaEnv,
    episode_breakdown: RewardBreakdown,
}

impl Lane {
    /// Apply one sampled step to this lane: step the environment, extend
    /// `buffer`, and on episode end record it in `episodes` and reset the
    /// environment with a seed drawn from `rng`.
    fn advance(
        &mut self,
        obs: Vec<f32>,
        step: PolicyStep,
        plan: &RolloutPlan<'_>,
        rng: &mut StdRng,
        buffer: &mut RolloutBuffer,
        episodes: &mut Vec<EpisodeRecord>,
    ) {
        let mapped = plan.mapper.map(&step.choice);
        let r = step_env(&mut self.env, &mapped, plan.reward);
        self.episode_breakdown += r;
        let done = self.env.done();
        buffer.push(RolloutStep {
            obs,
            choice: step.choice,
            log_prob: step.log_prob,
            value: step.value,
            reward: r.total as f32,
            done,
        });
        if done {
            episodes.push(episode_record(&self.env, self.episode_breakdown));
            self.episode_breakdown = RewardBreakdown::default();
            let seed = rng.gen();
            self.env.reset_with_seed(seed);
        }
    }
}

/// A supplier of rollout experience over a fixed fleet of lanes.
///
/// Implementations must uphold the determinism contract: `collect`'s
/// output is a pure function of the lane states and the plan — in
/// particular it must not depend on how many threads executed it.
pub trait RolloutSource: Send {
    /// Collect `rollout_len` steps from every lane; fragments merged in
    /// lane order.
    fn collect(&mut self, plan: &RolloutPlan<'_>) -> (RolloutBuffer, Vec<EpisodeRecord>);

    /// Number of episode lanes.
    fn n_lanes(&self) -> usize;

    /// Mutable access to one lane's environment (used for evaluation
    /// episodes, which borrow lane 0).
    fn lane_env_mut(&mut self, lane: usize) -> &mut EdaEnv;

    /// Reroute any metrics this source records to `registry`.
    fn set_telemetry(&mut self, registry: Arc<MetricsRegistry>);

    /// Timing profile of the most recent `collect` (per-worker busy time,
    /// merge cost). Read-only observability: feeding it anywhere back into
    /// collection would break the determinism contract.
    fn scatter_profile(&self) -> Option<ScatterProfile>;
}

/// Default capacity of the display cache a rollout source shares across
/// its lanes (see [`DisplayCache`]; 0 disables caching).
pub const DEFAULT_DISPLAY_CACHE: usize = 1024;

/// Build the lane fleet: one cheap fork of a template environment per
/// lane (shared base frame, shared action-space construction, shared
/// display cache when one is given), each with its own counter-derived
/// config seed and initial episode seed.
fn make_lanes(
    base: &DataFrame,
    env_config: &EnvConfig,
    n_lanes: usize,
    base_seed: u64,
    cache: Option<&Arc<DisplayCache>>,
) -> Vec<Lane> {
    let mut template_config = env_config.clone();
    template_config.seed = stream_seed(base_seed, 0, STREAM_ENV);
    let mut template = EdaEnv::with_shared_base(Arc::new(base.clone()), template_config);
    if let Some(cache) = cache {
        template = template.with_display_cache(Arc::clone(cache));
    }
    (0..n_lanes.max(1))
        .map(|lane| {
            let lane = lane as u64;
            let mut env = template.fork_with_seed(stream_seed(base_seed, lane, STREAM_ENV));
            env.reset_with_seed(stream_seed(base_seed, lane, STREAM_INIT));
            Lane {
                env,
                episode_breakdown: RewardBreakdown::default(),
            }
        })
        .collect()
}

/// Apply a mapped action to the environment, scoring it with the reward
/// model; returns the per-component reward breakdown.
pub(crate) fn step_env(
    env: &mut EdaEnv,
    action: &MappedAction,
    reward: &dyn RewardModel,
) -> RewardBreakdown {
    // atena-lint: allow(wall-clock) — rollout timing telemetry; never affects results
    let start = Instant::now();
    let op = match action {
        MappedAction::Binned(a) => env.resolve(a),
        MappedAction::Term(a) => env.resolve_flat_term(a),
    };
    let preview = env.preview(&op);
    let r = {
        let info = env.step_info(&preview);
        reward.score(&info)
    };
    env.commit(preview);
    env.step_latency_histogram()
        .record_duration(start.elapsed());
    r
}

/// Snapshot the environment's completed session as an [`EpisodeRecord`].
pub(crate) fn episode_record(env: &EdaEnv, breakdown: RewardBreakdown) -> EpisodeRecord {
    EpisodeRecord {
        ops: env.session().ops().iter().map(|o| o.op.clone()).collect(),
        total_reward: breakdown.total,
        breakdown,
    }
}

/// The RNG stream of lane `lane_id` at the plan's iteration.
fn lane_rng(plan: &RolloutPlan<'_>, lane_id: usize) -> StdRng {
    StdRng::seed_from_u64(stream_seed(plan.base_seed, lane_id as u64, plan.iteration))
}

/// Collect one fragment from every lane of a shard, stepping all lanes
/// in lockstep through **one batched policy forward per env step** over
/// the whole shard.
///
/// Bit-identical to stepping each lane alone with one-row forwards: each
/// lane keeps its own counter-seeded RNG and [`crate::PolicyRow::sample`]
/// draws from it in exactly the order a one-row act would, while the
/// batched forward itself is row-independent (DESIGN.md §4l).
fn run_shard(
    lanes: &mut [Lane],
    first_lane_id: usize,
    plan: &RolloutPlan<'_>,
) -> Vec<(RolloutBuffer, Vec<EpisodeRecord>)> {
    let planner = BatchPlanner::new(plan.policy.obs_dim(), lanes.len());
    let mut rngs: Vec<StdRng> = (0..lanes.len())
        .map(|i| lane_rng(plan, first_lane_id + i))
        .collect();
    let mut fragments: Vec<(RolloutBuffer, Vec<EpisodeRecord>)> = (0..lanes.len())
        .map(|_| (RolloutBuffer::new(), Vec::new()))
        .collect();
    for _ in 0..plan.rollout_len {
        let obs: Vec<Vec<f32>> = lanes.iter().map(|l| l.env.observation()).collect();
        let rows = planner.run(&obs, |batch| {
            plan.policy
                .forward_rows(batch, plan.temperature)
                .unwrap_or_else(|e| panic!("policy forward failed: {e}"))
        });
        let per_lane = lanes.iter_mut().zip(rows).zip(obs).zip(&mut rngs);
        for ((((lane, row), ob), rng), (buffer, episodes)) in per_lane.zip(&mut fragments) {
            let step = row.sample(rng);
            lane.advance(ob, step, plan, rng, buffer, episodes);
        }
    }
    fragments
}

/// Merge per-lane fragments (already in lane order) into one buffer.
fn merge(
    results: impl IntoIterator<Item = (RolloutBuffer, Vec<EpisodeRecord>)>,
) -> (RolloutBuffer, Vec<EpisodeRecord>) {
    let mut buffer = RolloutBuffer::new();
    let mut episodes = Vec::new();
    for (b, eps) in results {
        buffer.extend(b);
        episodes.extend(eps);
    }
    (buffer, episodes)
}

/// The rollout engine: lanes sharded over a [`Runtime`], each shard
/// stepped in lockstep through batched policy forwards.
///
/// Worker count and the display-cache capacity are execution-only: RNG
/// streams are per-lane and counter-derived, the forward kernels are
/// row-independent, and shard results merge in lane order, so any setting
/// collects the same bits. `workers = 1` is the serial schedule.
pub struct ParallelRollouts {
    lanes: Vec<Lane>,
    runtime: Runtime,
    telemetry: Arc<MetricsRegistry>,
    cache: Option<Arc<DisplayCache>>,
}

impl ParallelRollouts {
    /// Build `n_lanes` lanes over `base` seeded from `base_seed`, collected
    /// by `workers` threads and sharing a display cache of
    /// `cache_capacity` entries (0 runs uncached). Each env step runs one
    /// policy forward over the whole shard.
    pub fn with_cache_capacity(
        base: &DataFrame,
        env_config: &EnvConfig,
        n_lanes: usize,
        base_seed: u64,
        workers: usize,
        cache_capacity: usize,
    ) -> Self {
        let cache = (cache_capacity > 0).then(|| Arc::new(DisplayCache::new(cache_capacity)));
        Self {
            lanes: make_lanes(base, env_config, n_lanes, base_seed, cache.as_ref()),
            runtime: Runtime::new(workers),
            telemetry: atena_telemetry::global_arc(),
            cache,
        }
    }

    /// The display cache shared by this source's lanes, if enabled.
    pub fn display_cache(&self) -> Option<&Arc<DisplayCache>> {
        self.cache.as_ref()
    }
}

impl RolloutSource for ParallelRollouts {
    fn collect(&mut self, plan: &RolloutPlan<'_>) -> (RolloutBuffer, Vec<EpisodeRecord>) {
        let shard_results = self
            .runtime
            .scatter_shards(&mut self.lanes, |offset, shard| {
                run_shard(shard, offset, plan)
            });
        // Per-worker environment-step throughput, attributed by shard.
        for (w, fragments) in shard_results.iter().enumerate() {
            let steps: usize = fragments.iter().map(|(b, _)| b.len()).sum();
            self.telemetry
                .counter(&format!("runtime.worker.{w}.steps"))
                .add(steps as u64);
        }
        merge(shard_results.into_iter().flatten())
    }

    fn n_lanes(&self) -> usize {
        self.lanes.len()
    }

    fn lane_env_mut(&mut self, lane: usize) -> &mut EdaEnv {
        &mut self.lanes[lane].env
    }

    fn set_telemetry(&mut self, registry: Arc<MetricsRegistry>) {
        if let Some(cache) = &self.cache {
            cache.reroute_telemetry(&registry);
        }
        self.telemetry = Arc::clone(&registry);
        self.runtime = self.runtime.clone().with_telemetry(registry);
    }

    fn scatter_profile(&self) -> Option<ScatterProfile> {
        Some(self.runtime.last_profile())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twofold::{TwofoldConfig, TwofoldPolicy};
    use atena_dataframe::AttrRole;
    use atena_reward::{CoherencyConfig, CompoundReward};

    fn base() -> DataFrame {
        DataFrame::builder()
            .str(
                "proto",
                AttrRole::Categorical,
                (0..48).map(|i| Some(if i % 4 == 0 { "udp" } else { "tcp" })),
            )
            .int(
                "len",
                AttrRole::Numeric,
                (0..48).map(|i| Some((i * 17 % 29) as i64)),
            )
            .build()
            .unwrap()
    }

    fn fixture() -> (
        Arc<TwofoldPolicy>,
        ActionMapper,
        Arc<CompoundReward>,
        EnvConfig,
    ) {
        let env_config = EnvConfig {
            episode_len: 4,
            n_bins: 5,
            history_window: 3,
            seed: 9,
        };
        let probe = EdaEnv::new(base(), env_config.clone());
        let mut rng = StdRng::seed_from_u64(9);
        let policy = TwofoldPolicy::new(
            probe.observation_dim(),
            probe.action_space().head_sizes(),
            TwofoldConfig { hidden: [16, 16] },
            &mut rng,
        );
        let mut reward =
            CompoundReward::new(CoherencyConfig::with_focal_attrs(vec!["proto".into()]));
        let mut fit_env = EdaEnv::new(base(), env_config.clone());
        reward.fit(&mut fit_env, 60, 9);
        (
            Arc::new(policy),
            ActionMapper::Twofold,
            Arc::new(reward),
            env_config,
        )
    }

    /// The serial oracle: one lane at a time, one single-row `act` per
    /// step, lane RNG streams drawn exactly as the engine draws them.
    fn run_lane(
        lane: &mut Lane,
        lane_id: usize,
        plan: &RolloutPlan<'_>,
    ) -> (RolloutBuffer, Vec<EpisodeRecord>) {
        let mut rng = lane_rng(plan, lane_id);
        let mut buffer = RolloutBuffer::new();
        let mut episodes = Vec::new();
        for _ in 0..plan.rollout_len {
            let obs = lane.env.observation();
            let step = plan.policy.act(&obs, plan.temperature, &mut rng);
            lane.advance(obs, step, plan, &mut rng, &mut buffer, &mut episodes);
        }
        (buffer, episodes)
    }

    /// Run `iterations` collects through `collect`, returning the debug
    /// transcript of every buffer and episode list.
    fn transcript(
        iterations: u64,
        mut collect: impl FnMut(&RolloutPlan<'_>) -> (RolloutBuffer, Vec<EpisodeRecord>),
    ) -> String {
        let (policy, mapper, reward, _) = fixture();
        let mut out = String::new();
        for iteration in 0..iterations {
            let plan = RolloutPlan {
                policy: policy.as_ref(),
                mapper: &mapper,
                reward: reward.as_ref(),
                rollout_len: 24,
                temperature: 1.0,
                base_seed: 9,
                iteration,
            };
            let (buffer, episodes) = collect(&plan);
            out.push_str(&format!("{:?}|{:?}\n", buffer.steps(), episodes));
        }
        out
    }

    fn oracle_transcript(cache_capacity: usize) -> String {
        let (_, _, _, env_config) = fixture();
        let cache = (cache_capacity > 0).then(|| Arc::new(DisplayCache::new(cache_capacity)));
        let mut lanes = make_lanes(&base(), &env_config, 4, 9, cache.as_ref());
        transcript(3, |plan| {
            merge(
                lanes
                    .iter_mut()
                    .enumerate()
                    .map(|(lane_id, lane)| run_lane(lane, lane_id, plan)),
            )
        })
    }

    #[test]
    fn batched_engine_is_bit_identical_to_per_lane_oracle() {
        let (_, _, _, env_config) = fixture();
        let frame = base();
        for cache in [0, 1024] {
            let reference = oracle_transcript(cache);
            for workers in [1, 2, 4, 7] {
                let label = format!("workers={workers} cache={cache}");
                let registry = Arc::new(MetricsRegistry::new());
                let mut engine = ParallelRollouts::with_cache_capacity(
                    &frame,
                    &env_config,
                    4,
                    9,
                    workers,
                    cache,
                );
                engine.set_telemetry(Arc::clone(&registry));
                assert_eq!(engine.display_cache().is_some(), cache > 0, "{label}");
                let got = transcript(3, |plan| engine.collect(plan));
                assert_eq!(got, reference, "{label} diverged from the oracle");
                let snap = registry.snapshot();
                let steps: u64 = (0..workers)
                    .filter_map(|w| snap.counter(&format!("runtime.worker.{w}.steps")))
                    .sum();
                assert_eq!(steps, 3 * 4 * 24, "{label} step accounting");
            }
        }
    }

    #[test]
    fn lane_fleet_shares_one_base_frame() {
        let (_, _, _, env_config) = fixture();
        let source = ParallelRollouts::with_cache_capacity(&base(), &env_config, 6, 1, 1, 0);
        assert_eq!(source.n_lanes(), 6);
        // All lanes observe the same dataset through the same Arc.
        let rows = source.lanes[0].env.base().n_rows();
        for lane in &source.lanes {
            assert_eq!(lane.env.base().n_rows(), rows);
            assert!(std::sync::Arc::ptr_eq(
                lane.env.base_arc(),
                source.lanes[0].env.base_arc()
            ));
        }
    }
}

//! The `train` workload: ATENA PPO on flights1 at the `TrainerConfig`
//! defaults with `n_workers` = nproc, for a fixed number of iterations.

use crate::layers::{replay_episode, StepLayers};
use crate::stats::{now, summarize, Spans};
use crate::{digest, median, Outcome, Run};
use atena_core::{Atena, AtenaConfig};
use atena_dataframe::DataFrame;
use atena_env::{DisplayCache, EdaEnv, ResolvedOp};
use atena_reward::CompoundReward;
use atena_rl::{
    ActionMapper, Checkpoint, EpisodeRecord, ParallelRollouts, Policy, PpoLearner, RolloutPlan,
    RolloutSource, Trainer, TwofoldConfig, TwofoldPolicy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Training iterations per second of `--seconds` (≈ the rate on a 2-core
/// x86-64 box), so a run trains a fixed amount for a given run length.
const ITERS_PER_SECOND: f64 = 4.0;
/// Training jobs per run, each from a fresh trainer. A job's first ~12
/// iterations run cold and slow, so with one job the tail (the 11th
/// slowest iteration) fell on the edge of that group and moved with noise;
/// two jobs put it inside the group. Equal digests across the jobs also
/// check determinism within the run.
const JOBS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Replayed environment steps the traced run aims for: every k-th
/// training episode, so the replay keeps the run's op mix.
const REPLAY_STEPS: usize = 1500;

/// Everything training needs, built the way `train_policy_bundle` does.
struct TrainSetup {
    frame: DataFrame,
    config: AtenaConfig,
    reward: Arc<CompoundReward>,
    policy: Arc<TwofoldPolicy>,
}

/// The `flights1` configuration the benchmark trains: `AtenaConfig`
/// defaults (training seed 0) with `n_workers` = nproc.
///
/// Training does not take the workload seed. A PPO run's step cost and
/// memory follow the policy it learns: over workload seeds 1–5, 40
/// iterations ran at 1449–1780 steps/s and ended at 143–224 MiB resident,
/// so no bound on `rss_mb` could hold across seeds. Every run trains the
/// same bits instead, which also lets the digest check compare all runs.
pub fn config(workers: usize) -> AtenaConfig {
    let mut config = AtenaConfig::default();
    config.trainer.n_workers = workers;
    config
}

/// Dataset load, reward fit (probe steps) and policy init.
fn setup(workers: usize) -> TrainSetup {
    let dataset = atena_data::flights1();
    let config = config(workers);
    let reward = Arc::new(
        Atena::new("flights1", dataset.frame.clone())
            .with_focal_attrs(dataset.focal_attrs())
            .with_config(config.clone())
            .build_reward(),
    );
    let probe = EdaEnv::new(dataset.frame.clone(), config.env.clone());
    let mut rng = StdRng::seed_from_u64(config.trainer.seed);
    let policy = Arc::new(TwofoldPolicy::new(
        probe.observation_dim(),
        probe.action_space().head_sizes(),
        TwofoldConfig {
            hidden: config.hidden,
        },
        &mut rng,
    ));
    TrainSetup {
        frame: dataset.frame,
        config,
        reward,
        policy,
    }
}

impl TrainSetup {
    fn trainer(&self) -> Trainer {
        Trainer::new(
            Arc::clone(&self.policy) as Arc<dyn Policy>,
            ActionMapper::Twofold,
            Arc::clone(&self.reward) as _,
            &self.frame,
            self.config.env.clone(),
            self.config.trainer,
        )
    }

    fn steps_per_iteration(&self) -> usize {
        self.config.trainer.n_lanes * self.config.trainer.rollout_len
    }

    fn weights_digest(&self) -> u64 {
        let checkpoint = Checkpoint::capture("perfbench", self.policy.params());
        digest(
            checkpoint
                .to_json()
                .expect("checkpoint serializes")
                .as_bytes(),
        )
    }
}

pub fn run(run: &Run) -> Outcome {
    let iterations =
        ((run.seconds as f64 * ITERS_PER_SECOND / JOBS as f64).round() as usize).max(1);
    // The last `JOBS` set-ups are the training jobs; the earlier ones only
    // add samples to `setup_s`.
    let mut setups = Vec::new();
    let mut jobs = Vec::new();
    for i in 0..SETUPS {
        let start = now();
        let s = setup(run.workers);
        let trainer = s.trainer();
        setups.push(start.elapsed().as_secs_f64());
        if i + JOBS >= SETUPS {
            jobs.push((s, trainer));
        }
    }

    // The workload seed picks which rows the uploaded CSV leaves out.
    let csv = jobs[0].0.frame.to_csv_string();
    let keep = csv.lines().count() - 1 - (run.seed % 64) as usize;
    let csv: String = csv.lines().take(keep).flat_map(|l| [l, "\n"]).collect();
    let mut ingests = Vec::new();

    // Timed phase: one `Trainer::train` call per iteration. The temperature
    // schedule is flat at the defaults, so this trains exactly what one
    // long call would. Between iterations, untimed by the training clock,
    // the CSV is ingested as an upload would be: spread over the run, the
    // ingests see the heap in the states training leaves it in.
    let per_iteration = jobs[0].0.steps_per_iteration();
    let mut latencies = Vec::new();
    let mut digests = Vec::new();
    let mut steps = 0usize;
    // Every job stays alive to the end of the timed phase, so `rss_mb` does
    // not depend on how much of a finished job's heap the allocator kept.
    for (s, trainer) in &mut jobs {
        let mut log_text = String::new();
        for _ in 0..iterations {
            let t = now();
            let log = trainer.train(per_iteration);
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            log_text.push_str(&format!("{log:?}\n"));
            // One ingest per iteration: single ingests fall in two groups
            // (about 11 and 18 ms on a 2-core x86-64 VM) in spells of host
            // load, and with one ingest every 4 iterations the median
            // moved between them (spread 0.25 over ten runs).
            let registry = atena_registry::DatasetRegistry::new(Default::default());
            let t = now();
            registry
                .ingest("bench", "flights1", csv.as_bytes())
                .expect("flights1 CSV ingests");
            ingests.push(t.elapsed().as_secs_f64() * 1e3);
        }
        steps += iterations * per_iteration;
        digests.push((s.weights_digest(), digest(log_text.as_bytes())));
    }
    let wall = latencies.iter().sum::<f64>() / 1e3;
    let rss_mb = crate::rss_mb();

    let mut out = Outcome::new(latencies.len());
    let (weights, log_digest) = digests[0];
    if digests.iter().any(|d| *d != digests[0]) {
        out.fail(format!(
            "the {JOBS} training jobs of one run ended differently: {digests:x?}"
        ));
    }
    out.check_digest(run, &format!("train-{iterations}"), weights, log_digest);
    let lat = summarize(&latencies);
    out.say(format!(
        "train: {JOBS} jobs × {iterations} iterations × {per_iteration} steps, {} workers, {steps} env steps in {wall:.3} s; weights {weights:016x}, log {log_digest:016x}",
        run.workers
    ));
    out.say(format!("set-ups (s): {setups:.4?}"));
    out.say(format!(
        "iteration latency: p50 {:.3} ms, tail p{:.1} {:.3} ms over {} iterations",
        lat.p50, lat.tail_pct, lat.tail, lat.count
    ));
    out.metric("setup_s", "s", median(&setups));
    out.metric("rss_mb", "MiB", rss_mb);
    out.metric("train_steps_per_s", "steps/s", steps as f64 / wall);
    out.metric("p50_ms", "ms", lat.p50);
    out.metric("tail_ms", "ms", lat.tail);
    out.metric("max_rps", "req/s", latencies.len() as f64 / wall);
    out.metric("upload_p50_ms", "ms", median(&ingests));

    if run.trace {
        traced(run, iterations, wall / JOBS as f64, weights, &mut out);
    }
    out
}

/// The traced run: the same training composed from the public pieces
/// `Trainer::train` runs (rollout source, PPO learner), one span per call,
/// then a replay of a systematic sample of its episodes through the layer
/// functions.
fn traced(run: &Run, iterations: usize, untraced_wall: f64, weights: u64, out: &mut Outcome) {
    let s = setup(run.workers);
    let tc = s.config.trainer;
    // `Trainer` picks this source for n_workers > 1; at any worker count
    // it collects the same bits, which the weights check below confirms.
    let mut source = ParallelRollouts::with_cache_capacity(
        &s.frame,
        &s.config.env,
        tc.n_lanes,
        tc.seed,
        tc.n_workers,
        tc.display_cache,
    );
    let mut learner = PpoLearner::new(s.policy.as_ref(), tc.ppo);
    let mut rng = StdRng::seed_from_u64(tc.seed);
    let mut spans = Spans::default();
    let mut episodes: Vec<EpisodeRecord> = Vec::new();
    let (mut busy_max, mut busy_mean) = (0.0, 0.0);
    for iteration in 0..iterations {
        let start = now();
        let plan = RolloutPlan {
            policy: s.policy.as_ref(),
            mapper: &ActionMapper::Twofold,
            reward: s.reward.as_ref(),
            rollout_len: tc.rollout_len,
            temperature: tc.temperature,
            base_seed: tc.seed,
            iteration: iteration as u64,
        };
        let (buffer, eps) = spans.time("rl.rollout.collect", || source.collect(&plan));
        if let Some(profile) = source.scatter_profile() {
            let busy: Vec<f64> = profile.workers.iter().map(|w| w.busy_secs).collect();
            for &b in &busy {
                spans.record_secs("runtime.worker", b);
            }
            spans.record_secs("runtime.merge", profile.merge_secs);
            busy_max += busy.iter().copied().fold(0.0, f64::max);
            busy_mean += busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        }
        spans.time("rl.ppo.update", || {
            learner.update(s.policy.as_ref(), &buffer, &mut rng)
        });
        spans.record("rl.iteration", start.elapsed());
        episodes.extend(eps);
    }
    let traced_wall = spans.total("rl.iteration");
    if s.weights_digest() != weights {
        out.fail("traced training diverged from Trainer::train (policy weights differ)");
    }
    let cache = source
        .display_cache()
        .map(|c| c.stats())
        .unwrap_or_default();
    spans.set("env.cache.hit_ratio", cache.hit_rate());
    spans.set("env.cache.evictions", cache.evictions as f64);
    spans.set(
        "runtime.imbalance",
        busy_max / busy_mean.max(f64::MIN_POSITIVE),
    );
    spans.set(
        "trace.coverage.rl.iteration",
        (spans.total("rl.rollout.collect") + spans.total("rl.ppo.update")) / traced_wall,
    );
    spans.set(
        "trace.overhead_pct",
        (traced_wall / untraced_wall - 1.0) * 100.0,
    );

    let total_steps: usize = episodes.iter().map(|e| e.ops.len()).sum();
    let every = total_steps.div_ceil(REPLAY_STEPS).max(1);
    let sample: Vec<&[ResolvedOp]> = episodes
        .iter()
        .step_by(every)
        .map(|e| e.ops.as_slice())
        .collect();
    let mut env = EdaEnv::with_shared_base(Arc::new(s.frame.clone()), s.config.env.clone())
        .with_display_cache(Arc::new(DisplayCache::new(tc.display_cache)));
    let layers = StepLayers {
        reward: Some(s.reward.as_ref()),
        policy: Some((s.policy.as_ref(), tc.temperature)),
        resolve: true,
        preview: true,
    };
    for ops in &sample {
        replay_episode(&mut env, ops, &layers, &mut spans);
    }
    out.say(format!(
        "traced: {} episodes, 1 in {every} ({} episodes) replayed through the layers",
        episodes.len(),
        sample.len()
    ));
    out.spans = Some(spans);
}

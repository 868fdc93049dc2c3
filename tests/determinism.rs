//! The determinism contract (DESIGN.md §4h/§4i/§4j/§4l), enforced
//! end-to-end: the worker count, the display-cache capacity and span
//! tracing change how fast rollouts are collected (or how observable they
//! are), never what is learned. At a fixed seed the full `TrainLog` and
//! the final checkpoint blob must be **bit-identical** across cache
//! {off, on} × workers {1, 4} × tracing {off, on}. Each worker steps its
//! shard's lanes through one batched forward, so the 1-worker run makes
//! one forward over all lanes and the 4-worker run one-row forwards: the
//! worker rows also pin that a forward's row count never changes a bit.
//!
//! Triage rule (KNOWN_FAILURES.md): any "parallel run differs from serial"
//! or "cached run differs from uncached" report is a bug in whatever made
//! randomness, merge order, or a memoized value depend on scheduling —
//! never something to paper over by loosening these asserts.

use atena::core::{train_policy_bundle, AtenaConfig, Strategy};
use atena::dataframe::{AttrRole, DataFrame};
use atena::env::{EdaEnv, EnvConfig};
use atena::reward::{CoherencyConfig, CompoundReward};
use atena::rl::{ActionMapper, PpoConfig, Trainer, TrainerConfig, TwofoldConfig, TwofoldPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn base() -> DataFrame {
    DataFrame::builder()
        .str(
            "proto",
            AttrRole::Categorical,
            (0..60).map(|i| Some(if i % 5 == 0 { "udp" } else { "tcp" })),
        )
        .str(
            "src",
            AttrRole::Categorical,
            (0..60).map(|i| Some(["a", "b", "c"][i % 3])),
        )
        .int(
            "len",
            AttrRole::Numeric,
            (0..60).map(|i| Some((i * 13 % 31) as i64)),
        )
        .build()
        .unwrap()
}

fn quick_config(workers: usize) -> AtenaConfig {
    let mut c = AtenaConfig::quick();
    c.train_steps = 400;
    c.probe_steps = 80;
    c.env.episode_len = 4;
    c.trainer.n_workers = workers;
    c
}

#[test]
fn checkpoint_blob_is_bit_identical_across_worker_counts_and_cache() {
    // The bundle JSON covers everything a served policy is: every f32
    // parameter, the best observed reward, and the step provenance. String
    // equality of the serialized form is bit-identity.
    let run = |workers: usize, display_cache: usize| {
        let mut config = quick_config(workers);
        config.trainer.display_cache = display_cache;
        train_policy_bundle("det", base(), vec![], config, Strategy::Atena)
            .unwrap()
            .to_json()
            .unwrap()
    };
    let serial = run(1, 0);
    for (workers, display_cache) in [(1, 1024), (4, 0), (4, 1024)] {
        assert_eq!(
            run(workers, display_cache),
            serial,
            "workers={workers} display_cache={display_cache} checkpoint differs from \
             serial uncached"
        );
    }
}

#[test]
fn train_log_is_bit_identical_across_worker_counts_and_cache() {
    let run = |n_workers: usize, display_cache: usize| {
        let seed = 23;
        let env_config = EnvConfig {
            episode_len: 6,
            n_bins: 5,
            history_window: 3,
            seed,
        };
        let probe = EdaEnv::new(base(), env_config.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let policy = TwofoldPolicy::new(
            probe.observation_dim(),
            probe.action_space().head_sizes(),
            TwofoldConfig { hidden: [32, 32] },
            &mut rng,
        );
        let mut reward = CompoundReward::new(CoherencyConfig::with_focal_attrs(vec!["src".into()]));
        let mut fit_env = EdaEnv::new(base(), env_config.clone());
        reward.fit(&mut fit_env, 120, seed);
        let mut trainer = Trainer::new(
            Arc::new(policy),
            ActionMapper::Twofold,
            Arc::new(reward),
            &base(),
            env_config,
            TrainerConfig {
                n_lanes: 4,
                n_workers,
                display_cache,
                rollout_len: 32,
                eval_window: 10,
                seed,
                ppo: PpoConfig {
                    minibatch: 32,
                    epochs: 2,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        // Debug-format the full log: curve points, episode/step counters,
        // best episode (ops + f64 rewards), and final update diagnostics
        // all print at full precision, so equal strings ⇔ equal values.
        format!("{:?}", trainer.train(256))
    };
    let serial = run(1, 0);
    for (workers, display_cache) in [(1, 1024), (4, 0), (4, 1024)] {
        assert_eq!(
            run(workers, display_cache),
            serial,
            "workers={workers} display_cache={display_cache} TrainLog differs from \
             serial uncached"
        );
    }
}

#[test]
fn train_log_is_bit_identical_with_tracing_on_and_off() {
    // Span tracing is execution-only (DESIGN.md §4j): it reads timings out
    // of the run but injects nothing back — no RNG draws, no reordering.
    // Each run gets a private tracer so enabled/disabled states can't leak
    // across the grid through the process-global one.
    let run = |n_workers: usize, traced: bool| -> (String, u64) {
        let seed = 23;
        let env_config = EnvConfig {
            episode_len: 6,
            n_bins: 5,
            history_window: 3,
            seed,
        };
        let probe = EdaEnv::new(base(), env_config.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let policy = TwofoldPolicy::new(
            probe.observation_dim(),
            probe.action_space().head_sizes(),
            TwofoldConfig { hidden: [32, 32] },
            &mut rng,
        );
        let mut reward = CompoundReward::new(CoherencyConfig::with_focal_attrs(vec!["src".into()]));
        let mut fit_env = EdaEnv::new(base(), env_config.clone());
        reward.fit(&mut fit_env, 120, seed);
        let tracer = Arc::new(atena::telemetry::Tracer::new());
        tracer.set_enabled(traced);
        let mut trainer = Trainer::new(
            Arc::new(policy),
            ActionMapper::Twofold,
            Arc::new(reward),
            &base(),
            env_config,
            TrainerConfig {
                n_lanes: 4,
                n_workers,
                rollout_len: 32,
                eval_window: 10,
                seed,
                ppo: PpoConfig {
                    minibatch: 32,
                    epochs: 2,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .with_tracer(Arc::clone(&tracer));
        let log = format!("{:?}", trainer.train(256));
        (log, tracer.counts().spans_recorded)
    };
    let (serial, silent_spans) = run(1, false);
    assert_eq!(silent_spans, 0, "disabled tracer must record nothing");
    for (workers, traced) in [(1, true), (4, false), (4, true)] {
        let (log, spans) = run(workers, traced);
        assert_eq!(
            log, serial,
            "workers={workers} tracing={traced} TrainLog differs from serial untraced"
        );
        if traced {
            assert!(
                spans > 0,
                "workers={workers}: enabled tracer recorded no spans"
            );
        }
    }
}

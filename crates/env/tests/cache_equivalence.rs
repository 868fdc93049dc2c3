//! Property tests locking the display cache's soundness contract
//! (DESIGN.md §4i): the cache is pure memoization, so cache capacity and
//! residency may change *speed* but never *transcripts*. Any divergence
//! between a cached and an uncached run is a cache-soundness bug — see
//! KNOWN_FAILURES.md; these assertions must never be loosened to "close
//! enough".

use atena_dataframe::{AttrRole, DataFrame};
use atena_env::{DisplayCache, EdaAction, EdaEnv, EnvConfig, OpOutcome, ResolvedOp};
use proptest::prelude::*;
use std::sync::Arc;

/// A small dataset with mixed types, nulls, and skewed frequencies so that
/// filters, groups, and binning all have real work to do.
fn base(n: usize) -> DataFrame {
    DataFrame::builder()
        .str(
            "cat",
            AttrRole::Categorical,
            (0..n).map(|i| {
                if i % 13 == 0 {
                    None
                } else {
                    Some(["a", "b", "c", "d", "e"][i * i % 5])
                }
            }),
        )
        .int(
            "num",
            AttrRole::Numeric,
            (0..n).map(|i| Some((i as i64 * 7) % 19)),
        )
        .bool(
            "flag",
            AttrRole::Categorical,
            (0..n).map(|i| Some(i % 4 == 0)),
        )
        .build()
        .unwrap()
}

fn action_strategy() -> impl Strategy<Value = EdaAction> {
    prop_oneof![
        (0usize..3, 0usize..8, 0usize..6).prop_map(|(attr, op, bin)| EdaAction::Filter {
            attr,
            op,
            bin
        }),
        (0usize..3, 0usize..5, 0usize..3).prop_map(|(key, func, agg)| EdaAction::Group {
            key,
            func,
            agg
        }),
        Just(EdaAction::Back),
    ]
}

/// Everything a step emits that the determinism contract covers: the
/// resolved op, the outcome, and every observation bit.
type StepRecord = (ResolvedOp, OpOutcome, Vec<u32>, usize, bool);

/// Take one step and record it bit-exactly, read back off the env.
fn step_record(env: &mut EdaEnv, action: &EdaAction) -> StepRecord {
    env.step(action);
    let last = env.session().ops().last().expect("a step records an op");
    (
        last.op.clone(),
        last.outcome.clone(),
        env.observation().iter().map(|x| x.to_bits()).collect(),
        env.step_count() - 1,
        env.done(),
    )
}

/// Run one full episode and record each transition bit-exactly.
fn transcript(
    actions: &[EdaAction],
    seed: u64,
    cache: Option<Arc<DisplayCache>>,
) -> Vec<StepRecord> {
    let config = EnvConfig {
        episode_len: actions.len(),
        n_bins: 5,
        history_window: 3,
        seed,
    };
    let mut env = EdaEnv::new(base(64), config);
    if let Some(cache) = cache {
        env = env.with_display_cache(cache);
    }
    env.reset_with_seed(seed);
    actions
        .iter()
        .map(|action| step_record(&mut env, action))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For arbitrary action sequences and seeds, the transcript — resolved
    /// ops, outcomes, and observation bits — is identical with no cache,
    /// a single-entry cache (maximal eviction churn), and a large cache,
    /// and identical again when replayed against an already-warm cache.
    #[test]
    fn cache_capacity_never_changes_transcripts(
        actions in prop::collection::vec(action_strategy(), 1..14),
        seed in 0u64..500,
    ) {
        let uncached = transcript(&actions, seed, None);

        let tiny = Arc::new(DisplayCache::new(1));
        prop_assert_eq!(&transcript(&actions, seed, Some(tiny)), &uncached);

        let large = Arc::new(DisplayCache::new(1024));
        prop_assert_eq!(
            &transcript(&actions, seed, Some(Arc::clone(&large))),
            &uncached
        );
        // Warm replay: every lookup that can hit now does, and the episode
        // must still be bit-identical to the cold uncached run.
        prop_assert_eq!(&transcript(&actions, seed, Some(Arc::clone(&large))), &uncached);
        prop_assert!(large.stats().hits > 0, "warm replay produced no hits");
    }

    /// Lanes sharing one cache stay bit-identical to unshared runs even
    /// when their episodes interleave arbitrarily — residency changes from
    /// another lane's traffic only ever turn recomputation into a hit.
    #[test]
    fn interleaved_lanes_sharing_a_cache_match_solo_runs(
        actions_a in prop::collection::vec(action_strategy(), 1..10),
        actions_b in prop::collection::vec(action_strategy(), 1..10),
        seed in 0u64..200,
    ) {
        let solo_a = transcript(&actions_a, seed, None);
        let solo_b = transcript(&actions_b, seed.wrapping_add(1), None);

        let shared = Arc::new(DisplayCache::new(256));
        let mk = |actions: &[EdaAction], seed: u64| {
            let config = EnvConfig {
                episode_len: actions.len(),
                n_bins: 5,
                history_window: 3,
                seed,
            };
            let mut env = EdaEnv::new(base(64), config)
                .with_display_cache(Arc::clone(&shared));
            env.reset_with_seed(seed);
            env
        };
        let mut env_a = mk(&actions_a, seed);
        let mut env_b = mk(&actions_b, seed.wrapping_add(1));
        let mut got_a = Vec::new();
        let mut got_b = Vec::new();
        // Interleave the two lanes step by step.
        for i in 0..actions_a.len().max(actions_b.len()) {
            if let Some(action) = actions_a.get(i) {
                got_a.push(step_record(&mut env_a, action));
            }
            if let Some(action) = actions_b.get(i) {
                got_b.push(step_record(&mut env_b, action));
            }
        }
        prop_assert_eq!(&got_a, &solo_a);
        prop_assert_eq!(&got_b, &solo_b);
    }
}

//! Property-based tests for notebooks: a notebook read off the session that
//! produced it is the notebook a fresh replay of its operations builds.

use atena_core::Notebook;
use atena_dataframe::{AttrRole, DataFrame};
use atena_env::{DisplayCache, EdaAction, EdaEnv, EnvConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// A small dataset with mixed types and nulls.
fn base() -> DataFrame {
    let cat = (0..50).map(|i| (i % 11 != 0).then_some(["a", "b", "c", "d"][i % 4]));
    let num = (0..50).map(|i| Some((i as i64 * 7) % 23));
    DataFrame::builder()
        .str("cat", AttrRole::Categorical, cat)
        .int("num", AttrRole::Numeric, num)
        .build()
        .unwrap()
}

/// Arbitrary (possibly invalid) actions: attribute index 2 does not exist.
fn action_strategy() -> impl Strategy<Value = EdaAction> {
    prop_oneof![
        (0usize..3, 0usize..8, 0usize..5).prop_map(|(attr, op, bin)| EdaAction::Filter {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Each cell shows the display its step committed, and the session's
    /// own displays render the same notebook as a replay that
    /// re-materializes every display in a fresh, uncached environment —
    /// whether the session's displays came cold or from a warm display
    /// cache.
    #[test]
    fn notebook_from_session_equals_replay(
        actions in prop::collection::vec(action_strategy(), 1..16),
        seed in 0u64..1000,
    ) {
        let frame = base();
        let mut env = EdaEnv::new(
            frame.clone(),
            EnvConfig { episode_len: actions.len(), n_bins: 5, history_window: 3, seed },
        )
        .with_display_cache(Arc::new(DisplayCache::new(256)));
        for pass in ["cold", "warm"] {
            env.reset();
            let mut committed = Vec::new();
            for action in &actions {
                let op = env.resolve(action);
                let preview = env.preview(&op);
                committed.push((preview.display.spec.canonical(), preview.display.result.n_rows()));
                env.commit(preview);
            }
            let ops: Vec<_> = env.session().ops().iter().map(|o| o.op.clone()).collect();
            let read = Notebook::from_session("mixed", env.session());
            let shown: Vec<_> = read
                .entries
                .iter()
                .map(|e| (e.display.spec.canonical(), e.display.result.n_rows()))
                .collect();
            prop_assert_eq!(shown, committed, "{} pass", pass);
            let replayed = Notebook::replay("mixed", &frame, &ops);
            prop_assert_eq!(read.to_markdown(), replayed.to_markdown(), "{} pass", pass);
            prop_assert_eq!(read.to_json(), replayed.to_json(), "{} pass", pass);
        }
    }
}

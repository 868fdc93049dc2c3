//! Property-based tests for the EDA environment: arbitrary action
//! sequences must never corrupt the session state.

use atena_dataframe::{AttrRole, DataFrame};
use atena_env::{DisplayVector, EdaAction, EdaEnv, EnvConfig, FrequencyBins, OpOutcome};
use proptest::prelude::*;

/// A small dataset with mixed types and nulls.
fn base(n: usize) -> DataFrame {
    DataFrame::builder()
        .str(
            "cat",
            AttrRole::Categorical,
            (0..n).map(|i| {
                if i % 11 == 0 {
                    None
                } else {
                    Some(["a", "b", "c", "d"][i % 4])
                }
            }),
        )
        .int(
            "num",
            AttrRole::Numeric,
            (0..n).map(|i| Some((i as i64 * 7) % 23)),
        )
        .bool(
            "flag",
            AttrRole::Categorical,
            (0..n).map(|i| Some(i % 3 == 0)),
        )
        .build()
        .unwrap()
}

/// Strategy generating arbitrary (possibly invalid) actions.
fn action_strategy() -> impl Strategy<Value = EdaAction> {
    prop_oneof![
        (0usize..4, 0usize..10, 0usize..8).prop_map(|(attr, op, bin)| EdaAction::Filter {
            attr,
            op: op % 8,
            bin
        }),
        (0usize..4, 0usize..6, 0usize..4).prop_map(|(key, func, agg)| EdaAction::Group {
            key,
            func: func % 5,
            agg
        }),
        Just(EdaAction::Back),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any action sequence completes the episode without panicking, with
    /// step counts, observation dimensions, and history lengths consistent.
    #[test]
    fn arbitrary_episodes_are_safe(
        actions in prop::collection::vec(action_strategy(), 1..20),
        seed in 0u64..1000,
    ) {
        let mut env = EdaEnv::new(
            base(60),
            EnvConfig { episode_len: actions.len(), n_bins: 6, history_window: 3, seed },
        );
        env.reset();
        let dim = env.observation_dim();
        prop_assert_eq!(env.observation().len(), dim);
        for (i, action) in actions.iter().enumerate() {
            env.step(action);
            let obs = env.observation();
            prop_assert_eq!(env.step_count() - 1, i);
            prop_assert_eq!(obs.len(), dim);
            prop_assert!(obs.iter().all(|v| v.is_finite()));
            prop_assert_eq!(env.done(), i + 1 == actions.len());
        }
        prop_assert!(env.done());
        prop_assert_eq!(env.session().ops().len(), actions.len());
        prop_assert_eq!(env.session().history().len(), actions.len() + 1);
    }

    /// The session tree's parent links always form a rooted forest: every
    /// non-root display has a parent with a smaller id.
    #[test]
    fn session_tree_is_well_formed(
        actions in prop::collection::vec(action_strategy(), 1..25),
    ) {
        let mut env = EdaEnv::new(
            base(40),
            EnvConfig { episode_len: actions.len(), n_bins: 4, history_window: 3, seed: 1 },
        );
        env.reset();
        for action in &actions {
            env.step(action);
        }
        let session = env.session();
        prop_assert_eq!(session.parent_of(0), None);
        for id in 1..session.n_displays() {
            let parent = session.parent_of(id);
            prop_assert!(parent.is_some());
            prop_assert!(parent.unwrap() < id);
        }
        // Current display is a valid node.
        prop_assert!(session.current_id() < session.n_displays());
    }

    /// The operation log points at the displays the steps committed: op
    /// `i` moved the session to `history[i + 1]`, and that node holds the
    /// display (same spec, same row count) the step previewed. Notebooks
    /// are read off the session through exactly these links.
    #[test]
    fn op_log_points_at_the_committed_displays(
        tail in prop::collection::vec(action_strategy(), 0..20),
        seed in 0u64..1000,
    ) {
        // A fixed prefix covers every kind of log entry, in this order: BACK
        // at the root, an invalid op (attribute 3 does not exist), an
        // applied group-by, and an applied BACK.
        let prefix = [
            EdaAction::Back,
            EdaAction::Group { key: 3, func: 0, agg: 0 },
            EdaAction::Group { key: 0, func: 0, agg: 1 },
            EdaAction::Back,
        ];
        let actions: Vec<EdaAction> = prefix.iter().chain(&tail).copied().collect();
        let mut env = EdaEnv::new(
            base(40),
            EnvConfig { episode_len: actions.len(), n_bins: 4, history_window: 3, seed },
        );
        env.reset();
        let mut previews = Vec::new();
        for action in &actions {
            let op = env.resolve(action);
            let preview = env.preview(&op);
            previews.push((
                preview.outcome.clone(),
                preview.display.spec.clone(),
                preview.display.result.n_rows(),
            ));
            env.commit(preview);
        }
        let session = env.session();
        let outcomes: Vec<&OpOutcome> = session.ops().iter().take(4).map(|o| &o.outcome).collect();
        prop_assert!(matches!(
            outcomes[..],
            [OpOutcome::BackAtRoot, OpOutcome::Invalid(_), OpOutcome::Applied, OpOutcome::Applied]
        ));
        prop_assert_eq!(session.ops().len(), actions.len());
        for (i, (applied, (outcome, spec, rows))) in session.ops().iter().zip(&previews).enumerate() {
            prop_assert_eq!(applied.to, session.history()[i + 1]);
            prop_assert_eq!(&applied.outcome, outcome);
            let shown = session.display(applied.to);
            prop_assert_eq!(&shown.spec, spec);
            prop_assert_eq!(shown.result.n_rows(), *rows);
        }
    }

    /// BACK never creates displays; filters/groups create at most one each.
    #[test]
    fn display_count_is_bounded_by_ops(
        actions in prop::collection::vec(action_strategy(), 1..25),
    ) {
        let mut env = EdaEnv::new(
            base(40),
            EnvConfig { episode_len: actions.len(), n_bins: 4, history_window: 3, seed: 2 },
        );
        env.reset();
        let mut creating_ops = 0usize;
        for action in &actions {
            env.step(action);
            let outcome = &env.session().ops().last().unwrap().outcome;
            if !matches!(action, EdaAction::Back)
                && matches!(outcome, OpOutcome::Applied)
            {
                creating_ops += 1;
            }
        }
        prop_assert_eq!(env.session().n_displays(), 1 + creating_ops);
    }

    /// Display vectors always have the advertised dimension and stay in
    /// sane numeric ranges.
    #[test]
    fn display_vectors_are_bounded(
        actions in prop::collection::vec(action_strategy(), 1..15),
    ) {
        let mut env = EdaEnv::new(
            base(80),
            EnvConfig { episode_len: actions.len(), n_bins: 5, history_window: 3, seed: 3 },
        );
        env.reset();
        for action in &actions {
            env.step(action);
        }
        let dim = DisplayVector::dim_for(3);
        for id in 0..env.session().n_displays() {
            let v = &env.session().display(id).vector;
            prop_assert_eq!(v.dim(), dim);
            for &x in v.as_slice() {
                prop_assert!(x.is_finite());
                prop_assert!((-0.001..=1.001).contains(&x), "feature out of range: {}", x);
            }
        }
    }

    /// Frequency bins partition the distinct tokens of any column: every
    /// distinct non-null token appears in exactly one bin, and the union of
    /// the bins is exactly the distinct-token set.
    #[test]
    fn bins_partition_tokens(
        values in prop::collection::vec(prop::option::of(0i64..30), 1..200),
        n_bins in 1usize..12,
    ) {
        let col = atena_dataframe::Column::from_ints(values.clone());
        let bins = FrequencyBins::build(&col, n_bins);
        let mut binned: Vec<i64> = (0..bins.n_bins())
            .flat_map(|i| bins.bin(i).iter().map(|v| match v {
                atena_dataframe::Value::Int(x) => *x,
                other => panic!("unexpected token {other:?}"),
            }))
            .collect();
        let n_binned = binned.len();
        binned.sort_unstable();
        binned.dedup();
        prop_assert_eq!(n_binned, binned.len(), "a token appears in two bins");
        let mut distinct: Vec<i64> = values.iter().flatten().copied().collect();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(binned, distinct);
    }

    /// Bin index is monotone in token frequency: any token in a higher bin
    /// occurs at least as often as any token in a lower bin.
    #[test]
    fn bin_frequencies_are_monotone(
        values in prop::collection::vec(prop::option::of(0i64..12), 1..250),
        n_bins in 1usize..10,
    ) {
        let col = atena_dataframe::Column::from_ints(values.clone());
        let bins = FrequencyBins::build(&col, n_bins);
        let freq = |v: &atena_dataframe::Value| -> usize {
            let atena_dataframe::Value::Int(x) = v else { panic!("int column") };
            values.iter().flatten().filter(|&&y| y == *x).count()
        };
        let mut prev_max: Option<usize> = None;
        for i in 0..bins.n_bins() {
            let fs: Vec<usize> = bins.bin(i).iter().map(freq).collect();
            if let (Some(prev), Some(&min)) = (prev_max, fs.iter().min()) {
                prop_assert!(
                    min >= prev,
                    "bin {} holds a token rarer (f={}) than one in a lower bin (f={})",
                    i, min, prev
                );
            }
            if let Some(&max) = fs.iter().max() {
                prev_max = Some(prev_max.map_or(max, |p| p.max(max)));
            }
        }
    }

    /// Binning is a function of token *frequencies*, not row order: any
    /// permutation of the rows yields bit-identical bins.
    #[test]
    fn bins_are_row_permutation_invariant(
        values in prop::collection::vec(prop::option::of(0i64..15), 1..120),
        shuffle_seed in 0u64..1000,
        n_bins in 1usize..8,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut shuffled = values.clone();
        shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(shuffle_seed));
        let a = FrequencyBins::build(&atena_dataframe::Column::from_ints(values), n_bins);
        let b = FrequencyBins::build(&atena_dataframe::Column::from_ints(shuffled), n_bins);
        prop_assert_eq!(a.n_bins(), b.n_bins());
        for i in 0..a.n_bins() {
            prop_assert_eq!(a.bin(i), b.bin(i), "bin {} differs after permutation", i);
        }
    }
}

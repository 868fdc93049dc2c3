//! Golden snapshot of the [`DisplayVector`] encoding layout.
//!
//! These assertions pin the *exact* byte layout the policy network and the
//! display cache both consume: field order within each per-attribute block,
//! the per-attribute width, the global-feature block, and the three-display
//! observation concatenation. The dataset is built from powers of two so
//! every expected feature is exactly representable and the comparisons can
//! be bit-exact — if any of these fail after an encoder change, trained
//! checkpoints and cached displays are invalidated and the change needs a
//! version bump, not a test update.

use atena_dataframe::{AggFunc, AttrRole, CmpOp, DataFrame, Predicate, Value};
use atena_env::{Display, DisplaySpec, DisplayVector, EdaAction, EdaEnv, EnvConfig};

/// 8 rows, 2 attributes, all frequencies powers of two:
/// `cat` = a,a,a,a,b,b,b,b — `num` = 0..8 (all distinct).
fn base() -> DataFrame {
    DataFrame::builder()
        .str(
            "cat",
            AttrRole::Categorical,
            (0..8).map(|i| Some(if i < 4 { "a" } else { "b" })),
        )
        .int("num", AttrRole::Numeric, (0..8).map(|i| Some(i as i64)))
        .build()
        .unwrap()
}

#[test]
fn layout_constants() {
    // Per attribute: [normalized entropy, distinct ratio, null ratio, flag].
    assert_eq!(DisplayVector::PER_ATTR, 4);
    // Globals: [n_groups (log-squashed), group-size mean, group-size
    // variance (squashed cv²), surviving-rows ratio].
    assert_eq!(DisplayVector::GLOBALS, 4);
    assert_eq!(DisplayVector::dim_for(2), 12);
    assert_eq!(DisplayVector::zeros(2).as_slice(), &[0.0; 12]);
}

#[test]
fn root_display_vector_is_bit_exact() {
    let root = Display::root(&base());
    #[rustfmt::skip]
    let expected = [
        // cat: uniform over 2 tokens → entropy 1 bit / log2(2) = 1.0,
        // 2 distinct of 8 rows, no nulls, not grouped.
        1.0, 0.25, 0.0, 0.0,
        // num: uniform over 8 distinct → 3 bits / log2(8) = 1.0.
        1.0, 1.0, 0.0, 0.0,
        // No grouping; all 8 of 8 rows survive.
        0.0, 0.0, 0.0, 1.0,
    ];
    assert_eq!(root.vector.as_slice(), &expected);
}

#[test]
fn filtered_display_vector_is_bit_exact() {
    let spec = DisplaySpec::default().with_predicate(Predicate {
        attr: "cat".into(),
        op: CmpOp::Eq,
        term: Value::Str("a".into()),
    });
    let display = Display::materialize(&base(), spec).unwrap();
    #[rustfmt::skip]
    let expected = [
        // cat: single token left → entropy 0, 1 distinct of 4 rows.
        0.0, 0.25, 0.0, 0.0,
        // num: 4 distinct of 4 rows, still uniform.
        1.0, 1.0, 0.0, 0.0,
        // No grouping; 4 of 8 base rows survive.
        0.0, 0.0, 0.0, 0.5,
    ];
    assert_eq!(display.vector.as_slice(), &expected);
}

#[test]
fn grouped_display_vector_is_bit_exact() {
    let spec = DisplaySpec::default().with_grouping("cat".into(), AggFunc::Count, "num".into());
    let display = Display::materialize(&base(), spec).unwrap();
    let g = display.grouping.as_ref().expect("grouped display");
    assert_eq!(g.n_groups, 2);
    assert_eq!(g.size_mean, 4.0);
    assert_eq!(g.size_variance, 0.0);
    // First global is ln(1 + n_groups) / ln(1 + base_rows); asserted via
    // the same expression so the comparison stays bit-exact.
    let n_groups_feature = (1.0 + 2.0f64).ln() / (1.0 + 8.0f64).ln();
    #[rustfmt::skip]
    let expected = [
        // Stats encode the *ungrouped* data view (all 8 rows); flag 1.0
        // marks the group key...
        1.0, 0.25, 0.0, 1.0,
        // ...and flag 0.2 the aggregated attribute.
        1.0, 1.0, 0.0, 0.2,
        // [log-squashed n_groups, mean 4/8, cv²=0, all rows survive].
        n_groups_feature, 0.5, 0.0, 1.0,
    ];
    assert_eq!(display.vector.as_slice(), &expected);
}

/// The observation is exactly three display vectors, most recent first,
/// zero-padded while the session is shorter than the history window.
#[test]
fn observation_concatenates_three_displays_most_recent_first() {
    let mut env = EdaEnv::new(
        base(),
        EnvConfig {
            episode_len: 4,
            n_bins: 4,
            history_window: 3,
            seed: 7,
        },
    );
    env.reset();
    let obs = env.observation();
    let dim = DisplayVector::dim_for(2);
    assert_eq!(env.observation_dim(), 3 * dim);
    assert_eq!(obs.len(), 3 * dim);
    let root_f32: Vec<f32> = env
        .session()
        .display(0)
        .vector
        .as_slice()
        .iter()
        .map(|&v| v as f32)
        .collect();
    assert_eq!(
        &obs[..dim],
        &root_f32[..],
        "slot 0 holds the current display"
    );
    assert!(
        obs[dim..].iter().all(|&v| v == 0.0),
        "short history is zero-padded"
    );

    // One applied op shifts the root into slot 1.
    env.step(&EdaAction::Group {
        key: 0,
        func: 0,
        agg: 1,
    });
    let obs = env.observation();
    let current: Vec<f32> = env
        .session()
        .current()
        .vector
        .as_slice()
        .iter()
        .map(|&v| v as f32)
        .collect();
    assert_eq!(&obs[..dim], &current[..]);
    assert_eq!(&obs[dim..2 * dim], &root_f32[..]);
    assert!(obs[2 * dim..].iter().all(|&v| v == 0.0));
}

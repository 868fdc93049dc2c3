//! Integration tests asserting paper-level properties across crates:
//! the architecture claims of §5 and the benchmark relationships of §6.

use atena::data::{all_datasets, cyber2};
use atena::env::{ActionSpace, EdaEnv, EnvConfig};
use atena::rl::{ActionChoice, Policy, TwofoldConfig, TwofoldPolicy};
use atena_benchmark::{precision, t_bleu};
use atena_core::Notebook;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// §5: the pre-output layer is |OP| + Σ|V(p)|, far smaller than the flat
/// enumeration Σ Π|V(p)| — on every experimental dataset.
#[test]
fn twofold_layer_is_smaller_than_flat_on_all_datasets() {
    for dataset in all_datasets() {
        let space = ActionSpace::from_frame(&dataset.frame, 10);
        let pre = space.head_sizes().pre_output_size();
        let flat = space.flat_size_binned();
        assert!(
            pre * 5 < flat,
            "{}: pre-output {pre} vs flat {flat}",
            dataset.spec.id
        );
    }
}

/// §5: even with binning, the flat space is large; with explicit terms it
/// grows further (the paper's OTS-DRL needed the top-10-token restriction).
#[test]
fn explicit_term_space_is_largest() {
    let dataset = cyber2();
    let space = ActionSpace::from_frame(&dataset.frame, 10);
    let with_terms = space.enumerate_with_terms(&dataset.frame, 10).len();
    let binned = space.flat_size_binned();
    let pre = space.head_sizes().pre_output_size();
    assert!(pre < binned);
    assert!(
        with_terms > 100,
        "term enumeration suspiciously small: {with_terms}"
    );
}

/// The twofold policy's joint log-prob decomposes per the active heads:
/// sampling and evaluation agree on every dataset schema.
#[test]
fn twofold_policy_consistent_on_real_schema() {
    let dataset = cyber2();
    let env = EdaEnv::new(dataset.frame.clone(), EnvConfig::default());
    let mut rng = StdRng::seed_from_u64(1);
    let policy = TwofoldPolicy::new(
        env.observation_dim(),
        env.action_space().head_sizes(),
        TwofoldConfig { hidden: [32, 32] },
        &mut rng,
    );
    let obs = vec![0.25f32; env.observation_dim()];
    for _ in 0..20 {
        let step = policy.act(&obs, 1.0, &mut rng);
        let mut g = atena::nn::Graph::new();
        let eval = policy.evaluate(
            &mut g,
            &atena::nn::Tensor::row_vector(obs.clone()),
            &[step.choice],
        );
        let lp = g.value(eval.log_prob).get(0, 0);
        assert!(
            (lp - step.log_prob).abs() < 1e-3,
            "{lp} vs {}",
            step.log_prob
        );
        // The choice maps to a valid action for this env.
        let ActionChoice::Twofold { heads } = step.choice else {
            panic!()
        };
        assert!(heads[1] < env.action_space().n_attrs());
    }
}

/// §6.3: a gold notebook scores 1.0 against a gold set containing it and
/// strictly less when it is excluded (the metrics are sane on real data).
#[test]
fn benchmark_metrics_are_consistent_on_gold_sets() {
    let dataset = cyber2();
    let golds: Vec<Notebook> = dataset
        .gold_standards
        .iter()
        .map(|g| Notebook::replay(&dataset.spec.name, &dataset.frame, g))
        .collect();
    let views0 = golds[0].views();
    let all_views: Vec<Vec<String>> = golds.iter().map(|g| g.views()).collect();
    let rest_views: Vec<Vec<String>> = all_views[1..].to_vec();

    assert!((precision(&views0, &all_views) - 1.0).abs() < 1e-12);
    assert!((t_bleu(&views0, &all_views, 2) - 1.0).abs() < 1e-12);

    let p_rest = precision(&views0, &rest_views);
    let b_rest = t_bleu(&views0, &rest_views, 2);
    assert!(p_rest < 1.0);
    assert!(b_rest < 1.0);
    // But distinct gold paths still share some structure.
    assert!(p_rest > 0.0, "gold notebooks should overlap on key views");
}

/// Episode mechanics hold on the biggest dataset (Cyber #4, 13625 rows):
/// full episodes complete, observations stay finite and fixed-size.
#[test]
fn large_dataset_episode_mechanics() {
    let dataset = atena::data::cyber4();
    let mut env = EdaEnv::new(
        dataset.frame.clone(),
        EnvConfig {
            episode_len: 6,
            n_bins: 10,
            history_window: 3,
            seed: 3,
        },
    );
    env.reset();
    let dim = env.observation_dim();
    assert_eq!(env.observation().len(), dim);
    let mut rng = StdRng::seed_from_u64(9);
    while !env.done() {
        let action = atena::reward::random_action(&env, &mut rng);
        env.step(&action);
        let obs = env.observation();
        assert_eq!(obs.len(), dim);
        assert!(obs.iter().all(|v| v.is_finite()));
    }
    assert_eq!(env.session().ops().len(), 6);
}

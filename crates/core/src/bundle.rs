//! Self-describing policy bundles: a trained [`TwofoldPolicy`]'s checkpoint
//! plus everything needed to rebuild it and regenerate notebooks without
//! retraining — dataset identity, focal attributes, environment
//! configuration, and network shape.
//!
//! This is the artifact the inference server (`atena-server`) loads at
//! startup and the `atena train --out` / `checkpoint load` CLI path
//! produces and validates.

use crate::atena::{Atena, AtenaConfig, Strategy};
use atena_dataframe::DataFrame;
use atena_env::{EdaEnv, EnvConfig, HeadSizes};
use atena_rl::{
    ActionMapper, Checkpoint, CheckpointError, Policy, Trainer, TwofoldConfig, TwofoldPolicy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A serializable, self-describing snapshot of a trained twofold policy.
///
/// Unlike a raw [`Checkpoint`] (parameters + architecture tag only), a
/// bundle records the dataset id, focal attributes, environment
/// configuration, and network shape, so a fresh process can rebuild the
/// exact policy and decode notebooks from it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyBundle {
    /// Bundle format version (bumped on breaking layout changes).
    pub version: u32,
    /// Dataset identity: a built-in dataset id (`cyber1` … `flights4`) or a
    /// free-form name for CSV-trained policies.
    pub dataset: String,
    /// Focal attributes the reward was calibrated with.
    pub focal_attrs: Vec<String>,
    /// Environment configuration the policy was trained under.
    pub env: EnvConfig,
    /// Hidden layer widths of the policy trunk.
    pub hidden: [usize; 2],
    /// Observation dimensionality the policy expects.
    pub obs_dim: usize,
    /// Softmax segment sizes of the twofold output layer.
    pub head_sizes: HeadSizes,
    /// The strategy the policy was trained as (must be a learned twofold
    /// strategy: `Atena` or `AtnIo`).
    pub strategy: Strategy,
    /// Training steps the policy was trained for (provenance).
    pub train_steps: usize,
    /// Best episode reward observed during training (provenance).
    pub best_reward: f64,
    /// The parameter checkpoint.
    pub checkpoint: Checkpoint,
}

/// Errors from building, saving, or loading a bundle.
#[derive(Debug, Clone, PartialEq)]
pub enum BundleError {
    /// Strategy is not a twofold learned strategy.
    Strategy(Strategy),
    /// Underlying checkpoint validation/serde failure.
    Checkpoint(CheckpointError),
    /// Bundle JSON (de)serialization failure.
    Serde(String),
    /// Filesystem failure.
    Io(String),
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::Strategy(s) => write!(
                f,
                "strategy {} is not a twofold DRL strategy (use atena or atn-io)",
                s.name()
            ),
            BundleError::Checkpoint(e) => write!(f, "{e}"),
            BundleError::Serde(m) => write!(f, "bundle (de)serialization failed: {m}"),
            BundleError::Io(m) => write!(f, "bundle I/O failed: {m}"),
        }
    }
}

impl std::error::Error for BundleError {}

impl From<CheckpointError> for BundleError {
    fn from(e: CheckpointError) -> Self {
        BundleError::Checkpoint(e)
    }
}

impl PolicyBundle {
    /// Current bundle format version.
    pub const VERSION: u32 = 1;

    /// The architecture tag stored in (and validated against) the inner
    /// checkpoint, derived from the recorded shape.
    pub fn architecture(&self) -> String {
        architecture_tag(self.obs_dim, &self.head_sizes)
    }

    /// Rebuild the policy this bundle describes and load its parameters.
    pub fn build_policy(&self) -> Result<TwofoldPolicy, BundleError> {
        if !matches!(self.strategy, Strategy::Atena | Strategy::AtnIo) {
            return Err(BundleError::Strategy(self.strategy));
        }
        // The init RNG is irrelevant: every parameter is overwritten by the
        // checkpoint restore below.
        let mut rng = StdRng::seed_from_u64(0);
        let policy = TwofoldPolicy::new(
            self.obs_dim,
            self.head_sizes,
            TwofoldConfig {
                hidden: self.hidden,
            },
            &mut rng,
        );
        self.checkpoint
            .restore(&self.architecture(), policy.params())?;
        Ok(policy)
    }

    /// Observation dimensionality a frame with `n_cols` columns yields
    /// under this bundle's environment configuration.
    pub fn obs_dim_for_cols(&self, n_cols: usize) -> usize {
        self.env.history_window * atena_env::DisplayVector::dim_for(n_cols)
    }

    /// Check that `frame` can be served by this bundle's policy: the
    /// environment observation layout is a pure function of the column
    /// count, so any dataset with a compatible shape — including ones
    /// uploaded at runtime — decodes without rebuilding an environment.
    pub fn frame_compatible(&self, frame: &DataFrame) -> Result<(), String> {
        let got = self.obs_dim_for_cols(frame.n_cols());
        if got != self.obs_dim {
            return Err(format!(
                "dataset/bundle mismatch: {} columns yield observation dim {got}, \
                 bundle expects {} (trained on a {}-compatible shape)",
                frame.n_cols(),
                self.obs_dim,
                self.dataset
            ));
        }
        if frame.is_empty() {
            return Err("dataset has no rows".to_string());
        }
        Ok(())
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> Result<String, BundleError> {
        serde_json::to_string(self).map_err(|e| BundleError::Serde(e.to_string()))
    }

    /// Deserialize from JSON.
    pub fn from_json(text: &str) -> Result<Self, BundleError> {
        serde_json::from_str(text).map_err(|e| BundleError::Serde(e.to_string()))
    }

    /// Write the bundle to `path` as JSON.
    pub fn save(&self, path: &std::path::Path) -> Result<(), BundleError> {
        let json = self.to_json()?;
        std::fs::write(path, json).map_err(|e| BundleError::Io(format!("{}: {e}", path.display())))
    }

    /// Read a bundle from a JSON file at `path`.
    pub fn load(path: &std::path::Path) -> Result<Self, BundleError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| BundleError::Io(format!("{}: {e}", path.display())))?;
        Self::from_json(&text)
    }

    /// One-line human-readable description (for CLI output).
    pub fn describe(&self) -> String {
        format!(
            "policy bundle v{}: dataset {:?}, strategy {}, {} params, trained {} steps \
             (best reward {:.3}), episode_len {}, hidden {:?}",
            self.version,
            self.dataset,
            self.strategy.name(),
            self.checkpoint.params.len(),
            self.train_steps,
            self.best_reward,
            self.env.episode_len,
            self.hidden,
        )
    }
}

fn architecture_tag(obs_dim: usize, head_sizes: &HeadSizes) -> String {
    let sizes = head_sizes.as_array();
    let joined = sizes
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join("-");
    format!("twofold/obs{obs_dim}/heads{joined}")
}

/// Train a twofold policy on `frame` and capture it as a [`PolicyBundle`].
///
/// This mirrors [`Atena::generate`]'s learned path but keeps the concrete
/// policy so its parameters can be checkpointed. Only the twofold strategies
/// (`Atena`, `AtnIo`) are bundle-able; the flat baselines' action tables are
/// dataset-derived and the greedy baselines have no parameters.
pub fn train_policy_bundle(
    dataset: &str,
    frame: DataFrame,
    focal_attrs: Vec<String>,
    config: AtenaConfig,
    strategy: Strategy,
) -> Result<PolicyBundle, BundleError> {
    if !matches!(strategy, Strategy::Atena | Strategy::AtnIo) {
        return Err(BundleError::Strategy(strategy));
    }
    let reward = Arc::new(
        Atena::new(dataset, frame.clone())
            .with_focal_attrs(focal_attrs.clone())
            .with_config(config.clone())
            .with_strategy(strategy)
            .build_reward(),
    );
    let probe = EdaEnv::new(frame.clone(), config.env.clone());
    let obs_dim = probe.observation_dim();
    let head_sizes = probe.action_space().head_sizes();
    let mut rng = StdRng::seed_from_u64(config.trainer.seed);
    let policy = Arc::new(TwofoldPolicy::new(
        obs_dim,
        head_sizes,
        TwofoldConfig {
            hidden: config.hidden,
        },
        &mut rng,
    ));
    let mut trainer = Trainer::new(
        Arc::clone(&policy) as Arc<dyn Policy>,
        ActionMapper::Twofold,
        reward,
        &frame,
        config.env.clone(),
        config.trainer,
    );
    let log = trainer.train(config.train_steps);
    let best_reward = log
        .best_episode
        .as_ref()
        .map(|e| e.total_reward)
        .unwrap_or(f64::NEG_INFINITY);
    let checkpoint = Checkpoint::capture(architecture_tag(obs_dim, &head_sizes), policy.params());
    Ok(PolicyBundle {
        version: PolicyBundle::VERSION,
        dataset: dataset.to_string(),
        focal_attrs,
        env: config.env,
        hidden: config.hidden,
        obs_dim,
        head_sizes,
        strategy,
        train_steps: log.steps,
        best_reward,
        checkpoint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atena_dataframe::AttrRole;

    fn base() -> DataFrame {
        DataFrame::builder()
            .str(
                "proto",
                AttrRole::Categorical,
                (0..60).map(|i| Some(if i % 5 == 0 { "udp" } else { "tcp" })),
            )
            .int(
                "len",
                AttrRole::Numeric,
                (0..60).map(|i| Some((i * 13 % 31) as i64)),
            )
            .build()
            .unwrap()
    }

    fn quick() -> AtenaConfig {
        let mut c = AtenaConfig::quick();
        c.train_steps = 300;
        c.probe_steps = 60;
        c.env.episode_len = 4;
        c
    }

    #[test]
    fn train_capture_rebuild_round_trip() {
        let bundle = train_policy_bundle("test", base(), vec![], quick(), Strategy::Atena).unwrap();
        assert_eq!(bundle.version, PolicyBundle::VERSION);
        assert!(bundle.train_steps >= 300);
        assert!(bundle.best_reward.is_finite());

        let json = bundle.to_json().unwrap();
        let loaded = PolicyBundle::from_json(&json).unwrap();
        let policy = loaded.build_policy().unwrap();
        assert_eq!(
            policy.params().state().len(),
            bundle.checkpoint.params.len()
        );

        // The rebuilt policy behaves identically to a direct restore.
        let direct = loaded.build_policy().unwrap();
        let obs = vec![0.25f32; loaded.obs_dim];
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = policy.act(&obs, 0.01, &mut r1);
        let b = direct.act(&obs, 0.01, &mut r2);
        assert_eq!(a.choice, b.choice);
        assert_eq!(a.value, b.value);
    }

    #[test]
    fn greedy_strategy_rejected() {
        let err =
            train_policy_bundle("test", base(), vec![], quick(), Strategy::GreedyCr).unwrap_err();
        assert!(matches!(err, BundleError::Strategy(Strategy::GreedyCr)));
    }

    #[test]
    fn corrupt_bundle_rejected() {
        assert!(matches!(
            PolicyBundle::from_json("{nope"),
            Err(BundleError::Serde(_))
        ));
    }

    #[test]
    fn tampered_shape_rejected_on_rebuild() {
        let mut bundle =
            train_policy_bundle("test", base(), vec![], quick(), Strategy::Atena).unwrap();
        bundle.hidden = [4, 4]; // no longer matches the checkpointed tensors
        assert!(matches!(
            bundle.build_policy(),
            Err(BundleError::Checkpoint(_))
        ));
    }

    #[test]
    fn save_load_file_round_trip() {
        let dir = std::env::temp_dir().join("atena-bundle-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("b.json");
        let bundle = train_policy_bundle(
            "test",
            base(),
            vec!["proto".into()],
            quick(),
            Strategy::AtnIo,
        )
        .unwrap();
        bundle.save(&path).unwrap();
        let loaded = PolicyBundle::load(&path).unwrap();
        assert_eq!(loaded.dataset, "test");
        assert_eq!(loaded.focal_attrs, vec!["proto".to_string()]);
        assert!(loaded.describe().contains("ATN-IO"));
        loaded.build_policy().unwrap();
        assert!(matches!(
            PolicyBundle::load(std::path::Path::new("/no/such/bundle.json")),
            Err(BundleError::Io(_))
        ));
    }
}

//! Build a dataset programmatically, register custom focal attributes, and
//! inspect the learned agent's exploration step by step — including the
//! reward breakdown the agent saw. Demonstrates the lower-level crates
//! (`env`, `reward`, `rl`) underneath the `Atena` facade.
//!
//! ```sh
//! cargo run --release --example custom_dataset
//! ```

use atena::dataframe::{AttrRole, DataFrame};
use atena::env::{EdaEnv, EnvConfig};
use atena::reward::{CoherencyConfig, CompoundReward};
use atena::rl::greedy_episode;
use atena::Notebook;
use atena_env::RewardModel;

fn main() {
    // An e-commerce orders table with a planted anomaly: the "gadgets"
    // category has a burst of refunds from one country.
    let n = 400;
    let category: Vec<Option<&str>> = (0..n)
        .map(|i| Some(["books", "gadgets", "apparel", "home"][i % 4]))
        .collect();
    let country: Vec<Option<&str>> = (0..n)
        .map(|i| {
            Some(if i % 4 == 1 && i % 3 == 0 {
                "FR"
            } else {
                ["US", "DE", "UK"][i % 3]
            })
        })
        .collect();
    let status: Vec<Option<&str>> = (0..n)
        .map(|i| {
            Some(if i % 4 == 1 && i % 3 == 0 {
                "refunded"
            } else {
                "delivered"
            })
        })
        .collect();
    let amount: Vec<Option<f64>> = (0..n).map(|i| Some(20.0 + (i % 37) as f64 * 3.5)).collect();

    let df = DataFrame::builder()
        .str("category", AttrRole::Categorical, category)
        .str("country", AttrRole::Categorical, country)
        .str("status", AttrRole::Categorical, status)
        .float("amount", AttrRole::Numeric, amount)
        .int(
            "order_id",
            AttrRole::Identifier,
            (0..n).map(|i| Some(10_000 + i as i64)),
        )
        .build()
        .expect("consistent schema");

    println!("orders: {} rows × {} columns\n", df.n_rows(), df.n_cols());

    // 1. Build and calibrate the compound reward with custom focal attrs.
    let env_config = EnvConfig {
        episode_len: 8,
        n_bins: 8,
        history_window: 3,
        seed: 7,
    };
    let mut env = EdaEnv::new(df.clone(), env_config);
    let mut reward = CompoundReward::new(CoherencyConfig::with_focal_attrs(vec!["status".into()]));
    reward.fit(&mut env, 300, 7);
    let w = reward.weights();
    println!(
        "calibrated reward weights: interestingness {:.2}, diversity {:.2}, coherency {:.2}\n",
        w.interestingness, w.diversity, w.coherency
    );

    // 2. Run a greedy compound-reward exploration and narrate each step.
    let episode = greedy_episode(&mut env, &reward, 0);
    println!("greedy exploration (one-step lookahead on the compound reward):\n");

    // Replay to show per-step breakdowns.
    env.reset();
    for (i, op) in episode.ops.iter().enumerate() {
        let preview = env.preview(op);
        let breakdown = {
            let info = env.step_info(&preview);
            reward.score(&info)
        };
        println!(
            "  step {}: {}\n          interestingness {:+.2}  diversity {:+.2}  coherency {:+.2}  => {:+.2}",
            i + 1,
            op.caption(),
            breakdown.interestingness,
            breakdown.diversity,
            breakdown.coherency,
            breakdown.total
        );
        env.commit(preview);
    }
    println!("\nepisode reward: {:.3}\n", episode.total_reward);

    // 3. Render the final notebook.
    let notebook = Notebook::replay("orders", &df, &episode.ops);
    println!("{}", notebook.to_markdown());
}

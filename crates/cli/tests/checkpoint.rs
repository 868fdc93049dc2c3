//! Integration test for the `atena train --out` / `checkpoint load`
//! CLI path: train a small policy on a built-in dataset, write the
//! checkpoint to disk through the command layer, then load and validate it
//! the same way the `serve` command would.

use atena_cli::{parse, run, Command};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn train_out_then_checkpoint_load_round_trips() {
    let dir = std::env::temp_dir().join("atena-cli-checkpoint");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("cyber2.ckpt.json");
    let ckpt_str = ckpt.to_string_lossy().into_owned();

    // Save: exercise the real argv surface, not just the Command enum.
    let cmd = parse(&args(&[
        "train",
        "cyber2",
        "--out",
        &ckpt_str,
        "--steps",
        "150",
        "--episode-len",
        "3",
        "--seed",
        "1",
    ]))
    .unwrap();
    let out = run(cmd).unwrap();
    assert!(out.contains("dataset \"cyber2\""), "{out}");
    assert!(out.contains(&format!("written to {ckpt_str}")), "{out}");
    assert!(ckpt.exists());

    // Load: validates the parameter blob against the recorded architecture
    // and prints the description.
    let out = run(parse(&args(&["checkpoint", "load", &ckpt_str])).unwrap()).unwrap();
    assert!(out.contains("dataset \"cyber2\""), "{out}");
    assert!(out.contains("strategy ATENA"), "{out}");
    // The trainer rounds the step budget up to whole batches, so assert the
    // provenance is present rather than an exact count.
    assert!(out.contains("trained"), "{out}");
    assert!(out.contains("episode_len 3"), "{out}");

    // The saved bundle is exactly what the server consumes.
    let bundle = atena_core::PolicyBundle::load(&ckpt).unwrap();
    let dataset = atena_data::dataset_by_id(&bundle.dataset).unwrap();
    atena_server::Engine::new(bundle, dataset.frame).unwrap();
}

#[test]
fn checkpoint_load_rejects_garbage() {
    let dir = std::env::temp_dir().join("atena-cli-checkpoint");
    std::fs::create_dir_all(&dir).unwrap();
    let bogus = dir.join("bogus.ckpt.json");
    std::fs::write(&bogus, "{\"not\":\"a bundle\"}").unwrap();
    let err = run(Command::CheckpointLoad {
        path: bogus.to_string_lossy().into_owned(),
    })
    .unwrap_err();
    assert!(matches!(err, atena_cli::CliError::Runtime(_)));

    let missing = run(Command::CheckpointLoad {
        path: "/definitely/not/here.json".into(),
    })
    .unwrap_err();
    assert!(matches!(missing, atena_cli::CliError::Runtime(_)));
}

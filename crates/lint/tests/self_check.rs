//! Dogfood: the workspace itself must be lint-clean. A failure here means a
//! change introduced a determinism or soundness hazard; fix it or, where the
//! use is provably harmless, annotate it with
//! `// atena-lint: allow(<rule>) — <reason>`. This test is the lint gate:
//! `cargo test --workspace` runs it.

use std::path::Path;

use atena_lint::check_workspace;

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/lint")
        .to_path_buf();
    assert!(root.join("Cargo.toml").exists(), "bad root: {root:?}");

    let report = check_workspace(&root).expect("workspace scan succeeds");
    assert!(
        report.files_scanned > 50,
        "scan looks truncated: {} files",
        report.files_scanned
    );

    let new: Vec<String> = report
        .new_findings()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule.id(), f.message))
        .collect();
    assert!(
        new.is_empty(),
        "workspace has {} lint finding(s):\n{}\nfix them or annotate with \
         `// atena-lint: allow(<rule>) — <reason>`",
        new.len(),
        new.join("\n")
    );

    // The dogfooded annotations must all carry reasons (an allow with an
    // empty reason suppresses nothing — assert it stays that way).
    assert!(report
        .findings
        .iter()
        .filter_map(|f| f.allowed.as_deref())
        .all(|r| !r.is_empty()));
}

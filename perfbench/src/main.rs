//! ATENA benchmark: training throughput and notebook-serving latency, with
//! a traced mode that splits both into the crates they run through.
//!
//! ```text
//! atena-perfbench --workload train|serve-mixed --seed N \
//!                 --seconds S --trace 0|1 [--state-dir DIR]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced,
//! the per-layer metrics traced. Every output is checked; the process
//! exits 1 when any check fails. See README.md in this directory.

mod layers;
mod serve;
mod stats;
mod train;

use stats::{summarize, Spans};
use std::path::PathBuf;

/// One invocation's arguments.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where digests of earlier runs are kept, to check that every run of
    /// one seed trains the same bits.
    pub state_dir: PathBuf,
    /// Rollout workers, server workers and client connections: nproc.
    pub workers: usize,
}

/// What a run measured and checked.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    problems: Vec<String>,
    lines: Vec<String>,
    metrics: Vec<(String, &'static str, f64)>,
    pub spans: Option<Spans>,
}

impl Outcome {
    pub fn new(attempted: usize) -> Self {
        Outcome {
            attempted,
            failed: 0,
            problems: Vec::new(),
            lines: Vec::new(),
            metrics: Vec::new(),
            spans: None,
        }
    }

    pub fn say(&mut self, line: String) {
        self.lines.push(line);
    }

    pub fn fail(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push((name.to_string(), unit, value));
    }

    /// Compare this run's training digests with those of the first run
    /// under `key` recorded in the state directory, or record them. The
    /// record is also keyed by a digest of the running executable, so only
    /// runs of the same code are compared.
    pub fn check_digest(&mut self, run: &Run, key: &str, weights: u64, log: u64) {
        let exe = match std::env::current_exe().and_then(std::fs::read) {
            Ok(bytes) => digest(&bytes),
            Err(e) => return self.fail(format!("cannot read the running executable: {e}")),
        };
        let line = format!("weights={weights:016x} log={log:016x}\n");
        let path = run.state_dir.join(format!("{key}-{exe:016x}.digest"));
        match std::fs::read_to_string(&path) {
            Ok(first) if first != line => self.fail(format!(
                "training digests differ from the first run's: {} vs {}",
                line.trim(),
                first.trim()
            )),
            Ok(_) => {}
            Err(_) => {
                // Write then rename, so a concurrent run never reads half.
                let partial = path.with_extension(format!("{}.tmp", std::process::id()));
                let written = std::fs::create_dir_all(&run.state_dir)
                    .and_then(|()| std::fs::write(&partial, &line))
                    .and_then(|()| std::fs::rename(&partial, &path));
                if let Err(e) = written {
                    self.fail(format!("cannot record digests in {}: {e}", path.display()));
                }
            }
        }
    }
}

/// FNV-1a, the repository's stable content hash.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = atena_dataframe::StableHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).p50
}

/// Resident set of this process in MiB.
pub fn rss_mb() -> f64 {
    atena_telemetry::rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// Spans every traced run reports, whether or not its workload runs them
/// (an idle layer reports a count of 0). Each gives `count`, `total_s`,
/// `p50_us` and `tail_us`.
const SPANS: &[&str] = &[
    "rl.iteration",
    "rl.rollout.collect",
    "rl.ppo.update",
    "runtime.worker",
    "runtime.merge",
    "nn.forward",
    "env.resolve",
    "env.preview",
    "env.bins",
    "env.display.encode",
    "dataframe.filter",
    "dataframe.group",
    "dataframe.stats",
    "dataframe.csv_parse",
    "reward.interestingness",
    "reward.diversity",
    "reward.coherency",
    "core.notebook.replay",
    "core.notebook.summary",
    "server.roundtrip",
    "server.roundtrip.saturated",
    "server.engine.decode",
    "server.http.parse",
    "server.http.write",
    "server.http.wire",
    "server.http.wire.saturated",
    "registry.ingest",
];

/// Per-layer scalars and their units.
const SCALARS: &[(&str, &str)] = &[
    ("runtime.imbalance", "ratio"),
    ("nn.forward.rows", "count"),
    ("env.cache.hit_ratio", "ratio"),
    ("env.cache.evictions", "count"),
    ("dataframe.filter.ns_per_row", "ns"),
    ("server.cache.hit_ratio", "ratio"),
    ("registry.evictions", "count"),
    ("loadgen.late_ms.p50", "ms"),
    ("loadgen.late_ms.tail", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage.rl.iteration", "ratio"),
    ("trace.coverage.server.engine.decode", "ratio"),
];

fn layer_metrics(out: &mut Outcome) {
    let Some(mut spans) = out.spans.take() else {
        return;
    };
    let rows = spans.scalar("dataframe.filter.rows");
    if rows > 0.0 {
        spans.set(
            "dataframe.filter.ns_per_row",
            spans.total("dataframe.filter") * 1e9 / rows,
        );
    }
    out.say(format!(
        "{:<24} {:>7} {:>10} {:>10} {:>10}  tail",
        "span", "count", "total_s", "p50_us", "tail_us"
    ));
    for &name in SPANS {
        let s = summarize(spans.durations(name));
        out.say(format!(
            "{name:<24} {:>7} {:>10.4} {:>10.1} {:>10.1}  p{:.1}",
            s.count,
            s.total,
            s.p50 * 1e6,
            s.tail * 1e6,
            s.tail_pct
        ));
        out.metric(&format!("{name}.count"), "count", s.count as f64);
        out.metric(&format!("{name}.total_s"), "s", s.total);
        out.metric(&format!("{name}.p50_us"), "us", s.p50 * 1e6);
        out.metric(&format!("{name}.tail_us"), "us", s.tail * 1e6);
    }
    for &(name, unit) in SCALARS {
        let v = spans.scalar(name);
        out.say(format!("{name:<36} {v:.6} {unit}"));
        out.metric(name, unit, v);
    }
}

fn parse_args() -> Result<Run, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut run = Run {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        state_dir: PathBuf::from(".bench_build/perfbench-state"),
        // atena-lint: allow(wall-clock) — benchmark load sizing, never feeds results
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        let bad = |what: &str| format!("{} expects {what}, got {value:?}", args[i]);
        match args[i].as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0)
                    .ok_or_else(|| bad("a positive integer"))?
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--state-dir" => run.state_dir = PathBuf::from(value),
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 2;
    }
    Ok(run)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("fixture") {
        // Internal: train the serve workload's policy in a child process.
        let Some(workers) = args.get(2).and_then(|s| s.parse().ok()) else {
            eprintln!("usage: atena-perfbench fixture WORKERS");
            std::process::exit(2);
        };
        match serve::train_fixture(workers) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut out = match run.workload.as_str() {
        "train" => train::run(&run),
        "serve-mixed" => serve::run(&run),
        other => {
            eprintln!("unknown workload {other:?}: expected train or serve-mixed");
            std::process::exit(2);
        }
    };
    if run.trace {
        // The traced run's own end-to-end figures, for reading beside the
        // layers; the JSON line carries the per-layer metrics only.
        for (name, unit, value) in std::mem::take(&mut out.metrics) {
            out.say(format!("end-to-end {name} {value:.6} {unit}"));
        }
        layer_metrics(&mut out);
    }
    for (name, _, value) in &out.metrics {
        if !value.is_finite() {
            out.problems.push(format!("metric {name} is {value}"));
        }
    }
    for line in &out.lines {
        println!("{line}");
    }
    for problem in &out.problems {
        println!("FAILED CHECK: {problem}");
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            // JSON has no NaN or infinity; the run is already marked wrong.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

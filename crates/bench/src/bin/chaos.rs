//! Chaos harness driver: self-hosts an `atena-server` from a checkpoint
//! and runs the byzantine scenario matrix (and optionally a soak) from
//! `atena_bench::chaos` against it.
//!
//! ```text
//! chaos --checkpoint BUNDLE.json [--timeout-ms 2000] [--requests 40]
//!       [--soak-secs 0] [--rss-budget-mb 48] [--bench-out BENCH_chaos.json]
//! ```
//!
//! Every scenario carries a typed expected outcome (exact status,
//! bounded 408/close, tolerated abort); after each one the harness
//! probes `/v1/healthz` and replays a known-good request that must stay
//! byte-identical to the offline decode of the same request. Throughout
//! the attack phase a background good client keeps hammering the server;
//! its p99 under attack is persisted next to the uncontested baseline.
//! The process exits nonzero on any unexpected outcome, divergence, or
//! soak failure.

use atena_bench::chaos::{
    latency_summary, run_scenario, run_soak, scenario_matrix, ChaosTarget, GoodTraffic,
    LatencySummary, ScenarioReport, SoakOptions, SoakReport,
};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone)]
struct Config {
    checkpoint: String,
    timeout_ms: u64,
    requests: usize,
    soak_secs: u64,
    rss_budget_mb: u64,
    bench_out: Option<String>,
}

const USAGE: &str = "\
chaos — byzantine-client scenario matrix and soak for `atena serve`

USAGE:
  chaos --checkpoint BUNDLE.json [--timeout-ms 2000] [--requests 40]
        [--soak-secs 0] [--rss-budget-mb 48]
        [--bench-out BENCH_chaos.json]

Self-hosts a server from the checkpoint on an ephemeral port with a
small registry budget and tight per-tenant admission, runs every
byzantine scenario (slow loris, disconnects, malformed/oversized frames,
header floods, pipelined garbage, request floods) against it, and checks
each scenario's typed expected outcome plus server health and good-client
byte-identity afterwards. --soak-secs > 0 adds a sustained mixed
good/byzantine workload with the registry churning at capacity,
asserting flat RSS, monotone counters, and advancing evictions.
";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut checkpoint = None;
    let mut timeout_ms = 2000u64;
    let mut requests = 40usize;
    let mut soak_secs = 0u64;
    let mut rss_budget_mb = 48u64;
    let mut bench_out = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Err(USAGE.to_string());
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag {
            "--checkpoint" => checkpoint = Some(value.clone()),
            "--timeout-ms" => {
                timeout_ms = value
                    .parse::<u64>()
                    .ok()
                    .filter(|v| *v > 0)
                    .ok_or_else(|| "--timeout-ms expects a positive integer".to_string())?
            }
            "--requests" => {
                requests = value
                    .parse::<usize>()
                    .ok()
                    .filter(|v| *v > 0)
                    .ok_or_else(|| "--requests expects a positive integer".to_string())?
            }
            "--soak-secs" => {
                soak_secs = value
                    .parse()
                    .map_err(|_| "--soak-secs expects an integer".to_string())?
            }
            "--rss-budget-mb" => {
                rss_budget_mb = value
                    .parse::<u64>()
                    .ok()
                    .filter(|v| *v > 0)
                    .ok_or_else(|| "--rss-budget-mb expects a positive integer".to_string())?
            }
            "--bench-out" => bench_out = Some(value.clone()),
            other => return Err(format!("unknown option {other:?}\n\n{USAGE}")),
        }
        i += 2;
    }
    Ok(Config {
        checkpoint: checkpoint.ok_or_else(|| format!("--checkpoint is required\n\n{USAGE}"))?,
        timeout_ms,
        requests,
        soak_secs,
        rss_budget_mb,
        bench_out,
    })
}

/// The persisted `BENCH_chaos.json` schema (`version` guards consumers
/// against silent shape drift).
#[derive(serde::Serialize)]
struct ChaosBenchRecord {
    version: u32,
    bench: &'static str,
    dataset: String,
    timeout_ms: u64,
    scenarios: Vec<ScenarioReport>,
    unexpected: usize,
    good_client: GoodClientRecord,
    soak: Option<SoakReport>,
    server_counters: std::collections::BTreeMap<String, u64>,
}

/// Good-client latency with no attack running vs. during the scenario
/// matrix, plus the byte-identity verdict.
#[derive(serde::Serialize)]
struct GoodClientRecord {
    baseline: LatencySummary,
    under_attack: LatencySummary,
    divergences: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    std::process::exit(run(&config));
}

fn run(config: &Config) -> i32 {
    // 1. Load the checkpoint twice: one engine serves, a sibling decodes
    //    offline to anchor the byte-identity checks.
    let bundle = match atena_core::PolicyBundle::load(std::path::Path::new(&config.checkpoint)) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot load checkpoint {}: {e}", config.checkpoint);
            return 2;
        }
    };
    let Some(dataset) = atena_data::dataset_by_id(&bundle.dataset) else {
        eprintln!(
            "checkpoint was trained on dataset {:?}, which is not built in",
            bundle.dataset
        );
        return 2;
    };
    let offline = match atena_server::Engine::new(bundle.clone(), dataset.frame.clone()) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot build offline engine: {e}");
            return 2;
        }
    };
    let engine = match atena_server::Engine::new(bundle.clone(), dataset.frame.clone()) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot build serving engine: {e}");
            return 2;
        }
    };

    // Offline references: the exact bytes the server must return. The
    // server decodes concurrently on its pool — the determinism contract
    // says the bytes cannot differ.
    let episode_len = 4usize.min(atena_server::MAX_EPISODE_LEN);
    let reference = |seed: u64| -> Result<(String, String), String> {
        let request = offline
            .validate(&bundle.dataset, Some(episode_len), Some(seed))
            .map_err(|e| e.to_string())?;
        let response = offline.decode(&request).map_err(|e| e.to_string())?;
        let expected = serde_json::to_string(&response).map_err(|e| e.to_string())?;
        let body = format!(
            "{{\"dataset\":{:?},\"episode_len\":{episode_len},\"seed\":{seed}}}",
            bundle.dataset
        );
        Ok((body, expected))
    };
    let mut good_requests = Vec::new();
    for seed in 0..6u64 {
        match reference(seed) {
            Ok(pair) => good_requests.push(pair),
            Err(e) => {
                eprintln!("offline reference decode failed (seed {seed}): {e}");
                return 2;
            }
        }
    }

    // 2. Self-host: small registry budget (so the soak's upload churn
    //    evicts), tight per-tenant admission (so the flood sheds), and
    //    the per-request deadline under test.
    let request_timeout = Duration::from_millis(config.timeout_ms);
    let server_config = atena_server::ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        cache_size: 8,
        request_timeout,
        registry: atena_registry::RegistryConfig {
            budget_bytes: 16 * 1024,
            max_datasets: 8,
            tenant_quota_bytes: 8 * 1024,
            limits: atena_dataframe::CsvLimits {
                max_bytes: 4096,
                max_rows: 10_000,
                max_cols: 16,
            },
        },
        tenant_limits: atena_registry::TenantLimits {
            max_inflight: 2,
            retry_after_secs: 1,
        },
        ..Default::default()
    };
    let max_body_bytes = server_config.max_body_bytes;
    let telemetry = Arc::new(atena_telemetry::MetricsRegistry::new());
    let server = match atena_server::Server::bind_with_telemetry(
        server_config,
        engine,
        Arc::clone(&telemetry),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind server: {e}");
            return 1;
        }
    };
    let addr = server.local_addr().expect("bound server has an address");
    let handle = server.spawn().expect("server thread spawns");
    println!(
        "chaos: server on {addr} (timeout {} ms, registry budget 16 KiB, admission cap 2)",
        config.timeout_ms
    );

    let target = ChaosTarget {
        addr: addr.to_string(),
        good_body: good_requests[0].0.clone(),
        expected_body: good_requests[0].1.clone(),
        request_timeout,
        max_body_bytes,
    };

    // 3. Uncontested baseline: good-client latency with nothing hostile
    //    in flight.
    let mut baseline_latencies = Vec::with_capacity(config.requests);
    for _ in 0..config.requests {
        match target.good_shot() {
            Ok(latency) => baseline_latencies.push(latency),
            Err(e) => {
                eprintln!("baseline good shot failed: {e}");
                handle.shutdown();
                return 1;
            }
        }
    }
    let baseline = latency_summary(&mut baseline_latencies);
    println!(
        "baseline: {} good requests, p50 {:.3} ms, p99 {:.3} ms",
        baseline.requests, baseline.p50_ms, baseline.p99_ms
    );

    // 4. The scenario matrix, with a concurrent good client throughout:
    //    correctness under attack is the point, not an afterthought.
    let good = GoodTraffic::start(target.clone(), Duration::from_millis(10));
    let mut scenarios = Vec::new();
    for scenario in scenario_matrix(&target) {
        let report = run_scenario(&target, &scenario);
        println!(
            "{:<26} expected [{}]  observed [{}]  {}  ({:.0} ms)",
            report.scenario,
            report.expected,
            report.observed,
            if report.pass { "PASS" } else { "FAIL" },
            report.duration_ms
        );
        scenarios.push(report);
    }
    let (mut attack_latencies, divergences) = good.stop();
    let under_attack = latency_summary(&mut attack_latencies);
    let unexpected = scenarios.iter().filter(|s| !s.pass).count();
    println!(
        "under attack: {} good requests, p50 {:.3} ms, p99 {:.3} ms, {} divergences",
        under_attack.requests, under_attack.p50_ms, under_attack.p99_ms, divergences
    );

    // 5. Optional soak: sustained mixed traffic with the registry and
    //    display cache churning at capacity.
    let soak = if config.soak_secs > 0 {
        let mut base_csv = String::from("k,v\n");
        for r in 0..30 {
            base_csv.push_str(&format!("row{r},{r}\n"));
        }
        println!(
            "soak: {} s of mixed good/byzantine traffic...",
            config.soak_secs
        );
        let report = run_soak(
            &target,
            &SoakOptions {
                duration: Duration::from_secs(config.soak_secs),
                rss_budget_bytes: config.rss_budget_mb * (1 << 20),
                good_requests: good_requests.clone(),
                upload_csv: Some(base_csv),
                sample_every: Duration::from_millis(500),
            },
        );
        println!(
            "soak: {} good, {} byzantine, {} uploads, RSS growth {} KiB (budget {} KiB), \
             evictions +{}, monotone {}, {}",
            report.good_requests,
            report.byzantine_shots,
            report.uploads_attempted,
            report.rss_growth_bytes / 1024,
            report.rss_budget_bytes / 1024,
            report.evictions_delta,
            report.counters_monotone,
            if report.pass { "PASS" } else { "FAIL" }
        );
        for failure in &report.failures {
            eprintln!("soak failure: {failure}");
        }
        Some(report)
    } else {
        None
    };

    // 6. Snapshot the interesting server counters, then drain.
    let snap = telemetry.snapshot();
    let server_counters: std::collections::BTreeMap<String, u64> = [
        "server.http.requests",
        "server.http.parse_errors",
        "server.http.errors",
        "server.http.throttled",
        "server.http.write_errors",
        "server.pool.panics",
        "server.connections",
        "admission.rejected",
        "registry.uploads",
        "registry.evictions",
    ]
    .iter()
    .map(|name| ((*name).to_string(), snap.counter(name).unwrap_or(0)))
    .collect();
    handle.shutdown();

    let soak_failed = soak.as_ref().is_some_and(|s| !s.pass);
    if let Some(path) = &config.bench_out {
        let record = ChaosBenchRecord {
            version: 1,
            bench: "chaos",
            dataset: bundle.dataset.clone(),
            timeout_ms: config.timeout_ms,
            scenarios,
            unexpected,
            good_client: GoodClientRecord {
                baseline,
                under_attack,
                divergences,
            },
            soak,
            server_counters,
        };
        match atena_bench::dump_json_to(std::path::Path::new(path), &record) {
            Ok(()) => println!("chaos bench record written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return 1;
            }
        }
    }

    if unexpected > 0 || divergences > 0 || soak_failed {
        eprintln!(
            "FAIL: {unexpected} unexpected scenario outcomes, {divergences} divergences, \
             soak {}",
            if soak_failed { "failed" } else { "ok" }
        );
        return 1;
    }
    let panics = snap.counter("server.pool.panics").unwrap_or(0);
    if panics > 0 {
        eprintln!("FAIL: {panics} worker panics under chaos");
        return 1;
    }
    println!("chaos: all scenarios produced their expected outcomes");
    0
}

//! Soak: 8 s of mixed good and byzantine traffic against one server whose
//! dataset registry churns at capacity. Two good clients check every
//! response byte for byte against an offline decode, a slow-loris client
//! dribbles headers throughout, an uploader keeps the registry evicting,
//! and a churn client sends every frame of the shared hostile table, each
//! of which must get exactly its table status. Every 500 ms a sampler
//! reads `/v1/metrics`: `server.mem.rss_bytes` may grow at most 48 MiB
//! and no counter may go backwards.
//!
//! This is its own test binary so the RSS samples see only this process.

mod common;

use atena_dataframe::CsvLimits;
use atena_registry::{RegistryConfig, TenantLimits};
use atena_server::{Engine, ServerConfig};
use common::frames::hostile_frames;
use common::{
    base, dribble_until_cut, exchange, notebook_request, offline_body, spawn, tiny_bundle,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SOAK: Duration = Duration::from_secs(8);
const SAMPLE_EVERY: Duration = Duration::from_millis(500);
const RSS_BUDGET_BYTES: u64 = 48 << 20;

/// Counters whose monotonicity the sampler enforces.
const MONOTONE_COUNTERS: &[&str] = &[
    "server.http.requests",
    "server.http.parse_errors",
    "server.connections",
    "registry.uploads",
    "registry.evictions",
    "server.cache.hits",
    "server.cache.misses",
];

#[test]
fn soak_keeps_memory_flat_and_every_response_exact() {
    let bundle = tiny_bundle();
    let offline = Engine::new(bundle.clone(), base()).unwrap();
    // Distinct seeds keep the display and response caches churning.
    let good: Vec<(String, String)> = (0..4u64)
        .map(|seed| {
            let body = format!(r#"{{"dataset":"tiny","episode_len":3,"seed":{seed}}}"#);
            (notebook_request(&body), offline_body(&offline, 3, seed))
        })
        .collect();
    // A hostile-friendly config: short deadline, tiny registry budget,
    // tight admission.
    let request_timeout = Duration::from_millis(700);
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        cache_size: 8,
        request_timeout,
        registry: RegistryConfig {
            budget_bytes: 2048,
            max_datasets: 4,
            tenant_quota_bytes: 2048,
            limits: CsvLimits {
                max_bytes: 4096,
                max_rows: 10_000,
                max_cols: 16,
            },
        },
        tenant_limits: TenantLimits {
            max_inflight: 2,
            retry_after_secs: 1,
        },
        ..Default::default()
    };
    let frames = hostile_frames(config.max_body_bytes);
    let (handle, addr, telemetry) = spawn(config, Engine::new(bundle, base()).unwrap());

    let stop = AtomicBool::new(false);
    let good_shots = AtomicUsize::new(0);
    let failures = Mutex::new(Vec::<String>::new());
    let fail = |failure: String| failures.lock().unwrap().push(failure);
    let mut rss_first = None;
    let mut rss_max = 0.0f64;
    let mut evictions_first = None;
    let mut evictions_last = 0;
    let mut samples = 0;
    std::thread::scope(|s| {
        let (stop, good_shots, good, frames) = (&stop, &good_shots, &good, &frames);
        for offset in 0..2 {
            s.spawn(move || {
                let mut i = offset;
                while !stop.load(Ordering::SeqCst) {
                    let (raw, expected) = &good[i % good.len()];
                    i += 1;
                    match exchange(addr, raw.as_bytes()) {
                        Ok(r) if r.status == 200 && r.body == *expected => {
                            good_shots.fetch_add(1, Ordering::SeqCst);
                        }
                        Ok(r) => fail(format!(
                            "good client got HTTP {} with {} bytes, diverging from the offline decode",
                            r.status,
                            r.body.len()
                        )),
                        Err(end) => fail(format!("good client: {end}")),
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }
        s.spawn(move || {
            let give_up = request_timeout + Duration::from_millis(1500);
            while !stop.load(Ordering::SeqCst) {
                let preamble = b"POST /v1/notebook HTTP/1.1\r\nHost: t\r\nX-Dribble: ";
                if dribble_until_cut(addr, preamble, give_up).is_none() {
                    fail(format!("slow loris was not cut within {give_up:?}"));
                }
            }
        });
        s.spawn(move || {
            for frame in frames.iter().cycle() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                match exchange(addr, &frame.raw) {
                    Ok(r) if r.status == frame.status => {}
                    Ok(r) => fail(format!(
                        "{}: HTTP {}, expected {}",
                        frame.name, r.status, frame.status
                    )),
                    Err(end) => fail(format!("{}: {end}, expected {}", frame.name, frame.status)),
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        // Rotate the CSV so every upload is a new fingerprint and the
        // registry evicts at capacity.
        s.spawn(move || {
            let mut base_csv = String::from("k,v\n");
            for r in 0..30 {
                base_csv.push_str(&format!("row{r},{r}\n"));
            }
            let mut tag = 0usize;
            while !stop.load(Ordering::SeqCst) {
                let csv = format!("{base_csv}tag{tag},{tag}\n");
                tag += 1;
                let raw = format!(
                    "POST /v1/datasets?name=soak{tag} HTTP/1.1\r\nHost: t\r\n\
                     X-Atena-Tenant: soaker{}\r\nContent-Type: text/csv\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{csv}",
                    tag % 4,
                    csv.len()
                );
                let _ = exchange(addr, raw.as_bytes());
                std::thread::sleep(Duration::from_millis(25));
            }
        });

        let started = Instant::now();
        let mut previous: HashMap<&str, u64> = HashMap::new();
        while started.elapsed() < SOAK {
            std::thread::sleep(SAMPLE_EVERY);
            let metrics = match exchange(
                addr,
                b"GET /v1/metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            ) {
                Ok(r) if r.status == 200 => {
                    serde_json::from_str::<serde_json::Value>(&r.body).expect("metrics JSON")
                }
                other => {
                    fail(format!(
                        "metrics scrape failed: {:?}",
                        other.map(|r| r.status)
                    ));
                    continue;
                }
            };
            samples += 1;
            if let Some(rss) = metrics["gauges"]["server.mem.rss_bytes"].as_f64() {
                rss_first.get_or_insert(rss);
                rss_max = rss_max.max(rss);
            }
            for name in MONOTONE_COUNTERS {
                let now = metrics["counters"][*name].as_u64().unwrap_or(0);
                let before = previous.insert(*name, now).unwrap_or(0);
                if now < before {
                    fail(format!("counter {name} went backwards: {before} -> {now}"));
                }
            }
            let evictions = metrics["counters"]["registry.evictions"]
                .as_u64()
                .unwrap_or(0);
            evictions_first.get_or_insert(evictions);
            evictions_last = evictions;
        }
        stop.store(true, Ordering::SeqCst);
    });

    let failures = failures.into_inner().unwrap();
    assert!(failures.is_empty(), "soak failures: {failures:#?}");
    assert!(good_shots.into_inner() > 0, "no good request completed");
    assert!(samples >= 2, "only {samples} metrics samples");
    let rss_first = rss_first.expect("server.mem.rss_bytes never appeared in /v1/metrics");
    assert!(
        rss_max - rss_first <= RSS_BUDGET_BYTES as f64,
        "RSS grew {rss_first} -> {rss_max} bytes, over the {RSS_BUDGET_BYTES} byte budget"
    );
    assert!(
        evictions_last > evictions_first.unwrap_or(0),
        "registry at capacity produced no evictions during the soak"
    );
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("server.pool.panics"), None);
    assert!(
        snap.counter("server.http.parse_errors").unwrap_or(0) > 0,
        "byzantine traffic must show up as parse errors"
    );
    handle.shutdown();
}

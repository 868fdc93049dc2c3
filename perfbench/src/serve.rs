//! The `serve-mixed` workload: a self-hosted `atena-server` (workers =
//! nproc, response cache on) driven over nproc keep-alive connections, first
//! open loop at a fixed rate, then closed loop at saturation. Reads draw
//! seeds from a small pool and hit the response cache; one op in
//! `UPLOAD_EVERY` uploads a distinct flights1 variant under a registry budget
//! that forces evictions, then decodes it cold.

use crate::layers::{replay_episode, StepLayers};
use crate::stats::{now, summarize, Spans};
use crate::{digest, median, Outcome, Run};
use atena_core::{train_policy_bundle, Notebook, PolicyBundle, Strategy};
use atena_dataframe::{CsvLimits, DataFrame};
use atena_env::{DisplayCache, EdaEnv, EnvConfig, ResolvedOp};
use atena_nn::Tensor;
use atena_registry::{dataset_id_for_fingerprint, ingest_csv, DatasetRegistry, RegistryConfig};
use atena_rl::{Policy, TwofoldPolicy};
use atena_server::{
    Engine, NotebookRequest, NotebookResponse, RequestReader, Response, Server, ServerConfig,
    ServerHandle,
};
use atena_telemetry::{MetricsRegistry, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop rate, about half the `max_rps` (36–44) the workload sustained
/// on a 2-core x86-64 box when the benchmark was written.
const OPEN_RATE: f64 = 20.0;
/// Share of `--seconds` spent open loop; the rest is the saturation phase.
const OPEN_SHARE: f64 = 0.7;
/// PPO iterations the fixture policy trains (4 lanes × 96 steps each).
/// It trains like the `train` workload, from the same fixed seed, not the
/// workload seed: decode cost follows the ops a policy chooses, and
/// fixtures trained from seeds 1–5 decoded at p50 2.0–11.7 ms, so no
/// bound on `p50_ms` could hold across seeds. The workload seed drives
/// the traffic.
const FIXTURE_ITERATIONS: usize = 4;
/// Fixture trainings per run: their rate is the serve workload's
/// `train_steps_per_s`, and one training alone is only about a second.
const FIXTURE_BUILDS: usize = 2;
/// Server start-ups per run; `setup_s` is their median. One takes about
/// 10 ms, most of it parsing the bundle, and single start-ups varied 2×.
const SETUPS: usize = 15;
/// Seeds the reads draw from.
const POOL: usize = 16;
/// One op in this many is an upload followed by a decode of it.
const UPLOAD_EVERY: usize = 10;
/// Per-exchange socket timeout; a request that takes longer fails.
const TIMEOUT: Duration = Duration::from_secs(10);
/// The greedy decode temperature `atena-server` uses.
const DECODE_TEMPERATURE: f32 = 1e-3;
const DATASET: &str = "flights1";

/// Workload phases, each with its own request seeds and upload variants.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Warm = 0,
    Open = 1,
    Saturate = 2,
    Traced = 3,
}

/// The trained policy and dataset every server of the run loads, built
/// before the timed phases; not part of `setup_s`.
/// Training runs in a child process, so its heap does not count towards
/// the serving process's `rss_mb`.
struct Fixture {
    bundle: PolicyBundle,
    bundle_json: String,
    frame: DataFrame,
    csv: String,
    /// Byte offset of the start of every CSV line.
    line_starts: Vec<usize>,
    /// Resident bytes of the full flights1 CSV once ingested.
    upload_bytes: usize,
    train_steps: usize,
    build_secs: f64,
}

impl Fixture {
    /// Trains the fixture `FIXTURE_BUILDS` times, one child process after
    /// another, and requires byte-identical bundles.
    fn build(workers: usize) -> Result<Fixture, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut build_secs = 0.0;
        let mut bundles: Vec<String> = Vec::new();
        for _ in 0..FIXTURE_BUILDS {
            let child = std::process::Command::new(&exe)
                .args(["fixture", &workers.to_string()])
                .output()
                .map_err(|e| format!("cannot run the fixture trainer: {e}"))?;
            if !child.status.success() {
                return Err(format!(
                    "fixture training failed: {}",
                    String::from_utf8_lossy(&child.stderr)
                ));
            }
            let text = String::from_utf8(child.stdout).map_err(|e| e.to_string())?;
            let (head, json) = text
                .split_once('\n')
                .ok_or("fixture output has no bundle")?;
            build_secs += head
                .parse::<f64>()
                .map_err(|_| format!("bad fixture header {head:?}"))?;
            bundles.push(json.to_string());
        }
        if bundles.iter().any(|b| *b != bundles[0]) {
            return Err("fixture training is not deterministic: bundles differ".into());
        }
        let bundle_json = bundles.swap_remove(0);
        let bundle = PolicyBundle::from_json(&bundle_json).map_err(|e| e.to_string())?;
        let dataset = atena_data::flights1();
        let csv = dataset.frame.to_csv_string();
        let line_starts = std::iter::once(0)
            .chain(csv.match_indices('\n').map(|(i, _)| i + 1))
            .filter(|&i| i < csv.len())
            .collect();
        let upload_bytes = ingest_csv(csv.as_bytes(), limits())
            .map_err(|e| format!("flights1 CSV does not ingest: {e}"))?
            .approx_bytes();
        Ok(Fixture {
            train_steps: bundle.train_steps * FIXTURE_BUILDS,
            bundle,
            bundle_json,
            frame: dataset.frame,
            csv,
            line_starts,
            upload_bytes,
            build_secs,
        })
    }

    /// Variant `v` of the seed's run: flights1 without its last rows, a
    /// different count per variant, so every upload is new content.
    fn variant(&self, seed: u64, v: usize) -> &[u8] {
        let drop = 1 + (seed % 8) as usize * 8 + v;
        let keep = self.line_starts.len().saturating_sub(drop).max(2);
        let end = self
            .line_starts
            .get(keep)
            .copied()
            .unwrap_or(self.csv.len());
        &self.csv.as_bytes()[..end]
    }
}

/// Train the fixture policy (the child-process half of [`Fixture::build`])
/// with `train_policy_bundle`: the `train` workload's configuration for
/// `FIXTURE_ITERATIONS` iterations. Returns the seconds the call took
/// (reward fit, policy init and training), a newline, and the bundle.
pub fn train_fixture(workers: usize) -> Result<String, String> {
    let dataset = atena_data::flights1();
    let focal_attrs = dataset.focal_attrs();
    let mut config = crate::train::config(workers);
    config.train_steps = FIXTURE_ITERATIONS * config.trainer.n_lanes * config.trainer.rollout_len;
    let start = now();
    let bundle = train_policy_bundle(DATASET, dataset.frame, focal_attrs, config, Strategy::Atena)
        .map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();
    Ok(format!(
        "{secs}\n{}",
        bundle.to_json().map_err(|e| e.to_string())?
    ))
}

fn limits() -> CsvLimits {
    RegistryConfig::default().limits
}

fn variant_name(v: usize) -> String {
    format!("variant{v}")
}

/// One request or upload the load generator issues.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `POST /v1/notebook` on the baked-in dataset.
    Notebook { seed: u64 },
    /// `POST /v1/datasets` of a variant, then one decode of it.
    Upload { variant: usize, seed: u64 },
}

/// The op sequence of one phase, a pure function of the workload seed.
fn ops(seed: u64, phase: Phase, n: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ phase as u64);
    let pool = pool(seed);
    (0..n)
        .map(|i| {
            if i % UPLOAD_EVERY == UPLOAD_EVERY - 1 {
                Op::Upload {
                    variant: variant_base(phase) + i / UPLOAD_EVERY,
                    seed: rng.gen_range(0..1_000_000),
                }
            } else {
                Op::Notebook {
                    seed: pool[rng.gen_range(0..POOL)],
                }
            }
        })
        .collect()
}

/// The request seeds reads draw from.
fn pool(seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..POOL).map(|_| rng.gen_range(0..1_000_000)).collect()
}

fn variant_base(phase: Phase) -> usize {
    match phase {
        Phase::Warm => 0,
        Phase::Open => 10,
        Phase::Saturate => 70,
        Phase::Traced => 130,
    }
}

/// Which frame a notebook request decodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Target {
    Base,
    Variant(usize),
}

/// What one notebook request (or the upload before it) asks for; equal
/// asks get byte-identical responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Ask {
    target: Target,
    seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Notebook,
    Upload,
}

/// One exchange as the client saw it. It keeps a digest of the response
/// body, not the bytes, so the client's memory does not grow with them.
struct Shot {
    kind: Kind,
    ask: Ask,
    /// When the op was due; `None` for ops sent as soon as a connection
    /// was free (closed loop, and the decode that follows an upload).
    due: Option<Instant>,
    sent: Instant,
    done: Instant,
    /// 0 when the exchange failed on the wire.
    status: u16,
    cache_hit: bool,
    body_digest: u64,
    /// The `dataset_id` an upload was answered with.
    dataset_id: Option<String>,
}

impl Shot {
    fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Latency from the due time; a failed exchange misses every limit.
    fn latency_ms(&self) -> f64 {
        if self.ok() {
            (self.done - self.due.unwrap_or(self.sent)).as_secs_f64() * 1e3
        } else {
            TIMEOUT.as_secs_f64() * 1e3
        }
    }

    fn roundtrip_secs(&self) -> f64 {
        (self.done - self.sent).as_secs_f64()
    }
}

fn notebook_request(ask: Ask, variant_id: Option<&str>) -> Vec<u8> {
    let body = match variant_id {
        Some(id) => format!("{{\"dataset_id\":{id:?},\"seed\":{}}}", ask.seed),
        None => format!("{{\"dataset\":{DATASET:?},\"seed\":{}}}", ask.seed),
    };
    format!(
        "POST /v1/notebook HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn upload_request(variant: usize, csv: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST /v1/datasets?name={} HTTP/1.1\r\nHost: bench\r\nX-Atena-Tenant: bench\r\n\
         Content-Type: text/csv\r\nContent-Length: {}\r\n\r\n",
        variant_name(variant),
        csv.len()
    )
    .into_bytes();
    raw.extend_from_slice(csv);
    raw
}

/// A keep-alive client connection.
struct Conn(TcpStream);

struct Reply {
    status: u16,
    cache_hit: bool,
    body: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        Ok(Conn(stream))
    }

    /// Send one request and read its response (Content-Length framed).
    fn exchange(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        self.0.write_all(request)?;
        let mut buf = Vec::with_capacity(8192);
        let mut chunk = [0u8; 16384];
        let head_end = loop {
            if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            let n = self.0.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).to_ascii_lowercase();
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or(std::io::ErrorKind::InvalidData)?;
        let header = |name: &str| {
            head.lines()
                .find_map(|l| l.strip_prefix(name).map(|v| v.trim().to_string()))
        };
        let len: usize = header("content-length:")
            .and_then(|v| v.parse().ok())
            .ok_or(std::io::ErrorKind::InvalidData)?;
        let cache_hit = header("x-atena-cache:").as_deref() == Some("hit");
        while buf.len() < head_end + len {
            let n = self.0.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        Ok(Reply {
            status,
            cache_hit,
            body: buf[head_end..head_end + len].to_vec(),
        })
    }
}

/// One-shot `GET` on a fresh connection that the server closes after.
fn get(addr: SocketAddr, path: &str) -> std::io::Result<Reply> {
    Conn::open(addr)?.exchange(
        format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

/// How a phase paces its ops.
#[derive(Clone, Copy)]
enum Pace {
    /// Op `i` is due at `start + i / rate`, whether or not earlier ops
    /// have finished (open loop).
    Open { start: Instant, rate: f64 },
    /// Each connection sends its next op when the last one is answered,
    /// until the deadline (closed loop).
    Closed { deadline: Instant },
}

/// Issue `ops` from `connections` client threads, each with its own
/// keep-alive connection, taking ops in order as they free up.
fn drive(
    addr: SocketAddr,
    fx: &Fixture,
    seed: u64,
    ops: &[Op],
    pace: Pace,
    connections: usize,
) -> Vec<Shot> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|_| scope.spawn(|| client(addr, fx, seed, ops, pace, &next)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn client(
    addr: SocketAddr,
    fx: &Fixture,
    seed: u64,
    ops: &[Op],
    pace: Pace,
    next: &AtomicUsize,
) -> Vec<Shot> {
    let mut shots = Vec::new();
    let mut conn: Option<Conn> = None;
    loop {
        let i = next.fetch_add(1, Ordering::SeqCst);
        let Some(&op) = ops.get(i) else {
            break;
        };
        let due = match pace {
            Pace::Open { start, rate } => {
                let due = start + Duration::from_secs_f64(i as f64 / rate);
                if let Some(wait) = due.checked_duration_since(now()) {
                    std::thread::sleep(wait);
                }
                Some(due)
            }
            Pace::Closed { deadline } => {
                if now() >= deadline {
                    break;
                }
                None
            }
        };
        match op {
            Op::Notebook { seed } => {
                let ask = Ask {
                    target: Target::Base,
                    seed,
                };
                let request = notebook_request(ask, None);
                shots.push(exchange(&mut conn, addr, Kind::Notebook, ask, due, request));
            }
            Op::Upload { variant, seed: s } => {
                let ask = Ask {
                    target: Target::Variant(variant),
                    seed: s,
                };
                let request = upload_request(variant, fx.variant(seed, variant));
                let upload = exchange(&mut conn, addr, Kind::Upload, ask, due, request);
                let id = upload.dataset_id.clone();
                shots.push(upload);
                if let Some(id) = id {
                    let request = notebook_request(ask, Some(&id));
                    shots.push(exchange(
                        &mut conn,
                        addr,
                        Kind::Notebook,
                        ask,
                        None,
                        request,
                    ));
                }
            }
        }
    }
    shots
}

fn exchange(
    conn: &mut Option<Conn>,
    addr: SocketAddr,
    kind: Kind,
    ask: Ask,
    due: Option<Instant>,
    request: Vec<u8>,
) -> Shot {
    let sent = now();
    let reply = match conn.take() {
        Some(c) => Ok(c),
        None => Conn::open(addr),
    }
    .and_then(|mut c| c.exchange(&request).map(|r| (c, r)));
    let done = now();
    let (status, cache_hit, body) = match reply {
        Ok((c, r)) => {
            *conn = Some(c);
            (r.status, r.cache_hit, r.body)
        }
        Err(_) => (0, false, Vec::new()),
    };
    let mut shot = Shot {
        kind,
        ask,
        due,
        sent,
        done,
        status,
        cache_hit,
        body_digest: digest(&body),
        dataset_id: None,
    };
    if shot.ok() && kind == Kind::Upload {
        shot.dataset_id = uploaded_id(&body);
    }
    shot
}

fn uploaded_id(body: &[u8]) -> Option<String> {
    let value: serde_json::Value = serde_json::from_str(std::str::from_utf8(body).ok()?).ok()?;
    value["dataset"]["dataset_id"].as_str().map(str::to_string)
}

/// A running server plus the handles the benchmark reads after the run.
struct Live {
    handle: ServerHandle,
    addr: SocketAddr,
    display_cache: Arc<DisplayCache>,
}

/// Bundle deserialize + `Engine::new` + bind, up to the first healthy
/// `/v1/healthz`: the `setup_s` of the serve workload.
fn start(fx: &Fixture, registry: RegistryConfig, workers: usize) -> Result<(Live, f64), String> {
    let start = now();
    let bundle = PolicyBundle::from_json(&fx.bundle_json).map_err(|e| e.to_string())?;
    let engine = Engine::new(bundle, fx.frame.clone())?;
    let display_cache = Arc::clone(engine.display_cache());
    let server = Server::bind_with_telemetry(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            registry,
            ..ServerConfig::default()
        },
        engine,
        Arc::new(MetricsRegistry::new()),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
    loop {
        match get(addr, "/v1/healthz") {
            Ok(r) if r.status == 200 => break,
            _ if start.elapsed() > TIMEOUT => return Err("server never became healthy".into()),
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    let secs = start.elapsed().as_secs_f64();
    Ok((
        Live {
            handle,
            addr,
            display_cache,
        },
        secs,
    ))
}

/// Counters from the server's `/v1/metrics`.
fn counters(addr: SocketAddr) -> HashMap<String, f64> {
    let Ok(reply) = get(addr, "/v1/metrics") else {
        return HashMap::new();
    };
    let value: serde_json::Value = std::str::from_utf8(&reply.body)
        .ok()
        .and_then(|t| serde_json::from_str(t).ok())
        .unwrap_or(serde_json::Value::Null);
    let mut out = HashMap::new();
    for name in [
        "server.cache.hits",
        "server.cache.misses",
        "registry.evictions",
    ] {
        out.insert(
            name.to_string(),
            value["counters"][name].as_f64().unwrap_or(0.0),
        );
    }
    out
}

/// In-process ground truth for every response, computed outside the timed
/// phases.
struct Reference<'a> {
    fx: &'a Fixture,
    seed: u64,
    engine: Engine,
    frames: HashMap<usize, Arc<DataFrame>>,
    bodies: HashMap<Ask, String>,
}

impl<'a> Reference<'a> {
    fn new(fx: &'a Fixture, seed: u64) -> Result<Self, String> {
        Ok(Reference {
            fx,
            seed,
            engine: Engine::new(fx.bundle.clone(), fx.frame.clone())?,
            frames: HashMap::new(),
            bodies: HashMap::new(),
        })
    }

    /// The frame the server parsed from variant `v`'s upload.
    fn frame(&mut self, v: usize) -> Result<Arc<DataFrame>, String> {
        if let Some(f) = self.frames.get(&v) {
            return Ok(Arc::clone(f));
        }
        let frame = Arc::new(
            ingest_csv(self.fx.variant(self.seed, v), limits()).map_err(|e| e.to_string())?,
        );
        self.frames.insert(v, Arc::clone(&frame));
        Ok(frame)
    }

    /// The `dataset_id` the server gives variant `v`'s upload.
    fn dataset_id(&mut self, v: usize) -> Result<String, String> {
        Ok(dataset_id_for_fingerprint(self.frame(v)?.fingerprint()))
    }

    /// The bytes the client sent for the notebook request `ask`.
    fn raw_request(&mut self, ask: Ask) -> Result<Vec<u8>, String> {
        let id = match ask.target {
            Target::Base => None,
            Target::Variant(v) => Some(self.dataset_id(v)?),
        };
        Ok(notebook_request(ask, id.as_deref()))
    }

    /// The response body the server must send for `ask`, once prepared.
    fn body(&self, ask: Ask) -> Result<&String, String> {
        self.bodies
            .get(&ask)
            .ok_or_else(|| format!("no reference decode of {ask:?}"))
    }

    fn request(&mut self, ask: Ask) -> Result<(Arc<DataFrame>, NotebookRequest), String> {
        let (frame, req) = match ask.target {
            Target::Base => {
                let req = self.engine.validate(DATASET, None, Some(ask.seed));
                (Arc::clone(self.engine.frame()), req)
            }
            Target::Variant(v) => {
                let frame = self.frame(v)?;
                let name = variant_name(v);
                let req = self
                    .engine
                    .validate_for_frame(&name, &frame, None, Some(ask.seed));
                (frame, req)
            }
        };
        Ok((frame, req.map_err(|e| e.to_string())?))
    }

    /// Decode every distinct notebook request of `shots` on nproc threads.
    fn prepare(&mut self, shots: &[Shot], workers: usize) -> Result<(), String> {
        let mut todo = Vec::new();
        for s in shots.iter().filter(|s| s.kind == Kind::Notebook) {
            if !self.bodies.contains_key(&s.ask) && !todo.iter().any(|(k, _, _)| *k == s.ask) {
                let (frame, req) = self.request(s.ask)?;
                todo.push((s.ask, frame, req));
            }
        }
        let engine = &self.engine;
        let chunk = todo.len().div_ceil(workers.max(1)).max(1);
        type Decoded = Result<(Ask, String), String>;
        let decoded: Vec<Decoded> = std::thread::scope(|scope| {
            let handles: Vec<_> = todo
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|(key, frame, req)| {
                                let response = engine
                                    .decode_with_frame(frame, req, None)
                                    .map_err(|e| e.to_string())?;
                                let body =
                                    serde_json::to_string(&response).map_err(|e| e.to_string())?;
                                Ok((*key, body))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference thread panicked"))
                .collect()
        });
        for d in decoded {
            let (key, body) = d?;
            self.bodies.insert(key, body);
        }
        Ok(())
    }

    /// Check every shot against the in-process result; returns failures.
    fn check(&mut self, shots: &[Shot], out: &mut Outcome) -> usize {
        let mut failed = 0;
        for s in shots {
            let problem = if !s.ok() {
                Some(format!("status {}", s.status))
            } else {
                match s.kind {
                    Kind::Notebook => {
                        let expected = self.bodies.get(&s.ask).map(|b| digest(b.as_bytes()));
                        (expected != Some(s.body_digest))
                            .then(|| "body differs from in-process Engine::decode".to_string())
                    }
                    Kind::Upload => {
                        let Target::Variant(v) = s.ask.target else {
                            unreachable!("uploads target variants")
                        };
                        (self.dataset_id(v).ok() != s.dataset_id)
                            .then(|| "upload answered with a different dataset_id".to_string())
                    }
                }
            };
            if let Some(p) = problem {
                failed += 1;
                if failed <= 5 {
                    out.fail(format!("{:?} {:?}: {p}", s.kind, s.ask));
                }
            }
        }
        failed
    }
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::new(0);
    if let Err(e) = measure(run, &mut out) {
        out.fail(e);
    }
    out
}

fn measure(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let fx = Fixture::build(run.workers)?;
    // Room for about two uploads: every further one evicts.
    let registry = RegistryConfig {
        budget_bytes: fx.upload_bytes * 5 / 2,
        ..RegistryConfig::default()
    };
    let mut setups = Vec::new();
    let mut live: Option<Live> = None;
    for _ in 0..SETUPS {
        // The previous server stops first, so its threads do not run
        // during the next start-up.
        if let Some(old) = live.take() {
            old.handle.shutdown();
        }
        let (server, secs) = start(&fx, registry, run.workers)?;
        setups.push(secs);
        live = Some(server);
    }
    let live = live.expect("at least one server");
    let (addr, conns) = (live.addr, run.workers);
    let open_secs = run.seconds as f64 * OPEN_SHARE;
    let saturate_secs = run.seconds as f64 - open_secs;

    // Warm-up: fills the display cache and the response cache for the pool
    // before anything is timed.
    let mut warm_ops: Vec<Op> = pool(run.seed)
        .into_iter()
        .map(|seed| Op::Notebook { seed })
        .collect();
    warm_ops.push(Op::Upload {
        variant: variant_base(Phase::Warm),
        seed: 1,
    });
    let warm = drive(
        addr,
        &fx,
        run.seed,
        &warm_ops,
        Pace::Closed {
            deadline: now() + TIMEOUT * 6,
        },
        conns,
    );

    let n_open = (OPEN_RATE * open_secs).round() as usize;
    let open_ops = ops(run.seed, Phase::Open, n_open);
    let open = drive(
        addr,
        &fx,
        run.seed,
        &open_ops,
        Pace::Open {
            start: now(),
            rate: OPEN_RATE,
        },
        conns,
    );
    let saturate = saturate_phase(addr, &fx, run, Phase::Saturate, saturate_secs);
    let rss_mb = crate::rss_mb();

    let mut reference = Reference::new(&fx, run.seed)?;
    let mut wrong_saturate = 0;
    for shots in [&warm, &open, &saturate.0] {
        reference.prepare(shots, run.workers)?;
        let failed = reference.check(shots, out);
        if std::ptr::eq(shots, &saturate.0) {
            wrong_saturate = failed;
        }
        out.attempted += shots.len();
        out.failed += failed;
    }
    // Only correct answers count towards max_rps.
    let max_rps = (saturate.0.len() - wrong_saturate) as f64 / saturate.1;

    let reads: Vec<f64> = open
        .iter()
        .filter(|s| s.kind == Kind::Notebook)
        .map(Shot::latency_ms)
        .collect();
    let upload_shots: Vec<&Shot> = open.iter().filter(|s| s.kind == Kind::Upload).collect();
    let upload_ms: Vec<f64> = upload_shots.iter().map(|s| s.latency_ms()).collect();
    let lat = summarize(&reads);
    let up = summarize(&upload_ms);
    out.say(format!(
        "serve-mixed: fixture trained {FIXTURE_BUILDS}× to identical bundles, {} env steps in {:.3} s; server workers {conns}, {conns} keep-alive connections",
        fx.train_steps, fx.build_secs
    ));
    out.say(format!(
        "open loop {OPEN_RATE} req/s for {open_secs:.1} s: {} notebook requests, p50 {:.3} ms, tail p{:.1} {:.3} ms",
        lat.count, lat.p50, lat.tail_pct, lat.tail
    ));
    out.say(format!(
        "saturation {saturate_secs:.1} s closed loop: {} responses, {max_rps:.2} correct/s",
        saturate.0.len()
    ));
    out.say(format!("uploads: {} timed, p50 {:.3} ms", up.count, up.p50));
    out.say(format!("set-ups (s): {setups:.4?}"));
    out.metric("setup_s", "s", median(&setups));
    out.metric("rss_mb", "MiB", rss_mb);
    out.metric(
        "train_steps_per_s",
        "steps/s",
        fx.train_steps as f64 / fx.build_secs,
    );
    out.metric("p50_ms", "ms", lat.p50);
    out.metric("tail_ms", "ms", lat.tail);
    out.metric("max_rps", "req/s", max_rps);
    out.metric("upload_p50_ms", "ms", up.p50);

    if run.trace {
        let mut spans = Spans::default();
        // The program's own tracing on, for the overhead figure.
        atena_telemetry::tracer().set_enabled(true);
        let traced = saturate_phase(addr, &fx, run, Phase::Traced, saturate_secs);
        atena_telemetry::tracer().set_enabled(false);
        reference.prepare(&traced.0, run.workers)?;
        let wrong = reference.check(&traced.0, out);
        out.attempted += traced.0.len();
        out.failed += wrong;
        let traced_rps = (traced.0.len() - wrong) as f64 / traced.1;
        spans.set("trace.overhead_pct", (max_rps / traced_rps - 1.0) * 100.0);
        let counters = counters(addr);
        let lookups = counters["server.cache.hits"] + counters["server.cache.misses"];
        spans.set(
            "server.cache.hit_ratio",
            counters["server.cache.hits"] / lookups.max(1.0),
        );
        spans.set("registry.evictions", counters["registry.evictions"]);
        let cache = live.display_cache.stats();
        spans.set("env.cache.hit_ratio", cache.hit_rate());
        spans.set("env.cache.evictions", cache.evictions as f64);
        let late: Vec<f64> = open
            .iter()
            .filter_map(|s| s.due.map(|due| (s.sent - due).as_secs_f64() * 1e3))
            .collect();
        let late = summarize(&late);
        spans.set("loadgen.late_ms.p50", late.p50);
        spans.set("loadgen.late_ms.tail", late.tail);
        layers(
            &mut reference,
            [&open, &saturate.0],
            &upload_shots,
            registry,
            &mut spans,
        )?;
        out.spans = Some(spans);
    }
    live.handle.shutdown();
    Ok(())
}

/// Closed loop on every connection for `secs`; returns the shots and the
/// measured duration.
fn saturate_phase(
    addr: SocketAddr,
    fx: &Fixture,
    run: &Run,
    phase: Phase,
    secs: f64,
) -> (Vec<Shot>, f64) {
    let ops = ops(run.seed, phase, (secs * 2000.0) as usize + 64);
    let start = now();
    let shots = drive(
        addr,
        fx,
        run.seed,
        &ops,
        Pace::Closed {
            deadline: start + Duration::from_secs_f64(secs),
        },
        run.workers,
    );
    (shots, start.elapsed().as_secs_f64())
}

/// Per-layer spans from in-process replays, outside the timed phases, of
/// the requests the open-loop and saturation phases sent; every decode is
/// also rebuilt layer by layer, so `core.notebook.replay` and
/// `server.engine.decode` cover the same requests. Round trip and
/// wire time are kept per phase: at the open-loop rate a connection is
/// idle between requests, at saturation it never is.
fn layers(
    reference: &mut Reference,
    [open, saturated]: [&[Shot]; 2],
    uploads: &[&Shot],
    registry: RegistryConfig,
    spans: &mut Spans,
) -> Result<(), String> {
    let (fx, seed) = (reference.fx, reference.seed);
    let policy = fx.bundle.build_policy().map_err(|e| e.to_string())?;
    let strategy = fx.bundle.strategy.name().to_string();
    let (mut decode_secs, mut child_secs) = (0.0, 0.0);
    for (shots, roundtrip, wire) in [
        (open, "server.roundtrip", "server.http.wire"),
        (
            saturated,
            "server.roundtrip.saturated",
            "server.http.wire.saturated",
        ),
    ] {
        for s in shots.iter().filter(|s| s.kind == Kind::Notebook && s.ok()) {
            let request = reference.raw_request(s.ask)?;
            let parse = now();
            RequestReader::new(&request[..])
                .read_request()
                .map_err(|e| format!("the request does not parse: {e:?}"))?;
            let parse = parse.elapsed().as_secs_f64();
            let body = reference.body(s.ask)?.clone();
            let response = Response::ok_json(body.clone().into_bytes())
                .with_header("X-Atena-Cache", if s.cache_hit { "hit" } else { "miss" })
                .with_header("X-Atena-Trace-Id", "0000000000000000");
            let mut bytes = Vec::with_capacity(body.len() + 256);
            let write = now();
            response
                .write_to(&mut bytes, true)
                .map_err(|e| e.to_string())?;
            let write = write.elapsed().as_secs_f64();
            let mut decode = 0.0;
            if !s.cache_hit {
                // A decode of a fresh upload runs on cold caches, as it did
                // on the server; reads of the baked-in dataset on warm ones.
                let (frame, req) = reference.request(s.ask)?;
                let (engine, cache, frame) = match s.ask.target {
                    Target::Base => (None, Arc::clone(reference.engine.display_cache()), frame),
                    Target::Variant(v) => (
                        Some(Engine::new(fx.bundle.clone(), fx.frame.clone())?),
                        Arc::new(DisplayCache::new(4096)),
                        Arc::new(
                            ingest_csv(fx.variant(seed, v), limits()).map_err(|e| e.to_string())?,
                        ),
                    ),
                };
                let engine = engine.as_ref().unwrap_or(&reference.engine);
                // The spans the engine itself emits under the decode (one
                // policy forward and one env step per decode step) give
                // the coverage.
                let tracer = Tracer::with_capacity(1024);
                tracer.set_enabled(true);
                let trace = tracer.trace("bench.decode");
                let span = trace.span("server.engine.decode");
                let span_id = span.id();
                engine
                    .decode_with_frame(&frame, &req, Some(&span))
                    .map_err(|e| e.to_string())?;
                decode = span.finish();
                drop(trace);
                spans.record_secs("server.engine.decode", decode);
                decode_secs += decode;
                child_secs += tracer
                    .snapshot()
                    .iter()
                    .filter(|r| r.parent_id == span_id)
                    .map(|r| r.duration_secs)
                    .sum::<f64>();
                let layered =
                    mirror_decode(&policy, &fx.bundle, &strategy, &frame, &req, &cache, spans);
                if layered != body {
                    return Err(format!(
                        "layered decode of seed {} differs from the server's",
                        s.ask.seed
                    ));
                }
            }
            spans.record_secs("server.http.parse", parse);
            spans.record_secs("server.http.write", write);
            spans.record_secs(roundtrip, s.roundtrip_secs());
            spans.record_secs(wire, (s.roundtrip_secs() - decode - parse - write).max(0.0));
        }
    }
    spans.set(
        "trace.coverage.server.engine.decode",
        child_secs / decode_secs.max(f64::MIN_POSITIVE),
    );
    let local = DatasetRegistry::new(registry);
    for s in uploads {
        let Target::Variant(v) = s.ask.target else {
            continue;
        };
        let csv = fx.variant(seed, v);
        spans
            .time("dataframe.csv_parse", || {
                DataFrame::from_csv_bytes(csv, limits())
            })
            .map_err(|e| e.to_string())?;
        spans
            .time("registry.ingest", || {
                local.ingest("bench", &variant_name(v), csv)
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `Engine::decode_with_frame` rebuilt from its public parts, one span per
/// layer call: policy forward, resolve, preview, notebook replay, summary
/// and JSON encode. Returns the response body, which must equal the
/// server's.
fn mirror_decode(
    policy: &TwofoldPolicy,
    bundle: &PolicyBundle,
    strategy: &str,
    frame: &Arc<DataFrame>,
    req: &NotebookRequest,
    cache: &Arc<DisplayCache>,
    spans: &mut Spans,
) -> String {
    let mut config = bundle.env.clone();
    config.episode_len = req.episode_len;
    config.seed = req.seed;
    let mut env =
        EdaEnv::with_shared_base(Arc::clone(frame), config).with_display_cache(Arc::clone(cache));
    env.reset_with_seed(req.seed);
    let mut rng = StdRng::seed_from_u64(req.seed);
    while !env.done() {
        let obs = env.observation();
        let row = Tensor::from_vec(1, obs.len(), obs);
        let rows = spans
            .time("nn.forward", || {
                policy.forward_rows(&row, DECODE_TEMPERATURE)
            })
            .expect("the bundle's policy accepts its own observation width");
        spans.add("nn.forward.rows", 1.0);
        let step = rows[0].sample(&mut rng);
        let action = step
            .choice
            .to_eda_action()
            .expect("twofold policies emit twofold actions");
        let op = spans.time("env.resolve", || env.resolve(&action));
        let preview = spans.time("env.preview", || env.preview(&op));
        env.commit(preview);
    }
    let ops: Vec<ResolvedOp> = env.session().ops().iter().map(|o| o.op.clone()).collect();
    let notebook = spans.time("core.notebook.replay", || {
        Notebook::replay(&req.dataset, frame, &ops)
    });
    let body = spans.time("core.notebook.summary", || {
        serde_json::to_string(&NotebookResponse {
            dataset: req.dataset.clone(),
            episode_len: req.episode_len,
            seed: req.seed,
            strategy: strategy.to_string(),
            notebook: notebook.summary(),
        })
        .expect("notebook responses serialize")
    });
    // The same ops once more, display by display, uncached as replay does.
    let mut replay_env = EdaEnv::with_shared_base(
        Arc::clone(frame),
        EnvConfig {
            episode_len: ops.len().max(1),
            ..EnvConfig::default()
        },
    );
    let layers = StepLayers {
        reward: None,
        policy: None,
        resolve: false,
        preview: false,
    };
    replay_episode(&mut replay_env, &ops, &layers, spans);
    body
}

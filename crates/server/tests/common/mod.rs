//! Fixtures and the raw-socket client shared by the server's socket tests.

// Each test binary compiles its own copy of this module and uses a subset.
#![allow(dead_code)]

pub mod frames;

use atena_core::{train_policy_bundle, AtenaConfig, PolicyBundle, Strategy};
use atena_dataframe::{AttrRole, DataFrame};
use atena_server::{
    read_response, ClientResponse, Engine, ReadEnd, Server, ServerConfig, ServerHandle,
};
use atena_telemetry::MetricsRegistry;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub fn base() -> DataFrame {
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

pub fn tiny_bundle() -> PolicyBundle {
    let mut config = AtenaConfig::quick();
    config.train_steps = 300;
    config.probe_steps = 60;
    config.env.episode_len = 4;
    train_policy_bundle("tiny", base(), vec![], config, Strategy::Atena).unwrap()
}

/// Bind `engine` under `config` with its own telemetry registry and serve
/// it on a background thread.
pub fn spawn(
    config: ServerConfig,
    engine: Engine,
) -> (ServerHandle, SocketAddr, Arc<MetricsRegistry>) {
    let telemetry = Arc::new(MetricsRegistry::new());
    let server = Server::bind_with_telemetry(config, engine, Arc::clone(&telemetry)).unwrap();
    let addr = server.local_addr().unwrap();
    (server.spawn().unwrap(), addr, telemetry)
}

/// The exact body the server must answer a `/v1/notebook` request on the
/// `tiny` dataset with: `engine`'s offline decode of the same request.
pub fn offline_body(engine: &Engine, episode_len: usize, seed: u64) -> String {
    let request = engine
        .validate("tiny", Some(episode_len), Some(seed))
        .unwrap();
    serde_json::to_string(&engine.decode(&request).unwrap()).unwrap()
}

/// A fresh connection with a 20 s read timeout.
pub fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
}

/// Write a raw frame on a fresh connection and read one response. The
/// server may answer and reset before consuming the whole frame (oversized
/// bodies), so a failed tail write is acceptable.
pub fn exchange(addr: SocketAddr, raw: &[u8]) -> Result<ClientResponse, ReadEnd> {
    let mut stream = connect(addr);
    let _ = stream.write_all(raw);
    read_response(&mut stream)
}

/// A `Connection: close` `POST /v1/notebook` carrying the JSON `body`.
pub fn notebook_request(body: &str) -> String {
    format!(
        "POST /v1/notebook HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// A slow-loris client: send `preamble` on a fresh connection, then one
/// byte per 100 ms. Each socket read on the server stays fast, so only the
/// per-request deadline can end this. Returns how long the server took to
/// cut the connection, or `None` if it still tolerated the dribble after
/// `give_up`.
pub fn dribble_until_cut(addr: SocketAddr, preamble: &[u8], give_up: Duration) -> Option<Duration> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    stream.write_all(preamble).unwrap();
    while started.elapsed() < give_up {
        std::thread::sleep(Duration::from_millis(100));
        let write_dead = stream.write_all(b"a").is_err();
        let mut chunk = [0u8; 1024];
        let read_dead = match stream.read(&mut chunk) {
            Ok(0) => true,
            Ok(_) => false, // 408 bytes arriving
            Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        };
        if write_dead || read_dead {
            return Some(started.elapsed());
        }
    }
    None
}

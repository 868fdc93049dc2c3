//! Fixtures and the raw-socket client shared by the server's socket tests.

use atena_core::{train_policy_bundle, AtenaConfig, PolicyBundle, Strategy};
use atena_dataframe::{AttrRole, DataFrame};
use atena_server::{read_response, ClientResponse, ReadEnd};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

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

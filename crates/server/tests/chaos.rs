//! Byzantine-client hardening tests over real sockets: every frame of the
//! shared hostile table is pinned to its exact status code and
//! `server.http.*` counter deltas, slow-loris dribblers (head or body) are
//! cut off by the per-request deadline, and clients vanishing mid-request
//! or mid-response cost nobody else a byte of their response.

mod common;

use atena_server::{ClientResponse, Engine, ReadEnd, ServerConfig};
use common::frames::hostile_frames;
use common::{
    base, connect, dribble_until_cut, notebook_request, offline_body, spawn, tiny_bundle,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Read one response off the stream; `None` if the server closed (or
/// reset) without completing one.
fn read_response(stream: &mut TcpStream) -> Option<(u16, String)> {
    parts(atena_server::read_response(stream))
}

/// Write a raw frame (tolerating an answer-and-reset cutoff mid-write)
/// and read back whatever the server produced.
fn exchange(addr: SocketAddr, raw: &[u8]) -> Option<(u16, String)> {
    parts(common::exchange(addr, raw))
}

fn parts(read: Result<ClientResponse, ReadEnd>) -> Option<(u16, String)> {
    read.ok().map(|r| (r.status, r.body))
}

/// Every frame of the hostile table produces its exact status code,
/// counts exactly one `server.http.parse_errors`, and never reaches
/// routing (`server.http.requests` unchanged). Afterwards the server still
/// answers `/v1/healthz`, and a good request gets the offline decode's
/// exact bytes.
#[test]
fn byzantine_frames_exact_statuses_and_counter_deltas() {
    let bundle = tiny_bundle();
    let offline = Engine::new(bundle.clone(), base()).unwrap();
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_size: 4,
        // A short deadline keeps the truncated-body case fast.
        request_timeout: Duration::from_millis(700),
        ..Default::default()
    };
    let frames = hostile_frames(config.max_body_bytes);
    let (handle, addr, telemetry) = spawn(config, Engine::new(bundle, base()).unwrap());

    for frame in &frames {
        let name = frame.name;
        let before = telemetry.snapshot();
        let observed = exchange(addr, &frame.raw);
        let after = telemetry.snapshot();
        let (status, body) = observed.unwrap_or_else(|| {
            panic!(
                "{name}: server closed without the expected {}",
                frame.status
            )
        });
        assert_eq!(status, frame.status, "{name}: {body}");
        // Exactly one parse error; the router was never reached.
        assert_eq!(
            after.counter("server.http.parse_errors").unwrap_or(0),
            before.counter("server.http.parse_errors").unwrap_or(0) + 1,
            "{name}: parse_errors delta"
        );
        assert_eq!(
            after.counter("server.http.requests").unwrap_or(0),
            before.counter("server.http.requests").unwrap_or(0),
            "{name}: hostile frame must not count as a routed request"
        );
    }

    // Pipelined garbage: the good request is served (routed, 200), the
    // garbage behind it is a parse error, then close.
    {
        let before = telemetry.snapshot();
        let mut stream = connect(addr);
        stream
            .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n%%% garbage %%%\r\n\r\n")
            .unwrap();
        let (status, _) = read_response(&mut stream).expect("pipelined good request answered");
        assert_eq!(status, 200);
        let second = read_response(&mut stream);
        assert!(
            matches!(second, Some((400, _)) | None),
            "pipelined garbage must 400 or close, got {second:?}"
        );
        let after = telemetry.snapshot();
        assert_eq!(
            after.counter("server.http.requests").unwrap_or(0),
            before.counter("server.http.requests").unwrap_or(0) + 1,
            "exactly the good half of the pipeline is routed"
        );
        assert_eq!(
            after.counter("server.http.parse_errors").unwrap_or(0),
            before.counter("server.http.parse_errors").unwrap_or(0) + 1,
            "exactly the garbage half is a parse error"
        );
    }

    // The pool survived all of it: the health probe answers and a good
    // request decodes to the offline bytes.
    let (status, _) = exchange(
        addr,
        b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    )
    .expect("health probe answered");
    assert_eq!(status, 200);
    let raw = notebook_request(r#"{"dataset":"tiny","episode_len":3,"seed":1}"#);
    let (status, response) = exchange(addr, raw.as_bytes()).expect("healthy request answered");
    assert_eq!(status, 200, "{response}");
    assert_eq!(
        response,
        offline_body(&offline, 3, 1),
        "post-attack response diverged from the offline decode"
    );
    assert_eq!(telemetry.snapshot().counter("server.pool.panics"), None);

    handle.shutdown();
}

/// Slow-loris clients dribbling one byte per tick, into the head or into
/// a declared body, reset the kernel's per-read timer every time: only the
/// per-request deadline can stop them. The server must cut both within
/// `request_timeout` (+ grace), and keep serving everyone else while the
/// dribbles are in flight.
#[test]
fn slow_loris_dribble_is_cut_at_the_request_deadline() {
    let request_timeout = Duration::from_millis(600);
    let (handle, addr, telemetry) = spawn(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 3,
            cache_size: 4,
            request_timeout,
            ..Default::default()
        },
        Engine::new(tiny_bundle(), base()).unwrap(),
    );

    let give_up = request_timeout + Duration::from_secs(2);
    let dribblers: Vec<_> = [
        (
            "head",
            &b"POST /v1/notebook HTTP/1.1\r\nHost: t\r\nX-Dribble: "[..],
        ),
        (
            "body",
            &b"POST /v1/notebook HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
               Content-Length: 4096\r\n\r\n"[..],
        ),
    ]
    .into_iter()
    .map(|(part, preamble)| {
        (
            part,
            std::thread::spawn(move || dribble_until_cut(addr, preamble, give_up)),
        )
    })
    .collect();

    // While the dribbles are in flight, healthy clients are unaffected.
    let raw = notebook_request(r#"{"dataset":"tiny","episode_len":3,"seed":2}"#);
    let (status, _) = exchange(addr, raw.as_bytes()).expect("healthy request during dribble");
    assert_eq!(status, 200);

    // Join every dribbler before judging, so one failure names them all.
    let uncut: Vec<&str> = dribblers
        .into_iter()
        .filter_map(|(part, loris)| loris.join().unwrap().is_none().then_some(part))
        .collect();
    assert!(
        uncut.is_empty(),
        "server never cut the {uncut:?} dribble (deadline {request_timeout:?})"
    );
    assert!(
        telemetry
            .snapshot()
            .counter("server.http.parse_errors")
            .unwrap_or(0)
            >= 2,
        "each dribble must be counted as a parse error (timeout)"
    );
    handle.shutdown();
}

/// The N−1 regression: of N concurrent clients, one vanishes mid-request
/// and one mid-response. The surviving responses must stay byte-identical
/// to the same requests served one at a time, and the server must keep
/// working afterwards, including for the victims' own requests when they
/// are retried.
#[test]
fn client_disconnect_mid_request_leaves_concurrent_responses_byte_identical() {
    let (handle, addr, telemetry) = spawn(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 8,
            cache_size: 0, // every request decodes
            ..Default::default()
        },
        Engine::new(tiny_bundle(), base()).unwrap(),
    );

    let request_for = |seed: u64| {
        notebook_request(&format!(
            r#"{{"dataset":"tiny","episode_len":6,"seed":{seed}}}"#
        ))
    };

    // Reference bytes from sequential requests.
    let seeds: Vec<u64> = (0..6).collect();
    let reference: Vec<String> = seeds
        .iter()
        .map(|&s| {
            let (status, body) = exchange(addr, request_for(s).as_bytes()).unwrap();
            assert_eq!(status, 200, "{body}");
            body
        })
        .collect();

    // N concurrent clients. Seed 2 sends its request and vanishes at once,
    // so its in-flight decode dies somewhere before the response write.
    // Seed 4 reads 16 bytes of its response and vanishes; the unread rest
    // turns its close into a reset the server's writer must absorb.
    let (mid_request, mid_response) = (2u64, 4u64);
    let clients: Vec<_> = seeds
        .iter()
        .map(|&s| {
            std::thread::spawn(move || {
                let mut stream = connect(addr);
                stream.write_all(request_for(s).as_bytes()).unwrap();
                if s == mid_request {
                    return None;
                }
                if s == mid_response {
                    let mut sliver = [0u8; 16];
                    stream.read_exact(&mut sliver).expect("response head");
                    return None;
                }
                Some(read_response(&mut stream).expect("survivor got a response"))
            })
        })
        .collect();
    let results: Vec<Option<(u16, String)>> =
        clients.into_iter().map(|c| c.join().unwrap()).collect();
    for (i, result) in results.iter().enumerate() {
        let seed = seeds[i];
        let Some((status, body)) = result else {
            assert!(seed == mid_request || seed == mid_response);
            continue;
        };
        assert_eq!(*status, 200, "seed {seed}: {body}");
        assert_eq!(
            body, &reference[i],
            "seed {seed}: survivor diverged from the sequential reference"
        );
    }

    // The server is not wedged and the victims' requests still decode to
    // the same bytes when retried on a fresh connection.
    for victim in [mid_request, mid_response] {
        let (status, body) = exchange(addr, request_for(victim).as_bytes()).unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            body, reference[victim as usize],
            "retried victim request (seed {victim}) diverged"
        );
    }

    // No worker died serving the vanished clients.
    assert_eq!(telemetry.snapshot().counter("server.pool.panics"), None);

    handle.shutdown();
}

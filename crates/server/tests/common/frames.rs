//! The hostile-frame table: one request frame per byzantine class, with
//! the exact status the server must answer it with. The socket tests send
//! it over real connections; the request parser's split-read differential
//! test in `src/http.rs` includes this file by path and parses it directly.

/// The server's cap on the request line plus headers
/// (`http::MAX_HEAD_BYTES`).
pub const HEAD_CAP: usize = 16 * 1024;

/// One hostile request frame and the status it must produce.
pub struct HostileFrame {
    pub name: &'static str,
    pub raw: Vec<u8>,
    pub status: u16,
}

/// Every hostile frame class, for a server whose `/v1/notebook` body cap
/// is `max_body_bytes`.
pub fn hostile_frames(max_body_bytes: usize) -> Vec<HostileFrame> {
    let frame = |name, raw: &[u8], status| HostileFrame {
        name,
        raw: raw.to_vec(),
        status,
    };
    let mut oversized_header = b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\nX-Big: ".to_vec();
    oversized_header.resize(oversized_header.len() + 20 * 1024, b'a');
    oversized_header.extend_from_slice(b"\r\n\r\n");
    let mut header_flood = b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n".to_vec();
    for i in 0..4000 {
        header_flood.extend_from_slice(format!("X-F{i}: v\r\n").as_bytes());
    }
    header_flood.extend_from_slice(b"\r\n");
    // A complete head one byte longer than the cap.
    let mut head_past_cap = b"GET /v1/healthz HTTP/1.1\r\nX-Pad: ".to_vec();
    head_past_cap.resize(HEAD_CAP + 1 - 4, b'a');
    head_past_cap.extend_from_slice(b"\r\n\r\n");
    let body_past_cap = format!(
        "POST /v1/notebook HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        max_body_bytes + 1
    );
    vec![
        frame(
            "malformed request line",
            b"NOT EVEN CLOSE TO HTTP\r\n\r\n",
            400,
        ),
        frame("oversized header", &oversized_header, 431),
        frame("header flood", &header_flood, 431),
        frame("head one byte past the cap", &head_past_cap, 431),
        frame(
            "oversized declared body",
            b"POST /v1/notebook HTTP/1.1\r\nHost: t\r\nContent-Length: 2147483648\r\n\r\n",
            413,
        ),
        frame("body one byte past the cap", body_past_cap.as_bytes(), 413),
        frame(
            "missing content-length",
            b"POST /v1/notebook HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            411,
        ),
        frame(
            "chunked transfer encoding",
            b"POST /v1/notebook HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n\
              5\r\nhello\r\n0\r\n\r\n",
            501,
        ),
        frame(
            "truncated body then silence",
            b"POST /v1/notebook HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
              Content-Length: 100\r\n\r\n{\"data",
            408,
        ),
    ]
}

//! Minimal HTTP/1.1 plumbing over `std::net` — no external dependencies.
//!
//! Supports exactly what the serving endpoint needs: request-line + header
//! parsing, `Content-Length` bodies, percent-free query strings, and
//! one-shot (`Connection: close`) JSON/plain-text responses. The reader's
//! memory is bounded under hostile input, and each refusal is a typed
//! [`RequestError`] with the status to answer.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// The largest body this server reads, 64 MiB: a checkpoint for a large
/// city is megabytes; anything bigger is a mistake or abuse. The client
/// caps the responses it reads at the same size.
pub(crate) const MAX_BODY: usize = 64 << 20;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path without the query string, e.g. `/predict`.
    pub path: String,
    /// Decoded query parameters (simple `k=v&k=v`; no percent-decoding —
    /// every value this API takes is alphanumeric).
    pub query: HashMap<String, String>,
    pub body: Vec<u8>,
}

/// Why [`read_request`] produced no request. Every variant is bounded: the
/// reader holds at most one capped line, and a body only as many bytes as
/// have arrived.
#[derive(Debug)]
pub enum RequestError {
    /// The connection failed, timed out or closed before a request line
    /// arrived; there is no one to answer.
    Io(io::Error),
    /// The request line or a header is not HTTP this server reads.
    Malformed(&'static str),
    /// The request line or a header line is longer than 8 KiB.
    LineTooLong,
    /// More than 100 header lines.
    TooManyHeaders,
    /// `Content-Length` declares more than 64 MiB.
    BodyTooLarge(usize),
    /// The connection closed after `got` of the declared `expected` body
    /// bytes.
    BodyTruncated { expected: usize, got: usize },
}

impl RequestError {
    /// The status to answer with, or `None` when the connection is gone.
    pub fn status(&self) -> Option<u16> {
        match self {
            RequestError::Io(_) => None,
            RequestError::Malformed(_) | RequestError::BodyTruncated { .. } => Some(400),
            RequestError::BodyTooLarge(_) => Some(413),
            RequestError::LineTooLong | RequestError::TooManyHeaders => Some(431),
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Io(e) => write!(f, "connection error: {e}"),
            RequestError::Malformed(what) => write!(f, "malformed request: {what}"),
            RequestError::LineTooLong => write!(f, "request line or header line too long"),
            RequestError::TooManyHeaders => write!(f, "too many header lines"),
            RequestError::BodyTooLarge(n) => write!(f, "declared body of {n} bytes too large"),
            RequestError::BodyTruncated { expected, got } => {
                write!(f, "body ended after {got} of {expected} bytes")
            }
        }
    }
}

impl std::error::Error for RequestError {}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        RequestError::Io(e)
    }
}

/// Reads one CRLF- or LF-terminated line of at most 8 KiB (terminator
/// included) without buffering past the cap; `Ok(None)` at end of stream.
fn read_capped_line(reader: &mut impl BufRead) -> Result<Option<String>, RequestError> {
    let cap = 8 << 10;
    let mut line = Vec::new();
    reader.take(cap as u64).read_until(b'\n', &mut line)?;
    if line.is_empty() {
        return Ok(None);
    }
    if !line.ends_with(b"\n") && line.len() == cap {
        return Err(RequestError::LineTooLong);
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| RequestError::Malformed("line is not UTF-8"))
}

/// Reads one request from the stream. Memory stays bounded under hostile
/// input: lines and the header count are capped, and the body grows only as
/// its bytes arrive.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, RequestError> {
    // A delay here models a slow-loris client holding its handler thread;
    // the socket read timeout bounds how long that can last.
    stgnn_faults::failpoint!("serve::read");
    parse_request(&mut BufReader::new(stream.try_clone()?))
}

/// Parses one request from `reader` under the bounds [`read_request`]
/// promises.
fn parse_request(reader: &mut impl BufRead) -> Result<Request, RequestError> {
    let line = read_capped_line(reader)?.ok_or_else(|| {
        RequestError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "closed before a request line",
        ))
    })?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or(RequestError::Malformed("empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or(RequestError::Malformed("request line has no target"))?
        .to_string();

    let mut content_length = 0usize;
    let mut headers = 0usize;
    loop {
        let header = read_capped_line(reader)?
            .ok_or(RequestError::Malformed("headers end before a blank line"))?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > 100 {
            return Err(RequestError::TooManyHeaders);
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| RequestError::Malformed("bad Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(RequestError::BodyTooLarge(content_length));
    }
    let mut body = Vec::new();
    reader.take(content_length as u64).read_to_end(&mut body)?;
    if body.len() < content_length {
        return Err(RequestError::BodyTruncated {
            expected: content_length,
            got: body.len(),
        });
    }

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.clone(), ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// Writes a one-shot response in a single write and flushes.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    };
    // One buffer, one `write_all`: pieces written separately leave the
    // socket one `send` each.
    let message = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

/// JSON string escaping for error messages (the only free-form text the
/// API echoes back).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders an `[a, b, c]` JSON array of finite floats.
pub fn json_f32_array(values: &[f32]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{v}"));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::Strategy;
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::thread;

    /// Sends `raw` from a client thread that then closes its write side,
    /// and reads one request from the server end.
    fn round_trip(raw: impl Into<Vec<u8>>) -> Result<Request, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.into();
        let client = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // The server may stop reading early and hang up; the write
            // side's fate is not what these tests check.
            let _ = s.write_all(&raw);
            let _ = s.shutdown(Shutdown::Write);
            s
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let req = read_request(&mut server_side);
        client.join().unwrap();
        req
    }

    #[test]
    fn parses_request_line_query_and_body() {
        let req = round_trip(
            "POST /models/m/swap?x=1&y=abc HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/models/m/swap");
        assert_eq!(req.query.get("x").unwrap(), "1");
        assert_eq!(req.query.get("y").unwrap(), "abc");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn get_without_body_parses() {
        let req = round_trip("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.query.is_empty());
        assert!(req.body.is_empty());
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        let err = round_trip("\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), Some(400), "{err}");
    }

    #[test]
    fn overlong_lines_are_refused_at_the_cap() {
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(20_000));
        let err = round_trip(long_target).unwrap_err();
        assert!(matches!(err, RequestError::LineTooLong), "{err}");
        assert_eq!(err.status(), Some(431));

        let long_header = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "b".repeat(20_000));
        let err = round_trip(long_header).unwrap_err();
        assert!(matches!(err, RequestError::LineTooLong), "{err}");
    }

    #[test]
    fn header_floods_are_refused() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..101 {
            raw.push_str(&format!("X-H{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        let err = round_trip(raw).unwrap_err();
        assert!(matches!(err, RequestError::TooManyHeaders), "{err}");
        assert_eq!(err.status(), Some(431));
    }

    #[test]
    fn bodies_are_capped_and_must_arrive_in_full() {
        let err = round_trip("POST / HTTP/1.1\r\nContent-Length: 67108865\r\n\r\n").unwrap_err();
        assert!(matches!(err, RequestError::BodyTooLarge(67108865)), "{err}");
        assert_eq!(err.status(), Some(413));

        // A 60 MiB declaration followed by five bytes and a close: the
        // reader reports what arrived rather than waiting on (or having
        // allocated) the declared size.
        let err =
            round_trip("POST / HTTP/1.1\r\nContent-Length: 62914560\r\n\r\nhello").unwrap_err();
        assert!(
            matches!(
                err,
                RequestError::BodyTruncated {
                    expected: 62914560,
                    got: 5
                }
            ),
            "{err}"
        );
        assert_eq!(err.status(), Some(400));
    }

    /// A well-formed request; the property test below mutates it.
    const VALID: &[u8] =
        b"POST /models/m/swap?x=1&y=abc HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello";

    /// Pieces of HTTP that random sequences of them are built from.
    const TOKENS: [&[u8]; 14] = [
        b"GET",
        b"POST",
        b" ",
        b"/predict?model=m&slot=5&",
        b"HTTP/1.1",
        b"\r\n",
        b"\n",
        b"Content-Length:",
        b"content-length: ",
        b"5",
        b"99999999999999999999",
        b"-1",
        b"hello",
        b"\xff",
    ];

    /// No input makes the parser panic: random bytes, random sequences of
    /// HTTP tokens, and valid requests cut short, given huge or unparsable
    /// `Content-Length`s, flooded with headers, stretched around the line
    /// cap, or spliced with non-UTF-8 bytes all yield a `Request` or a
    /// typed `RequestError`, and the mutations with a known verdict get
    /// exactly it.
    #[test]
    fn hostile_bytes_yield_a_request_or_a_typed_error() {
        let cases = (
            0u8..7,
            0usize..1 << 16,
            proptest::collection::vec(0u8..=255, 0..256),
        );
        let mut rng = proptest::TestRng::for_test("http::hostile_bytes");
        let head_len = VALID.len() - b"hello".len();
        for _ in 0..4096 {
            let (kind, n, noise) = cases.generate(&mut rng);
            let input: Vec<u8> = match kind {
                0 => noise,
                1 => VALID[..n % (VALID.len() + 1)].to_vec(),
                2 => {
                    let declared = match n % 4 {
                        0 => (MAX_BODY + 1 + n).to_string(),
                        1 => u64::MAX.to_string(),
                        2 => "99999999999999999999999".to_string(),
                        _ => (n / 4 % 8).to_string(),
                    };
                    format!("POST / HTTP/1.1\r\nContent-Length: {declared}\r\n\r\nhello")
                        .into_bytes()
                }
                3 => {
                    let mut raw = String::from("GET / HTTP/1.1\r\n");
                    for i in 0..n % 200 {
                        raw.push_str(&format!("X-H{i}: v\r\n"));
                    }
                    raw.push_str("\r\n");
                    raw.into_bytes()
                }
                4 => {
                    let at = n % (VALID.len() + 1);
                    let mut raw = VALID.to_vec();
                    raw.splice(at..at, [0xff, 0xfe].into_iter().chain(noise));
                    raw
                }
                5 => {
                    let target = "a".repeat((8 << 10) - 32 + n % 32);
                    format!("GET /{target} HTTP/1.1\r\n\r\n").into_bytes()
                }
                _ => noise
                    .iter()
                    .flat_map(|&b| TOKENS[usize::from(b) % TOKENS.len()])
                    .copied()
                    .collect(),
            };
            let result = parse_request(&mut &input[..]);
            match &result {
                Ok(req) => {
                    assert!(req.body.len() <= input.len());
                    assert!(!req.method.is_empty() && !req.path.is_empty());
                }
                Err(RequestError::Io(_)) => assert!(input.is_empty(), "{input:?}"),
                Err(e) => assert!(e.status().is_some(), "{e}"),
            }
            match kind {
                1 => assert_eq!(result.is_ok(), input.len() == VALID.len(), "{input:?}"),
                2 => match n % 4 {
                    0 | 1 => assert!(matches!(result, Err(RequestError::BodyTooLarge(_)))),
                    2 => assert!(matches!(result, Err(RequestError::Malformed(_)))),
                    _ if n / 4 % 8 <= 5 => {
                        assert_eq!(result.unwrap().body, &b"hello"[..n / 4 % 8])
                    }
                    _ => assert!(matches!(result, Err(RequestError::BodyTruncated { .. }))),
                },
                3 if n % 200 > 100 => {
                    assert!(matches!(result, Err(RequestError::TooManyHeaders)))
                }
                3 => assert!(result.is_ok()),
                4 if n % (VALID.len() + 1) < head_len => {
                    assert!(
                        matches!(result, Err(RequestError::Malformed(_))),
                        "{input:?}"
                    )
                }
                5 => {
                    let line = input.len() - 2;
                    assert_eq!(
                        matches!(result, Err(RequestError::LineTooLong)),
                        line > 8 << 10,
                        "request line of {line} bytes"
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn json_helpers_escape_and_format() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f32_array(&[1.0, 2.5]), "[1,2.5]");
        assert_eq!(json_f32_array(&[]), "[]");
    }
}

//! A tiny blocking HTTP client for the serving endpoint — used by the demo,
//! the integration tests, and handy for smoke-testing a live server. Speaks
//! just enough HTTP/1.1 for this API (one request per connection).
//!
//! Transient failures — connection refused/reset while a server restarts, a
//! read timeout under load — are retried with capped exponential backoff and
//! *seeded* jitter ([`ClientConfig`]), so a retry schedule is reproducible
//! in tests while still decorrelating real clients. Non-transient errors
//! (malformed responses, and responses longer than the server's 64 MiB
//! body cap) are never retried.

use crate::http::MAX_BODY;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Retry/timeout policy for [`get_with`]/[`post_with`]. The defaults (3
/// attempts, 50 ms base doubling to a 1 s cap) ride out a server hot-swap
/// or restart without hammering it.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Total connection attempts (first try included). Minimum 1.
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// Socket read timeout per attempt.
    pub read_timeout: Duration,
    /// Seed for the jitter stream: each sleep adds a uniform random slice of
    /// up to half the computed backoff. Same seed → same schedule.
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            attempts: 3,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(1),
            read_timeout: Duration::from_secs(120),
            jitter_seed: 0,
        }
    }
}

impl ClientConfig {
    /// The sleep before retry number `retry` (1-based):
    /// `min(max_backoff, base_backoff · 2^(retry−1))` plus up to 50% seeded
    /// jitter. Pure so tests can assert the schedule.
    pub fn backoff(&self, retry: u32, jitter: &mut StdRng) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << (retry - 1).min(16))
            .min(self.max_backoff);
        let half = exp.as_millis() as u64 / 2;
        let extra = if half > 0 {
            jitter.gen_range(0..=half)
        } else {
            0
        };
        exp + Duration::from_millis(extra)
    }
}

/// Whether an I/O failure is worth retrying: connection-level errors and
/// timeouts are transient; protocol errors (`InvalidData`) are not.
fn retryable(e: &io::Error) -> bool {
    !matches!(e.kind(), io::ErrorKind::InvalidData)
}

/// An HTTP response: status code and body.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

impl Response {
    /// Extracts a top-level JSON field's raw value from the body — enough
    /// for this API's flat responses (no nested objects in the fields we
    /// query). Returns the text between `"name":` and the next `,` or `}`
    /// at nesting depth zero.
    pub fn json_field(&self, name: &str) -> Option<String> {
        let needle = format!("\"{name}\":");
        let start = self.body.find(&needle)? + needle.len();
        // sound: allow(L004): SLICE-AT-FOUND-BOUNDARY — `find` located the
        // needle, so start ≤ body.len().
        let rest = &self.body[start..];
        let mut depth = 0i32;
        let mut in_string = false;
        let mut escaped = false;
        for (i, c) in rest.char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' if in_string => escaped = true,
                '"' => in_string = !in_string,
                '[' | '{' if !in_string => depth += 1,
                ']' | '}' if !in_string => {
                    if depth == 0 {
                        // sound: allow(L004): SLICE-AT-FOUND-BOUNDARY — i is a
                        // char_indices boundary.
                        return Some(rest[..i].trim().to_string());
                    }
                    depth -= 1;
                }
                ',' if !in_string && depth == 0 => {
                    // sound: allow(L004): SLICE-AT-FOUND-BOUNDARY — i is a char_indices boundary.
                    return Some(rest[..i].trim().to_string());
                }
                _ => {}
            }
        }
        Some(rest.trim().to_string())
    }
}

fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    config: &ClientConfig,
) -> io::Result<Response> {
    let attempts = config.attempts.max(1);
    let mut jitter = StdRng::seed_from_u64(config.jitter_seed);
    let mut last_err = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(config.backoff(attempt, &mut jitter));
        }
        match request_once(addr, method, path, body, config) {
            Ok(r) => return Ok(r),
            Err(e) if retryable(&e) && attempt + 1 < attempts => last_err = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("no attempts made")))
}

fn request_once(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    config: &ClientConfig,
) -> io::Result<Response> {
    stgnn_faults::failpoint!("client::connect", io);
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(config.read_timeout))?;
    // One buffer, one `write_all`: a server that reads once must see the
    // whole head, or it answers and closes on unread bytes, which resets
    // the connection under this client's read.
    let mut message = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()?;

    // Bounded like the server's own reads: a broken or hostile peer must
    // not make this client allocate without limit.
    let mut raw = Vec::new();
    stream.take(MAX_BODY as u64 + 1).read_to_end(&mut raw)?;
    if raw.len() > MAX_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("response longer than {MAX_BODY} bytes"),
        ));
    }
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok(Response { status, body })
}

/// Blocking GET against a serving endpoint, with default retry policy.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    request(addr, "GET", path, &[], &ClientConfig::default())
}

/// Blocking POST with a raw body (e.g. a checkpoint for `/swap`), with
/// default retry policy.
pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> io::Result<Response> {
    request(addr, "POST", path, body, &ClientConfig::default())
}

/// [`get`] with an explicit [`ClientConfig`].
pub fn get_with(addr: SocketAddr, path: &str, config: &ClientConfig) -> io::Result<Response> {
    request(addr, "GET", path, &[], config)
}

/// [`post`] with an explicit [`ClientConfig`].
pub fn post_with(
    addr: SocketAddr,
    path: &str,
    body: &[u8],
    config: &ClientConfig,
) -> io::Result<Response> {
    request(addr, "POST", path, body, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(body: &str) -> Response {
        Response {
            status: 200,
            body: body.to_string(),
        }
    }

    #[test]
    fn json_field_extracts_scalars_arrays_and_strings() {
        let r = resp(r#"{"model":"stgnn","slot":55,"demand":[1,2.5,3],"degraded":false}"#);
        assert_eq!(r.json_field("model").unwrap(), "\"stgnn\"");
        assert_eq!(r.json_field("slot").unwrap(), "55");
        assert_eq!(r.json_field("demand").unwrap(), "[1,2.5,3]");
        assert_eq!(r.json_field("degraded").unwrap(), "false");
        assert!(r.json_field("missing").is_none());
    }

    #[test]
    fn json_field_handles_last_field_and_escapes() {
        let r = resp(r#"{"error":"bad \"thing\", really","version":7}"#);
        assert_eq!(r.json_field("version").unwrap(), "7");
        assert_eq!(r.json_field("error").unwrap(), r#""bad \"thing\", really""#);
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_reproducibly() {
        let cfg = ClientConfig {
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(300),
            jitter_seed: 42,
            ..ClientConfig::default()
        };
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut rng = StdRng::seed_from_u64(seed);
            (1..=5).map(|r| cfg.backoff(r, &mut rng)).collect()
        };
        let a = schedule(42);
        for (i, d) in a.iter().enumerate() {
            // Exponential base 100·2^i capped at 300, plus ≤ 50% jitter.
            let base = Duration::from_millis(100 * (1 << i)).min(Duration::from_millis(300));
            assert!(
                *d >= base && *d <= base + base / 2,
                "retry {}: {d:?}",
                i + 1
            );
        }
        assert_eq!(a, schedule(42), "same seed must replay the same schedule");
    }

    /// Named invariant: RETRY-RIDES-OUT-TRANSIENTS. Two injected connect
    /// faults are absorbed by the default 3-attempt policy; the third
    /// attempt lands and the request succeeds.
    #[test]
    fn injected_connect_faults_are_retried_until_success() {
        use stgnn_faults::{scoped, FaultPlan, FaultSpec, Trigger};

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            if let Ok((mut s, _)) = listener.accept() {
                // Read the whole head: closing on unread bytes would reset
                // the connection under the client's read.
                let mut head = Vec::new();
                let mut buf = [0u8; 1024];
                while !head.windows(4).any(|w| w == b"\r\n\r\n") {
                    match s.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => head.extend_from_slice(&buf[..n]),
                    }
                }
                let _ = s.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
                );
            }
        });

        let cfg = ClientConfig {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            ..ClientConfig::default()
        };
        let _chaos =
            scoped(FaultPlan::new().with("client::connect", FaultSpec::io(Trigger::FirstN(2))));
        let r = get_with(addr, "/healthz", &cfg).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "ok");
        // Exactly two faults fired; the third attempt went through.
        assert_eq!(stgnn_faults::fired("client::connect"), 2);
        assert_eq!(stgnn_faults::hits("client::connect"), 3);
        server.join().unwrap();
    }

    /// When every attempt faults, the last transient error surfaces after
    /// `attempts` tries — no infinite retry loop.
    #[test]
    fn exhausted_retries_surface_the_last_error() {
        use stgnn_faults::{scoped, FaultPlan, FaultSpec, Trigger};
        let _chaos =
            scoped(FaultPlan::new().with("client::connect", FaultSpec::io(Trigger::EveryHit)));
        let cfg = ClientConfig {
            attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            ..ClientConfig::default()
        };
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let err = get_with(addr, "/x", &cfg).unwrap_err();
        assert!(retryable(&err), "fault should surface as transient: {err}");
        assert_eq!(stgnn_faults::hits("client::connect"), 2);
    }

    /// A peer that keeps sending past the body cap gets an `InvalidData`
    /// error, which is not retried.
    #[test]
    fn oversized_response_is_refused_at_the_body_cap() {
        use stgnn_faults::{scoped, FaultPlan, FaultSpec, Trigger};

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            if let Ok((mut s, _)) = listener.accept() {
                let mut head = [0u8; 1024];
                let _ = s.read(&mut head);
                let _ = s.write_all(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n");
                let chunk = [b'x'; 64 << 10];
                // One chunk more than the cap; the client hangs up first.
                for _ in 0..=MAX_BODY / chunk.len() {
                    if s.write_all(&chunk).is_err() {
                        break;
                    }
                }
            }
        });
        let cfg = ClientConfig {
            base_backoff: Duration::from_millis(1),
            ..ClientConfig::default()
        };
        // A trigger that never fires, armed only to count connects.
        let _count = scoped(
            FaultPlan::new().with("client::connect", FaultSpec::io(Trigger::OnHit(u64::MAX))),
        );
        let err = get_with(addr, "/metrics", &cfg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert_eq!(stgnn_faults::hits("client::connect"), 1, "retried: {err}");
        server.join().unwrap();
    }

    #[test]
    fn retryable_excludes_protocol_errors() {
        assert!(!retryable(&io::Error::new(io::ErrorKind::InvalidData, "x")));
        assert!(retryable(&io::Error::new(
            io::ErrorKind::ConnectionRefused,
            "x"
        )));
        assert!(retryable(&io::Error::new(io::ErrorKind::TimedOut, "x")));
        assert!(retryable(&io::Error::other("injected fault")));
    }
}

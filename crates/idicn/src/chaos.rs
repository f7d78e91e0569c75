//! Deterministic in-process chaos layer for the idICN overlay.
//!
//! A [`ChaosProxy`] interposes on the wire between two overlay components
//! (edge proxy → reverse proxy, reverse proxy → origin, ...) and injects
//! transport faults according to a [`ChaosPolicy`]: connection resets,
//! stalls past the read deadline, bodies truncated mid-transfer, and
//! silently corrupted content bytes. The injection schedule is a **pure
//! function** of `(policy seed, connection index)` — the same SplitMix64
//! construction the simulator's fault schedule and the retry jitter use —
//! so a soak run replays the identical fault sequence every time. Every
//! answer carries `Connection: close`, so a connection carries exactly one
//! exchange and the index counts requests too, even for keep-alive clients.
//!
//! The point of the exercise (see `tests/chaos_soak.rs`): under thousands
//! of requests with every fault class firing, the overlay must never hang
//! or panic, transient faults must be absorbed by the retry/breaker
//! machinery, and **every** corrupted body must be caught by signature
//! verification before any component caches or serves it. Corruption is
//! the one fault TCP checksums and retries cannot see — catching it is
//! exactly what self-certifying names are for.

use crate::http::{self, HttpResponse, HttpServer};
use crate::retry::mix;
use crate::Result;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Salt distinguishing the action draw from the corrupt-position draw.
const SALT_ACTION: u64 = 0x6368_616f_0000_0001;
const SALT_BYTE: u64 = 0x6368_616f_0000_0002;

/// What the chaos layer does to one proxied connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Relay the exchange untouched.
    Forward,
    /// Close the client connection without serving (TCP reset / EOF).
    Reset,
    /// Read the request, then go silent past the client's I/O deadline.
    Stall,
    /// Serve the response header with the full `Content-Length` but cut
    /// the body short — a mid-transfer connection loss.
    Truncate,
    /// Flip one content byte and serve the rest intact — the fault only
    /// cryptographic verification can catch.
    Corrupt,
}

/// Per-connection fault rates, decided by a seeded pure hash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPolicy {
    /// Seed of the injection schedule; equal seeds replay equal faults.
    pub seed: u64,
    /// Probability of [`ChaosAction::Reset`].
    pub reset_rate: f64,
    /// Probability of [`ChaosAction::Stall`].
    pub stall_rate: f64,
    /// Probability of [`ChaosAction::Truncate`].
    pub truncate_rate: f64,
    /// Probability of [`ChaosAction::Corrupt`].
    pub corrupt_rate: f64,
}

impl ChaosPolicy {
    /// A policy that never injects anything (pure pass-through).
    pub fn calm(seed: u64) -> Self {
        Self {
            seed,
            reset_rate: 0.0,
            stall_rate: 0.0,
            truncate_rate: 0.0,
            corrupt_rate: 0.0,
        }
    }

    /// Every fault class at the same per-connection rate.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            reset_rate: rate,
            stall_rate: rate,
            truncate_rate: rate,
            corrupt_rate: rate,
        }
    }

    /// A uniform draw in `[0, 1)` from `(seed, index, salt)`.
    fn draw(&self, index: u64, salt: u64) -> f64 {
        let z = mix(self.seed ^ salt ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The action for connection `index` — pure in `(seed, index)`.
    pub fn decide(&self, index: u64) -> ChaosAction {
        let u = self.draw(index, SALT_ACTION);
        let mut edge = self.reset_rate;
        if u < edge {
            return ChaosAction::Reset;
        }
        edge += self.stall_rate;
        if u < edge {
            return ChaosAction::Stall;
        }
        edge += self.truncate_rate;
        if u < edge {
            return ChaosAction::Truncate;
        }
        edge += self.corrupt_rate;
        if u < edge {
            return ChaosAction::Corrupt;
        }
        ChaosAction::Forward
    }

    /// Which body byte a [`ChaosAction::Corrupt`] on connection `index`
    /// flips, for a body of `len` bytes (`len > 0`).
    pub fn corrupt_position(&self, index: u64, len: usize) -> usize {
        (mix(self.seed ^ SALT_BYTE ^ index) % len.max(1) as u64) as usize
    }
}

/// Injection counters, one per fault class actually delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosStats {
    /// Connections accepted (and scheduled) so far.
    pub connections: u64,
    /// Exchanges relayed untouched (including injections that degenerated
    /// to pass-through, e.g. corrupting an empty or non-2xx response).
    pub forwards: u64,
    /// Connections reset before serving.
    pub resets: u64,
    /// Connections stalled past the I/O deadline.
    pub stalls: u64,
    /// Responses cut short mid-body.
    pub truncates: u64,
    /// Responses delivered with one flipped content byte.
    pub corruptions: u64,
}

struct Inner {
    upstream: SocketAddr,
    policy: ChaosPolicy,
    next_index: AtomicU64,
    connections: AtomicU64,
    forwards: AtomicU64,
    resets: AtomicU64,
    stalls: AtomicU64,
    truncates: AtomicU64,
    corruptions: AtomicU64,
}

/// A fault-injecting HTTP forwarder in front of one upstream component.
#[derive(Clone)]
pub struct ChaosProxy {
    inner: Arc<Inner>,
}

impl ChaosProxy {
    /// A chaos layer forwarding to `upstream` under `policy`.
    pub fn new(upstream: SocketAddr, policy: ChaosPolicy) -> Self {
        Self {
            inner: Arc::new(Inner {
                upstream,
                policy,
                next_index: AtomicU64::new(0),
                connections: AtomicU64::new(0),
                forwards: AtomicU64::new(0),
                resets: AtomicU64::new(0),
                stalls: AtomicU64::new(0),
                truncates: AtomicU64::new(0),
                corruptions: AtomicU64::new(0),
            }),
        }
    }

    /// Point-in-time injection counters.
    pub fn stats(&self) -> ChaosStats {
        let i = &self.inner;
        ChaosStats {
            connections: i.connections.load(Ordering::SeqCst),
            forwards: i.forwards.load(Ordering::SeqCst),
            resets: i.resets.load(Ordering::SeqCst),
            stalls: i.stalls.load(Ordering::SeqCst),
            truncates: i.truncates.load(Ordering::SeqCst),
            corruptions: i.corruptions.load(Ordering::SeqCst),
        }
    }

    /// Binds a fresh loopback port and starts interposing, on the same
    /// accept loop as [`http::serve`] (and with the same stop contract).
    pub fn serve(&self) -> Result<HttpServer> {
        let inner = self.inner.clone();
        http::serve_streams(
            TcpListener::bind("127.0.0.1:0")?,
            Arc::new(move |stream| handle_connection(&inner, stream)),
        )
    }
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::SeqCst);
}

fn handle_connection(inner: &Inner, stream: TcpStream) {
    let index = inner.next_index.fetch_add(1, Ordering::SeqCst);
    bump(&inner.connections);
    let action = inner.policy.decide(index);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(http::io_timeout()));
    let _ = stream.set_write_timeout(Some(http::io_timeout()));

    if action == ChaosAction::Reset {
        // Wait for the first request byte, then close with the rest of the
        // request unread — the kernel answers the client with RST, which
        // surfaces as a retryable I/O error, exactly like a crashed peer.
        bump(&inner.resets);
        let mut byte = [0u8; 1];
        let _ = (&stream).read(&mut byte);
        return; // drop closes with unread data pending
    }

    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let mut writer = writer;
    let mut reader = BufReader::new(stream);
    let Ok(Some(req)) = http::read_request(&mut reader) else {
        return;
    };

    if action == ChaosAction::Stall {
        // Hold the request past the client's deadline, then vanish. The
        // client must unblock via its own read timeout, never via us.
        bump(&inner.stalls);
        std::thread::sleep(http::io_timeout() + Duration::from_millis(50));
        return;
    }

    let mut resp = match http::request_once(inner.upstream, &req) {
        Ok(r) => r,
        Err(e) => HttpResponse::new(502, e.to_string().into_bytes()),
    };
    // One exchange per connection, so the fault index is also the request
    // index: a keep-alive client must not send a second request here.
    resp.headers.set("Connection", "close");

    // Truncation and corruption only make sense on a healthy body; an
    // injection that lands on an empty or non-2xx response degenerates to
    // pass-through and is counted as a forward, keeping the counters'
    // invariant exact: every counted corruption flipped a real byte.
    match action {
        ChaosAction::Truncate if resp.is_success() && resp.body.len() >= 2 => {
            bump(&inner.truncates);
            let _ = writer.write_all(http::response_head(&resp).as_bytes());
            let _ = writer.write_all(&resp.body[..resp.body.len() / 2]);
            let _ = writer.flush();
            // Drop: the client sees EOF mid-body — a truncated transfer.
        }
        ChaosAction::Corrupt if resp.is_success() && !resp.body.is_empty() => {
            bump(&inner.corruptions);
            let pos = inner.policy.corrupt_position(index, resp.body.len());
            resp.body[pos] ^= 0xa5;
            let _ = http::write_response(&mut writer, &resp);
        }
        _ => {
            bump(&inner.forwards);
            let _ = http::write_response(&mut writer, &resp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_in_seed_and_index() {
        let p = ChaosPolicy::uniform(42, 0.1);
        let q = ChaosPolicy::uniform(42, 0.1);
        for i in 0..10_000 {
            assert_eq!(p.decide(i), q.decide(i));
        }
        let shifted = ChaosPolicy::uniform(43, 0.1);
        assert!(
            (0..10_000).any(|i| p.decide(i) != shifted.decide(i)),
            "different seeds must differ somewhere"
        );
    }

    #[test]
    fn calm_policy_always_forwards() {
        let p = ChaosPolicy::calm(7);
        assert!((0..10_000).all(|i| p.decide(i) == ChaosAction::Forward));
    }

    #[test]
    fn uniform_rates_hit_every_class() {
        let p = ChaosPolicy::uniform(1, 0.1);
        let mut seen = [0u32; 5];
        for i in 0..10_000 {
            let k = match p.decide(i) {
                ChaosAction::Forward => 0,
                ChaosAction::Reset => 1,
                ChaosAction::Stall => 2,
                ChaosAction::Truncate => 3,
                ChaosAction::Corrupt => 4,
            };
            seen[k] += 1;
        }
        assert!(seen.iter().all(|&c| c > 0), "all classes drawn: {seen:?}");
        // 60% of connections should pass untouched (±5 points).
        assert!((5_500..6_500).contains(&seen[0]), "forward share: {seen:?}");
    }

    #[test]
    fn corrupt_position_is_in_bounds_and_deterministic() {
        let p = ChaosPolicy::uniform(3, 0.25);
        for i in 0..1_000 {
            for len in [1usize, 2, 7, 4096] {
                let a = p.corrupt_position(i, len);
                assert!(a < len);
                assert_eq!(a, p.corrupt_position(i, len));
            }
        }
    }

    #[test]
    fn calm_proxy_is_transparent() {
        let upstream = http::serve(Arc::new(|req: &crate::http::HttpRequest| {
            HttpResponse::ok(format!("echo {}", req.target).into_bytes())
        }))
        .unwrap();
        let chaos = ChaosProxy::new(upstream.addr(), ChaosPolicy::calm(5));
        let srv = chaos.serve().unwrap();
        // A keep-alive client, as the edge proxy is: `Connection: close`
        // still gives every request a connection, and a fault draw, of its
        // own.
        for path in ["/a", "/b", "/c"] {
            let req = crate::http::HttpRequest::get(path);
            let resp = http::request_pooled(srv.addr(), &req).unwrap();
            assert_eq!(resp.body, format!("echo {path}").into_bytes());
        }
        let stats = chaos.stats();
        assert_eq!(stats.connections, 3);
        assert_eq!(stats.forwards, 3);
        assert_eq!(
            stats.resets + stats.stalls + stats.truncates + stats.corruptions,
            0
        );
        srv.shutdown();
        upstream.shutdown();
    }
}

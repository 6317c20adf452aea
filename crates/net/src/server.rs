//! The threaded HTTP/1.1 server: an acceptor and one thread per
//! connection over `std::net::TcpListener`, fronting the controller's
//! [`Router`].
//!
//! ## Threading model
//!
//! One acceptor thread owns the listener and runs a `std::thread::scope`;
//! each admitted connection is served on a scoped thread of its own, with
//! no handoff queue. At most [`NetConfig::max_connections`] connections
//! are admitted at once: beyond that the acceptor answers `503 Service
//! Unavailable` with `Retry-After` inline and closes — saturation is an
//! explicit, cheap signal, never an unbounded backlog.
//!
//! ## Limits and timeouts
//!
//! Each connection gets `set_read_timeout`/`set_write_timeout` from the
//! config; the wire parser ([`crate::http`]) enforces request-line,
//! header, and body caps and maps violations to 4xx/5xx statuses. A
//! mid-request stall (slow loris) is answered `408` and cut; an idle
//! keep-alive connection that times out is closed silently. Keep-alive
//! connections are additionally capped at
//! [`NetConfig::max_requests_per_conn`] requests.
//!
//! ## Graceful shutdown
//!
//! [`ServerHandle::shutdown`] stops accepting, then lets every connection
//! finish the request it is serving (and any request a client has
//! already started sending — a connection's thread never abandons a
//! socket it is mid-read on; the read timeout bounds the wait): the
//! acceptor's scope joins them all. Responses written
//! during shutdown carry `Connection: close`, so no in-flight response
//! is ever dropped.

use crate::http::{self, Limits, ParseError, Request};
use crate::limiter::{Admission, EdgeLimiter, RateLimit};
use imcf_controller::api::{status_class, Response, Router, JSON_CONTENT_TYPE};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration. Defaults are production-shaped; tests shrink the
/// timeouts.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// The hard cap on concurrently admitted connections, each served on
    /// a thread of its own. Beyond it the acceptor answers 503.
    pub max_connections: usize,
    /// Per-read socket timeout (slow-loris bound, keep-alive idle bound).
    pub read_timeout: Duration,
    /// Per-write socket timeout.
    pub write_timeout: Duration,
    /// Requests served on one keep-alive connection before the server
    /// closes it (`Connection: close` on the final response).
    pub max_requests_per_conn: u32,
    /// Wire-parse limits (request line, headers, body).
    pub limits: Limits,
    /// Optional per-home token bucket enforced before dispatch (429).
    pub rate_limit: Option<RateLimit>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: String::from("127.0.0.1:0"),
            max_connections: 16,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_requests_per_conn: 1000,
            limits: Limits::default(),
            rate_limit: None,
        }
    }
}

struct Shared {
    router: Arc<Router>,
    limiter: Option<EdgeLimiter>,
    config: NetConfig,
    shutdown: AtomicBool,
    /// Connections admitted and not yet finished.
    active: AtomicUsize,
}

/// A running server; dropping it without [`ServerHandle::shutdown`] leaks
/// the threads, so call shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests, join
    /// every thread. Bounded by the read timeout (parked keep-alive
    /// connections are reaped when their next read times out).
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking `accept` with a wake-up
        // connection; it checks the flag before handling anything. Its
        // scope then joins every in-flight connection.
        drop(TcpStream::connect(self.addr));
        let _ = self.acceptor.join();
    }
}

/// Binds and starts serving `router` under `config`.
pub fn serve(config: NetConfig, router: Arc<Router>) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        limiter: config.rate_limit.map(EdgeLimiter::new),
        router,
        shutdown: AtomicBool::new(false),
        active: AtomicUsize::new(0),
        config,
    });

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name(String::from("imcf-net-acceptor"))
            .spawn(move || acceptor_loop(&listener, &shared))?
    };

    Ok(ServerHandle {
        addr,
        shared,
        acceptor,
    })
}

fn acceptor_loop(listener: &TcpListener, shared: &Shared) {
    let telemetry = imcf_telemetry::global();
    std::thread::scope(|scope| loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if shared.active.load(Ordering::SeqCst) >= shared.config.max_connections {
            // Saturated: refuse inline from the acceptor so a busy server
            // still answers promptly instead of queueing unboundedly.
            telemetry
                .counter_with("net.rejected", &[("reason", "saturated")])
                .inc();
            reject_saturated(stream, shared);
            continue;
        }
        // Only the acceptor admits, so the check above and this increment
        // cannot race past the cap.
        shared.active.fetch_add(1, Ordering::SeqCst);
        telemetry.gauge("net.connections").add(1.0);
        let spawned = std::thread::Builder::new()
            .name(String::from("imcf-net-conn"))
            .spawn_scoped(scope, move || {
                serve_connection(stream, shared);
                release(shared);
            });
        if spawned.is_err() {
            // The failed spawn dropped the closure, closing the socket.
            release(shared);
        }
    });
}

/// Gives an admitted connection's place under the cap back.
fn release(shared: &Shared) {
    shared.active.fetch_sub(1, Ordering::SeqCst);
    imcf_telemetry::global().gauge("net.connections").add(-1.0);
}

fn reject_saturated(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let body = br#"{"error":"server saturated"}"#;
    let _ = write_wire(
        &mut stream,
        503,
        JSON_CONTENT_TYPE,
        &[("Retry-After", String::from("1"))],
        body,
        true,
    );
    imcf_telemetry::global()
        .counter_with("net.requests", &[("status", status_class(503))])
        .inc();
}

fn serve_connection(stream: TcpStream, shared: &Shared) {
    let telemetry = imcf_telemetry::global();
    if stream
        .set_read_timeout(Some(shared.config.read_timeout))
        .and_then(|()| stream.set_write_timeout(Some(shared.config.write_timeout)))
        .is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut served = 0u32;
    loop {
        match http::read_request(&mut reader, &shared.config.limits) {
            Ok(request) => {
                served += 1;
                let response = respond(&request, shared);
                let closing = !request.keep_alive
                    || served >= shared.config.max_requests_per_conn
                    || shared.shutdown.load(Ordering::SeqCst);
                telemetry
                    .counter_with("net.requests", &[("status", status_class(response.status))])
                    .inc();
                let written = write_wire(
                    &mut writer,
                    response.status,
                    response.content_type,
                    &response.headers,
                    response.body.as_bytes(),
                    closing,
                );
                match written {
                    Ok(()) if !closing => continue,
                    Ok(()) => return,
                    Err(e) => {
                        if http::is_timeout(e.kind()) {
                            telemetry
                                .counter_with("net.timeouts", &[("kind", "write")])
                                .inc();
                        }
                        return;
                    }
                }
            }
            Err(error) => {
                match &error {
                    ParseError::TimedOut { started: true } => {
                        telemetry
                            .counter_with("net.timeouts", &[("kind", "read")])
                            .inc();
                    }
                    ParseError::TimedOut { started: false } => {
                        telemetry
                            .counter_with("net.timeouts", &[("kind", "idle")])
                            .inc();
                    }
                    _ => {}
                }
                if let Some(status) = error.status() {
                    let body = format!(r#"{{"error":"{}"}}"#, http::reason_phrase(status));
                    telemetry
                        .counter_with("net.requests", &[("status", status_class(status))])
                        .inc();
                    let _ = write_wire(
                        &mut writer,
                        status,
                        JSON_CONTENT_TYPE,
                        &[],
                        body.as_bytes(),
                        true,
                    );
                }
                return;
            }
        }
    }
}

/// Produces the response for one parsed request: edge rate limit first,
/// then the in-process router.
fn respond(request: &Request, shared: &Shared) -> Response {
    if let Some(limiter) = &shared.limiter {
        if let Admission::Limited { retry_after_secs } = limiter.admit() {
            imcf_telemetry::global()
                .counter_with("net.rejected", &[("reason", "rate_limited")])
                .inc();
            return Response::too_many_requests(retry_after_secs);
        }
    }
    let body = String::from_utf8_lossy(&request.body);
    // Server-side handling latency feeds the obs plane's p99 SLO alert
    // (`net.request_micros.p99_slo` over the sampled histogram).
    let watch = imcf_telemetry::Stopwatch::start();
    let response = shared
        .router
        .handle(&request.method, &request.target, &body);
    imcf_telemetry::global()
        .histogram("net.request_micros")
        .observe(watch.elapsed_micros() as f64);
    response
}

/// Serializes one response onto the wire.
fn write_wire(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&'static str, String)],
    body: &[u8],
    close: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        http::reason_phrase(status),
        body.len(),
        if close { "close" } else { "keep-alive" },
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

//! End-to-end tests: a real TCP client against the full stack — router
//! routes, keep-alive reuse, the edge token bucket (429), saturation
//! (503) and a freed slot after a close, and graceful shutdown with zero
//! dropped in-flight responses.

mod common;

use common::{quick_config, start, start_with_readiness, CLIENT_TIMEOUT};
use imcf_net::client::Connection;
use imcf_net::limiter::RateLimit;
use imcf_net::NetConfig;
use std::time::Duration;

#[test]
fn routes_work_end_to_end_on_one_keep_alive_connection() {
    let server = start(quick_config());
    let addr = server.addr().to_string();

    let mut conn = Connection::open(&addr, CLIENT_TIMEOUT).expect("connect");

    // Items listing names the provisioned zone's devices.
    let items = conn.round_trip("GET", "/rest/items", b"").expect("items");
    assert_eq!(items.status, 200);
    assert!(
        items.body_text().contains("den_SetPoint"),
        "items must list the provisioned zone: {}",
        items.body_text()
    );

    // Actuate over the wire, then read the new state back — same conn.
    let post = conn
        .round_trip("POST", "/rest/items/den_SetPoint", b"21.5")
        .expect("post");
    assert_eq!(post.status, 200, "body: {}", post.body_text());
    let item = conn
        .round_trip("GET", "/rest/items/den_SetPoint", b"")
        .expect("item");
    assert_eq!(item.status, 200);
    assert!(
        item.body_text().contains("21.5"),
        "the POSTed setpoint must be visible: {}",
        item.body_text()
    );

    // Firewall, metrics, and traces endpoints respond on the same
    // connection (keep-alive reuse across heterogeneous routes).
    for target in ["/rest/firewall", "/rest/metrics", "/rest/traces"] {
        let response = conn.round_trip("GET", target, b"").expect(target);
        assert_eq!(response.status, 200, "{target}: {}", response.body_text());
        assert!(
            !response.closing,
            "{target} must not close a keep-alive conn"
        );
    }

    // The metrics scrape taken over the wire includes the network plane's
    // own counters — the server observes itself.
    let metrics = conn
        .round_trip("GET", "/rest/metrics", b"")
        .expect("metrics");
    assert!(
        metrics.body_text().contains("net_requests"),
        "wire scrape must carry net.requests: {}",
        metrics.body_text()
    );
    server.shutdown();
}

/// Supervision probes over the wire: liveness stays 200 across the
/// readiness transition; readiness answers 503 + `Retry-After` while the
/// instance drains, without closing the keep-alive connection.
#[test]
fn healthz_and_readyz_probe_the_drain_transition() {
    let (server, readiness) = start_with_readiness(quick_config());
    let addr = server.addr().to_string();

    let mut conn = Connection::open(&addr, CLIENT_TIMEOUT).expect("connect");
    let health = conn
        .round_trip("GET", "/rest/healthz", b"")
        .expect("healthz");
    assert_eq!(health.status, 200);
    let ready = conn.round_trip("GET", "/rest/readyz", b"").expect("readyz");
    assert_eq!(ready.status, 200, "body: {}", ready.body_text());

    // Drain begins: readiness flips, liveness must not.
    readiness.store(false, std::sync::atomic::Ordering::SeqCst);
    let ready = conn.round_trip("GET", "/rest/readyz", b"").expect("readyz");
    assert_eq!(ready.status, 503);
    assert_eq!(ready.header("retry-after"), Some("1"));
    assert!(!ready.closing, "a 503 probe must not tear down the conn");
    let health = conn
        .round_trip("GET", "/rest/healthz", b"")
        .expect("healthz");
    assert_eq!(health.status, 200);

    server.shutdown();
}

#[test]
fn unknown_method_on_known_path_is_405_over_the_wire() {
    let server = start(quick_config());
    let addr = server.addr().to_string();

    let mut conn = Connection::open(&addr, CLIENT_TIMEOUT).expect("connect");
    let response = conn
        .round_trip("DELETE", "/rest/items", b"")
        .expect("answer");
    assert_eq!(response.status, 405);
    assert_eq!(response.header("allow"), Some("GET"));

    let response = conn
        .round_trip("PUT", "/rest/items/den_SetPoint", b"")
        .expect("answer");
    assert_eq!(response.status, 405);
    assert_eq!(response.header("allow"), Some("GET, POST"));
    server.shutdown();
}

#[test]
fn edge_token_bucket_answers_429_before_the_router() {
    let server = start(NetConfig {
        // Two tokens, no refill: the third request must be refused at the
        // edge regardless of route.
        rate_limit: Some(RateLimit {
            burst: 2,
            refill_per_sec: 0.0,
        }),
        ..quick_config()
    });
    let addr = server.addr().to_string();

    let mut conn = Connection::open(&addr, CLIENT_TIMEOUT).expect("connect");
    for _ in 0..2 {
        let ok = conn
            .round_trip("GET", "/rest/items", b"")
            .expect("admitted");
        assert_eq!(ok.status, 200);
    }
    let limited = conn.round_trip("GET", "/rest/items", b"").expect("limited");
    assert_eq!(limited.status, 429);
    let retry_after = limited
        .header("retry-after")
        .expect("429 must carry Retry-After");
    assert!(
        retry_after.parse::<u64>().is_ok(),
        "Retry-After must be integral seconds: {retry_after}"
    );
    // The refusal happens at the edge: the connection itself stays open.
    assert!(!limited.closing, "a 429 must not tear the connection down");
    server.shutdown();
}

#[test]
fn saturated_server_answers_503_with_retry_after() {
    let server = start(NetConfig {
        max_connections: 1,
        ..quick_config()
    });
    let addr = server.addr().to_string();

    // Occupy the only slot with a parked keep-alive connection. The
    // round trip guarantees the server has admitted the connection (it
    // answered), so the cap is deterministically reached.
    let mut parked = Connection::open(&addr, CLIENT_TIMEOUT).expect("connect");
    let ok = parked.round_trip("GET", "/rest/items", b"").expect("park");
    assert_eq!(ok.status, 200);

    // A second connection is refused inline: 503 + Retry-After, close.
    let mut refused = Connection::open(&addr, CLIENT_TIMEOUT).expect("connect");
    refused.send("GET", "/rest/items", b"").expect("send");
    let response = refused.read_response().expect("a 503 answer");
    assert_eq!(response.status, 503);
    assert_eq!(response.header("retry-after"), Some("1"));
    assert!(response.closing);

    // The parked connection still works — saturation refused new work
    // without degrading admitted work.
    let still_ok = parked
        .round_trip("GET", "/rest/metrics", b"")
        .expect("parked");
    assert_eq!(still_ok.status, 200);
    server.shutdown();
}

/// A connection that ends gives its place under the cap back: with room
/// for one, a closed connection's successor is served, not refused.
#[test]
fn a_closed_connection_frees_its_slot() {
    let server = start(NetConfig {
        max_connections: 1,
        ..quick_config()
    });
    let addr = server.addr().to_string();

    let mut parked = Connection::open(&addr, CLIENT_TIMEOUT).expect("connect");
    let ok = parked.round_trip("GET", "/rest/items", b"").expect("park");
    assert_eq!(ok.status, 200);
    drop(parked);

    // The server notices the close on its next read, so the slot frees
    // shortly after, not at once: retry a refusal within a bounded window.
    let deadline = std::time::Instant::now() + CLIENT_TIMEOUT;
    loop {
        let mut next = Connection::open(&addr, CLIENT_TIMEOUT).expect("connect");
        match next.round_trip("GET", "/rest/items", b"") {
            Ok(response) if response.status == 200 => break,
            Ok(response) => assert_eq!(response.status, 503, "{}", response.body_text()),
            // A refused connection may be reset before its 503 is read.
            Err(_) => {}
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the closed connection never freed its slot"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let server = start(NetConfig {
        read_timeout: Duration::from_millis(200),
        ..quick_config()
    });
    let addr = server.addr().to_string();

    // Prove the server has admitted this connection, then put a request
    // on the wire and only then begin shutdown: the bytes are in flight
    // when the flag flips, and the connection's thread must still answer
    // them.
    let mut conn = Connection::open(&addr, CLIENT_TIMEOUT).expect("connect");
    assert_eq!(
        conn.round_trip("GET", "/rest/items", b"")
            .expect("warm")
            .status,
        200
    );
    conn.send("POST", "/rest/items/den_SetPoint", b"19.0")
        .expect("send in-flight request");

    let shutdown = std::thread::spawn(move || server.shutdown());
    let response = conn.read_response().expect("in-flight response delivered");
    assert_eq!(
        response.status,
        200,
        "an in-flight request must be answered during drain: {}",
        response.body_text()
    );
    shutdown.join().expect("shutdown completes");

    // After shutdown the port no longer accepts service: either connect
    // fails outright or the socket yields no response.
    match Connection::open(&addr, Duration::from_millis(500)) {
        Err(_) => {}
        Ok(mut conn) => {
            let _ = conn.send("GET", "/rest/items", b"");
            assert!(
                conn.read_response().is_err(),
                "a stopped server must not answer"
            );
        }
    }
}

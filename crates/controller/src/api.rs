//! The REST-style query/command surface of the Local Controller.
//!
//! The paper's GUI talks to openHAB through its REST API ("The OpenHAB
//! Rules Table records are retrieved through the OpenHAB Rest API",
//! §II-D). This module provides the equivalent in-process endpoint: a
//! [`Router`] that answers openHAB-shaped requests, each a method, a
//! target and an optional body value
//!
//! ```text
//! GET  /rest/items
//! GET  /rest/items/<name>
//! POST /rest/items/<name> <value>
//! GET  /rest/things
//! GET  /rest/firewall
//! GET  /rest/meter
//! GET  /rest/breakers           (per-device circuit-breaker states)
//! GET  /rest/metrics            (Prometheus text; `?format=json` for JSON)
//! GET  /rest/traces             (flight-recorder summaries; `?id=<hex>`
//!                                for one trace as Chrome-trace JSON)
//! GET  /rest/healthz            (liveness: 200 while the process serves)
//! GET  /rest/readyz             (readiness: 503 while restoring/draining)
//! GET  /rest/query              (imcf-obs range queries; `?series=...&fn=...`)
//! GET  /rest/alerts             (imcf-obs alert rule states)
//! ```
//!
//! and answers with JSON, so a GUI, a test harness, or a TCP shim can drive
//! the controller without linking against its types.

use crate::firewall::Chain;
use imcf_chaos::{BreakerBank, BreakerSnapshot};
use imcf_devices::command::{Command, CommandOutcome, CommandPayload};
use imcf_devices::item::ItemKind;
use imcf_devices::registry::DeviceRegistry;
use imcf_obs::{ObsEngine, QueryError};
use imcf_sim::meter::EnergyMeter;
use parking_lot::Mutex;
use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Content type of the Prometheus text exposition format (version 0.0.4,
/// the version Prometheus scrapers negotiate for plain text).
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Content type of JSON bodies.
pub const JSON_CONTENT_TYPE: &str = "application/json";

/// An API response: HTTP-ish status plus a body, its content type, and
/// any extra headers a wire transport must carry (`Allow` on 405,
/// `Retry-After` on 429/503).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (200, 400, 404, 405, 409, 429).
    pub status: u16,
    /// Response body.
    pub body: String,
    /// MIME content type of the body.
    pub content_type: &'static str,
    /// Extra response headers (name, value) beyond the content type.
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    fn ok<T: Serialize>(value: &T) -> Response {
        match serde_json::to_string(value) {
            Ok(body) => Response {
                status: 200,
                body,
                content_type: JSON_CONTENT_TYPE,
                headers: Vec::new(),
            },
            // A body that cannot serialize is a server bug; answer 500
            // rather than tearing down the API thread.
            Err(_) => Response {
                status: 500,
                body: String::from(r#"{"error":"response serialization failed"}"#),
                content_type: JSON_CONTENT_TYPE,
                headers: Vec::new(),
            },
        }
    }

    fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            body: serde_json::to_string(&serde_json::json!({ "error": message }))
                .unwrap_or_else(|_| String::from(r#"{"error":"unrenderable error"}"#)),
            content_type: JSON_CONTENT_TYPE,
            headers: Vec::new(),
        }
    }

    fn text(body: String) -> Response {
        Response {
            status: 200,
            body,
            content_type: PROMETHEUS_CONTENT_TYPE,
            headers: Vec::new(),
        }
    }

    fn json_text(body: String) -> Response {
        Response {
            status: 200,
            body,
            content_type: JSON_CONTENT_TYPE,
            headers: Vec::new(),
        }
    }

    /// Adds one extra header.
    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.headers.push((name, value));
        self
    }

    /// A `429 Too Many Requests` with a `Retry-After` hint, for edge
    /// rate limiting (`u64::MAX` renders as a bare "later" of one hour).
    pub fn too_many_requests(retry_after_secs: u64) -> Response {
        let retry = retry_after_secs.min(3600);
        Response::error(429, "rate limited by the edge token bucket")
            .with_header("Retry-After", retry.to_string())
    }

    /// First value of an extra header, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// The 2xx/3xx/4xx/5xx class of a status code — the label granularity the
/// `api.requests` and `net.requests` metrics use, so dashboards and the
/// loadgen report aggregate the same way.
pub fn status_class(status: u16) -> &'static str {
    match status {
        200..=299 => "2xx",
        300..=399 => "3xx",
        400..=499 => "4xx",
        500..=599 => "5xx",
        _ => "other",
    }
}

/// The request router over the controller's shared state.
pub struct Router {
    registry: DeviceRegistry,
    firewall: Arc<Mutex<Chain>>,
    meter: Arc<Mutex<EnergyMeter>>,
    breakers: Option<(Arc<Mutex<BreakerBank>>, Arc<AtomicU64>)>,
    /// The observability engine behind `/rest/query` and `/rest/alerts`
    /// (shared with the sampling loop, hence the mutex).
    obs: Option<Arc<Mutex<ObsEngine>>>,
    /// Readiness flag behind `/rest/readyz`: flipped false while the
    /// controller restores from a checkpoint or drains for shutdown, so a
    /// load balancer routes around the instance without killing it.
    ready: Arc<AtomicBool>,
}

impl Router {
    /// Creates a router over shared controller handles.
    pub fn new(
        registry: DeviceRegistry,
        firewall: Arc<Mutex<Chain>>,
        meter: Arc<Mutex<EnergyMeter>>,
    ) -> Self {
        Router {
            registry,
            firewall,
            meter,
            breakers: None,
            obs: None,
            ready: Arc::new(AtomicBool::new(true)),
        }
    }

    /// The shared readiness flag: store `false` during restore/drain to
    /// make `/rest/readyz` answer 503, `true` once serving again.
    pub fn readiness(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.ready)
    }

    /// Attaches the controller's circuit breakers (and its virtual chaos
    /// clock, used as the snapshot tick) so `GET /rest/breakers` can
    /// report them. Unattached routers answer the route with an empty
    /// list.
    pub fn with_breakers(mut self, bank: Arc<Mutex<BreakerBank>>, clock: Arc<AtomicU64>) -> Self {
        self.breakers = Some((bank, clock));
        self
    }

    /// Attaches an observability engine so `GET /rest/query` and
    /// `GET /rest/alerts` can answer. Unattached routers answer both
    /// routes with an empty-but-valid body.
    pub fn with_obs(mut self, obs: Arc<Mutex<ObsEngine>>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The methods a known path answers, rendered for an `Allow` header;
    /// `None` for unknown paths.
    fn allowed_methods(path: &str) -> Option<&'static str> {
        match path {
            p if p
                .strip_prefix("/rest/items/")
                .is_some_and(|n| !n.is_empty()) =>
            {
                Some("GET, POST")
            }
            "/rest/items" | "/rest/things" | "/rest/firewall" | "/rest/meter"
            | "/rest/breakers" | "/rest/metrics" | "/rest/traces" | "/rest/healthz"
            | "/rest/readyz" | "/rest/query" | "/rest/alerts" => Some("GET"),
            _ => None,
        }
    }

    /// Handles one request: its method, its target (path plus optional
    /// `?query`) and its body, whose surrounding whitespace is ignored.
    /// The wire parser only hands over uppercase methods and targets that
    /// start with `/`; an in-process caller that breaks either gets a 400.
    pub fn handle(&self, method: &str, target: &str, body: &str) -> Response {
        let body = body.trim();
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        let response = match (method, path) {
            ("GET", "/rest/items") => self.get_items(),
            ("GET", p) if p.starts_with("/rest/items/") => {
                self.get_item(&p["/rest/items/".len()..])
            }
            ("POST", p) if p.starts_with("/rest/items/") => {
                self.post_item(&p["/rest/items/".len()..], body)
            }
            ("GET", "/rest/things") => self.get_things(),
            ("GET", "/rest/firewall") => self.get_firewall(),
            ("GET", "/rest/meter") => self.get_meter(),
            ("GET", "/rest/breakers") => self.get_breakers(),
            ("GET", "/rest/metrics") => Self::get_metrics(query),
            ("GET", "/rest/traces") => Self::get_traces(query),
            ("GET", "/rest/healthz") => Response::ok(&serde_json::json!({ "status": "ok" })),
            ("GET", "/rest/readyz") => self.get_readyz(),
            ("GET", "/rest/query") => self.get_query(query),
            ("GET", "/rest/alerts") => self.get_alerts(),
            _ if method.is_empty() || path.is_empty() || !path.starts_with('/') => {
                Response::error(400, "expected a method and a `/` path")
            }
            // A known path with the wrong method is a 405 that names the
            // methods it does answer, not a generic 404.
            _ => match Self::allowed_methods(path) {
                Some(allow) => Response::error(
                    405,
                    &format!("method `{method}` not allowed here (allow: {allow})"),
                )
                .with_header("Allow", allow.to_string()),
                None => Response::error(404, "no such endpoint"),
            },
        };
        imcf_telemetry::global()
            .counter_with("api.requests", &[("status", status_class(response.status))])
            .inc();
        response
    }

    /// `GET /rest/readyz`: 200 while ready, 503 (with a `Retry-After`
    /// hint) while the instance restores from a checkpoint or drains for
    /// shutdown. Liveness (`/rest/healthz`) stays 200 either way — a
    /// not-ready instance is routed around, not restarted.
    fn get_readyz(&self) -> Response {
        if self.ready.load(Ordering::SeqCst) {
            Response::ok(&serde_json::json!({ "ready": true }))
        } else {
            let mut r = Response::error(503, "not ready: restoring or draining");
            r.headers.push(("Retry-After", "1".to_string()));
            r
        }
    }

    /// `GET /rest/query?series=...&fn=value|rate|increase|points|quantile`
    /// `&window=<ticks>&q=<0..1>`: range queries over the obs engine's
    /// retained series. No `series` parameter lists the series keys.
    fn get_query(&self, query: &str) -> Response {
        let Some(obs) = &self.obs else {
            return Response::ok(&serde_json::json!({
                "tick": serde_json::Value::Null,
                "series": Vec::<String>::new(),
            }));
        };
        let engine = obs.lock();
        match imcf_obs::handle_query(&engine, query) {
            Ok(body) => Response::json_text(body),
            Err(QueryError::BadRequest(msg)) => Response::error(400, &msg),
            Err(QueryError::UnknownSeries(series)) => {
                Response::error(404, &format!("unknown series: {series}"))
            }
        }
    }

    /// `GET /rest/alerts`: every alert rule with its state-machine
    /// position and last computed value.
    fn get_alerts(&self) -> Response {
        let Some(obs) = &self.obs else {
            return Response::ok(&serde_json::json!({
                "tick": serde_json::Value::Null,
                "firing": 0,
                "alerts": Vec::<imcf_obs::AlertRow>::new(),
            }));
        };
        let engine = obs.lock();
        Response::json_text(engine.alerts_json())
    }

    fn get_metrics(query: &str) -> Response {
        let telemetry = imcf_telemetry::global();
        if query.split('&').any(|kv| kv == "format=json") {
            Response::json_text(telemetry.json_snapshot_string())
        } else {
            Response::text(telemetry.prometheus_text())
        }
    }

    /// `GET /rest/traces` lists the flight recorder's retained traces;
    /// `GET /rest/traces?id=<16-hex>` exports one as Chrome-trace JSON.
    fn get_traces(query: &str) -> Response {
        let recorder = imcf_telemetry::trace::recorder();
        let id = query
            .split('&')
            .find_map(|kv| kv.strip_prefix("id="))
            .filter(|v| !v.is_empty());
        match id {
            None => Response::ok(&serde_json::json!({
                "enabled": recorder.is_enabled(),
                "traces": recorder.summaries(),
            })),
            Some(hex) => {
                let Some(id) = imcf_telemetry::trace::TraceId::from_hex(hex) else {
                    return Response::error(400, &format!("invalid trace id `{hex}`"));
                };
                if recorder.trace(id).is_none() {
                    return Response::error(404, &format!("no retained trace `{hex}`"));
                }
                Response::json_text(recorder.chrome_trace_json_for(&[id]))
            }
        }
    }

    fn get_items(&self) -> Response {
        let names = self.registry.item_names();
        let items: Vec<_> = names
            .iter()
            .filter_map(|n| self.registry.item(n))
            .map(|i| {
                serde_json::json!({
                    "name": i.name,
                    "kind": format!("{:?}", i.kind),
                    "state": i.state.to_string(),
                    "channel": i.channel.as_ref().map(|c| c.to_string()),
                })
            })
            .collect();
        Response::ok(&items)
    }

    fn get_item(&self, name: &str) -> Response {
        match self.registry.item(name) {
            Some(i) => Response::ok(&serde_json::json!({
                "name": i.name,
                "kind": format!("{:?}", i.kind),
                "state": i.state.to_string(),
            })),
            None => Response::error(404, &format!("no item `{name}`")),
        }
    }

    fn post_item(&self, name: &str, body: &str) -> Response {
        let Some(item) = self.registry.item(name) else {
            return Response::error(404, &format!("no item `{name}`"));
        };
        let Some(channel) = item.channel.clone() else {
            return Response::error(409, &format!("item `{name}` has no channel link"));
        };
        // A non-finite value would actuate a device with NaN or ∞.
        let Some(value) = body.parse::<f64>().ok().filter(|v| v.is_finite()) else {
            return Response::error(400, &format!("invalid value `{body}`"));
        };
        let payload = match item.kind {
            ItemKind::Number => CommandPayload::SetTemperature {
                celsius: value,
                cooling: false,
            },
            ItemKind::Dimmer => CommandPayload::SetLevel(value),
            ItemKind::Switch => CommandPayload::Power(!imcf_core::metrics::approx_zero(value)),
            ItemKind::Contact => return Response::error(409, "contact items are read-only"),
        };
        match self.registry.dispatch(&Command::binding(channel, payload)) {
            Ok(CommandOutcome::Delivered(wire)) => {
                Response::ok(&serde_json::json!({ "delivered": wire }))
            }
            Ok(CommandOutcome::Blocked) => {
                Response::error(409, "blocked by the meta-control firewall")
            }
            Ok(CommandOutcome::Offline) => Response::error(409, "thing offline"),
            Ok(CommandOutcome::Failed { reason }) => {
                Response::error(409, &format!("delivery failed: {reason}"))
            }
            Err(e) => Response::error(400, &e.to_string()),
        }
    }

    fn get_things(&self) -> Response {
        let things: Vec<_> = self
            .registry
            .thing_uids()
            .iter()
            .filter_map(|uid| self.registry.thing(uid))
            .map(|t| {
                serde_json::json!({
                    "uid": t.uid.to_string(),
                    "label": t.label,
                    "kind": format!("{:?}", t.kind),
                    "host": t.host,
                    "zone": t.zone,
                    "online": t.online,
                })
            })
            .collect();
        Response::ok(&things)
    }

    fn get_firewall(&self) -> Response {
        let chain = self.firewall.lock();
        let (evaluated, dropped) = chain.counters();
        Response::ok(&serde_json::json!({
            "script": chain.render_script(),
            "rules": chain.rules().len(),
            "evaluated": evaluated,
            "dropped": dropped,
        }))
    }

    fn get_breakers(&self) -> Response {
        let Some((bank, clock)) = &self.breakers else {
            return Response::ok(&serde_json::json!({
                "tick": 0,
                "open": 0,
                "breakers": Vec::<BreakerSnapshot>::new(),
            }));
        };
        let tick = clock.load(Ordering::SeqCst);
        let mut bank = bank.lock();
        let open = bank.open_now(tick);
        Response::ok(&serde_json::json!({
            "tick": tick,
            "open": open,
            "breakers": bank.snapshots(tick),
        }))
    }

    fn get_meter(&self) -> Response {
        let meter = self.meter.lock();
        Response::ok(&serde_json::json!({
            "total_kwh": meter.total_kwh(),
            "monthly_kwh": meter.monthly().to_vec(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{ControllerConfig, LocalController};
    use imcf_core::calendar::PaperCalendar;

    fn router_with_zone() -> (LocalController, Router) {
        let mut c =
            LocalController::new(ControllerConfig::default(), PaperCalendar::january_start());
        c.provision_zone("den").unwrap();
        let router = Router::new(
            c.registry(),
            c.firewall(),
            Arc::new(Mutex::new(EnergyMeter::new(PaperCalendar::january_start()))),
        );
        (c, router)
    }

    #[test]
    fn lists_items_and_things() {
        let (_c, router) = router_with_zone();
        let r = router.handle("GET", "/rest/items", "");
        assert_eq!(r.status, 200);
        assert!(r.body.contains("den_SetPoint"));
        assert!(r.body.contains("den_Light"));
        let r = router.handle("GET", "/rest/things", "");
        assert_eq!(r.status, 200);
        assert!(r.body.contains("imcf:hvac:den"));
    }

    #[test]
    fn item_command_round_trip() {
        let (_c, router) = router_with_zone();
        let r = router.handle("POST", "/rest/items/den_SetPoint", "21.5");
        assert_eq!(r.status, 200, "body: {}", r.body);
        let r = router.handle("GET", "/rest/items/den_SetPoint", "");
        assert!(r.body.contains("21.5"), "body: {}", r.body);
    }

    #[test]
    fn firewall_blocks_surface_as_409() {
        let (c, router) = router_with_zone();
        c.firewall()
            .lock()
            .set_policy(crate::firewall::Verdict::Drop);
        let r = router.handle("POST", "/rest/items/den_SetPoint", "25");
        assert_eq!(r.status, 409);
        assert!(r.body.contains("firewall"));
    }

    #[test]
    fn firewall_endpoint_reports_state() {
        let (_c, router) = router_with_zone();
        let r = router.handle("GET", "/rest/firewall", "");
        assert_eq!(r.status, 200);
        assert!(r.body.contains("iptables -P OUTPUT"));
    }

    #[test]
    fn meter_endpoint() {
        let (_c, router) = router_with_zone();
        let r = router.handle("GET", "/rest/meter", "");
        assert_eq!(r.status, 200);
        assert!(r.body.contains("total_kwh"));
    }

    #[test]
    fn breakers_endpoint_reports_quarantine() {
        use imcf_chaos::FaultPlan;
        use imcf_core::candidate::{CandidateRule, PlanningSlot};
        use imcf_rules::meta_rule::RuleId;

        let (mut c, _plain) = router_with_zone();
        let router = Router::new(
            c.registry(),
            c.firewall(),
            Arc::new(Mutex::new(EnergyMeter::new(PaperCalendar::january_start()))),
        )
        .with_breakers(c.breakers(), c.chaos_clock());

        // Unattached router answers the route too.
        let plain = Router::new(
            c.registry(),
            c.firewall(),
            Arc::new(Mutex::new(EnergyMeter::new(PaperCalendar::january_start()))),
        );
        let r = plain.handle("GET", "/rest/breakers", "");
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"breakers\":[]"), "body: {}", r.body);

        // Drive the device into quarantine with an always-fault plan.
        c.attach_chaos(FaultPlan::commands(2, 1.0));
        for h in 0..4 {
            let slot = PlanningSlot::new(
                h,
                vec![CandidateRule::convenience(RuleId(0), 22.0, 15.0, 0.1).in_zone("den")],
                1.0,
            );
            c.tick_with_errors(&slot);
        }
        let r = router.handle("GET", "/rest/breakers", "");
        assert_eq!(r.status, 200);
        assert!(r.body.contains("imcf:hvac:den"), "body: {}", r.body);
        assert!(r.body.contains("Open"), "body: {}", r.body);
        assert!(r.body.contains("\"open\":1"), "body: {}", r.body);
    }

    #[test]
    fn metrics_content_types() {
        let (_c, router) = router_with_zone();
        let r = router.handle("GET", "/rest/metrics", "");
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, PROMETHEUS_CONTENT_TYPE);
        let r = router.handle("GET", "/rest/metrics?format=json", "");
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, JSON_CONTENT_TYPE);
    }

    #[test]
    fn traces_endpoint_lists_and_exports() {
        use imcf_telemetry::trace;

        let (_c, router) = router_with_zone();
        let recorder = trace::recorder();
        let was_enabled = recorder.is_enabled();
        recorder.set_enabled(true);
        let id = trace::TraceId::derive(0xA91, 7, 0);
        {
            let _g = trace::begin(id, || "api-test".to_string());
            let span = trace::span("api.work");
            span.attr("step", "one");
        }
        recorder.set_enabled(was_enabled);

        let r = router.handle("GET", "/rest/traces", "");
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, JSON_CONTENT_TYPE);
        assert!(r.body.contains(&id.to_hex()), "body: {}", r.body);
        assert!(r.body.contains("api-test"), "body: {}", r.body);

        let r = router.handle("GET", &format!("/rest/traces?id={}", id.to_hex()), "");
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, JSON_CONTENT_TYPE);
        assert!(r.body.contains("traceEvents"), "body: {}", r.body);
        assert!(r.body.contains("api.work"), "body: {}", r.body);

        assert_eq!(router.handle("GET", "/rest/traces?id=zzzz", "").status, 400);
        assert_eq!(
            router
                .handle("GET", "/rest/traces?id=00000000000000ff", "")
                .status,
            404
        );
    }

    #[test]
    fn error_paths() {
        let (_c, router) = router_with_zone();
        assert_eq!(router.handle("GET", "/rest/items/nope", "").status, 404);
        assert_eq!(router.handle("POST", "/rest/items/nope", "1").status, 404);
        assert_eq!(
            router
                .handle("POST", "/rest/items/den_SetPoint", "abc")
                .status,
            400
        );
        // Non-finite values parse as floats but never reach a device.
        for item in ["den_SetPoint", "den_Light"] {
            let target = format!("/rest/items/{item}");
            let before = router.handle("GET", &target, "").body;
            for value in ["NaN", "inf", "-inf", "infinity"] {
                let r = router.handle("POST", &target, value);
                assert_eq!(r.status, 400, "{item} <- {value}");
                assert!(r.body.contains("invalid value"), "{}", r.body);
            }
            assert_eq!(router.handle("GET", &target, "").body, before);
        }
        assert_eq!(router.registry.counters(), (0, 0));
        assert_eq!(router.handle("GET", "/rest/unknown", "").status, 404);
        assert_eq!(router.handle("DELETE", "/rest/unknown", "").status, 404);
        assert_eq!(router.handle("", "", "").status, 400);
        assert_eq!(router.handle("GET", "", "").status, 400);
        assert_eq!(router.handle("GET", "not-a-path", "").status, 400);
    }

    /// An unknown method on a *known* path is a 405 naming the methods the
    /// path does answer — not a generic 404.
    #[test]
    fn unknown_method_on_known_path_is_405_with_allow() {
        let (_c, router) = router_with_zone();
        let r = router.handle("DELETE", "/rest/items", "");
        assert_eq!(r.status, 405);
        assert_eq!(r.header("Allow"), Some("GET"));
        let r = router.handle("PUT", "/rest/items/den_SetPoint", "21");
        assert_eq!(r.status, 405);
        assert_eq!(r.header("Allow"), Some("GET, POST"));
        let r = router.handle("POST", "/rest/metrics", "");
        assert_eq!(r.status, 405);
        assert_eq!(r.header("Allow"), Some("GET"));
        // Query strings do not defeat path recognition.
        let r = router.handle("POST", "/rest/traces?id=00ff", "");
        assert_eq!(r.status, 405);
    }

    #[test]
    fn healthz_always_ok_and_readyz_follows_the_flag() {
        let (_c, router) = router_with_zone();
        assert_eq!(router.handle("GET", "/rest/healthz", "").status, 200);
        assert_eq!(router.handle("GET", "/rest/readyz", "").status, 200);
        assert!(router
            .handle("GET", "/rest/readyz", "")
            .body
            .contains("true"));

        // Drain: readiness flips, liveness does not.
        let ready = router.readiness();
        ready.store(false, Ordering::SeqCst);
        let r = router.handle("GET", "/rest/readyz", "");
        assert_eq!(r.status, 503);
        assert_eq!(r.header("Retry-After"), Some("1"));
        assert_eq!(router.handle("GET", "/rest/healthz", "").status, 200);

        // Restore completes: ready again.
        ready.store(true, Ordering::SeqCst);
        assert_eq!(router.handle("GET", "/rest/readyz", "").status, 200);

        // Probes are GET-only, like the rest of the read surface.
        let r = router.handle("POST", "/rest/healthz", "");
        assert_eq!(r.status, 405);
        assert_eq!(r.header("Allow"), Some("GET"));
    }

    #[test]
    fn query_and_alerts_endpoints() {
        use imcf_obs::{default_rules, ObsConfig, ObsEngine};

        let (_c, plain) = router_with_zone();
        // Unattached router answers both routes with empty-but-valid JSON.
        let r = plain.handle("GET", "/rest/query", "");
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"series\":[]"), "body: {}", r.body);
        let r = plain.handle("GET", "/rest/alerts", "");
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"alerts\":[]"), "body: {}", r.body);

        // Attached router serves real series sampled from a registry.
        let (c, _unused) = router_with_zone();
        let mut engine = ObsEngine::in_memory(ObsConfig::default(), default_rules())
            .expect("stock rules validate");
        let sampled = imcf_telemetry::Registry::new();
        let work = sampled.counter("journal.deduped");
        for tick in 1..=10u64 {
            work.add(3);
            engine.observe(tick, &sampled);
        }
        let router = Router::new(
            c.registry(),
            c.firewall(),
            Arc::new(Mutex::new(EnergyMeter::new(PaperCalendar::january_start()))),
        )
        .with_obs(Arc::new(Mutex::new(engine)));

        let r = router.handle(
            "GET",
            "/rest/query?series=journal.deduped&fn=rate&window=5",
            "",
        );
        assert_eq!(r.status, 200, "body: {}", r.body);
        assert_eq!(r.content_type, JSON_CONTENT_TYPE);
        assert!(r.body.contains("\"value\":3"), "body: {}", r.body);

        // Typed errors map onto HTTP statuses.
        assert_eq!(
            router
                .handle("GET", "/rest/query?series=no.such&fn=value", "")
                .status,
            404
        );
        assert_eq!(
            router
                .handle("GET", "/rest/query?series=journal.deduped&fn=bogus", "")
                .status,
            400
        );

        let r = router.handle("GET", "/rest/alerts", "");
        assert_eq!(r.status, 200);
        assert!(r.body.contains("breaker.open.storm"), "body: {}", r.body);

        // Both are GET-only.
        let r = router.handle("POST", "/rest/query", "");
        assert_eq!(r.status, 405);
        assert_eq!(r.header("Allow"), Some("GET"));
        let r = router.handle("POST", "/rest/alerts", "");
        assert_eq!(r.status, 405);
    }

    /// A `%` before a non-ASCII character is no escape: decoding must not
    /// slice inside the `é`, since a panic would unwind out of the serving
    /// worker.
    #[test]
    fn query_with_a_broken_escape_is_an_unknown_series() {
        use imcf_obs::{default_rules, ObsConfig, ObsEngine};

        let (_c, router) = router_with_zone();
        let engine = ObsEngine::in_memory(ObsConfig::default(), default_rules())
            .expect("stock rules validate");
        let router = router.with_obs(Arc::new(Mutex::new(engine)));
        let r = router.handle("GET", "/rest/query?series=%a\u{e9}", "");
        assert_eq!(r.status, 404, "body: {}", r.body);
        assert!(
            r.body.contains("unknown series: %a\u{e9}"),
            "body: {}",
            r.body
        );
    }

    /// The counter's exact delta per request is checked in
    /// `tests/api_requests_label.rs`, a process of its own: the router
    /// tests here bump the same global counter in parallel.
    #[test]
    fn api_requests_label_is_a_status_class() {
        assert_eq!(status_class(200), "2xx");
        assert_eq!(status_class(409), "4xx");
        assert_eq!(status_class(500), "5xx");
        assert_eq!(status_class(100), "other");
    }
}

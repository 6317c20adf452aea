//! Shared scaffolding for the wire-level tests: a demo home behind a
//! real `imcf-net` server on an ephemeral port.

use imcf_controller::api::Router;
use imcf_controller::controller::{ControllerConfig, LocalController};
use imcf_core::calendar::PaperCalendar;
use imcf_net::{serve, NetConfig, ServerHandle};
use imcf_sim::meter::EnergyMeter;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Starts a server fronting a freshly provisioned one-zone home
/// (`den_SetPoint` and friends exist). The caller must call
/// `handle.shutdown()` at the end of the test.
pub fn start(config: NetConfig) -> ServerHandle {
    start_with_readiness(config).0
}

/// Like [`start`], but also hands back the router's readiness flag so a
/// test can drive `/rest/readyz` through its drain transition.
pub fn start_with_readiness(
    config: NetConfig,
) -> (ServerHandle, Arc<std::sync::atomic::AtomicBool>) {
    let controller = LocalController::with_zones(
        ControllerConfig::default(),
        PaperCalendar::january_start(),
        &["den".to_string()],
    )
    .expect("provision den");
    let router = Router::new(
        controller.registry(),
        controller.firewall(),
        Arc::new(Mutex::new(EnergyMeter::new(PaperCalendar::january_start()))),
    )
    .with_breakers(controller.breakers(), controller.chaos_clock());
    let readiness = router.readiness();
    let handle = serve(config, Arc::new(router)).expect("bind an ephemeral port");
    (handle, readiness)
}

/// A config with test-friendly (short) timeouts.
pub fn quick_config() -> NetConfig {
    NetConfig {
        read_timeout: Duration::from_millis(400),
        write_timeout: Duration::from_millis(400),
        ..NetConfig::default()
    }
}

/// The client-side timeout used by tests — comfortably above the server's.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

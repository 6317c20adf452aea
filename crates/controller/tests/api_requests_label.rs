//! `api.requests` is labelled by status class, one count per request.
//!
//! The counter lives in the process-global registry, so its exact delta is
//! checked in this test binary of its own: no other test handles requests
//! in the same process while it runs.

use imcf_controller::api::Router;
use imcf_controller::controller::{ControllerConfig, LocalController};
use imcf_core::calendar::PaperCalendar;
use imcf_sim::meter::EnergyMeter;
use parking_lot::Mutex;
use std::sync::Arc;

#[test]
fn one_request_counts_once_under_its_status_class() {
    let mut c = LocalController::new(ControllerConfig::default(), PaperCalendar::january_start());
    c.provision_zone("den").unwrap();
    let router = Router::new(
        c.registry(),
        c.firewall(),
        Arc::new(Mutex::new(EnergyMeter::new(PaperCalendar::january_start()))),
    );
    let requests_2xx = || {
        imcf_telemetry::global()
            .counter_with("api.requests", &[("status", "2xx")])
            .get()
    };
    let before = requests_2xx();
    assert_eq!(router.handle("GET", "/rest/items", "").status, 200);
    let after = requests_2xx();
    assert_eq!(after, before + 1);
}

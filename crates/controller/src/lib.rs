//! # imcf-controller — the Local Controller and meta-control firewall
//!
//! This crate assembles the substrates into the running system of the
//! paper's Fig. 3: an openHAB-like Local Controller (LC) extended with the
//! IMCF component.
//!
//! * [`firewall`] — an iptables-like rule chain filtering LC→TG traffic
//!   (the paper configures real `iptables` DROP rules; ours filters the
//!   in-process device network with the same append/insert/policy
//!   semantics);
//! * [`api`] — the openHAB-style REST query/command surface; `imcf-net`
//!   serves it over HTTP and stands in for Fig. 3's Cloud Controller (CC);
//! * [`config`] — the persistent resident/MRT configuration (the paper's
//!   MariaDB layer);
//! * [`controller`] — the IMCF orchestration loop: AP → EP → translate the
//!   plan into admit/block decisions → actuate through the device registry;
//! * [`deployment`] — the one driver that ticks a controller, with opt-in
//!   checkpoint and obs attachments; its one tick per simulated hour
//!   stands in for the paper's cron job that fires the EP;
//! * [`prototype`] — the week-long three-resident prototype deployment
//!   (paper §III-F, Tables IV and V), a projection of one deployment run;
//! * [`soak`] — the chaos soak harness: a deployment under an
//!   `imcf-chaos` fault plan (device faults, plus sensor outages when
//!   configured), optionally journaled to the command journal with the
//!   plan's store faults on its WAL, reporting what survived;
//! * [`recovery`] — checkpoint/restore plus the exactly-once command
//!   journal, and the recoverable run `imcf chaos --crash` kills and
//!   restarts;
//! * [`supervisor`] — the stuck-tick watchdog feeding
//!   `controller.watchdog_trips` and the flight recorder.

pub mod api;
pub mod config;
pub mod controller;
pub mod deployment;
pub mod firewall;
pub mod prototype;
pub mod recovery;
pub mod soak;
pub mod supervisor;

pub use controller::{
    ControllerCheckpoint, ControllerConfig, ControllerError, LocalController, TickSummary,
};
pub use deployment::{zone_names, Deployment, ZoneSlots};
pub use firewall::{Chain, FirewallRule, Verdict};
pub use prototype::{PrototypeConfig, PrototypeOutcome};
pub use recovery::{
    audit_journal, open_or_restore, run_complete, run_recoverable, state_digest, CommandJournal,
    JournalAudit, JournalRecord, RecoveryConfig, RecoveryOutcome, StateDigest,
};
pub use soak::{run_soak, SoakConfig, SoakOutcome};
pub use supervisor::TickWatchdog;

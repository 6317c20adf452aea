//! The meta-control firewall: an iptables-like rule chain.
//!
//! The paper's extended mode configures the LC's network firewall with
//! `iptables -A OUTPUT -s 192.168.0.5 -j DROP` to cut traffic to designated
//! devices. [`Chain`] reproduces the semantics over the in-process device
//! network: ordered rules with first-match-wins evaluation, append/insert/
//! delete operations and a default policy, plus rendering each rule to the
//! equivalent `iptables` command line so operators can audit the state.

use imcf_devices::command::Command;
use imcf_devices::thing::{Thing, ThingKind};
use imcf_rules::action::DeviceClass;
use imcf_telemetry::Counter;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// The verdict a rule (or the chain policy) produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Let the command through.
    Accept,
    /// Silently drop the command.
    Drop,
}

/// What traffic a firewall rule matches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Match {
    /// Any command.
    Any,
    /// Commands to a specific host address.
    Host(String),
    /// Commands to hosts with a prefix (e.g. `192.168.0.`).
    HostPrefix(String),
    /// Commands to a device class (HVAC, lights, …).
    Class(DeviceClass),
    /// Commands to a specific zone.
    Zone(String),
    /// Commands to a device class within a zone (the granularity the IMCF
    /// plan enforcement uses).
    ZoneClass(String, DeviceClass),
}

impl Match {
    fn matches(&self, thing: &Thing, _cmd: &Command) -> bool {
        match self {
            Match::Any => true,
            Match::Host(h) => thing.host == *h,
            Match::HostPrefix(p) => thing.host.starts_with(p),
            Match::Class(c) => device_class(thing) == Some(*c),
            Match::Zone(z) => thing.zone == *z,
            Match::ZoneClass(z, c) => thing.zone == *z && device_class(thing) == Some(*c),
        }
    }
}

/// The device class a thing's kind belongs to, if the firewall classes it.
fn device_class(thing: &Thing) -> Option<DeviceClass> {
    match thing.kind {
        ThingKind::HvacUnit => Some(DeviceClass::Hvac),
        ThingKind::DimmableLight => Some(DeviceClass::Light),
        _ => None,
    }
}

/// One firewall rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FirewallRule {
    /// What the rule matches.
    pub matcher: Match,
    /// The verdict on match.
    pub verdict: Verdict,
    /// Free-form comment (rendered like iptables `-m comment`).
    pub comment: String,
}

impl FirewallRule {
    /// `DROP` every command to `host` — the paper's example rule.
    pub fn drop_host(host: &str) -> Self {
        FirewallRule {
            matcher: Match::Host(host.to_string()),
            verdict: Verdict::Drop,
            comment: String::new(),
        }
    }

    /// `ACCEPT` commands to `host`.
    pub fn accept_host(host: &str) -> Self {
        FirewallRule {
            matcher: Match::Host(host.to_string()),
            verdict: Verdict::Accept,
            comment: String::new(),
        }
    }

    /// Attaches a comment (builder style).
    pub fn with_comment(mut self, comment: &str) -> Self {
        self.comment = comment.to_string();
        self
    }

    /// Renders the equivalent `iptables` command line.
    pub fn render_iptables(&self) -> String {
        let target = match self.verdict {
            Verdict::Accept => "ACCEPT",
            Verdict::Drop => "DROP",
        };
        let matcher = match &self.matcher {
            Match::Any => String::new(),
            Match::Host(h) => format!("-s {h} "),
            Match::HostPrefix(p) => format!("-s {p}0/24 "),
            Match::Class(c) => format!("-m class --class {c} "),
            Match::Zone(z) => format!("-m zone --zone {z} "),
            Match::ZoneClass(z, c) => format!("-m zone --zone {z} -m class --class {c} "),
        };
        let comment = if self.comment.is_empty() {
            String::new()
        } else {
            format!(" -m comment --comment \"{}\"", self.comment)
        };
        format!("iptables -A OUTPUT {matcher}-j {target}{comment}")
    }
}

impl fmt::Display for FirewallRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render_iptables())
    }
}

/// An ordered rule chain with a default policy.
#[derive(Debug, Clone)]
pub struct Chain {
    rules: Vec<FirewallRule>,
    policy: Verdict,
    evaluated: u64,
    dropped: u64,
    hits: RuleHits,
}

/// `firewall.rule_hits` handles, `[accept, drop]` per rule label (its
/// comment, or its chain position when it has none). Each is fetched on
/// the label's first hit and kept across [`Chain::flush`]: the controller
/// re-appends the same commented rules every tick.
type RuleHits = BTreeMap<String, [Option<Counter>; 2]>;

impl Default for Chain {
    fn default() -> Self {
        Chain::new(Verdict::Accept)
    }
}

impl Chain {
    /// Creates an empty chain with the given default policy.
    pub fn new(policy: Verdict) -> Self {
        Chain {
            rules: Vec::new(),
            policy,
            evaluated: 0,
            dropped: 0,
            hits: RuleHits::new(),
        }
    }

    /// Appends a rule (iptables `-A`).
    pub fn append(&mut self, rule: FirewallRule) {
        self.rules.push(rule);
    }

    /// Inserts a rule at a position (iptables `-I`; clamped to the end).
    pub fn insert(&mut self, index: usize, rule: FirewallRule) {
        let index = index.min(self.rules.len());
        self.rules.insert(index, rule);
    }

    /// Deletes the rule at `index` (iptables `-D`), if present.
    pub fn delete(&mut self, index: usize) -> Option<FirewallRule> {
        (index < self.rules.len()).then(|| self.rules.remove(index))
    }

    /// Removes every rule (iptables `-F`).
    pub fn flush(&mut self) {
        self.rules.clear();
    }

    /// Changes the default policy (iptables `-P`).
    pub fn set_policy(&mut self, policy: Verdict) {
        self.policy = policy;
    }

    /// The rules in evaluation order.
    pub fn rules(&self) -> &[FirewallRule] {
        &self.rules
    }

    /// Evaluates a command: first matching rule wins, otherwise the policy.
    pub fn evaluate(&mut self, thing: &Thing, cmd: &Command) -> Verdict {
        self.evaluated += 1;
        let hit = self
            .rules
            .iter()
            .enumerate()
            .find(|(_, r)| r.matcher.matches(thing, cmd));
        let verdict = hit.map(|(_, r)| r.verdict).unwrap_or(self.policy);
        if verdict == Verdict::Drop {
            self.dropped += 1;
        }
        // Cached handles keep the no-match fast path at one atomic add.
        static ACCEPTS: OnceLock<Counter> = OnceLock::new();
        static DROPS: OnceLock<Counter> = OnceLock::new();
        let (cell, label) = match verdict {
            Verdict::Accept => (&ACCEPTS, "accept"),
            Verdict::Drop => (&DROPS, "drop"),
        };
        cell.get_or_init(|| {
            imcf_telemetry::global().counter_with("firewall.verdicts", &[("verdict", label)])
        })
        .inc();
        // Per-rule attribution only on an actual rule hit.
        if let Some((index, rule)) = hit {
            let rule_label = if rule.comment.is_empty() {
                Cow::Owned(index.to_string())
            } else {
                Cow::Borrowed(rule.comment.as_str())
            };
            let slot = usize::from(verdict == Verdict::Drop);
            let register = || {
                imcf_telemetry::global().counter_with(
                    "firewall.rule_hits",
                    &[("rule", &rule_label), ("verdict", label)],
                )
            };
            match self.hits.get_mut(rule_label.as_ref()) {
                Some(handles) => handles[slot].get_or_insert_with(register).inc(),
                None => {
                    let mut handles: [Option<Counter>; 2] = Default::default();
                    handles[slot].insert(register()).inc();
                    self.hits.insert(rule_label.to_string(), handles);
                }
            }
        }
        if imcf_telemetry::trace::active() {
            let rule_label = match hit {
                Some((index, rule)) if rule.comment.is_empty() => index.to_string(),
                Some((_, rule)) => rule.comment.clone(),
                None => match self.policy {
                    Verdict::Accept => "policy accept".to_string(),
                    Verdict::Drop => "policy drop".to_string(),
                },
            };
            imcf_telemetry::trace::point(
                "firewall.verdict",
                &[
                    ("thing", &thing.uid.to_string()),
                    ("verdict", label),
                    ("rule", &rule_label),
                ],
            );
        }
        verdict
    }

    /// `(evaluated, dropped)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.evaluated, self.dropped)
    }

    /// Renders the whole chain as an iptables script.
    pub fn render_script(&self) -> String {
        let mut out = format!(
            "iptables -P OUTPUT {}\n",
            match self.policy {
                Verdict::Accept => "ACCEPT",
                Verdict::Drop => "DROP",
            }
        );
        for r in &self.rules {
            out.push_str(&r.render_iptables());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imcf_devices::channel::ChannelUid;
    use imcf_devices::command::CommandPayload;
    use imcf_devices::thing::{Thing, ThingKind, ThingUid};

    fn daikin_cmd() -> (Thing, Command) {
        let thing = Thing::daikin_example();
        let cmd = Command::binding(
            ChannelUid::new(thing.uid.clone(), "power"),
            CommandPayload::Power(true),
        );
        (thing, cmd)
    }

    #[test]
    fn paper_drop_rule_blocks_host() {
        let (thing, cmd) = daikin_cmd();
        let mut chain = Chain::default();
        chain.append(FirewallRule::drop_host("192.168.0.5"));
        assert_eq!(chain.evaluate(&thing, &cmd), Verdict::Drop);
        assert_eq!(chain.counters(), (1, 1));
    }

    #[test]
    fn first_match_wins() {
        let (thing, cmd) = daikin_cmd();
        let mut chain = Chain::default();
        chain.append(FirewallRule::accept_host("192.168.0.5"));
        chain.append(FirewallRule::drop_host("192.168.0.5"));
        assert_eq!(chain.evaluate(&thing, &cmd), Verdict::Accept);
        // Insert a DROP at the front: it now wins.
        chain.insert(0, FirewallRule::drop_host("192.168.0.5"));
        assert_eq!(chain.evaluate(&thing, &cmd), Verdict::Drop);
    }

    #[test]
    fn policy_applies_when_nothing_matches() {
        let (thing, cmd) = daikin_cmd();
        let mut chain = Chain::new(Verdict::Drop);
        chain.append(FirewallRule::drop_host("10.0.0.1"));
        assert_eq!(chain.evaluate(&thing, &cmd), Verdict::Drop);
        chain.set_policy(Verdict::Accept);
        assert_eq!(chain.evaluate(&thing, &cmd), Verdict::Accept);
    }

    #[test]
    fn prefix_class_and_zone_matchers() {
        let (thing, cmd) = daikin_cmd();
        let mut chain = Chain::default();
        chain.append(FirewallRule {
            matcher: Match::HostPrefix("192.168.0.".into()),
            verdict: Verdict::Drop,
            comment: String::new(),
        });
        assert_eq!(chain.evaluate(&thing, &cmd), Verdict::Drop);
        chain.flush();
        chain.append(FirewallRule {
            matcher: Match::Class(DeviceClass::Hvac),
            verdict: Verdict::Drop,
            comment: String::new(),
        });
        assert_eq!(chain.evaluate(&thing, &cmd), Verdict::Drop);
        chain.flush();
        chain.append(FirewallRule {
            matcher: Match::Zone("living_room".into()),
            verdict: Verdict::Drop,
            comment: String::new(),
        });
        assert_eq!(chain.evaluate(&thing, &cmd), Verdict::Drop);
        // A light thing does not match the HVAC class rule.
        chain.flush();
        chain.append(FirewallRule {
            matcher: Match::Class(DeviceClass::Light),
            verdict: Verdict::Drop,
            comment: String::new(),
        });
        assert_eq!(chain.evaluate(&thing, &cmd), Verdict::Accept);
        let lamp = Thing::new(
            ThingUid::new("hue", "bulb", "kitchen"),
            "Kitchen lamp",
            ThingKind::DimmableLight,
            "192.168.0.9",
            "kitchen",
        );
        assert_eq!(chain.evaluate(&lamp, &cmd), Verdict::Drop);
    }

    #[test]
    fn delete_and_flush() {
        let mut chain = Chain::default();
        chain.append(FirewallRule::drop_host("a"));
        chain.append(FirewallRule::drop_host("b"));
        let removed = chain.delete(0).unwrap();
        assert_eq!(removed.matcher, Match::Host("a".into()));
        assert_eq!(chain.rules().len(), 1);
        assert!(chain.delete(5).is_none());
        chain.flush();
        assert!(chain.rules().is_empty());
    }

    #[test]
    fn renders_paper_iptables_line() {
        let rule = FirewallRule::drop_host("192.168.0.5");
        assert_eq!(
            rule.render_iptables(),
            "iptables -A OUTPUT -s 192.168.0.5 -j DROP"
        );
        let commented = rule.with_comment("imcf: over budget");
        assert!(commented
            .render_iptables()
            .contains("--comment \"imcf: over budget\""));
    }

    #[test]
    fn renders_full_script() {
        let mut chain = Chain::default();
        chain.append(FirewallRule::drop_host("192.168.0.5"));
        let script = chain.render_script();
        assert!(script.starts_with("iptables -P OUTPUT ACCEPT\n"));
        assert!(script.contains("-s 192.168.0.5 -j DROP"));
    }
}

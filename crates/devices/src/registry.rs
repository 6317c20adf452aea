//! The device registry: the Local Controller's inventory.
//!
//! A [`DeviceRegistry`] tracks things and items, maintains channel links and
//! dispatches [`Command`]s. Dispatch consults an optional *egress filter* —
//! the hook the meta-control firewall installs to DROP traffic to designated
//! devices, mirroring the paper's
//! `iptables -A OUTPUT -s 192.168.0.5 -j DROP` configuration.

use crate::channel::ChannelUid;
use crate::command::{Command, CommandOutcome, CommandPayload};
use crate::item::{Item, ItemState};
use crate::thing::{Thing, ThingUid};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// A thing with this UID is already registered.
    DuplicateThing(ThingUid),
    /// An item with this name is already registered.
    DuplicateItem(String),
    /// No thing with this UID exists.
    UnknownThing(ThingUid),
    /// No item with this name exists.
    UnknownItem(String),
    /// The command's channel points at a thing that is not registered.
    UnknownChannelThing(ChannelUid),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateThing(uid) => write!(f, "thing `{uid}` already registered"),
            RegistryError::DuplicateItem(name) => write!(f, "item `{name}` already registered"),
            RegistryError::UnknownThing(uid) => write!(f, "unknown thing `{uid}`"),
            RegistryError::UnknownItem(name) => write!(f, "unknown item `{name}`"),
            RegistryError::UnknownChannelThing(c) => {
                write!(f, "channel `{c}` points at an unregistered thing")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// Egress filter verdict for a command about to leave the controller.
pub type EgressFilter = dyn Fn(&Thing, &Command) -> bool + Send + Sync;

/// Fault injector consulted after the egress filter: `Some(reason)` fails
/// the delivery with [`CommandOutcome::Failed`]. Installed by the chaos
/// plane; the registry itself knows nothing about fault *schedules*.
pub type FaultInjector = dyn Fn(&Thing, &Command) -> Option<String> + Send + Sync;

/// The Local Controller's device inventory.
///
/// Interior mutability (`parking_lot::RwLock`) lets the controller share one
/// registry between the scheduler thread, the firewall and user-facing
/// query paths, mirroring openHAB's shared item registry.
#[derive(Clone, Default)]
pub struct DeviceRegistry {
    inner: Arc<RwLock<Inner>>,
}

#[derive(Default)]
struct Inner {
    things: BTreeMap<ThingUid, Thing>,
    items: BTreeMap<String, Item>,
    /// Linked item names by channel, in name order. Built by the first
    /// delivery after an `add_item` (which drops it), so provisioning never
    /// pays for it and a delivery finds its items without a scan.
    links: Option<BTreeMap<ChannelUid, Vec<String>>>,
    egress: Option<Arc<EgressFilter>>,
    faults: Option<Arc<FaultInjector>>,
    delivered: u64,
    blocked: u64,
    failed: u64,
}

impl Inner {
    /// Reflects a delivered command into every item linked to its channel,
    /// like openHAB's autoupdate, and counts the delivery. Dispatch and
    /// journal replay share it, so both update the same items.
    fn deliver(&mut self, cmd: &Command) {
        let new_state = match cmd.payload {
            CommandPayload::Power(on) => ItemState::OnOff(on),
            CommandPayload::SetTemperature { celsius, .. } => ItemState::Decimal(celsius),
            CommandPayload::SetLevel(level) => ItemState::Percent(level),
        };
        let items = &mut self.items;
        let links = self.links.get_or_insert_with(|| {
            let mut links: BTreeMap<ChannelUid, Vec<String>> = BTreeMap::new();
            for (name, item) in items.iter() {
                if let Some(channel) = &item.channel {
                    links.entry(channel.clone()).or_default().push(name.clone());
                }
            }
            links
        });
        for name in links.get(&cmd.channel).into_iter().flatten() {
            if let Some(item) = items.get_mut(name) {
                let _ = item.apply(new_state);
            }
        }
        self.delivered += 1;
    }
}

impl DeviceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a thing.
    pub fn add_thing(&self, thing: Thing) -> Result<(), RegistryError> {
        let mut inner = self.inner.write();
        if inner.things.contains_key(&thing.uid) {
            return Err(RegistryError::DuplicateThing(thing.uid));
        }
        inner.things.insert(thing.uid.clone(), thing);
        Ok(())
    }

    /// Registers an item.
    pub fn add_item(&self, item: Item) -> Result<(), RegistryError> {
        let mut inner = self.inner.write();
        if inner.items.contains_key(&item.name) {
            return Err(RegistryError::DuplicateItem(item.name));
        }
        if item.channel.is_some() {
            inner.links = None;
        }
        inner.items.insert(item.name.clone(), item);
        Ok(())
    }

    /// Looks up a thing by UID.
    pub fn thing(&self, uid: &ThingUid) -> Option<Thing> {
        self.inner.read().things.get(uid).cloned()
    }

    /// Looks up an item by name.
    pub fn item(&self, name: &str) -> Option<Item> {
        self.inner.read().items.get(name).cloned()
    }

    /// All thing UIDs, sorted.
    pub fn thing_uids(&self) -> Vec<ThingUid> {
        self.inner.read().things.keys().cloned().collect()
    }

    /// All item names, sorted.
    pub fn item_names(&self) -> Vec<String> {
        self.inner.read().items.keys().cloned().collect()
    }

    /// Number of registered things.
    pub fn thing_count(&self) -> usize {
        self.inner.read().things.len()
    }

    /// Marks a thing online/offline.
    pub fn set_online(&self, uid: &ThingUid, online: bool) -> Result<(), RegistryError> {
        let mut inner = self.inner.write();
        let thing = inner
            .things
            .get_mut(uid)
            .ok_or_else(|| RegistryError::UnknownThing(uid.clone()))?;
        thing.online = online;
        Ok(())
    }

    /// Updates an item's state (e.g. from a sensor reading).
    pub fn update_item(&self, name: &str, state: ItemState) -> Result<(), RegistryError> {
        let mut inner = self.inner.write();
        let item = inner
            .items
            .get_mut(name)
            .ok_or_else(|| RegistryError::UnknownItem(name.to_string()))?;
        item.apply(state)
            .map_err(|_| RegistryError::UnknownItem(name.to_string()))?;
        Ok(())
    }

    /// Installs the firewall's egress filter. Commands for which the filter
    /// returns `false` are dropped with [`CommandOutcome::Blocked`].
    ///
    /// The filter runs under the registry's write lock, so it must not
    /// call back into this registry. A filter that takes a lock of its own
    /// (the controller's firewall chain) fixes the lock order: registry,
    /// then that lock. Never dispatch while holding it.
    pub fn set_egress_filter<F>(&self, filter: F)
    where
        F: Fn(&Thing, &Command) -> bool + Send + Sync + 'static,
    {
        self.inner.write().egress = Some(Arc::new(filter));
    }

    /// Removes the egress filter.
    pub fn clear_egress_filter(&self) {
        self.inner.write().egress = None;
    }

    /// Installs a fault injector. It runs *after* the egress filter (a
    /// firewall DROP wins over an in-flight fault), under the same write
    /// lock; returning `Some(reason)` fails the delivery with
    /// [`CommandOutcome::Failed`] and leaves item state untouched.
    pub fn set_fault_injector<F>(&self, injector: F)
    where
        F: Fn(&Thing, &Command) -> Option<String> + Send + Sync + 'static,
    {
        self.inner.write().faults = Some(Arc::new(injector));
    }

    /// Removes the fault injector.
    pub fn clear_fault_injector(&self) {
        self.inner.write().faults = None;
    }

    /// Dispatches a command: resolves the destination thing, consults the
    /// egress filter and the fault injector, renders the wire form and
    /// reflects the new state into linked items — all under one write
    /// lock, with the thing looked up once and borrowed, not cloned.
    pub fn dispatch(&self, cmd: &Command) -> Result<CommandOutcome, RegistryError> {
        let mut guard = self.inner.write();
        let inner = &mut *guard;
        let thing = inner
            .things
            .get(&cmd.channel.thing)
            .ok_or_else(|| RegistryError::UnknownChannelThing(cmd.channel.clone()))?;
        if !thing.online {
            return Ok(CommandOutcome::Offline);
        }
        if let Some(filter) = &inner.egress {
            if !filter(thing, cmd) {
                inner.blocked += 1;
                return Ok(CommandOutcome::Blocked);
            }
        }
        if let Some(inject) = &inner.faults {
            if let Some(reason) = inject(thing, cmd) {
                inner.failed += 1;
                return Ok(CommandOutcome::Failed { reason });
            }
        }
        let wire = cmd.render(thing);
        inner.deliver(cmd);
        Ok(CommandOutcome::Delivered(wire))
    }

    /// Applies an already-acknowledged command during journal replay:
    /// reflects the payload into linked items and counts the delivery,
    /// bypassing the egress filter and the fault injector. The command was
    /// delivered in a previous life of this process — replay must neither
    /// re-ask the firewall nor re-draw faults nor re-actuate the device,
    /// only bring the twin back to the acknowledged state.
    pub fn apply_replayed(&self, cmd: &Command) -> Result<(), RegistryError> {
        let mut inner = self.inner.write();
        if !inner.things.contains_key(&cmd.channel.thing) {
            return Err(RegistryError::UnknownChannelThing(cmd.channel.clone()));
        }
        inner.deliver(cmd);
        Ok(())
    }

    /// `(delivered, blocked)` dispatch counters.
    pub fn counters(&self) -> (u64, u64) {
        let inner = self.inner.read();
        (inner.delivered, inner.blocked)
    }

    /// Number of dispatches failed by the fault injector.
    pub fn failed_count(&self) -> u64 {
        self.inner.read().failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::ItemKind;
    use crate::thing::ThingKind;

    fn setup() -> (DeviceRegistry, ChannelUid) {
        let reg = DeviceRegistry::new();
        reg.add_thing(Thing::daikin_example()).unwrap();
        let ch = ChannelUid::new(
            ThingUid::new("daikin", "ac_unit", "living_room_ac"),
            "settemp",
        );
        reg.add_item(Item::new("DaikinACUnit_SetPoint", ItemKind::Number).linked_to(ch.clone()))
            .unwrap();
        (reg, ch)
    }

    #[test]
    fn dispatch_updates_linked_item() {
        let (reg, ch) = setup();
        let cmd = Command::binding(
            ch,
            CommandPayload::SetTemperature {
                celsius: 25.0,
                cooling: false,
            },
        );
        let out = reg.dispatch(&cmd).unwrap();
        assert!(matches!(out, CommandOutcome::Delivered(_)));
        assert_eq!(
            reg.item("DaikinACUnit_SetPoint").unwrap().state,
            ItemState::Decimal(25.0)
        );
        assert_eq!(reg.counters(), (1, 0));
    }

    fn set_temperature(ch: &ChannelUid, celsius: f64) -> Command {
        Command::binding(
            ch.clone(),
            CommandPayload::SetTemperature {
                celsius,
                cooling: false,
            },
        )
    }

    fn state(reg: &DeviceRegistry, name: &str) -> ItemState {
        reg.item(name).unwrap().state
    }

    #[test]
    fn dispatch_reaches_every_item_linked_to_the_channel() {
        let (reg, ch) = setup();
        reg.add_item(Item::new("DaikinACUnit_Mirror", ItemKind::Number).linked_to(ch.clone()))
            .unwrap();
        reg.add_item(Item::new("Unlinked", ItemKind::Number))
            .unwrap();
        let power = ChannelUid::new(ch.thing.clone(), "power");
        reg.add_item(Item::new("DaikinACUnit_Power", ItemKind::Switch).linked_to(power))
            .unwrap();
        reg.dispatch(&set_temperature(&ch, 23.0)).unwrap();
        assert_eq!(
            state(&reg, "DaikinACUnit_SetPoint"),
            ItemState::Decimal(23.0)
        );
        assert_eq!(state(&reg, "DaikinACUnit_Mirror"), ItemState::Decimal(23.0));
        // Neither an unlinked item nor one on another channel moves.
        assert_eq!(state(&reg, "Unlinked"), ItemState::Undefined);
        assert_eq!(state(&reg, "DaikinACUnit_Power"), ItemState::Undefined);
    }

    #[test]
    fn an_item_linked_after_a_dispatch_is_updated_by_the_next() {
        let (reg, ch) = setup();
        reg.dispatch(&set_temperature(&ch, 20.0)).unwrap();
        reg.add_item(Item::new("Late", ItemKind::Number).linked_to(ch.clone()))
            .unwrap();
        assert_eq!(state(&reg, "Late"), ItemState::Undefined);
        reg.dispatch(&set_temperature(&ch, 26.0)).unwrap();
        assert_eq!(state(&reg, "Late"), ItemState::Decimal(26.0));
        assert_eq!(
            state(&reg, "DaikinACUnit_SetPoint"),
            ItemState::Decimal(26.0)
        );
    }

    #[test]
    fn an_offline_things_items_keep_their_state() {
        let (reg, ch) = setup();
        reg.dispatch(&set_temperature(&ch, 22.0)).unwrap();
        reg.set_online(&ch.thing, false).unwrap();
        assert_eq!(
            reg.dispatch(&set_temperature(&ch, 30.0)).unwrap(),
            CommandOutcome::Offline
        );
        assert_eq!(
            state(&reg, "DaikinACUnit_SetPoint"),
            ItemState::Decimal(22.0)
        );
        assert_eq!(reg.counters(), (1, 0));
    }

    #[test]
    fn replay_updates_the_items_dispatch_updates() {
        let items = |reg: &DeviceRegistry| -> Vec<ItemState> {
            reg.item_names().iter().map(|n| state(reg, n)).collect()
        };
        let build = || {
            let (reg, ch) = setup();
            reg.add_item(Item::new("A_Mirror", ItemKind::Number).linked_to(ch.clone()))
                .unwrap();
            reg.add_item(Item::new("B_Unlinked", ItemKind::Number))
                .unwrap();
            (reg, ch)
        };
        let (live, ch) = build();
        let (replayed, _) = build();
        for celsius in [19.0, 24.5] {
            let cmd = set_temperature(&ch, celsius);
            live.dispatch(&cmd).unwrap();
            replayed.apply_replayed(&cmd).unwrap();
            assert_eq!(items(&live), items(&replayed));
        }
        assert_eq!(
            items(&live),
            vec![
                ItemState::Decimal(24.5),
                ItemState::Undefined,
                ItemState::Decimal(24.5)
            ]
        );
        assert_eq!(live.counters(), replayed.counters());
    }

    #[test]
    fn egress_filter_blocks_like_iptables() {
        let (reg, ch) = setup();
        // DROP all traffic to 192.168.0.5, like the paper's iptables rule.
        reg.set_egress_filter(|thing, _| thing.host != "192.168.0.5");
        let cmd = Command::binding(ch, CommandPayload::Power(true));
        assert_eq!(reg.dispatch(&cmd).unwrap(), CommandOutcome::Blocked);
        assert_eq!(reg.counters(), (0, 1));
        // Item state untouched.
        assert_eq!(
            reg.item("DaikinACUnit_SetPoint").unwrap().state,
            ItemState::Undefined
        );
        reg.clear_egress_filter();
        assert!(matches!(
            reg.dispatch(&cmd).unwrap(),
            CommandOutcome::Delivered(_)
        ));
    }

    #[test]
    fn fault_injector_fails_delivery_without_touching_state() {
        let (reg, ch) = setup();
        reg.set_fault_injector(|thing, _| {
            (thing.host == "192.168.0.5").then(|| "cmd_drop".to_string())
        });
        let cmd = Command::binding(
            ch,
            CommandPayload::SetTemperature {
                celsius: 24.0,
                cooling: true,
            },
        );
        assert_eq!(
            reg.dispatch(&cmd).unwrap(),
            CommandOutcome::Failed {
                reason: "cmd_drop".into()
            }
        );
        // Neither delivered nor blocked; the failure has its own counter.
        assert_eq!(reg.counters(), (0, 0));
        assert_eq!(reg.failed_count(), 1);
        assert_eq!(
            reg.item("DaikinACUnit_SetPoint").unwrap().state,
            ItemState::Undefined
        );
        reg.clear_fault_injector();
        assert!(matches!(
            reg.dispatch(&cmd).unwrap(),
            CommandOutcome::Delivered(_)
        ));
        assert_eq!(reg.failed_count(), 1);
    }

    #[test]
    fn replay_apply_bypasses_egress_and_faults() {
        let (reg, ch) = setup();
        // Both hooks would stop a live dispatch cold…
        reg.set_egress_filter(|_, _| false);
        reg.set_fault_injector(|_, _| Some("cmd_drop".into()));
        let cmd = Command::binding(
            ch.clone(),
            CommandPayload::SetTemperature {
                celsius: 21.5,
                cooling: true,
            },
        );
        assert_eq!(reg.dispatch(&cmd).unwrap(), CommandOutcome::Blocked);
        // …but replay of an acknowledged command lands regardless.
        reg.apply_replayed(&cmd).unwrap();
        assert_eq!(
            reg.item("DaikinACUnit_SetPoint").unwrap().state,
            ItemState::Decimal(21.5)
        );
        assert_eq!(reg.counters(), (1, 1));
        assert_eq!(reg.failed_count(), 0);
        // Unknown things still error.
        let ghost = Command::binding(
            ChannelUid::new(ThingUid::new("no", "such", "thing"), "settemp"),
            CommandPayload::Power(true),
        );
        assert!(matches!(
            reg.apply_replayed(&ghost),
            Err(RegistryError::UnknownChannelThing(_))
        ));
    }

    #[test]
    fn firewall_drop_wins_over_fault_injection() {
        let (reg, ch) = setup();
        reg.set_egress_filter(|_, _| false);
        reg.set_fault_injector(|_, _| Some("cmd_drop".into()));
        let cmd = Command::binding(ch, CommandPayload::Power(true));
        assert_eq!(reg.dispatch(&cmd).unwrap(), CommandOutcome::Blocked);
        assert_eq!(reg.failed_count(), 0);
    }

    #[test]
    fn offline_things_bounce_commands() {
        let (reg, ch) = setup();
        reg.set_online(&ch.thing, false).unwrap();
        let cmd = Command::binding(ch, CommandPayload::Power(true));
        assert_eq!(reg.dispatch(&cmd).unwrap(), CommandOutcome::Offline);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let (reg, _) = setup();
        assert_eq!(
            reg.add_thing(Thing::daikin_example()),
            Err(RegistryError::DuplicateThing(ThingUid::new(
                "daikin",
                "ac_unit",
                "living_room_ac"
            )))
        );
        assert!(matches!(
            reg.add_item(Item::new("DaikinACUnit_SetPoint", ItemKind::Number)),
            Err(RegistryError::DuplicateItem(_))
        ));
    }

    #[test]
    fn unknown_channel_is_an_error() {
        let reg = DeviceRegistry::new();
        let ch = ChannelUid::parse("hue:bulb:kitchen:brightness").unwrap();
        let cmd = Command::binding(ch, CommandPayload::SetLevel(40.0));
        assert!(matches!(
            reg.dispatch(&cmd),
            Err(RegistryError::UnknownChannelThing(_))
        ));
    }

    #[test]
    fn sensor_updates_flow_through_items() {
        let reg = DeviceRegistry::new();
        reg.add_thing(Thing::new(
            ThingUid::new("sim", "sensor", "temp1"),
            "Temp sensor",
            ThingKind::TemperatureSensor,
            "192.168.0.20",
            "bedroom",
        ))
        .unwrap();
        reg.add_item(Item::new("Bedroom_Temp", ItemKind::Number))
            .unwrap();
        reg.update_item("Bedroom_Temp", ItemState::Decimal(19.5))
            .unwrap();
        assert_eq!(
            reg.item("Bedroom_Temp").unwrap().state,
            ItemState::Decimal(19.5)
        );
        assert!(reg.update_item("Nope", ItemState::Decimal(1.0)).is_err());
    }

    #[test]
    fn registry_is_cheaply_cloneable_and_shared() {
        let (reg, ch) = setup();
        let reg2 = reg.clone();
        let cmd = Command::binding(
            ch,
            CommandPayload::SetTemperature {
                celsius: 20.0,
                cooling: false,
            },
        );
        reg2.dispatch(&cmd).unwrap();
        // The clone shares state with the original.
        assert_eq!(reg.counters(), (1, 0));
        assert_eq!(reg.thing_count(), 1);
        assert_eq!(reg.item_names(), vec!["DaikinACUnit_SetPoint".to_string()]);
        assert_eq!(reg.thing_uids().len(), 1);
    }
}

//! Text formats for rule tables.
//!
//! The IMCF GUI of the paper stores rule tables in MariaDB; our equivalent
//! keeps them as plain text so they can be diffed, versioned and synthesized
//! by tools. Two formats are provided:
//!
//! **MRT format** — one pipe-separated row per meta-rule, mirroring Table II:
//!
//! ```text
//! # Flat preferences
//! Night Heat | 01:00 - 07:00 | Set Temperature | 25
//! Morning Lights | 04:00 - 09:00 | Set Light | 40 | owner=mother priority=2
//! Energy Flat | for 3 years | Set kWh Limit | 11000
//! ```
//!
//! **IFTTT format** — one `IF ... THEN ...` sentence per rule, mirroring
//! Table III:
//!
//! ```text
//! IF Season IS Summer THEN Set Temperature 25
//! IF Temperature > 30 THEN Set Temperature 23
//! IF Door IS Open THEN Set Light 0
//! ```

use crate::action::Action;
use crate::env::{Season, Weather};
use crate::ifttt::{IftttRule, IftttTable};
use crate::meta_rule::{MetaRule, RuleClass};
use crate::mrt::Mrt;
use crate::predicate::{Cmp, Predicate};
use crate::window::TimeWindow;
use std::fmt;

/// Hours per paper-convention year (12 × 31 × 24), re-exported for horizon
/// parsing.
pub const HOURS_PER_YEAR: u64 = crate::mrt::PAPER_HOURS_PER_YEAR;

/// A parse failure, carrying the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the input.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses an MRT text document. Blank lines and `#` comments are ignored.
pub fn parse_mrt(input: &str) -> Result<Mrt, ParseError> {
    let mut rules = Vec::new();
    for (idx, raw) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        rules.push(parse_mrt_row(line, lineno, rules.len() as u32)?);
    }
    Ok(Mrt::from_rules(rules))
}

fn parse_mrt_row(line: &str, lineno: usize, id: u32) -> Result<MetaRule, ParseError> {
    let fields: Vec<&str> = line.split('|').map(str::trim).collect();
    if fields.len() < 4 {
        return Err(err(
            lineno,
            format!(
                "expected `desc | time | action | value [| attrs]`, found {} field(s)",
                fields.len()
            ),
        ));
    }
    let description = fields[0];
    if description.is_empty() {
        return Err(err(lineno, "empty description"));
    }
    let value = parse_num(fields[3], lineno)?;
    let action = parse_action_name(fields[2], value, lineno)?;

    let mut rule = if let Some(horizon) = parse_horizon(fields[1]) {
        if !action.is_budget() {
            return Err(err(
                lineno,
                "duration horizons are only valid for `Set kWh Limit` rows",
            ));
        }
        MetaRule::budget(id, description, value, horizon)
    } else {
        let window = parse_window(fields[1], lineno)?;
        if action.is_budget() {
            return Err(err(
                lineno,
                "`Set kWh Limit` rows need a `for N <unit>` horizon",
            ));
        }
        MetaRule::convenience(id, description, window, action)
    };

    if let Some(attrs) = fields.get(4) {
        for attr in attrs.split_whitespace() {
            match attr.split_once('=') {
                Some(("owner", v)) => rule.owner = v.to_string(),
                Some(("priority", v)) => {
                    rule.priority = v
                        .parse()
                        .map_err(|_| err(lineno, format!("invalid priority `{v}`")))?;
                }
                None if attr == "necessity" => rule.class = RuleClass::Necessity,
                None if attr == "convenience" => rule.class = RuleClass::Convenience,
                _ => return Err(err(lineno, format!("unknown attribute `{attr}`"))),
            }
        }
    }
    Ok(rule)
}

fn parse_action_name(name: &str, value: f64, lineno: usize) -> Result<Action, ParseError> {
    match name.to_ascii_lowercase().as_str() {
        "set temperature" => Ok(Action::SetTemperature(value)),
        "set light" => Ok(Action::SetLight(value)),
        "set kwh limit" => kwh_limit(value, lineno),
        other => Err(err(lineno, format!("unknown action `{other}`"))),
    }
}

/// A budget action; a negative limit is no budget any plan can meet.
fn kwh_limit(value: f64, lineno: usize) -> Result<Action, ParseError> {
    if value < 0.0 {
        return Err(err(
            lineno,
            format!("a kWh limit cannot be negative, found `{value}`"),
        ));
    }
    Ok(Action::SetKwhLimit(value))
}

/// Parses `for N years/months/weeks/days/hours` into hours, using the paper's
/// 31-day-month convention. Returns `None` when the field is not a horizon.
fn parse_horizon(field: &str) -> Option<u64> {
    let rest = field.trim().strip_prefix("for ")?;
    let mut parts = rest.split_whitespace();
    let n_str = parts.next()?;
    let n: u64 = match n_str {
        "one" => 1,
        "two" => 2,
        "three" => 3,
        other => other.parse().ok()?,
    };
    let unit = parts.next()?;
    let hours = match unit.trim_end_matches('s') {
        "year" => n.checked_mul(HOURS_PER_YEAR)?,
        "month" => n.checked_mul(31 * 24)?,
        "week" => n.checked_mul(7 * 24)?,
        "day" => n.checked_mul(24)?,
        "hour" => n,
        _ => return None,
    };
    Some(hours)
}

fn parse_window(field: &str, lineno: usize) -> Result<TimeWindow, ParseError> {
    let (a, b) = field
        .split_once('-')
        .ok_or_else(|| err(lineno, format!("invalid time window `{field}`")))?;
    let parse_hm = |s: &str| -> Result<(u32, u32), ParseError> {
        let s = s.trim();
        let (h, m) = s
            .split_once(':')
            .ok_or_else(|| err(lineno, format!("invalid time `{s}`")))?;
        let h: u32 = h
            .parse()
            .map_err(|_| err(lineno, format!("invalid hour `{h}`")))?;
        let m: u32 = m
            .parse()
            .map_err(|_| err(lineno, format!("invalid minute `{m}`")))?;
        if h > 24 || m > 59 || (h == 24 && m != 0) {
            return Err(err(lineno, format!("time `{s}` out of range")));
        }
        Ok((h, m))
    };
    Ok(TimeWindow::hm(parse_hm(a)?, parse_hm(b)?))
}

/// Serializes an MRT back to the text format parsed by [`parse_mrt`].
pub fn format_mrt(mrt: &Mrt) -> String {
    let mut out = String::new();
    for r in mrt.rules() {
        let time = match r.horizon_hours {
            Some(h) => format_horizon(h),
            None => r.window.to_string(),
        };
        let (name, value) = match r.action {
            Action::SetTemperature(v) => ("Set Temperature", v),
            Action::SetLight(v) => ("Set Light", v),
            Action::SetKwhLimit(v) => ("Set kWh Limit", v),
        };
        let mut attrs = Vec::new();
        if r.class == RuleClass::Necessity && !r.is_budget() {
            attrs.push("necessity".to_string());
        }
        if !r.owner.is_empty() {
            attrs.push(format!("owner={}", r.owner));
        }
        if r.priority != 1 && !r.is_budget() {
            attrs.push(format!("priority={}", r.priority));
        }
        out.push_str(&format!(
            "{} | {} | {} | {}",
            r.description, time, name, value
        ));
        if !attrs.is_empty() {
            out.push_str(" | ");
            out.push_str(&attrs.join(" "));
        }
        out.push('\n');
    }
    out
}

fn format_horizon(hours: u64) -> String {
    fn unit(n: u64, name: &str) -> String {
        if n == 1 {
            format!("for 1 {name}")
        } else {
            format!("for {n} {name}s")
        }
    }
    if hours.is_multiple_of(HOURS_PER_YEAR) {
        unit(hours / HOURS_PER_YEAR, "year")
    } else if hours.is_multiple_of(31 * 24) {
        unit(hours / (31 * 24), "month")
    } else if hours.is_multiple_of(7 * 24) {
        unit(hours / (7 * 24), "week")
    } else if hours.is_multiple_of(24) {
        unit(hours / 24, "day")
    } else {
        unit(hours, "hour")
    }
}

/// Parses an IFTTT text document (`IF <trigger> THEN <action>` per line).
pub fn parse_ifttt(input: &str) -> Result<IftttTable, ParseError> {
    let mut table = IftttTable::new();
    for (idx, raw) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        table.push(parse_ifttt_rule(line, lineno)?);
    }
    Ok(table)
}

fn parse_ifttt_rule(line: &str, lineno: usize) -> Result<IftttRule, ParseError> {
    let rest = line
        .strip_prefix("IF ")
        .ok_or_else(|| err(lineno, "rule must start with `IF `"))?;
    let (trigger_str, action_str) = rest
        .split_once(" THEN ")
        .ok_or_else(|| err(lineno, "missing ` THEN ` separator"))?;
    let trigger = parse_trigger(trigger_str.trim(), lineno)?;
    let action = parse_ifttt_action(action_str.trim(), lineno)?;
    Ok(IftttRule::new(trigger, action))
}

fn parse_trigger(s: &str, lineno: usize) -> Result<Predicate, ParseError> {
    // Split conjunctions first: `A AND B`.
    if let Some((a, b)) = s.split_once(" AND ") {
        return Ok(parse_trigger(a.trim(), lineno)?.and(parse_trigger(b.trim(), lineno)?));
    }
    if let Some((a, b)) = s.split_once(" OR ") {
        return Ok(parse_trigger(a.trim(), lineno)?.or(parse_trigger(b.trim(), lineno)?));
    }
    let tokens: Vec<&str> = s.split_whitespace().collect();
    match tokens.as_slice() {
        ["Season", "IS", season] => Ok(Predicate::SeasonIs(parse_season(season, lineno)?)),
        ["Weather", "IS", weather] => Ok(Predicate::WeatherIs(parse_weather(weather, lineno)?)),
        ["Temperature", op, v] => Ok(Predicate::Temperature(
            parse_cmp(op, lineno)?,
            parse_num(v, lineno)?,
        )),
        ["Light", "Level", op, v] => Ok(Predicate::LightLevel(
            parse_cmp(op, lineno)?,
            parse_num(v, lineno)?,
        )),
        ["Door", "IS", "Open"] => Ok(Predicate::DoorOpen(true)),
        ["Door", "IS", "Closed"] => Ok(Predicate::DoorOpen(false)),
        ["Hour", "IN", range] => {
            let (a, b) = range
                .split_once("..")
                .ok_or_else(|| err(lineno, format!("invalid hour range `{range}`")))?;
            Ok(Predicate::HourIn(
                a.parse()
                    .map_err(|_| err(lineno, format!("invalid hour `{a}`")))?,
                b.parse()
                    .map_err(|_| err(lineno, format!("invalid hour `{b}`")))?,
            ))
        }
        ["TRUE"] => Ok(Predicate::True),
        _ => Err(err(lineno, format!("unrecognized trigger `{s}`"))),
    }
}

fn parse_season(s: &str, lineno: usize) -> Result<Season, ParseError> {
    match s {
        "Winter" => Ok(Season::Winter),
        "Spring" => Ok(Season::Spring),
        "Summer" => Ok(Season::Summer),
        "Autumn" | "Fall" => Ok(Season::Autumn),
        _ => Err(err(lineno, format!("unknown season `{s}`"))),
    }
}

fn parse_weather(s: &str, lineno: usize) -> Result<Weather, ParseError> {
    match s {
        "Sunny" => Ok(Weather::Sunny),
        "Cloudy" => Ok(Weather::Cloudy),
        "Rainy" => Ok(Weather::Rainy),
        _ => Err(err(lineno, format!("unknown weather `{s}`"))),
    }
}

fn parse_cmp(s: &str, lineno: usize) -> Result<Cmp, ParseError> {
    match s {
        "<" => Ok(Cmp::Lt),
        "<=" => Ok(Cmp::Le),
        ">" => Ok(Cmp::Gt),
        ">=" => Ok(Cmp::Ge),
        _ => Err(err(lineno, format!("unknown comparison `{s}`"))),
    }
}

/// Parses a rule value. `NaN` and `inf` parse as `f64` but are no setpoint,
/// level or limit, and would reach the planner's arithmetic unchecked.
fn parse_num(s: &str, lineno: usize) -> Result<f64, ParseError> {
    s.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| {
            err(
                lineno,
                format!("invalid value `{s}`: expected a finite number"),
            )
        })
}

fn parse_ifttt_action(s: &str, lineno: usize) -> Result<Action, ParseError> {
    let tokens: Vec<&str> = s.split_whitespace().collect();
    match tokens.as_slice() {
        ["Set", "Temperature", v] => Ok(Action::SetTemperature(parse_num(v, lineno)?)),
        ["Set", "Light", v] => Ok(Action::SetLight(parse_num(v, lineno)?)),
        ["Set", "kWh", "Limit", v] => kwh_limit(parse_num(v, lineno)?, lineno),
        _ => Err(err(lineno, format!("unrecognized action `{s}`"))),
    }
}

/// Serializes an IFTTT table to the text format parsed by [`parse_ifttt`].
pub fn format_ifttt(table: &IftttTable) -> String {
    table.rules().iter().map(|r| format!("{r}\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAT_MRT_TEXT: &str = "\
# Table II — flat experiments
Night Heat | 01:00 - 07:00 | Set Temperature | 25
Morning Lights | 04:00 - 09:00 | Set Light | 40
Day Heat | 08:00 - 16:00 | Set Temperature | 22
Midday Lights | 10:00 - 17:00 | Set Light | 30
Afternoon Preheat | 17:00 - 24:00 | Set Temperature | 24
Cosmetic Lights | 18:00 - 24:00 | Set Light | 40
Energy Flat | for three years | Set kWh Limit | 11000
";

    #[test]
    fn parses_table2_text() {
        let mrt = parse_mrt(FLAT_MRT_TEXT).unwrap();
        assert_eq!(mrt.len(), 7);
        assert_eq!(mrt.droppable_rules().count(), 6);
        let (limit, horizon) = mrt.tightest_budget().unwrap();
        assert_eq!(limit, 11000.0);
        assert_eq!(horizon, 3 * HOURS_PER_YEAR);
    }

    #[test]
    fn round_trips_through_format() {
        let mrt = parse_mrt(FLAT_MRT_TEXT).unwrap();
        let text = format_mrt(&mrt);
        let again = parse_mrt(&text).unwrap();
        assert_eq!(mrt, again);
    }

    #[test]
    fn attrs_parse() {
        let text = "Night Heat | 01:00 - 07:00 | Set Temperature | 25 | owner=father priority=3 necessity\n";
        let mrt = parse_mrt(text).unwrap();
        let r = &mrt.rules()[0];
        assert_eq!(r.owner, "father");
        assert_eq!(r.priority, 3);
        assert_eq!(r.class, RuleClass::Necessity);
    }

    #[test]
    fn attr_round_trip() {
        let text = "Night Heat | 01:00 - 07:00 | Set Temperature | 25 | necessity owner=father priority=3\n";
        let mrt = parse_mrt(text).unwrap();
        assert_eq!(parse_mrt(&format_mrt(&mrt)).unwrap(), mrt);
    }

    #[test]
    fn bad_field_count_reports_line() {
        let e = parse_mrt("just a line\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("field"));
    }

    #[test]
    fn bad_value_reports_line() {
        let e = parse_mrt("A | 01:00 - 02:00 | Set Light | forty\n").unwrap_err();
        assert!(e.message.contains("invalid value"));
    }

    #[test]
    fn non_finite_values_are_rejected_with_their_line() {
        for bad in ["NaN", "inf", "-inf", "infinity"] {
            let text = format!("# header\nA | 01:00 - 02:00 | Set Temperature | {bad}\n");
            let e = parse_mrt(&text).unwrap_err();
            assert_eq!(e.line, 2, "{bad}");
            assert!(e.message.contains("finite"), "{bad}: {e}");
            let e = parse_mrt(&format!("E | for 1 week | Set kWh Limit | {bad}\n")).unwrap_err();
            assert!(e.message.contains("finite"), "{bad}: {e}");
            let e = parse_ifttt(&format!("IF TRUE THEN Set Light {bad}\n")).unwrap_err();
            assert!(e.message.contains("finite"), "{bad}: {e}");
            let e = parse_ifttt(&format!("IF Temperature > {bad} THEN Set Light 0\n")).unwrap_err();
            assert!(e.message.contains("finite"), "{bad}: {e}");
        }
    }

    #[test]
    fn negative_kwh_limits_are_rejected_with_their_line() {
        let e =
            parse_mrt("A | 01:00 - 02:00 | Set Light | 40\nE | for 1 week | Set kWh Limit | -5\n")
                .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("negative"), "{e}");
        let e = parse_ifttt("IF TRUE THEN Set kWh Limit -5\n").unwrap_err();
        assert!(e.message.contains("negative"), "{e}");
        // A zero limit and negative setpoints stay valid.
        parse_mrt("E | for 1 week | Set kWh Limit | 0\n").unwrap();
        parse_mrt("Freezer | 00:00 - 24:00 | Set Temperature | -18\n").unwrap();
    }

    #[test]
    fn budget_without_horizon_rejected() {
        let e = parse_mrt("E | 01:00 - 02:00 | Set kWh Limit | 100\n").unwrap_err();
        assert!(e.message.contains("horizon"));
    }

    #[test]
    fn horizon_on_actuation_rejected() {
        let e = parse_mrt("A | for 2 days | Set Light | 40\n").unwrap_err();
        assert!(e.message.contains("only valid"));
    }

    #[test]
    fn horizon_units() {
        assert_eq!(parse_horizon("for 3 years"), Some(3 * HOURS_PER_YEAR));
        assert_eq!(parse_horizon("for three years"), Some(3 * HOURS_PER_YEAR));
        assert_eq!(parse_horizon("for 1 month"), Some(744));
        assert_eq!(parse_horizon("for 2 weeks"), Some(336));
        assert_eq!(parse_horizon("for 10 days"), Some(240));
        assert_eq!(parse_horizon("for 5 hours"), Some(5));
        assert_eq!(parse_horizon("01:00 - 02:00"), None);
    }

    const FLAT_IFTTT_TEXT: &str = "\
# Table III
IF Season IS Summer THEN Set Temperature 25
IF Season IS Winter THEN Set Temperature 20
IF Weather IS Sunny THEN Set Temperature 20
IF Weather IS Cloudy THEN Set Temperature 22
IF Weather IS Sunny THEN Set Light 0
IF Weather IS Cloudy THEN Set Light 40
IF Temperature > 30 THEN Set Temperature 23
IF Temperature < 10 THEN Set Temperature 24
IF Light Level > 15 THEN Set Light 9
IF Door IS Open THEN Set Light 0
";

    #[test]
    fn parses_table3_text_and_matches_builtin() {
        let parsed = parse_ifttt(FLAT_IFTTT_TEXT).unwrap();
        assert_eq!(parsed, IftttTable::flat_table3());
    }

    #[test]
    fn ifttt_round_trips() {
        let table = IftttTable::flat_table3();
        let text = format_ifttt(&table);
        assert_eq!(parse_ifttt(&text).unwrap(), table);
    }

    #[test]
    fn conjunction_trigger_parses() {
        let t = parse_ifttt("IF Season IS Winter AND Temperature < 10 THEN Set Temperature 24\n")
            .unwrap();
        let r = &t.rules()[0];
        assert!(matches!(r.trigger, Predicate::And(_, _)));
    }

    #[test]
    fn hour_range_trigger_parses() {
        let t = parse_ifttt("IF Hour IN 18..24 THEN Set Light 40\n").unwrap();
        assert_eq!(t.rules()[0].trigger, Predicate::HourIn(18, 24));
    }

    #[test]
    fn malformed_ifttt_reports_line() {
        let e = parse_ifttt("IF Season IS Summer\nIF nope THEN Set Light 1\n").unwrap_err();
        assert_eq!(e.line, 1); // first line lacks THEN
        let e2 = parse_ifttt("IF nope THEN Set Light 1\n").unwrap_err();
        assert_eq!(e2.line, 1);
        assert!(e2.message.contains("unrecognized trigger"));
    }

    #[test]
    fn out_of_range_time_rejected() {
        let e = parse_mrt("A | 25:00 - 26:00 | Set Light | 1\n").unwrap_err();
        assert!(e.message.contains("out of range"));
    }
}

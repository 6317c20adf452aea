//! Dependency-free `--key value` argument parsing against one option table
//! per command.
//!
//! A [`Command`] declares each option it takes once: its [`Kind`] and
//! domain, and what holds when it is [`Absent`]. [`Command::parse`] checks
//! every given value against its domain before the command runs, fills in
//! the defaults, and refuses anything else with one message format:
//! `` `--x` expects an integer in lo..=hi, found `v` ``. `imcf --help` and
//! `imcf <command> --help` are rendered from the same tables.

use std::collections::BTreeMap;
use std::str::FromStr;

/// The bound of an option the command stores in 32 bits.
pub const U32: u64 = u32::MAX as u64;
/// The bound of an option that sets a thread count.
pub const THREADS: u64 = 1024;

/// What an option takes: its kind and, for numbers and names, its domain.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// An integer in `lo..=hi`.
    Int(u64, u64),
    /// A finite number in `lo..=hi`; an infinite bound leaves that side open.
    Float(f64, f64),
    /// A finite number in `lo..hi`.
    FloatBelow(f64, f64),
    /// `true`, `false`, `1` or `0`.
    Flag,
    /// Free text, shown as `<what>`.
    Text(&'static str),
    /// One of these names.
    Choice(&'static [&'static str]),
}

impl Kind {
    /// The domain in words, as `--help` and every refusal print it.
    pub fn domain(&self) -> String {
        match *self {
            Kind::Int(lo, u64::MAX) => format!("an integer >= {lo}"),
            Kind::Int(lo, hi) => format!("an integer in {lo}..={hi}"),
            Kind::Float(lo, hi) if lo.is_infinite() && hi.is_infinite() => "a finite number".into(),
            Kind::Float(lo, hi) if hi.is_infinite() => format!("a finite number >= {lo}"),
            Kind::Float(lo, hi) => format!("a finite number in {lo}..={hi}"),
            Kind::FloatBelow(lo, hi) => format!("a finite number in {lo}..{hi}"),
            Kind::Flag => "one of true|false|1|0".into(),
            Kind::Text(what) => format!("<{what}>"),
            Kind::Choice(names) => format!("one of {}", names.join("|")),
        }
    }

    /// Whether `value` lies in the domain.
    fn admits(&self, value: &str) -> bool {
        let finite = || value.parse::<f64>().ok().filter(|x| x.is_finite());
        match *self {
            Kind::Int(lo, hi) => value.parse().is_ok_and(|n: u64| (lo..=hi).contains(&n)),
            Kind::Float(lo, hi) => finite().is_some_and(|x| (lo..=hi).contains(&x)),
            Kind::FloatBelow(lo, hi) => finite().is_some_and(|x| (lo..hi).contains(&x)),
            Kind::Flag => matches!(value, "true" | "false" | "1" | "0"),
            Kind::Text(_) => true,
            Kind::Choice(names) => names.contains(&value),
        }
    }
}

/// What holds when an option is not given.
#[derive(Debug, Clone, Copy)]
pub enum Absent {
    /// The command does not run without it.
    Required,
    /// This value, checked against the domain like a given one.
    Default(&'static str),
    /// The option stays unset; the text says what the command does then.
    Unset(&'static str),
}

/// One declared option.
#[derive(Debug, Clone, Copy)]
pub struct Opt {
    /// The name, without its leading `--`.
    pub name: &'static str,
    pub kind: Kind,
    pub absent: Absent,
}

/// A required option; [`Opt::default`] and [`Opt::unset`] say otherwise.
pub const fn opt(name: &'static str, kind: Kind) -> Opt {
    Opt {
        name,
        kind,
        absent: Absent::Required,
    }
}

impl Opt {
    /// This option, taking `value` when absent.
    pub const fn default(mut self, value: &'static str) -> Opt {
        self.absent = Absent::Default(value);
        self
    }

    /// This option, left unset when absent; `then` says what happens then.
    pub const fn unset(mut self, then: &'static str) -> Opt {
        self.absent = Absent::Unset(then);
        self
    }

    /// `value` if it lies in the domain, else the one refusal message.
    fn check(&self, value: &str) -> Result<String, String> {
        let (name, domain) = (self.name, self.kind.domain());
        let refusal = || format!("`--{name}` expects {domain}, found `{value}`");
        self.kind
            .admits(value)
            .then(|| value.to_string())
            .ok_or_else(refusal)
    }

    /// One `--help` line: the name, the domain, and the default.
    pub fn help(&self) -> String {
        let absent = match self.absent {
            Absent::Required => "required".to_string(),
            Absent::Default(value) => format!("default {value}"),
            Absent::Unset(then) => format!("default: {then}"),
        };
        format!("--{:<22} {} ({absent})", self.name, self.kind.domain())
    }
}

/// One entry point's table.
#[derive(Debug)]
pub struct Command {
    /// The words that select it, then its positional arguments in angle
    /// brackets: `plan <mrt-file>`, `chaos --crash`.
    pub usage: &'static str,
    /// What it does, in one line.
    pub about: &'static str,
    /// Its options, in groups so that two tables can share one.
    pub options: &'static [&'static [Opt]],
}

impl Command {
    fn options(&self) -> impl Iterator<Item = &'static Opt> {
        self.options.iter().flat_map(|group| group.iter())
    }

    fn positional(&self) -> impl Iterator<Item = &'static str> {
        self.usage.split(' ').filter(|w| w.starts_with('<'))
    }

    /// The rest of `argv` if `argv` selects this command: its first word
    /// leads, and any other word of the usage (`--crash`) is found and
    /// taken out.
    pub fn select(&self, argv: &[String]) -> Option<Vec<String>> {
        let mut words = self.usage.split(' ').filter(|w| !w.starts_with('<'));
        if argv.first()? != words.next()? {
            return None;
        }
        let mut rest = argv[1..].to_vec();
        for word in words {
            rest.remove(rest.iter().position(|a| a == word)?);
        }
        Some(rest)
    }

    /// The command's `--help`: synopsis, purpose, and one line per option.
    pub fn help(&self) -> String {
        let mut out = format!("  imcf {}\n      {}\n", self.usage, self.about);
        for opt in self.options() {
            out += &format!("      {}\n", opt.help());
        }
        out
    }

    /// Parses the arguments after the command's words: every value is
    /// checked against its option's domain, then absent options take
    /// their defaults. `Ok(None)` means `--help` was asked for.
    pub fn parse(&'static self, argv: &[String]) -> Result<Option<Parsed>, String> {
        let mut parsed = Parsed {
            command: self,
            positional: Vec::new(),
            values: BTreeMap::new(),
        };
        let mut args = argv.iter();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                parsed.positional.push(arg.clone());
                continue;
            };
            if name == "help" {
                return Ok(None);
            }
            let Some(opt) = self.options().find(|o| o.name == name) else {
                return Err(format!("unknown option `--{name}` (see --help)"));
            };
            let value = args
                .next()
                .ok_or_else(|| format!("option `--{name}` needs a value"))?;
            parsed.values.insert(opt.name, opt.check(value)?);
        }
        let (usage, found) = (self.usage, parsed.positional.len());
        if found != self.positional().count() {
            return Err(format!(
                "usage: imcf {usage} (found {found} positional args)"
            ));
        }
        for opt in self.options() {
            let given = parsed.values.contains_key(opt.name);
            match opt.absent {
                Absent::Required if !given => {
                    let domain = opt.kind.domain();
                    return Err(format!("option `--{}` is required: {domain}", opt.name));
                }
                Absent::Default(value) if !given => {
                    parsed.values.insert(opt.name, opt.check(value)?);
                }
                _ => {}
            }
        }
        Ok(Some(parsed))
    }
}

/// A command's arguments, every value inside its option's domain.
#[derive(Debug)]
pub struct Parsed {
    command: &'static Command,
    positional: Vec<String>,
    values: BTreeMap<&'static str, String>,
}

impl Parsed {
    /// The `n`th positional argument of the command's usage.
    pub fn positional(&self, n: usize) -> &str {
        &self.positional[n]
    }

    /// An option's value as `T`: an integer width its domain fits in, or
    /// `f64`.
    pub fn get<T: FromStr>(&self, name: &str) -> T {
        self.maybe(name).unwrap_or_else(|| misread(name))
    }

    /// An option without a default, as `T`; `None` when not given.
    pub fn maybe<T: FromStr>(&self, name: &str) -> Option<T> {
        let value = self.maybe_text(name)?;
        Some(value.parse().unwrap_or_else(|_| misread(name)))
    }

    /// A flag's value.
    pub fn flag(&self, name: &str) -> bool {
        matches!(self.text(name), "true" | "1")
    }

    /// A text or choice option's value; of any other option, the text it
    /// was given as (or its default), to pass on as it is.
    pub fn text(&self, name: &str) -> &str {
        self.maybe_text(name).unwrap_or_else(|| misread(name))
    }

    /// A text option without a default; `None` when not given.
    pub fn maybe_text(&self, name: &str) -> Option<&str> {
        if !self.command.options().any(|o| o.name == name) {
            misread(name);
        }
        self.values.get(name).map(String::as_str)
    }
}

/// A command read an option its own table does not declare, or declares
/// with another kind or without a default: a bug in the command, not in
/// its argv.
fn misread(name: &str) -> ! {
    panic!("`--{name}` is read in a way its command's table does not declare")
}

#[cfg(test)]
mod tests {
    use super::Kind::{Choice, Flag, Float, FloatBelow, Int, Text};
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    const SPEC: Command = Command {
        usage: "demo <file>",
        about: "a table for the parser's own tests",
        options: &[&[
            opt("seed", Int(0, u64::MAX)).default("0"),
            opt("months", Int(1, 12)).default("12"),
            opt("rate", Float(0.0, 1.0)).unset("no rate"),
            opt("name", Text("name")),
        ]],
    };

    fn parse(items: &[&str]) -> Result<Parsed, String> {
        SPEC.parse(&argv(items)).map(|p| p.expect("not --help"))
    }

    #[test]
    fn parses_mixed_args_and_fills_defaults() {
        let p = parse(&["file.mrt", "--seed", "7", "--name", "x"]).unwrap();
        assert_eq!(p.positional(0), "file.mrt");
        assert_eq!(p.get::<u64>("seed"), 7);
        assert_eq!(p.get::<u32>("months"), 12);
        assert_eq!(p.maybe::<f64>("rate"), None);
        assert_eq!(p.text("name"), "x");
    }

    #[test]
    fn refuses_unknown_missing_and_unbalanced_arguments() {
        let e = parse(&["f", "--nope", "1", "--name", "x"]).unwrap_err();
        assert_eq!(e, "unknown option `--nope` (see --help)");
        let e = parse(&["f", "--name"]).unwrap_err();
        assert!(e.contains("needs a value"), "{e}");
        let e = parse(&["f", "--seed", "1"]).unwrap_err();
        assert_eq!(e, "option `--name` is required: <name>");
        let e = parse(&["a", "b", "--name", "x"]).unwrap_err();
        assert_eq!(e, "usage: imcf demo <file> (found 2 positional args)");
        assert!(parse(&["--name", "x"]).unwrap_err().contains("found 0"));
    }

    #[test]
    fn refuses_values_outside_their_domain_in_one_format() {
        let e = parse(&["f", "--name", "x", "--months", "13"]).unwrap_err();
        assert_eq!(e, "`--months` expects an integer in 1..=12, found `13`");
        let e = parse(&["f", "--name", "x", "--seed", "abc"]).unwrap_err();
        assert_eq!(e, "`--seed` expects an integer >= 0, found `abc`");
        for bad in ["NaN", "inf", "-inf", "infinity", "1.5", "-0.1"] {
            let e = parse(&["f", "--name", "x", "--rate", bad]).unwrap_err();
            let wanted = format!("`--rate` expects a finite number in 0..=1, found `{bad}`");
            assert_eq!(e, wanted);
        }
        let p = parse(&["f", "--name", "x", "--rate", "1"]).unwrap();
        assert_eq!(p.maybe::<f64>("rate"), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "`--nope` is read in a way its command's table does not declare")]
    fn reading_an_undeclared_option_is_a_bug_in_the_command() {
        parse(&["f", "--name", "x"]).unwrap().maybe_text("nope");
    }

    #[test]
    fn help_is_asked_for_anywhere_but_in_a_value() {
        assert!(SPEC.parse(&argv(&["--help"])).unwrap().is_none());
        assert!(SPEC
            .parse(&argv(&["f", "--seed", "1", "--help"]))
            .unwrap()
            .is_none());
        let p = parse(&["f", "--name", "--help"]).unwrap();
        assert_eq!(p.text("name"), "--help");
    }

    #[test]
    fn domains_read_as_help_prints_them() {
        let cases: [(Kind, &str); 8] = [
            (Int(0, 23), "an integer in 0..=23"),
            (Int(1, u64::MAX), "an integer >= 1"),
            (Float(f64::NEG_INFINITY, f64::INFINITY), "a finite number"),
            (Float(0.0, f64::INFINITY), "a finite number >= 0"),
            (FloatBelow(0.0, 100.0), "a finite number in 0..100"),
            (Flag, "one of true|false|1|0"),
            (Text("path"), "<path>"),
            (Choice(&["a", "b"]), "one of a|b"),
        ];
        for (kind, wanted) in cases {
            assert_eq!(kind.domain(), wanted);
        }
        assert!(FloatBelow(0.0, 100.0).admits("99.9"));
        assert!(!FloatBelow(0.0, 100.0).admits("100"));
    }

    /// A value of `kind` just outside its domain on each side, where it
    /// has one: every one of them must be refused.
    fn outside(kind: Kind) -> Vec<String> {
        let below_int = |lo: u64| lo.checked_sub(1).map_or("-1".into(), |n| n.to_string());
        let above_int = |hi: u64| {
            hi.checked_add(1)
                .map_or("18446744073709551616".into(), |n| n.to_string())
        };
        match kind {
            Int(lo, hi) => vec![below_int(lo), above_int(hi)],
            Float(lo, hi) => vec![
                format!("{:e}", lo.next_down()),
                format!("{:e}", hi.next_up()),
            ],
            FloatBelow(lo, hi) => vec![format!("{:e}", lo.next_down()), format!("{hi:e}")],
            Flag => vec!["yes".into()],
            Choice(_) => vec!["none-of-these".into()],
            Text(_) => vec![],
        }
    }

    /// The arguments every command needs before an option can be probed:
    /// one word per positional, and an in-domain value per required option.
    fn needed(command: &Command) -> Vec<String> {
        let mut out: Vec<String> = command.positional().map(|_| "x".to_string()).collect();
        for opt in command.options() {
            if let Absent::Required = opt.absent {
                let value = match opt.kind {
                    Choice(names) => names[0],
                    _ => "x",
                };
                out.extend([format!("--{}", opt.name), value.to_string()]);
            }
        }
        out
    }

    /// Walks every command's table: `--help` works and shows each option's
    /// domain and default, the defaults lie in their domains, and every
    /// number just outside its domain (and every flag given `yes`) is
    /// refused with a message naming the flag, the domain and the value.
    #[test]
    fn every_command_table_checks_and_documents_each_option() {
        for (command, _) in crate::COMMANDS.iter().chain(&crate::HIDDEN) {
            assert!(command.parse(&argv(&["--help"])).unwrap().is_none());
            let help = command.help();
            let needed = needed(command);
            let defaults = command.parse(&needed);
            assert!(
                matches!(defaults, Ok(Some(_))),
                "{}: {defaults:?}",
                command.usage
            );
            for opt in command.options() {
                let domain = opt.kind.domain();
                let line = help
                    .lines()
                    .find(|l| l.trim_start().starts_with(&format!("--{} ", opt.name)));
                let line = line.unwrap_or_else(|| panic!("{}: no --{}", command.usage, opt.name));
                assert!(line.contains(&domain), "{line}");
                match opt.absent {
                    Absent::Required => assert!(line.contains("(required)"), "{line}"),
                    Absent::Default(v) => assert!(line.contains(&format!("(default {v})"))),
                    Absent::Unset(then) => assert!(line.contains(&format!("(default: {then})"))),
                }
                for value in outside(opt.kind) {
                    let mut args = needed.clone();
                    args.extend([format!("--{}", opt.name), value.clone()]);
                    let e = command.parse(&args).unwrap_err();
                    let wanted = format!("`--{}` expects {domain}, found `{value}`", opt.name);
                    assert_eq!(e, wanted, "{}", command.usage);
                }
            }
        }
    }
}

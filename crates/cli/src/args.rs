//! Dependency-free `--key value` argument parsing.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

/// Parsed command arguments: positional values plus `--key value` options.
#[derive(Debug, Default)]
pub struct Parsed {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
}

/// Declares what a command accepts and parses argv against it.
pub struct ArgSpec {
    /// Option names accepted (without the `--`).
    pub options: &'static [&'static str],
    /// Minimum positional argument count.
    pub min_positional: usize,
    /// Maximum positional argument count.
    pub max_positional: usize,
}

impl ArgSpec {
    /// Parses argv; rejects unknown options and bad arity.
    pub fn parse(&self, argv: &[String]) -> Result<Parsed, String> {
        let mut parsed = Parsed::default();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                if name == "help" {
                    return Err("help requested".to_string());
                }
                if !self.options.contains(&name) {
                    return Err(format!(
                        "unknown option `--{name}` (accepted: {:?})",
                        self.options
                    ));
                }
                let Some(value) = argv.get(i + 1) else {
                    return Err(format!("option `--{name}` needs a value"));
                };
                parsed.options.insert(name.to_string(), value.clone());
                i += 2;
            } else {
                parsed.positional.push(a.clone());
                i += 1;
            }
        }
        if parsed.positional.len() < self.min_positional {
            return Err(format!(
                "expected at least {} positional argument(s), found {}",
                self.min_positional,
                parsed.positional.len()
            ));
        }
        if parsed.positional.len() > self.max_positional {
            return Err(format!(
                "expected at most {} positional argument(s), found {}",
                self.max_positional,
                parsed.positional.len()
            ));
        }
        Ok(parsed)
    }
}

impl Parsed {
    /// The nth positional argument.
    pub fn positional(&self, n: usize) -> Option<&str> {
        self.positional.get(n).map(String::as_str)
    }

    /// A string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A finite numeric option with a default. `NaN` and `inf` parse as
    /// `f64` but are no temperature, rate or headroom.
    pub fn get_f64(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.options.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse::<f64>()
                .ok()
                .filter(|x| x.is_finite())
                .ok_or_else(|| format!("`--{name}` expects a finite number, found `{v}`")),
        }
    }

    /// An integer option with a default.
    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, String> {
        self.get_u64_in(name, default, 0..=u64::MAX)
    }

    /// An integer option with a default that must lie in `range`: a month,
    /// an hour of the day, or a count the planner asserts is non-zero.
    pub fn get_u64_in(
        &self,
        name: &str,
        default: u64,
        range: RangeInclusive<u64>,
    ) -> Result<u64, String> {
        let Some(v) = self.options.get(name) else {
            return Ok(default);
        };
        let value: u64 = v
            .parse()
            .map_err(|_| format!("`--{name}` expects an integer, found `{v}`"))?;
        if !range.contains(&value) {
            let (lo, hi) = (range.start(), range.end());
            let wanted = if *hi == u64::MAX {
                format!(">= {lo}")
            } else {
                format!("in {lo}..={hi}")
            };
            return Err(format!(
                "`--{name}` expects an integer {wanted}, found `{v}`"
            ));
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    const SPEC: ArgSpec = ArgSpec {
        options: &["seed", "months"],
        min_positional: 0,
        max_positional: 1,
    };

    #[test]
    fn parses_mixed_args() {
        let p = SPEC
            .parse(&argv(&["file.mrt", "--seed", "7", "--months", "3"]))
            .unwrap();
        assert_eq!(p.positional(0), Some("file.mrt"));
        assert_eq!(p.get_u64("seed", 0).unwrap(), 7);
        assert_eq!(p.get_u64("months", 12).unwrap(), 3);
        assert_eq!(p.get_u64("absent", 42).unwrap(), 42);
    }

    #[test]
    fn rejects_unknown_option() {
        let e = SPEC.parse(&argv(&["--nope", "1"])).unwrap_err();
        assert!(e.contains("unknown option"));
    }

    #[test]
    fn rejects_missing_value() {
        let e = SPEC.parse(&argv(&["--seed"])).unwrap_err();
        assert!(e.contains("needs a value"));
    }

    #[test]
    fn rejects_bad_arity() {
        let e = SPEC.parse(&argv(&["a", "b"])).unwrap_err();
        assert!(e.contains("at most 1"));
        let strict = ArgSpec {
            options: &[],
            min_positional: 1,
            max_positional: 1,
        };
        let e = strict.parse(&argv(&[])).unwrap_err();
        assert!(e.contains("at least 1"));
    }

    #[test]
    fn rejects_bad_number() {
        let p = SPEC.parse(&argv(&["--seed", "abc"])).unwrap();
        assert!(p.get_u64("seed", 0).is_err());
        assert!(p.get_f64("seed", 0.0).is_err());
    }

    #[test]
    fn ranged_integers_reject_values_outside_their_range() {
        let p = SPEC
            .parse(&argv(&["--months", "13", "--seed", "0"]))
            .unwrap();
        let e = p.get_u64_in("months", 1, 1..=12).unwrap_err();
        assert_eq!(e, "`--months` expects an integer in 1..=12, found `13`");
        let e = p.get_u64_in("seed", 1, 1..=u64::MAX).unwrap_err();
        assert_eq!(e, "`--seed` expects an integer >= 1, found `0`");
        assert_eq!(p.get_u64_in("seed", 1, 0..=23).unwrap(), 0);
        assert_eq!(p.get_u64_in("absent", 5, 1..=12).unwrap(), 5);
    }

    #[test]
    fn float_options_must_be_finite() {
        for bad in ["NaN", "inf", "-inf", "infinity"] {
            let p = SPEC.parse(&argv(&["--months", bad])).unwrap();
            let e = p.get_f64("months", 0.0).unwrap_err();
            assert!(e.contains("`--months` expects a finite number"), "{e}");
        }
        let p = SPEC.parse(&argv(&["--months", "-2.5"])).unwrap();
        assert_eq!(p.get_f64("months", 0.0).unwrap(), -2.5);
    }
}

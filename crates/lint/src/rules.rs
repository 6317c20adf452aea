//! The IMCF lint rules over the token stream.
//!
//! | Rule | Meaning |
//! |------|---------|
//! | IMCF-L001 | no `.unwrap()` / `.expect(...)` in non-test library code |
//! | IMCF-L002 | no ambient nondeterminism (`Instant::now`, `SystemTime::now`, `thread_rng`, `from_entropy`) in `crates/sim`, `crates/traces`, `crates/core` |
//! | IMCF-L003 | no float `==` / `!=` outside tests |
//! | IMCF-L004 | every dotted metric name passed to `counter*`/`gauge*`/`histogram*` must be in the `imcf-telemetry` catalog |
//! | IMCF-L005 | `unsafe` blocks need a `// SAFETY:` comment; `static mut` is forbidden |
//! | IMCF-L006 | lock-acquisition order must be globally consistent; no re-entrant double-locks (see [`crate::locks`]) |
//! | IMCF-L007 | no blocking calls (I/O, publish, sleep) while a lock guard is held |
//! | IMCF-L008 | no nondeterminism reachable from bench/export entry points (see [`crate::taint`]) |
//! | IMCF-L009 | `crates/net` + `crates/store`: parsed-length values need checked arithmetic and `try_into` |
//!
//! L001–L005 run over the token stream; L006–L009 run over the AST and
//! workspace call graph built by [`crate::parser`] / [`crate::callgraph`].
//!
//! Suppress a finding with a trailing or preceding
//! `// imcf-lint: allow(L00x)` comment. Doc comments (`///`, `//!`) never
//! suppress: they are part of the rendered API documentation, not lint
//! directives.

use crate::lexer::{lex, Comment, Lexed, Tok, Token};

/// The rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    L001,
    L002,
    L003,
    L004,
    L005,
    L006,
    L007,
    L008,
    L009,
}

/// All rules, in report order.
pub const ALL_RULES: [Rule; 9] = [
    Rule::L001,
    Rule::L002,
    Rule::L003,
    Rule::L004,
    Rule::L005,
    Rule::L006,
    Rule::L007,
    Rule::L008,
    Rule::L009,
];

impl Rule {
    /// The short code used in baselines and suppressions (`L001`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::L001 => "L001",
            Rule::L002 => "L002",
            Rule::L003 => "L003",
            Rule::L004 => "L004",
            Rule::L005 => "L005",
            Rule::L006 => "L006",
            Rule::L007 => "L007",
            Rule::L008 => "L008",
            Rule::L009 => "L009",
        }
    }

    /// Parses a short code.
    pub fn from_code(code: &str) -> Option<Rule> {
        ALL_RULES.into_iter().find(|r| r.code() == code)
    }

    /// One-line description used in reports.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::L001 => "`unwrap()`/`expect()` in non-test library code",
            Rule::L002 => "ambient nondeterminism in deterministic crate (inject a clock or use imcf-telemetry)",
            Rule::L003 => "float `==`/`!=` comparison (use an epsilon helper)",
            Rule::L004 => "metric name missing from the imcf-telemetry catalog",
            Rule::L005 => "unsafe without `// SAFETY:` comment, or `static mut`",
            Rule::L006 => "inconsistent lock-acquisition order or re-entrant double-lock",
            Rule::L007 => "blocking call while holding a lock guard (drop the guard first)",
            Rule::L008 => "nondeterminism reachable from a deterministic entry point",
            Rule::L009 => "unchecked arithmetic or narrowing cast on a wire-derived length",
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    pub line: u32,
    pub message: String,
}

/// Crates whose planning/replay code must stay deterministic (L002).
const DETERMINISTIC_PATHS: [&str; 3] = ["crates/sim/", "crates/traces/", "crates/core/"];

/// Method names whose first string argument is a metric name (L004).
const METRIC_METHODS: [&str; 7] = [
    "counter",
    "counter_with",
    "gauge",
    "gauge_with",
    "histogram",
    "histogram_with",
    "histogram_with_buckets",
];

/// Lints one file's source. `rel_path` is the workspace-relative path with
/// forward slashes; it decides rule applicability (L002 crates, test dirs).
pub fn lint_source(rel_path: &str, source: &str, findings: &mut Vec<Finding>) {
    let lexed = lex(source);
    lint_tokens(rel_path, &lexed, findings);
}

/// Runs the token-stream rules (L001–L005) over an already-lexed file, so
/// the workspace driver can share one lex with the parser.
pub fn lint_tokens(rel_path: &str, lexed: &Lexed, findings: &mut Vec<Finding>) {
    let file_is_test = is_test_path(rel_path);
    let test_marker = test_region_marker(&lexed.tokens);
    let deterministic = DETERMINISTIC_PATHS.iter().any(|p| rel_path.starts_with(p));

    let toks = &lexed.tokens;
    let mut reported_l005_static: Option<u32> = None;
    for i in 0..toks.len() {
        let line = toks[i].line;
        let in_test = file_is_test || test_marker[i];
        let mut push = |rule: Rule, message: String| {
            if !suppressed(&lexed.comments, rule, line) {
                findings.push(Finding {
                    rule,
                    file: rel_path.to_string(),
                    line,
                    message,
                });
            }
        };

        // L001: `.unwrap()` / `.expect(`
        if !in_test
            && toks[i].tok == Tok::Punct(".")
            && matches!(&toks.get(i + 1).map(|t| &t.tok), Some(Tok::Ident(name)) if name == "unwrap" || name == "expect")
            && toks.get(i + 2).map(|t| &t.tok) == Some(&Tok::Punct("("))
        {
            let name = match &toks[i + 1].tok {
                Tok::Ident(n) => n.as_str(),
                _ => "",
            };
            push(Rule::L001, format!("`.{name}()` in library code"));
        }

        // L002: ambient nondeterminism in deterministic crates.
        if deterministic && !in_test {
            if let Tok::Ident(name) = &toks[i].tok {
                let qualified_now = (name == "Instant" || name == "SystemTime")
                    && toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct("::"))
                    && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Ident(m)) if m == "now");
                let entropy_fn = name == "thread_rng" || name == "from_entropy";
                if qualified_now {
                    push(Rule::L002, format!("`{name}::now` in deterministic crate"));
                } else if entropy_fn && toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct("(")) {
                    push(
                        Rule::L002,
                        format!("`{name}()` (ambient randomness) in deterministic crate"),
                    );
                }
            }
        }

        // L003: float equality.
        if !in_test && matches!(toks[i].tok, Tok::Punct("==") | Tok::Punct("!=")) {
            let float_adjacent =
                matches!(
                    i.checked_sub(1).and_then(|p| toks.get(p)).map(|t| &t.tok),
                    Some(Tok::Float(_))
                ) || matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Float(_)));
            if float_adjacent {
                let op = match toks[i].tok {
                    Tok::Punct(p) => p,
                    _ => "==",
                };
                push(Rule::L003, format!("float `{op}` against a literal"));
            }
        }

        // L004: metric names must be cataloged. Method call: counter("a.b" ...
        if !in_test {
            if let (Tok::Ident(name), Some(Tok::Punct("(")), Some(Tok::Str(metric))) = (
                &toks[i].tok,
                toks.get(i + 1).map(|t| &t.tok),
                toks.get(i + 2).map(|t| &t.tok),
            ) {
                if METRIC_METHODS.contains(&name.as_str())
                    && metric.contains('.')
                    && !imcf_telemetry::catalog::is_cataloged(metric)
                {
                    push(
                        Rule::L004,
                        format!(
                            "metric `{metric}` is not in the imcf-telemetry catalog \
                             (crates/telemetry/src/catalog.rs)"
                        ),
                    );
                }
            }
        }

        // L005: unsafe blocks need SAFETY comments; static mut forbidden.
        if let Tok::Ident(name) = &toks[i].tok {
            if name == "unsafe" && toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct("{")) {
                let documented = lexed.comments.iter().any(|c| {
                    c.text.contains("SAFETY:") && c.end_line + 3 >= line && c.line <= line
                });
                if !documented {
                    push(
                        Rule::L005,
                        "`unsafe` block without a `// SAFETY:` comment".to_string(),
                    );
                }
            }
            if name == "static"
                && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Ident(m)) if m == "mut")
                && reported_l005_static != Some(line)
            {
                reported_l005_static = Some(line);
                push(Rule::L005, "`static mut` is forbidden".to_string());
            }
        }
    }
}

/// True for paths whose whole content is test/bench/example code.
fn is_test_path(rel_path: &str) -> bool {
    rel_path
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

/// Per-token flags marking `#[cfg(test)]` / `#[test]` items: the attribute
/// itself through the end of the braced item it gates (or its trailing `;`).
fn test_region_marker(tokens: &[Token]) -> Vec<bool> {
    let mut marker = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].tok == Tok::Punct("#")
            && tokens.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct("["))
        {
            // Collect the attribute's tokens up to the matching `]`.
            let attr_start = i + 2;
            let mut depth = 1usize;
            let mut j = attr_start;
            while j < tokens.len() && depth > 0 {
                match tokens[j].tok {
                    Tok::Punct("[") => depth += 1,
                    Tok::Punct("]") => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            let attr = &tokens[attr_start..j.saturating_sub(1)];
            if attr_is_testish(attr) {
                // Mark from the attribute through the end of the next
                // braced item (or to the `;` for `mod x;`).
                let mut k = j;
                let mut brace_depth = 0usize;
                let mut entered = false;
                while k < tokens.len() {
                    match tokens[k].tok {
                        Tok::Punct("{") => {
                            brace_depth += 1;
                            entered = true;
                        }
                        Tok::Punct("}") => {
                            brace_depth = brace_depth.saturating_sub(1);
                            if entered && brace_depth == 0 {
                                break;
                            }
                        }
                        Tok::Punct(";") if !entered => break,
                        _ => {}
                    }
                    k += 1;
                }
                let end = k.min(tokens.len().saturating_sub(1));
                for flag in &mut marker[i..=end] {
                    *flag = true;
                }
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    marker
}

/// `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, ...))]` — but NOT
/// `#[cfg(not(test))]`.
fn attr_is_testish(attr: &[Token]) -> bool {
    let mut has_test = false;
    let mut has_not = false;
    for t in attr {
        if let Tok::Ident(name) = &t.tok {
            if name == "test" {
                has_test = true;
            }
            if name == "not" {
                has_not = true;
            }
        }
    }
    has_test && !has_not
}

/// Does a suppression comment cover `rule` on `line`? Both trailing
/// (same line) and preceding (previous line) comments count. Doc comments
/// never suppress — an `allow(...)` in rendered documentation is prose
/// about the lint, not a directive to it. (The lexer keeps string-literal
/// contents out of the comment list entirely, so an `allow(...)` inside a
/// string can't suppress either.)
pub fn suppressed(comments: &[Comment], rule: Rule, line: u32) -> bool {
    comments.iter().any(|c| {
        !c.is_doc
            && (c.line == line || c.end_line + 1 == line)
            && parse_allows(&c.text).contains(&rule)
    })
}

/// Parses `imcf-lint: allow(L001, L003)` out of a comment.
fn parse_allows(comment: &str) -> Vec<Rule> {
    let Some(idx) = comment.find("imcf-lint:") else {
        return Vec::new();
    };
    let rest = &comment[idx + "imcf-lint:".len()..];
    let Some(open) = rest.find("allow(") else {
        return Vec::new();
    };
    let inner = &rest[open + "allow(".len()..];
    let Some(close) = inner.find(')') else {
        return Vec::new();
    };
    inner[..close]
        .split(',')
        .filter_map(|code| Rule::from_code(code.trim()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_for(path: &str, src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        lint_source(path, src, &mut out);
        out
    }

    fn rules_of(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn l001_fires_on_unwrap_and_expect() {
        let f = findings_for(
            "crates/x/src/lib.rs",
            "fn f() { a.unwrap(); b.expect(\"msg\"); }",
        );
        assert_eq!(rules_of(&f), vec![Rule::L001, Rule::L001]);
    }

    #[test]
    fn l001_ignores_test_module_and_test_files() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n fn f() { a.unwrap(); }\n}\n";
        assert!(findings_for("crates/x/src/lib.rs", src).is_empty());
        assert!(findings_for("crates/x/tests/t.rs", "fn f() { a.unwrap(); }").is_empty());
        assert!(findings_for("examples/e.rs", "fn f() { a.unwrap(); }").is_empty());
    }

    #[test]
    fn l001_respects_test_fn_attribute_only_for_that_fn() {
        let src = "#[test]\nfn t() { a.unwrap(); }\nfn lib() { b.unwrap(); }\n";
        let f = findings_for("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn cfg_not_test_is_still_linted() {
        let src = "#[cfg(not(test))]\nfn f() { a.unwrap(); }\n";
        assert_eq!(findings_for("crates/x/src/lib.rs", src).len(), 1);
    }

    #[test]
    fn l002_only_in_deterministic_crates() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(
            rules_of(&findings_for("crates/core/src/planner.rs", src)),
            vec![Rule::L002]
        );
        assert!(findings_for("crates/controller/src/api.rs", src).is_empty());
        let src = "fn f() { let mut r = thread_rng(); }";
        assert_eq!(
            rules_of(&findings_for("crates/sim/src/engine.rs", src)),
            vec![Rule::L002]
        );
    }

    #[test]
    fn l003_fires_on_float_literal_equality() {
        let f = findings_for(
            "crates/x/src/lib.rs",
            "fn f(v: f64) -> bool { v == 0.0 || 1.5 != v }",
        );
        assert_eq!(rules_of(&f), vec![Rule::L003, Rule::L003]);
        // Integer equality is fine.
        assert!(findings_for("crates/x/src/lib.rs", "fn f(v: u64) -> bool { v == 0 }").is_empty());
    }

    #[test]
    fn l004_uncataloged_metric_name() {
        let f = findings_for(
            "crates/x/src/lib.rs",
            "fn f(r: &Registry) { r.counter(\"zzz.not_in_catalog\").inc(); }",
        );
        assert_eq!(rules_of(&f), vec![Rule::L004]);
        // Cataloged names pass.
        let f = findings_for(
            "crates/x/src/lib.rs",
            "fn f(r: &Registry) { r.counter(\"planner.slots_planned\").inc(); }",
        );
        assert!(f.is_empty(), "{f:?}");
        // Histograms, the wall-clock timers' sink, are checked too.
        let f = findings_for(
            "crates/x/src/lib.rs",
            "fn f(r: &Registry) { r.histogram(\"zzz.rogue_micros\").observe(1.0); }",
        );
        assert_eq!(rules_of(&f), vec![Rule::L004]);
    }

    #[test]
    fn l004_ignores_undotted_names_and_non_literal_args() {
        assert!(findings_for("crates/x/src/lib.rs", "r.counter(\"plain\");").is_empty());
        assert!(findings_for("crates/x/src/lib.rs", "r.counter(name);").is_empty());
    }

    #[test]
    fn l005_unsafe_needs_safety_comment() {
        let bad = "fn f() { unsafe { танец() } }";
        assert_eq!(
            rules_of(&findings_for("crates/x/src/lib.rs", bad)),
            vec![Rule::L005]
        );
        let good = "fn f() {\n    // SAFETY: the pointer outlives the call.\n    unsafe { g() }\n}";
        assert!(findings_for("crates/x/src/lib.rs", good).is_empty());
    }

    #[test]
    fn l005_static_mut_forbidden_even_with_safety() {
        let src = "// SAFETY: single-threaded\nstatic mut X: u32 = 0;";
        assert_eq!(
            rules_of(&findings_for("crates/x/src/lib.rs", src)),
            vec![Rule::L005]
        );
    }

    #[test]
    fn suppressions_cover_trailing_and_preceding_comments() {
        let trailing = "fn f() { a.unwrap(); } // imcf-lint: allow(L001) — infallible here";
        assert!(findings_for("crates/x/src/lib.rs", trailing).is_empty());
        let preceding =
            "// imcf-lint: allow(L003) — exact-zero guard\nfn f(v: f64) -> bool { v == 0.0 }";
        assert!(findings_for("crates/x/src/lib.rs", preceding).is_empty());
        // A suppression for a different rule does not hide the finding.
        let wrong = "fn f() { a.unwrap(); } // imcf-lint: allow(L003)";
        assert_eq!(findings_for("crates/x/src/lib.rs", wrong).len(), 1);
    }

    #[test]
    fn suppression_list_parses_multiple_rules() {
        assert_eq!(
            parse_allows("// imcf-lint: allow(L001, L003)"),
            vec![Rule::L001, Rule::L003]
        );
        assert!(parse_allows("// nothing to see").is_empty());
    }

    #[test]
    fn string_and_comment_contents_never_fire() {
        let src = "fn f() { let s = \"a.unwrap()\"; /* b.unwrap() */ }";
        assert!(findings_for("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn suppression_inside_string_literal_does_not_suppress() {
        let src = "fn f() { let s = \"// imcf-lint: allow(L001)\"; a.unwrap(); }";
        assert_eq!(findings_for("crates/x/src/lib.rs", src).len(), 1);
    }

    #[test]
    fn suppression_in_doc_comment_does_not_suppress() {
        // A doc comment directly above the finding would count as a
        // preceding comment if doc comments could suppress.
        let src = "/// imcf-lint: allow(L001) — documented, not directed\nfn f() { a.unwrap(); }";
        assert_eq!(findings_for("crates/x/src/lib.rs", src).len(), 1);
        // The same text in a plain comment does suppress.
        let src = "// imcf-lint: allow(L001) — infallible\nfn f() { a.unwrap(); }";
        assert!(findings_for("crates/x/src/lib.rs", src).is_empty());
    }
}

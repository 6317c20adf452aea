//! The `imcf-lint` command-line driver.
//!
//! ```text
//! cargo run -p imcf-lint -- --check              # CI gate: fail above baseline
//! cargo run -p imcf-lint -- --format json        # machine-readable findings
//! cargo run -p imcf-lint -- --jobs 4             # parallel lex/parse/lint
//! cargo run -p imcf-lint -- --write-baseline     # ratchet lint-baseline.toml DOWN
//! ```
//!
//! With no flags the tool prints findings and the per-rule summary without
//! failing, which is the ergonomic form while burning a baseline down.
//! `--write-baseline` only ever lowers counts: if any rule currently has
//! more findings than the checked-in baseline allows, it refuses — fix the
//! findings or add a justified `// imcf-lint: allow(L00x)` instead.

use imcf_lint::baseline::Baseline;
use imcf_lint::{lint_workspace_jobs, workspace};
use std::process::ExitCode;

struct Options {
    check: bool,
    json: bool,
    write_baseline: bool,
    jobs: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        check: false,
        json: false,
        write_baseline: false,
        jobs: None,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--check" => opts.check = true,
            // Back-compat alias for `--format json`.
            "--json" => opts.json = true,
            "--format" => {
                i += 1;
                match argv.get(i).map(String::as_str) {
                    Some("json") => opts.json = true,
                    Some("text") => opts.json = false,
                    other => {
                        return Err(format!(
                            "--format expects `text` or `json`, got {:?}",
                            other.unwrap_or("<missing>")
                        ))
                    }
                }
            }
            "--jobs" => {
                i += 1;
                opts.jobs = Some(imcf_pool::parse_jobs(argv.get(i).map(String::as_str))?);
            }
            "--write-baseline" => opts.write_baseline = true,
            "--help" | "-h" => {
                return Err(String::from(
                    "usage: imcf-lint [--check] [--format text|json] [--jobs N] [--write-baseline]\n\
                     \n\
                     --check            exit 1 when any rule exceeds lint-baseline.toml\n\
                     --format json      print findings and counts as JSON (alias: --json)\n\
                     --jobs N           lex/parse/lint files across N threads\n\
                     --write-baseline   ratchet lint-baseline.toml down to current counts;\n\
                     \u{20}                  refuses to raise any count",
                ));
            }
            other => {
                if let Some(v) = other.strip_prefix("--jobs=") {
                    opts.jobs = Some(imcf_pool::parse_jobs(Some(v))?);
                } else {
                    return Err(format!("unknown flag `{other}` (try --help)"));
                }
            }
        }
        i += 1;
    }
    Ok(opts)
}

fn run() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&argv)?;
    let jobs = opts.jobs.unwrap_or_else(imcf_pool::available_jobs);

    // `cargo run -p imcf-lint` keeps the invoker's cwd, which in CI and in
    // normal use is somewhere inside the workspace; walk up from there.
    let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    let root = workspace::find_root(&cwd)?;
    let report = lint_workspace_jobs(&root, jobs)?;
    let baseline = Baseline::load(&root)?;

    if opts.write_baseline {
        let counts = report.counts();
        // The baseline is a ratchet: this flag records progress, it does
        // not grant amnesty. Any regression has to be fixed or explicitly
        // suppressed at the finding site.
        let raised: Vec<String> = counts
            .iter()
            .filter(|(rule, n)| **n > baseline.allowed(**rule))
            .map(|(rule, n)| format!("{} {} -> {n}", rule.code(), baseline.allowed(*rule)))
            .collect();
        if !raised.is_empty() {
            return Err(format!(
                "--write-baseline refuses to raise counts ({}); fix the findings or add a\n\
                 justified `// imcf-lint: allow(L00x)` at the site",
                raised.join(", ")
            ));
        }
        let updated = Baseline { counts };
        updated.store(&root)?;
        println!(
            "lint-baseline.toml updated: {}",
            updated
                .counts
                .iter()
                .map(|(r, n)| format!("{} = {n}", r.code()))
                .collect::<Vec<_>>()
                .join(", ")
        );
        return Ok(true);
    }

    if opts.json {
        print!("{}", report.render_json(&baseline));
    } else {
        print!("{}", report.render_text(&baseline));
    }

    let over = report.over_baseline(&baseline);
    if opts.check && !over.is_empty() {
        for (rule, actual, allowed) in &over {
            eprintln!(
                "imcf-lint: IMCF-{} has {actual} finding(s), baseline allows {allowed}",
                rule.code()
            );
        }
        eprintln!(
            "imcf-lint: fix the findings above or (for a deliberate exception) add an\n\
             `// imcf-lint: allow(L00x)` comment with a justification; the baseline\n\
             only ratchets down."
        );
        return Ok(false);
    }
    Ok(true)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

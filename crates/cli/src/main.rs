//! `imcf` — the command-line interface to the IoT Meta-Control Firewall.
//!
//! `imcf --help` lists every command with each option's domain and
//! default, and `imcf <command> --help` shows one command. Both are
//! rendered from the option tables ([`args::Command`]) that argv is parsed
//! and checked against, dependency-free, before a command runs.

mod args;
mod commands;
mod crash_commands;
mod net_commands;
mod obs_commands;

use args::Kind::Text;
use args::{opt, Command, Opt, Parsed};
use serde::Serialize;
use std::path::PathBuf;
use std::process::ExitCode;

/// A command's entry point, given its parsed arguments.
type Run = fn(&Parsed) -> Result<(), String>;

/// Every public command, in `imcf --help` order. The first that selects
/// argv runs, so `chaos --crash` comes before `chaos`.
const COMMANDS: [(&Command, Run); 13] = [
    (&commands::VALIDATE, commands::validate),
    (&commands::PLAN, commands::plan),
    (&commands::SIMULATE, commands::simulate),
    (&commands::ECP, commands::ecp),
    (&commands::WORKFLOW, commands::workflow),
    (&commands::SCHEDULE, commands::schedule),
    (&crash_commands::CRASH, crash_commands::crash_soak),
    (&commands::CHAOS, commands::chaos),
    (&commands::TRACE_EXPLAIN, commands::trace_explain),
    (&net_commands::SERVE, net_commands::serve),
    (&net_commands::LOADGEN, net_commands::loadgen),
    (&obs_commands::TOP, obs_commands::top),
    (&obs_commands::DOCTOR, obs_commands::doctor),
];

/// The crash soak's child incarnation, which `chaos --crash` respawns
/// itself through; `imcf --help` leaves it out.
const HIDDEN: [(&Command, Run); 1] = [(&crash_commands::CHILD, crash_commands::crash_child)];

/// The global option, accepted anywhere in argv.
const TELEMETRY: Opt = opt("telemetry", Text("path")).unset("no snapshot is written");

/// `imcf --help`: every public command's table, then the global option.
fn usage() -> String {
    let commands: Vec<String> = COMMANDS.iter().map(|(c, _)| c.help()).collect();
    format!(
        "imcf — the IoT Meta-Control Firewall\n\nUSAGE:\n{}\nGLOBAL OPTIONS:\n      {}",
        commands.join("\n"),
        TELEMETRY.help()
    )
}

fn main() -> ExitCode {
    // Piping output into `head` closes stdout early; exit quietly (the
    // shell convention is status 141) instead of panicking.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let broken_pipe = info
            .payload()
            .downcast_ref::<String>()
            .map(|m| m.contains("Broken pipe"))
            .unwrap_or(false);
        if broken_pipe {
            std::process::exit(141);
        }
        default_hook(info);
    }));

    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let telemetry_path = match extract_telemetry_flag(&mut argv) {
        Ok(path) => path,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    if argv.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    let result = run(&argv);
    if let Some(path) = &telemetry_path {
        if let Err(e) = dump_telemetry(path) {
            eprintln!("error: cannot write telemetry snapshot to `{path}`: {e}");
            return ExitCode::FAILURE;
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `argv`, command words first. `imcf --help` prints the usage; a
/// command's arguments are parsed against its table, and then either the
/// command runs or, for `--help`, its table is printed.
fn run(argv: &[String]) -> Result<(), String> {
    if matches!(argv[0].as_str(), "--help" | "-h" | "help") {
        println!("{}", usage());
        return Ok(());
    }
    let Some((command, entry, rest)) = select(argv) else {
        return Err(format!("unknown command `{}`\n\n{}", argv[0], usage()));
    };
    let Some(parsed) = command.parse(&rest)? else {
        println!("USAGE:\n{}", command.help());
        return Ok(());
    };
    entry(&parsed)
}

/// The entry point `argv` selects, with the arguments left for it.
fn select(argv: &[String]) -> Option<(&'static Command, Run, Vec<String>)> {
    let mut commands = COMMANDS.iter().chain(&HIDDEN);
    commands.find_map(|&(command, entry)| Some((command, entry, command.select(argv)?)))
}

/// Writes `value` as JSON to `path`, a report's path option, or, when that
/// is unset, to `file` in `$IMCF_OUT` (else in `target/experiments`).
fn write_report(path: Option<&str>, file: &str, value: &impl Serialize) -> Result<PathBuf, String> {
    let dir = std::env::var("IMCF_OUT").unwrap_or_else(|_| "target/experiments".into());
    let path = path.map_or(PathBuf::from(dir).join(file), PathBuf::from);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    }
    let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    Ok(path)
}

/// Removes the global `--telemetry <path>` option from argv (it may appear
/// anywhere) and returns the path, if given.
fn extract_telemetry_flag(argv: &mut Vec<String>) -> Result<Option<String>, String> {
    let flag = format!("--{}", TELEMETRY.name);
    let Some(i) = argv.iter().position(|a| *a == flag) else {
        return Ok(None);
    };
    if i + 1 >= argv.len() {
        return Err(format!("option `{flag}` needs a value"));
    }
    let path = argv.remove(i + 1);
    argv.remove(i);
    Ok(Some(path))
}

/// Writes the global registry's JSON snapshot (`{"metrics": [...]}`).
fn dump_telemetry(path: &str) -> std::io::Result<()> {
    std::fs::write(path, imcf_telemetry::global().json_snapshot_string())
}

#[cfg(test)]
mod tests {
    /// Runs `imcf <items>` in-process, as the binary would after taking
    /// out `--telemetry`.
    pub(crate) fn imcf(items: &[&str]) -> Result<(), String> {
        let argv: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        super::run(&argv)
    }

    /// README.md quotes `imcf plan --help`; it must be what the table prints.
    #[test]
    fn readme_quotes_the_generated_plan_help() {
        let readme = include_str!("../../../README.md");
        let help = format!("USAGE:\n{}", super::commands::PLAN.help());
        assert!(readme.contains(&help), "README.md no longer shows:\n{help}");
    }

    /// Every `imcf …` command line in README.md's shell blocks parses
    /// against its command's table; nothing runs.
    #[test]
    fn every_readme_command_line_parses() {
        let readme = include_str!("../../../README.md");
        let mut in_sh = false;
        let mut lines = Vec::new();
        let mut pending = String::new();
        for line in readme.lines() {
            if let Some(language) = line.strip_prefix("```") {
                in_sh = language == "sh";
                continue;
            }
            let line = line.trim();
            if !in_sh || (pending.is_empty() && !line.starts_with("imcf ")) {
                continue;
            }
            let code = line.split(" #").next().unwrap_or(line);
            match code.strip_suffix('\\') {
                Some(head) => pending.push_str(head),
                None => lines.push(std::mem::take(&mut pending) + code),
            }
        }
        assert!(lines.len() >= 15, "{lines:#?}");
        for line in lines {
            let mut argv: Vec<String> = line.split_whitespace().skip(1).map(String::from).collect();
            super::extract_telemetry_flag(&mut argv).unwrap();
            if argv == ["--help"] {
                continue;
            }
            let selected = super::select(&argv);
            let (command, _, rest) = selected.unwrap_or_else(|| panic!("no command: {line}"));
            let parsed = command.parse(&rest);
            assert!(matches!(parsed, Ok(Some(_))), "{line}: {parsed:?}");
        }
    }
}

//! Command-line option parsing shared by the `hetsep` binary.
//!
//! One flag table, one parser, one [`Options`] struct: every subcommand
//! declares which flags it accepts (a [`Command`] row in [`COMMANDS`]), and
//! the parser enforces membership — a flag that exists but belongs to a
//! different subcommand produces a pointed error instead of being silently
//! swallowed. `--help`/`-h` on any subcommand renders that command's usage
//! from the same table, so help text cannot drift from what the parser
//! accepts.
//!
//! The module is plain hand-rolled parsing (the workspace builds offline,
//! without clap); it lives in the library so integration tests can parse
//! exactly what the binary parses.

/// Parsed command-line options (the union over all subcommands; each
/// subcommand reads only the fields its flags populate).
#[derive(Debug, Clone)]
pub struct Options {
    /// Positional `<program>` path.
    pub program_path: String,
    /// `--spec <file>`.
    pub spec_path: Option<String>,
    /// `--strategy <file>`.
    pub strategy_path: Option<String>,
    /// `--mode <label>` (`auto` defers to strategy presence).
    pub mode: String,
    /// `--no-hetero` clears this.
    pub heterogeneous: bool,
    /// `--max-visits N`.
    pub max_visits: u64,
    /// `--metrics`.
    pub metrics: bool,
    /// `--trace <path>`.
    pub trace_path: Option<String>,
    /// `--quiet` / `-q`.
    pub quiet: bool,
    /// `--line N` (heap).
    pub line: Option<u32>,
    /// `--dot` (heap).
    pub dot: bool,
    /// `--preanalysis`.
    pub preanalysis: bool,
    /// `--no-transfer-cache` (serve) clears this.
    pub transfer_cache: bool,
    /// `--format text|json`.
    pub format: String,
    /// `--deny warnings`.
    pub deny_warnings: bool,
    /// `--suite` (lint).
    pub suite: bool,
    /// `--jobs N` (corpus).
    pub jobs: usize,
    /// `--seed S` (corpus).
    pub seed: u64,
    /// `--workers W` (corpus).
    pub workers: usize,
    /// `--cache <path>` (corpus, serve).
    pub cache_path: Option<String>,
    /// `--json <path>` (corpus).
    pub json_path: Option<String>,
    /// `--socket <path>` (serve).
    pub socket_path: Option<String>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            program_path: String::new(),
            spec_path: None,
            strategy_path: None,
            mode: "auto".into(),
            heterogeneous: true,
            max_visits: 2_000_000,
            metrics: false,
            trace_path: None,
            quiet: false,
            line: None,
            dot: false,
            preanalysis: false,
            transfer_cache: crate::EngineConfig::default().transfer_cache,
            format: "text".into(),
            deny_warnings: false,
            suite: false,
            jobs: 1000,
            seed: 42,
            workers: 1,
            cache_path: None,
            json_path: None,
            socket_path: None,
        }
    }
}

/// One flag: name, value placeholder (`None` for booleans), help text.
struct FlagSpec {
    name: &'static str,
    value: Option<&'static str>,
    help: &'static str,
}

const FLAG_SPECS: &[FlagSpec] = &[
    FlagSpec { name: "--spec", value: Some("<file>"), help: "Easl spec file (default: built-in named by the program's `uses`)" },
    FlagSpec { name: "--strategy", value: Some("<file>"), help: "separation strategy file" },
    FlagSpec { name: "--mode", value: Some("<label>"), help: "vanilla|single|sep|multi|sim|inc (default: auto)" },
    FlagSpec { name: "--no-hetero", value: None, help: "disable heterogeneous abstraction (ablation)" },
    FlagSpec { name: "--max-visits", value: Some("N"), help: "per-run action-application budget (default 2000000)" },
    FlagSpec { name: "--preanalysis", value: None, help: "enable the sound subproblem-pruning pre-pass" },
    FlagSpec { name: "--metrics", value: None, help: "print per-phase timings and counters to stderr" },
    FlagSpec { name: "--no-transfer-cache", value: None, help: "do not probe or record the daemon's transfer store" },
    FlagSpec { name: "--trace", value: Some("<path>"), help: "write the per-subproblem NDJSON trace to <path>" },
    FlagSpec { name: "--quiet", value: None, help: "suppress the stderr summary (-q)" },
    FlagSpec { name: "--format", value: Some("text|json"), help: "diagnostic output format (default text)" },
    FlagSpec { name: "--deny", value: Some("warnings"), help: "exit non-zero when warnings are reported" },
    FlagSpec { name: "--suite", value: None, help: "lint every bundled Table 3 benchmark instead of a file" },
    FlagSpec { name: "--line", value: Some("N"), help: "source line whose abstract heaps to show" },
    FlagSpec { name: "--dot", value: None, help: "render heaps as Graphviz dot instead of text" },
    FlagSpec { name: "--jobs", value: Some("N"), help: "corpus size (default 1000)" },
    FlagSpec { name: "--seed", value: Some("S"), help: "corpus generator seed (default 42)" },
    FlagSpec { name: "--workers", value: Some("W"), help: "outer worker-pool threads (default 1)" },
    FlagSpec { name: "--cache", value: Some("<path>"), help: "persist the cross-job transfer cache at <path>" },
    FlagSpec { name: "--json", value: Some("<path>"), help: "write per-job outcome rows to <path>" },
    FlagSpec { name: "--socket", value: Some("<path>"), help: "serve on a unix socket instead of stdin/stdout" },
];

/// One subcommand: its name, one-line summary, positional argument, and the
/// flags it accepts.
pub struct Command {
    /// Subcommand name (`verify`, `lint`, ...).
    pub name: &'static str,
    /// One-line summary for the global usage listing.
    pub summary: &'static str,
    /// Positional argument placeholder (empty when the command takes none).
    pub positional: &'static str,
    /// Whether the positional argument is required.
    pub requires_positional: bool,
    /// Names of the accepted flags (must appear in the flag table).
    pub flags: &'static [&'static str],
}

/// Every `hetsep` subcommand, in help order.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "verify",
        summary: "verify a program against its specification",
        positional: "<program>",
        requires_positional: true,
        flags: &[
            "--spec", "--strategy", "--mode", "--no-hetero", "--max-visits",
            "--preanalysis", "--metrics", "--trace", "--quiet",
        ],
    },
    Command {
        name: "lint",
        summary: "run the static pre-verification lints",
        positional: "<program>",
        requires_positional: false, // --suite replaces the file
        flags: &["--spec", "--strategy", "--format", "--deny", "--suite", "--quiet"],
    },
    Command {
        name: "baseline",
        summary: "run the ESP-style baseline comparator",
        positional: "<program>",
        requires_positional: true,
        flags: &["--spec", "--quiet"],
    },
    Command {
        name: "check",
        summary: "parse and semantically check a program",
        positional: "<program>",
        requires_positional: true,
        flags: &["--quiet"],
    },
    Command {
        name: "heap",
        summary: "show the abstract heaps reaching a source line",
        positional: "<program>",
        requires_positional: true,
        flags: &["--spec", "--strategy", "--line", "--dot", "--no-hetero", "--quiet"],
    },
    Command {
        name: "corpus",
        summary: "batch a generated corpus over the job scheduler",
        positional: "",
        requires_positional: false,
        flags: &["--jobs", "--seed", "--workers", "--cache", "--json", "--quiet"],
    },
    Command {
        name: "serve",
        summary: "run the verification daemon (NDJSON on stdin/stdout)",
        positional: "",
        requires_positional: false,
        flags: &[
            "--cache", "--socket", "--max-visits", "--preanalysis",
            "--no-transfer-cache", "--quiet",
        ],
    },
];

/// Looks a subcommand up by name.
pub fn find_command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// The global usage text (command list; per-command detail is `--help`).
pub fn usage() -> String {
    let mut out = String::from("usage: hetsep <command> [options]\n\ncommands:\n");
    for c in COMMANDS {
        out.push_str(&format!("  {:<9} {}\n", c.name, c.summary));
    }
    out.push_str("\nrun `hetsep <command> --help` for that command's flags");
    out
}

/// Per-subcommand help text, rendered from the same table the parser
/// enforces.
pub fn help(cmd: &Command) -> String {
    let mut out = format!("usage: hetsep {}", cmd.name);
    if !cmd.positional.is_empty() {
        if cmd.requires_positional {
            out.push_str(&format!(" {}", cmd.positional));
        } else {
            out.push_str(&format!(" [{}]", cmd.positional));
        }
    }
    out.push_str(" [flags]\n\n");
    out.push_str(cmd.summary);
    out.push_str("\n\nflags:\n");
    for name in cmd.flags {
        let spec = FLAG_SPECS
            .iter()
            .find(|f| f.name == *name)
            .expect("command references unknown flag");
        let mut left = (*name).to_owned();
        if let Some(v) = spec.value {
            left.push(' ');
            left.push_str(v);
        }
        out.push_str(&format!("  {left:<28} {}\n", spec.help));
    }
    out.push_str("  --help                       show this help\n");
    out.trim_end().to_owned()
}

/// The result of parsing a subcommand's arguments.
#[derive(Debug)]
pub enum Parsed {
    /// `--help` was requested; print [`help`] and exit 0.
    Help,
    /// Run with these options (boxed: the flag union is a wide struct).
    Run(Box<Options>),
}

/// Parses `args` for `cmd`, enforcing the command's flag set.
///
/// # Errors
///
/// Unknown flags, flags of *other* subcommands, missing flag values,
/// malformed numbers, and a missing required positional all yield a usage
/// message (the binary exits 2).
pub fn parse(cmd: &Command, args: &[String]) -> Result<Parsed, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    let accepts = |flag: &str| cmd.flags.contains(&flag);
    let next = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        let flag = a.as_str();
        // Normalize the short alias before the membership check.
        let flag = if flag == "-q" { "--quiet" } else { flag };
        if flag == "--help" || flag == "-h" {
            return Ok(Parsed::Help);
        }
        if flag.starts_with('-') && !accepts(flag) {
            return if FLAG_SPECS.iter().any(|f| f.name == flag) {
                Err(format!(
                    "`{flag}` is not a flag of `hetsep {}` (see `hetsep {} --help`)",
                    cmd.name, cmd.name
                ))
            } else {
                Err(format!("unknown flag `{flag}`"))
            };
        }
        match flag {
            "--spec" => o.spec_path = Some(next(&mut it, "--spec")?),
            "--strategy" => o.strategy_path = Some(next(&mut it, "--strategy")?),
            "--mode" => o.mode = next(&mut it, "--mode")?,
            "--no-hetero" => o.heterogeneous = false,
            "--max-visits" => {
                o.max_visits = next(&mut it, "--max-visits")?
                    .parse()
                    .map_err(|e| format!("--max-visits: {e}"))?
            }
            "--line" => {
                o.line = Some(
                    next(&mut it, "--line")?
                        .parse()
                        .map_err(|e| format!("--line: {e}"))?,
                )
            }
            "--metrics" => o.metrics = true,
            "--trace" => o.trace_path = Some(next(&mut it, "--trace")?),
            "--dot" => o.dot = true,
            "--quiet" => o.quiet = true,
            "--preanalysis" => o.preanalysis = true,
            "--no-transfer-cache" => o.transfer_cache = false,
            "--suite" => o.suite = true,
            "--jobs" => {
                o.jobs = next(&mut it, "--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--seed" => {
                o.seed = next(&mut it, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--workers" => {
                o.workers = next(&mut it, "--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--cache" => o.cache_path = Some(next(&mut it, "--cache")?),
            "--json" => o.json_path = Some(next(&mut it, "--json")?),
            "--socket" => o.socket_path = Some(next(&mut it, "--socket")?),
            "--format" => {
                o.format = next(&mut it, "--format")?;
                if o.format != "text" && o.format != "json" {
                    return Err(format!("--format must be text or json, got `{}`", o.format));
                }
            }
            "--deny" => {
                let what = next(&mut it, "--deny")?;
                if what != "warnings" {
                    return Err(format!("--deny only supports `warnings`, got `{what}`"));
                }
                o.deny_warnings = true;
            }
            path if !flag.starts_with('-') && o.program_path.is_empty() => {
                if cmd.positional.is_empty() {
                    return Err(format!(
                        "`hetsep {}` takes no positional argument (got `{path}`)",
                        cmd.name
                    ));
                }
                o.program_path = path.to_owned();
            }
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    if o.program_path.is_empty() && cmd.requires_positional && !o.suite {
        return Err(format!("missing {} path", cmd.positional));
    }
    if cmd.name == "lint" && o.program_path.is_empty() && !o.suite {
        return Err("missing <program> path (or pass --suite)".into());
    }
    Ok(Parsed::Run(Box::new(o)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| (*a).to_owned()).collect()
    }

    fn run(cmd: &str, a: &[&str]) -> Result<Parsed, String> {
        parse(find_command(cmd).unwrap(), &args(a))
    }

    #[test]
    fn transfer_cache_default_is_the_engine_default() {
        assert_eq!(
            Options::default().transfer_cache,
            crate::EngineConfig::default().transfer_cache
        );
        let o = run("serve", &[]).unwrap();
        let Parsed::Run(o) = o else { panic!("serve parses to a run") };
        assert_eq!(o.transfer_cache, crate::EngineConfig::default().transfer_cache);
    }

    #[test]
    fn per_command_flag_sets_are_enforced() {
        // A real flag of another subcommand names the right help page.
        let e = run("verify", &["p.hsp", "--jobs", "5"]).unwrap_err();
        assert!(e.contains("not a flag of `hetsep verify`"), "{e}");
        // A flag that exists nowhere is just unknown.
        let e = run("verify", &["p.hsp", "--frobnicate"]).unwrap_err();
        assert!(e.contains("unknown flag"), "{e}");
        // The same flag parses fine where it belongs.
        let Ok(Parsed::Run(o)) = run("corpus", &["--jobs", "5"]) else {
            panic!("corpus --jobs should parse");
        };
        assert_eq!(o.jobs, 5);
    }

    #[test]
    fn help_flag_short_circuits() {
        assert!(matches!(run("verify", &["--help"]), Ok(Parsed::Help)));
        assert!(matches!(run("corpus", &["-h"]), Ok(Parsed::Help)));
        // Help text renders from the table for every command.
        for c in COMMANDS {
            let h = help(c);
            assert!(h.contains(c.name), "{h}");
            for f in c.flags {
                assert!(h.contains(f), "`{}` help misses {f}", c.name);
            }
        }
    }

    #[test]
    fn positionals_and_defaults() {
        let e = run("verify", &[]).unwrap_err();
        assert!(e.contains("missing <program>"), "{e}");
        let e = run("corpus", &["stray.hsp"]).unwrap_err();
        assert!(e.contains("takes no positional"), "{e}");
        let Ok(Parsed::Run(o)) = run("lint", &["--suite"]) else {
            panic!("lint --suite needs no file");
        };
        assert!(o.suite);
        assert!(matches!(
            run("lint", &[]),
            Err(e) if e.contains("--suite")
        ));
        let Ok(Parsed::Run(o)) = run("serve", &["--cache", "/tmp/x", "--max-visits", "99"]) else {
            panic!("serve flags should parse");
        };
        assert_eq!(o.cache_path.as_deref(), Some("/tmp/x"));
        assert_eq!(o.max_visits, 99);
        assert!(o.transfer_cache);
    }

    #[test]
    fn quiet_short_alias_normalizes() {
        let Ok(Parsed::Run(o)) = run("verify", &["p.hsp", "-q"]) else {
            panic!("-q should parse");
        };
        assert!(o.quiet);
    }
}

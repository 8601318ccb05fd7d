//! Command-line parsing. The driver runs
//! `<command> --workload <name> --seed <n> --seconds <s> --trace <0|1>`;
//! the remaining subcommands are the tools the acceptance criteria are
//! checked with.

#![forbid(unsafe_code)]

use crate::spec;

/// One measured run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: &'static spec::WorkloadSpec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Set-runs shared by `selfcheck` and `collect`.
#[derive(Debug, Clone, PartialEq)]
pub struct SetArgs {
    /// Runs per workload in each set.
    pub runs: usize,
    pub seconds: f64,
    /// Seed of the first run; each later run adds one.
    pub first_seed: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Run(RunArgs),
    /// Print `BENCHMARK.json`.
    BenchmarkJson,
    /// Compare two set files.
    Agree {
        a: String,
        b: String,
    },
    /// Run every workload in two sets and compare them.
    SelfCheck(SetArgs),
    /// Run every workload in one set and write the set file.
    Collect {
        set: SetArgs,
        out: String,
    },
}

/// `--smoke` caps a run at this many seconds.
pub const SMOKE_SECONDS: f64 = 2.0;

pub const USAGE: &str = "usage:
  bconv-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  bconv-benchmark benchmark-json
  bconv-benchmark collect <out.json> [--runs <n>] [--seconds <s>] [--seed <n>] [--smoke]
  bconv-benchmark agree <a.json> <b.json>
  bconv-benchmark selfcheck [--runs <n>] [--seconds <s>] [--seed <n>] [--smoke]";

fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i).map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("{flag}: {raw:?} is not a valid number"))
}

fn seconds(flag: &str, raw: &str) -> Result<f64, String> {
    let s: f64 = number(flag, raw)?;
    if s.is_finite() && s > 0.0 && s <= 600.0 {
        Ok(s)
    } else {
        Err(format!("{flag}: {raw} is outside (0, 600] seconds"))
    }
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A one-line message; the caller prints it with [`USAGE`].
pub fn parse(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        None => Err("no arguments".to_string()),
        Some("benchmark-json") if args.len() == 1 => Ok(Command::BenchmarkJson),
        Some("agree") => match args {
            [_, a, b] => Ok(Command::Agree { a: a.clone(), b: b.clone() }),
            _ => Err("agree takes exactly two set files".to_string()),
        },
        Some("selfcheck") => Ok(Command::SelfCheck(parse_set(&args[1..])?)),
        Some("collect") => {
            let out =
                args.get(1).filter(|a| !a.starts_with("--")).ok_or("collect needs <out.json>")?;
            Ok(Command::Collect { set: parse_set(&args[2..])?, out: out.clone() })
        }
        Some(flag) if flag.starts_with("--") => parse_run(args).map(Command::Run),
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut secs, mut trace, mut smoke) = (None, None, None, None, false);
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => {
                let name = flag_value(args, &mut i, flag)?;
                workload = Some(spec::workload(name).ok_or_else(|| {
                    let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => seed = Some(number::<u64>(flag, flag_value(args, &mut i, flag)?)?),
            "--seconds" => secs = Some(seconds(flag, flag_value(args, &mut i, flag)?)?),
            "--trace" => {
                trace = Some(match flag_value(args, &mut i, flag)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                });
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let seconds = secs.ok_or("--seconds is required")?;
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: if smoke { seconds.min(SMOKE_SECONDS) } else { seconds },
        trace: trace.ok_or("--trace is required")?,
    })
}

fn parse_set(args: &[String]) -> Result<SetArgs, String> {
    let mut set = SetArgs { runs: 5, seconds: f64::from(spec::RUN_SECONDS), first_seed: 1 };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--runs" => {
                set.runs = number(flag, flag_value(args, &mut i, flag)?)?;
                if !(1..=100).contains(&set.runs) {
                    return Err(format!("--runs: {} is outside 1..=100", set.runs));
                }
            }
            "--seconds" => set.seconds = seconds(flag, flag_value(args, &mut i, flag)?)?,
            "--seed" => set.first_seed = number(flag, flag_value(args, &mut i, flag)?)?,
            "--smoke" => set.seconds = set.seconds.min(SMOKE_SECONDS),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses_in_any_order() {
        let run = parse(&args("--workload vdsr96_w8a8_direct --seed 7 --seconds 30 --trace 1"));
        let Ok(Command::Run(run)) = run else { panic!("{run:?}") };
        assert_eq!(run.workload.name, "vdsr96_w8a8_direct");
        assert_eq!((run.seed, run.seconds, run.trace), (7, 30.0, true));
        let again = parse(&args("--trace 1 --seconds 30 --seed 7 --workload vdsr96_w8a8_direct"));
        assert_eq!(again, Ok(Command::Run(run)));
    }

    #[test]
    fn smoke_caps_the_run_length() {
        let run =
            parse(&args("--workload serve_burst_w8a8 --seed 1 --seconds 30 --trace 0 --smoke"));
        let Ok(Command::Run(run)) = run else { panic!("{run:?}") };
        assert_eq!(run.seconds, SMOKE_SECONDS);
        let short =
            parse(&args("--smoke --workload serve_burst_w8a8 --seed 1 --seconds 0.5 --trace 0"));
        let Ok(Command::Run(short)) = short else { panic!("{short:?}") };
        assert_eq!(short.seconds, 0.5);
    }

    #[test]
    fn bad_command_lines_are_refused_with_a_reason() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve_burst_w8a8 --seed 1 --seconds 1",
            "--workload serve_burst_w8a8 --seed x --seconds 1 --trace 0",
            "--workload serve_burst_w8a8 --seed 1 --seconds 0 --trace 0",
            "--workload serve_burst_w8a8 --seed 1 --seconds 1 --trace 2",
            "--workload serve_burst_w8a8 --seed 1 --seconds 1 --trace 0 --verbose",
            "--workload",
            "agree only-one.json",
            "benchmark-json extra",
            "collect --runs 2",
            "selfcheck --runs 0",
            "frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} should be refused");
        }
    }

    #[test]
    fn tool_subcommands_parse() {
        assert_eq!(parse(&args("benchmark-json")), Ok(Command::BenchmarkJson));
        assert_eq!(
            parse(&args("agree a.json b.json")),
            Ok(Command::Agree { a: "a.json".into(), b: "b.json".into() })
        );
        assert_eq!(
            parse(&args("selfcheck --runs 10 --seed 40 --smoke")),
            Ok(Command::SelfCheck(SetArgs { runs: 10, seconds: SMOKE_SECONDS, first_seed: 40 }))
        );
        assert_eq!(
            parse(&args("collect out/a.json --seconds 12")),
            Ok(Command::Collect {
                set: SetArgs { runs: 5, seconds: 12.0, first_seed: 1 },
                out: "out/a.json".into()
            })
        );
    }
}

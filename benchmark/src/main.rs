//! The repo benchmark: XML text in, matches out, on five workloads, with a
//! traced per-layer run. See README.md beside this package.
//!
//! `benchmark --workload NAME --seed N --seconds S --trace 0|1` runs one
//! workload once and prints, as the last line of standard output, the result
//! object the driver reads. Without `--workload` it runs every workload,
//! untraced and traced, each in a child process of its own (so that
//! `peak_rss_mb` is that workload's alone).

#![forbid(unsafe_code)]

mod gen;
mod isolated;
mod run;
mod session;
mod trace;
mod workloads;

use run::{Metric, Options, Outcome};
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use workloads::{Workload, WORKLOADS};

const USAGE: &str =
    "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: None,
        smoke: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(WORKLOADS.iter().find(|w| w.name == value).ok_or_else(bad)?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.smoke {
        args.seconds = args.seconds.min(0.1);
    }
    Ok(args)
}

/// The result object of the driver's contract, on one line.
fn result_line(outcome: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, Metric { name, value, unit }) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn run_one(w: &Workload, args: &Args) -> ExitCode {
    let trace_dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(std::path::Path::to_path_buf));
    let outcome = run::run(
        w,
        &Options {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace.unwrap_or(false),
            smoke: args.smoke,
            trace_dir,
        },
    );
    println!("workload {} seed {}", w.name, args.seed);
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in &outcome.metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, untraced then traced, each in its own child process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            if args.trace.is_some_and(|t| t != (trace == "1")) {
                continue;
            }
            let mut child = Command::new(&exe);
            child
                .args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.smoke {
                child.arg("--smoke");
            }
            // `status` waits for the child to end.
            let ok = child.status().is_ok_and(|s| s.success());
            if !ok {
                eprintln!("workload {} (trace {trace}) FAILED", w.name);
            }
            all_ok &= ok;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level array of `BENCHMARK.json`.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect(key);
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array end")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("name value").to_owned())
            .collect()
    }

    /// Runs every workload at smoke scale, untraced and traced, and checks
    /// that what the binary prints is what `BENCHMARK.json` declares, so the
    /// file and the binary cannot drift.
    #[test]
    fn smoke_run_prints_exactly_the_declared_names() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repo root");
        let workload_names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names_in(&json, "workloads"), workload_names);

        for w in WORKLOADS {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let outcome = run::run(
                    w,
                    &Options {
                        seed: 5,
                        seconds: 0.05,
                        trace,
                        smoke: true,
                        trace_dir: None,
                    },
                );
                assert!(outcome.correct, "{} {key}: {:?}", w.name, outcome.notes);
                assert_eq!(outcome.failed, 0);
                let mut printed: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
                let mut declared = names_in(&json, key);
                printed.sort_unstable();
                declared.sort_unstable();
                assert_eq!(printed, declared, "{} {key}", w.name);
                let line = result_line(&outcome);
                assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
                assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
            }
        }
    }

    #[test]
    fn seed_changes_the_digest_and_repeats_for_itself() {
        let w = &WORKLOADS[3];
        let digest = |seed| {
            let outcome = run::run(
                w,
                &Options {
                    seed,
                    seconds: 0.0,
                    trace: true,
                    smoke: true,
                    trace_dir: None,
                },
            );
            let get = |n: &str| outcome.metrics.iter().find(|m| m.name == n).unwrap().value;
            (get("bench.matches"), get("bench.digest"))
        };
        assert_eq!(digest(1), digest(1));
        assert_ne!(digest(1), digest(2));
    }

    #[test]
    fn arguments() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload feed_churn --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload.unwrap().name, "feed_churn");
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (9, 3.0, Some(true), false)
        );
        assert!(parse("--smoke").unwrap().smoke);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds").is_err());
        assert!(parse("--bogus 1").is_err());
    }
}

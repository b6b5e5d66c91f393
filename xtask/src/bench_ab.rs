//! `cargo run -p xtask -- bench-ab <base-rev> [--pairs N] [--seconds S]
//! [--seed N] [--workloads W…]`: the repo benchmark on a base revision
//! against the working tree, in alternating pairs.
//!
//! 1. The base revision is checked out with `git worktree add` under
//!    `target/ab/` (local git only; the worktree is removed again once its
//!    benchmark is built), and both benchmark binaries are built `--offline`
//!    into `target/ab/build-base` and `target/ab/build-head`.
//! 2. Per workload, `N` untraced pairs run; the side that goes first
//!    alternates from pair to pair. One calibration pair runs the working
//!    tree against itself, so the report states the box's noise beside the
//!    comparison, and one traced pair reads `bench.matches`, `bench.digest`
//!    and the per-layer metrics of each side.
//! 3. Per end-to-end metric of `BENCHMARK.json` the report gives each side's
//!    median and quartiles, the pairs the working tree is ahead in, and a
//!    verdict: `gain` when it is ahead in at least nine tenths of the pairs
//!    and the medians differ by more than the base's quartile distance,
//!    `WORSE` when its median is worse than the base's by more than the
//!    metric's bound. The one-minute load average is read before and after
//!    every run.
//!
//! Exits 1 when the two sides' matches or digests differ on any workload or
//! any run fails, 2 on a usage error.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: cargo run -p xtask -- bench-ab <base-rev> [--pairs N] \
                     [--seconds S] [--seed N] [--workloads W...]";

/// The command line of one comparison.
#[derive(Debug)]
struct Options {
    base: String,
    pairs: usize,
    seconds: f64,
    seed: u64,
    /// Empty: every workload `BENCHMARK.json` declares.
    workloads: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        base: String::new(),
        pairs: 8,
        seconds: 4.0,
        seed: 1,
        workloads: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--pairs" => {
                opts.pairs = value()?.parse().map_err(|_| format!("bad {arg}"))?;
                if opts.pairs == 0 {
                    return Err("--pairs must be at least 1".into());
                }
            }
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| format!("bad {arg}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--seed" => opts.seed = value()?.parse().map_err(|_| format!("bad {arg}"))?,
            "--workloads" => {
                while let Some(w) = it.next_if(|a| !a.starts_with("--")) {
                    let names = w.split(',').filter(|n| !n.is_empty());
                    opts.workloads.extend(names.map(str::to_owned));
                }
                if opts.workloads.is_empty() {
                    return Err("--workloads needs at least one name".into());
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            rev if opts.base.is_empty() => opts.base = rev.to_owned(),
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }
    if opts.base.is_empty() {
        return Err("missing <base-rev>".into());
    }
    Ok(opts)
}

// ---------------------------------------------------------------------------
// BENCHMARK.json and the benchmark's result line.
// ---------------------------------------------------------------------------

/// An end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
struct EndToEnd {
    name: String,
    higher_is_better: bool,
    /// The fraction by which the metric may worsen.
    bound: f64,
}

/// The body of the array under `"key"`, between its brackets (the arrays of
/// `BENCHMARK.json` hold flat objects and strings only).
fn json_array<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let start = json.find(&format!("\"{key}\""))?;
    let body = &json[start..];
    let open = body.find('[')?;
    let close = body.find(']')?;
    (open < close).then(|| &body[open + 1..close])
}

/// The flat `{…}` objects of an array body.
fn json_objects(array: &str) -> impl Iterator<Item = &str> {
    array
        .split('{')
        .skip(1)
        .filter_map(|rest| rest.split_once('}').map(|(obj, _)| obj))
}

/// The value of the raw field `"key": value` of a flat object, without
/// quotes for a string.
fn json_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let start = obj.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = obj[start..].trim_start().strip_prefix(':')?.trim_start();
    match rest.strip_prefix('"') {
        Some(s) => s.split_once('"').map(|(v, _)| v),
        None => Some(rest.split([',', '}']).next()?.trim()),
    }
}

/// The workload names and the end-to-end metrics `BENCHMARK.json` declares.
fn parse_benchmark_json(json: &str) -> Result<(Vec<String>, Vec<EndToEnd>), String> {
    let names = |key: &str| -> Result<Vec<&str>, String> {
        let array = json_array(json, key).ok_or(format!("BENCHMARK.json: no `{key}` array"))?;
        json_objects(array)
            .map(|obj| json_field(obj, "name").ok_or(format!("{key}: an object without a name")))
            .collect()
    };
    let workloads = names("workloads")?.into_iter().map(str::to_owned).collect();
    let array = json_array(json, "end_to_end").ok_or("BENCHMARK.json: no `end_to_end` array")?;
    let metrics = json_objects(array)
        .map(|obj| {
            let name = json_field(obj, "name").ok_or("end_to_end: a metric without a name")?;
            let better = json_field(obj, "better").ok_or(format!("{name}: no `better`"))?;
            let bound = json_field(obj, "bound")
                .and_then(|b| b.parse().ok())
                .ok_or(format!("{name}: no numeric `bound`"))?;
            Ok(EndToEnd {
                name: name.to_owned(),
                higher_is_better: better == "higher",
                bound,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((workloads, metrics))
}

/// The result object a benchmark run prints as its last line.
#[derive(Debug)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl ResultLine {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Parse `{"correct": …, "attempted": …, "failed": …, "metrics": {"name":
/// {"value": v, "unit": "u"}, …}}`. Values may read `NaN` or `inf`.
fn parse_result_line(line: &str) -> Result<ResultLine, String> {
    let line = line.trim();
    let (head, metrics) = line
        .split_once("\"metrics\":")
        .ok_or("no `metrics` object in the result line")?;
    let field = |key: &str| json_field(head, key).ok_or(format!("no `{key}` in the result line"));
    let number = |key: &str| -> Result<u64, String> {
        field(key)?
            .parse()
            .map_err(|_| format!("`{key}` is not a count"))
    };
    let correct = match field("correct")? {
        "true" => true,
        "false" => false,
        other => return Err(format!("`correct` is {other}")),
    };
    let mut parsed = Vec::new();
    // Each metric is `"name": {"value": v, "unit": "u"}`: split on the
    // objects' closing braces.
    let body = metrics
        .trim_start()
        .strip_prefix('{')
        .ok_or("`metrics` is not an object")?;
    for entry in body.split('}') {
        let Some((name, obj)) = entry.split_once('{') else {
            continue;
        };
        let name = name.trim_matches(|c: char| c == ',' || c == ':' || c.is_whitespace());
        let name = name.trim_matches('"');
        let value = json_field(obj, "value").ok_or(format!("{name}: no value"))?;
        let value = value
            .parse()
            .map_err(|_| format!("{name}: bad value {value}"))?;
        parsed.push((name.to_owned(), value));
    }
    if parsed.is_empty() {
        return Err("the result line has no metric".into());
    }
    Ok(ResultLine {
        correct,
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics: parsed,
    })
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// The `p`-quantile of `values` (`0 ≤ p ≤ 1`), interpolating linearly
/// between the two nearest ranks of the sorted values. NaN for no values.
fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted.sort_by(f64::total_cmp);
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median and quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spread {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Spread {
    fn of(values: &[f64]) -> Spread {
        Spread {
            q1: quantile(values, 0.25),
            median: quantile(values, 0.5),
            q3: quantile(values, 0.75),
        }
    }
}

/// The pairs `(base, head)` in which the head is strictly better; ties count
/// for neither side.
fn pairs_ahead(pairs: &[(f64, f64)], higher_is_better: bool) -> usize {
    (pairs.iter())
        .filter(|&&(base, head)| {
            if higher_is_better {
                head > base
            } else {
                head < base
            }
        })
        .count()
}

/// `gain` when the head is ahead in at least nine tenths of the pairs and
/// its median is better than the base's by more than the base's quartile
/// distance; `WORSE` when its median is worse by more than `bound` (a
/// fraction of the base's median); `-` otherwise.
fn verdict(pairs: &[(f64, f64)], metric: &EndToEnd) -> &'static str {
    let base: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let head: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (b, h) = (Spread::of(&base), Spread::of(&head));
    let better_by = if metric.higher_is_better {
        h.median - b.median
    } else {
        b.median - h.median
    };
    if 10 * pairs_ahead(pairs, metric.higher_is_better) >= 9 * pairs.len()
        && better_by > b.q3 - b.q1
    {
        "gain"
    } else if -better_by > metric.bound * b.median.abs() {
        "WORSE"
    } else {
        "-"
    }
}

// ---------------------------------------------------------------------------
// Building and running.
// ---------------------------------------------------------------------------

fn git(root: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .current_dir(root)
        .args(args)
        .output()
        .map_err(|e| format!("git {}: {e}", args.join(" ")))?;
    if !out.status.success() {
        return Err(format!(
            "git {} failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Build the benchmark of `manifest` into `target_dir`; its executable.
fn build(manifest: &Path, target_dir: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(manifest)
        .env("CARGO_TARGET_DIR", target_dir)
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of {} failed", manifest.display()));
    }
    Ok(target_dir.join("release").join("mmqjp-benchmark"))
}

/// Check `sha` out in a worktree under `ab`, build its benchmark into
/// `ab/build-base`, and remove the worktree again.
fn build_base(root: &Path, ab: &Path, sha: &str) -> Result<PathBuf, String> {
    let src = ab.join(format!("src-{}", &sha[..12.min(sha.len())]));
    let src_arg = src.to_string_lossy().into_owned();
    if src.exists() {
        // A worktree left by an interrupted run.
        let _ = git(root, &["worktree", "remove", "--force", &src_arg]);
        let _ = fs::remove_dir_all(&src);
        let _ = git(root, &["worktree", "prune"]);
    }
    git(root, &["worktree", "add", "--detach", &src_arg, sha])?;
    let built = build(&src.join("benchmark/Cargo.toml"), &ab.join("build-base"));
    git(root, &["worktree", "remove", "--force", &src_arg])?;
    built
}

/// The one-minute load average, or NaN where it cannot be read.
fn load_average() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// One benchmark run with the load average before and after it.
struct Run {
    result: ResultLine,
    load: (f64, f64),
}

fn run_once(exe: &Path, workload: &str, opts: &Options, trace: bool) -> Result<Run, String> {
    let before = load_average();
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let load = (before, load_average());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = parse_result_line(last).map_err(|e| format!("{workload}: {e}"))?;
    if !out.status.success() || !result.correct {
        return Err(format!(
            "{workload}: run failed ({}, correct {})",
            out.status, result.correct
        ));
    }
    Ok(Run { result, load })
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    Base,
    Head,
}

/// The runs of one workload.
struct WorkloadRuns {
    pairs: Vec<(Run, Run)>,
    calibration: (Run, Run),
    traced: (Run, Run),
}

fn run_workload(
    exes: (&Path, &Path),
    workload: &str,
    opts: &Options,
) -> Result<WorkloadRuns, String> {
    let exe = |side| if side == Side::Base { exes.0 } else { exes.1 };
    let mut pairs = Vec::new();
    for i in 0..opts.pairs {
        let order = if i % 2 == 0 {
            [Side::Base, Side::Head]
        } else {
            [Side::Head, Side::Base]
        };
        let first = run_once(exe(order[0]), workload, opts, false)?;
        let second = run_once(exe(order[1]), workload, opts, false)?;
        let (base, head) = if order[0] == Side::Base {
            (first, second)
        } else {
            (second, first)
        };
        let docs_per_s = |r: &Run| r.result.metric("docs_per_s").unwrap_or(f64::NAN);
        eprintln!(
            "  {workload} pair {}/{} ({} first): docs_per_s base {:.0} head {:.0}; \
             load base {:.2}→{:.2} head {:.2}→{:.2}",
            i + 1,
            opts.pairs,
            if order[0] == Side::Base {
                "base"
            } else {
                "head"
            },
            docs_per_s(&base),
            docs_per_s(&head),
            base.load.0,
            base.load.1,
            head.load.0,
            head.load.1,
        );
        pairs.push((base, head));
    }
    let calibration = (
        run_once(exes.1, workload, opts, false)?,
        run_once(exes.1, workload, opts, false)?,
    );
    let traced = (
        run_once(exes.0, workload, opts, true)?,
        run_once(exes.1, workload, opts, true)?,
    );
    Ok(WorkloadRuns {
        pairs,
        calibration,
        traced,
    })
}

/// The report of one workload; `false` in the second slot when the two
/// sides' matches or digests differ.
fn report(workload: &str, runs: &WorkloadRuns, metrics: &[EndToEnd]) -> (String, bool) {
    let mut s = String::new();
    let n = runs.pairs.len();
    let _ = writeln!(s, "== {workload}: {n} pairs, base vs head");
    let _ = writeln!(
        s,
        "  {:<14} {:>6}  {:>30}  {:>30}  {:>8} {:>6} {:>6}  verdict",
        "metric",
        "better",
        "base median [q1, q3]",
        "head median [q1, q3]",
        "change",
        "ahead",
        "bound"
    );
    let fmt = |sp: Spread| format!("{:.4} [{:.4}, {:.4}]", sp.median, sp.q1, sp.q3);
    for m in metrics {
        let pairs: Vec<(f64, f64)> = (runs.pairs.iter())
            .map(|(b, h)| {
                let get = |r: &Run| r.result.metric(&m.name).unwrap_or(f64::NAN);
                (get(b), get(h))
            })
            .collect();
        let base = Spread::of(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
        let head = Spread::of(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
        let _ = writeln!(
            s,
            "  {:<14} {:>6}  {:>30}  {:>30}  {:>+7.1}% {:>3}/{:<2} {:>5.0}%  {}",
            m.name,
            if m.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            fmt(base),
            fmt(head),
            100.0 * (head.median / base.median - 1.0),
            pairs_ahead(&pairs, m.higher_is_better),
            n,
            100.0 * m.bound,
            verdict(&pairs, m),
        );
    }
    let failed = |side: fn(&(Run, Run)) -> &Run| {
        let (failed, attempted) = (runs.pairs.iter().map(side)).fold((0, 0), |(f, a), r| {
            (f + r.result.failed, a + r.result.attempted)
        });
        format!("{failed}/{attempted}")
    };
    let _ = writeln!(
        s,
        "  operations failed: base {}, head {}",
        failed(|p| &p.0),
        failed(|p| &p.1)
    );
    let (c0, c1) = &runs.calibration;
    let _ = write!(s, "  calibration (head vs head):");
    for m in metrics {
        let (a, b) = (c0.result.metric(&m.name), c1.result.metric(&m.name));
        if let (Some(a), Some(b)) = (a, b) {
            let _ = write!(s, " {} {:+.1}%", m.name, 100.0 * (b / a - 1.0));
        }
    }
    s.push('\n');
    let (tb, th) = &runs.traced;
    let mut same = true;
    for name in ["bench.matches", "bench.digest"] {
        let (b, h) = (tb.result.metric(name), th.result.metric(name));
        let equal = b.is_some() && b == h;
        same &= equal;
        let _ = writeln!(
            s,
            "  {name}: base {} head {} — {}",
            b.map_or("?".into(), |v| format!("{v}")),
            h.map_or("?".into(), |v| format!("{v}")),
            if equal { "equal" } else { "DIFFERENT" }
        );
    }
    let _ = writeln!(s, "  per-layer (one traced run each): base → head");
    for (name, b) in &tb.result.metrics {
        if name == "bench.matches" || name == "bench.digest" {
            continue;
        }
        let h = th.result.metric(name).unwrap_or(f64::NAN);
        let _ = writeln!(s, "    {name:<40} {b:>14.4} → {h:>14.4}");
    }
    let loads = (runs.pairs.iter())
        .flat_map(|(b, h)| [b, h])
        .chain([c0, c1, tb, th])
        .flat_map(|r| [r.load.0, r.load.1])
        .filter(|l| !l.is_nan());
    let (lo, hi) = loads.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), l| {
        (lo.min(l), hi.max(l))
    });
    let _ = writeln!(
        s,
        "  load average (1 min) before/after each run: {lo:.2}–{hi:.2}"
    );
    (s, same)
}

/// `bench-ab`: compare the benchmark of `args[0]` with the working tree's.
pub fn run(root: &Path, args: &[String]) -> ExitCode {
    let opts = match parse_options(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match compare(root, &opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench-ab: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Build, run and report; `Ok(false)` when matches or digests differ.
fn compare(root: &Path, opts: &Options) -> Result<bool, String> {
    let json = fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let (declared, metrics) = parse_benchmark_json(&json)?;
    let workloads = if opts.workloads.is_empty() {
        declared
    } else {
        if let Some(w) = opts.workloads.iter().find(|w| !declared.contains(w)) {
            return Err(format!(
                "unknown workload {w} (declared: {})",
                declared.join(", ")
            ));
        }
        opts.workloads.clone()
    };
    let sha = git(
        root,
        &[
            "rev-parse",
            "--verify",
            &format!("{}^{{commit}}", opts.base),
        ],
    )?;
    let head = git(root, &["rev-parse", "--short=12", "HEAD"])?;
    let dirty = !git(root, &["status", "--porcelain", "--untracked-files=no"])?.is_empty();
    let ab = root.join("target").join("ab");
    fs::create_dir_all(&ab).map_err(|e| format!("{}: {e}", ab.display()))?;
    eprintln!("bench-ab: building base {sha}");
    let base_exe = build_base(root, &ab, &sha)?;
    eprintln!("bench-ab: building head (working tree)");
    let head_exe = build(&root.join("benchmark/Cargo.toml"), &ab.join("build-head"))?;

    println!(
        "bench-ab: base {} vs head {head}{}; {} pairs of {} s per workload, seed {}, {} cpus",
        &sha[..12.min(sha.len())],
        if dirty { " + uncommitted changes" } else { "" },
        opts.pairs,
        opts.seconds,
        opts.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut all_same = true;
    for w in &workloads {
        let runs = run_workload((&base_exe, &head_exe), w, opts)?;
        let (text, same) = report(w, &runs, &metrics);
        print!("{text}");
        all_same &= same;
    }
    if !all_same {
        println!("bench-ab: matches or digests DIFFER");
    }
    Ok(all_same)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn options_parse_with_defaults_and_lists() {
        let o = parse_options(&args("HEAD~1")).unwrap();
        assert_eq!(
            (o.base.as_str(), o.pairs, o.seconds, o.seed),
            ("HEAD~1", 8, 4.0, 1)
        );
        assert!(o.workloads.is_empty());
        let o = parse_options(&args(
            "--pairs 10 abc --workloads a,b c --seconds 2.5 --seed 7",
        ))
        .unwrap();
        assert_eq!(o.base, "abc");
        assert_eq!((o.pairs, o.seconds, o.seed), (10, 2.5, 7));
        assert_eq!(o.workloads, ["a", "b", "c"]);
        for bad in [
            "",
            "a b",
            "a --pairs 0",
            "a --pairs",
            "a --seconds -1",
            "a --workloads",
            "a --frobnicate 1",
        ] {
            assert!(parse_options(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_lines_parse() {
        let line = r#"{"correct": true, "attempted": 12, "failed": 0, "metrics": {"docs_per_s": {"value": 2970.5, "unit": "docs/s"}, "xml.parse.share": {"value": NaN, "unit": "ratio"}, "bench.digest": {"value": 762773430, "unit": "count"}}}"#;
        let r = parse_result_line(line).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (12, 0));
        assert_eq!(r.metrics.len(), 3);
        assert_eq!(r.metric("docs_per_s"), Some(2970.5));
        assert!(r.metric("xml.parse.share").unwrap().is_nan());
        assert_eq!(r.metric("bench.digest"), Some(762_773_430.0));
        assert_eq!(r.metric("absent"), None);

        let failed = r#"{"correct": false, "attempted": 3, "failed": 3, "metrics": {"docs_per_s": {"value": inf, "unit": "docs/s"}}}"#;
        let r = parse_result_line(failed).unwrap();
        assert!(!r.correct);
        assert_eq!(r.metric("docs_per_s"), Some(f64::INFINITY));

        for bad in [
            "workload tree_joinheavy seed 1",
            r#"{"correct": maybe, "attempted": 1, "failed": 0, "metrics": {"a": {"value": 1}}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a": {"value": x}}}"#,
        ] {
            assert!(parse_result_line(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn the_checked_in_benchmark_json_parses() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let json = fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
        let (workloads, metrics) = parse_benchmark_json(&json).unwrap();
        assert!(
            workloads.iter().any(|w| w == "tree_joinheavy"),
            "{workloads:?}"
        );
        let docs = metrics.iter().find(|m| m.name == "docs_per_s").unwrap();
        assert!(docs.higher_is_better && docs.bound > 0.0);
        let p50 = metrics.iter().find(|m| m.name == "batch_p50_ms").unwrap();
        assert!(!p50.higher_is_better);
        assert!(
            metrics.iter().all(|m| !m.name.contains('.')),
            "per-layer leaked in"
        );
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(quantile(&[3.0], 0.25), 3.0);
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(
            Spread::of(&v),
            Spread {
                q1: 1.75,
                median: 2.5,
                q3: 3.25
            }
        );
        let odd = [5.0, 1.0, 9.0, 3.0, 7.0];
        assert_eq!(
            Spread::of(&odd),
            Spread {
                q1: 3.0,
                median: 5.0,
                q3: 7.0
            }
        );
        // NaN runs are left out.
        assert_eq!(quantile(&[1.0, f64::NAN, 3.0], 0.5), 2.0);
    }

    #[test]
    fn pairs_ahead_and_verdicts_follow_the_metrics_direction() {
        let rate = EndToEnd {
            name: "docs_per_s".into(),
            higher_is_better: true,
            bound: 0.2,
        };
        let latency = EndToEnd {
            name: "batch_p50_ms".into(),
            higher_is_better: false,
            ..rate.clone()
        };
        // Head ahead in 9 of 10, one tie: a gain far beyond the spread.
        let mut pairs: Vec<(f64, f64)> = (0..9).map(|i| (100.0 + i as f64, 150.0)).collect();
        pairs.push((120.0, 120.0));
        assert_eq!(pairs_ahead(&pairs, true), 9);
        assert_eq!(pairs_ahead(&pairs, false), 0);
        assert_eq!(verdict(&pairs, &rate), "gain");
        // The same numbers as a latency are worse by more than the bound.
        assert_eq!(verdict(&pairs, &latency), "WORSE");
        // Ahead in 8 of 10 is no gain.
        pairs[0] = (200.0, 150.0);
        assert_eq!(verdict(&pairs, &rate), "-");
        // Ahead everywhere by less than the base's quartile distance.
        let noisy: Vec<(f64, f64)> = (0..10)
            .map(|i| (100.0 + 10.0 * i as f64, 101.0 + 10.0 * i as f64))
            .collect();
        assert_eq!(pairs_ahead(&noisy, true), 10);
        assert_eq!(verdict(&noisy, &rate), "-");
    }
}

//! `cargo run -p xtask -- bench-ab <base-rev> [--pairs N] [--seconds S]
//! [--seed N] [--workloads W…] [--record]`: the repo benchmark on a base
//! revision against the working tree, in alternating pairs.
//!
//! 1. The base revision's files are exported with `git archive` under
//!    `target/ab/` (local git only; the copy is removed again once its
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
//! 4. With `--record`, a comparison whose matches and digests agree appends
//!    two lines to `BENCH_HISTORY.jsonl` at the repository root, the base's
//!    and then the working tree's (see [`HistoryLine`]): the checked-in
//!    trajectory of the benchmark's end-to-end numbers.
//!
//! Exits 1 when the two sides' matches or digests differ on any workload or
//! any run fails, 2 on a usage error.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: cargo run -p xtask -- bench-ab <base-rev> [--pairs N] \
                     [--seconds S] [--seed N] [--workloads W...] [--record]";

/// The trajectory `--record` appends to, at the repository root.
const HISTORY: &str = "BENCH_HISTORY.jsonl";

/// The command line of one comparison.
#[derive(Debug)]
struct Options {
    base: String,
    pairs: usize,
    seconds: f64,
    seed: u64,
    /// Empty: every workload `BENCHMARK.json` declares.
    workloads: Vec<String>,
    /// Append both sides' lines to [`HISTORY`].
    record: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        base: String::new(),
        pairs: 8,
        seconds: 4.0,
        seed: 1,
        workloads: Vec::new(),
        record: false,
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
            "--record" => opts.record = true,
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
// The trajectory: one JSON line per measured commit.
// ---------------------------------------------------------------------------

/// One line of `BENCH_HISTORY.jsonl`: one side of a recorded comparison.
///
/// `{"commit": "<sha>", "uncommitted": false, "cpu": "<model>", "nproc": 2,
/// "seed": 1, "pairs": 10, "seconds": 4, "load": {"before": 1.2, "after":
/// 1.4}, "workloads": {"<name>": {"<metric>": {"median": m, "q1": a, "q3":
/// b}, …}, …}, "pipelined_over_selective": r}`. A number that is not finite
/// is written `null`; the ratio is `null` unless both `feed_pipelined` and
/// `feed_selective` ran.
#[derive(Debug, Clone, PartialEq)]
struct HistoryLine {
    /// The commit measured; for the working tree, the commit it sits on.
    commit: String,
    /// The working tree had uncommitted changes on top of `commit`.
    uncommitted: bool,
    /// The CPU model (`/proc/cpuinfo`'s first `model name`).
    cpu: String,
    /// The CPUs the runs could use (what `nproc` prints).
    nproc: usize,
    seed: u64,
    pairs: usize,
    seconds: f64,
    /// The one-minute load average before the first run of the comparison
    /// and after its last.
    load: (f64, f64),
    /// Per workload, per end-to-end metric, the median and quartiles of
    /// this side's untraced runs.
    workloads: Vec<(String, Vec<(String, Spread)>)>,
    /// `feed_pipelined` ÷ `feed_selective` median `docs_per_s`.
    pipelined_over_selective: Option<f64>,
}

/// `v` as JSON: `null` when not finite.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl HistoryLine {
    /// The line, without its newline.
    fn to_json(&self) -> String {
        let spread = |sp: &Spread| {
            format!(
                "{{\"median\": {}, \"q1\": {}, \"q3\": {}}}",
                json_number(sp.median),
                json_number(sp.q1),
                json_number(sp.q3)
            )
        };
        let workloads: Vec<String> = (self.workloads.iter())
            .map(|(name, metrics)| {
                let metrics: Vec<String> = (metrics.iter())
                    .map(|(m, sp)| format!("{}: {}", json_string(m), spread(sp)))
                    .collect();
                format!("{}: {{{}}}", json_string(name), metrics.join(", "))
            })
            .collect();
        format!(
            "{{\"commit\": {}, \"uncommitted\": {}, \"cpu\": {}, \"nproc\": {}, \"seed\": {}, \
             \"pairs\": {}, \"seconds\": {}, \"load\": {{\"before\": {}, \"after\": {}}}, \
             \"workloads\": {{{}}}, \"pipelined_over_selective\": {}}}",
            json_string(&self.commit),
            self.uncommitted,
            json_string(&self.cpu),
            self.nproc,
            self.seed,
            self.pairs,
            json_number(self.seconds),
            json_number(self.load.0),
            json_number(self.load.1),
            workloads.join(", "),
            self.pipelined_over_selective
                .map_or("null".into(), json_number),
        )
    }

    /// Parse a line [`to_json`](Self::to_json) wrote.
    fn parse(line: &str) -> Result<HistoryLine, String> {
        let json = Json::parse(line)?;
        let field = |key: &str| json.get(key).ok_or(format!("no `{key}`"));
        let text = |key: &str| -> Result<String, String> {
            field(key)?
                .as_str()
                .map(str::to_owned)
                .ok_or(format!("`{key}` is not a string"))
        };
        let number = |v: &Json, key: &str| -> Result<f64, String> {
            match v {
                Json::Null => Ok(f64::NAN),
                Json::Number(n) => Ok(*n),
                _ => Err(format!("`{key}` is not a number")),
            }
        };
        let count = |key: &str| -> Result<u64, String> {
            let n = number(field(key)?, key)?;
            (n >= 0.0 && n.fract() == 0.0)
                .then_some(n as u64)
                .ok_or(format!("`{key}` is not a count"))
        };
        let load = field("load")?;
        let load_at = |key: &str| number(load.get(key).ok_or(format!("no load `{key}`"))?, key);
        let Json::Object(workloads) = field("workloads")? else {
            return Err("`workloads` is not an object".into());
        };
        let workloads = (workloads.iter())
            .map(|(name, metrics)| {
                let Json::Object(metrics) = metrics else {
                    return Err(format!("{name}: not an object"));
                };
                let metrics = (metrics.iter())
                    .map(|(m, sp)| {
                        let at =
                            |q: &str| number(sp.get(q).ok_or(format!("{name}.{m}: no `{q}`"))?, q);
                        let spread = Spread {
                            q1: at("q1")?,
                            median: at("median")?,
                            q3: at("q3")?,
                        };
                        Ok((m.clone(), spread))
                    })
                    .collect::<Result<_, String>>()?;
                Ok((name.clone(), metrics))
            })
            .collect::<Result<_, String>>()?;
        let ratio = number(
            field("pipelined_over_selective")?,
            "pipelined_over_selective",
        )?;
        Ok(HistoryLine {
            commit: text("commit")?,
            uncommitted: match field("uncommitted")? {
                Json::Bool(b) => *b,
                _ => return Err("`uncommitted` is not a boolean".into()),
            },
            cpu: text("cpu")?,
            nproc: count("nproc")? as usize,
            seed: count("seed")?,
            pairs: count("pairs")? as usize,
            seconds: number(field("seconds")?, "seconds")?,
            load: (load_at("before")?, load_at("after")?),
            workloads,
            pipelined_over_selective: (!ratio.is_nan()).then_some(ratio),
        })
    }
}

/// A parsed JSON value: just enough JSON for the trajectory's lines (no
/// arrays).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    /// Members in written order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document; nothing but whitespace may follow it.
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.at));
        }
        Ok(value)
    }

    /// The member `key` of an object.
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }
}

/// A recursive-descent JSON reader over bytes.
struct JsonParser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::String),
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Object(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    members.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Object(members));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.at)),
                    }
                }
            }
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap_or("");
                text.parse()
                    .map(Json::Number)
                    .map_err(|_| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    /// A string literal, the cursor on its opening quote.
    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.at) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.at));
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            match *self.bytes.get(self.at).ok_or("unterminated string")? {
                b'"' => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| "a string is not UTF-8".into());
                }
                b'\\' => {
                    let escaped = *self.bytes.get(self.at + 1).ok_or("unterminated escape")?;
                    self.at += 2;
                    match escaped {
                        b'"' | b'\\' | b'/' => out.push(escaped),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.bytes.get(self.at..self.at + 4).ok_or("short \\u")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.at += 4;
                            let mut buf = [0; 4];
                            out.extend_from_slice(code.encode_utf8(&mut buf).as_bytes());
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at - 1)),
                    }
                }
                b => {
                    out.push(b);
                    self.at += 1;
                }
            }
        }
    }
}

/// The CPU model `/proc/cpuinfo` names first, or `unknown`.
fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
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

/// Export `sha`'s files under `ab` with `git archive`, build its benchmark
/// into `ab/build-base`, and remove the copy again.
fn build_base(root: &Path, ab: &Path, sha: &str) -> Result<PathBuf, String> {
    let src = ab.join(format!("src-{}", &sha[..12.min(sha.len())]));
    if src.exists() {
        // A copy left by an interrupted run.
        fs::remove_dir_all(&src).map_err(|e| format!("{}: {e}", src.display()))?;
    }
    fs::create_dir_all(&src).map_err(|e| format!("{}: {e}", src.display()))?;
    let mut archive = Command::new("git")
        .current_dir(root)
        .args(["archive", "--format=tar", sha])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("git archive: {e}"))?;
    let tar = archive.stdout.take().ok_or("git archive: no output pipe")?;
    let unpacked = Command::new("tar")
        .arg("-x")
        .arg("-C")
        .arg(&src)
        .stdin(tar)
        .status()
        .map_err(|e| format!("tar: {e}"))?;
    let archived = archive.wait().map_err(|e| format!("git archive: {e}"))?;
    if !archived.success() || !unpacked.success() {
        return Err(format!(
            "exporting {sha} failed ({archived}, tar {unpacked})"
        ));
    }
    let built = build(&src.join("benchmark/Cargo.toml"), &ab.join("build-base"));
    fs::remove_dir_all(&src).map_err(|e| format!("{}: {e}", src.display()))?;
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
    let load_before = load_average();
    let mut spreads = (Vec::new(), Vec::new());
    for w in &workloads {
        let runs = run_workload((&base_exe, &head_exe), w, opts)?;
        let (text, same) = report(w, &runs, &metrics);
        print!("{text}");
        all_same &= same;
        spreads
            .0
            .push((w.clone(), side_spreads(&runs, &metrics, |p| &p.0)));
        spreads
            .1
            .push((w.clone(), side_spreads(&runs, &metrics, |p| &p.1)));
    }
    if !all_same {
        println!("bench-ab: matches or digests DIFFER");
    } else if opts.record {
        let load = (load_before, load_average());
        let line = |commit: &str, uncommitted, workloads| {
            history_line(commit, uncommitted, opts, load, workloads).to_json()
        };
        let head_sha = git(root, &["rev-parse", "HEAD"])?;
        let lines = format!(
            "{}\n{}\n",
            line(&sha, false, spreads.0),
            line(&head_sha, dirty, spreads.1)
        );
        let path = root.join(HISTORY);
        // The trajectory stays machine-readable: nothing is appended to a
        // file holding a line this parser rejects.
        let existing = fs::read_to_string(&path).unwrap_or_default();
        for (i, l) in existing.lines().enumerate() {
            HistoryLine::parse(l).map_err(|e| format!("{HISTORY} line {}: {e}", i + 1))?;
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        file.write_all(lines.as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("bench-ab: recorded base and head in {HISTORY}");
    }
    Ok(all_same)
}

/// Per end-to-end metric, the spread of one side's untraced runs.
fn side_spreads(
    runs: &WorkloadRuns,
    metrics: &[EndToEnd],
    side: fn(&(Run, Run)) -> &Run,
) -> Vec<(String, Spread)> {
    (metrics.iter())
        .map(|m| {
            let values: Vec<f64> = (runs.pairs.iter())
                .map(|p| side(p).result.metric(&m.name).unwrap_or(f64::NAN))
                .collect();
            (m.name.clone(), Spread::of(&values))
        })
        .collect()
}

/// One side's [`HistoryLine`] on this machine.
fn history_line(
    commit: &str,
    uncommitted: bool,
    opts: &Options,
    load: (f64, f64),
    workloads: Vec<(String, Vec<(String, Spread)>)>,
) -> HistoryLine {
    let docs_per_s = |name: &str| {
        let (_, metrics) = workloads.iter().find(|(w, _)| w == name)?;
        let (_, spread) = metrics.iter().find(|(m, _)| m == "docs_per_s")?;
        Some(spread.median)
    };
    let ratio = docs_per_s("feed_pipelined")
        .zip(docs_per_s("feed_selective"))
        .map(|(p, s)| p / s)
        .filter(|r| r.is_finite());
    HistoryLine {
        commit: commit.to_owned(),
        uncommitted,
        cpu: cpu_model(),
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
        seed: opts.seed,
        pairs: opts.pairs,
        seconds: opts.seconds,
        load,
        workloads,
        pipelined_over_selective: ratio,
    }
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
        assert!(!o.record);
        let o = parse_options(&args("abc --record --workloads a")).unwrap();
        assert!(o.record);
        assert_eq!(o.workloads, ["a"]);
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

    fn sample_line() -> HistoryLine {
        let spread = |median: f64| Spread {
            q1: median - 1.5,
            median,
            q3: median + 2.25,
        };
        HistoryLine {
            commit: "0103566".into(),
            uncommitted: true,
            cpu: "Some \"quoted\" CPU @ 2.00GHz\t".into(),
            nproc: 2,
            seed: 1,
            pairs: 10,
            seconds: 4.0,
            load: (1.25, f64::NAN),
            workloads: vec![
                (
                    "feed_pipelined".into(),
                    vec![("docs_per_s".into(), spread(30_000.0))],
                ),
                (
                    "feed_selective".into(),
                    vec![
                        ("docs_per_s".into(), spread(60_000.0)),
                        ("batch_p50_ms".into(), spread(0.4753)),
                    ],
                ),
            ],
            pipelined_over_selective: Some(0.5),
        }
    }

    /// A line reads back as what was written: NaN as `null`, the ratio
    /// absent as `null`, strings escaped, workloads and metrics in order.
    #[test]
    fn history_lines_round_trip() {
        let line = sample_line();
        let json = line.to_json();
        assert!(!json.contains('\n'), "{json}");
        assert!(json.starts_with(r#"{"commit": "0103566", "uncommitted": true, "cpu": "Some \"quoted\" CPU @ 2.00GHz\u0009", "nproc": 2,"#), "{json}");
        assert!(
            json.contains(r#""load": {"before": 1.25, "after": null}"#),
            "{json}"
        );
        assert!(json.contains(r#""feed_selective": {"docs_per_s": {"median": 60000, "q1": 59998.5, "q3": 60002.25}, "batch_p50_ms": {"#), "{json}");
        assert!(
            json.ends_with(r#""pipelined_over_selective": 0.5}"#),
            "{json}"
        );
        let back = HistoryLine::parse(&json).unwrap();
        assert!(back.load.1.is_nan());
        let same = |a: &HistoryLine, b: &HistoryLine| {
            let strip = |l: &HistoryLine| HistoryLine {
                load: (l.load.0, 0.0),
                ..l.clone()
            };
            strip(a) == strip(b)
        };
        assert!(same(&back, &line), "{back:?}");

        let none = HistoryLine {
            pipelined_over_selective: None,
            workloads: Vec::new(),
            ..line
        };
        let json = none.to_json();
        assert!(json.contains(r#""workloads": {}, "pipelined_over_selective": null}"#));
        assert!(same(&HistoryLine::parse(&json).unwrap(), &none));
    }

    #[test]
    fn malformed_history_lines_are_rejected() {
        let good = sample_line().to_json();
        for bad in [
            String::new(),
            good.replace("\"nproc\": 2", "\"nproc\": 2.5"),
            good.replace("\"uncommitted\": true", "\"uncommitted\": 1"),
            good.replace("\"commit\": \"0103566\", ", ""),
            good.replace("\"q3\"", "\"q4\""),
            good.replace("\"load\": {", "\"load\": ["),
            format!("{good} trailing"),
            good[..good.len() - 1].to_owned(),
        ] {
            assert!(HistoryLine::parse(&bad).is_err(), "{bad}");
        }
    }

    /// The checked-in trajectory parses, a base line before each head line.
    #[test]
    fn the_checked_in_history_parses() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let history = fs::read_to_string(root.join(HISTORY)).unwrap();
        let lines: Vec<HistoryLine> = (history.lines())
            .map(|l| HistoryLine::parse(l).unwrap())
            .collect();
        assert!(lines.len() >= 2, "{} lines", lines.len());
        for line in &lines {
            assert!(!line.workloads.is_empty() && line.nproc > 0, "{line:?}");
        }
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

//! Workspace lint pass, run as `cargo run -p xtask -- lint`.
//!
//! Eighteen dependency-free static checks over the workspace sources:
//!
//! 1. **Panic-free hot paths** — non-test code in `crates/core/src`,
//!    `crates/relational/src`, `crates/xml/src`, `crates/xpath/src` and
//!    `crates/workload/src` must not call `.unwrap()`, `.expect(…)` or
//!    `panic!(…)`. A site can be waived with a `// lint:allow <reason>`
//!    comment on the same line or the line directly above; the reason is
//!    mandatory so every waiver documents why the invariant cannot fail.
//! 2. **`#![forbid(unsafe_code)]`** — every workspace member's crate root
//!    must carry the attribute, vendored stubs included.
//! 3. **`EngineStats` / `PhaseTimings` AddAssign parity** — every field
//!    declared on the structs in `crates/core/src/stats.rs` must be folded
//!    in the matching `AddAssign` impl (and vice versa), so sharded stats
//!    aggregation can never silently drop a counter.
//! 4. **CI env-var consistency** — every `MMQJP_*` variable named in
//!    `.github/workflows/ci.yml` (set or merely mentioned) must be named
//!    somewhere under `crates/` or `tests/`, so a knob deleted from the code
//!    cannot linger in the workflow.
//! 5. **Stage 1 stays in id space** — non-test code in `crates/core/src`
//!    must not name `EdgeBinding`: the engines' front emits integer witness
//!    rows, and the string-carrying binding type is the `mmqjp-xpath`
//!    reference's output only.
//! 6. **XML whitespace is four bytes** — non-test code in `crates/xml/src`
//!    must not call `.trim()`, `.trim_start()`, `.trim_end()` or
//!    `is_whitespace`: XML's `S` is space, tab, CR and LF, and Unicode
//!    trimming once dropped no-break-space text as formatting.
//! 7. **No per-row tuple on the batch path** — non-test code in
//!    `crates/core/src/{relations,state,engine,router}.rs` and
//!    `crates/core/src/front/stage.rs` must not call
//!    `into_rows` or `push_values(vec![…])`: witness rows enter columns as
//!    fixed-width arrays and move into window state run by run.
//! 8. **Allocation-free plan execution** — non-test code in
//!    `crates/relational/src/plan.rs` must not call `.collect`,
//!    `Vec::new(`, `vec![`, `Vec::with_capacity(` or `.to_vec(`: an
//!    execution allocates nothing but its result relation, every other
//!    buffer lives in the pooled `ExecScratch`. The bodies of the
//!    registration-time `compile` and the once-per-batch `from_segmented`
//!    are exempt.
//! 9. **The relational oracle stays independent** — non-test code in
//!    `tests/src/reference.rs`, the nested-loop evaluator that judges
//!    compiled plans, may import from `mmqjp_relational` only the data
//!    model (`Relation`, `RowRef`, `Schema`, `Value`, `ConjunctiveQuery`,
//!    `Atom`, `Term`) and must not name `PhysicalPlan`, `PlanInput`,
//!    `ExecScratch`, `ChunkedRows`, `Fx*`, `verify`, `HashMap` or
//!    `HashSet`: a reference built from the kernel's parts, or on hashing,
//!    would repeat the kernel's failure modes.
//! 10. **Registering a known shape derives nothing** — non-test code in
//!     `crates/core/src/registry.rs` may call `normalize_query(`,
//!     `ReducedGraph::from_join_graph(` and `catalog.insert(` only inside
//!     the shape-building functions `build_shape` and the pure
//!     `derive_shape` it shares with the audit: a registration whose
//!     `FROM` clause is live must reuse its memoized shape, not re-derive it.
//!
//! 11. **Stage 1 emits without allocating** — non-test code in
//!     `crates/core/src/front.rs` must not call `Vec::new(`, `vec![`,
//!     `.collect(` or `chain_pairs(`, nor name `HashSet`: a document's
//!     witness rows are read off the compiled emission plan into pooled
//!     buffers, and chains are composed in `ChainScratch`, not collected.
//!     Exempt are the bodies of the plan compiler `compile` and the
//!     single-block answers `emit_singles` (each match owns its bindings).
//!
//! 12. **One Stage-1 subscription table** — non-test code in
//!     `crates/core/src` outside the table's module
//!     (`crates/core/src/front/table.rs`) must not mutate a `PatternIndex`
//!     or `RequestedEdges` — no `index.register(`, `index.retain(`,
//!     `index.unregister(`, `requested.push(`, `requested.remove`,
//!     `requested_edges.push(`, `requested_edges.remove` or
//!     `invalidate_plan(` — nor name `edge_refs`: both engines' fronts
//!     subscribe, release and audit through one `Stage1Table`, not through
//!     copies kept in step.
//!
//! 13. **`RT` changes move its version** — non-test code in
//!     `crates/core/src/registry.rs` may call `.rt.push_values(` and
//!     `.rt.remove_row(` only inside `TemplateRuntime`'s `push_rt_row` and
//!     `remove_rt_row`, the two mutators that move `rt_version`: a template
//!     plan keeps its join table over `RT` while that version holds, so a
//!     change that skipped it would leave the table stale.
//!
//! 14. **Stage-1 state lives in the front** — non-test code in
//!     `crates/core/src/registry.rs` must not name `Stage1Table`,
//!     `SingleBlock` or `Subscriptions`, and non-test code in
//!     `crates/core/src` outside `crates/core/src/front/` must not call
//!     `screen_and_stamp(`: the registry returns a query's Stage-1
//!     footprint for its engine's `front::Front` to subscribe, and only the
//!     front screens a batch.
//!
//! 15. **One batch path** — non-test code in `crates/core/src` may call a
//!     join stage's `process`, `register` and `unregister` (`join.process(`,
//!     `join.register(`, `join.unregister(`) only inside the shard-serving
//!     function `serve`, and non-test `crates/core/src/engine.rs` must not
//!     call `front.run(`: both engines run every shard request through the
//!     pipeline's one `serve`, and the single engine has no batch body of
//!     its own.
//!
//! 16. **One worker kind** — in non-test code in `crates/core/src`,
//!     `catch_unwind(` and `thread::Builder` each appear at exactly one
//!     site: the shard worker loop contains panics, and the shard worker's
//!     spawn is the only thread the engines start. Stage 1 runs on the
//!     caller's thread; a second kind of worker would bring back a second
//!     request protocol and a second failure mode.
//!
//! 17. **One retention cutoff** — in non-test code in `crates/core/src`,
//!     `evict_below(` appears only inside `JoinState::evict` (in
//!     `state.rs`), and `engine.rs` calls `.evict(` exactly once, inside
//!     `maintain_state`: a bucket's rows, chains and documents leave
//!     together, at the one cutoff the matching rule is measured against,
//!     so no second eviction pass can change a result.
//!
//! 18. **One query-id minter** — in non-test code in `crates/core/src`,
//!     `QueryId(` is constructed only inside `Pipeline::register` (in
//!     `pipeline.rs`), which mints every id, and the registry's rid decoder
//!     `resolve_rid` (in `registry.rs`): every other layer files a query
//!     under the id it was handed, so no second id space can grow beside it.
//!
//! Exit code 0 when clean, 1 with one line per violation otherwise.

#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = workspace_root();
    match std::env::args().nth(1).as_deref() {
        Some("lint") => run_lint(&root),
        other => {
            eprintln!(
                "usage: cargo run -p xtask -- lint   (got {:?})",
                other.unwrap_or("<none>")
            );
            ExitCode::from(2)
        }
    }
}

/// The workspace root is the parent of the xtask crate directory.
fn workspace_root() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    Path::new(&manifest)
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn run_lint(root: &Path) -> ExitCode {
    let mut violations = Vec::new();
    check_panic_free(root, &mut violations);
    check_forbid_unsafe(root, &mut violations);
    check_stats_parity(root, &mut violations);
    check_ci_env_vars(root, &mut violations);
    check_id_space_front(root, &mut violations);
    check_xml_whitespace(root, &mut violations);
    check_columnar_batch_path(root, &mut violations);
    check_plan_execution_allocations(root, &mut violations);
    check_oracle_independence(root, &mut violations);
    check_shape_derivation(root, &mut violations);
    check_emission_allocations(root, &mut violations);
    check_stage1_table(root, &mut violations);
    check_rt_versioning(root, &mut violations);
    check_front_owns_stage1(root, &mut violations);
    check_one_batch_path(root, &mut violations);
    check_one_worker_kind(root, &mut violations);
    check_one_retention_cutoff(root, &mut violations);
    check_one_query_id_minter(root, &mut violations);

    if violations.is_empty() {
        println!("xtask lint: all checks passed");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("lint: {v}");
        }
        eprintln!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// Check 1: no unwrap/expect/panic in non-test core + relational code.
// ---------------------------------------------------------------------------

/// Directories (scanned recursively) or single files held to the
/// panic-free rule. Everything that runs inside a worker thread of the
/// sharded topology is covered wholesale — `xml`, `xpath` and `workload`
/// joined the rule with the self-healing pipeline, since a panic anywhere in
/// parse, match or generated-workload code is contained but still costs a
/// shard respawn.
const PANIC_FREE_PATHS: &[&str] = &[
    "crates/core/src",
    "crates/relational/src",
    "crates/xml/src",
    "crates/xpath/src",
    "crates/workload/src",
];
const BANNED: &[&str] = &[".unwrap()", ".expect(", "panic!("];

fn check_panic_free(root: &Path, out: &mut Vec<String>) {
    for path in PANIC_FREE_PATHS {
        let target = root.join(path);
        if target.is_file() {
            scan_file_for_panics(root, &target, out);
        } else {
            for file in rust_files(&target) {
                scan_file_for_panics(root, &file, out);
            }
        }
    }
}

fn scan_file_for_panics(root: &Path, file: &Path, out: &mut Vec<String>) {
    let Ok(text) = fs::read_to_string(file) else {
        out.push(format!("{}: unreadable", rel(root, file)));
        return;
    };
    let mut prev: &str = "";
    for (idx, line) in text.lines().enumerate() {
        if starts_test_module(prev, line) {
            break;
        }
        let waived = line.contains("lint:allow") || prev.contains("lint:allow");
        let trimmed = line.trim_start();
        if !trimmed.starts_with("//") && !waived {
            for pat in BANNED {
                if line.contains(pat) {
                    out.push(format!(
                        "{}:{}: `{}` in non-test code (add `// lint:allow <reason>` if the invariant is airtight)",
                        rel(root, file),
                        idx + 1,
                        pat
                    ));
                }
            }
        }
        prev = line;
    }
}

/// Everything from `#[cfg(test)] mod tests` onward is test code; the
/// unit-test modules in this workspace are the trailing item of their files.
/// An inline `#[cfg(test)]` attribute on a single method must NOT stop a
/// scan, so only the module form ends it.
fn starts_test_module(prev: &str, line: &str) -> bool {
    prev.trim_start().starts_with("#[cfg(test)]") && line.trim_start().starts_with("mod tests")
}

// ---------------------------------------------------------------------------
// Check 2: #![forbid(unsafe_code)] in every member crate root.
// ---------------------------------------------------------------------------

fn check_forbid_unsafe(root: &Path, out: &mut Vec<String>) {
    for member in workspace_members(root, out) {
        let crate_dir = root.join(&member);
        let Some(crate_root) = crate_root_file(&crate_dir) else {
            out.push(format!(
                "{member}: cannot locate crate root (lib.rs/main.rs)"
            ));
            continue;
        };
        match fs::read_to_string(&crate_root) {
            Ok(text) if text.contains("#![forbid(unsafe_code)]") => {}
            Ok(_) => out.push(format!(
                "{}: missing `#![forbid(unsafe_code)]`",
                rel(root, &crate_root)
            )),
            Err(_) => out.push(format!("{}: unreadable", rel(root, &crate_root))),
        }
    }
}

/// Parse the `members = [...]` list out of the root Cargo.toml. Good enough
/// for this workspace's hand-written manifest; not a general TOML parser.
fn workspace_members(root: &Path, out: &mut Vec<String>) -> Vec<String> {
    let manifest = root.join("Cargo.toml");
    let Ok(text) = fs::read_to_string(&manifest) else {
        out.push("Cargo.toml: unreadable".into());
        return Vec::new();
    };
    let mut members = Vec::new();
    let mut in_list = false;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with("members") && t.contains('[') {
            in_list = true;
        }
        if in_list {
            for piece in t.split('"').skip(1).step_by(2) {
                members.push(piece.to_owned());
            }
            if t.contains(']') {
                break;
            }
        }
    }
    if members.is_empty() {
        out.push("Cargo.toml: found no workspace members".into());
    }
    members
}

/// Resolve a member's crate-root source file: an explicit `[lib] path`,
/// else `src/lib.rs`, else `lib.rs` beside the manifest, else `src/main.rs`.
fn crate_root_file(crate_dir: &Path) -> Option<PathBuf> {
    if let Ok(manifest) = fs::read_to_string(crate_dir.join("Cargo.toml")) {
        let mut in_lib = false;
        for line in manifest.lines() {
            let t = line.trim();
            if t.starts_with('[') {
                in_lib = t == "[lib]";
            } else if in_lib && t.starts_with("path") {
                if let Some(p) = t.split('"').nth(1) {
                    return Some(crate_dir.join(p));
                }
            }
        }
    }
    for candidate in ["src/lib.rs", "lib.rs", "src/main.rs"] {
        let p = crate_dir.join(candidate);
        if p.is_file() {
            return Some(p);
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Check 3: struct fields vs AddAssign body in crates/core/src/stats.rs.
// ---------------------------------------------------------------------------

fn check_stats_parity(root: &Path, out: &mut Vec<String>) {
    let path = root.join("crates/core/src/stats.rs");
    let Ok(text) = fs::read_to_string(&path) else {
        out.push("crates/core/src/stats.rs: unreadable".into());
        return;
    };
    for name in ["PhaseTimings", "EngineStats"] {
        let declared = struct_fields(&text, name);
        let folded = add_assign_fields(&text, name);
        if declared.is_empty() {
            out.push(format!("stats.rs: found no fields for struct {name}"));
            continue;
        }
        if folded.is_empty() {
            out.push(format!("stats.rs: found no AddAssign body for {name}"));
            continue;
        }
        for f in &declared {
            if !folded.contains(f) {
                out.push(format!(
                    "stats.rs: {name}::{f} is declared but never folded in AddAssign — sharded aggregation drops it"
                ));
            }
        }
        for f in &folded {
            if !declared.contains(f) {
                out.push(format!(
                    "stats.rs: AddAssign for {name} touches unknown field `{f}`"
                ));
            }
        }
    }
}

/// Field names of `pub struct <name> { ... }` (public named fields only).
fn struct_fields(text: &str, name: &str) -> Vec<String> {
    let header = format!("pub struct {name} {{");
    let mut fields = Vec::new();
    let mut in_struct = false;
    for line in text.lines() {
        if line.trim_start().starts_with(&header) {
            in_struct = true;
            continue;
        }
        if in_struct {
            let t = line.trim();
            if t == "}" {
                break;
            }
            if let Some(rest) = t.strip_prefix("pub ") {
                if let Some((field, _ty)) = rest.split_once(':') {
                    fields.push(field.trim().to_owned());
                }
            }
        }
    }
    fields
}

/// Fields assigned via `self.<field> +=` inside `impl AddAssign for <name>`.
fn add_assign_fields(text: &str, name: &str) -> Vec<String> {
    let header = format!("impl AddAssign for {name} {{");
    let mut fields = Vec::new();
    let mut in_impl = false;
    for line in text.lines() {
        if line.trim_start().starts_with(&header) {
            in_impl = true;
            continue;
        }
        if in_impl {
            if line.starts_with('}') {
                break;
            }
            let t = line.trim();
            if let Some(rest) = t.strip_prefix("self.") {
                if let Some((field, _)) = rest.split_once(" +=") {
                    fields.push(field.trim().to_owned());
                }
            }
        }
    }
    fields
}

// ---------------------------------------------------------------------------
// Check 4: MMQJP_* env vars in ci.yml must have a reader in crates/ or tests/.
// ---------------------------------------------------------------------------

fn check_ci_env_vars(root: &Path, out: &mut Vec<String>) {
    let ci = root.join(".github/workflows/ci.yml");
    let Ok(ci_text) = fs::read_to_string(&ci) else {
        out.push(".github/workflows/ci.yml: unreadable".into());
        return;
    };
    let mut sources = String::new();
    for dir in ["crates", "tests"] {
        for file in rust_files(&root.join(dir)) {
            if let Ok(t) = fs::read_to_string(&file) {
                sources.push_str(&t);
            }
        }
    }
    let read = env_var_names(&sources);
    let vars = env_var_names(&ci_text);
    if vars.is_empty() {
        out.push("ci.yml: found no MMQJP_* variables (check the workflow)".into());
    }
    for var in vars {
        if !read.contains(&var) {
            out.push(format!(
                "ci.yml names {var} but nothing under crates/ or tests/ reads it"
            ));
        }
    }
}

/// Every distinct `MMQJP_<IDENT>` token in the text.
fn env_var_names(text: &str) -> Vec<String> {
    const PREFIX: &str = "MMQJP_";
    let mut names: Vec<String> = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(PREFIX) {
        let tail = &rest[pos..];
        let end = tail
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(tail.len());
        let name = tail[..end].to_owned();
        // A bare prefix (as in prose about `MMQJP_*`) names no variable.
        if name.len() > PREFIX.len() && !names.contains(&name) {
            names.push(name);
        }
        rest = &tail[end..];
    }
    names
}

// ---------------------------------------------------------------------------
// Check 5: no `EdgeBinding` in non-test crates/core code.
// ---------------------------------------------------------------------------

const ID_SPACE_PATH: &str = "crates/core/src";
const STRING_BINDING: &str = "EdgeBinding";

fn check_id_space_front(root: &Path, out: &mut Vec<String>) {
    for file in rust_files(&root.join(ID_SPACE_PATH)) {
        scan_file_for_string_bindings(root, &file, out);
    }
}

fn scan_file_for_string_bindings(root: &Path, file: &Path, out: &mut Vec<String>) {
    scan_non_test_code(root, file, out, |line| {
        contains_token(line, STRING_BINDING)
            .then(|| {
                format!(
                    "`{STRING_BINDING}` in non-test core code (Stage 1 emits integer witness rows)"
                )
            })
            .into_iter()
            .collect()
    });
}

/// `true` when `token` occurs in `line` as a whole identifier.
fn contains_token(line: &str, token: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    line.match_indices(token).any(|(at, _)| {
        let before = line[..at].chars().next_back();
        let after = line[at + token.len()..].chars().next();
        !before.is_some_and(ident) && !after.is_some_and(ident)
    })
}

// ---------------------------------------------------------------------------
// Check 6: no Unicode whitespace handling in non-test crates/xml code.
// ---------------------------------------------------------------------------

const XML_PATH: &str = "crates/xml/src";
const UNICODE_WHITESPACE: &[&str] = &[".trim()", ".trim_start()", ".trim_end()", "is_whitespace"];

fn check_xml_whitespace(root: &Path, out: &mut Vec<String>) {
    for file in rust_files(&root.join(XML_PATH)) {
        scan_file_for_unicode_whitespace(root, &file, out);
    }
}

fn scan_file_for_unicode_whitespace(root: &Path, file: &Path, out: &mut Vec<String>) {
    scan_non_test_code(root, file, out, |line| {
        UNICODE_WHITESPACE
            .iter()
            .filter(|pat| line.contains(*pat))
            .map(|pat| {
                format!(
                    "`{pat}` in non-test XML code (XML whitespace is space, tab, CR and LF only)"
                )
            })
            .collect()
    });
}

// ---------------------------------------------------------------------------
// Check 7: no per-row tuple on the core batch path.
// ---------------------------------------------------------------------------

const BATCH_PATH_FILES: &[&str] = &[
    "crates/core/src/relations.rs",
    "crates/core/src/state.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/router.rs",
    "crates/core/src/front/stage.rs",
];
const PER_ROW_TUPLE: &[&str] = &["into_rows", "push_values(vec!["];

fn check_columnar_batch_path(root: &Path, out: &mut Vec<String>) {
    for file in BATCH_PATH_FILES {
        scan_file_for_row_tuples(root, &root.join(file), out);
    }
}

fn scan_file_for_row_tuples(root: &Path, file: &Path, out: &mut Vec<String>) {
    scan_non_test_code(root, file, out, |line| {
        PER_ROW_TUPLE
            .iter()
            .filter(|pat| line.contains(*pat))
            .map(|pat| {
                format!(
                    "`{pat}` in non-test batch-path code (push fixed-width arrays, append runs)"
                )
            })
            .collect()
    });
}

// ---------------------------------------------------------------------------
// Check 8: no allocating call on the plan execution path.
// ---------------------------------------------------------------------------

const PLAN_FILE: &str = "crates/relational/src/plan.rs";
/// Functions of the plan file that run at registration time or once per
/// batch, not once per execution.
const PLAN_SETUP_FNS: &[&str] = &["fn compile(", "fn from_segmented("];
const ALLOCATING: &[&str] = &[
    ".collect",
    "Vec::new(",
    "vec![",
    "Vec::with_capacity(",
    ".to_vec(",
];

fn check_plan_execution_allocations(root: &Path, out: &mut Vec<String>) {
    scan_file_for_allocations(root, &root.join(PLAN_FILE), out);
}

fn scan_file_for_allocations(root: &Path, file: &Path, out: &mut Vec<String>) {
    scan_outside_fns(
        root,
        file,
        out,
        PLAN_SETUP_FNS,
        ALLOCATING,
        "in non-test plan code (executions allocate only the result; pool the buffer in `ExecScratch`)",
    );
}

/// Report `` `pattern` why `` for every `banned` pattern on a non-test line
/// outside the bodies of the `exempt` functions (named by their `fn name(`
/// prefix; the body is tracked by brace depth).
fn scan_outside_fns(
    root: &Path,
    file: &Path,
    out: &mut Vec<String>,
    exempt: &[&str],
    banned: &[&str],
    why: &str,
) {
    // Brace depth inside an exempt function's body; `None` outside one.
    let mut inside: Option<i64> = None;
    scan_non_test_code(root, file, out, |line| {
        let depth = inside
            .take()
            .or_else(|| exempt.iter().any(|f| line.contains(f)).then_some(0));
        if let Some(mut depth) = depth {
            let opened = depth > 0 || line.contains('{');
            depth += brace_delta(line);
            // The signature may span lines: the body ends when the depth
            // returns to zero after its opening brace.
            inside = (!opened || depth > 0).then_some(depth);
            return Vec::new();
        }
        banned
            .iter()
            .filter(|pat| line.contains(*pat))
            .map(|pat| format!("`{pat}` {why}"))
            .collect()
    });
}

/// `{` minus `}` on a line, outside string literals.
fn brace_delta(line: &str) -> i64 {
    let (mut delta, mut in_str, mut escaped) = (0, false, false);
    for c in line.chars() {
        match (in_str, escaped, c) {
            (true, true, _) => escaped = false,
            (true, false, '\\') => escaped = true,
            (_, false, '"') => in_str = !in_str,
            (false, _, '{') => delta += 1,
            (false, _, '}') => delta -= 1,
            _ => {}
        }
    }
    delta
}

// ---------------------------------------------------------------------------
// Check 9: the nested-loop reference uses only the relational data model.
// ---------------------------------------------------------------------------

const ORACLE_FILE: &str = "tests/src/reference.rs";
const ORACLE_CRATE: &str = "mmqjp_relational::";
const ORACLE_IMPORTS: &[&str] = &[
    "Relation",
    "RowRef",
    "Schema",
    "Value",
    "ConjunctiveQuery",
    "Atom",
    "Term",
];
const ORACLE_BANNED: &[&str] = &[
    "PhysicalPlan",
    "PlanInput",
    "ExecScratch",
    "ChunkedRows",
    "Fx",
    "verify",
    "HashMap",
    "HashSet",
];

fn check_oracle_independence(root: &Path, out: &mut Vec<String>) {
    scan_file_for_oracle_imports(root, &root.join(ORACLE_FILE), out);
}

fn scan_file_for_oracle_imports(root: &Path, file: &Path, out: &mut Vec<String>) {
    // Inside a `mmqjp_relational::{` list that spans lines.
    let mut in_list = false;
    scan_non_test_code(root, file, out, |line| {
        let mut messages: Vec<String> = ORACLE_BANNED
            .iter()
            .filter(|pat| line.contains(*pat))
            .map(|pat| {
                format!("`{pat}` in the nested-loop reference (it must share no machinery with the kernel it judges)")
            })
            .collect();
        let imported = if in_list {
            Some(line)
        } else {
            line.find(ORACLE_CRATE)
                .map(|at| &line[at + ORACLE_CRATE.len()..])
        };
        if let Some(names) = imported {
            let names = match names.strip_prefix('{') {
                Some(list) => {
                    in_list = true;
                    list
                }
                None if in_list => names,
                // A single path: only its first segment is the import.
                None => names.split("::").next().unwrap_or(names),
            };
            let names = match names.split_once('}') {
                Some((list, _)) => {
                    in_list = false;
                    list
                }
                None => names,
            };
            for name in names
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '*'))
                .filter(|n| !n.is_empty() && !ORACLE_IMPORTS.contains(n))
            {
                messages.push(format!(
                    "`{name}` imported from mmqjp_relational into the nested-loop reference (only the data model may be)"
                ));
            }
        }
        messages
    });
}

// ---------------------------------------------------------------------------
// Check 10: the registry derives a query shape only when it builds one.
// ---------------------------------------------------------------------------

const REGISTRY_FILE: &str = "crates/core/src/registry.rs";
/// The registry's shape-building function and the pure derivation it shares
/// with the audit.
const SHAPE_FNS: &[&str] = &["fn build_shape(", "fn derive_shape("];
const SHAPE_DERIVATION: &[&str] = &[
    "normalize_query(",
    "ReducedGraph::from_join_graph(",
    "catalog.insert(",
];

fn check_shape_derivation(root: &Path, out: &mut Vec<String>) {
    scan_file_for_shape_derivation(root, &root.join(REGISTRY_FILE), out);
}

fn scan_file_for_shape_derivation(root: &Path, file: &Path, out: &mut Vec<String>) {
    scan_outside_fns(
        root,
        file,
        out,
        SHAPE_FNS,
        SHAPE_DERIVATION,
        "outside the registry's shape-building functions (a live clause reuses its memoized shape)",
    );
}

// ---------------------------------------------------------------------------
// Check 11: Stage 1's witness-row emission allocates nothing per document.
// ---------------------------------------------------------------------------

const FRONT_FILE: &str = "crates/core/src/front.rs";
/// Functions of the front that compile the plan or answer single-block
/// subscriptions.
const EMISSION_SETUP_FNS: &[&str] = &["fn compile(", "fn emit_singles("];
const EMISSION_ALLOCATING: &[&str] =
    &["Vec::new(", "vec![", ".collect(", "HashSet", "chain_pairs("];

fn check_emission_allocations(root: &Path, out: &mut Vec<String>) {
    scan_file_for_emission_allocations(root, &root.join(FRONT_FILE), out);
}

fn scan_file_for_emission_allocations(root: &Path, file: &Path, out: &mut Vec<String>) {
    scan_outside_fns(
        root,
        file,
        out,
        EMISSION_SETUP_FNS,
        EMISSION_ALLOCATING,
        "on Stage 1's emission path (read the compiled plan, pool buffers in `MatchScratch`)",
    );
}

// ---------------------------------------------------------------------------
// Check 12: Stage-1 subscription state changes only inside its table.
// ---------------------------------------------------------------------------

const CORE_SRC: &str = "crates/core/src";
const STAGE1_TABLE_FILE: &str = "crates/core/src/front/table.rs";
const STAGE1_MUTATIONS: &[&str] = &[
    "index.register(",
    "index.retain(",
    "index.unregister(",
    "requested.push(",
    "requested.remove",
    "requested_edges.push(",
    "requested_edges.remove",
    "invalidate_plan(",
    "edge_refs",
];

fn check_stage1_table(root: &Path, out: &mut Vec<String>) {
    let table = root.join(STAGE1_TABLE_FILE);
    for file in rust_files(&root.join(CORE_SRC)) {
        if file != table {
            scan_file_for_stage1_mutations(root, &file, out);
        }
    }
}

fn scan_file_for_stage1_mutations(root: &Path, file: &Path, out: &mut Vec<String>) {
    scan_non_test_code(root, file, out, |line| {
        STAGE1_MUTATIONS
            .iter()
            .filter(|pat| line.contains(*pat))
            .map(|pat| {
                format!("`{pat}` outside the Stage-1 table (subscribe and release through `Stage1Table`)")
            })
            .collect()
    });
}

// ---------------------------------------------------------------------------
// Check 13: a template's RT changes only where its version moves.
// ---------------------------------------------------------------------------

/// The `TemplateRuntime` mutators that move `rt_version` with `RT`.
const RT_VERSIONED_FNS: &[&str] = &["fn push_rt_row(", "fn remove_rt_row("];
const RT_MUTATIONS: &[&str] = &[".rt.push_values(", ".rt.remove_row("];

fn check_rt_versioning(root: &Path, out: &mut Vec<String>) {
    scan_file_for_rt_mutations(root, &root.join(REGISTRY_FILE), out);
}

fn scan_file_for_rt_mutations(root: &Path, file: &Path, out: &mut Vec<String>) {
    scan_outside_fns(
        root,
        file,
        out,
        RT_VERSIONED_FNS,
        RT_MUTATIONS,
        "outside the version-moving `RT` mutators (a plan's kept `RT` table would go stale)",
    );
}

// ---------------------------------------------------------------------------
// Check 14: Stage-1 state lives in the front.
// ---------------------------------------------------------------------------

/// Stage-1 types the registry must not name: it returns footprints, the
/// front subscribes them.
const FRONT_TYPES: &[&str] = &["Stage1Table", "SingleBlock", "Subscriptions"];
const FRONT_DIR: &str = "crates/core/src/front";
const SCREENING: &str = "screen_and_stamp(";

fn check_front_owns_stage1(root: &Path, out: &mut Vec<String>) {
    scan_file_for_front_types(root, &root.join(REGISTRY_FILE), out);
    let front = root.join(FRONT_DIR);
    for file in rust_files(&root.join(CORE_SRC)) {
        if !file.starts_with(&front) {
            scan_file_for_screening(root, &file, out);
        }
    }
}

fn scan_file_for_front_types(root: &Path, file: &Path, out: &mut Vec<String>) {
    scan_non_test_code(root, file, out, |line| {
        FRONT_TYPES
            .iter()
            .filter(|token| contains_token(line, token))
            .map(|token| {
                format!("`{token}` in the registry (return the footprint; the front subscribes it)")
            })
            .collect()
    });
}

fn scan_file_for_screening(root: &Path, file: &Path, out: &mut Vec<String>) {
    scan_non_test_code(root, file, out, |line| {
        if line.contains(SCREENING) {
            vec![format!(
                "`{SCREENING}` outside the front (screen a batch with `Front::screen`)"
            )]
        } else {
            Vec::new()
        }
    });
}

// ---------------------------------------------------------------------------
// Check 15: one batch path.
// ---------------------------------------------------------------------------

/// The shard-serving function: the one caller of a join stage's request
/// methods.
const SERVING_FNS: &[&str] = &["fn serve("];
const JOIN_STAGE_CALLS: &[&str] = &["join.process(", "join.register(", "join.unregister("];
const ENGINE_FILE: &str = "crates/core/src/engine.rs";
const FRONT_RUN: &str = "front.run(";

fn check_one_batch_path(root: &Path, out: &mut Vec<String>) {
    for file in rust_files(&root.join(CORE_SRC)) {
        scan_file_for_join_stage_calls(root, &file, out);
    }
    scan_file_for_front_run(root, &root.join(ENGINE_FILE), out);
}

fn scan_file_for_join_stage_calls(root: &Path, file: &Path, out: &mut Vec<String>) {
    scan_outside_fns(
        root,
        file,
        out,
        SERVING_FNS,
        JOIN_STAGE_CALLS,
        "outside the shard-serving `serve` (every shard request runs there)",
    );
}

fn scan_file_for_front_run(root: &Path, file: &Path, out: &mut Vec<String>) {
    scan_non_test_code(root, file, out, |line| {
        if line.contains(FRONT_RUN) {
            vec![format!(
                "`{FRONT_RUN}` in the single engine (its batches run through the pipeline)"
            )]
        } else {
            Vec::new()
        }
    });
}

// ---------------------------------------------------------------------------
// Check 16: one worker kind.
// ---------------------------------------------------------------------------

/// Each pattern with the one site allowed to contain it.
const WORKER_SITES: &[(&str, &str)] = &[
    ("catch_unwind(", "the shard worker loop"),
    ("thread::Builder", "the shard worker's spawn"),
];

fn check_one_worker_kind(root: &Path, out: &mut Vec<String>) {
    scan_files_for_worker_sites(root, &rust_files(&root.join(CORE_SRC)), out);
}

/// Every non-test site of each [`WORKER_SITES`] pattern across `files`:
/// anything but exactly one is a violation, reported at each site found.
fn scan_files_for_worker_sites(root: &Path, files: &[PathBuf], out: &mut Vec<String>) {
    for &(pattern, owner) in WORKER_SITES {
        let mut sites = Vec::new();
        for file in files {
            scan_non_test_code(root, file, &mut sites, |line| {
                if line.contains(pattern) {
                    vec![format!("`{pattern}`")]
                } else {
                    Vec::new()
                }
            });
        }
        match sites.len() {
            1 => {}
            0 => out.push(format!(
                "{CORE_SRC}: no `{pattern}` site; {owner} must have it"
            )),
            n => out.extend(sites.into_iter().map(|site| {
                format!("{site} is one of {n} sites; only {owner} may have it (one worker kind)")
            })),
        }
    }
}

// ---------------------------------------------------------------------------
// Check 17: one retention cutoff.
// ---------------------------------------------------------------------------

const STATE_FILE: &str = "crates/core/src/state.rs";
const EVICT_FN: &str = "fn evict(";
const SEGMENT_EVICTION: &str = "evict_below(";
const MAINTENANCE_FN: &str = "fn maintain_state(";
const STATE_EVICTION: &str = ".evict(";

fn check_one_retention_cutoff(root: &Path, out: &mut Vec<String>) {
    let state = root.join(STATE_FILE);
    for file in rust_files(&root.join(CORE_SRC)) {
        scan_file_for_segment_eviction(root, &file, file == state, out);
    }
    scan_file_for_state_eviction(root, &root.join(ENGINE_FILE), out);
}

/// `evict_below(` in `file`, allowed only inside `JoinState::evict` when
/// `file` is the state module.
fn scan_file_for_segment_eviction(root: &Path, file: &Path, is_state: bool, out: &mut Vec<String>) {
    let exempt: &[&str] = if is_state { &[EVICT_FN] } else { &[] };
    scan_outside_fns(
        root,
        file,
        out,
        exempt,
        &[SEGMENT_EVICTION],
        "outside `JoinState::evict` (rows, chains and documents leave together)",
    );
}

/// `.evict(` in `file`: exactly one call, inside `maintain_state`.
fn scan_file_for_state_eviction(root: &Path, file: &Path, out: &mut Vec<String>) {
    let mut outside = Vec::new();
    scan_outside_fns(
        root,
        file,
        &mut outside,
        &[MAINTENANCE_FN],
        &[STATE_EVICTION],
        "outside `maintain_state` (the join stage evicts at one cutoff)",
    );
    let mut sites = Vec::new();
    scan_non_test_code(root, file, &mut sites, |line| {
        if line.contains(STATE_EVICTION) {
            vec![String::new()]
        } else {
            Vec::new()
        }
    });
    let inside = sites.len() - outside.len();
    if inside != 1 {
        out.push(format!(
            "{}: {inside} `{STATE_EVICTION}` calls in `maintain_state`; exactly one evicts at the retention cutoff",
            rel(root, file)
        ));
    }
    out.extend(outside);
}

// ---------------------------------------------------------------------------
// Check 18: one query-id minter.
// ---------------------------------------------------------------------------

/// Each file with the one function in it allowed to construct a query id.
const QUERY_ID_SITES: &[(&str, &str)] = &[
    ("crates/core/src/pipeline.rs", "fn register("),
    (REGISTRY_FILE, "fn resolve_rid("),
];
const QUERY_ID_CTOR: &str = "QueryId(";

fn check_one_query_id_minter(root: &Path, out: &mut Vec<String>) {
    for file in rust_files(&root.join(CORE_SRC)) {
        let exempt: Vec<&str> = (QUERY_ID_SITES.iter())
            .filter(|(site, _)| root.join(site) == file)
            .map(|&(_, function)| function)
            .collect();
        scan_file_for_query_ids(root, &file, &exempt, out);
    }
}

/// `QueryId(` in `file` outside the bodies of the `exempt` functions.
fn scan_file_for_query_ids(root: &Path, file: &Path, exempt: &[&str], out: &mut Vec<String>) {
    scan_outside_fns(
        root,
        file,
        out,
        exempt,
        &[QUERY_ID_CTOR],
        "outside `Pipeline::register` and the rid decoder (the pipeline mints every query id)",
    );
}

// ---------------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------------

/// Report `file:line: message` for every message `check` returns on a
/// non-comment line before the file's trailing test module.
fn scan_non_test_code(
    root: &Path,
    file: &Path,
    out: &mut Vec<String>,
    mut check: impl FnMut(&str) -> Vec<String>,
) {
    let Ok(text) = fs::read_to_string(file) else {
        out.push(format!("{}: unreadable", rel(root, file)));
        return;
    };
    let mut prev: &str = "";
    for (idx, line) in text.lines().enumerate() {
        if starts_test_module(prev, line) {
            break;
        }
        if !line.trim_start().starts_with("//") {
            for message in check(line) {
                out.push(format!("{}:{}: {message}", rel(root, file), idx + 1));
            }
        }
        prev = line;
    }
}

/// All `.rs` files under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_var_names_are_extracted_and_deduped() {
        let text = "env:\n  MMQJP_BENCH_SCALE: smoke\n  MMQJP_OTHER: x\n# MMQJP_CHAOS_SEEDS\nMMQJP_BENCH_SCALE again";
        assert_eq!(
            env_var_names(text),
            vec![
                "MMQJP_BENCH_SCALE".to_owned(),
                "MMQJP_OTHER".to_owned(),
                "MMQJP_CHAOS_SEEDS".to_owned()
            ]
        );
    }

    #[test]
    fn struct_and_add_assign_fields_parse() {
        let src = "pub struct Foo {\n    /// doc\n    pub a: usize,\n    pub b: u64,\n}\nimpl AddAssign for Foo {\n    fn add_assign(&mut self, rhs: Self) {\n        self.a += rhs.a;\n        self.b += rhs.b;\n    }\n}\n";
        assert_eq!(struct_fields(src, "Foo"), vec!["a", "b"]);
        assert_eq!(add_assign_fields(src, "Foo"), vec!["a", "b"]);
    }

    #[test]
    fn inline_cfg_test_attr_does_not_stop_the_scan() {
        // A `#[cfg(test)]` attribute on a single item must not hide the
        // unwrap that follows it; only `#[cfg(test)]` + `mod tests` ends
        // the scan.
        let src = "fn a() {\n    #[cfg(test)]\n    fn helper() {}\n    x.unwrap();\n}\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let dir = std::env::temp_dir().join("xtask-lint-test");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("scan_case.rs");
        fs::write(&file, src).unwrap();
        let mut out = Vec::new();
        scan_file_for_panics(&dir, &file, &mut out);
        assert_eq!(out.len(), 1, "violations: {out:?}");
        assert!(out[0].contains("scan_case.rs:4"), "{out:?}");
    }

    #[test]
    fn string_bindings_are_flagged_outside_tests_and_comments() {
        let src = "use mmqjp_xpath::{EdgeBinding, PatternId};\n// an EdgeBinding in a comment\nfn evaluate_edge_bindings() {}\nstruct EdgeBindings;\n#[cfg(test)]\nmod tests {\n    use mmqjp_xpath::EdgeBinding;\n}\n";
        let dir = std::env::temp_dir().join("xtask-lint-test");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("binding_case.rs");
        fs::write(&file, src).unwrap();
        let mut out = Vec::new();
        scan_file_for_string_bindings(&dir, &file, &mut out);
        assert_eq!(out.len(), 1, "violations: {out:?}");
        assert!(out[0].contains("binding_case.rs:1"), "{out:?}");
    }

    #[test]
    fn unicode_whitespace_is_flagged_outside_tests_and_comments() {
        let src = "fn a(s: &str) -> bool {\n    // s.trim() in a comment\n    s.trim_matches(' ').is_empty()\n        || s.trim_end().is_empty()\n        || s.chars().all(char::is_whitespace)\n}\n#[cfg(test)]\nmod tests {\n    fn t(s: &str) { s.trim(); }\n}\n";
        let dir = std::env::temp_dir().join("xtask-lint-test");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("whitespace_case.rs");
        fs::write(&file, src).unwrap();
        let mut out = Vec::new();
        scan_file_for_unicode_whitespace(&dir, &file, &mut out);
        assert_eq!(out.len(), 2, "violations: {out:?}");
        assert!(out[0].contains("whitespace_case.rs:4"), "{out:?}");
        assert!(out[1].contains("whitespace_case.rs:5"), "{out:?}");
    }

    #[test]
    fn per_row_tuples_are_flagged_outside_tests_and_comments() {
        let src = "fn absorb(r: Relation) {\n    for row in r.into_rows() {}\n    // r.into_rows() in a comment\n    out.push_values(vec![a, b])?;\n    out.push_values(row)?;\n    out.push_array([a, b])?;\n}\n#[cfg(test)]\nmod tests {\n    fn t() { r.push_values(vec![a]).unwrap(); }\n}\n";
        let dir = std::env::temp_dir().join("xtask-lint-test");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("row_tuple_case.rs");
        fs::write(&file, src).unwrap();
        let mut out = Vec::new();
        scan_file_for_row_tuples(&dir, &file, &mut out);
        assert_eq!(out.len(), 2, "violations: {out:?}");
        assert!(out[0].contains("row_tuple_case.rs:2"), "{out:?}");
        assert!(out[1].contains("row_tuple_case.rs:4"), "{out:?}");
    }

    #[test]
    fn plan_allocations_are_flagged_outside_setup_functions_and_tests() {
        let src = "pub fn compile(\n    q: &Query,\n) -> Plan {\n    let v: Vec<u32> = Vec::new();\n    let s = format!(\"{{\");\n    q.iter().collect()\n}\nfn execute(&mut self) {\n    let ids = vec![1, 2];\n    // rows.to_vec() in a comment\n    scratch.extend(ids.iter().copied());\n    let t: Vec<_> = it.collect();\n}\nfn from_segmented(r: &R) -> Self {\n    Vec::with_capacity(r.len())\n}\nfn probe() {\n    let w = row.to_vec();\n}\n#[cfg(test)]\nmod tests {\n    fn t() { let v = vec![0]; }\n}\n";
        let dir = std::env::temp_dir().join("xtask-lint-test");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("plan_alloc_case.rs");
        fs::write(&file, src).unwrap();
        let mut out = Vec::new();
        scan_file_for_allocations(&dir, &file, &mut out);
        assert_eq!(out.len(), 3, "violations: {out:?}");
        assert!(out[0].contains("plan_alloc_case.rs:9"), "{out:?}");
        assert!(out[1].contains("plan_alloc_case.rs:12"), "{out:?}");
        assert!(out[2].contains("plan_alloc_case.rs:18"), "{out:?}");
    }

    #[test]
    fn shape_derivation_is_flagged_outside_the_shape_builders() {
        let src = "use mmqjp_xscl::{normalize_query, ReducedGraph};\n// normalize_query(&q) in a comment\nfn build_shape(\n    &mut self,\n) -> Shape {\n    let n = normalize_query(&q)?;\n    self.catalog.insert(&g);\n}\nfn register(&mut self) {\n    let n = normalize_query(&q)?;\n    let g = ReducedGraph::from_join_graph(&j);\n}\nfn derive_shape(q: &Q) -> R {\n    ReducedGraph::from_join_graph(&j)\n}\nfn audit(&self) {\n    self.catalog.insert(&g);\n}\n#[cfg(test)]\nmod tests {\n    fn t() { normalize_query(&q); }\n}\n";
        let dir = std::env::temp_dir().join("xtask-lint-test");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("shape_case.rs");
        fs::write(&file, src).unwrap();
        let mut out = Vec::new();
        scan_file_for_shape_derivation(&dir, &file, &mut out);
        assert_eq!(out.len(), 3, "violations: {out:?}");
        assert!(
            out[0].contains("shape_case.rs:10") && out[0].contains("`normalize_query(`"),
            "{out:?}"
        );
        assert!(
            out[1].contains("shape_case.rs:11") && out[1].contains("from_join_graph"),
            "{out:?}"
        );
        assert!(
            out[2].contains("shape_case.rs:17") && out[2].contains("`catalog.insert(`"),
            "{out:?}"
        );
    }

    #[test]
    fn emission_allocations_are_flagged_outside_the_setup_fns() {
        let src = "use std::collections::HashSet;\nfn compile(\n    index: &PatternIndex,\n) -> Self {\n    let v = Vec::new();\n    path.iter().collect()\n}\nfn emit_rows(plan: &EmitPlan) {\n    for pair in m.chain_pairs(doc, u, a, d) {}\n    let seen: Vec<_> = rows.iter().collect();\n}\nfn emit_singles(s: &[S]) {\n    let b = vec![1];\n}\n#[cfg(test)]\nmod tests {\n    fn t() { let v = Vec::new(); }\n}\n";
        let dir = std::env::temp_dir().join("xtask-lint-test");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("emission_case.rs");
        fs::write(&file, src).unwrap();
        let mut out = Vec::new();
        scan_file_for_emission_allocations(&dir, &file, &mut out);
        assert_eq!(out.len(), 3, "violations: {out:?}");
        assert!(
            out[0].contains("emission_case.rs:1") && out[0].contains("`HashSet`"),
            "{out:?}"
        );
        assert!(
            out[1].contains("emission_case.rs:9") && out[1].contains("`chain_pairs(`"),
            "{out:?}"
        );
        assert!(
            out[2].contains("emission_case.rs:10") && out[2].contains("`.collect(`"),
            "{out:?}"
        );
    }

    #[test]
    fn stage1_mutations_are_flagged_outside_tests_and_comments() {
        let src = "fn subscribe(&mut self) {\n    let pid = self.index.register(p);\n    // front.requested.push(pid, e) in a comment\n    self.requested_edges.remove_edge(pid, e);\n    self.table.subscribe(0, p, &edges, &i)?;\n    self.registry.register(q, mode, 0)?;\n    plan.invalidate_plan();\n}\nstruct Front { edge_refs: Refs }\n#[cfg(test)]\nmod tests {\n    fn t() { index.unregister(pid); }\n}\n";
        let dir = std::env::temp_dir().join("xtask-lint-test");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("stage1_case.rs");
        fs::write(&file, src).unwrap();
        let mut out = Vec::new();
        scan_file_for_stage1_mutations(&dir, &file, &mut out);
        assert_eq!(out.len(), 4, "violations: {out:?}");
        assert!(
            out[0].contains("stage1_case.rs:2") && out[0].contains("`index.register(`"),
            "{out:?}"
        );
        assert!(
            out[1].contains("stage1_case.rs:4") && out[1].contains("`requested_edges.remove`"),
            "{out:?}"
        );
        assert!(
            out[2].contains("stage1_case.rs:7") && out[2].contains("`invalidate_plan(`"),
            "{out:?}"
        );
        assert!(
            out[3].contains("stage1_case.rs:9") && out[3].contains("`edge_refs`"),
            "{out:?}"
        );
    }

    #[test]
    fn stage1_state_is_flagged_outside_the_front() {
        let src = "use crate::front::{Edge, SingleBlock};\n// a Stage1Table in a comment\nstruct Registry {\n    stage1: Stage1Table,\n    subs: Stage1Subscriptions,\n}\nfn batch(&mut self) {\n    let docs = front::screen_and_stamp(docs, &mut seq)?;\n}\n#[cfg(test)]\nmod tests {\n    fn t(t: &Stage1Table) { screen_and_stamp(d).unwrap(); }\n}\n";
        let dir = std::env::temp_dir().join("xtask-lint-test");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("front_case.rs");
        fs::write(&file, src).unwrap();
        let mut out = Vec::new();
        scan_file_for_front_types(&dir, &file, &mut out);
        scan_file_for_screening(&dir, &file, &mut out);
        assert_eq!(out.len(), 3, "violations: {out:?}");
        assert!(
            out[0].contains("front_case.rs:1") && out[0].contains("`SingleBlock`"),
            "{out:?}"
        );
        assert!(
            out[1].contains("front_case.rs:4") && out[1].contains("`Stage1Table`"),
            "{out:?}"
        );
        assert!(
            out[2].contains("front_case.rs:8") && out[2].contains("`screen_and_stamp(`"),
            "{out:?}"
        );
    }

    #[test]
    fn join_stage_requests_are_flagged_outside_serve() {
        let src = "pub(crate) fn serve(\n    shard: &mut Shard,\n) -> CoreResult<Reply> {\n    shard.join.register(q, floor)?;\n    shard.join.process(*routed)?;\n}\nfn register(&mut self) {\n    self.join.register(query, floor)?;\n    // self.join.unregister(id) in a comment\n    self.registry.register(q, mode, 0)?;\n}\nfn process_batch(&mut self) {\n    let batch = self.front.run(docs, |_| None, 1)?;\n    self.join.process(routed)?;\n    stage.join.unregister(id)?;\n}\n#[cfg(test)]\nmod tests {\n    fn t() { e.join.process(b).unwrap(); e.front.run(d, f, 1); }\n}\n";
        let dir = std::env::temp_dir().join("xtask-lint-test");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("batch_path_case.rs");
        fs::write(&file, src).unwrap();
        let mut out = Vec::new();
        scan_file_for_join_stage_calls(&dir, &file, &mut out);
        scan_file_for_front_run(&dir, &file, &mut out);
        assert_eq!(out.len(), 4, "violations: {out:?}");
        assert!(
            out[0].contains("batch_path_case.rs:8") && out[0].contains("`join.register(`"),
            "{out:?}"
        );
        assert!(
            out[1].contains("batch_path_case.rs:14") && out[1].contains("`join.process(`"),
            "{out:?}"
        );
        assert!(
            out[2].contains("batch_path_case.rs:15") && out[2].contains("`join.unregister(`"),
            "{out:?}"
        );
        assert!(
            out[3].contains("batch_path_case.rs:13") && out[3].contains("`front.run(`"),
            "{out:?}"
        );
    }

    #[test]
    fn a_second_worker_kind_is_flagged() {
        let shard = "fn start() {\n    let handle = thread::Builder::new().spawn(body)?;\n}\nfn shard_worker() {\n    let served = catch_unwind(AssertUnwindSafe(|| serve()));\n}\n";
        let front = "use std::panic::{catch_unwind, AssertUnwindSafe};\n// catch_unwind( in a comment\nfn second_worker() {\n    let caught = catch_unwind(AssertUnwindSafe(|| matched()));\n}\n#[cfg(test)]\nmod tests {\n    fn t() { thread::Builder::new(); }\n}\n";
        let dir = std::env::temp_dir().join("xtask-lint-test");
        fs::create_dir_all(&dir).unwrap();
        let (shard_file, front_file) = (dir.join("worker_case.rs"), dir.join("front_case_2.rs"));
        fs::write(&shard_file, shard).unwrap();
        fs::write(&front_file, front).unwrap();

        let mut out = Vec::new();
        scan_files_for_worker_sites(&dir, std::slice::from_ref(&shard_file), &mut out);
        assert!(out.is_empty(), "violations: {out:?}");

        scan_files_for_worker_sites(&dir, &[front_file.clone(), shard_file], &mut out);
        assert_eq!(out.len(), 2, "violations: {out:?}");
        assert!(
            out[0].contains("front_case_2.rs:4") && out[0].contains("`catch_unwind(`"),
            "{out:?}"
        );
        assert!(
            out[1].contains("worker_case.rs:5") && out[1].contains("one of 2 sites"),
            "{out:?}"
        );

        let mut out = Vec::new();
        scan_files_for_worker_sites(&dir, &[front_file], &mut out);
        assert_eq!(out.len(), 1, "violations: {out:?}");
        assert!(out[0].contains("no `thread::Builder` site"), "{out:?}");
    }

    #[test]
    fn a_second_eviction_pass_is_flagged() {
        let state = "impl JoinState {\n    pub fn evict(&mut self, cutoff: u64) -> JoinEviction {\n        for (_, seg) in self.rdoc.evict_below(bucket) {}\n    }\n    fn evict_documents(&mut self) {\n        self.ledger.evict_below(3);\n        // self.rbin.evict_below(4) in a comment\n    }\n}\n#[cfg(test)]\nmod tests {\n    fn t() { s.rdoc.evict_below(1); }\n}\n";
        let engine = "fn maintain_state(&mut self) {\n    let eviction = self.state.evict(cutoff);\n}\nfn unregister(&mut self) {\n    self.state.evict(0);\n}\n#[cfg(test)]\nmod tests {\n    fn t() { s.evict(1); }\n}\n";
        let dir = std::env::temp_dir().join("xtask-lint-test");
        fs::create_dir_all(&dir).unwrap();
        let (state_file, engine_file) = (
            dir.join("evict_state_case.rs"),
            dir.join("evict_engine_case.rs"),
        );
        fs::write(&state_file, state).unwrap();
        fs::write(&engine_file, engine).unwrap();

        let mut out = Vec::new();
        scan_file_for_segment_eviction(&dir, &state_file, true, &mut out);
        assert_eq!(out.len(), 1, "violations: {out:?}");
        assert!(
            out[0].contains("evict_state_case.rs:6") && out[0].contains("`evict_below(`"),
            "{out:?}"
        );
        // Outside the state module no site is allowed.
        let mut out = Vec::new();
        scan_file_for_segment_eviction(&dir, &state_file, false, &mut out);
        assert_eq!(out.len(), 2, "violations: {out:?}");
        assert!(out[0].contains("evict_state_case.rs:3"), "{out:?}");

        let mut out = Vec::new();
        scan_file_for_state_eviction(&dir, &engine_file, &mut out);
        assert_eq!(out.len(), 1, "violations: {out:?}");
        assert!(
            out[0].contains("evict_engine_case.rs:5")
                && out[0].contains("outside `maintain_state`"),
            "{out:?}"
        );
        // Two calls, or none, inside `maintain_state` are flagged too.
        for (body, calls) in [
            ("self.state.evict(a);\n    self.state.evict(b);", 2),
            ("", 0),
        ] {
            fs::write(
                &engine_file,
                format!("fn maintain_state(&mut self) {{\n    {body}\n}}\n"),
            )
            .unwrap();
            let mut out = Vec::new();
            scan_file_for_state_eviction(&dir, &engine_file, &mut out);
            assert_eq!(out.len(), 1, "violations: {out:?}");
            assert!(
                out[0].contains(&format!("{calls} `.evict(` calls")),
                "{out:?}"
            );
        }
    }

    #[test]
    fn a_second_query_id_minter_is_flagged() {
        let pipeline = "pub(crate) fn register(&mut self, query: XsclQuery) -> CoreResult<QueryId> {\n    let id = QueryId(self.next_query);\n    Ok(id)\n}\nfn respawn(&mut self) {\n    let id = QueryId(global);\n}\n#[cfg(test)]\nmod tests {\n    fn t() { e.unregister_query(QueryId(0)); }\n}\n";
        let registry = "pub fn register(\n    &mut self,\n    query: XsclQuery,\n) -> CoreResult<QueryId> {\n    let id = QueryId(self.queries.len() as u64);\n    // QueryId(1) in a comment\n}\npub fn resolve_rid(&self, rid: i64) -> Option<&Q> {\n    self.queries.get(&QueryId(rid as u64 / 2))\n}\n";
        let dir = std::env::temp_dir().join("xtask-lint-test");
        fs::create_dir_all(&dir).unwrap();
        let (pipeline_file, registry_file) = (
            dir.join("minter_pipeline_case.rs"),
            dir.join("minter_registry_case.rs"),
        );
        fs::write(&pipeline_file, pipeline).unwrap();
        fs::write(&registry_file, registry).unwrap();

        let mut out = Vec::new();
        scan_file_for_query_ids(&dir, &pipeline_file, &["fn register("], &mut out);
        assert_eq!(out.len(), 1, "violations: {out:?}");
        assert!(
            out[0].contains("minter_pipeline_case.rs:6") && out[0].contains("`QueryId(`"),
            "{out:?}"
        );
        // The registry's `register` is no minter; only its decoder is exempt.
        let mut out = Vec::new();
        scan_file_for_query_ids(&dir, &registry_file, &["fn resolve_rid("], &mut out);
        assert_eq!(out.len(), 1, "violations: {out:?}");
        assert!(
            out[0].contains("minter_registry_case.rs:5") && out[0].contains("`QueryId(`"),
            "{out:?}"
        );
        // With no exemption, every construction outside tests is flagged.
        let mut out = Vec::new();
        scan_file_for_query_ids(&dir, &registry_file, &[], &mut out);
        assert_eq!(out.len(), 2, "violations: {out:?}");
    }

    #[test]
    fn rt_mutations_are_flagged_outside_the_versioned_mutators() {
        let src = "impl TemplateRuntime {\n    fn push_rt_row(&mut self, t: Tuple) -> CoreResult<()> {\n        self.rt.push_values(t)?;\n        self.rt_version += 1;\n        Ok(())\n    }\n    fn remove_rt_row(&mut self, row: usize) -> CoreResult<()> {\n        self.rt.remove_row(row)?;\n        self.rt_version += 1;\n        Ok(())\n    }\n}\nfn register(&mut self) {\n    template.rt.push_values(tuple)?;\n    // template.rt.remove_row(row) in a comment\n    template.push_rt_row(tuple)?;\n}\nfn unregister(t: &mut TemplateRuntime) {\n    t.rt.remove_row(0)?;\n}\n#[cfg(test)]\nmod tests {\n    fn t() { tr.rt.push_values(v).unwrap(); }\n}\n";
        let dir = std::env::temp_dir().join("xtask-lint-test");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("rt_case.rs");
        fs::write(&file, src).unwrap();
        let mut out = Vec::new();
        scan_file_for_rt_mutations(&dir, &file, &mut out);
        assert_eq!(out.len(), 2, "violations: {out:?}");
        assert!(
            out[0].contains("rt_case.rs:14") && out[0].contains("`.rt.push_values(`"),
            "{out:?}"
        );
        assert!(
            out[1].contains("rt_case.rs:19") && out[1].contains("`.rt.remove_row(`"),
            "{out:?}"
        );
    }

    #[test]
    fn oracle_imports_beyond_the_data_model_are_flagged() {
        let src = "//! Judges `PhysicalPlan` without its parts.\nuse mmqjp_relational::{Atom, Relation, Value};\nuse mmqjp_relational::{\n    ConjunctiveQuery, ExecScratch,\n    Schema, Symbol,\n};\nuse mmqjp_relational::Term;\nuse mmqjp_relational::plan::Helper;\nuse std::collections::HashMap;\nfn f(v: &Value) -> u64 { FxHasher::default().finish() }\n#[cfg(test)]\nmod tests {\n    use mmqjp_relational::{PhysicalPlan, PlanInput};\n}\n";
        let dir = std::env::temp_dir().join("xtask-lint-test");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("oracle_case.rs");
        fs::write(&file, src).unwrap();
        let mut out = Vec::new();
        scan_file_for_oracle_imports(&dir, &file, &mut out);
        assert_eq!(out.len(), 6, "violations: {out:?}");
        // `ExecScratch` is both a banned name and a foreign import.
        assert!(out[0].contains("oracle_case.rs:4") && out[0].contains("`ExecScratch` in"));
        assert!(out[1].contains("oracle_case.rs:4") && out[1].contains("`ExecScratch` imported"));
        assert!(
            out[2].contains("oracle_case.rs:5") && out[2].contains("`Symbol`"),
            "{out:?}"
        );
        assert!(
            out[3].contains("oracle_case.rs:8") && out[3].contains("`plan`"),
            "{out:?}"
        );
        assert!(
            out[4].contains("oracle_case.rs:9") && out[4].contains("`HashMap`"),
            "{out:?}"
        );
        assert!(
            out[5].contains("oracle_case.rs:10") && out[5].contains("`Fx`"),
            "{out:?}"
        );
    }

    #[test]
    fn waivers_on_same_or_previous_line_are_honored() {
        let src = "fn a() {\n    x.unwrap(); // lint:allow checked above\n    // lint:allow preceding-line waiver\n    y.expect(\"ok\");\n    z.unwrap();\n}\n";
        let dir = std::env::temp_dir().join("xtask-lint-test");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("waiver_case.rs");
        fs::write(&file, src).unwrap();
        let mut out = Vec::new();
        scan_file_for_panics(&dir, &file, &mut out);
        assert_eq!(out.len(), 1, "violations: {out:?}");
        assert!(out[0].contains("waiver_case.rs:5"), "{out:?}");
    }
}

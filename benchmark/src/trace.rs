//! In-memory spans of the traced run, written as JSON lines at exit.
//!
//! The spans are recorded by the harness around its own calls into the
//! program; nothing inside the product crates is instrumented. Children named
//! `core.process/<phase>` are not wall-clock spans: they carry the
//! `PhaseTimings` deltas the engine attributes to that call (`attributed`),
//! laid end to end from the parent's start, so that the parent's self time
//! (its duration minus its children) is the time no counter explains.

use crate::session::Sample;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Traced submissions whose spans are kept; the per-layer metrics aggregate
/// over every traced submission, the file shows the first ones.
pub const KEPT_SUBMISSIONS: u32 = 2_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u32,
    /// 0 for a root span.
    parent: u32,
    name: &'static str,
    submission: u32,
    start_ns: u64,
    end_ns: u64,
    attributed: bool,
}

#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    submissions: u32,
}

impl Trace {
    fn push(&mut self, parent: u32, name: &'static str, submission: u32, at: (u64, u64)) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            submission,
            start_ns: at.0,
            end_ns: at.1,
            attributed: false,
        });
        id
    }

    /// Record the spans of one traced submission and the `PhaseTimings`
    /// delta of its engine call.
    pub fn record(&mut self, submission: u32, s: &Sample) {
        let phases = &s.attributed.phases;
        if self.submissions >= KEPT_SUBMISSIONS {
            return;
        }
        self.submissions += 1;
        if s.register.1 > s.unregister.0 {
            self.push(0, "core.unregister", submission, s.unregister);
            self.push(0, "core.register", submission, s.register);
        }
        let root = self.push(0, "submission", submission, (s.start, s.end));
        self.push(root, "xml.parse", submission, (s.start, s.parsed));
        let process = self.push(root, "core.process", submission, (s.parsed, s.processed));
        self.push(
            root,
            "bench.stats_read",
            submission,
            (s.processed, s.stats_read),
        );
        self.push(root, "bench.consume", submission, (s.stats_read, s.end));
        let mut at = s.parsed;
        for (name, ns) in [
            ("core.process/xpath", phases.xpath),
            ("core.process/ingest", phases.ingest),
            ("core.process/rvj", phases.rvj),
            ("core.process/view", phases.view),
            ("core.process/conjunctive", phases.conjunctive),
            ("core.process/materialize", phases.materialize),
            ("core.process/output", phases.output),
            ("core.process/maintenance", phases.maintenance),
        ] {
            let id = self.push(process, name, submission, (at, at + ns));
            self.spans[id as usize - 1].attributed = true;
            at += ns;
        }
    }

    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"submission\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"attributed\":{}}}",
                s.id, s.parent, s.name, s.submission, s.start_ns, s.end_ns, s.attributed
            )?;
        }
        out.flush()
    }
}

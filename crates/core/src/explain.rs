//! `explain(query_id)`: which compiled plan runs a registered query's join
//! and how its last execution went.
//!
//! A query joins through one plan per orientation of its shape (a `FOLLOWED
//! BY` query has one, a `JOIN` two): its template's basic or materialized
//! plan under the MMQJP modes, its own per-query plan under Sequential. The
//! report names the template and the variant and copies the plan's
//! [`PhysicalPlan::explain`](mmqjp_relational::PhysicalPlan::explain) steps —
//! the memoized join order with estimated and actual rows per step — so it
//! outlives the engine borrow and crosses a shard's reply channel.

use crate::config::ProcessingMode;
use crate::registry::Registry;
use mmqjp_relational::{ExplainStep, PhysicalPlan};
use mmqjp_xscl::{QueryId, TemplateId};
use std::fmt;

/// The compiled plan variant a processing mode runs for a query's join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanVariant {
    /// The query's own plan over the base witness relations
    /// ([`ProcessingMode::Sequential`]).
    Sequential,
    /// The template's Algorithm-1 plan over the base witness relations
    /// ([`ProcessingMode::Mmqjp`]).
    Basic,
    /// The template's Algorithm-4 plan over `RL` / `RR`
    /// ([`ProcessingMode::MmqjpViewMat`]).
    Materialized,
}

impl PlanVariant {
    /// The variant `mode` runs.
    pub fn of(mode: ProcessingMode) -> Self {
        match mode {
            ProcessingMode::Sequential => PlanVariant::Sequential,
            ProcessingMode::Mmqjp => PlanVariant::Basic,
            ProcessingMode::MmqjpViewMat => PlanVariant::Materialized,
        }
    }
}

/// An owned [`ExplainStep`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// The body position of the atom joined at this step.
    pub atom: usize,
    /// The relation the atom reads.
    pub relation: String,
    /// The atom's columns keyed on variables bound by earlier steps.
    pub key_columns: usize,
    /// The planner's estimate of the intermediate's rows after this step.
    pub estimated_rows: u64,
    /// The intermediate's rows after this step in the plan's last
    /// execution; `None` for a step it did not run.
    pub actual_rows: Option<u64>,
}

impl PlanStep {
    fn of(step: ExplainStep<'_>) -> Self {
        PlanStep {
            atom: step.atom,
            relation: step.relation.to_owned(),
            key_columns: step.key_columns,
            estimated_rows: step.estimated_rows,
            actual_rows: step.actual_rows,
        }
    }
}

impl fmt::Display for PlanStep {
    /// As [`ExplainStep`] displays: `Rbin#3 keys 2: est 2756, actual 14`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let step = ExplainStep {
            atom: self.atom,
            relation: &self.relation,
            key_columns: self.key_columns,
            estimated_rows: self.estimated_rows,
            actual_rows: self.actual_rows,
        };
        step.fmt(f)
    }
}

/// One orientation's plan, as the engines' `explain(query_id)` reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanExplain {
    /// The template the orientation joins through.
    pub template: TemplateId,
    /// The plan variant the engine's mode runs.
    pub variant: PlanVariant,
    /// The plan's memoized join order, step by step; empty until the plan
    /// first executes with every atom non-empty.
    pub steps: Vec<PlanStep>,
}

impl fmt::Display for PlanExplain {
    /// `template T0 (Basic): RT_0#18 keys 0: est 10, actual 10 > …`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "template {} ({:?}):", self.template, self.variant)?;
        for (i, step) in self.steps.iter().enumerate() {
            write!(f, "{}{step}", if i == 0 { " " } else { " > " })?;
        }
        Ok(())
    }
}

/// The plans behind a registered query's join, one per orientation of its
/// shape (none for a single-block subscription, which Stage 1 answers
/// alone). `None` when `id` is not a live query of `registry`.
pub(crate) fn explain(
    registry: &Registry,
    mode: ProcessingMode,
    id: QueryId,
) -> Option<Vec<PlanExplain>> {
    let query = registry.query(id).ok()?;
    let variant = PlanVariant::of(mode);
    let plans = (query.shape().orientations().iter())
        .zip(&query.registrations)
        .map(|(orientation, registration)| {
            let template = registry.template_runtime(orientation.template);
            let plan: Option<&PhysicalPlan> = match variant {
                PlanVariant::Sequential => registration.sequential_plan.as_ref(),
                PlanVariant::Basic => template.and_then(|t| t.plan_basic.as_ref()),
                PlanVariant::Materialized => template.and_then(|t| t.plan_materialized.as_ref()),
            };
            PlanExplain {
                template: orientation.template,
                variant,
                steps: plan.map_or_else(Vec::new, |p| p.explain().map(PlanStep::of).collect()),
            }
        })
        .collect();
    Some(plans)
}

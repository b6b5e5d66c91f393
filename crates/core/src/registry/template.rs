//! A template's runtime: its `RT` relation and the plans compiled over it.
//!
//! `RT` and its version are private to this module. A plan keeps the join
//! table it builds over `RT` while the version holds, so the two mutators
//! that change `RT` move the version with it, and nothing else can reach
//! either field.

use super::verify_compiled;
use crate::audit::AuditViolation;
use crate::config::ProcessingMode;
use crate::cqt::{self, PlanInputKind};
use crate::error::CoreResult;
use crate::relations::schemas;
use mmqjp_relational::{ConjunctiveQuery, PhysicalPlan, PlanInput, Relation, Value};
use mmqjp_xscl::{QueryTemplate, TemplateId};

/// Runtime state of one query template: the representative template, its
/// `RT` relation (one tuple per registered query orientation), the two
/// declarative conjunctive-query forms and the compiled physical plan for
/// the variant the engine's mode executes.
#[derive(Debug, Clone)]
pub struct TemplateRuntime {
    /// The template.
    pub template: QueryTemplate,
    /// `RT(qid, var1, ..., varm, wl)` — one tuple per member orientation.
    /// Private to this module: only [`push_rt_row`](Self::push_rt_row) and
    /// [`remove_rt_row`](Self::remove_rt_row) change it, and both move
    /// [`rt_version`](Self::rt_version).
    rt: Relation,
    /// Moves with every change to `rt`: the template's plan keeps the join
    /// table it builds over `RT` for as long as this version holds.
    rt_version: u64,
    /// Algorithm-1 conjunctive query over the base witness relations (the
    /// declarative form; execution uses [`plan_basic`](Self::plan_basic)).
    pub cqt_basic: ConjunctiveQuery,
    /// Algorithm-4 conjunctive query over `RL` / `RR`.
    pub cqt_materialized: ConjunctiveQuery,
    /// [`cqt_basic`](Self::cqt_basic) compiled to a physical plan at
    /// registration time; `process_batch` executes it by reference. Only
    /// compiled when the engine's mode is [`ProcessingMode::Mmqjp`] — the
    /// one mode that executes the basic form.
    pub plan_basic: Option<PhysicalPlan>,
    /// [`cqt_materialized`](Self::cqt_materialized) compiled to a physical
    /// plan. Only compiled in [`ProcessingMode::MmqjpViewMat`].
    pub plan_materialized: Option<PhysicalPlan>,
    /// The engine relations behind `plan_basic`'s input slots.
    pub(crate) inputs_basic: Vec<PlanInputKind>,
    /// The engine relations behind `plan_materialized`'s input slots.
    pub(crate) inputs_materialized: Vec<PlanInputKind>,
    rt_name: String,
}

impl TemplateRuntime {
    /// Build the runtime for a new template, compiling exactly the plan
    /// variant the engine's (fixed) mode executes: basic for `Mmqjp`,
    /// materialized for `MmqjpViewMat`, neither for `Sequential` (which
    /// runs per-query plans). Each compiled plan is checked against its
    /// source CQT and the engine schemas before it is accepted (see
    /// [`mmqjp_relational::verify`]); a violation rejects the registration
    /// with a typed diagnostic. Returns the runtime and the number of plans
    /// compiled.
    pub(super) fn new(template: QueryTemplate, mode: ProcessingMode) -> CoreResult<(Self, usize)> {
        let rt = Relation::new(schemas::rt(template.num_meta_vars()));
        let rt_arity = rt.schema().arity();
        let name = cqt::rt_name(template.id.index());
        let cqt_basic = cqt::template_cqt_basic(&template, &name);
        let cqt_materialized = cqt::template_cqt_materialized(&template, &name);
        let arity_of = |rel: &str| cqt::relation_arity(rel, &name, rt_arity);
        let plan_basic = if mode == ProcessingMode::Mmqjp {
            let plan = PhysicalPlan::compile(&cqt_basic, arity_of)?;
            verify_compiled(&plan, &cqt_basic, arity_of, true)?;
            Some(plan)
        } else {
            None
        };
        let plan_materialized = if mode == ProcessingMode::MmqjpViewMat {
            let plan = PhysicalPlan::compile(&cqt_materialized, arity_of)?;
            // The batch-restriction precondition only concerns the basic
            // form's Rdoc atoms; the materialized form reads RL/RR.
            verify_compiled(&plan, &cqt_materialized, arity_of, false)?;
            Some(plan)
        } else {
            None
        };
        let compiled = usize::from(plan_basic.is_some()) + usize::from(plan_materialized.is_some());
        let inputs_basic = plan_basic
            .as_ref()
            .map(|p| cqt::plan_input_kinds(p, &name))
            .unwrap_or_default();
        let inputs_materialized = plan_materialized
            .as_ref()
            .map(|p| cqt::plan_input_kinds(p, &name))
            .unwrap_or_default();
        let runtime = TemplateRuntime {
            template,
            rt,
            rt_version: 0,
            cqt_basic,
            cqt_materialized,
            plan_basic,
            plan_materialized,
            inputs_basic,
            inputs_materialized,
            rt_name: name,
        };
        Ok((runtime, compiled))
    }

    /// Name of this template's `RT` relation in the engine database.
    pub fn rt_name(&self) -> String {
        self.rt_name.clone()
    }

    /// Number of registered query orientations in this template.
    pub fn members(&self) -> usize {
        self.rt.len()
    }

    /// The template's `RT` relation.
    pub fn rt(&self) -> &Relation {
        &self.rt
    }

    /// The version of [`rt`](Self::rt): it moves with every row pushed or
    /// removed, and nothing else changes `RT`.
    pub fn rt_version(&self) -> u64 {
        self.rt_version
    }

    /// Append a member orientation's `RT` tuple.
    pub(super) fn push_rt_row(&mut self, tuple: Vec<Value>) -> CoreResult<()> {
        self.rt.push_values(tuple)?;
        self.rt_version += 1;
        Ok(())
    }

    /// Remove the `RT` tuple at `row`, keeping the survivors in order.
    pub(super) fn remove_rt_row(&mut self, row: usize) -> CoreResult<()> {
        self.rt.remove_row(row)?;
        self.rt_version += 1;
        Ok(())
    }

    /// The compiled plans' memos: each stored step program is the one its
    /// memoized join order derives, and each join table a plan keeps is over
    /// `RT`, at a version `RT` has reached.
    pub(super) fn audit_plans(&self, tid: TemplateId, out: &mut Vec<AuditViolation>) {
        let template = tid.index();
        for (plan, kinds) in [
            (&self.plan_basic, &self.inputs_basic),
            (&self.plan_materialized, &self.inputs_materialized),
        ] {
            let Some(plan) = plan else { continue };
            if let Err(reason) = plan.check_program() {
                out.push(AuditViolation::PlanMemo { template, reason });
            }
            for (slot, version) in plan.kept_tables() {
                let reason = if kinds.get(slot as usize) != Some(&PlanInputKind::Rt) {
                    "a kept join table over an input other than RT"
                } else if version > self.rt_version {
                    "a kept join table newer than its template's RT"
                } else {
                    continue;
                };
                out.push(AuditViolation::PlanMemo { template, reason });
            }
        }
    }

    /// The compiled plan the engine's mode executes (the materialized form
    /// when `materialized`), the engine relations behind its input slots,
    /// and `RT` as a plan input stamped with its version — borrowed together
    /// for one execution. `None` when the mode's plan was not compiled.
    pub(crate) fn executable(
        &mut self,
        materialized: bool,
    ) -> Option<(&mut PhysicalPlan, &[PlanInputKind], PlanInput<'_>)> {
        let (plan, kinds) = if materialized {
            (self.plan_materialized.as_mut(), &self.inputs_materialized)
        } else {
            (self.plan_basic.as_mut(), &self.inputs_basic)
        };
        let rt = PlanInput::from(&self.rt).versioned(self.rt_version);
        plan.map(|plan| (plan, kinds.as_slice(), rt))
    }
}

//! Query registration and the full subscription lifecycle of the join
//! stage: templates, `RT` relations and per-query metadata.
//!
//! **What a registration costs.** Everything registration derives from a
//! query's `FROM` clause depends on the clause alone, not on its window: the
//! normalized blocks, the reduced join graph of each orientation, the
//! template the catalog's isomorphism test finds, the variable assignment
//! and the requested edges. The registry derives them once per distinct
//! clause (window blanked) into a shared [`QueryShape`] and memoizes it.
//! Registering a query whose clause is already live is a lookup plus
//! per-query work: one `RT` row per orientation and the window in the
//! window multiset. A shape is refcounted by its live queries and reclaimed
//! with its last one (its canonical variables are counted per live shape),
//! so the memo never holds more entries than there are live distinct
//! clauses. While a shape lives, its templates live too (its queries hold
//! their `RT` rows) and template ids are never reused, so a memo hit
//! registers exactly what re-deriving the shape would.
//!
//! The registry holds no Stage-1 state: [`Registry::register`] returns the
//! query's [`Stage1Footprint`], which the engine subscribes to its front.
//!
//! Queries can be [`register`](Registry::register)ed *and*
//! [`unregister`](Registry::unregister)ed at runtime, incrementally —
//! O(the departing query's footprint), never a rebuild: its `RT` tuples are
//! removed in place, an emptied template is retired from the catalog, the
//! window bounds are recomputed from a window multiset so document
//! retention can *tighten*, and the canonical variables no live query's
//! rows carry any more are reported for the view cache to reclaim.
//!
//! **One query id.** The registry mints no ids: it files each query under
//! the [`QueryId`] its pipeline minted, in a map of the live queries only,
//! and an unregistered query leaves no trace. The `qid` column of an `RT`
//! row holds the *registration id* `rid = 2·id + orientation`, which
//! [`Registry::resolve_rid`] decodes: a `FOLLOWED BY` clause has one
//! orientation, a `JOIN` two. Because the pipeline never reuses an id,
//! shard assignment and the canonical output order stay deterministic
//! across churn.

use crate::audit::AuditViolation;
use crate::config::ProcessingMode;
use crate::cqt::{self, PlanInputKind};
use crate::error::{CoreError, CoreResult};
use crate::front::Edge;
use crate::relations::schemas;
use mmqjp_relational::{
    verify_plan_strict, ConjunctiveQuery, FxHashMap, PhysicalPlan, PlanInput, Relation,
    SharedKeyRule, StringInterner, Symbol, Value, VerifyOptions,
};
use mmqjp_xpath::TreePattern;
use mmqjp_xscl::{
    normalize_query, template, FromClause, JoinGraph, JoinOp, QueryId, QueryTemplate, ReducedGraph,
    SelectClause, Side, TemplateCatalog, TemplateId, Window, XsclQuery,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// The window a [`QueryShape`]'s key carries in place of the query's own:
/// windows are per-query data, so every window maps to the same shape.
const BLANK_WINDOW: Window = Window::Infinite;

/// Runtime state of one query template: the representative template, its
/// `RT` relation (one tuple per registered query orientation), the two
/// declarative conjunctive-query forms and the compiled physical plan for
/// the variant the engine's mode executes.
#[derive(Debug, Clone)]
pub struct TemplateRuntime {
    /// The template.
    pub template: QueryTemplate,
    /// `RT(qid, var1, ..., varm, wl)` — one tuple per member orientation.
    /// Changed only by [`push_rt_row`](Self::push_rt_row) and
    /// [`remove_rt_row`](Self::remove_rt_row), which move
    /// [`rt_version`](Self::rt_version) (`xtask lint` check 13).
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
    fn new(template: QueryTemplate, mode: ProcessingMode) -> CoreResult<(Self, usize)> {
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
    fn push_rt_row(&mut self, tuple: Vec<Value>) -> CoreResult<()> {
        self.rt.push_values(tuple)?;
        self.rt_version += 1;
        Ok(())
    }

    /// Remove the `RT` tuple at `row`, keeping the survivors in order.
    fn remove_rt_row(&mut self, row: usize) -> CoreResult<()> {
        self.rt.remove_row(row)?;
        self.rt_version += 1;
        Ok(())
    }

    /// The compiled plans' memos: each stored step program is the one its
    /// memoized join order derives, and each join table a plan keeps is over
    /// `RT`, at a version `RT` has reached.
    fn audit_plans(&self, tid: TemplateId, out: &mut Vec<AuditViolation>) {
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

/// Everything registration derives from one `FROM` clause, window aside:
/// built once per distinct clause and shared, behind an `Arc`, by every live
/// query with that clause (see the module documentation).
#[derive(Debug, Clone)]
pub struct QueryShape {
    /// The memo key: the clause as parsed, window blanked.
    key: Arc<FromClause>,
    /// A keyed hash of [`key`](Self::key) through the registry's interner,
    /// computed once when the shape is built.
    key_hash: u64,
    /// The normalized clause (canonical variable names, sorted predicates),
    /// window blanked.
    normalized: FromClause,
    /// The canonical variables its witness rows can carry — the nodes of its
    /// orientations' reduced graphs — each once; the live shape holds one
    /// reference on each.
    var_syms: Vec<Symbol>,
    /// One per orientation: a `FOLLOWED BY` clause has one, a symmetric
    /// `JOIN` two (the original and the block-swapped form); a single-block
    /// clause none.
    orientations: Vec<Orientation>,
}

impl QueryShape {
    /// The clause the shape was derived from, as parsed, window blanked.
    pub fn key(&self) -> &Arc<FromClause> {
        &self.key
    }

    /// A keyed hash of [`key`](Self::key), equal for equal clauses whichever
    /// registry sharing this interner built the shape; computed once.
    pub fn key_hash(&self) -> u64 {
        self.key_hash
    }

    /// The join operator (`None` for single-block subscriptions).
    pub fn op(&self) -> Option<JoinOp> {
        match &self.normalized {
            FromClause::Join { op, .. } => Some(*op),
            FromClause::Single(_) => None,
        }
    }

    /// The orientations, in `rid` order (a `JOIN` clause's swapped form
    /// second).
    pub fn orientations(&self) -> &[Orientation] {
        &self.orientations
    }

    /// For a single-block subscription, its (normalized) pattern.
    pub fn single_pattern(&self) -> Option<&TreePattern> {
        match &self.normalized {
            FromClause::Single(block) => Some(&block.pattern),
            FromClause::Join { .. } => None,
        }
    }

    /// The patterns playing the previous-document (left) and
    /// current-document (right) roles in `orientation`.
    pub fn patterns(&self, orientation: &Orientation) -> (&TreePattern, &TreePattern) {
        oriented_blocks(&self.normalized, orientation.swapped)
    }

    /// The clause's first block: a single-block subscription's pattern, or
    /// a join clause's left block.
    pub fn first_block(&self) -> &TreePattern {
        oriented_blocks(&self.normalized, false).0
    }
}

/// One orientation of a [`QueryShape`]: which template it joins and how.
#[derive(Debug, Clone)]
pub struct Orientation {
    /// The template this orientation belongs to.
    pub template: TemplateId,
    /// Per meta-variable position, this orientation's canonical variable
    /// name (labels the output bindings).
    pub assignment: Vec<String>,
    /// The template's left-side meta-variable count: positions
    /// `0..num_left` bind the previous document, the rest the current one.
    pub num_left: usize,
    /// [`assignment`](Self::assignment) interned: the variable columns of
    /// every `RT` row this orientation contributes.
    assignment_syms: Vec<Symbol>,
    /// `true` when the query's *right* block plays the previous-document
    /// role.
    pub swapped: bool,
    /// The structural edges requested for the previous-document pattern.
    pub prev_edges: Vec<Edge>,
    /// The structural edges requested for the current-document pattern.
    pub cur_edges: Vec<Edge>,
}

/// The per-query part of one orientation of a registered query; its shared
/// part is the [`Orientation`] at the same position of the query's shape.
#[derive(Debug, Clone)]
pub struct Registration {
    /// The registration id stored in the `qid` column of `RT`.
    pub rid: i64,
    /// The per-query conjunctive query used by the Sequential baseline.
    pub sequential_cqt: ConjunctiveQuery,
    /// [`sequential_cqt`](Self::sequential_cqt) compiled to a physical plan
    /// (`None` outside [`ProcessingMode::Sequential`], where the per-query
    /// form is never evaluated).
    pub sequential_plan: Option<PhysicalPlan>,
    /// The engine relations behind `sequential_plan`'s input slots.
    pub(crate) sequential_inputs: Vec<PlanInputKind>,
}

/// Runtime state of one registered query.
#[derive(Debug, Clone)]
pub struct QueryRuntime {
    /// The query id.
    pub id: QueryId,
    /// What the query's `FROM` clause derives, shared with every live query
    /// of the same clause.
    shape: Arc<QueryShape>,
    /// The window (None for single-block subscriptions).
    pub window: Option<Window>,
    /// The `PUBLISH` name, if any.
    pub publish: Option<String>,
    /// The `SELECT` clause.
    pub select: SelectClause,
    /// The per-query part of each orientation, parallel to the shape's
    /// `orientations` (empty for single-block subscriptions).
    pub registrations: Vec<Registration>,
    /// Number of documents the engine had processed when this query
    /// registered. A subscription only joins documents that arrived after
    /// it — document sequence numbers `<= arrival_floor` are filtered out of
    /// its matches, so a query (re-)registered mid-stream never picks up
    /// join state that happens to be resident from before its subscription.
    pub arrival_floor: u64,
}

impl QueryRuntime {
    /// `true` when this is an inter-document join query.
    pub fn is_join(&self) -> bool {
        !self.registrations.is_empty()
    }

    /// The query's shape.
    pub fn shape(&self) -> &QueryShape {
        &self.shape
    }
}

/// A memoized shape and the number of live queries holding it.
#[derive(Debug)]
struct ShapeEntry {
    shape: Arc<QueryShape>,
    refs: usize,
}

/// Check a compiled plan against its source conjunctive query and the engine
/// schemas, raising any [`PlanViolation`](mmqjp_relational::PlanViolation)s
/// as a typed [`CoreError::Relational`] error. `batch_restriction` adds the
/// PR 6 soundness precondition for plans over the base witness relations:
/// every `Rdoc` atom must equate its `strVal` column (term position 2) with
/// some `RdocW` atom, because batch evaluation restricts the `Rdoc` state
/// scan to the string values present in the current batch.
fn verify_compiled(
    plan: &PhysicalPlan,
    query: &ConjunctiveQuery,
    arity_of: impl Fn(&str) -> Option<usize>,
    batch_restriction: bool,
) -> CoreResult<()> {
    let options = VerifyOptions {
        shared_key: batch_restriction.then(|| SharedKeyRule {
            left: cqt::RDOC.to_owned(),
            right: cqt::RDOC_W.to_owned(),
            position: 2,
        }),
    };
    verify_plan_strict(plan, query, arity_of, &options).map_err(CoreError::from)
}

/// What Stage 1 must evaluate for one registered query: its shape, whose
/// orientations name the patterns and requested edges its join side needs
/// (or whose single block Stage 1 answers alone), and how a single-block
/// subscription reports its matches.
#[derive(Debug, Clone)]
pub struct Stage1Footprint {
    /// The query's shape, shared with the registry's memo.
    pub shape: Arc<QueryShape>,
    /// The `PUBLISH` name of a single-block subscription (`None` for a join
    /// query, whose matches the join stage reports).
    pub publish: Option<String>,
    /// The `SELECT` clause.
    pub select: SelectClause,
}

/// The incremental effects of one [`Registry::unregister`] call, reported so
/// the engine can maintain its counters and caches.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct UnregisterEffects {
    /// Templates retired (their `RT` relation became empty and their catalog
    /// slot was tombstoned).
    pub templates_retired: usize,
    /// Canonical variable symbols no live query's witness rows carry any
    /// more; view-cache slices carrying rows under these symbols can be
    /// reclaimed.
    pub dead_vars: Vec<Symbol>,
    /// `true` when the departing query changed the registered window bounds
    /// (so retention can tighten).
    pub window_changed: bool,
}

/// The registry of all registered queries and their templates.
#[derive(Debug)]
pub struct Registry {
    interner: Arc<StringInterner>,
    /// How many live shapes carry each canonical variable symbol in their
    /// witness rows. A symbol leaving this map means no future witness row
    /// this registry's queries request can carry it.
    var_refs: FxHashMap<Symbol, usize>,
    catalog: TemplateCatalog,
    /// The live template runtimes in template-id order. A retired template
    /// leaves the map (its id is never reused), so the per-batch template
    /// loop visits live templates only.
    templates: BTreeMap<TemplateId, Box<TemplateRuntime>>,
    /// The live queries, by the id their pipeline minted. Hashed, not
    /// ordered: every match resolves its `rid` here.
    queries: FxHashMap<QueryId, QueryRuntime>,
    /// The shape memo: one entry per live distinct `FROM` clause, keyed by
    /// the clause with its window blanked.
    shapes: HashMap<Arc<FromClause>, ShapeEntry>,
    /// Shapes derived on a memo miss (cumulative).
    shapes_built: usize,
    /// Registrations served by a memo hit (cumulative).
    shapes_reused: usize,
    /// Multiset of finite time windows across live join queries, so the
    /// maximum can tighten when the widest-window query unregisters.
    finite_windows: BTreeMap<u64, usize>,
    /// Number of live join queries with an infinite (or count) window.
    infinite_windows: usize,
    /// Physical plans compiled so far (one per new template in the MMQJP
    /// modes, one per orientation in Sequential mode). Cumulative.
    plans_compiled: usize,
}

impl Registry {
    /// Create an empty registry sharing the engine's string interner.
    pub fn new(interner: Arc<StringInterner>) -> Self {
        Registry {
            interner,
            var_refs: FxHashMap::default(),
            catalog: TemplateCatalog::new(),
            templates: BTreeMap::new(),
            queries: FxHashMap::default(),
            shapes: HashMap::new(),
            shapes_built: 0,
            shapes_reused: 0,
            finite_windows: BTreeMap::new(),
            infinite_windows: 0,
            plans_compiled: 0,
        }
    }

    /// Register a query (already parsed) under `id`, the id its pipeline
    /// minted. Returns its `Stage1Footprint`, which the caller subscribes
    /// to its front. An `id` that is already live is an internal error that
    /// changes nothing.
    ///
    /// A query whose `FROM` clause (window aside) is already live reuses
    /// that clause's `QueryShape`; otherwise the shape is derived and
    /// memoized. `mode` determines whether the Sequential per-query
    /// conjunctive query is compiled (it is skipped in MMQJP modes to keep
    /// registration cheap for very large query sets, and compiled for every
    /// registration in [`ProcessingMode::Sequential`]). `arrival_floor` is
    /// the number of documents already processed: the new subscription only
    /// joins documents arriving after it (see
    /// [`QueryRuntime::arrival_floor`]).
    pub fn register(
        &mut self,
        query: XsclQuery,
        id: QueryId,
        mode: ProcessingMode,
        arrival_floor: u64,
    ) -> CoreResult<Stage1Footprint> {
        if self.queries.contains_key(&id) {
            return Err(CoreError::internal("a query id is registered once"));
        }
        let XsclQuery {
            select,
            mut from,
            publish,
        } = query;
        let window = match &mut from {
            FromClause::Join { window, .. } => Some(std::mem::replace(window, BLANK_WINDOW)),
            FromClause::Single(_) => None,
        };
        let shape = match self.shapes.get_mut(&from) {
            Some(entry) => {
                entry.refs += 1;
                self.shapes_reused += 1;
                Arc::clone(&entry.shape)
            }
            None => {
                let shape = self.build_shape(from, mode)?;
                for &sym in &shape.var_syms {
                    *self.var_refs.entry(sym).or_insert(0) += 1;
                }
                let entry = ShapeEntry {
                    shape: Arc::clone(&shape),
                    refs: 1,
                };
                self.shapes.insert(Arc::clone(&shape.key), entry);
                self.shapes_built += 1;
                shape
            }
        };

        // Per-query work, the same on a hit and a miss.
        let wl = Value::Int(window.map_or(i64::MAX, window_length));
        let mut registrations = Vec::with_capacity(shape.orientations.len());
        for (ri, o) in shape.orientations.iter().enumerate() {
            let rid = rid_of(id, ri);
            // RT tuple: (qid, var1..varm, wl).
            let mut tuple = Vec::with_capacity(o.assignment_syms.len() + 2);
            tuple.push(Value::Int(rid));
            tuple.extend(o.assignment_syms.iter().map(|&sym| Value::Sym(sym)));
            tuple.push(wl);
            self.template_mut(o.template)?.push_rt_row(tuple)?;
            let (sequential_cqt, sequential_plan, sequential_inputs) =
                if mode == ProcessingMode::Sequential {
                    let (cq, plan, inputs) = self.compile_sequential(o)?;
                    (cq, Some(plan), inputs)
                } else {
                    // Placeholder; never evaluated outside Sequential mode.
                    (
                        ConjunctiveQuery::new(Vec::<String>::new()),
                        None,
                        Vec::new(),
                    )
                };
            registrations.push(Registration {
                rid,
                sequential_cqt,
                sequential_plan,
                sequential_inputs,
            });
        }
        if let Some(window) = window {
            self.track_window(window);
        }
        let footprint = Stage1Footprint {
            shape: Arc::clone(&shape),
            // Only a single-block subscription's matches leave the front.
            publish: shape.single_pattern().and_then(|_| publish.clone()),
            select,
        };
        let runtime = QueryRuntime {
            id,
            shape,
            window,
            publish,
            select,
            registrations,
            arrival_floor,
        };
        self.queries.insert(id, runtime);
        Ok(footprint)
    }

    /// Derive a new shape from its key and register its catalog membership,
    /// creating and compiling a new template when no live one is
    /// isomorphic. The only caller of `catalog.insert`.
    fn build_shape(
        &mut self,
        key: FromClause,
        mode: ProcessingMode,
    ) -> CoreResult<Arc<QueryShape>> {
        let query = XsclQuery {
            select: SelectClause::Star,
            from: key,
            publish: None,
        };
        let (normalized, reduced) = derive_shape(&query)?;
        let mut shape = QueryShape {
            key_hash: self.interner.hash_one(&query.from),
            key: Arc::new(query.from),
            normalized,
            var_syms: Vec::new(),
            orientations: Vec::with_capacity(reduced.len()),
        };
        for (graph, swapped) in reduced {
            let membership = self.catalog.insert(&graph);
            // A new template: the CQT form the engine's mode executes is
            // compiled to a physical plan exactly once, here.
            if !self.templates.contains_key(&membership.template) {
                let (runtime, compiled) =
                    TemplateRuntime::new(self.catalog.template(membership.template).clone(), mode)?;
                self.templates
                    .insert(membership.template, Box::new(runtime));
                self.plans_compiled += compiled;
            }
            let assignment_syms = membership
                .assignment
                .iter()
                .map(|var| self.interner.intern(var))
                .collect();
            shape.orientations.push(Orientation {
                template: membership.template,
                assignment: membership.assignment,
                num_left: graph.left.len(),
                assignment_syms,
                swapped,
                prev_edges: requested_edges_of(&graph, Side::Left),
                cur_edges: requested_edges_of(&graph, Side::Right),
            });
        }
        shape.var_syms = distinct(&shape.orientations);
        Ok(Arc::new(shape))
    }

    /// Compile one orientation's per-query plan (Sequential mode).
    fn compile_sequential(
        &mut self,
        orientation: &Orientation,
    ) -> CoreResult<(ConjunctiveQuery, PhysicalPlan, Vec<PlanInputKind>)> {
        let template = &self
            .template_runtime(orientation.template)
            .ok_or(CoreError::internal("a live shape's template is live"))?
            .template;
        let cq = cqt::per_query_cqt(template, &orientation.assignment, &self.interner);
        // Per-query CQTs only touch the fixed-schema base relations; no RT
        // atom to resolve.
        let arity_of = |rel: &str| cqt::relation_arity(rel, "", 0);
        let plan = PhysicalPlan::compile(&cq, arity_of)?;
        verify_compiled(&plan, &cq, arity_of, true)?;
        let inputs = cqt::plan_input_kinds(&plan, "");
        self.plans_compiled += 1;
        Ok((cq, plan, inputs))
    }

    /// Unregister a query, incrementally releasing every shared structure it
    /// participated in. O(the query's footprint): its `RT` tuples, its
    /// references on its canonical variables, its hold on its shape and —
    /// when it was the last subscriber — the retired templates and the
    /// reclaimed shape. Its Stage-1 footprint is the front's to release,
    /// and the query leaves no trace here. Errors with
    /// [`CoreError::UnknownQuery`] for ids that are not live.
    pub fn unregister(&mut self, id: QueryId) -> CoreResult<UnregisterEffects> {
        let runtime = self
            .queries
            .remove(&id)
            .ok_or(CoreError::UnknownQuery { id: id.raw() })?;

        let mut effects = UnregisterEffects::default();
        let shape = &runtime.shape;
        for (reg, o) in runtime.registrations.iter().zip(&shape.orientations) {
            // Remove this orientation's RT tuple in place, preserving the
            // registration order of the surviving members.
            let rid = Value::Int(reg.rid);
            let template = self.template_mut(o.template)?;
            let row = template
                .rt()
                .col_values(0)
                .iter()
                .position(|qid| *qid == rid)
                .ok_or(CoreError::internal("a live orientation has its RT tuple"))?;
            template.remove_rt_row(row)?;
            if template.rt().is_empty() {
                // Last member left: retire the template from the catalog.
                self.templates.remove(&o.template);
                self.catalog.remove(o.template);
                effects.templates_retired += 1;
            }
        }
        if let Some(window) = runtime.window {
            effects.window_changed = self.untrack_window(window);
        }
        self.release_shape(shape, &mut effects);
        Ok(effects)
    }

    /// Drop one live query's hold on its memoized shape, reclaiming the
    /// entry with its last holder, and release the reclaimed shape's
    /// references on its canonical variables, reporting those that died.
    fn release_shape(&mut self, shape: &Arc<QueryShape>, effects: &mut UnregisterEffects) {
        let filed = self.shapes.get_mut(&*shape.key);
        if let Some(entry) = filed.filter(|entry| Arc::ptr_eq(&entry.shape, shape)) {
            entry.refs -= 1;
            if entry.refs > 0 {
                return;
            }
            self.shapes.remove(&*shape.key);
        } else if self.queries().any(|q| Arc::ptr_eq(&q.shape, shape)) {
            // A shape the memo no longer files (see `forget_shapes`) is
            // reclaimed with the last live query holding it.
            return;
        }
        for sym in &shape.var_syms {
            if let Some(count) = self.var_refs.get_mut(sym) {
                *count -= 1;
                if *count == 0 {
                    self.var_refs.remove(sym);
                    effects.dead_vars.push(*sym);
                }
            }
        }
    }

    fn track_window(&mut self, window: Window) {
        match window {
            Window::Time(t) => *self.finite_windows.entry(t).or_insert(0) += 1,
            Window::Infinite | Window::Count(_) => self.infinite_windows += 1,
        }
    }

    /// Remove one query's window from the multiset; returns `true` when the
    /// registered bounds changed (the maximum finite window tightened or the
    /// last infinite window left).
    fn untrack_window(&mut self, window: Window) -> bool {
        let before = (self.max_finite_window(), self.has_infinite_window());
        match window {
            Window::Time(t) => {
                if let Some(count) = self.finite_windows.get_mut(&t) {
                    *count -= 1;
                    if *count == 0 {
                        self.finite_windows.remove(&t);
                    }
                }
            }
            Window::Infinite | Window::Count(_) => {
                self.infinite_windows = self.infinite_windows.saturating_sub(1);
            }
        }
        before != (self.max_finite_window(), self.has_infinite_window())
    }

    /// The string interner shared with the engine.
    pub fn interner(&self) -> &Arc<StringInterner> {
        &self.interner
    }

    /// Number of live (registered and not unregistered) queries.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// Number of live templates.
    pub fn num_templates(&self) -> usize {
        self.templates.len()
    }

    /// Number of memoized shapes: the live distinct `FROM` clauses, window
    /// aside.
    pub fn num_shapes(&self) -> usize {
        self.shapes.len()
    }

    /// Shapes derived on a memo miss so far (cumulative).
    pub fn shapes_built(&self) -> usize {
        self.shapes_built
    }

    /// Registrations a memoized shape served so far (cumulative).
    pub fn shapes_reused(&self) -> usize {
        self.shapes_reused
    }

    /// Iterate over the live template runtimes in template-id order.
    pub fn templates(&self) -> impl Iterator<Item = &TemplateRuntime> {
        self.templates.values().map(|t| &**t)
    }

    /// The live template runtimes, mutably: executing a plan updates its
    /// memoized join order.
    pub(crate) fn templates_mut(&mut self) -> impl Iterator<Item = &mut TemplateRuntime> {
        self.templates.values_mut().map(|t| &mut **t)
    }

    /// The template runtime for an id, if the template is live.
    pub fn template_runtime(&self, id: TemplateId) -> Option<&TemplateRuntime> {
        self.templates.get(&id).map(|t| &**t)
    }

    /// A live template runtime by id; errors on retired ids (internal use on
    /// ids validated live).
    fn template_mut(&mut self, id: TemplateId) -> CoreResult<&mut TemplateRuntime> {
        self.templates
            .get_mut(&id)
            .map(|t| &mut **t)
            .ok_or(CoreError::internal(
                "template id refers to a retired template",
            ))
    }

    /// Iterate over the live queries, in no particular order.
    pub fn queries(&self) -> impl Iterator<Item = &QueryRuntime> {
        self.queries.values()
    }

    /// The live queries, mutably (see [`templates_mut`](Self::templates_mut)).
    pub(crate) fn queries_mut(&mut self) -> impl Iterator<Item = &mut QueryRuntime> {
        self.queries.values_mut()
    }

    /// Look up a live query by id.
    pub fn query(&self, id: QueryId) -> CoreResult<&QueryRuntime> {
        self.queries
            .get(&id)
            .ok_or(CoreError::UnknownQuery { id: id.raw() })
    }

    /// Resolve a registration id from an `RT` / result tuple back to the
    /// live query and the orientation of its shape it belongs to: `rid =
    /// 2·id + orientation` (see the module documentation). `None` for a
    /// negative rid, an id that is not live, or an orientation its shape
    /// lacks.
    pub fn resolve_rid(&self, rid: i64) -> Option<(&QueryRuntime, &Orientation)> {
        let rid = u64::try_from(rid).ok()?;
        let q = self.queries.get(&QueryId(rid / 2))?;
        Some((q, q.shape.orientations.get((rid % 2) as usize)?))
    }

    /// The template catalog.
    pub fn catalog(&self) -> &TemplateCatalog {
        &self.catalog
    }

    /// The maximum *finite* time window across live join queries, even when
    /// other queries have infinite (or count) windows. Used to derive the
    /// join-state bucket width, which is a granularity (never a correctness)
    /// parameter.
    pub fn max_finite_window(&self) -> Option<u64> {
        self.finite_windows.keys().next_back().copied()
    }

    /// The live join windows that bound document retention: `Infinite` when
    /// some window is infinite or a count, and the longest finite one.
    pub(crate) fn bounding_windows(&self) -> impl Iterator<Item = Window> {
        let unbounded = (self.infinite_windows > 0).then_some(Window::Infinite);
        unbounded
            .into_iter()
            .chain(self.max_finite_window().map(Window::Time))
    }

    /// `true` when some live join query has an infinite or count window,
    /// whose horizon only `doc_retention_cap` bounds.
    pub fn has_infinite_window(&self) -> bool {
        self.infinite_windows > 0
    }

    /// Physical plans compiled at registration time so far (cumulative; one
    /// per new template in the MMQJP modes, one per orientation in
    /// Sequential mode).
    pub fn plans_compiled(&self) -> usize {
        self.plans_compiled
    }

    /// Cross-check every refcounted registry structure against a recount
    /// over the live queries, appending one [`AuditViolation`] per
    /// inconsistency. Read-only; a healthy registry appends nothing. See
    /// [`MmqjpEngine::audit`](crate::MmqjpEngine::audit).
    pub(crate) fn audit(&self, out: &mut Vec<AuditViolation>) {
        if self.catalog.len() != self.templates.len() {
            out.push(AuditViolation::CatalogSize {
                catalog: self.catalog.len(),
                live_templates: self.templates.len(),
            });
        }

        // One recount pass over the live queries: template membership,
        // canonical variables and windows.
        let mut rt_expected: HashMap<TemplateId, usize> = HashMap::new();
        let mut var_expected: FxHashMap<Symbol, usize> = FxHashMap::default();
        let mut live_shapes: HashSet<*const QueryShape> = HashSet::new();
        let mut finite_expected: BTreeMap<u64, usize> = BTreeMap::new();
        let mut infinite_expected = 0usize;
        for q in self.queries() {
            if live_shapes.insert(Arc::as_ptr(&q.shape)) {
                for &sym in &q.shape.var_syms {
                    *var_expected.entry(sym).or_insert(0) += 1;
                }
            }
            match q.window {
                Some(Window::Time(t)) => *finite_expected.entry(t).or_insert(0) += 1,
                Some(Window::Infinite | Window::Count(_)) => infinite_expected += 1,
                None => {}
            }
            for (reg, o) in q.registrations.iter().zip(&q.shape.orientations) {
                match self.template_runtime(o.template) {
                    None => out.push(AuditViolation::RetiredTemplateReferenced {
                        query: q.id.raw(),
                        template: o.template.index(),
                    }),
                    Some(tr) => {
                        *rt_expected.entry(o.template).or_insert(0) += 1;
                        let rid_value = Value::Int(reg.rid);
                        if !tr.rt.col_values(0).contains(&rid_value) {
                            out.push(AuditViolation::MissingRtTuple {
                                template: o.template.index(),
                                rid: reg.rid,
                            });
                        }
                    }
                }
            }
        }

        // Each live template's RT relation: exactly one tuple per live
        // member orientation.
        for (&tid, tr) in &self.templates {
            let expected = rt_expected.get(&tid).copied().unwrap_or(0);
            if tr.rt.len() != expected {
                out.push(AuditViolation::TemplateMembership {
                    template: tid.index(),
                    rt_rows: tr.rt.len(),
                    registrations: expected,
                });
            }
            tr.audit_plans(tid, out);
        }

        // Canonical-variable refcounts: one count per live shape whose rows
        // carry the variable.
        for (&sym, &expected) in &var_expected {
            let tracked = self.var_refs.get(&sym).copied().unwrap_or(0);
            if tracked != expected {
                out.push(AuditViolation::VariableRefcount {
                    variable: self
                        .interner
                        .resolve(sym)
                        .map(|s| s.to_string())
                        .unwrap_or_default(),
                    tracked,
                    expected,
                });
            }
        }
        for (&sym, &tracked) in &self.var_refs {
            if !var_expected.contains_key(&sym) {
                out.push(AuditViolation::VariableRefcount {
                    variable: self
                        .interner
                        .resolve(sym)
                        .map(|s| s.to_string())
                        .unwrap_or_default(),
                    tracked,
                    expected: 0,
                });
            }
        }

        // The window multiset equals a recount over the live join queries.
        if self.finite_windows != finite_expected {
            out.push(AuditViolation::WindowMultiset {
                reason: "finite-window multiset differs from the live join queries",
            });
        }
        if self.infinite_windows != infinite_expected {
            out.push(AuditViolation::WindowMultiset {
                reason: "infinite-window count differs from the live join queries",
            });
        }

        self.audit_shapes(out);
    }

    /// The shape memo: every entry is held by exactly its refcount of live
    /// queries and every live query's shape is filed; every entry's
    /// templates are live; and re-deriving the entry from its key —
    /// normalize, reduce, match against the live template, intern its
    /// variables — gives what it stores.
    fn audit_shapes(&self, out: &mut Vec<AuditViolation>) {
        let mut holders: HashMap<*const QueryShape, usize> = HashMap::new();
        for q in self.queries() {
            *holders.entry(Arc::as_ptr(&q.shape)).or_insert(0) += 1;
        }
        let mut violation = |reason| out.push(AuditViolation::ShapeMemo { reason });
        for (key, entry) in &self.shapes {
            let shape = &entry.shape;
            if holders.remove(&Arc::as_ptr(shape)).unwrap_or(0) != entry.refs {
                violation("entry refcount differs from the live queries holding it");
            }
            if **key != *shape.key {
                violation("entry is filed under another clause than its key");
            }
            if shape
                .orientations
                .iter()
                .any(|o| !self.templates.contains_key(&o.template))
            {
                violation("entry names a retired template");
                continue;
            }
            let query = XsclQuery {
                select: SelectClause::Star,
                from: (**key).clone(),
                publish: None,
            };
            let Ok((normalized, reduced)) = derive_shape(&query) else {
                violation("entry key no longer derives a shape");
                continue;
            };
            if normalized != shape.normalized || reduced.len() != shape.orientations.len() {
                violation("re-derived clause differs from the stored one");
                continue;
            }
            if distinct(&shape.orientations) != shape.var_syms {
                violation("canonical variables differ from the orientations' assignments");
            }
            for ((graph, swapped), o) in reduced.iter().zip(&shape.orientations) {
                let live = self.template_runtime(o.template).map(|tr| &tr.template);
                let derived = live.and_then(|t| template::assignment(graph, t));
                let syms: Option<Vec<Symbol>> =
                    o.assignment.iter().map(|v| self.interner.get(v)).collect();
                if *swapped != o.swapped
                    || derived.as_ref() != Some(&o.assignment)
                    || live.map(QueryTemplate::num_left) != Some(o.num_left)
                    || syms.as_ref() != Some(&o.assignment_syms)
                    || requested_edges_of(graph, Side::Left) != o.prev_edges
                    || requested_edges_of(graph, Side::Right) != o.cur_edges
                {
                    violation("re-derived orientation differs from the stored one");
                }
            }
        }
        if !holders.is_empty() {
            violation("a live query holds a shape the memo does not file");
        }
    }

    /// Forget every memoized shape, so the next registration of any clause
    /// derives it afresh. Live queries keep their shapes.
    #[cfg(test)]
    fn forget_shapes(&mut self) {
        self.shapes.clear();
    }
}

/// What registration derives from a query's `FROM` clause before touching
/// any shared structure: the normalized clause and, per orientation, its
/// reduced join graph and whether the blocks are swapped. Pure, so the audit
/// can re-derive a memoized shape; only it and the shape-building function
/// normalize and reduce.
fn derive_shape(query: &XsclQuery) -> CoreResult<(FromClause, Vec<(ReducedGraph, bool)>)> {
    let normalized = normalize_query(query)?.query;
    let reduced = match normalized.op() {
        None => Vec::new(),
        Some(op) => {
            let graph = JoinGraph::from_query(&normalized)?;
            let mut reduced = vec![(ReducedGraph::from_join_graph(&graph), false)];
            if op == JoinOp::Join {
                reduced.push((ReducedGraph::from_join_graph(&graph.swapped()), true));
            }
            reduced
        }
    };
    Ok((normalized.from, reduced))
}

/// The interned variables of `orientations`' assignments in ascending order,
/// each once.
fn distinct(orientations: &[Orientation]) -> Vec<Symbol> {
    let mut syms: Vec<Symbol> = orientations
        .iter()
        .flat_map(|o| o.assignment_syms.iter().copied())
        .collect();
    syms.sort_unstable();
    syms.dedup();
    syms
}

/// The patterns of a join clause's blocks in the previous- and
/// current-document roles: `(left, right)`, or `(right, left)` when
/// `swapped`.
fn oriented_blocks(clause: &FromClause, swapped: bool) -> (&TreePattern, &TreePattern) {
    let (left, right) = match clause {
        FromClause::Join { left, right, .. } => (&left.pattern, &right.pattern),
        // Single-block clauses have no orientations to ask about.
        FromClause::Single(block) => (&block.pattern, &block.pattern),
    };
    if swapped {
        (right, left)
    } else {
        (left, right)
    }
}

/// The edges one side of a reduced graph requests from Stage 1: its
/// structural edges, plus degenerate self edges for join-node roots so their
/// bindings reach the witness relations even without an incoming structural
/// edge. Deduplicated, in first-occurrence order.
fn requested_edges_of(reduced: &ReducedGraph, side: Side) -> Vec<Edge> {
    let mut edges: Vec<Edge> = Vec::new();
    for edge in reduced.structural_edges(side) {
        if !edges.contains(&edge) {
            edges.push(edge);
        }
    }
    for node in &reduced.tree(side).nodes {
        if node.parent.is_none() && node.is_join_node {
            let self_edge = (node.original, node.original);
            if !edges.contains(&self_edge) {
                edges.push(self_edge);
            }
        }
    }
    edges
}

/// The registration id of orientation `orientation` of query `id`: the
/// `qid` column of its `RT` row, which [`Registry::resolve_rid`] decodes.
fn rid_of(id: QueryId, orientation: usize) -> i64 {
    id.raw() as i64 * 2 + orientation as i64
}

/// Encode a window as the `wl` column value.
pub fn window_length(window: Window) -> i64 {
    match window {
        Window::Time(t) => t.min(i64::MAX as u64) as i64,
        Window::Infinite | Window::Count(_) => i64::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::front::{EdgeConsumers, Front, RequestedEdge};
    use mmqjp_xpath::PatternId;
    use mmqjp_xscl::parse_query;
    use std::collections::BTreeSet;

    const Q1: &str = "S//book->x1[.//author->x2][.//title->x3] \
        FOLLOWED BY{x2=x5 AND x3=x6, 100} \
        S//blog->x4[.//author->x5][.//title->x6]";
    const Q2: &str = "S//book->x1[.//author->x2][.//category->x7] \
        FOLLOWED BY{x2=x5 AND x7=x8, 200} \
        S//blog->x4[.//author->x5][.//category->x8]";
    const Q3: &str = "S//blog->x4[.//author->x5][.//title->x6] \
        FOLLOWED BY{x5=x5' AND x6=x6', 300} \
        S//blog->x4'[.//author->x5'][.//title->x6']";

    fn registry() -> Registry {
        Registry::new(Arc::new(StringInterner::new()))
    }

    /// Register `text` under id `id` at floor 0; returns the id.
    fn reg(r: &mut Registry, id: u64, text: &str, mode: ProcessingMode) -> QueryId {
        let id = QueryId(id);
        r.register(parse_query(text).unwrap(), id, mode, 0).unwrap();
        id
    }

    /// A registry and the front its footprints are subscribed to, paired the
    /// way a single engine pairs them, with ids minted the way its pipeline
    /// mints them: ascending, once each.
    struct Rig {
        r: Registry,
        front: Front,
        next: u64,
    }

    impl Rig {
        fn new() -> Self {
            let r = registry();
            let front = Front::new(&EngineConfig::default(), Arc::clone(&r.interner));
            Rig { r, front, next: 0 }
        }

        fn register(&mut self, text: &str, mode: ProcessingMode) -> QueryId {
            let id = QueryId(self.next);
            let footprint = self
                .r
                .register(parse_query(text).unwrap(), id, mode, 0)
                .unwrap();
            self.next += 1;
            self.front.subscribe(0, id, &footprint).unwrap();
            id
        }

        /// The registry's effects and the number of patterns the front
        /// dropped.
        fn unregister(&mut self, id: QueryId) -> CoreResult<(UnregisterEffects, usize)> {
            let effects = self.r.unregister(id)?;
            Ok((effects, self.front.unsubscribe(id)?))
        }

        fn num_patterns(&self) -> usize {
            self.front.table().index().len()
        }

        fn audit(&self) -> Vec<AuditViolation> {
            let mut out = Vec::new();
            self.r.audit(&mut out);
            self.front.audit(self.r.num_queries(), &mut out);
            out
        }
    }

    #[test]
    fn paper_example_queries_share_one_template() {
        let mut rig = Rig::new();
        let id1 = rig.register(Q1, ProcessingMode::Mmqjp);
        let id2 = rig.register(Q2, ProcessingMode::Mmqjp);
        let id3 = rig.register(Q3, ProcessingMode::Mmqjp);
        let r = &rig.r;
        assert_eq!(id1, QueryId(0));
        assert_eq!(id2, QueryId(1));
        assert_eq!(id3, QueryId(2));
        assert_eq!(r.num_queries(), 3);
        assert_eq!(r.num_templates(), 1);
        // The RT relation mirrors Table 4(a): three tuples, one per query.
        let rt = &r.templates().next().unwrap().rt;
        assert_eq!(rt.len(), 3);
        assert_eq!(rt.schema().arity(), 8); // qid + 6 vars + wl

        // Window lengths are stored per query.
        let wls: Vec<i64> = rt.iter().map(|t| t[7].as_int().unwrap()).collect();
        assert_eq!(wls, vec![100, 200, 300]);
        // Q1 and Q2 share the book and blog block patterns; Q3 reuses the
        // blog block. Distinct patterns: book(author,title),
        // blog(author,title), book(author,category), blog(author,category)
        // => 4.
        assert_eq!(rig.num_patterns(), 4);
        assert_eq!(bound(r), Some(300));
    }

    #[test]
    fn join_queries_register_two_orientations() {
        let mut r = registry();
        let q = "S//item->a[.//title->t1] JOIN{t1=t2, 50} S//post->b[.//title->t2]";
        let id = reg(&mut r, 0, q, ProcessingMode::Mmqjp);
        let runtime = r.query(id).unwrap();
        assert!(runtime.is_join());
        assert_eq!(runtime.registrations.len(), 2);
        assert!(!runtime.shape().orientations()[0].swapped);
        assert!(runtime.shape().orientations()[1].swapped);
        // Both orientations resolve back to the query.
        let (q0, o0) = r.resolve_rid(runtime.registrations[0].rid).unwrap();
        let (q1, o1) = r.resolve_rid(runtime.registrations[1].rid).unwrap();
        assert_eq!(q0.id, id);
        assert_eq!(q1.id, id);
        assert!(!o0.swapped);
        assert!(o1.swapped);
        // The two orientations of an asymmetric query land in the same
        // single-value-join template.
        assert_eq!(r.num_templates(), 1);
        assert_eq!(r.templates().next().unwrap().members(), 2);
    }

    #[test]
    fn single_block_subscription_is_accepted() {
        let mut rig = Rig::new();
        let id = rig.register("S//blog[.//author]", ProcessingMode::Mmqjp);
        let runtime = rig.r.query(id).unwrap();
        assert!(!runtime.is_join());
        assert!(runtime.shape().single_pattern().is_some());
        assert_eq!(rig.r.num_templates(), 0);
        assert_eq!(rig.num_patterns(), 1);
    }

    #[test]
    fn requested_edges_cover_reduced_structure_and_self_edges() {
        let mut rig = Rig::new();
        // Single value join: both sides reduce to single nodes, so the
        // requested edges are self edges.
        rig.register(
            "S//book->b[.//author->a] FOLLOWED BY{a=x, 10} S//blog->g[.//author->x]",
            ProcessingMode::Mmqjp,
        );
        let total_edges = |rig: &Rig| -> usize {
            let requested = rig.front.table().requested();
            requested.iter().map(|(_, v)| v.len()).sum()
        };
        assert_eq!(total_edges(&rig), 2); // one self edge per pattern
        for (_, edges) in rig.front.table().requested().iter() {
            for requested in edges {
                assert_eq!(requested.edge.0, requested.edge.1);
            }
        }
        // Q1 adds real structural edges.
        rig.register(Q1, ProcessingMode::Mmqjp);
        assert_eq!(total_edges(&rig), 2 + 4);
    }

    #[test]
    fn sequential_mode_compiles_per_query_cqt() {
        let mut r = registry();
        reg(&mut r, 0, Q1, ProcessingMode::Sequential);
        let reg1 = &r.queries().next().unwrap().registrations[0];
        assert_eq!(reg1.sequential_cqt.num_atoms(), 8);
        // In MMQJP mode the per-query CQT is left empty.
        let mut r2 = registry();
        reg(&mut r2, 0, Q1, ProcessingMode::Mmqjp);
        let reg2 = &r2.queries().next().unwrap().registrations[0];
        assert_eq!(reg2.sequential_cqt.num_atoms(), 0);
    }

    /// The retention bound the live windows give, uncapped: `None` while
    /// an INF window is live.
    fn bound(r: &Registry) -> Option<u64> {
        crate::recovery::retention_bound(r.bounding_windows(), None)
    }

    #[test]
    fn window_tracking() {
        let mut r = registry();
        reg(&mut r, 0, Q1, ProcessingMode::Mmqjp);
        assert_eq!(bound(&r), Some(100));
        assert_eq!(r.max_finite_window(), Some(100));
        assert!(!r.has_infinite_window());
        reg(
            &mut r,
            1,
            "S//a->x FOLLOWED BY{x=y, INF} S//b->y",
            ProcessingMode::Mmqjp,
        );
        assert_eq!(bound(&r), None);
        assert_eq!(r.max_finite_window(), Some(100));
        assert!(r.has_infinite_window());
        assert_eq!(window_length(Window::Time(5)), 5);
        assert_eq!(window_length(Window::Infinite), i64::MAX);
        assert_eq!(window_length(Window::Count(3)), i64::MAX);
    }

    #[test]
    fn unregister_shrinks_shared_template_in_place() {
        let mut rig = Rig::new();
        let id1 = rig.register(Q1, ProcessingMode::Mmqjp);
        let id2 = rig.register(Q2, ProcessingMode::Mmqjp);
        let id3 = rig.register(Q3, ProcessingMode::Mmqjp);
        assert_eq!(rig.r.templates().next().unwrap().members(), 3);
        let patterns_before = rig.num_patterns();

        // Q2 leaves: its RT tuple goes, the template survives with Q1 and
        // Q3 (in registration order), and the two category patterns it was
        // the only subscriber of are dropped.
        let (effects, dropped) = rig.unregister(id2).unwrap();
        let r = &rig.r;
        assert_eq!(r.num_queries(), 2);
        assert_eq!(r.num_templates(), 1);
        let rt = &r.templates().next().unwrap().rt;
        assert_eq!(rt.len(), 2);
        let wls: Vec<i64> = rt.iter().map(|t| t[7].as_int().unwrap()).collect();
        assert_eq!(wls, vec![100, 300]);
        assert_eq!(dropped, 2);
        assert_eq!(effects.templates_retired, 0);
        assert_eq!(rig.num_patterns(), patterns_before - 2);
        // The unregistered id is gone and resolves nowhere.
        assert!(matches!(r.query(id2), Err(CoreError::UnknownQuery { .. })));
        assert!(r.resolve_rid(rid_of(id2, 0)).is_none());
        // Survivors still resolve.
        assert!(r.query(id1).is_ok());
        assert!(r.query(id3).is_ok());

        // The last two members leave: the template is retired.
        let (e1, _) = rig.unregister(id1).unwrap();
        assert_eq!(e1.templates_retired, 0);
        let (e3, _) = rig.unregister(id3).unwrap();
        assert_eq!(e3.templates_retired, 1);
        assert_eq!(rig.r.num_templates(), 0);
        assert_eq!(rig.num_patterns(), 0);
        assert_eq!(rig.r.num_queries(), 0);
        assert!(rig.front.table().requested().is_empty());
        // Unregistering twice fails.
        assert!(matches!(
            rig.unregister(id1),
            Err(CoreError::UnknownQuery { .. })
        ));
        // A fresh registration never reuses a freed id.
        let id4 = rig.register(Q1, ProcessingMode::Mmqjp);
        assert_eq!(id4, QueryId(3));
        // The registry holds the live query only.
        assert_eq!(rig.r.queries.keys().collect::<Vec<_>>(), vec![&id4]);
    }

    #[test]
    fn unregister_recomputes_window_bounds() {
        let mut r = registry();
        let narrow = reg(&mut r, 0, Q1, ProcessingMode::Mmqjp); // window 100
        let wide = reg(&mut r, 1, Q3, ProcessingMode::Mmqjp); // window 300
        let inf = reg(
            &mut r,
            2,
            "S//a->x FOLLOWED BY{x=y, INF} S//b->y",
            ProcessingMode::Mmqjp,
        );
        assert_eq!(bound(&r), None);
        assert_eq!(r.max_finite_window(), Some(300));

        // The infinite-window query leaves: eviction becomes possible again.
        let effects = r.unregister(inf).unwrap();
        assert!(effects.window_changed);
        assert_eq!(bound(&r), Some(300));
        assert!(!r.has_infinite_window());

        // The widest finite window leaves: the bound tightens.
        let effects = r.unregister(wide).unwrap();
        assert!(effects.window_changed);
        assert_eq!(bound(&r), Some(100));
        assert_eq!(r.max_finite_window(), Some(100));

        // The last windowed query leaves: nothing is retained.
        let effects = r.unregister(narrow).unwrap();
        assert!(effects.window_changed);
        assert_eq!(bound(&r), Some(0));
        assert_eq!(r.max_finite_window(), None);
    }

    #[test]
    fn unregister_duplicate_window_keeps_the_bound() {
        let mut r = registry();
        let a = reg(&mut r, 0, Q1, ProcessingMode::Mmqjp);
        let b = reg(&mut r, 1, Q1, ProcessingMode::Mmqjp);
        assert_eq!(bound(&r), Some(100));
        let effects = r.unregister(a).unwrap();
        assert!(!effects.window_changed, "the twin still holds window 100");
        assert_eq!(bound(&r), Some(100));
        let effects = r.unregister(b).unwrap();
        assert!(effects.window_changed);
        assert_eq!(bound(&r), Some(0));
    }

    #[test]
    fn unregister_releases_shared_patterns_by_refcount() {
        let mut rig = Rig::new();
        // Q1 and Q3 share the blog(author, title) pattern.
        let id1 = rig.register(Q1, ProcessingMode::Mmqjp);
        let id3 = rig.register(Q3, ProcessingMode::Mmqjp);
        assert_eq!(rig.num_patterns(), 2); // book(a,t) and the shared blog(a,t)
        let (effects, dropped) = rig.unregister(id1).unwrap();
        // The book pattern dies with Q1; the shared blog pattern survives,
        // and so do the canonical variables Q3 still binds.
        assert_eq!(dropped, 1);
        assert_eq!(rig.num_patterns(), 1);
        let blog_vars = rig.r.query(id3).unwrap().shape.var_syms.clone();
        assert!(effects.dead_vars.iter().all(|v| !blog_vars.contains(v)));
        let (effects, dropped) = rig.unregister(id3).unwrap();
        assert_eq!(dropped, 1);
        assert_eq!(rig.num_patterns(), 0);
        // Dead canonical variables were reported for reclamation.
        assert!(!effects.dead_vars.is_empty());
        assert!(rig.r.var_refs.is_empty());
    }

    #[test]
    fn unregister_single_block_subscription() {
        let mut rig = Rig::new();
        let id = rig.register("S//blog[.//author]", ProcessingMode::Mmqjp);
        assert_eq!(rig.num_patterns(), 1);
        let (effects, dropped) = rig.unregister(id).unwrap();
        assert_eq!(dropped, 1);
        assert_eq!(rig.num_patterns(), 0);
        assert_eq!(rig.r.num_queries(), 0);
        assert!(!effects.window_changed);
    }

    #[test]
    fn reregistered_isomorphic_query_starts_a_fresh_template() {
        let mut r = registry();
        let id1 = reg(&mut r, 0, Q1, ProcessingMode::Mmqjp);
        let t1 = r.query(id1).unwrap().shape().orientations()[0].template;
        r.unregister(id1).unwrap();
        assert_eq!(r.num_templates(), 0);
        let id2 = reg(&mut r, 1, Q1, ProcessingMode::Mmqjp);
        assert_ne!(id2, id1);
        let t2 = r.query(id2).unwrap().shape().orientations()[0].template;
        assert_ne!(t2, t1, "retired template ids are never revived");
        assert_eq!(r.num_templates(), 1);
        assert_eq!(r.template_runtime(t2).unwrap().members(), 1);
        assert!(r.template_runtime(t1).is_none());
    }

    #[test]
    fn audit_is_clean_and_detects_seeded_violations() {
        let mut r = registry();
        let id1 = reg(&mut r, 0, Q1, ProcessingMode::Mmqjp);
        reg(&mut r, 1, Q3, ProcessingMode::Mmqjp);
        r.unregister(id1).unwrap();
        let mut out = Vec::new();
        r.audit(&mut out);
        assert!(out.is_empty(), "healthy registry reported: {out:?}");

        // Seed a window-multiset drift.
        *r.finite_windows.entry(999).or_insert(0) += 1;
        let mut out = Vec::new();
        r.audit(&mut out);
        assert!(out
            .iter()
            .any(|v| matches!(v, AuditViolation::WindowMultiset { .. })));
        r.finite_windows.remove(&999);
        let mut out = Vec::new();
        r.audit(&mut out);
        assert!(out.is_empty(), "{out:?}");

        // Seed a canonical-variable refcount drift: one count per live
        // query whose shape binds the variable.
        let sym = *r.var_refs.keys().next().unwrap();
        *r.var_refs.get_mut(&sym).unwrap() += 1;
        let mut out = Vec::new();
        r.audit(&mut out);
        assert!(
            matches!(
                out.as_slice(),
                [AuditViolation::VariableRefcount {
                    tracked: 2,
                    expected: 1,
                    ..
                }]
            ),
            "{out:?}"
        );
    }

    #[test]
    fn unknown_query_lookup_fails() {
        let r = registry();
        assert!(matches!(
            r.query(QueryId(5)),
            Err(CoreError::UnknownQuery { id: 5 })
        ));
        assert!(r.resolve_rid(99).is_none());
    }

    #[test]
    fn template_runtime_metadata() {
        let mut r = registry();
        reg(&mut r, 0, Q1, ProcessingMode::Mmqjp);
        let tr = r.templates().next().unwrap();
        assert_eq!(tr.rt_name(), "RT_0");
        assert_eq!(tr.members(), 1);
        assert_eq!(tr.template.num_meta_vars(), 6);
        assert!(tr.cqt_basic.validate().is_ok());
        assert!(tr.cqt_materialized.validate().is_ok());
        assert_eq!(r.catalog().len(), 1);
        assert!(!r.interner().is_empty());
    }

    /// Everything a registration writes into the registry's shared
    /// structures and into the front it is subscribed to, in a comparable
    /// order.
    #[derive(Debug, PartialEq)]
    struct Footprint {
        rt: Vec<(TemplateId, Vec<Vec<Value>>)>,
        requested_edges: BTreeMap<PatternId, (Vec<RequestedEdge>, Vec<EdgeConsumers>)>,
        singles: Vec<(QueryId, PatternId, String, Option<String>)>,
        live_vars: BTreeSet<Symbol>,
        pattern_refs: Vec<(PatternId, usize)>,
        windows: (BTreeMap<u64, usize>, usize),
        plans_compiled: usize,
    }

    fn footprint(rig: &Rig) -> Footprint {
        let (r, table) = (&rig.r, rig.front.table());
        let (index, requested) = (table.index(), table.requested());
        Footprint {
            rt: r
                .templates
                .iter()
                .map(|(&tid, t)| (tid, t.rt.iter().map(|row| row.to_vec()).collect()))
                .collect(),
            requested_edges: requested
                .iter()
                .map(|(&pid, list)| (pid, (list.clone(), requested.consumers(pid).to_vec())))
                .collect(),
            singles: table
                .singles()
                .iter()
                .map(|s| (s.query, s.pid, s.pattern().signature(), s.publish.clone()))
                .collect(),
            // Counted per shape, which the memo shares and a fresh
            // derivation does not: compare which variables are live.
            live_vars: r.var_refs.keys().copied().collect(),
            pattern_refs: index
                .patterns()
                .map(|(pid, _)| (pid, index.refcount(pid)))
                .collect(),
            windows: (r.finite_windows.clone(), r.infinite_windows),
            plans_compiled: r.plans_compiled,
        }
    }

    enum Step {
        Reg(&'static str),
        Unreg(usize),
    }

    /// Replay `script` twice — once through the shape memo, once deriving
    /// every shape afresh — and require the same footprint after every
    /// step. Returns the memo run's `(shapes_built, shapes_reused)`.
    fn hits_match_misses(mode: ProcessingMode, script: &[Step]) -> (usize, usize) {
        let (mut memo, mut fresh) = (Rig::new(), Rig::new());
        let mut ids = Vec::new();
        for (n, step) in script.iter().enumerate() {
            match step {
                Step::Reg(text) => {
                    fresh.r.forget_shapes();
                    let id = memo.register(text, mode);
                    assert_eq!(fresh.register(text, mode), id);
                    ids.push(id);
                }
                Step::Unreg(i) => {
                    assert_eq!(
                        memo.unregister(ids[*i]).unwrap(),
                        fresh.unregister(ids[*i]).unwrap(),
                        "{mode:?} step {n}"
                    );
                }
            }
            assert_eq!(footprint(&memo), footprint(&fresh), "{mode:?} step {n}");
            let out = memo.audit();
            assert!(out.is_empty(), "{mode:?} step {n}: {out:?}");
        }
        assert_eq!(fresh.r.shapes_reused(), 0);
        (memo.r.shapes_built(), memo.r.shapes_reused())
    }

    const Q1_RENAMED: &str = "S//book->a[.//author->b][.//title->c] \
        FOLLOWED BY{c=f AND b=e, 100} \
        S//blog->d[.//author->e][.//title->f]";
    const Q1_WIDE: &str = "S//book->x1[.//author->x2][.//title->x3] \
        FOLLOWED BY{x2=x5 AND x3=x6, 250} \
        S//blog->x4[.//author->x5][.//title->x6]";
    const JOIN: &str = "S//item->a[.//title->t1] JOIN{t1=t2, 50} S//post->b[.//title->t2]";
    const SELF_JOIN: &str = "S//item->a[.//title->t1] JOIN{t1=t2, 70} S//item->b[.//title->t2]";
    const SINGLE: &str = "S//blog[.//author]";

    #[test]
    fn a_memo_hit_registers_exactly_what_a_miss_registers() {
        use Step::{Reg, Unreg};
        let script = [
            Reg(Q1),         // 0
            Reg(Q1_RENAMED), // 1: renamed variables, permuted predicates
            Reg(Q1_WIDE),    // 2: Q1's shape under another window
            Reg(JOIN),       // 3: two orientations
            Reg(SELF_JOIN),  // 4: both orientations on one pattern
            Reg(SINGLE),     // 5
            Reg(SINGLE),     // 6
            Reg(Q2),         // 7: Q1's template, other patterns
            Reg(JOIN),       // 8
            Reg(SELF_JOIN),  // 9
            // Q1's patterns drop while Q2 keeps the template live.
            Unreg(0),
            Unreg(1),
            Unreg(2),
            Reg(Q1),      // 10: fresh pattern ids, the same template
            Reg(Q1_WIDE), // 11
            // The single-value-join template retires with its last member.
            Unreg(3),
            Unreg(8),
            Unreg(4),
            Unreg(9),
            Reg(SELF_JOIN), // 12: a fresh template id
            Reg(JOIN),      // 13
            Unreg(5),
            Unreg(6),
            Reg(SINGLE), // 14: a fresh pattern id
            Unreg(7),
            Unreg(10),
            Unreg(11),
            Unreg(12),
            Unreg(13),
            Unreg(14),
        ];
        for mode in [
            ProcessingMode::Mmqjp,
            ProcessingMode::MmqjpViewMat,
            ProcessingMode::Sequential,
        ] {
            let (built, reused) = hits_match_misses(mode, &script);
            assert_eq!((built, reused), (10, 5), "{mode:?}");
        }
    }

    #[test]
    fn the_memo_holds_one_entry_per_live_distinct_clause() {
        let mut r = registry();
        let a = reg(&mut r, 0, Q1, ProcessingMode::Mmqjp);
        let b = reg(&mut r, 1, Q1_WIDE, ProcessingMode::Mmqjp);
        let c = reg(&mut r, 2, Q1_RENAMED, ProcessingMode::Mmqjp);
        // Windows aside, Q1 and Q1_WIDE are one clause; the renamed clause
        // is a second entry in the same template.
        assert_eq!(r.num_shapes(), 2);
        assert_eq!((r.shapes_built(), r.shapes_reused()), (2, 1));
        assert_eq!(r.num_templates(), 1);
        assert_eq!(r.catalog().memberships(), 2);
        // Per-query data stays per query.
        let wls: Vec<i64> = r
            .templates()
            .next()
            .unwrap()
            .rt
            .col_values(7)
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(wls, vec![100, 250, 100]);
        assert_eq!(r.query(b).unwrap().window, Some(Window::Time(250)));
        r.unregister(a).unwrap();
        assert_eq!(r.num_shapes(), 2, "Q1_WIDE still holds Q1's shape");
        r.unregister(b).unwrap();
        assert_eq!(r.num_shapes(), 1);
        r.unregister(c).unwrap();
        assert_eq!(r.num_shapes(), 0);
        let mut out = Vec::new();
        r.audit(&mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn shape_memo_audit_detects_seeded_violations() {
        let fresh = || {
            let mut r = registry();
            for (id, text) in (0..).zip([Q1, Q1_WIDE, JOIN, SINGLE]) {
                reg(&mut r, id, text, ProcessingMode::Mmqjp);
            }
            r
        };
        let memo_violations = |r: &Registry| {
            let mut out = Vec::new();
            r.audit(&mut out);
            out.into_iter()
                .filter_map(|v| match v {
                    AuditViolation::ShapeMemo { reason } => Some(reason),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        // Replace the shape of Q1's clause, in the memo and in every query
        // holding it, by an edited copy.
        let replace = |r: &mut Registry, edit: &dyn Fn(&mut QueryShape)| {
            let key = Arc::clone(&r.query(QueryId(0)).unwrap().shape.key);
            let entry = r.shapes.get_mut(&*key).unwrap();
            let old = Arc::clone(&entry.shape);
            let mut edited = (*old).clone();
            edit(&mut edited);
            entry.shape = Arc::new(edited);
            let new = Arc::clone(&entry.shape);
            for q in r.queries.values_mut() {
                if Arc::ptr_eq(&q.shape, &old) {
                    q.shape = Arc::clone(&new);
                }
            }
        };
        let r = fresh();
        let mut out = Vec::new();
        r.audit(&mut out);
        assert!(out.is_empty(), "healthy registry reported: {out:?}");

        // A refcount that is not the number of holders.
        let mut r = fresh();
        r.shapes.values_mut().next().unwrap().refs += 1;
        assert_eq!(
            memo_violations(&r),
            vec!["entry refcount differs from the live queries holding it"]
        );

        // A stale assignment: two meta-variables swapped.
        let mut r = fresh();
        replace(&mut r, &|shape| shape.orientations[0].assignment.swap(0, 1));
        assert_eq!(
            memo_violations(&r),
            vec!["re-derived orientation differs from the stored one"]
        );

        // Stale cached symbols.
        let mut r = fresh();
        replace(&mut r, &|shape| {
            shape.orientations[0].assignment_syms.reverse();
        });
        assert_eq!(
            memo_violations(&r),
            vec!["re-derived orientation differs from the stored one"]
        );

        // A stale left-side width.
        let mut r = fresh();
        replace(&mut r, &|shape| shape.orientations[0].num_left += 1);
        assert_eq!(
            memo_violations(&r),
            vec!["re-derived orientation differs from the stored one"]
        );

        // A retired template.
        let mut r = fresh();
        replace(&mut r, &|shape| {
            shape.orientations[0].template = TemplateId(99);
        });
        assert!(memo_violations(&r).contains(&"entry names a retired template"));

        // Stale canonical variables.
        let mut r = fresh();
        replace(&mut r, &|shape| {
            shape.var_syms.pop();
        });
        assert!(memo_violations(&r)
            .contains(&"canonical variables differ from the orientations' assignments"));

        // Live queries whose shape the memo no longer files.
        let mut r = fresh();
        r.forget_shapes();
        assert_eq!(
            memo_violations(&r),
            vec!["a live query holds a shape the memo does not file"]
        );
    }

    #[test]
    fn churn_keeps_only_live_queries_and_never_reuses_an_id() {
        let mut e = crate::MmqjpEngine::new(EngineConfig::default());
        let keep = e.register_query_text(Q1).unwrap();
        let mut minted = HashSet::from([keep]);
        for n in 0..1_000 {
            let text = [Q1_WIDE, JOIN, SINGLE, Q2][n % 4];
            let id = e.register_query_text(text).unwrap();
            assert!(minted.insert(id), "{id} minted twice");
            let r = e.registry();
            assert_eq!(r.queries.len(), 2);
            assert!(r.queries.contains_key(&keep) && r.queries.contains_key(&id));
            assert_eq!(r.num_queries(), 2);
            e.unregister_query(id).unwrap();
            assert_eq!(e.registry().queries.keys().collect::<Vec<_>>(), vec![&keep]);
        }
        assert_eq!(e.registry().num_queries(), 1);
        assert!(e.audit().is_empty(), "{:?}", e.audit());
    }

    #[test]
    fn rids_decode_to_their_query_and_orientation() {
        let mut r = registry();
        let join = reg(&mut r, 0, JOIN, ProcessingMode::Mmqjp);
        let followed = reg(&mut r, 1, Q1, ProcessingMode::Mmqjp);
        let q = r.query(join).unwrap();
        for (index, registration) in q.registrations.iter().enumerate() {
            assert_eq!(registration.rid, rid_of(join, index));
            let (resolved, o) = r.resolve_rid(registration.rid).unwrap();
            assert_eq!(resolved.id, join);
            assert!(std::ptr::eq(o, &q.shape().orientations()[index]));
            assert_eq!(o.swapped, index == 1);
        }
        // A FOLLOWED BY clause has one orientation: its odd rid is no one's.
        let (resolved, o) = r.resolve_rid(rid_of(followed, 0)).unwrap();
        assert_eq!((resolved.id, o.swapped), (followed, false));
        assert!(r.resolve_rid(rid_of(followed, 1)).is_none());
        // Negative rids and the rids of ids that are not live resolve nowhere.
        for rid in [-1, -2, i64::MIN, rid_of(QueryId(2), 0)] {
            assert!(r.resolve_rid(rid).is_none(), "{rid}");
        }
        r.unregister(join).unwrap();
        assert!(r.resolve_rid(rid_of(join, 0)).is_none());
        assert!(r.resolve_rid(rid_of(join, 1)).is_none());
    }

    #[test]
    fn registering_a_live_id_errs_and_changes_nothing() {
        let mut rig = Rig::new();
        let id = rig.register(Q1, ProcessingMode::Mmqjp);
        rig.register(JOIN, ProcessingMode::Mmqjp);
        let before = footprint(&rig);
        let memo = (rig.r.shapes_built(), rig.r.shapes_reused());
        // A memo hit (Q1's clause) and a miss (Q2's), both under a live id.
        for text in [Q1_WIDE, Q2] {
            let query = parse_query(text).unwrap();
            let err = rig.r.register(query, id, ProcessingMode::Mmqjp, 0);
            assert!(matches!(err, Err(CoreError::Internal { .. })), "{err:?}");
            assert_eq!(footprint(&rig), before);
            assert_eq!((rig.r.shapes_built(), rig.r.shapes_reused()), memo);
            assert_eq!(rig.r.num_queries(), 2);
            assert_eq!(rig.r.num_shapes(), 2);
            assert_eq!(rig.r.query(id).unwrap().window, Some(Window::Time(100)));
            assert!(rig.audit().is_empty(), "{:?}", rig.audit());
        }
    }
}

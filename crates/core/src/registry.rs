//! Query registration and the full subscription lifecycle: templates, `RT`
//! relations, per-query metadata and the Stage-1 pattern index.
//!
//! **What a registration costs.** Everything registration derives from a
//! query's `FROM` clause depends on the clause alone, not on its window: the
//! normalized blocks, the reduced join graph of each orientation, the
//! template the catalog's isomorphism test finds, the variable assignment,
//! the pattern ids and the requested edges. The registry derives them once
//! per distinct clause (window blanked) into a shared [`QueryShape`] and
//! memoizes it. Registering a query whose clause is already live is a lookup
//! plus per-query work: one `RT` row per orientation, refcount bumps on the
//! shape's patterns and requested edges, a `rid` map entry and the window in
//! the window multiset. A shape is refcounted by its live queries and
//! reclaimed with its last one, so the memo never holds more entries than
//! there are live distinct clauses. While a shape lives, its templates and
//! patterns live too (its queries hold their `RT` rows and pattern
//! refcounts) and ids are never reused, so a memo hit registers exactly what
//! re-deriving the shape would.
//!
//! Queries can be [`register`](Registry::register)ed *and*
//! [`unregister`](Registry::unregister)ed at runtime. Unregistration is
//! incremental — O(the departing query's footprint), never a registry
//! rebuild: the query's `RT` tuples are removed in place, its pattern and
//! requested-edge registrations are released through reference counts (the
//! pattern index drops a pattern when its last subscriber leaves), an
//! emptied template is retired from the catalog, and the window bounds are
//! recomputed from a window multiset so document retention can *tighten*
//! after the widest-window query departs. Freed [`QueryId`]s (and template /
//! pattern ids) are tombstoned, never reused, which keeps shard assignment
//! and the canonical output order deterministic across churn. Per-batch
//! walks — the Stage-1 single-block view and the template loop — visit live
//! entries only, never the tombstones.

use crate::audit::AuditViolation;
use crate::config::ProcessingMode;
use crate::cqt::{self, PlanInputKind};
use crate::error::{CoreError, CoreResult};
use crate::front::{self, Edge, RequestedEdge, RequestedEdges, SingleBlock, Subscriptions};
use crate::relations::schemas;
use mmqjp_relational::{
    verify_plan_strict, ConjunctiveQuery, PhysicalPlan, Relation, SharedKeyRule, StringInterner,
    Symbol, Value, VerifyOptions,
};
use mmqjp_xpath::{PatternId, PatternIndex, PatternNodeId, TreePattern};
use mmqjp_xscl::{
    normalize_query, template, FromClause, JoinGraph, JoinOp, QueryId, QueryTemplate, ReducedGraph,
    SelectClause, Side, TemplateCatalog, TemplateId, Window, XsclQuery,
};
use std::collections::{BTreeMap, HashMap};
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
    pub rt: Relation,
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
}

/// Everything registration derives from one `FROM` clause, window aside:
/// built once per distinct clause and shared, behind an `Arc`, by every live
/// query with that clause (see the module documentation).
#[derive(Debug, Clone)]
pub struct QueryShape {
    /// The memo key: the clause as parsed, window blanked.
    key: Arc<FromClause>,
    /// The normalized clause (canonical variable names, sorted predicates),
    /// window blanked.
    normalized: FromClause,
    /// Pattern-index id of a single-block subscription's pattern.
    single_pid: Option<PatternId>,
    /// One per orientation: a `FOLLOWED BY` clause has one, a symmetric
    /// `JOIN` two (the original and the block-swapped form); a single-block
    /// clause none.
    orientations: Vec<Orientation>,
}

impl QueryShape {
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
    /// Pattern-index id of the previous-document pattern.
    pub prev_pid: PatternId,
    /// Pattern-index id of the current-document pattern.
    pub cur_pid: PatternId,
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
    /// [`orientations`](QueryShape::orientations) (empty for single-block
    /// subscriptions).
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

/// The incremental effects of one [`Registry::unregister`] call, reported so
/// the engine can maintain its counters and caches.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct UnregisterEffects {
    /// Distinct Stage-1 patterns dropped because the departing query was
    /// their last subscriber.
    pub patterns_dropped: usize,
    /// Templates retired (their `RT` relation became empty and their catalog
    /// slot was tombstoned).
    pub templates_retired: usize,
    /// Canonical variable symbols no live pattern binds anymore; view-cache
    /// slices carrying rows under these symbols can be reclaimed.
    pub dead_vars: Vec<Symbol>,
    /// `true` when the departing query changed the registered window bounds
    /// (so retention can tighten).
    pub window_changed: bool,
}

/// The registry of all registered queries, their templates and the Stage-1
/// pattern index.
#[derive(Debug)]
pub struct Registry {
    interner: Arc<StringInterner>,
    pattern_index: PatternIndex,
    /// The live requested-edge lists handed to Stage 1, one per pattern, in
    /// first-registration order (kept deterministic across churn).
    requested_edges: RequestedEdges,
    /// Reference counts behind `requested_edges`: how many live
    /// registrations requested each `(pattern, edge)`.
    edge_refs: HashMap<PatternId, HashMap<Edge, usize>>,
    /// How many live *distinct* patterns bind each canonical variable
    /// symbol. A symbol leaving this map means no future witness row can
    /// carry it.
    var_refs: HashMap<Symbol, usize>,
    catalog: TemplateCatalog,
    /// The live template runtimes in template-id order. A retired template
    /// leaves the map (its id is never reused), so the per-batch template
    /// loop visits live templates only.
    templates: BTreeMap<TemplateId, Box<TemplateRuntime>>,
    /// Query runtimes by `QueryId` index; `None` marks an unregistered query
    /// (ids are never reused). Boxed so a tombstoned slot costs a pointer,
    /// not the full runtime footprint, under unbounded churn.
    queries: Vec<Option<Box<QueryRuntime>>>,
    live_queries: usize,
    /// The live single-block subscriptions in query-id order: the Stage-1
    /// view is built from this list, not from a walk over every query slot
    /// ever assigned.
    singles: Vec<QueryId>,
    /// The shape memo: one entry per live distinct `FROM` clause, keyed by
    /// the clause with its window blanked.
    shapes: HashMap<Arc<FromClause>, ShapeEntry>,
    /// Shapes derived on a memo miss (cumulative).
    shapes_built: usize,
    /// Registrations served by a memo hit (cumulative).
    shapes_reused: usize,
    rid_map: HashMap<i64, (usize, usize)>,
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
            pattern_index: PatternIndex::new(),
            requested_edges: RequestedEdges::new(),
            edge_refs: HashMap::new(),
            var_refs: HashMap::new(),
            catalog: TemplateCatalog::new(),
            templates: BTreeMap::new(),
            queries: Vec::new(),
            live_queries: 0,
            singles: Vec::new(),
            shapes: HashMap::new(),
            shapes_built: 0,
            shapes_reused: 0,
            rid_map: HashMap::new(),
            finite_windows: BTreeMap::new(),
            infinite_windows: 0,
            plans_compiled: 0,
        }
    }

    /// Register a query (already parsed). Returns its id.
    ///
    /// A query whose `FROM` clause (window aside) is already live reuses
    /// that clause's [`QueryShape`]; otherwise the shape is derived and
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
        mode: ProcessingMode,
        arrival_floor: u64,
    ) -> CoreResult<QueryId> {
        let XsclQuery {
            select,
            mut from,
            publish,
            ..
        } = query;
        let window = match &mut from {
            FromClause::Join { window, .. } => Some(std::mem::replace(window, BLANK_WINDOW)),
            FromClause::Single(_) => None,
        };
        let shape = match self.shapes.get_mut(&from) {
            Some(entry) => {
                entry.refs += 1;
                let shape = Arc::clone(&entry.shape);
                self.retain_patterns(&shape);
                self.shapes_reused += 1;
                shape
            }
            None => {
                let shape = self.build_shape(from, mode)?;
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
        let id = QueryId(self.queries.len() as u64);
        let wl = Value::Int(window.map_or(i64::MAX, window_length));
        let mut registrations = Vec::with_capacity(shape.orientations.len());
        for (ri, o) in shape.orientations.iter().enumerate() {
            self.retain_edges(o.prev_pid, &o.prev_edges)?;
            self.retain_edges(o.cur_pid, &o.cur_edges)?;
            let rid = (id.raw() as i64) * 2 + i64::from(o.swapped);
            // RT tuple: (qid, var1..varm, wl).
            let mut tuple = Vec::with_capacity(o.assignment_syms.len() + 2);
            tuple.push(Value::Int(rid));
            tuple.extend(o.assignment_syms.iter().map(|&sym| Value::Sym(sym)));
            tuple.push(wl);
            self.template_mut(o.template)?.rt.push_values(tuple)?;
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
            self.rid_map.insert(rid, (id.raw() as usize, ri));
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
        if shape.single_pid.is_some() {
            self.singles.push(id);
        }
        self.queries.push(Some(Box::new(QueryRuntime {
            id,
            shape,
            window,
            publish,
            select,
            registrations,
            arrival_floor,
        })));
        self.live_queries += 1;
        Ok(id)
    }

    /// Derive a new shape from its key and register its shared structures:
    /// catalog membership (creating and compiling a new template when no
    /// live one is isomorphic) and the Stage-1 patterns, whose first
    /// references are the registering query's. The only caller of
    /// `catalog.insert`.
    fn build_shape(
        &mut self,
        key: FromClause,
        mode: ProcessingMode,
    ) -> CoreResult<Arc<QueryShape>> {
        let query = XsclQuery {
            id: QueryId::default(),
            select: SelectClause::Star,
            from: key,
            publish: None,
        };
        let (normalized, reduced) = derive_shape(&query)?;
        let key = Arc::new(query.from);
        let single_pid = match &normalized {
            FromClause::Single(block) => Some(self.index_pattern(&block.pattern)),
            FromClause::Join { .. } => None,
        };
        let mut shape = QueryShape {
            key,
            normalized,
            single_pid,
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
            let (prev, cur) = oriented_blocks(&shape.normalized, swapped);
            let prev_pid = self.index_pattern(prev);
            let cur_pid = self.index_pattern(cur);
            shape.orientations.push(Orientation {
                template: membership.template,
                assignment: membership.assignment,
                num_left: graph.left.len(),
                assignment_syms,
                swapped,
                prev_pid,
                cur_pid,
                prev_edges: requested_edges_of(&graph, Side::Left),
                cur_edges: requested_edges_of(&graph, Side::Right),
            });
        }
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
    /// pattern and edge registrations, its hold on its shape and — when it
    /// was the last subscriber — the dropped patterns, retired templates and
    /// the reclaimed shape. Ids are tombstoned, never reused. Errors with
    /// [`CoreError::UnknownQuery`] for ids that were never assigned or
    /// already unregistered.
    pub fn unregister(&mut self, id: QueryId) -> CoreResult<UnregisterEffects> {
        let runtime = self
            .queries
            .get_mut(id.raw() as usize)
            .and_then(Option::take)
            .ok_or(CoreError::UnknownQuery { id: id.raw() })?;
        self.live_queries -= 1;

        let mut effects = UnregisterEffects::default();
        let shape = &runtime.shape;
        if let Some(pid) = shape.single_pid {
            self.release_pattern(pid, &mut effects);
            if let Ok(at) = self.singles.binary_search(&id) {
                self.singles.remove(at);
            }
        }
        for (reg, o) in runtime.registrations.iter().zip(&shape.orientations) {
            self.rid_map.remove(&reg.rid);
            // Remove this orientation's RT tuple in place, preserving the
            // registration order of the surviving members.
            let rid = Value::Int(reg.rid);
            let template = self.template_mut(o.template)?;
            let row = template
                .rt
                .col_values(0)
                .iter()
                .position(|qid| *qid == rid)
                .ok_or(CoreError::internal("a live orientation has its RT tuple"))?;
            template.rt.remove_row(row)?;
            if template.rt.is_empty() {
                // Last member left: retire the template from the catalog.
                self.templates.remove(&o.template);
                self.catalog.remove(o.template);
                effects.templates_retired += 1;
            }
            self.release_pattern_edges(o.prev_pid, &o.prev_edges, &mut effects);
            self.release_pattern_edges(o.cur_pid, &o.cur_edges, &mut effects);
        }
        if let Some(window) = runtime.window {
            effects.window_changed = self.untrack_window(window);
        }
        self.release_shape(shape);
        Ok(effects)
    }

    /// Drop one live query's hold on its memoized shape, reclaiming the
    /// entry with its last holder.
    fn release_shape(&mut self, shape: &Arc<QueryShape>) {
        if let Some(entry) = self.shapes.get_mut(&*shape.key) {
            // A shape the memo no longer files (see `forget_shapes`) is
            // simply dropped with its last query.
            if Arc::ptr_eq(&entry.shape, shape) {
                entry.refs -= 1;
                if entry.refs == 0 {
                    self.shapes.remove(&*shape.key);
                }
            }
        }
    }

    /// Register a pattern with the Stage-1 index, counting its canonical
    /// variables when it is newly distinct.
    fn index_pattern(&mut self, pattern: &TreePattern) -> PatternId {
        let pid = self.pattern_index.register(pattern.clone());
        if self.pattern_index.refcount(pid) == 1 {
            for (var, _) in pattern.variables() {
                *self.var_refs.entry(self.interner.intern(var)).or_insert(0) += 1;
            }
        }
        pid
    }

    /// Take one more live query's references on a memoized shape's
    /// patterns, by id.
    fn retain_patterns(&mut self, shape: &QueryShape) {
        let joined = shape
            .orientations
            .iter()
            .flat_map(|o| [o.prev_pid, o.cur_pid]);
        for pid in shape.single_pid.into_iter().chain(joined) {
            self.pattern_index.retain(pid);
        }
    }

    /// Release one registration of a pattern; when it was the last, drop the
    /// pattern and report any canonical variables that died with it.
    fn release_pattern(&mut self, pid: PatternId, effects: &mut UnregisterEffects) {
        // Collect the variables only when this release will drop the
        // pattern — the common shared-pattern path stays allocation-free.
        let vars: Vec<Symbol> = if self.pattern_index.refcount(pid) == 1 {
            self.pattern_index
                .pattern(pid)
                .variables()
                .iter()
                .map(|(var, _)| self.interner.intern(var))
                .collect()
        } else {
            Vec::new()
        };
        if self.pattern_index.unregister(pid) {
            effects.patterns_dropped += 1;
            self.requested_edges.remove(pid);
            self.edge_refs.remove(&pid);
            for sym in vars {
                if let Some(count) = self.var_refs.get_mut(&sym) {
                    *count -= 1;
                    if *count == 0 {
                        self.var_refs.remove(&sym);
                        effects.dead_vars.push(sym);
                    }
                }
            }
        }
    }

    /// Count one more request of each of a join-side pattern's edges. An
    /// edge requested for the first time is resolved here — its two
    /// variables interned, its value source read off the pattern — so
    /// Stage 1 never looks up a string per row; later requests only count
    /// references.
    fn retain_edges(&mut self, pid: PatternId, edges: &[Edge]) -> CoreResult<()> {
        // Resolve against the indexed pattern — the one Stage 1 evaluates
        // the edge on — not the registrant's copy.
        let indexed = self.pattern_index.pattern(pid);
        let counts = self.edge_refs.entry(pid).or_default();
        for &edge in edges {
            let count = counts.entry(edge).or_insert(0);
            *count += 1;
            if *count == 1 && !self.requested_edges.has_edge(pid, edge) {
                let resolved = RequestedEdge::resolve(indexed, edge, &self.interner).ok_or(
                    CoreError::internal("requested edge ends carry canonical variables"),
                )?;
                self.requested_edges.push(pid, resolved);
            }
        }
        Ok(())
    }

    /// Release the requested edges of one registration, then the pattern
    /// registration itself.
    fn release_pattern_edges(
        &mut self,
        pid: PatternId,
        edges: &[Edge],
        effects: &mut UnregisterEffects,
    ) {
        if let Some(counts) = self.edge_refs.get_mut(&pid) {
            for edge in edges {
                if let Some(count) = counts.get_mut(edge) {
                    *count -= 1;
                    if *count == 0 {
                        counts.remove(edge);
                        self.requested_edges.remove_edge(pid, *edge);
                    }
                }
            }
        }
        self.release_pattern(pid, effects);
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
        self.live_queries
    }

    /// Total number of query ids ever assigned (unregistered ids are
    /// tombstoned, never reused, so this never decreases).
    pub fn total_queries_registered(&self) -> usize {
        self.queries.len()
    }

    /// Number of live templates.
    pub fn num_templates(&self) -> usize {
        self.templates.len()
    }

    /// Number of distinct live Stage-1 patterns.
    pub fn num_patterns(&self) -> usize {
        self.pattern_index.len()
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

    /// Iterate over the live queries in query-id order.
    pub fn queries(&self) -> impl Iterator<Item = &QueryRuntime> {
        self.queries.iter().filter_map(|q| q.as_deref())
    }

    /// The live queries, mutably (see [`templates_mut`](Self::templates_mut)).
    pub(crate) fn queries_mut(&mut self) -> impl Iterator<Item = &mut QueryRuntime> {
        self.queries.iter_mut().filter_map(|q| q.as_deref_mut())
    }

    /// Look up a live query by id.
    pub fn query(&self, id: QueryId) -> CoreResult<&QueryRuntime> {
        self.queries
            .get(id.raw() as usize)
            .and_then(|q| q.as_deref())
            .ok_or(CoreError::UnknownQuery { id: id.raw() })
    }

    /// Resolve a registration id from an `RT` / result tuple back to the
    /// query and the orientation of its shape it belongs to.
    pub fn resolve_rid(&self, rid: i64) -> Option<(&QueryRuntime, &Orientation)> {
        let (qi, ri) = self.rid_map.get(&rid)?;
        let q = self.queries.get(*qi)?.as_deref()?;
        Some((q, q.shape.orientations.get(*ri)?))
    }

    /// The Stage-1 pattern index.
    pub fn pattern_index(&self) -> &PatternIndex {
        &self.pattern_index
    }

    /// The per-pattern requested structural edges.
    pub fn requested_edges(&self) -> &RequestedEdges {
        &self.requested_edges
    }

    /// Everything Stage 1 evaluates a document against, borrowed for one
    /// batch: the pattern index (mutably — the shared automaton compiles
    /// lazily), the requested edges, and the live single-block
    /// subscriptions in query-id order.
    pub fn stage1(&mut self) -> Subscriptions<'_> {
        let queries = &self.queries;
        let singles = self
            .singles
            .iter()
            .filter_map(|id| {
                let q = queries.get(id.raw() as usize)?.as_deref()?;
                Some(SingleBlock {
                    query: q.id,
                    pid: q.shape.single_pid?,
                    pattern: q.shape.single_pattern()?,
                    publish: &q.publish,
                    select: q.select,
                })
            })
            .collect();
        Subscriptions {
            index: &mut self.pattern_index,
            requested: &mut self.requested_edges,
            router: None,
            singles,
        }
    }

    /// The template catalog.
    pub fn catalog(&self) -> &TemplateCatalog {
        &self.catalog
    }

    /// The maximum window across *live* join queries: `Some(t)` when all
    /// live join queries have finite time windows, `None` otherwise. Used by
    /// window-based state pruning; recomputed on every population change, so
    /// the bound tightens when the widest-window query unregisters.
    pub fn max_window(&self) -> Option<u64> {
        if self.infinite_windows > 0 {
            None
        } else {
            self.max_finite_window()
        }
    }

    /// The maximum *finite* time window across live join queries, even when
    /// other queries have infinite (or count) windows. Used to derive the
    /// join-state bucket width, which is a granularity (never a correctness)
    /// parameter.
    pub fn max_finite_window(&self) -> Option<u64> {
        self.finite_windows.keys().next_back().copied()
    }

    /// `true` when some live join query has an infinite or count window,
    /// which forbids window-based eviction of join state.
    pub fn has_infinite_window(&self) -> bool {
        self.infinite_windows > 0
    }

    /// Physical plans compiled at registration time so far (cumulative; one
    /// per new template in the MMQJP modes, one per orientation in
    /// Sequential mode).
    pub fn plans_compiled(&self) -> usize {
        self.plans_compiled
    }

    /// Cross-check every refcounted / mirrored registry structure against a
    /// recount over the live queries, appending one [`AuditViolation`] per
    /// inconsistency. Read-only; a healthy registry appends nothing. See
    /// [`MmqjpEngine::audit`](crate::MmqjpEngine::audit).
    pub(crate) fn audit(&self, out: &mut Vec<AuditViolation>) {
        // Live counter vs tombstone recount.
        let counted_queries = self.queries.iter().filter(|q| q.is_some()).count();
        if counted_queries != self.live_queries {
            out.push(AuditViolation::LiveQueryCount {
                tracked: self.live_queries,
                counted: counted_queries,
            });
        }
        if self.catalog.len() != self.templates.len() {
            out.push(AuditViolation::CatalogSize {
                catalog: self.catalog.len(),
                live_templates: self.templates.len(),
            });
        }
        let singles: Vec<QueryId> = self
            .queries()
            .filter(|q| q.shape.single_pid.is_some())
            .map(|q| q.id)
            .collect();
        if singles != self.singles {
            out.push(AuditViolation::SingleBlockList {
                listed: self.singles.len(),
                expected: singles.len(),
            });
        }

        // One recount pass over the live queries: template membership,
        // pattern registrations, requested edges, windows and rids.
        let mut rt_expected: HashMap<TemplateId, usize> = HashMap::new();
        let mut pattern_expected: HashMap<PatternId, usize> = HashMap::new();
        let mut edge_expected: HashMap<PatternId, HashMap<Edge, usize>> = HashMap::new();
        let mut finite_expected: BTreeMap<u64, usize> = BTreeMap::new();
        let mut infinite_expected = 0usize;
        let mut live_rids: HashMap<i64, (usize, usize)> = HashMap::new();
        for (qi, slot) in self.queries.iter().enumerate() {
            let Some(q) = slot.as_deref() else { continue };
            if let Some(pid) = q.shape.single_pid {
                *pattern_expected.entry(pid).or_insert(0) += 1;
            }
            match q.window {
                Some(Window::Time(t)) => *finite_expected.entry(t).or_insert(0) += 1,
                Some(Window::Infinite | Window::Count(_)) => infinite_expected += 1,
                None => {}
            }
            for (ri, (reg, o)) in q
                .registrations
                .iter()
                .zip(&q.shape.orientations)
                .enumerate()
            {
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
                match self.rid_map.get(&reg.rid) {
                    None => out.push(AuditViolation::RidMap {
                        rid: reg.rid,
                        reason: "live orientation missing from the rid map",
                    }),
                    Some(&target) if target != (qi, ri) => out.push(AuditViolation::RidMap {
                        rid: reg.rid,
                        reason: "rid map points at the wrong orientation",
                    }),
                    Some(_) => {}
                }
                live_rids.insert(reg.rid, (qi, ri));
                for (pid, edges) in [(o.prev_pid, &o.prev_edges), (o.cur_pid, &o.cur_edges)] {
                    *pattern_expected.entry(pid).or_insert(0) += 1;
                    let per_edge = edge_expected.entry(pid).or_default();
                    for edge in edges {
                        *per_edge.entry(*edge).or_insert(0) += 1;
                    }
                }
            }
        }

        // The rid map holds nothing beyond the live orientations.
        for rid in self.rid_map.keys() {
            if !live_rids.contains_key(rid) {
                out.push(AuditViolation::RidMap {
                    rid: *rid,
                    reason: "rid map entry has no live orientation",
                });
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
        }

        // Pattern-index refcounts, in both directions: every indexed pattern
        // carries exactly its live-registration count, and every registered
        // pattern is indexed.
        let indexed: HashMap<PatternId, usize> = self
            .pattern_index
            .patterns()
            .map(|(pid, _)| (pid, self.pattern_index.refcount(pid)))
            .collect();
        for (&pid, &refs) in &indexed {
            let expected = pattern_expected.get(&pid).copied().unwrap_or(0);
            if refs != expected {
                out.push(AuditViolation::PatternRefcount {
                    pattern: pid.raw(),
                    index_refs: refs,
                    expected,
                });
            }
        }
        for (&pid, &expected) in &pattern_expected {
            if !indexed.contains_key(&pid) {
                out.push(AuditViolation::PatternRefcount {
                    pattern: pid.raw(),
                    index_refs: 0,
                    expected,
                });
            }
        }

        // Edge refcounts and the deterministic requested-edge lists.
        audit_edge_tables(&edge_expected, &self.edge_refs, &self.requested_edges, out);
        front::audit_requested_symbols(
            &self.pattern_index,
            &self.requested_edges,
            &self.interner,
            out,
        );
        front::audit_emit_plan(&self.pattern_index, &self.requested_edges, None, out);

        // Canonical-variable refcounts: one count per *distinct* live
        // pattern binding the variable.
        let mut var_expected: HashMap<Symbol, usize> = HashMap::new();
        for (_, pattern) in self.pattern_index.patterns() {
            for (var, _) in pattern.variables() {
                *var_expected.entry(self.interner.intern(var)).or_insert(0) += 1;
            }
        }
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
    /// templates and patterns are live; and re-deriving the entry from its
    /// key — normalize, reduce, match against the live template — gives
    /// what it stores.
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
            let pids = shape
                .orientations
                .iter()
                .flat_map(|o| [o.prev_pid, o.cur_pid]);
            if shape
                .single_pid
                .into_iter()
                .chain(pids)
                .any(|pid| self.pattern_index.patterns().all(|(live, _)| live != pid))
            {
                violation("entry names a dropped pattern");
                continue;
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
                id: QueryId::default(),
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
            if let (Some(pid), Some(pattern)) = (shape.single_pid, shape.single_pattern()) {
                if self.pattern_index.pattern(pid).signature() != pattern.signature() {
                    violation("entry's pattern id names another pattern");
                }
            }
            for ((graph, swapped), o) in reduced.iter().zip(&shape.orientations) {
                let live = self.template_runtime(o.template).map(|tr| &tr.template);
                let derived = live.and_then(|t| template::assignment(graph, t));
                let syms: Option<Vec<Symbol>> =
                    o.assignment.iter().map(|v| self.interner.get(v)).collect();
                let (prev, cur) = shape.patterns(o);
                if *swapped != o.swapped
                    || derived.as_ref() != Some(&o.assignment)
                    || live.map(QueryTemplate::num_left) != Some(o.num_left)
                    || syms.as_ref() != Some(&o.assignment_syms)
                    || requested_edges_of(graph, Side::Left) != o.prev_edges
                    || requested_edges_of(graph, Side::Right) != o.cur_edges
                    || self.pattern_index.pattern(o.prev_pid).signature() != prev.signature()
                    || self.pattern_index.pattern(o.cur_pid).signature() != cur.signature()
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

/// Cross-check per-`(pattern, edge)` refcount maps and their mirrored
/// deterministic edge lists against a recount (`expected`). Shared between
/// the registry audit and the sharded front-stage audit, which maintain the
/// same pair of structures.
pub(crate) fn audit_edge_tables(
    expected: &HashMap<PatternId, HashMap<Edge, usize>>,
    edge_refs: &HashMap<PatternId, HashMap<Edge, usize>>,
    requested_edges: &RequestedEdges,
    out: &mut Vec<AuditViolation>,
) {
    let edge_key = |e: &Edge| (e.0.raw(), e.1.raw());
    let all_pids: std::collections::BTreeSet<PatternId> = expected
        .keys()
        .chain(edge_refs.keys())
        .copied()
        .map(|p| PatternId(p.raw()))
        .collect();
    for pid in all_pids {
        let want = expected.get(&pid);
        let have = edge_refs.get(&pid);
        let edges: std::collections::BTreeSet<(u32, u32)> = want
            .into_iter()
            .flat_map(HashMap::keys)
            .chain(have.into_iter().flat_map(HashMap::keys))
            .map(edge_key)
            .collect();
        for (a, b) in edges {
            let edge = (PatternNodeId(a), PatternNodeId(b));
            let want_n = want.and_then(|m| m.get(&edge)).copied().unwrap_or(0);
            let have_n = have.and_then(|m| m.get(&edge)).copied().unwrap_or(0);
            if want_n != have_n {
                out.push(AuditViolation::EdgeRefcount {
                    pattern: pid.raw(),
                    edge: (a, b),
                    tracked: have_n,
                    expected: want_n,
                });
            }
        }
        // The deterministic list mirrors the refcount map's key set with no
        // duplicates.
        let list = requested_edges.get(&pid).map(Vec::as_slice).unwrap_or(&[]);
        let mut seen: std::collections::BTreeSet<(u32, u32)> = std::collections::BTreeSet::new();
        let mut duplicated = false;
        for requested in list {
            if !seen.insert(edge_key(&requested.edge)) {
                duplicated = true;
            }
        }
        if duplicated {
            out.push(AuditViolation::RequestedEdgeList {
                pattern: pid.raw(),
                reason: "duplicate edge in the requested-edge list",
            });
        }
        let keys: std::collections::BTreeSet<(u32, u32)> = have
            .into_iter()
            .flat_map(HashMap::keys)
            .map(edge_key)
            .collect();
        if seen != keys {
            out.push(AuditViolation::RequestedEdgeList {
                pattern: pid.raw(),
                reason: "requested-edge list does not mirror the refcount map",
            });
        }
    }
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
    use mmqjp_xscl::parse_query;

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

    #[test]
    fn paper_example_queries_share_one_template() {
        let mut r = registry();
        let id1 = r
            .register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let id2 = r
            .register(parse_query(Q2).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let id3 = r
            .register(parse_query(Q3).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
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
        assert_eq!(r.num_patterns(), 4);
        assert_eq!(r.max_window(), Some(300));
    }

    #[test]
    fn join_queries_register_two_orientations() {
        let mut r = registry();
        let q = "S//item->a[.//title->t1] JOIN{t1=t2, 50} S//post->b[.//title->t2]";
        let id = r
            .register(parse_query(q).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
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
        let mut r = registry();
        let id = r
            .register(
                parse_query("S//blog[.//author]").unwrap(),
                ProcessingMode::Mmqjp,
                0,
            )
            .unwrap();
        let runtime = r.query(id).unwrap();
        assert!(!runtime.is_join());
        assert!(runtime.shape().single_pattern().is_some());
        assert_eq!(r.num_templates(), 0);
        assert_eq!(r.num_patterns(), 1);
    }

    #[test]
    fn requested_edges_cover_reduced_structure_and_self_edges() {
        let mut r = registry();
        // Single value join: both sides reduce to single nodes, so the
        // requested edges are self edges.
        r.register(
            parse_query("S//book->b[.//author->a] FOLLOWED BY{a=x, 10} S//blog->g[.//author->x]")
                .unwrap(),
            ProcessingMode::Mmqjp,
            0,
        )
        .unwrap();
        let total_edges: usize = r.requested_edges().iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total_edges, 2); // one self edge per pattern
        for (_, edges) in r.requested_edges().iter() {
            for requested in edges {
                assert_eq!(requested.edge.0, requested.edge.1);
            }
        }
        // Q1 adds real structural edges.
        r.register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let q1_edges: usize = r.requested_edges().iter().map(|(_, v)| v.len()).sum();
        assert_eq!(q1_edges, 2 + 4);
    }

    #[test]
    fn sequential_mode_compiles_per_query_cqt() {
        let mut r = registry();
        r.register(parse_query(Q1).unwrap(), ProcessingMode::Sequential, 0)
            .unwrap();
        let reg = &r.queries().next().unwrap().registrations[0];
        assert_eq!(reg.sequential_cqt.num_atoms(), 8);
        // In MMQJP mode the per-query CQT is left empty.
        let mut r2 = registry();
        r2.register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let reg2 = &r2.queries().next().unwrap().registrations[0];
        assert_eq!(reg2.sequential_cqt.num_atoms(), 0);
    }

    #[test]
    fn window_tracking() {
        let mut r = registry();
        r.register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        assert_eq!(r.max_window(), Some(100));
        assert_eq!(r.max_finite_window(), Some(100));
        assert!(!r.has_infinite_window());
        r.register(
            parse_query("S//a->x FOLLOWED BY{x=y, INF} S//b->y").unwrap(),
            ProcessingMode::Mmqjp,
            0,
        )
        .unwrap();
        assert_eq!(r.max_window(), None);
        assert_eq!(r.max_finite_window(), Some(100));
        assert!(r.has_infinite_window());
        assert_eq!(window_length(Window::Time(5)), 5);
        assert_eq!(window_length(Window::Infinite), i64::MAX);
        assert_eq!(window_length(Window::Count(3)), i64::MAX);
    }

    #[test]
    fn unregister_shrinks_shared_template_in_place() {
        let mut r = registry();
        let id1 = r
            .register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let id2 = r
            .register(parse_query(Q2).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let id3 = r
            .register(parse_query(Q3).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        assert_eq!(r.templates().next().unwrap().members(), 3);
        let patterns_before = r.num_patterns();

        // Q2 leaves: its RT tuple goes, the template survives with Q1 and
        // Q3 (in registration order), and the two category patterns it was
        // the only subscriber of are dropped.
        let effects = r.unregister(id2).unwrap();
        assert_eq!(r.num_queries(), 2);
        assert_eq!(r.num_templates(), 1);
        let rt = &r.templates().next().unwrap().rt;
        assert_eq!(rt.len(), 2);
        let wls: Vec<i64> = rt.iter().map(|t| t[7].as_int().unwrap()).collect();
        assert_eq!(wls, vec![100, 300]);
        assert_eq!(effects.patterns_dropped, 2);
        assert_eq!(effects.templates_retired, 0);
        assert_eq!(r.num_patterns(), patterns_before - 2);
        // The unregistered id is gone and resolves nowhere.
        assert!(matches!(r.query(id2), Err(CoreError::UnknownQuery { .. })));
        assert!(r.resolve_rid((id2.raw() as i64) * 2).is_none());
        // Survivors still resolve.
        assert!(r.query(id1).is_ok());
        assert!(r.query(id3).is_ok());

        // The last two members leave: the template is retired.
        let e1 = r.unregister(id1).unwrap();
        assert_eq!(e1.templates_retired, 0);
        let e3 = r.unregister(id3).unwrap();
        assert_eq!(e3.templates_retired, 1);
        assert_eq!(r.num_templates(), 0);
        assert_eq!(r.num_patterns(), 0);
        assert_eq!(r.num_queries(), 0);
        assert!(r.requested_edges().is_empty());
        // Unregistering twice fails.
        assert!(matches!(
            r.unregister(id1),
            Err(CoreError::UnknownQuery { .. })
        ));
        // A fresh registration never reuses a freed id.
        let id4 = r
            .register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        assert_eq!(id4, QueryId(3));
        assert_eq!(r.total_queries_registered(), 4);
    }

    #[test]
    fn unregister_recomputes_window_bounds() {
        let mut r = registry();
        let narrow = r
            .register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap(); // window 100
        let wide = r
            .register(parse_query(Q3).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap(); // window 300
        let inf = r
            .register(
                parse_query("S//a->x FOLLOWED BY{x=y, INF} S//b->y").unwrap(),
                ProcessingMode::Mmqjp,
                0,
            )
            .unwrap();
        assert_eq!(r.max_window(), None);
        assert_eq!(r.max_finite_window(), Some(300));

        // The infinite-window query leaves: pruning becomes possible again.
        let effects = r.unregister(inf).unwrap();
        assert!(effects.window_changed);
        assert_eq!(r.max_window(), Some(300));
        assert!(!r.has_infinite_window());

        // The widest finite window leaves: the bound tightens.
        let effects = r.unregister(wide).unwrap();
        assert!(effects.window_changed);
        assert_eq!(r.max_window(), Some(100));
        assert_eq!(r.max_finite_window(), Some(100));

        // The last windowed query leaves: no bound remains.
        let effects = r.unregister(narrow).unwrap();
        assert!(effects.window_changed);
        assert_eq!(r.max_window(), None);
        assert_eq!(r.max_finite_window(), None);
    }

    #[test]
    fn unregister_duplicate_window_keeps_the_bound() {
        let mut r = registry();
        let a = r
            .register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let b = r
            .register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        assert_eq!(r.max_window(), Some(100));
        let effects = r.unregister(a).unwrap();
        assert!(!effects.window_changed, "the twin still holds window 100");
        assert_eq!(r.max_window(), Some(100));
        let effects = r.unregister(b).unwrap();
        assert!(effects.window_changed);
        assert_eq!(r.max_window(), None);
    }

    #[test]
    fn unregister_releases_shared_patterns_by_refcount() {
        let mut r = registry();
        // Q1 and Q3 share the blog(author, title) pattern.
        let id1 = r
            .register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let id3 = r
            .register(parse_query(Q3).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        assert_eq!(r.num_patterns(), 2); // book(a,t) and the shared blog(a,t)
        let effects = r.unregister(id1).unwrap();
        // The book pattern dies with Q1; the shared blog pattern survives.
        assert_eq!(effects.patterns_dropped, 1);
        assert_eq!(r.num_patterns(), 1);
        let effects = r.unregister(id3).unwrap();
        assert_eq!(effects.patterns_dropped, 1);
        assert_eq!(r.num_patterns(), 0);
        // Dead canonical variables were reported for reclamation.
        assert!(!effects.dead_vars.is_empty());
    }

    #[test]
    fn unregister_single_block_subscription() {
        let mut r = registry();
        let id = r
            .register(
                parse_query("S//blog[.//author]").unwrap(),
                ProcessingMode::Mmqjp,
                0,
            )
            .unwrap();
        assert_eq!(r.num_patterns(), 1);
        let effects = r.unregister(id).unwrap();
        assert_eq!(effects.patterns_dropped, 1);
        assert_eq!(r.num_patterns(), 0);
        assert_eq!(r.num_queries(), 0);
        assert!(!effects.window_changed);
    }

    #[test]
    fn reregistered_isomorphic_query_starts_a_fresh_template() {
        let mut r = registry();
        let id1 = r
            .register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let t1 = r.queries().next().unwrap().shape().orientations()[0].template;
        r.unregister(id1).unwrap();
        assert_eq!(r.num_templates(), 0);
        let id2 = r
            .register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        assert_ne!(id2, id1);
        let t2 = r.queries().next().unwrap().shape().orientations()[0].template;
        assert_ne!(t2, t1, "retired template ids are never revived");
        assert_eq!(r.num_templates(), 1);
        assert_eq!(r.template_runtime(t2).unwrap().members(), 1);
        assert!(r.template_runtime(t1).is_none());
    }

    #[test]
    fn audit_is_clean_and_detects_seeded_violations() {
        let mut r = registry();
        let id1 = r
            .register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        r.register(parse_query(Q3).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        r.unregister(id1).unwrap();
        let mut out = Vec::new();
        r.audit(&mut out);
        assert!(out.is_empty(), "healthy registry reported: {out:?}");

        // Seed a counter drift: the auditor must recount and object.
        r.live_queries += 1;
        let mut out = Vec::new();
        r.audit(&mut out);
        assert!(out.iter().any(|v| matches!(
            v,
            AuditViolation::LiveQueryCount {
                tracked: 2,
                counted: 1
            }
        )));
        r.live_queries -= 1;

        // Seed a window-multiset drift.
        *r.finite_windows.entry(999).or_insert(0) += 1;
        let mut out = Vec::new();
        r.audit(&mut out);
        assert!(out
            .iter()
            .any(|v| matches!(v, AuditViolation::WindowMultiset { .. })));
        r.finite_windows.remove(&999);

        // Seed an edge-refcount drift on some live pattern.
        let pid = *r.edge_refs.keys().next().unwrap();
        if let Some(count) = r
            .edge_refs
            .get_mut(&pid)
            .and_then(|m| m.values_mut().next())
        {
            *count += 1;
        }
        let mut out = Vec::new();
        r.audit(&mut out);
        assert!(out
            .iter()
            .any(|v| matches!(v, AuditViolation::EdgeRefcount { .. })));
    }

    #[test]
    fn requested_edges_cache_their_variable_symbols() {
        let mut r = registry();
        r.register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        for (pid, edges) in r.requested_edges().iter() {
            let pattern = r.pattern_index().pattern(*pid);
            for requested in edges {
                let var = |id: PatternNodeId| pattern.node(id).variable().unwrap();
                assert_eq!(requested.var1, r.interner().intern(var(requested.edge.0)));
                assert_eq!(requested.var2, r.interner().intern(var(requested.edge.1)));
            }
        }
        let mut out = Vec::new();
        r.audit(&mut out);
        assert!(out.is_empty(), "healthy registry reported: {out:?}");

        // Seed a stale symbol: the witness rows of that edge would carry the
        // wrong variable, and the audit must say which edge.
        let (&pid, edges) = r.requested_edges.lists_mut().next().unwrap();
        let stale = &mut edges[0];
        stale.var2 = Symbol::from_raw(stale.var2.raw() + 1_000);
        let edge = (stale.edge.0.raw(), stale.edge.1.raw());
        let mut out = Vec::new();
        r.audit(&mut out);
        assert_eq!(
            out,
            vec![AuditViolation::RequestedEdgeSymbols {
                pattern: pid.raw(),
                edge
            }]
        );
    }

    #[test]
    fn audit_checks_the_live_emit_plan() {
        let mut r = registry();
        for q in [Q1, Q2] {
            r.register(parse_query(q).unwrap(), ProcessingMode::Mmqjp, 0)
                .unwrap();
        }
        // Both book patterns request (book, author) and match this book the
        // same way: the second enumeration is suppressed.
        let book = mmqjp_xml::rss::book_announcement(&["A", "B"], "T", &["C"], "P", "1");
        let mut matches = front::DocumentMatches::default();
        let mut scratch = front::MatchScratch::default();
        front::match_document(&mut r.stage1(), &book, &mut scratch, false, &mut matches);
        assert!(matches.suppressed > 0);
        assert!(!matches.rows.is_empty());
        let mut out = Vec::new();
        r.audit(&mut out);
        assert!(out.is_empty(), "healthy registry reported: {out:?}");

        assert!(r.requested_edges.merge_plan_classes());
        r.audit(&mut out);
        assert_eq!(
            out,
            vec![AuditViolation::EmitPlan {
                reason: "its edge classes"
            }]
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
        r.register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
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
    /// structures, in a comparable order.
    #[derive(Debug, PartialEq)]
    struct Footprint {
        rt: Vec<(TemplateId, Vec<Vec<Value>>)>,
        requested_edges: BTreeMap<PatternId, Vec<RequestedEdge>>,
        edge_refs: BTreeMap<PatternId, BTreeMap<(u32, u32), usize>>,
        var_refs: BTreeMap<Symbol, usize>,
        rid_map: BTreeMap<i64, (usize, usize)>,
        pattern_refs: Vec<(PatternId, usize)>,
        windows: (BTreeMap<u64, usize>, usize),
        plans_compiled: usize,
    }

    fn footprint(r: &Registry) -> Footprint {
        Footprint {
            rt: r
                .templates
                .iter()
                .map(|(&tid, t)| (tid, t.rt.iter().map(|row| row.to_vec()).collect()))
                .collect(),
            requested_edges: r
                .requested_edges
                .iter()
                .map(|(&pid, list)| (pid, list.clone()))
                .collect(),
            edge_refs: r
                .edge_refs
                .iter()
                .map(|(&pid, refs)| {
                    let refs = refs
                        .iter()
                        .map(|(e, &n)| ((e.0.raw(), e.1.raw()), n))
                        .collect();
                    (pid, refs)
                })
                .collect(),
            var_refs: r.var_refs.iter().map(|(&sym, &n)| (sym, n)).collect(),
            rid_map: r.rid_map.iter().map(|(&rid, &at)| (rid, at)).collect(),
            pattern_refs: r
                .pattern_index
                .patterns()
                .map(|(pid, _)| (pid, r.pattern_index.refcount(pid)))
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
        let (mut memo, mut fresh) = (registry(), registry());
        let mut ids = Vec::new();
        for (n, step) in script.iter().enumerate() {
            match step {
                Step::Reg(text) => {
                    let q = parse_query(text).unwrap();
                    fresh.forget_shapes();
                    let id = memo.register(q.clone(), mode, 0).unwrap();
                    assert_eq!(fresh.register(q, mode, 0).unwrap(), id);
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
            let mut out = Vec::new();
            memo.audit(&mut out);
            assert!(out.is_empty(), "{mode:?} step {n}: {out:?}");
        }
        assert_eq!(fresh.shapes_reused(), 0);
        (memo.shapes_built(), memo.shapes_reused())
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
        let a = r
            .register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let b = r
            .register(parse_query(Q1_WIDE).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let c = r
            .register(parse_query(Q1_RENAMED).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
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
    fn stage1_lists_live_single_blocks_in_query_id_order() {
        let mut r = registry();
        let register = |r: &mut Registry, text| {
            r.register(parse_query(text).unwrap(), ProcessingMode::Mmqjp, 0)
                .unwrap()
        };
        let a = register(&mut r, SINGLE);
        register(&mut r, Q1);
        let b = register(&mut r, "S//book[.//title]");
        let c = register(&mut r, SINGLE);
        r.unregister(b).unwrap();
        let listed: Vec<QueryId> = r.stage1().singles.iter().map(|s| s.query).collect();
        assert_eq!(listed, vec![a, c]);
        assert_eq!(r.singles, vec![a, c]);

        // Seed a drift in the maintained list: the audit recounts it.
        r.singles.push(b);
        let mut out = Vec::new();
        r.audit(&mut out);
        assert_eq!(
            out,
            vec![AuditViolation::SingleBlockList {
                listed: 3,
                expected: 2
            }]
        );
    }

    #[test]
    fn shape_memo_audit_detects_seeded_violations() {
        let fresh = || {
            let mut r = registry();
            for text in [Q1, Q1_WIDE, JOIN, SINGLE] {
                r.register(parse_query(text).unwrap(), ProcessingMode::Mmqjp, 0)
                    .unwrap();
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
            let key = Arc::clone(&r.queries().next().unwrap().shape.key);
            let entry = r.shapes.get_mut(&*key).unwrap();
            let old = Arc::clone(&entry.shape);
            let mut edited = (*old).clone();
            edit(&mut edited);
            entry.shape = Arc::new(edited);
            let new = Arc::clone(&entry.shape);
            for q in r.queries.iter_mut().flatten() {
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

        // A dropped pattern.
        let mut r = fresh();
        replace(&mut r, &|shape| {
            shape.orientations[0].prev_pid = PatternId(99);
        });
        assert!(memo_violations(&r).contains(&"entry names a dropped pattern"));

        // Live queries whose shape the memo no longer files.
        let mut r = fresh();
        r.forget_shapes();
        assert_eq!(
            memo_violations(&r),
            vec!["a live query holds a shape the memo does not file"]
        );
    }
}

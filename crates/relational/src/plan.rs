//! Compiled physical plans for conjunctive queries, with a columnar,
//! late-materialization execution kernel whose join tables are shared across
//! the plans of one batch.
//!
//! A [`PhysicalPlan`] resolves a [`ConjunctiveQuery`] exactly once, at
//! compile time — variables are interned to dense [`ColId`]s, relation names
//! to input slots, constant and repeated-variable filters to positional
//! checks — so an execution never looks up a name, and it operates on *row
//! ids* over the columnar [`Relation`] layout:
//!
//! * selections are per-constraint passes over contiguous column slices,
//!   producing row-id vectors (no tuple is copied and no row is assembled);
//! * the intermediate result is **one row-id column per joined atom**;
//! * there is **one join step**: it builds a hash table on the atom and
//!   probes it with the intermediate result. The table is a flat
//!   power-of-two `heads` array, per-row `chain` links and the per-row key
//!   hashes. A step resolves each key column once (a `&[Value]` slice for
//!   flat inputs) and hashes the probe keys a column at a time with the same
//!   routine that hashed the build side; a probe compares the stored hash
//!   before it touches any [`Value`] and emits `(left row, right row id)`
//!   pairs, which are then verified exactly, again a key column at a time;
//! * the existing columns are gathered by the pairs' left rows afterwards —
//!   unless every left row found exactly one partner, in order: then the
//!   step leaves them untouched and only appends the right ids as the new
//!   atom's column (the *in-place* step);
//! * full output tuples are materialized exactly once, at the final head
//!   projection, appended column-by-column through the same resolved
//!   columns (optionally deduplicated first, hashed column-wise too).
//!
//! # What is shared across executions
//!
//! The engine runs one plan per template over the *same* few relations, so
//! the executor is built to pay for a batch once rather than once per plan,
//! and for a plan once rather than once per execution:
//!
//! * **Join tables.** A caller tags the inputs that are the same relation for
//!   every execution of a batch ([`PlanInput::shared`]). For an *unfiltered*
//!   atom over a tagged input the table is memoized in the [`ExecScratch`]
//!   under `(tag, key positions)` and probed by every later step — of this
//!   plan or the next — that joins the same input on the same columns.
//!   [`ExecScratch::begin_batch`] forgets the tables when the relations
//!   behind the tags change; an always-on row-count check turns a forgotten
//!   call into [`RelError::StaleJoinTable`] instead of a wrong row. Filtered
//!   atoms and unmarked inputs get a per-step table.
//! * **Kept tables.** An input that changes rarely — a template's `RT`,
//!   which only registration changes — is stamped with a version instead
//!   ([`PlanInput::versioned`]). The *plan* keeps the table of an unfiltered
//!   atom over it across executions and batches, under `(input slot, key
//!   positions)`, and rebuilds it only when an execution brings another
//!   version or row count. The caller moves the version with every change;
//!   a debug-build spot check compares a kept table's stored hashes with
//!   its input.
//! * **Join orders.** The greedy order is driven by **sampled selectivity
//!   estimates**: each atom column's distinct-value count is estimated from
//!   up to 64 hashed samples, and the planner picks the connected atom
//!   minimizing the estimated growth of the intermediate — which keeps
//!   low-selectivity joins (e.g. two variable-name columns over the whole
//!   `Rbin` state) from running early. Sampling and the O(atoms²) planner
//!   run once per *data shape*: a plan keeps its last order beside the atom
//!   lengths it was planned for and re-plans only when some atom's
//!   (filtered) length leaves `[½×, 2×]` of its planned length, both lengths
//!   clamped up to the 64-row sample first. An atom of at most 64 rows was
//!   sampled whole and costs less to join than a planning pass, so atoms
//!   that flip between a few rows and a few dozen never re-plan.
//! * **Step programs.** With the order, the plan stores what the order
//!   implies: per step, the input slot, the intermediate's `(step,
//!   position)` key columns and the atom's key positions, and the `(step,
//!   position)` of every head column. An execution reads them instead of
//!   resolving variables against what is bound so far; they are rebuilt in
//!   place whenever the order is, and [`PhysicalPlan::check_program`]
//!   re-derives them for an audit.
//! * **Buffers.** All executor buffers, shared tables included, live in the
//!   [`ExecScratch`] pool the caller owns, so steady-state evaluation
//!   performs no per-batch allocations beyond the result relation itself
//!   (`cargo run -p xtask -- lint` keeps allocating calls out of this
//!   file's execution path).
//!
//! The result of an execution is a bag: every order and every table yields
//! the same rows, but their order is the executor's own and no caller may
//! depend on it. The `properties.rs` proptests in the integration suite
//! certify bag equality with a nested-loop reference evaluator that shares
//! no code with this file, and that sharing one scratch among many plans
//! never changes an answer.

use crate::conjunctive::{ConjunctiveQuery, Term};
use crate::error::{RelError, RelResult};
use crate::fxhash::FxHasher;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::segment::SegmentedRelation;
use crate::value::Value;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// A dense column id assigned to each distinct query variable at compile
/// time. All runtime bookkeeping (bound-variable sets, key resolution, head
/// projection) uses these ids; variable *names* never appear on the hot
/// path.
pub type ColId = u32;

/// Sentinel for "no entry" in the executor's intrusive hash chains.
const NONE: u32 = u32::MAX;

/// Number of rows sampled per column for the distinct-count estimate.
const DISTINCT_SAMPLE: usize = 64;

/// One compiled body atom: its input slot plus the pre-resolved positional
/// filters and variable bindings.
#[derive(Debug, Clone)]
pub(crate) struct PhysAtom {
    /// Index into [`PhysicalPlan::relations`].
    pub(crate) rel: u32,
    /// `(position, constant)`: the column at `position` must equal the
    /// constant.
    pub(crate) consts: Vec<(u32, Value)>,
    /// `(position, first_position)`: intra-atom repeated variables; the two
    /// columns must be equal.
    pub(crate) dups: Vec<(u32, u32)>,
    /// The atom's distinct variables in first-occurrence order, each with
    /// the column position of its first occurrence.
    pub(crate) vars: Vec<(ColId, u32)>,
}

/// The join order of a plan's last planning pass, beside the (filtered) atom
/// lengths it was planned for and the step program compiled for it. Empty
/// until the first execution.
#[derive(Debug, Clone, Default)]
struct OrderMemo {
    order: Vec<usize>,
    lens: Vec<u32>,
    program: StepProgram,
}

impl OrderMemo {
    /// `true` when an order was planned and every atom's current length is
    /// still within `[½×, 2×]` of the length it was planned for, both
    /// lengths clamped up to [`DISTINCT_SAMPLE`] first: at or below that many
    /// rows the planner sampled every row anyway, and a step over so few rows
    /// costs less than one planning pass, so small atoms never re-plan.
    fn covers(&self, lens: &[u32]) -> bool {
        let floor = DISTINCT_SAMPLE as u64;
        self.order.len() == lens.len()
            && lens.iter().zip(&self.lens).all(|(&len, &planned)| {
                let len = u64::from(len).max(floor);
                let planned = u64::from(planned).max(floor);
                2 * len >= planned && len <= 2 * planned
            })
    }
}

/// The step program of a memoized join order: everything an execution
/// would otherwise resolve by searching the variables bound so far. Step `s`
/// joins the atom over input slot `step_rels[s]`; for `s > 0` its key
/// columns are the intermediate's `(step, position)` specs
/// `left_keys[key_ends[s - 1]..key_ends[s]]`, matched against the atom's
/// positions in the same range of `right_keys`. `head` resolves each head
/// column to the `(step, position)` it is fetched from. Rebuilt in place
/// whenever the order is (re)planned.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct StepProgram {
    step_rels: Vec<u32>,
    key_ends: Vec<u32>,
    left_keys: Vec<(u32, u32)>,
    right_keys: Vec<u32>,
    head: Vec<(u32, u32)>,
}

impl StepProgram {
    /// Derive the program of `order` (a permutation of `atoms`) into this
    /// one's buffers.
    fn derive(&mut self, atoms: &[PhysAtom], head: &[ColId], order: &[usize]) {
        self.step_rels.clear();
        self.key_ends.clear();
        self.left_keys.clear();
        self.right_keys.clear();
        self.head.clear();
        for (step, &ai) in order.iter().enumerate() {
            let atom = &atoms[ai];
            self.step_rels.push(atom.rel);
            // Key columns: the atom's variables already bound on the left.
            for &(col, pos) in &atom.vars {
                if let Some(spec) = binding(atoms, &order[..step], col) {
                    self.left_keys.push(spec);
                    self.right_keys.push(pos);
                }
            }
            self.key_ends.push(self.left_keys.len() as u32);
        }
        for &col in head {
            let spec =
                binding(atoms, order, col).expect("validate() guarantees head variables are bound"); // lint:allow validate() bound every head variable and the order holds every atom
            self.head.push(spec);
        }
    }

    /// Step `step`'s key specs on the intermediate and key positions on its
    /// atom (`step > 0`).
    #[inline]
    fn keys(&self, step: usize) -> (&[(u32, u32)], &[u32]) {
        let range = self.key_ends[step - 1] as usize..self.key_ends[step] as usize;
        (&self.left_keys[range.clone()], &self.right_keys[range])
    }
}

/// The `(step, position)` that `col` is fetched from when the atoms join in
/// `order`: the first step whose atom binds it.
fn binding(atoms: &[PhysAtom], order: &[usize], col: ColId) -> Option<(u32, u32)> {
    order.iter().enumerate().find_map(|(step, &ai)| {
        atoms[ai]
            .vars
            .iter()
            .find(|&&(c, _)| c == col)
            .map(|&(_, pos)| (step as u32, pos))
    })
}

/// A conjunctive query compiled against fixed relation arities.
///
/// Compile once (at query-registration time), execute per batch with
/// [`PhysicalPlan::execute`] over borrowed inputs and a pooled
/// [`ExecScratch`].
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    pub(crate) head: Vec<ColId>,
    pub(crate) head_schema: Schema,
    pub(crate) atoms: Vec<PhysAtom>,
    pub(crate) relations: Vec<String>,
    pub(crate) col_names: Vec<String>,
    memo: OrderMemo,
    kept: KeptTables,
}

impl PhysicalPlan {
    /// Compile a conjunctive query. `arity_of` supplies the arity of each
    /// relation the body mentions (`None` for unknown relations). Fails with
    /// [`RelError::MalformedQuery`] for structurally invalid queries or
    /// arity mismatches, and [`RelError::UnknownRelation`] for unresolvable
    /// atoms.
    pub fn compile(
        query: &ConjunctiveQuery,
        arity_of: impl Fn(&str) -> Option<usize>,
    ) -> RelResult<PhysicalPlan> {
        query
            .validate()
            .map_err(|reason| RelError::MalformedQuery { reason })?;

        let mut col_names: Vec<String> = Vec::new();
        let col_of = |name: &str, col_names: &mut Vec<String>| -> ColId {
            match col_names.iter().position(|c| c == name) {
                Some(i) => i as ColId,
                None => {
                    col_names.push(name.to_owned());
                    (col_names.len() - 1) as ColId
                }
            }
        };

        let mut relations: Vec<String> = Vec::new();
        let mut atoms = Vec::with_capacity(query.body.len());
        for atom in &query.body {
            let arity = arity_of(&atom.relation).ok_or_else(|| RelError::UnknownRelation {
                relation: atom.relation.clone(),
            })?;
            if atom.terms.len() != arity {
                return Err(RelError::MalformedQuery {
                    reason: format!(
                        "atom {} has arity {}, relation has arity {}",
                        atom,
                        atom.terms.len(),
                        arity
                    ),
                });
            }
            let rel = match relations.iter().position(|r| r == &atom.relation) {
                Some(i) => i as u32,
                None => {
                    relations.push(atom.relation.clone());
                    (relations.len() - 1) as u32
                }
            };
            let mut consts = Vec::new();
            let mut dups = Vec::new();
            let mut vars: Vec<(ColId, u32)> = Vec::new();
            // First-occurrence position of each variable within this atom.
            let mut first: Vec<(&str, u32)> = Vec::new();
            for (pos, term) in atom.terms.iter().enumerate() {
                match term {
                    Term::Const(c) => consts.push((pos as u32, *c)),
                    Term::Var(v) => match first.iter().find(|(name, _)| name == v) {
                        Some(&(_, first_pos)) => dups.push((pos as u32, first_pos)),
                        None => {
                            first.push((v, pos as u32));
                            vars.push((col_of(v, &mut col_names), pos as u32));
                        }
                    },
                }
            }
            atoms.push(PhysAtom {
                rel,
                consts,
                dups,
                vars,
            });
        }

        let head: Vec<ColId> = query
            .head
            .iter()
            .map(|h| {
                col_names
                    .iter()
                    .position(|c| c == h)
                    .map(|i| i as ColId)
                    .ok_or_else(|| RelError::MalformedQuery {
                        reason: format!("head variable `{h}` is not bound in the body"),
                    })
            })
            .collect::<RelResult<_>>()?;

        // The head may repeat a variable (the output then repeats the
        // column); build the schema through `project`, which accepts
        // duplicates, rather than `Schema::new`, which asserts uniqueness.
        let mut distinct_head: Vec<&str> = Vec::new();
        for h in &query.head {
            if !distinct_head.contains(&h.as_str()) {
                distinct_head.push(h);
            }
        }
        let head_refs: Vec<&str> = query.head.iter().map(String::as_str).collect();
        let head_schema = Schema::new(distinct_head)
            .project(&head_refs)
            .expect("head names project from themselves"); // lint:allow projecting a schema onto its own names

        Ok(PhysicalPlan {
            head,
            head_schema,
            atoms,
            relations,
            col_names,
            memo: OrderMemo::default(),
            kept: KeptTables::default(),
        })
    }

    /// The distinct relation names the plan reads, in input-slot order.
    /// [`execute`](Self::execute) expects one [`PlanInput`] per entry, in
    /// this order.
    pub fn relations(&self) -> &[String] {
        &self.relations
    }

    /// Number of body atoms.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Execute the plan over `inputs` (one per [`relations`](Self::relations)
    /// entry, same order), reusing `scratch` for every internal buffer. With
    /// `distinct`, duplicate head tuples are dropped in the materialization
    /// pass, before anything is cloned. The result is a *bag*: its row order
    /// is whatever the memoized join order and the shared tables produce, and
    /// callers must not depend on it.
    ///
    /// Takes `&mut self` because the plan keeps its last join order with its
    /// step program, and the join tables of its versioned inputs (see the
    /// module docs); nothing else about the plan changes.
    ///
    /// Fails with [`RelError::StaleJoinTable`] when an input tagged
    /// [`shared`](PlanInput::shared) has a different row count than the
    /// table memoized for its tag — the caller changed the input without
    /// calling [`ExecScratch::begin_batch`].
    ///
    /// # Panics
    /// Panics if `inputs.len()` differs from the number of plan relations.
    pub fn execute(
        &mut self,
        inputs: &[PlanInput<'_>],
        scratch: &mut ExecScratch,
        distinct: bool,
    ) -> RelResult<Relation> {
        assert_eq!(
            inputs.len(),
            self.relations.len(),
            "one PlanInput per plan relation"
        );
        let PhysicalPlan {
            head,
            head_schema,
            atoms,
            col_names,
            memo,
            kept,
            ..
        } = self;
        let ExecScratch {
            sels,
            samples,
            table,
            shared,
            cols,
            gathered,
            pair_left,
            pair_right,
            hashes,
            keep,
            dedup,
            bound,
            lens,
            filtered,
            remaining,
            counters,
            materialize_nanos,
            primed,
        } = scratch;
        if *primed {
            counters.scratch_reuses += 1;
        } else {
            *primed = true;
        }

        let n = atoms.len();
        let mut out = Relation::new(head_schema.clone());
        if n == 0 {
            return Ok(out);
        }

        // ---- Selection: per-atom row-id vectors -------------------------
        // Each constraint is one pass over a contiguous column slice: the
        // first constraint seeds the row-id vector, the rest filter it.
        grow_pool(sels, n);
        lens.clear();
        filtered.clear();
        for (i, atom) in atoms.iter().enumerate() {
            let input = &inputs[atom.rel as usize];
            if atom.consts.is_empty() && atom.dups.is_empty() {
                // Unfiltered atom: the selection is the whole relation; no
                // row-id vector is materialized.
                filtered.push(false);
                lens.push(input.len());
            } else {
                select_atom(atom, input, &mut sels[i]);
                filtered.push(true);
                lens.push(sels[i].len() as u32);
            }
        }
        // A conjunction with an empty atom is empty, whatever the rest holds.
        if lens.contains(&0) {
            return Ok(out);
        }

        // ---- Join order: planned once per data shape --------------------
        // The sampled greedy order is kept beside the atom lengths it was
        // planned for, with its step program, and reused until some atom's
        // (filtered) length leaves [½×, 2×] of its planned length — lengths
        // clamped up to the sample size. Any order is *correct*; the memo
        // only decides how often the O(atoms²) planner and its sampling run.
        if memo.covers(lens) {
            if n > 1 {
                counters.orders_reused += 1;
            }
        } else {
            // Up to [`DISTINCT_SAMPLE`] evenly strided row samples per atom,
            // hashed per variable column (flattened column-major). The
            // planner estimates the distinct count of any bound-column
            // *combination* from them, which — unlike per-column estimates
            // multiplied under an independence assumption — stays honest for
            // correlated columns. Only multi-atom bodies need them.
            grow_pool(samples, n);
            if n > 1 {
                for (i, atom) in atoms.iter().enumerate() {
                    let input = &inputs[atom.rel as usize];
                    let nrows = lens[i] as usize;
                    let s = &mut samples[i];
                    s.clear();
                    let sc = nrows.min(DISTINCT_SAMPLE);
                    let step = nrows / sc; // nrows >= 1: empty atoms returned above
                    let sel: Option<&[u32]> = filtered[i].then_some(sels[i].as_slice());
                    for &(_, pos) in &atom.vars {
                        for j in 0..sc {
                            s.push(hash_value(input.value(base_id(sel, j * step), pos)));
                        }
                    }
                }
                counters.orders_planned += 1;
            }
            join_order(
                atoms,
                lens,
                samples,
                col_names.len(),
                bound,
                remaining,
                &mut memo.order,
            );
            memo.lens.clear();
            memo.lens.extend_from_slice(lens);
            memo.program.derive(atoms, head, &memo.order);
        }
        let order = memo.order.as_slice();
        let program = &memo.program;

        // ---- Pipeline of row-id hash joins ------------------------------
        // The intermediate result is one row-id column per joined atom
        // (`cols[s]` for the atom joined at step `s`); the step program says
        // which `(step, position)` each key and head column is fetched from.
        // Every connected step builds on the atom and probes with the
        // intermediate, so the table of an unfiltered batch-shared atom can
        // be built once per batch and reused by every later step that joins
        // the same input on the same key columns, and the table of an
        // unfiltered versioned atom lives as long as its input's version.
        grow_pool(cols, n);
        let first = order[0];
        cols[0].clear();
        if filtered[first] {
            cols[0].extend_from_slice(&sels[first]);
        } else {
            cols[0].extend(0..lens[first]);
        }

        for (step, &ai) in order.iter().enumerate().skip(1) {
            let atom = &atoms[ai];
            let right = &inputs[atom.rel as usize];
            let (left_keys, right_keys) = program.keys(step);
            let right_rows = lens[ai] as usize;
            let right_sel: Option<&[u32]> = filtered[ai].then_some(sels[ai].as_slice());
            let joined = Joined {
                cols: &cols[..step],
                inputs,
                step_rels: &program.step_rels,
            };

            pair_left.clear();
            pair_right.clear();
            if left_keys.is_empty() {
                // Disconnected body: cross product, left-outer order.
                for l in 0..joined.rows() as u32 {
                    for r in 0..right_rows {
                        pair_left.push(l);
                        pair_right.push(base_id(right_sel, r));
                    }
                }
            } else {
                let built: &JoinTable = match (right.shared, right.version, right_sel) {
                    (Some(tag), _, None) => {
                        shared.get_or_build(tag, right_keys, right, counters)?
                    }
                    (None, Some(version), None) => {
                        kept.get_or_build(atom.rel, version, right_keys, right, counters)
                    }
                    _ => {
                        table.build(right, right_sel, right_keys, right_rows);
                        counters.tables_built += 1;
                        &*table
                    }
                };
                joined.hash_rows(left_keys, hashes);
                probe(built, hashes, right_sel, pair_left, pair_right);
                counters.rows_probed += hashes.len() as u64;
                // Equal hashes are verified exactly, one key column at a
                // time (collisions must not join).
                for (&key, &pos) in left_keys.iter().zip(right_keys.iter()) {
                    let (ids, vals) = joined.column(key);
                    retain_equal(pair_left, pair_right, ids, vals, ColVals::of(right, pos));
                }
            }
            if pair_left.is_empty() {
                return Ok(out);
            }
            let (joined, rest) = cols.split_at_mut(step);
            counters.ids_moved +=
                extend_columns(joined, &mut rest[0], pair_left, pair_right, gathered);
        }

        // ---- Materialize: head projection, tuples built exactly once ----
        // Each head column is resolved once and appended column-by-column
        // into the output's columnar storage; with `distinct`, rows are
        // hashed and compared in place *before* anything is cloned.
        let mat_start = Instant::now();
        let head_specs = program.head.as_slice();
        let joined = Joined {
            cols: &cols[..n],
            inputs,
            step_rels: &program.step_rels,
        };
        let out_len = if distinct {
            joined.hash_rows(head_specs, hashes);
            first_occurrences(joined, head_specs, hashes, dedup, keep);
            keep.len()
        } else {
            joined.rows()
        };
        for (out_col, &spec) in out.cols_mut().iter_mut().zip(head_specs.iter()) {
            let (ids, vals) = joined.column(spec);
            if distinct {
                out_col.extend(keep.iter().map(|&row| *vals.get(ids[row as usize])));
            } else {
                out_col.extend(ids.iter().map(|&id| *vals.get(id)));
            }
        }
        out.set_len(out_len);
        counters.rows_materialized += out_len as u64;
        *materialize_nanos += mat_start.elapsed().as_nanos() as u64;
        Ok(out)
    }

    /// Check the memoized join order and its step program: the order must be
    /// a permutation of the body atoms planned for one length per atom, and
    /// the stored program must equal one derived afresh from the order.
    /// Returns what differs. A plan that never planned holds neither and
    /// passes.
    pub fn check_program(&self) -> Result<(), &'static str> {
        let memo = &self.memo;
        if memo.order.is_empty() {
            return if memo.program == StepProgram::default() {
                Ok(())
            } else {
                Err("a step program without a join order")
            };
        }
        let n = self.atoms.len();
        if memo.order.len() != n || (0..n).any(|i| !memo.order.contains(&i)) {
            return Err("a join order that is not a permutation of the body atoms");
        }
        if memo.lens.len() != n {
            return Err("planned lengths that are not one per atom");
        }
        let mut fresh = StepProgram::default();
        fresh.derive(&self.atoms, &self.head, &memo.order);
        if fresh == memo.program {
            Ok(())
        } else {
            Err("a step program that its join order does not derive")
        }
    }

    /// The input slot and the version of every join table the plan keeps
    /// across executions (see [`PlanInput::versioned`]).
    pub fn kept_tables(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.kept
            .entries
            .iter()
            .filter_map(|e| e.stamp.map(|(version, _)| (e.slot, version)))
    }
}

/// Grow a pool of buffers to at least `n` entries, keeping the ones it has.
fn grow_pool<T: Default>(pool: &mut Vec<T>, n: usize) {
    if pool.len() < n {
        pool.resize_with(n, T::default);
    }
}

/// The intermediate result as one join step or the head projection sees
/// it: one row-id column per joined atom, and the input each column's ids
/// index (`step_rels` maps a step to its input slot).
#[derive(Clone, Copy)]
struct Joined<'c, 'a> {
    cols: &'c [Vec<u32>],
    inputs: &'c [PlanInput<'a>],
    step_rels: &'c [u32],
}

impl<'c, 'a> Joined<'c, 'a> {
    /// Number of intermediate rows.
    fn rows(&self) -> usize {
        self.cols[0].len()
    }

    /// Column `p` of the atom joined at step `s`, resolved once: the step's
    /// row ids and the values they index.
    #[inline]
    fn column(&self, (s, p): (u32, u32)) -> (&'c [u32], ColVals<'a>) {
        let input = &self.inputs[self.step_rels[s as usize] as usize];
        (&self.cols[s as usize], ColVals::of(input, p))
    }

    /// Every row's hash of the columns `keys`, one column pass per key.
    fn hash_rows(&self, keys: &[(u32, u32)], hashes: &mut Vec<u64>) {
        hashes.clear();
        hashes.resize(self.rows(), 0);
        for &key in keys {
            let (ids, vals) = self.column(key);
            fold_column(hashes, Some(ids), vals);
        }
    }
}

/// Probe `built` with intermediate rows whose key hashes are `hashes`: every
/// chain entry with an equal stored hash becomes a `(left row, right row
/// id)` pair. Pairs come out left row by left row, each row's candidates in
/// ascending order. The stored hash screens candidates before any [`Value`]
/// is touched; [`retain_equal`] verifies the survivors.
fn probe(
    built: &JoinTable,
    hashes: &[u64],
    right_sel: Option<&[u32]>,
    pair_left: &mut Vec<u32>,
    pair_right: &mut Vec<u32>,
) {
    for (l, &h) in hashes.iter().enumerate() {
        let mut r = built.first(h);
        while r != NONE {
            if built.hashes[r as usize] == h {
                pair_left.push(l as u32);
                pair_right.push(base_id(right_sel, r as usize));
            }
            r = built.chain[r as usize];
        }
    }
}

/// Keep the pairs whose left value (`left` behind the intermediate's row
/// ids `left_ids`) equals their right value (`right` at the right row id),
/// preserving order.
fn retain_equal(
    pair_left: &mut Vec<u32>,
    pair_right: &mut Vec<u32>,
    left_ids: &[u32],
    left: ColVals<'_>,
    right: ColVals<'_>,
) {
    match (left, right) {
        (ColVals::Flat(a), ColVals::Flat(b)) => retain_pairs(pair_left, pair_right, |l, r| {
            a[left_ids[l as usize] as usize] == b[r as usize]
        }),
        _ => retain_pairs(pair_left, pair_right, |l, r| {
            left.get(left_ids[l as usize]) == right.get(r)
        }),
    }
}

/// Keep the pairs `keep` accepts, preserving order.
fn retain_pairs(
    pair_left: &mut Vec<u32>,
    pair_right: &mut Vec<u32>,
    keep: impl Fn(u32, u32) -> bool,
) {
    let mut w = 0;
    for i in 0..pair_left.len() {
        let (l, r) = (pair_left[i], pair_right[i]);
        if keep(l, r) {
            pair_left[w] = l;
            pair_right[w] = r;
            w += 1;
        }
    }
    pair_left.truncate(w);
    pair_right.truncate(w);
}

/// Finish a join step from its verified pairs: gather each of the joined
/// atoms' columns by the pairs' left rows, then make the right ids the new
/// atom's column `new`. When every left row found exactly one partner, in
/// order, the joined columns already are the result and stay untouched.
/// Returns the number of ids gathered.
fn extend_columns(
    joined: &mut [Vec<u32>],
    new: &mut Vec<u32>,
    pair_left: &[u32],
    pair_right: &mut Vec<u32>,
    gathered: &mut Vec<u32>,
) -> u64 {
    std::mem::swap(new, pair_right);
    let in_place = pair_left.len() == joined[0].len()
        && pair_left.iter().enumerate().all(|(i, &l)| l as usize == i);
    if in_place {
        return 0;
    }
    for col in joined.iter_mut() {
        gathered.clear();
        gathered.extend(pair_left.iter().map(|&l| col[l as usize]));
        std::mem::swap(col, gathered);
    }
    (pair_left.len() * joined.len()) as u64
}

/// Fill `keep` with the intermediate rows whose head tuple (`head_specs`)
/// is the first occurrence of its values. `hashes` holds every row's head
/// hash; equal hashes are confirmed value by value against the kept row.
fn first_occurrences(
    joined: Joined<'_, '_>,
    head_specs: &[(u32, u32)],
    hashes: &[u64],
    dedup: &mut JoinTable,
    keep: &mut Vec<u32>,
) {
    dedup.reset(hashes.len());
    keep.clear();
    'rows: for (row, &h) in hashes.iter().enumerate() {
        let mut cand = dedup.first(h);
        while cand != NONE {
            if dedup.hashes[cand as usize] == h {
                let kept = keep[cand as usize] as usize;
                let same = head_specs.iter().all(|&spec| {
                    let (ids, vals) = joined.column(spec);
                    vals.get(ids[row]) == vals.get(ids[kept])
                });
                if same {
                    continue 'rows;
                }
            }
            cand = dedup.chain[cand as usize];
        }
        dedup.insert(h);
        keep.push(row as u32);
    }
}

/// Fill `sel` with the row ids of `input` satisfying the atom's constant and
/// repeated-variable constraints. Each constraint is one tight pass over a
/// contiguous column slice (per chunk, for segmented inputs); row ids come
/// out ascending.
fn select_atom(atom: &PhysAtom, input: &PlanInput<'_>, sel: &mut Vec<u32>) {
    sel.clear();
    match input.rows {
        Rows::Flat(rel) => select_chunk(atom, rel, 0, sel),
        Rows::Chunked(c) => {
            for (k, rel) in c.chunks.iter().enumerate() {
                select_chunk(atom, rel, c.starts[k], sel);
            }
        }
    }
}

/// One chunk's share of [`select_atom`]: seed from the first constraint's
/// column scan, then filter the candidates one constraint (one column pass)
/// at a time.
fn select_chunk(atom: &PhysAtom, rel: &Relation, base: u32, sel: &mut Vec<u32>) {
    if rel.is_empty() {
        return;
    }
    let start = sel.len();
    let mut dups = atom.dups.as_slice();
    if let Some((pos, c)) = atom.consts.first() {
        let col = rel.col_values(*pos as usize);
        for (i, v) in col.iter().enumerate() {
            if v == c {
                sel.push(base + i as u32);
            }
        }
    } else {
        let (pos, first) = dups[0];
        let (a, b) = (rel.col_values(pos as usize), rel.col_values(first as usize));
        for i in 0..rel.len() {
            if a[i] == b[i] {
                sel.push(base + i as u32);
            }
        }
        dups = &dups[1..];
    }
    for (pos, c) in atom.consts.iter().skip(1) {
        let col = rel.col_values(*pos as usize);
        retain_from(sel, start, |rid| &col[(rid - base) as usize] == c);
    }
    for &(pos, first) in dups {
        let a = rel.col_values(pos as usize);
        let b = rel.col_values(first as usize);
        retain_from(sel, start, |rid| {
            a[(rid - base) as usize] == b[(rid - base) as usize]
        });
    }
}

/// In-place filter of `sel[start..]`, preserving order.
fn retain_from(sel: &mut Vec<u32>, start: usize, mut keep: impl FnMut(u32) -> bool) {
    let mut w = start;
    for r in start..sel.len() {
        let v = sel[r];
        if keep(v) {
            sel[w] = v;
            w += 1;
        }
    }
    sel.truncate(w);
}

/// Fold one key value into a running key hash. Both sides of a join fold
/// their key columns in the same order, starting from 0.
#[inline]
fn fold_key(acc: u64, v: &Value) -> u64 {
    let mut h = FxHasher::resume(acc);
    v.hash(&mut h);
    h.finish()
}

/// Compute the key hashes of an atom's rows into `out`, one
/// [`fold_column`] pass per key column (selection positions when `sel` is
/// given, row ids otherwise).
fn key_hashes(
    input: &PlanInput<'_>,
    sel: Option<&[u32]>,
    keys: &[u32],
    rows: usize,
    out: &mut Vec<u64>,
) {
    out.clear();
    out.resize(rows, 0);
    for &p in keys {
        fold_column(out, sel, ColVals::of(input, p));
    }
}

/// Fold one key column into per-row key hashes: `hashes[i]` takes the
/// value behind `ids[i]`, or behind row `i` itself when `ids` is `None`.
/// The build side, the probe side and the dedup pass all hash through here,
/// a column at a time in key order, so equal keys hash equally everywhere.
fn fold_column(hashes: &mut [u64], ids: Option<&[u32]>, vals: ColVals<'_>) {
    match (ids, vals) {
        (Some(ids), ColVals::Flat(vals)) => {
            for (h, &id) in hashes.iter_mut().zip(ids) {
                *h = fold_key(*h, &vals[id as usize]);
            }
        }
        (Some(ids), vals) => {
            for (h, &id) in hashes.iter_mut().zip(ids) {
                *h = fold_key(*h, vals.get(id));
            }
        }
        (None, ColVals::Flat(vals)) => {
            for (h, v) in hashes.iter_mut().zip(vals) {
                *h = fold_key(*h, v);
            }
        }
        (None, ColVals::Chunked(c, pos)) => {
            // Values first: `zip` polls its left side first, so an
            // exhausted chunk ends the inner loop without consuming the
            // next row's hash slot.
            let mut hs = hashes.iter_mut();
            for rel in &c.chunks {
                for (v, h) in rel.col_values(pos as usize).iter().zip(hs.by_ref()) {
                    *h = fold_key(*h, v);
                }
            }
        }
    }
}

/// A join hash table over the rows of one atom: a flat power-of-two `heads`
/// array of chain starts, the per-row `chain` links and the per-row key
/// `hashes`. Walking a chain yields rows in ascending order. A probe compares
/// the stored hash before touching any [`Value`]. Clearing never frees the
/// arrays, so a pooled table allocates only while it grows.
#[derive(Debug, Clone, Default)]
struct JoinTable {
    heads: Vec<u32>,
    chain: Vec<u32>,
    hashes: Vec<u64>,
    /// `hash >> shift` is the `heads` slot: Fx hashes end in a multiply, so
    /// the high bits are the well-mixed ones.
    shift: u32,
}

impl JoinTable {
    /// Empty the table and size `heads` for up to `rows` rows.
    fn reset(&mut self, rows: usize) {
        let slots = rows.next_power_of_two().max(2);
        self.shift = 64 - slots.trailing_zeros();
        self.heads.clear();
        self.heads.resize(slots, NONE);
        self.chain.clear();
        self.hashes.clear();
    }

    /// Build the table over `rows` rows of `input` (selection positions when
    /// `sel` is given, row ids otherwise) keyed on the columns `keys`.
    fn build(&mut self, input: &PlanInput<'_>, sel: Option<&[u32]>, keys: &[u32], rows: usize) {
        self.reset(rows);
        key_hashes(input, sel, keys, rows, &mut self.hashes);
        self.chain.resize(rows, NONE);
        // Linking in reverse leaves every chain in ascending row order.
        for r in (0..rows).rev() {
            let slot = (self.hashes[r] >> self.shift) as usize;
            self.chain[r] = self.heads[slot];
            self.heads[slot] = r as u32;
        }
    }

    /// Append one row with key hash `h` (the dedup pass grows its table as
    /// output rows are accepted; [`reset`](Self::reset) sized it).
    fn insert(&mut self, h: u64) {
        let slot = (h >> self.shift) as usize;
        self.chain.push(self.heads[slot]);
        self.heads[slot] = self.hashes.len() as u32;
        self.hashes.push(h);
    }

    /// The first row of the chain `h` falls into, or [`NONE`].
    #[inline]
    fn first(&self, h: u64) -> u32 {
        self.heads[(h >> self.shift) as usize]
    }

    /// Debug-build staleness check: the stored hashes of the first, middle
    /// and last row still equal the hashes of `input`'s rows.
    fn spot_check(&self, input: &PlanInput<'_>, keys: &[u32]) -> bool {
        let rows = self.hashes.len();
        [0, rows / 2, rows.saturating_sub(1)]
            .into_iter()
            .filter(|&r| r < rows)
            .all(|r| {
                let h = keys
                    .iter()
                    .fold(0, |h, &p| fold_key(h, input.value(r as u32, p)));
                h == self.hashes[r]
            })
    }
}

/// The join tables of the current batch's shared inputs, memoized under
/// `(input tag, key positions)`. Entries are pooled: a new batch resets
/// `live` and overwrites them in place.
#[derive(Debug, Default)]
struct SharedTables {
    entries: Vec<SharedTable>,
    live: usize,
}

#[derive(Debug, Default)]
struct SharedTable {
    tag: u32,
    keys: Vec<u32>,
    /// Row count of the input the table was built over.
    rows: u32,
    table: JoinTable,
}

impl SharedTables {
    /// The table of the unfiltered input tagged `tag` keyed on `keys`,
    /// built on first use in the batch.
    fn get_or_build(
        &mut self,
        tag: u32,
        keys: &[u32],
        input: &PlanInput<'_>,
        counters: &mut Counters,
    ) -> RelResult<&JoinTable> {
        let rows = input.len();
        let found = self.entries[..self.live]
            .iter()
            .position(|e| e.tag == tag && e.keys == keys);
        let idx = match found {
            Some(idx) => {
                let entry = &self.entries[idx];
                // Always on: a table that outlived its batch must never
                // produce a row. (Same-length staleness is only caught by
                // the debug spot check below — `begin_batch` is the
                // contract.)
                if entry.rows != rows {
                    return Err(RelError::StaleJoinTable {
                        tag,
                        built_rows: entry.rows,
                        rows,
                    });
                }
                debug_assert!(
                    entry.table.spot_check(input, keys),
                    "shared join table for input tag {tag} does not match its input"
                );
                counters.tables_reused += 1;
                idx
            }
            None => {
                if self.entries.len() == self.live {
                    self.entries.push(SharedTable::default());
                }
                let entry = &mut self.entries[self.live];
                entry.tag = tag;
                entry.keys.clear();
                entry.keys.extend_from_slice(keys);
                entry.rows = rows;
                entry.table.build(input, None, keys, rows as usize);
                counters.tables_built += 1;
                self.live += 1;
                self.live - 1
            }
        };
        Ok(&self.entries[idx].table)
    }
}

/// The join tables a plan keeps across executions: one per unfiltered atom
/// over a [`versioned`](PlanInput::versioned) input and key set, stamped
/// with the version and row count of the input it was built over.
#[derive(Debug, Clone, Default)]
struct KeptTables {
    entries: Vec<KeptTable>,
}

#[derive(Debug, Clone, Default)]
struct KeptTable {
    /// The plan input slot the table was built over.
    slot: u32,
    keys: Vec<u32>,
    /// `(version, rows)` of that input at the last build; `None` before it.
    stamp: Option<(u64, u32)>,
    table: JoinTable,
}

impl KeptTables {
    /// The table of the unfiltered input in `slot`, at `version`, keyed on
    /// `keys`: the kept one while the input's version and row count are the
    /// ones it was built at, rebuilt in place otherwise.
    fn get_or_build(
        &mut self,
        slot: u32,
        version: u64,
        keys: &[u32],
        input: &PlanInput<'_>,
        counters: &mut Counters,
    ) -> &JoinTable {
        let stamp = Some((version, input.len()));
        let idx = match self
            .entries
            .iter()
            .position(|e| e.slot == slot && e.keys == keys)
        {
            Some(idx) => idx,
            None => {
                let mut entry = KeptTable {
                    slot,
                    ..KeptTable::default()
                };
                entry.keys.extend_from_slice(keys);
                self.entries.push(entry);
                self.entries.len() - 1
            }
        };
        let entry = &mut self.entries[idx];
        if entry.stamp == stamp {
            debug_assert!(
                entry.table.spot_check(input, keys),
                "kept join table for input slot {slot} does not match version {version}"
            );
            counters.tables_kept += 1;
        } else {
            entry.stamp = stamp;
            entry.table.build(input, None, keys, input.len() as usize);
            counters.tables_built += 1;
        }
        &entry.table
    }
}

/// The base row id behind selection position `pos` (`sel[pos]`, or `pos`
/// itself for unfiltered atoms).
#[inline]
fn base_id(sel: Option<&[u32]>, pos: usize) -> u32 {
    match sel {
        Some(ids) => ids[pos],
        None => pos as u32,
    }
}

/// The Fx hash of one value (used for sampled distinct estimates).
#[inline]
fn hash_value(v: &Value) -> u64 {
    fold_key(0, v)
}

/// Combine a per-column sample hash into a running per-row tuple hash, so a
/// set of columns sampled independently can be treated as one composite
/// column. Order-sensitive: the planner folds columns in first-occurrence
/// variable order.
#[inline]
fn mix_hash(acc: u64, h: u64) -> u64 {
    (acc.rotate_left(5) ^ h).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Estimate the number of distinct values among `n` rows from the sampled
/// hashes in `hs` (one per sampled row): scale the sample's distinct count
/// to the full row count and clamp to `[distinct, n]`. Sorts `hs` in place;
/// deterministic. Returns 0 for an empty sample.
fn scaled_distinct(hs: &mut [u64], n: usize) -> u64 {
    if hs.is_empty() {
        return 0;
    }
    hs.sort_unstable();
    let mut distinct = 1u64;
    for w in hs.windows(2) {
        if w[0] != w[1] {
            distinct += 1;
        }
    }
    ((distinct as u128 * n as u128 / hs.len() as u128) as u64).clamp(distinct, n as u64)
}

/// Estimate the number of distinct values among `n` rows from up to
/// [`DISTINCT_SAMPLE`] evenly strided hashed samples. Deterministic;
/// `hash_at` receives row positions `0, step, 2*step, ...`.
#[cfg(test)]
fn estimate_distinct(n: usize, mut hash_at: impl FnMut(usize) -> u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let sample = n.min(DISTINCT_SAMPLE);
    let step = n / sample;
    let mut hashes = [0u64; DISTINCT_SAMPLE];
    for (j, slot) in hashes[..sample].iter_mut().enumerate() {
        *slot = hash_at(j * step);
    }
    scaled_distinct(&mut hashes[..sample], n)
}

/// One join-order candidate: `(position in remaining, connected, filtered
/// len, sampled distinct estimate of the combined shared-column tuple,
/// shared bound vars)`.
type OrderCand = (usize, bool, u64, u64, usize);

/// `true` when candidate `c` beats `b`: connected first, then the smaller
/// estimated *growth ratio* `len / distinct(shared-column tuple)` — the
/// factor the candidate multiplies the intermediate by — then more shared
/// variables, fewer rows and earlier body position (the stable default).
/// Ratios are compared exactly by cross-multiplying in 128 bits
/// (`c.len * b.sel` vs `b.len * c.sel`), never by dividing: absolute output
/// estimates compound the error of every previous step and collapse to ties
/// under integer division, which is precisely how a tag-only join that
/// multiplies the intermediate 30× can end up ranked above a string-value
/// join that keeps it flat.
#[inline]
fn order_better(c: OrderCand, b: OrderCand) -> bool {
    if c.1 != b.1 {
        return c.1;
    }
    let (c_ratio, b_ratio) = (
        u128::from(c.2) * u128::from(b.3),
        u128::from(b.2) * u128::from(c.3),
    );
    if c_ratio != b_ratio {
        return c_ratio < b_ratio;
    }
    if c.4 != b.4 {
        return c.4 > b.4;
    }
    if c.2 != b.2 {
        return c.2 < b.2;
    }
    false
}

/// Greedy connected join ordering over the compiled metadata: start from the
/// smallest (filtered) atom, then repeatedly take the connected atom with
/// the smallest estimated growth ratio `|atom| / distinct(shared-column
/// tuple)` — tie-breaking on more
/// shared variables, fewer rows and body position. The divisor is a sampled
/// distinct estimate of the shared columns *combined* (per-sample hashes
/// mixed into one tuple hash), not a product of per-column estimates: a
/// product assumes independence and overstates the selectivity of
/// correlated columns, while the combined estimate both pulls a
/// many-variable atom (e.g. a template's `RT`) in early and keeps a
/// correlated tag-pair join ranked behind a genuinely selective one.
/// Disconnected atoms (cross products) are only taken when no connected
/// atom remains. Writes the order into `order` (the plan's memo).
fn join_order(
    atoms: &[PhysAtom],
    lens: &[u32],
    samples: &[Vec<u64>],
    num_cols: usize,
    bound: &mut Vec<bool>,
    remaining: &mut Vec<usize>,
    order: &mut Vec<usize>,
) {
    let n = atoms.len();
    remaining.clear();
    remaining.extend(0..n);
    remaining.sort_by_key(|&i| lens[i]);
    let first = remaining.remove(0);
    order.clear();
    order.push(first);
    bound.clear();
    bound.resize(num_cols, false);
    for (col, _) in &atoms[first].vars {
        bound[*col as usize] = true;
    }
    while !remaining.is_empty() {
        let mut best: Option<OrderCand> = None;
        for (pos, &i) in remaining.iter().enumerate() {
            let nrows = lens[i] as usize;
            let sc = nrows.min(DISTINCT_SAMPLE);
            let mut combo = [0u64; DISTINCT_SAMPLE];
            let mut shared = 0usize;
            for (k, (col, _)) in atoms[i].vars.iter().enumerate() {
                if bound[*col as usize] {
                    shared += 1;
                    let hs = &samples[i][k * sc..(k + 1) * sc];
                    for (c, &h) in combo[..sc].iter_mut().zip(hs) {
                        *c = mix_hash(*c, h);
                    }
                }
            }
            // Distinct estimate of the *combined* shared-column tuple.
            let sel = if shared > 0 && sc > 0 {
                scaled_distinct(&mut combo[..sc], nrows).max(1)
            } else {
                1
            };
            let cand = (pos, shared > 0, u64::from(lens[i]), sel, shared);
            best = Some(match best {
                None => cand,
                Some(b) => {
                    if order_better(cand, b) {
                        cand
                    } else {
                        b
                    }
                }
            });
        }
        let (pos, ..) = best.expect("remaining is non-empty"); // lint:allow loop ran over non-empty remaining
        let i = remaining.remove(pos);
        for (col, _) in &atoms[i].vars {
            bound[*col as usize] = true;
        }
        order.push(i);
    }
}

/// A random-access view over the buckets of a [`SegmentedRelation`],
/// prepared once per batch (O(#buckets)) so plan execution can address
/// segmented join state by global row id without flattening it.
#[derive(Debug, Clone, Default)]
pub struct ChunkedRows<'a> {
    starts: Vec<u32>,
    chunks: Vec<&'a Relation>,
    len: u32,
}

impl<'a> ChunkedRows<'a> {
    /// Build the view over a segmented relation's resident buckets (bucket
    /// order, then insertion order — the relation's iteration order).
    ///
    /// # Panics
    /// Panics if the relation holds `u32::MAX` rows or more: row ids are
    /// `u32` throughout the executor (with `u32::MAX` as the chain
    /// sentinel), and the bound is enforced here rather than wrapping
    /// silently.
    pub fn from_segmented(relation: &'a SegmentedRelation) -> Self {
        assert!(
            relation.len() < u32::MAX as usize,
            "plan inputs are limited to u32::MAX - 1 rows, got {}",
            relation.len()
        );
        let mut starts = Vec::with_capacity(relation.num_buckets());
        let mut chunks = Vec::with_capacity(relation.num_buckets());
        let mut len = 0u32;
        for (_, segment) in relation.buckets() {
            starts.push(len);
            chunks.push(segment);
            len += segment.len() as u32;
        }
        ChunkedRows {
            starts,
            chunks,
            len,
        }
    }

    /// Total number of rows.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// `true` when no bucket holds any row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chunk index and in-chunk offset of global row `i`.
    #[inline]
    fn locate(&self, i: u32) -> (usize, u32) {
        debug_assert!(i < self.len);
        let chunk = self.starts.partition_point(|&s| s <= i) - 1;
        (chunk, i - self.starts[chunk])
    }

    #[inline]
    fn value(&self, i: u32, pos: u32) -> &'a Value {
        let (chunk, off) = self.locate(i);
        &self.chunks[chunk].col_values(pos as usize)[off as usize]
    }
}

/// The rows behind a [`PlanInput`].
#[derive(Debug, Clone, Copy)]
enum Rows<'a> {
    /// A flat [`Relation`].
    Flat(&'a Relation),
    /// Rows of a [`SegmentedRelation`], via a prepared [`ChunkedRows`] view.
    Chunked(&'a ChunkedRows<'a>),
}

/// The values of one input column, resolved once per join step or head
/// column: a flat input's contiguous slice (one index per value), or a
/// chunked input's column searched per value.
#[derive(Clone, Copy)]
enum ColVals<'a> {
    Flat(&'a [Value]),
    Chunked(&'a ChunkedRows<'a>, u32),
}

impl<'a> ColVals<'a> {
    /// Column `pos` of `input`.
    #[inline]
    fn of(input: &PlanInput<'a>, pos: u32) -> Self {
        match input.rows {
            Rows::Flat(rel) => ColVals::Flat(rel.col_values(pos as usize)),
            Rows::Chunked(rows) => ColVals::Chunked(rows, pos),
        }
    }

    /// The value of row `id`.
    #[inline]
    fn get(self, id: u32) -> &'a Value {
        match self {
            ColVals::Flat(vals) => &vals[id as usize],
            ColVals::Chunked(rows, pos) => rows.value(id, pos),
        }
    }
}

/// One borrowed plan input: a flat columnar relation or a chunked view over
/// segmented storage, optionally tagged as [`shared`](Self::shared) across
/// the executions of one batch. Cheap to copy; all variants give O(1)-ish
/// row access (chunked access is a binary search over the bucket starts).
#[derive(Debug, Clone, Copy)]
pub struct PlanInput<'a> {
    rows: Rows<'a>,
    shared: Option<u32>,
    version: Option<u64>,
}

impl<'a> PlanInput<'a> {
    /// Tag the input as *batch-shared*: until the next
    /// [`ExecScratch::begin_batch`], every input carrying `tag` is the same
    /// unchanged relation, so a join table built over it (for an unfiltered
    /// atom) may be reused by every later execution through the same
    /// scratch. Distinct relations must carry distinct tags.
    pub fn shared(mut self, tag: u32) -> Self {
        self.shared = Some(tag);
        self
    }

    /// Stamp the input with a version: it is the same unchanged relation
    /// for as long as its version is, across executions and batches alike.
    /// A plan keeps the join table it builds over an unfiltered atom of a
    /// versioned input and rebuilds it only when an execution brings another
    /// version or row count, so the caller must move the version on every
    /// change to the relation. An input is either shared or versioned; a
    /// [`shared`](Self::shared) tag wins.
    pub fn versioned(mut self, version: u64) -> Self {
        self.version = Some(version);
        self
    }

    /// Number of rows.
    ///
    /// # Panics
    /// Panics for flat inputs of `u32::MAX` rows or more (row ids are `u32`
    /// throughout the executor; see [`ChunkedRows::from_segmented`]).
    pub fn len(&self) -> u32 {
        match self.rows {
            Rows::Flat(rel) => {
                assert!(
                    rel.len() < u32::MAX as usize,
                    "plan inputs are limited to u32::MAX - 1 rows, got {}",
                    rel.len()
                );
                rel.len() as u32
            }
            Rows::Chunked(rows) => rows.len(),
        }
    }

    /// `true` when the input holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value of row `i` at column position `pos`.
    #[inline]
    pub fn value(&self, i: u32, pos: u32) -> &'a Value {
        ColVals::of(self, pos).get(i)
    }
}

impl<'a> From<&'a Relation> for PlanInput<'a> {
    fn from(r: &'a Relation) -> Self {
        PlanInput {
            rows: Rows::Flat(r),
            shared: None,
            version: None,
        }
    }
}

impl<'a> From<&'a ChunkedRows<'a>> for PlanInput<'a> {
    fn from(r: &'a ChunkedRows<'a>) -> Self {
        // A single resident bucket — the common case when window pruning is
        // off (everything lives in bucket 0) — degrades to a flat relation,
        // skipping the per-access bucket search entirely.
        let rows = match r.chunks.as_slice() {
            [only] => Rows::Flat(only),
            _ => Rows::Chunked(r),
        };
        PlanInput {
            rows,
            shared: None,
            version: None,
        }
    }
}

/// Cumulative executor counters (see the [`ExecScratch`] accessors).
#[derive(Debug, Default)]
struct Counters {
    rows_materialized: u64,
    scratch_reuses: u64,
    tables_built: u64,
    tables_reused: u64,
    tables_kept: u64,
    orders_planned: u64,
    orders_reused: u64,
    rows_probed: u64,
    ids_moved: u64,
}

/// The pooled executor state: selection vectors, sampled column hashes, the
/// per-execution join table, the batch's shared join tables, the
/// intermediate's row-id columns, the join pairs and the distinct table.
/// Owned by the caller (the MMQJP engine keeps one per engine) and reused
/// across every plan execution, so steady-state evaluation allocates nothing
/// but the output relation. What belongs to one plan — its order, step
/// program and kept tables — lives in the plan.
#[derive(Debug, Default)]
pub struct ExecScratch {
    sels: Vec<Vec<u32>>,
    samples: Vec<Vec<u64>>,
    /// The table of the current join step when its atom is filtered or its
    /// input is neither batch-shared nor versioned.
    table: JoinTable,
    shared: SharedTables,
    /// The intermediate result: one row-id column per joined atom.
    cols: Vec<Vec<u32>>,
    /// The spare column a gathering step writes before swapping it in.
    gathered: Vec<u32>,
    /// A join step's `(left row, right row id)` pairs.
    pair_left: Vec<u32>,
    pair_right: Vec<u32>,
    /// Per-row key hashes of the probe side, or head hashes for dedup.
    hashes: Vec<u64>,
    /// The intermediate rows the dedup pass keeps.
    keep: Vec<u32>,
    dedup: JoinTable,
    bound: Vec<bool>,
    lens: Vec<u32>,
    filtered: Vec<bool>,
    remaining: Vec<usize>,
    counters: Counters,
    materialize_nanos: u64,
    primed: bool,
}

impl ExecScratch {
    /// Create an empty scratch pool.
    pub fn new() -> Self {
        ExecScratch::default()
    }

    /// Forget every join table memoized for a [`shared`](PlanInput::shared)
    /// input. Call once whenever the relations behind the tags change — the
    /// engine does at the start of each batch's Stage 2. The tables' buffers
    /// stay pooled.
    pub fn begin_batch(&mut self) {
        self.shared.live = 0;
    }

    /// Output tuples materialized across all executions (each result row is
    /// built exactly once, at the final projection).
    pub fn rows_materialized(&self) -> u64 {
        self.counters.rows_materialized
    }

    /// Executions that ran entirely on pooled buffers (every execution after
    /// the first).
    pub fn scratch_reuses(&self) -> u64 {
        self.counters.scratch_reuses
    }

    /// Join hash tables built: per-step tables, batch-shared tables, and
    /// kept tables built or rebuilt for a new version of their input.
    pub fn join_tables_built(&self) -> u64 {
        self.counters.tables_built
    }

    /// Join steps served by a batch-shared table an earlier step had built.
    pub fn join_tables_reused(&self) -> u64 {
        self.counters.tables_reused
    }

    /// Join steps served by a table their plan kept from an earlier
    /// execution, because the [`versioned`](PlanInput::versioned) input's
    /// version and row count were unchanged.
    pub fn join_tables_kept(&self) -> u64 {
        self.counters.tables_kept
    }

    /// Executions of multi-atom plans that sampled their inputs and planned
    /// a join order: the first execution, and any whose atom lengths left
    /// the memoized order's band (`[½×, 2×]` of the planned length, both
    /// clamped up to the 64-row sample).
    pub fn join_orders_planned(&self) -> u64 {
        self.counters.orders_planned
    }

    /// Executions of multi-atom plans that reused the plan's memoized order.
    pub fn join_orders_reused(&self) -> u64 {
        self.counters.orders_reused
    }

    /// Intermediate rows that probed a join table, summed over join steps
    /// (cross-product steps probe nothing).
    pub fn rows_probed(&self) -> u64 {
        self.counters.rows_probed
    }

    /// Row ids copied into the intermediate's existing columns by join
    /// steps that gathered them. A step whose every left row found exactly
    /// one partner, in order, copies none.
    pub fn ids_moved(&self) -> u64 {
        self.counters.ids_moved
    }

    /// Cumulative wall-clock time spent in the materialization pass (head
    /// projection + inline dedup) across all executions. Lets callers split
    /// "joining row ids" from "building output tuples" in their per-stage
    /// timings.
    pub fn materialize_time(&self) -> Duration {
        Duration::from_nanos(self.materialize_nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conjunctive::Atom;
    use crate::interner::StringInterner;

    /// A relation over `columns` holding `rows`.
    fn relation_of<const N: usize>(columns: [&str; N], rows: &[[Value; N]]) -> Relation {
        let mut r = Relation::new(Schema::new(columns));
        for row in rows {
            r.push_array(*row).unwrap();
        }
        r
    }

    /// The `label` fixture's colours, `red` < `blue`.
    fn colors() -> (Value, Value) {
        let interner = StringInterner::new();
        (
            Value::Sym(interner.intern("red")),
            Value::Sym(interner.intern("blue")),
        )
    }

    /// `edge` = 1→2, 2→3, 3→4, 2→4 and `label` = 1 red, 2 blue, 3 red,
    /// 4 blue.
    fn edges_db() -> Vec<(String, Relation)> {
        let int = Value::Int;
        let (red, blue) = colors();
        let edge = relation_of(
            ["src", "dst"],
            &[
                [int(1), int(2)],
                [int(2), int(3)],
                [int(3), int(4)],
                [int(2), int(4)],
            ],
        );
        let label = relation_of(
            ["node", "color"],
            &[[int(1), red], [int(2), blue], [int(3), red], [int(4), blue]],
        );
        vec![("edge".to_owned(), edge), ("label".to_owned(), label)]
    }

    fn compile(query: &ConjunctiveQuery, rels: &[(String, Relation)]) -> PhysicalPlan {
        PhysicalPlan::compile(query, |name| {
            rels.iter()
                .find(|(n, _)| n == name)
                .map(|(_, r)| r.schema().arity())
        })
        .unwrap()
    }

    /// The plan's inputs over `rels`, each tagged shared under its slot
    /// index when `shared` is set.
    fn inputs_of<'a>(
        plan: &PhysicalPlan,
        rels: &'a [(String, Relation)],
        shared: bool,
    ) -> Vec<PlanInput<'a>> {
        plan.relations()
            .iter()
            .enumerate()
            .map(|(slot, name)| {
                let rel = &rels.iter().find(|(n, _)| n == name).unwrap().1;
                let input = PlanInput::from(rel);
                if shared {
                    input.shared(slot as u32)
                } else {
                    input
                }
            })
            .collect()
    }

    /// The rows of `query` over `rels`, through a fresh scratch.
    fn run_over(query: &ConjunctiveQuery, rels: &[(String, Relation)], distinct: bool) -> Relation {
        let mut plan = compile(query, rels);
        let inputs = inputs_of(&plan, rels, false);
        plan.execute(&inputs, &mut ExecScratch::new(), distinct)
            .unwrap()
    }

    /// The rows of `query` over [`edges_db`], sorted: the executor returns a
    /// bag.
    fn run(query: &ConjunctiveQuery) -> Vec<Vec<Value>> {
        sorted_rows(&run_over(query, &edges_db(), false))
    }

    fn two_hop() -> ConjunctiveQuery {
        ConjunctiveQuery::new(["X", "Z"])
            .atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]))
            .atom(Atom::new("edge", [Term::var("Y"), Term::var("Z")]))
    }

    #[test]
    fn constants_and_repeated_variables() {
        let q = ConjunctiveQuery::new(["Z"])
            .atom(Atom::new("edge", [Term::constant(2i64), Term::var("Z")]));
        assert_eq!(run(&q), ints(&[[3], [4]]));

        let pair = relation_of(
            ["a", "b"],
            &[
                [Value::Int(1), Value::Int(1)],
                [Value::Int(1), Value::Int(2)],
                [Value::Int(3), Value::Int(3)],
            ],
        );
        let q =
            ConjunctiveQuery::new(["X"]).atom(Atom::new("pair", [Term::var("X"), Term::var("X")]));
        let mut plan = PhysicalPlan::compile(&q, |_| Some(2)).unwrap();
        let mut scratch = ExecScratch::new();
        let compiled = plan
            .execute(&[PlanInput::from(&pair)], &mut scratch, false)
            .unwrap();
        assert_eq!(sorted_rows(&compiled), ints(&[[1], [3]]));
    }

    #[test]
    fn three_way_join_and_distinct() {
        let (red, blue) = colors();
        // The colour of every edge's source.
        let q = ConjunctiveQuery::new(["C"])
            .atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]))
            .atom(Atom::new("label", [Term::var("X"), Term::var("C")]))
            .atom(Atom::new("label", [Term::var("Y"), Term::var("C2")]));
        assert_eq!(run(&q), [[red], [red], [blue], [blue]]);

        // Distinct in the materialization pass == Relation::distinct after.
        let deduped = run_over(&q, &edges_db(), true);
        assert_eq!(sorted_rows(&deduped), [[red], [blue]]);

        // Edges between equally coloured nodes: 2→4 (blue, blue).
        let q = ConjunctiveQuery::new(["X", "Y"])
            .atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]))
            .atom(Atom::new("label", [Term::var("X"), Term::var("C")]))
            .atom(Atom::new("label", [Term::var("Y"), Term::var("C")]));
        assert_eq!(run(&q), ints(&[[2, 4]]));

        // The written atom order does not matter: each edge's source and
        // the colour of its target.
        let q = ConjunctiveQuery::new(["X", "C"])
            .atom(Atom::new("label", [Term::var("Y"), Term::var("C")]))
            .atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]))
            .atom(Atom::new("label", [Term::var("X"), Term::var("C2")]));
        let int = Value::Int;
        assert_eq!(
            run(&q),
            [
                [int(1), blue],
                [int(2), red],
                [int(2), blue],
                [int(3), blue]
            ]
        );
    }

    #[test]
    fn disconnected_body_is_a_cross_product() {
        let (red, _) = colors();
        // One edge into 2 (1→2) times two red nodes (1 and 3).
        let q = ConjunctiveQuery::new(["X", "N"])
            .atom(Atom::new("edge", [Term::var("X"), Term::constant(2i64)]))
            .atom(Atom::new("label", [Term::var("N"), Term::constant(red)]));
        assert_eq!(run(&q), ints(&[[1, 1], [1, 3]]));
    }

    /// The relation split into buckets of two rows, preserving row order
    /// within the chunked iteration.
    fn segmented_in_pairs(rel: &Relation) -> SegmentedRelation {
        let mut seg = SegmentedRelation::new(rel.schema().clone());
        for (i, t) in rel.iter().enumerate() {
            seg.push((i / 2) as u64, t.to_vec()).unwrap();
        }
        seg
    }

    #[test]
    fn chunked_inputs_match_flat_inputs() {
        let rels = edges_db();
        let mut plan = PhysicalPlan::compile(&two_hop(), |_| Some(2)).unwrap();
        let mut scratch = ExecScratch::new();
        let flat = plan
            .execute(&[PlanInput::from(&rels[0].1)], &mut scratch, false)
            .unwrap();

        let seg = segmented_in_pairs(&rels[0].1);
        let chunked = ChunkedRows::from_segmented(&seg);
        assert_eq!(chunked.len(), 4);
        assert!(!chunked.is_empty());
        let via_chunks = plan
            .execute(&[PlanInput::from(&chunked)], &mut scratch, false)
            .unwrap();
        assert_eq!(sorted_rows(&via_chunks), ints(&[[1, 3], [1, 4], [2, 4]]));
        assert_eq!(flat.sorted(), via_chunks.sorted());
        assert!(scratch.scratch_reuses() >= 1);
        assert_eq!(scratch.rows_materialized(), (flat.len() * 2) as u64);
    }

    /// Relations `a(k)`, `b(k, v)` and `c(w)` of small ints.
    fn kernel_rels(a: &[i64], b: &[(i64, i64)], c: &[i64]) -> Vec<(String, Relation)> {
        let ones = |col, vals: &[i64]| {
            let rows: Vec<[Value; 1]> = vals.iter().map(|&v| [Value::Int(v)]).collect();
            relation_of([col], &rows)
        };
        let pairs: Vec<[Value; 2]> = b
            .iter()
            .map(|&(k, v)| [Value::Int(k), Value::Int(v)])
            .collect();
        let b = relation_of(["k", "v"], &pairs);
        vec![
            ("a".into(), ones("k", a)),
            ("b".into(), b),
            ("c".into(), ones("w", c)),
        ]
    }

    /// Run `q` over `rels` flat and chunked (every relation in buckets of
    /// two rows), with and without `distinct`, each through a fresh scratch.
    /// Flat and chunked results agree row for row, and the `distinct` result
    /// is the plain one's [`Relation::distinct`]. Returns the flat result
    /// without `distinct` and the scratch that produced it; callers check
    /// its rows against the answer they spell out.
    fn check_kernel_shape(
        q: &ConjunctiveQuery,
        rels: &[(String, Relation)],
    ) -> (Relation, ExecScratch) {
        let segmented: Vec<SegmentedRelation> = rels
            .iter()
            .map(|(_, rel)| segmented_in_pairs(rel))
            .collect();
        let chunked: Vec<ChunkedRows<'_>> =
            segmented.iter().map(ChunkedRows::from_segmented).collect();
        let plan = compile(q, rels);
        let slot = |name: &String| rels.iter().position(|(n, _)| n == name).unwrap();
        let flat: Vec<PlanInput<'_>> = plan
            .relations()
            .iter()
            .map(|name| PlanInput::from(&rels[slot(name)].1))
            .collect();
        let via_chunks: Vec<PlanInput<'_>> = plan
            .relations()
            .iter()
            .map(|name| PlanInput::from(&chunked[slot(name)]))
            .collect();
        let mut plain: Option<(Relation, ExecScratch)> = None;
        for distinct in [false, true] {
            let mut scratch = ExecScratch::new();
            let got = plan.clone().execute(&flat, &mut scratch, distinct).unwrap();
            let got_chunked = plan
                .clone()
                .execute(&via_chunks, &mut ExecScratch::new(), distinct)
                .unwrap();
            assert_eq!(got, got_chunked, "distinct {distinct}: flat vs chunked");
            match &plain {
                None => plain = Some((got, scratch)),
                Some((all, _)) => assert_eq!(got.sorted(), all.distinct().sorted()),
            }
        }
        plain.unwrap()
    }

    fn ints<const N: usize>(rows: &[[i64; N]]) -> Vec<Vec<Value>> {
        rows.iter()
            .map(|row| row.iter().map(|&v| Value::Int(v)).collect())
            .collect()
    }

    fn rows_of(rel: &Relation) -> Vec<Vec<Value>> {
        rel.iter().map(|row| row.to_vec()).collect()
    }

    fn sorted_rows(rel: &Relation) -> Vec<Vec<Value>> {
        rows_of(&rel.sorted())
    }

    /// `a(K), b(K, V)`: `a` is joined first (equal lengths tie on body
    /// position) and probes `b`.
    fn a_then_b() -> ConjunctiveQuery {
        ConjunctiveQuery::new(["K", "V"])
            .atom(Atom::new("a", [Term::var("K")]))
            .atom(Atom::new("b", [Term::var("K"), Term::var("V")]))
    }

    #[test]
    fn a_step_where_every_row_finds_one_partner_moves_no_ids() {
        let rels = kernel_rels(&[1, 2, 3, 4], &[(1, 10), (2, 20), (3, 30), (4, 40)], &[]);
        let (out, scratch) = check_kernel_shape(&a_then_b(), &rels);
        assert_eq!(rows_of(&out), ints(&[[1, 10], [2, 20], [3, 30], [4, 40]]));
        assert_eq!(scratch.rows_probed(), 4);
        assert_eq!(scratch.ids_moved(), 0, "the in-place step copies no id");
    }

    #[test]
    fn a_step_with_unmatched_and_repeated_rows_gathers() {
        // Zero partners first and two last, then the other way round.
        for (b, expected, keys) in [
            (
                [(2, 20), (3, 30), (4, 40), (4, 41)],
                [[2, 20], [3, 30], [4, 40], [4, 41]],
                [[2], [3], [4], [4], [4], [4]],
            ),
            (
                [(1, 10), (1, 11), (2, 20), (3, 30)],
                [[1, 10], [1, 11], [2, 20], [3, 30]],
                [[1], [1], [1], [1], [2], [3]],
            ),
        ] {
            let rels = kernel_rels(&[1, 2, 3, 4], &b, &[]);
            let (out, scratch) = check_kernel_shape(&a_then_b(), &rels);
            assert_eq!(rows_of(&out), ints(&expected), "left rows in order");
            assert_eq!(scratch.rows_probed(), 4);
            assert_eq!(scratch.ids_moved(), 4, "one joined column, four pairs");

            // A second step over two joined columns, and a head whose rows
            // repeat (so `distinct` drops some).
            let q = ConjunctiveQuery::new(["K"])
                .atom(Atom::new("a", [Term::var("K")]))
                .atom(Atom::new("b", [Term::var("K"), Term::var("V")]))
                .atom(Atom::new("b", [Term::var("K"), Term::var("W")]));
            let (out, scratch) = check_kernel_shape(&q, &rels);
            assert_eq!(sorted_rows(&out), ints(&keys));
            assert_eq!(scratch.rows_probed(), 8);
            assert_eq!(scratch.ids_moved(), 4 + 2 * 6);
        }
    }

    #[test]
    fn a_step_that_kills_every_row_ends_the_execution() {
        let rels = kernel_rels(&[1, 2], &[(5, 50), (6, 60)], &[50, 60, 70]);
        let q = ConjunctiveQuery::new(["K"])
            .atom(Atom::new("a", [Term::var("K")]))
            .atom(Atom::new("b", [Term::var("K"), Term::var("V")]))
            .atom(Atom::new("c", [Term::var("V")]));
        let (out, scratch) = check_kernel_shape(&q, &rels);
        assert!(out.is_empty());
        assert_eq!(scratch.rows_probed(), 2, "the step after `b` never ran");
    }

    #[test]
    fn a_cross_product_after_a_connected_join() {
        let rels = kernel_rels(
            &[1, 2, 3],
            &[(1, 10), (2, 20), (2, 21), (9, 90)],
            &[7, 8, 9, 10],
        );
        let q = ConjunctiveQuery::new(["K", "V", "W"])
            .atom(Atom::new("a", [Term::var("K")]))
            .atom(Atom::new("b", [Term::var("K"), Term::var("V")]))
            .atom(Atom::new("c", [Term::var("W")]));
        let (out, scratch) = check_kernel_shape(&q, &rels);
        assert_eq!(out.len(), 12);
        assert_eq!(
            rows_of(&out)[..5],
            ints(&[[1, 10, 7], [1, 10, 8], [1, 10, 9], [1, 10, 10], [2, 20, 7]])
        );
        assert_eq!(scratch.rows_probed(), 3, "a cross product probes nothing");
        assert_eq!(scratch.ids_moved(), 3 + 2 * 12);
    }

    #[test]
    fn shared_tables_are_built_once_and_reused() {
        // Two plans join the same tagged input on the same key column: one
        // build serves every later step of the batch, flat or chunked, and a
        // fresh scratch agrees.
        let rels = edges_db();
        let three_hop = two_hop().atom(Atom::new("edge", [Term::var("Z"), Term::var("W")]));
        let seg = segmented_in_pairs(&rels[0].1);
        let chunked = ChunkedRows::from_segmented(&seg);
        for input in [PlanInput::from(&rels[0].1), PlanInput::from(&chunked)] {
            let shared = [input.shared(7)];
            let mut scratch = ExecScratch::new();
            let mut plans = [
                PhysicalPlan::compile(&two_hop(), |_| Some(2)).unwrap(),
                PhysicalPlan::compile(&three_hop, |_| Some(2)).unwrap(),
            ];
            let mut steps = 0;
            for plan in &mut plans {
                let via_shared = plan.execute(&shared, &mut scratch, false).unwrap();
                let fresh = plan
                    .clone()
                    .execute(&[input], &mut ExecScratch::new(), false)
                    .unwrap();
                assert_eq!(via_shared.sorted(), fresh.sorted());
                steps += plan.num_atoms() as u64 - 1;
            }
            // Every step keys `edge` on its first column.
            assert_eq!(scratch.join_tables_built(), 1);
            assert_eq!(scratch.join_tables_reused(), steps - 1);
        }
    }

    #[test]
    fn a_stale_shared_table_is_an_error_never_a_wrong_row() {
        let rels = edges_db();
        let mut plan = PhysicalPlan::compile(&two_hop(), |_| Some(2)).unwrap();
        let mut scratch = ExecScratch::new();
        let before = plan
            .execute(
                &[PlanInput::from(&rels[0].1).shared(0)],
                &mut scratch,
                false,
            )
            .unwrap();
        assert_eq!(sorted_rows(&before), ints(&[[1, 3], [1, 4], [2, 4]]));

        // The relation behind tag 0 grows by the edge 4 -> 1.
        let mut grown = rels[0].1.clone();
        grown.push_array([Value::Int(4), Value::Int(1)]).unwrap();
        let tagged = [PlanInput::from(&grown).shared(0)];
        // Without `begin_batch` the row-count check refuses the old table...
        assert_eq!(
            plan.execute(&tagged, &mut scratch, false),
            Err(RelError::StaleJoinTable {
                tag: 0,
                built_rows: 4,
                rows: 5,
            })
        );
        // ...and with it the table is rebuilt over the new rows.
        scratch.begin_batch();
        let after = plan.execute(&tagged, &mut scratch, false).unwrap();
        let fresh = plan
            .clone()
            .execute(&[PlanInput::from(&grown)], &mut ExecScratch::new(), false)
            .unwrap();
        assert_eq!(after.sorted(), fresh.sorted());
        assert_eq!(
            sorted_rows(&after),
            ints(&[[1, 3], [1, 4], [2, 1], [2, 4], [3, 1], [4, 2]])
        );
    }

    /// `edge` with `edges` edges `i → i % nodes + 1` and `label` colouring
    /// nodes `1..=nodes` red and blue in turn.
    fn graph(edges: usize, nodes: usize) -> Vec<(String, Relation)> {
        let (red, blue) = colors();
        let edge: Vec<[Value; 2]> = (0..edges as i64)
            .map(|i| [Value::Int(i), Value::Int(i % nodes as i64 + 1)])
            .collect();
        let label: Vec<[Value; 2]> = (1..=nodes as i64)
            .map(|n| [Value::Int(n), if n % 2 == 1 { red } else { blue }])
            .collect();
        vec![
            ("edge".to_owned(), relation_of(["src", "dst"], &edge)),
            ("label".to_owned(), relation_of(["node", "color"], &label)),
        ]
    }

    /// `edge(X, Y), label(Y, C)`: every edge with its target's colour.
    fn edge_colors() -> ConjunctiveQuery {
        ConjunctiveQuery::new(["X", "C"])
            .atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]))
            .atom(Atom::new("label", [Term::var("Y"), Term::var("C")]))
    }

    #[test]
    fn join_order_is_replanned_when_an_atom_leaves_its_planned_size() {
        let q = edge_colors();
        let rels = graph(100, 4);
        let mut plan = compile(&q, &rels);
        let mut scratch = ExecScratch::new();
        let inputs = inputs_of(&plan, &rels, false);
        for _ in 0..3 {
            plan.execute(&inputs, &mut scratch, false).unwrap();
        }
        assert_eq!(scratch.join_orders_planned(), 1);
        assert_eq!(scratch.join_orders_reused(), 2);

        // `edge` grows 4x from above the 64-row sample (within 2x it would
        // keep its order).
        let grown = graph(400, 4);
        let inputs = inputs_of(&plan, &grown, false);
        let replanned = plan.execute(&inputs, &mut scratch, false).unwrap();
        assert_eq!(scratch.join_orders_planned(), 2);
        let fresh = compile(&q, &grown)
            .execute(&inputs, &mut ExecScratch::new(), false)
            .unwrap();
        assert_eq!(replanned.sorted(), fresh.sorted());
        assert_eq!(replanned.len(), 400);
        // The new shape is memoized in turn.
        plan.execute(&inputs, &mut scratch, false).unwrap();
        assert_eq!(scratch.join_orders_planned(), 2);
        assert_eq!(scratch.join_orders_reused(), 3);
        assert_eq!(plan.check_program(), Ok(()));
    }

    #[test]
    fn small_atoms_keep_their_order() {
        // Both atoms flip anywhere between 1 and 64 rows: every length is
        // clamped up to the sample size, so one planning pass serves every
        // execution, and every answer is a fresh execution's.
        let q = edge_colors();
        let mut plan = compile(&q, &graph(1, 1));
        let mut scratch = ExecScratch::new();
        let rounds = 60;
        for round in 0..rounds {
            let edges = round * 37 % 64 + 1;
            let nodes = if round % 2 == 0 {
                1
            } else {
                round * 11 % 64 + 1
            };
            let rels = graph(edges, nodes);
            let inputs = inputs_of(&plan, &rels, false);
            let got = plan.execute(&inputs, &mut scratch, false).unwrap();
            let fresh = compile(&q, &rels)
                .execute(&inputs, &mut ExecScratch::new(), false)
                .unwrap();
            assert_eq!(got.sorted(), fresh.sorted(), "round {round}");
            assert_eq!(got.len(), edges, "round {round}");
        }
        assert_eq!(scratch.join_orders_planned(), 1);
        assert_eq!(scratch.join_orders_reused(), rounds as u64 - 1);
        assert_eq!(plan.check_program(), Ok(()));
    }

    #[test]
    fn kept_tables_follow_their_inputs_version() {
        // `label` is versioned and built on (`edge` ties it and comes first):
        // its table outlives the execution while the version holds.
        let (red, blue) = colors();
        let rels = edges_db();
        let q = edge_colors();
        let mut plan = compile(&q, &rels);
        let mut scratch = ExecScratch::new();
        let edge = PlanInput::from(&rels[0].1);
        let label = [edge, PlanInput::from(&rels[1].1).versioned(1)];
        let expected = run(&q);
        for _ in 0..3 {
            let got = plan.execute(&label, &mut scratch, false).unwrap();
            assert_eq!(sorted_rows(&got), expected);
        }
        assert_eq!(scratch.join_tables_built(), 1);
        assert_eq!(scratch.join_tables_kept(), 2);
        assert_eq!(plan.kept_tables().collect::<Vec<_>>(), [(1, 1)]);

        // Same four rows, new contents and a new version: the kept table is
        // rebuilt, and the answer is a fresh execution's.
        let int = Value::Int;
        let relabelled = relation_of(
            ["node", "color"],
            &[[int(2), red], [int(3), blue], [int(4), red], [int(5), blue]],
        );
        let inputs = [edge, PlanInput::from(&relabelled).versioned(2)];
        let got = plan.execute(&inputs, &mut scratch, false).unwrap();
        assert_eq!(scratch.join_tables_built(), 2);
        assert_eq!(scratch.join_tables_kept(), 2);
        let fresh = compile(&q, &rels)
            .execute(
                &[edge, PlanInput::from(&relabelled)],
                &mut ExecScratch::new(),
                false,
            )
            .unwrap();
        assert_eq!(got.sorted(), fresh.sorted());
        assert_eq!(
            sorted_rows(&got),
            [[int(1), red], [int(2), red], [int(2), blue], [int(3), red]]
        );
        assert_eq!(plan.kept_tables().collect::<Vec<_>>(), [(1, 2)]);

        // A shared tag wins over a version: the batch's table serves.
        let tagged = [edge, PlanInput::from(&relabelled).shared(0).versioned(2)];
        plan.execute(&tagged, &mut scratch, false).unwrap();
        assert_eq!(scratch.join_tables_kept(), 2);
        assert_eq!(scratch.join_tables_built(), 3);
    }

    #[test]
    fn a_corrupted_step_program_is_reported() {
        let q = two_hop().atom(Atom::new("label", [Term::var("Z"), Term::var("C")]));
        let rels = edges_db();
        let mut plan = compile(&q, &rels);
        assert_eq!(plan.check_program(), Ok(()), "nothing planned yet");
        let inputs = inputs_of(&plan, &rels, false);
        plan.execute(&inputs, &mut ExecScratch::new(), false)
            .unwrap();
        assert_eq!(plan.check_program(), Ok(()));

        // Wrong keys, head specs or step inputs: not what the order derives.
        let corruptions: [fn(&mut StepProgram); 3] = [
            |p| p.left_keys[0].1 ^= 1,
            |p| p.head.reverse(),
            |p| p.step_rels.reverse(),
        ];
        for corrupt in corruptions {
            let mut bad = plan.clone();
            corrupt(&mut bad.memo.program);
            assert_eq!(
                bad.check_program(),
                Err("a step program that its join order does not derive")
            );
        }
        let mut bad = plan.clone();
        bad.memo.order[0] = bad.memo.order[1];
        assert_eq!(
            bad.check_program(),
            Err("a join order that is not a permutation of the body atoms")
        );
        let mut bad = plan.clone();
        bad.memo.order.clear();
        assert_eq!(
            bad.check_program(),
            Err("a step program without a join order")
        );
    }

    #[test]
    fn empty_atom_short_circuits() {
        let empty = Relation::new(Schema::new(["a", "b"]));
        let q = ConjunctiveQuery::new(["X"])
            .atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]))
            .atom(Atom::new("none", [Term::var("Y"), Term::var("Z")]));
        let rels = edges_db();
        let mut plan = PhysicalPlan::compile(&q, |_| Some(2)).unwrap();
        let mut scratch = ExecScratch::new();
        let inputs: Vec<PlanInput<'_>> = plan
            .relations()
            .iter()
            .map(|name| {
                if name == "edge" {
                    PlanInput::from(&rels[0].1)
                } else {
                    PlanInput::from(&empty)
                }
            })
            .collect();
        let result = plan.execute(&inputs, &mut scratch, false).unwrap();
        assert!(result.is_empty());
        assert_eq!(result.schema().columns(), &["X"]);
    }

    #[test]
    fn compile_rejects_bad_queries() {
        // Unknown relation.
        let q = ConjunctiveQuery::new(["X"]).atom(Atom::new("nope", [Term::var("X")]));
        assert!(matches!(
            PhysicalPlan::compile(&q, |_| None).unwrap_err(),
            RelError::UnknownRelation { .. }
        ));
        // Arity mismatch.
        let q = ConjunctiveQuery::new(["X"]).atom(Atom::new("edge", [Term::var("X")]));
        assert!(matches!(
            PhysicalPlan::compile(&q, |_| Some(2)).unwrap_err(),
            RelError::MalformedQuery { .. }
        ));
        // Unbound head.
        let q =
            ConjunctiveQuery::new(["Q"]).atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]));
        assert!(matches!(
            PhysicalPlan::compile(&q, |_| Some(2)).unwrap_err(),
            RelError::MalformedQuery { .. }
        ));
        // Empty body.
        let q = ConjunctiveQuery::new(["X"]);
        assert!(matches!(
            PhysicalPlan::compile(&q, |_| Some(2)).unwrap_err(),
            RelError::MalformedQuery { .. }
        ));
    }

    #[test]
    fn plan_metadata_accessors() {
        let q = two_hop().atom(Atom::new("label", [Term::var("Z"), Term::var("C")]));
        let plan = PhysicalPlan::compile(&q, |_| Some(2)).unwrap();
        assert_eq!(plan.relations(), &["edge".to_owned(), "label".to_owned()]);
        assert_eq!(plan.num_atoms(), 3);
        assert_eq!(plan.col_names, ["X", "Y", "Z", "C"]);
        assert_eq!(plan.head_schema.columns(), &["X", "Z"]);
    }

    #[test]
    fn distinct_estimates_are_deterministic_and_bounded() {
        // All-equal column: estimate collapses to 1.
        assert_eq!(estimate_distinct(100, |_| 42), 1);
        // All-distinct sample: estimate is the row count.
        assert_eq!(estimate_distinct(50, |j| j as u64), 50);
        // Scaling: 64 samples with 32 distinct hashes over 128 rows
        // extrapolates to ~64, clamped within [distinct, n].
        let est = estimate_distinct(128, |j| (j % 32) as u64);
        assert!((32..=128).contains(&est));
        // Empty input.
        assert_eq!(estimate_distinct(0, |_| 0), 0);
    }

    #[test]
    fn materialize_time_accumulates() {
        let rels = edges_db();
        let mut plan = PhysicalPlan::compile(&two_hop(), |_| Some(2)).unwrap();
        let mut scratch = ExecScratch::new();
        let _ = plan.execute(&[PlanInput::from(&rels[0].1)], &mut scratch, false);
        // Nanosecond clocks can in principle read 0 for a tiny pass, but the
        // counter must exist and be monotone across executions.
        let first = scratch.materialize_time();
        let _ = plan.execute(&[PlanInput::from(&rels[0].1)], &mut scratch, false);
        assert!(scratch.materialize_time() >= first);
    }
}

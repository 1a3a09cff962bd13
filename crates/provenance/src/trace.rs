//! The tracing evaluator: generalized operator evaluation with per-schema-
//! alternative annotations (Section 5.3).
//!
//! For every plan operator, the tracer computes an [`OpTrace`] whose tuples
//! carry, per schema alternative, the data variant and the `valid` /
//! `retained` flags; [`annotate_consistency`] adds a question's `consistent`
//! flags as an overlay. Operators are *generalized* so that data a
//! reparameterization could keep also flows upward:
//!
//! * selections annotate instead of filtering,
//! * relation flattens behave like outer flattens,
//! * joins behave like full outer joins,
//! * difference annotates instead of removing.
//!
//! All schema alternatives are traced in a single pass over the data (the
//! merge step of Algorithm 3 / Figure 7), which is what makes additional
//! alternatives cheaper than additional query executions (Figure 11).
//!
//! The per-tuple work of the 1:1 operators (structural, selection, flatten)
//! and the per-schema-alternative work of the n:m operators (join probing,
//! nesting, aggregation) are independent, so both fan out across the
//! `whynot-exec` pool. Every parallel loop is an ordered `par_map` whose
//! results are reassembled in input order and whose fresh tuple ids are
//! assigned in a serial pass afterwards, so the trace is **bit-identical**
//! to the serial one at any `WHYNOT_THREADS` (the cross-crate determinism
//! tests enforce this).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use nested_data::{Bag, Column, ColumnarBag, Nip, Tuple, Value};
use nrab_algebra::eval::columnar_mask;
use nrab_algebra::expr::Expr;
use nrab_algebra::join::{
    hash_join_enabled, join_matches_probe, join_matches_with, split_equi_join, EquiJoin, JoinBuild,
    JoinMatches, JoinSide,
};
use nrab_algebra::schema::output_type;
use nrab_algebra::tuple_op::{row_tuple, FlattenOp, GroupAggOp, NestOp, TupleOp};
use nrab_algebra::{
    AlgebraError, AlgebraResult, Database, FlattenKind, JoinKind, OpId, OpNode, Operator, QueryPlan,
};
use whynot_exec::{par_map, par_map_range};

use crate::alternative::SchemaAlternative;
use crate::annotate::{Bits, GeneralizedTrace, OpTrace, SaFlags, TraceResult, TracedTuple};

/// Traces a plan over a database under the given schema alternatives.
///
/// Alternative 0 should be the original query (no substitutions); at least one
/// alternative must be provided.
///
/// Equivalent to [`trace_plan_generalized`] followed by
/// [`annotate_consistency`]; callers that answer many questions against the
/// same plan and database should invoke the two stages separately and cache
/// the (question-independent) generalized trace.
pub fn trace_plan(
    plan: &QueryPlan,
    db: &Database,
    sas: &[SchemaAlternative],
) -> AlgebraResult<TraceResult> {
    let base = Arc::new(trace_plan_generalized(plan, db, sas)?);
    Ok(annotate_consistency(&base, plan, sas))
}

/// The expensive, question-independent part of tracing: evaluates the plan in
/// its generalized form and computes the `valid` and `retained` flags, the
/// data variants, and the lineage for every schema alternative.
///
/// Only the attribute *substitutions* of `sas` are consulted — never their
/// consistency NIPs — so the result can be reused across why-not questions
/// that share the plan, the database, and the substitution sets (the trace
/// cache of `whynot-service` is keyed accordingly). [`annotate_consistency`]
/// adds the `consistent` annotation of a concrete question.
pub fn trace_plan_generalized(
    plan: &QueryPlan,
    db: &Database,
    sas: &[SchemaAlternative],
) -> AlgebraResult<GeneralizedTrace> {
    if sas.is_empty() {
        return Err(AlgebraError::Eval("at least one schema alternative is required".into()));
    }
    let _span = whynot_obs::span("trace_plan");
    let mut tracer =
        Tracer { db, sas, next_id: 1, traces: BTreeMap::new(), columnar: BTreeMap::new() };
    // Chunked loops below (and the join core underneath) raise guard trips
    // as panics; recover them into the error channel at the layer boundary.
    whynot_guard::catch_trip(|| tracer.trace_node(&plan.root))
        .unwrap_or_else(|trip| Err(AlgebraError::Resource(trip)))?;
    if whynot_obs::enabled() {
        whynot_obs::add(
            "trace.total_tuples",
            tracer.traces.values().map(|t| t.tuples.len() as u64).sum(),
        );
        whynot_obs::add("trace.sas", sas.len() as u64);
    }
    Ok(GeneralizedTrace {
        traces: tracer.traces,
        root: plan.root.id,
        pre_order: plan.op_ids_top_down(),
        num_sas: sas.len(),
    })
}

/// The cheap, question-specific part of tracing: re-validates every traced
/// tuple against the consistency NIPs of the schema alternatives (the
/// pushed-down why-not constraints produced by schema backtracing) and
/// records the `consistent` annotation as a bit overlay on the shared trace.
/// `base` itself is never modified, so one cached trace serves any number of
/// questions.
///
/// `sas` must describe the same substitution sets (in the same order) as the
/// ones `base` was traced under; only the consistency NIPs may differ.
pub fn annotate_consistency(
    base: &Arc<GeneralizedTrace>,
    plan: &QueryPlan,
    sas: &[SchemaAlternative],
) -> TraceResult {
    let _span = whynot_obs::span("annotate");
    debug_assert_eq!(sas.len(), base.num_sas, "the bit overlay is laid out per traced SA");
    let mut consistent = BTreeMap::new();
    for (op, op_trace) in &base.traces {
        let _span = whynot_obs::span_dyn(|| format!("annotate:{}#{}", op_trace.kind, op));
        let bits = annotate_op_consistency(op_trace, *op, plan, sas);
        if whynot_obs::enabled() {
            let compatible = match &bits {
                Some(bits) => bits.count_ones(),
                None => op_trace.tuples.iter().flat_map(|t| &t.flags).filter(|f| f.valid).count(),
            };
            whynot_obs::add("trace.compatible", compatible as u64);
        }
        if let Some(bits) = bits {
            consistent.insert(*op, bits);
        }
    }
    TraceResult::new(Arc::clone(base), consistent)
}

/// Computes one operator's `consistent` bits (tuple-major, one per tuple ×
/// schema alternative), or `None` when no alternative constrains the
/// operator — then every valid tuple is consistent.
fn annotate_op_consistency(
    base: &OpTrace,
    op: OpId,
    plan: &QueryPlan,
    sas: &[SchemaAlternative],
) -> Option<Bits> {
    let node = plan.node(op).ok();
    let is_group_agg = matches!(node.map(|n| &n.op), Some(Operator::GroupAggregation { .. }));
    // One NIP per alternative, prepared once per operator.
    let nips: Vec<Option<Cow<'_, Nip>>> = sas
        .iter()
        .map(|sa| {
            let nip = sa.consistency_nip(op)?;
            if !is_group_agg {
                return Some(Cow::Borrowed(nip));
            }
            // Upper-bound constraints on aggregate outputs can always be met
            // by a more restrictive choice of contributing tuples, which the
            // tracing does not enumerate (Section 5.5): relax them.
            let node = node.expect("group aggregation node exists in plan");
            let agg_outputs: Vec<String> = match sa.effective_operator(node) {
                Operator::GroupAggregation { aggs, .. } => {
                    aggs.iter().map(|a| a.output.clone()).collect()
                }
                _ => Vec::new(),
            };
            Some(Cow::Owned(relax_aggregate_upper_bounds(nip, &agg_outputs)))
        })
        .collect();
    if nips.iter().all(Option::is_none) {
        return None;
    }
    let n = sas.len();
    let mut bits = Bits::new(base.tuples.len() * n);
    for (index, tuple) in base.tuples.iter().enumerate() {
        for (sa, nip) in nips.iter().enumerate() {
            if !tuple.flags(sa).valid {
                continue;
            }
            let Some(variant) = tuple.variant(sa) else { continue };
            let consistent = match nip {
                None => true,
                // A group is accepted if either the all-members aggregate or
                // the retained-members fallback satisfies the relaxed NIP.
                Some(nip) => {
                    nip_matches_tuple(nip, variant)
                        || (is_group_agg
                            && tuple
                                .fallback_variant(sa)
                                .is_some_and(|f| nip_matches_tuple(nip, f)))
                }
            };
            if consistent {
                bits.set(index * n + sa);
            }
        }
    }
    Some(bits)
}

struct Tracer<'a> {
    db: &'a Database,
    sas: &'a [SchemaAlternative],
    next_id: u64,
    traces: BTreeMap<OpId, OpTrace>,
    /// Columnar passthrough: operators whose traced tuples are, under every
    /// schema alternative, exactly the rows of a columnar bag (tuple `i` ↔
    /// row `i`, every variant present and valid). Table accesses over
    /// wide-flat relations establish the mapping and selections preserve it
    /// (they annotate without transforming), so selection and aggregation
    /// tracing above a flat base relation read dense columns instead of
    /// scanning row tuples. Any transforming operator simply does not
    /// propagate the entry. Tracer-internal: the produced traces carry no
    /// columnar state and are bit-identical to the row-oriented ones.
    columnar: BTreeMap<OpId, Arc<ColumnarBag>>,
}

impl<'a> Tracer<'a> {
    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn n_sas(&self) -> usize {
        self.sas.len()
    }

    /// Compiles a structural 1:1 operator once per schema alternative, from
    /// the alternative's effective (substituted) operator. A kernel that does
    /// not compile makes every variant vanish under its alternative.
    fn compile_tuple_ops(&self, node: &OpNode) -> Vec<AlgebraResult<TupleOp>> {
        self.sas
            .iter()
            .map(|sa| TupleOp::compile(&sa.effective_operator(node), &node.inputs[0], self.db))
            .collect()
    }

    fn take_trace(&mut self, op: OpId) -> OpTrace {
        self.traces.remove(&op).expect("child trace must have been computed")
    }

    fn put_trace(&mut self, trace: OpTrace) {
        self.traces.insert(trace.op, trace);
    }

    fn trace_node(&mut self, node: &OpNode) -> AlgebraResult<()> {
        for input in &node.inputs {
            self.trace_node(input)?;
        }
        self.trace_op(node)
    }

    /// Traces one operator whose children are already traced, with the
    /// per-operator bookkeeping (trace-tuple budget, observability counters).
    fn trace_op(&mut self, node: &OpNode) -> AlgebraResult<()> {
        let _span = whynot_obs::span_dyn(|| format!("trace:{}#{}", node.op.kind_name(), node.id));
        let trace = match &node.op {
            Operator::TableAccess { table } => self.trace_table_access(node, table)?,
            Operator::Selection { .. } => self.trace_selection(node)?,
            Operator::Flatten { .. } => self.trace_flatten(node)?,
            Operator::Join { .. } => self.trace_join(node)?,
            Operator::CrossProduct => self.trace_join(node)?,
            Operator::RelationNest { .. } => self.trace_relation_nest(node)?,
            Operator::GroupAggregation { .. } => self.trace_group_aggregation(node)?,
            Operator::Union => self.trace_union(node)?,
            Operator::Difference => self.trace_difference(node)?,
            // Projection, renaming, tuple flatten, tuple nesting, per-tuple
            // aggregation, and dedup are structural 1:1 operators.
            _ => self.trace_structural(node)?,
        };
        // Traced tuples are the paper's worst-case growth term; draw each
        // operator's count from the request's trace-tuple budget. Serial
        // post-order recursion, so consumption order is deterministic.
        whynot_guard::consume_trace_tuples(trace.tuples.len() as u64)
            .map_err(AlgebraError::from)?;
        record_trace_counters(&trace);
        self.put_trace(trace);
        Ok(())
    }

    fn trace_table_access(&mut self, node: &OpNode, table: &str) -> AlgebraResult<OpTrace> {
        let bag = self.db.relation(table)?.clone();
        // Wide flat relations establish a columnar passthrough: traced tuple
        // `i` is (under every SA) row `i` of the cached columnar form.
        if let Some(cols) = bag.columnar() {
            self.columnar.insert(node.id, cols);
        }
        let mut tuples = Vec::with_capacity(bag.distinct());
        for (value, _mult) in bag.iter() {
            let tuple = value.as_tuple().cloned().unwrap_or_else(Tuple::empty);
            let id = self.fresh_id();
            let variants = vec![Some(tuple.clone()); self.n_sas()];
            let flags = (0..self.n_sas()).map(|_| base_flags(Some(&tuple), true, true)).collect();
            tuples.push(TracedTuple::new(id, variants, flags, vec![Vec::new(); self.n_sas()]));
        }
        Ok(OpTrace { op: node.id, kind: node.op.kind_name().to_string(), tuples })
    }

    /// Structural 1:1 operators: apply the effective operator to each variant
    /// individually; `retained` is always true (these operators never prune).
    fn trace_structural(&mut self, node: &OpNode) -> AlgebraResult<OpTrace> {
        let child = &node.inputs[0];
        let child_trace = self.take_trace(child.id);
        let kernels = self.compile_tuple_ops(node);

        // The per-tuple evaluation is the expensive part; fan it out and
        // assign the fresh ids in a serial pass so they match the serial
        // trace exactly.
        let armed = whynot_guard::armed();
        let n = self.n_sas();
        type StructuralRow = (Vec<Option<Tuple>>, Vec<SaFlags>);
        let computed: Vec<StructuralRow> = par_map(&child_trace.tuples, |input| {
            let mut variants = Vec::with_capacity(n);
            let mut flags = Vec::with_capacity(n);
            for (sa, kernel) in kernels.iter().enumerate() {
                let input_flags = input.flags(sa);
                let transformed = match input.variant(sa) {
                    Some(tuple) if input_flags.valid => apply_structural(kernel, tuple, armed),
                    _ => None,
                };
                flags.push(base_flags(transformed.as_ref(), input_flags.valid, true));
                variants.push(transformed);
            }
            (variants, flags)
        });
        let mut tuples = Vec::with_capacity(child_trace.tuples.len());
        for (input, (variants, flags)) in child_trace.tuples.iter().zip(computed) {
            tuples.push(TracedTuple::new(
                self.fresh_id(),
                variants,
                flags,
                vec![vec![input.id]; n],
            ));
        }
        self.put_trace(child_trace);
        Ok(OpTrace { op: node.id, kind: node.op.kind_name().to_string(), tuples })
    }

    /// Selection: annotate instead of filter. `retained` records whether the
    /// original (SA-substituted) predicate holds.
    fn trace_selection(&mut self, node: &OpNode) -> AlgebraResult<OpTrace> {
        let child = &node.inputs[0];
        let child_trace = self.take_trace(child.id);
        let predicates: Vec<Expr> = (0..self.n_sas())
            .map(|sa| match self.sas[sa].effective_operator(node) {
                Operator::Selection { predicate } => predicate,
                _ => Expr::lit(true),
            })
            .collect();

        let n = self.n_sas();
        let child_cols = self.columnar.get(&child.id).cloned();
        type SelectionRow = (Vec<Option<Tuple>>, Vec<SaFlags>);
        let computed: Vec<SelectionRow> = if let Some(cols) = &child_cols {
            // Columnar fast path: the child is a columnar passthrough (tuple
            // `i`'s variant under every SA is row `i`, present and valid), so
            // each SA's retained flags are one column-at-a-time predicate
            // mask, evaluated over per-chunk column slices on the pool.
            debug_assert_eq!(cols.rows(), child_trace.tuples.len());
            // SAs that did not substitute into the selection share its
            // predicate; evaluate each distinct predicate once.
            let mut masks: Vec<Vec<bool>> = Vec::with_capacity(predicates.len());
            for (sa, predicate) in predicates.iter().enumerate() {
                match predicates[..sa].iter().position(|p| p == predicate) {
                    Some(prev) => masks.push(masks[prev].clone()),
                    None => masks.push(columnar_mask(cols, predicate)),
                }
            }
            child_trace
                .tuples
                .iter()
                .enumerate()
                .map(|(i, input)| selection_row(n, input, |sa, _| masks[sa][i]))
                .collect()
        } else {
            par_map(&child_trace.tuples, |input| {
                selection_row(n, input, |sa, t| predicates[sa].eval_bool(t))
            })
        };
        let mut tuples = Vec::with_capacity(child_trace.tuples.len());
        for (input, (variants, flags)) in child_trace.tuples.iter().zip(computed) {
            tuples.push(TracedTuple::new(
                self.fresh_id(),
                variants,
                flags,
                vec![vec![input.id]; n],
            ));
        }
        self.put_trace(child_trace);
        // A selection only annotates, so its output rows still mirror the
        // child's columnar form: keep the passthrough alive for operators
        // above (selection chains, aggregations).
        if let Some(cols) = child_cols {
            self.columnar.insert(node.id, cols);
        }
        Ok(OpTrace { op: node.id, kind: node.op.kind_name().to_string(), tuples })
    }

    /// Relation flatten, generalized to an outer flatten.
    fn trace_flatten(&mut self, node: &OpNode) -> AlgebraResult<OpTrace> {
        let child = &node.inputs[0];
        let child_schema = output_type(child, self.db)?;
        let child_trace = self.take_trace(child.id);
        // Per SA: the flatten of the attribute actually flattened.
        let kernels: Vec<FlattenOp> = self
            .sas
            .iter()
            .map(|sa| FlattenOp::compile(&sa.effective_operator(node), &child_schema))
            .collect();

        // Per input tuple and SA, the `(tuple, retained)` rows the outer
        // flatten produces — computed in parallel, merged serially below. A
        // tuple without elements yields its padding row, which only an outer
        // original keeps; a kernel error makes the variant vanish.
        let outer_rows = |kernel: &FlattenOp, tuple: &Tuple| -> AlgebraResult<Vec<(Tuple, bool)>> {
            let rows = kernel.elements(tuple)?;
            if rows.is_empty() {
                return Ok(vec![(kernel.padding(tuple)?, kernel.kind() == FlattenKind::Outer)]);
            }
            Ok(rows.into_iter().map(|(row, _mult)| (row, true)).collect())
        };
        type FlattenRows = Vec<Vec<(Tuple, bool)>>;
        let computed: Vec<FlattenRows> = par_map(&child_trace.tuples, |input| {
            kernels
                .iter()
                .enumerate()
                .map(|(sa, kernel)| match input.variant(sa) {
                    Some(tuple) if input.flags(sa).valid => {
                        outer_rows(kernel, tuple).unwrap_or_default()
                    }
                    _ => Vec::new(),
                })
                .collect()
        });
        let mut tuples = Vec::new();
        for (input, per_sa) in child_trace.tuples.iter().zip(computed) {
            let width = per_sa.iter().map(Vec::len).max().unwrap_or(0);
            for k in 0..width {
                let id = self.fresh_id();
                let mut variants = Vec::with_capacity(self.n_sas());
                let mut flags = Vec::with_capacity(self.n_sas());
                for outputs in per_sa.iter() {
                    match outputs.get(k) {
                        Some((tuple, retained)) => {
                            flags.push(base_flags(Some(tuple), true, *retained));
                            variants.push(Some(tuple.clone()));
                        }
                        None => {
                            flags.push(SaFlags::absent());
                            variants.push(None);
                        }
                    }
                }
                tuples.push(TracedTuple::new(
                    id,
                    variants,
                    flags,
                    vec![vec![input.id]; self.n_sas()],
                ));
            }
        }
        self.put_trace(child_trace);
        Ok(OpTrace { op: node.id, kind: node.op.kind_name().to_string(), tuples })
    }

    /// Joins (and cross products), generalized to full outer joins.
    ///
    /// The pairing itself — partitioned hash join on the equi conjuncts with
    /// a parallel nested-loop fallback — is `nrab_algebra::join`, the same
    /// core the evaluator's join runs on; tracing adds the per-SA fan-out,
    /// the columnar key extraction over passthrough children, and the
    /// outer-join generalization below.
    fn trace_join(&mut self, node: &OpNode) -> AlgebraResult<OpTrace> {
        let left_node = &node.inputs[0];
        let right_node = &node.inputs[1];
        let left_schema = output_type(left_node, self.db)?;
        let right_schema = output_type(right_node, self.db)?;
        let left_trace = self.take_trace(left_node.id);
        let right_trace = self.take_trace(right_node.id);

        let original_kind = match &node.op {
            Operator::Join { kind, .. } => *kind,
            Operator::CrossProduct => JoinKind::Inner,
            _ => unreachable!("trace_join called on non-join"),
        };
        let predicates: Vec<Expr> = (0..self.n_sas())
            .map(|sa| match self.sas[sa].effective_operator(node) {
                Operator::Join { predicate, .. } => predicate,
                Operator::CrossProduct => Expr::lit(true),
                _ => Expr::lit(true),
            })
            .collect();

        // Columnar passthrough children expose their key columns to the join
        // core (tuple `i` of the trace is row `i` of the columnar form under
        // every SA, so per-SA key extraction may read the shared columns).
        let left_cols = self.columnar.get(&left_node.id).cloned();
        let right_cols = self.columnar.get(&right_node.id).cloned();
        // The hash-join decision is resolved once, on the calling thread:
        // the per-SA closures below may run on pool workers whose
        // thread-local flag was never touched by `with_hash_join`.
        let use_hash = hash_join_enabled();

        // Schema alternatives whose substitutions leave the right subtree
        // untouched (and whose effective predicates split into the same
        // right key paths) join *identical* right rows: their hash tables
        // are equal, so build once per distinct group and share it across
        // the group's probes. Signature = the alternative's substitutions
        // restricted to right-subtree operators, plus the right key paths.
        let right_rows_of = |sa: usize| -> Vec<Option<&Tuple>> {
            right_trace
                .tuples
                .iter()
                .map(|t| if t.flags(sa).valid { t.variant(sa) } else { None })
                .collect()
        };
        let equis: Vec<Option<EquiJoin>> = predicates
            .iter()
            .map(|p| use_hash.then(|| split_equi_join(p, &left_schema, &right_schema)).flatten())
            .collect();
        let mut right_ops = std::collections::BTreeSet::new();
        collect_subtree_ops(right_node, &mut right_ops);
        let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (sa, equi) in equis.iter().enumerate() {
            let Some(equi) = equi else { continue };
            use std::fmt::Write;
            let mut signature = String::new();
            for substitution in &self.sas[sa].substitutions {
                if right_ops.contains(&substitution.op) {
                    let _ = write!(signature, "{substitution};");
                }
            }
            for key in &equi.right_keys {
                let _ = write!(signature, "|{key}");
            }
            groups.entry(signature).or_default().push(sa);
        }
        let mut build_for_sa: Vec<Option<Arc<JoinBuild>>> = vec![None; self.n_sas()];
        for members in groups.values() {
            let representative = members[0];
            let right_side =
                JoinSide::new(right_rows_of(representative)).with_columns(right_cols.as_deref());
            let build = Arc::new(JoinBuild::build(
                &right_side,
                &equis[representative]
                    .as_ref()
                    .expect("grouped SAs have equi structure")
                    .right_keys,
            ));
            for &sa in members {
                build_for_sa[sa] = Some(Arc::clone(&build));
            }
        }

        // The per-SA join passes are independent, and within one SA the join
        // core chunks build and probe over the pool, too. Only the outermost
        // parallel call fans out (nested calls always serialize): with
        // several SAs the SA level owns the threads and the per-SA joins run
        // serially inside it; with a single SA the SA level is a no-op and
        // the core's build/probe level parallelizes instead. Matches are
        // folded in (left, right) order, so the pair list is identical to
        // the serial nested loop.
        let per_sa: Vec<JoinMatches> = par_map_range(0..self.n_sas(), |sa| {
            let _span = whynot_obs::span_dyn(|| format!("sa#{sa}"));
            whynot_guard::faults::fault_point_dyn("trace_sa", || sa.to_string());
            whynot_guard::enforce();
            let left_rows: Vec<Option<&Tuple>> = left_trace
                .tuples
                .iter()
                .map(|t| if t.flags(sa).valid { t.variant(sa) } else { None })
                .collect();
            let left_side = JoinSide::new(left_rows).with_columns(left_cols.as_deref());
            let right_side = JoinSide::new(right_rows_of(sa)).with_columns(right_cols.as_deref());
            match (&equis[sa], &build_for_sa[sa]) {
                (Some(equi), Some(build)) => {
                    join_matches_probe(&left_side, &right_side, equi, build)
                }
                _ => join_matches_with(
                    &left_side,
                    &right_side,
                    &predicates[sa],
                    &left_schema,
                    &right_schema,
                    use_hash,
                ),
            }
        });

        // Merge across SAs, keyed by (left id, right id) with None for padding.
        #[derive(Default, Clone)]
        struct Slot {
            per_sa: Vec<Option<(Tuple, bool)>>,
        }
        let mut slots: BTreeMap<(Option<u64>, Option<u64>), Slot> = BTreeMap::new();
        let n = self.n_sas();
        fn slot_for(
            slots: &mut BTreeMap<(Option<u64>, Option<u64>), Slot>,
            key: (Option<u64>, Option<u64>),
            n: usize,
        ) -> &mut Slot {
            slots.entry(key).or_insert_with(|| Slot { per_sa: vec![None; n] })
        }
        let left_names: Vec<nested_data::Sym> = left_schema.attribute_syms().collect();
        let right_names: Vec<nested_data::Sym> = right_schema.attribute_syms().collect();
        for (sa, state) in per_sa.iter().enumerate() {
            for pair in &state.pairs {
                let lt = &left_trace.tuples[pair.left];
                let rt = &right_trace.tuples[pair.right];
                let slot = slot_for(&mut slots, (Some(lt.id), Some(rt.id)), n);
                slot.per_sa[sa] = Some((pair.combined.clone(), true));
            }
            for (li, lt) in left_trace.tuples.iter().enumerate() {
                if lt.flags(sa).valid && !state.left_matched[li] {
                    let padded =
                        lt.variant(sa).unwrap().concat(&Tuple::null_padded(&right_names))?;
                    let retained = matches!(original_kind, JoinKind::Left | JoinKind::Full);
                    let slot = slot_for(&mut slots, (Some(lt.id), None), n);
                    slot.per_sa[sa] = Some((padded, retained));
                }
            }
            for (ri, rt) in right_trace.tuples.iter().enumerate() {
                if rt.flags(sa).valid && !state.right_matched[ri] {
                    let padded = Tuple::null_padded(&left_names).concat(rt.variant(sa).unwrap())?;
                    let retained = matches!(original_kind, JoinKind::Right | JoinKind::Full);
                    let slot = slot_for(&mut slots, (None, Some(rt.id)), n);
                    slot.per_sa[sa] = Some((padded, retained));
                }
            }
        }

        let mut tuples = Vec::with_capacity(slots.len());
        for ((lid, rid), slot) in slots {
            let id = self.fresh_id();
            let mut variants = Vec::with_capacity(n);
            let mut flags = Vec::with_capacity(n);
            let mut inputs = Vec::with_capacity(n);
            let pair_ids: Vec<u64> = [lid, rid].into_iter().flatten().collect();
            for sa in 0..n {
                match &slot.per_sa[sa] {
                    Some((tuple, retained)) => {
                        flags.push(base_flags(Some(tuple), true, *retained));
                        variants.push(Some(tuple.clone()));
                        inputs.push(pair_ids.clone());
                    }
                    None => {
                        flags.push(SaFlags::absent());
                        variants.push(None);
                        inputs.push(Vec::new());
                    }
                }
            }
            tuples.push(TracedTuple::new(id, variants, flags, inputs));
        }
        self.put_trace(left_trace);
        self.put_trace(right_trace);
        Ok(OpTrace { op: node.id, kind: node.op.kind_name().to_string(), tuples })
    }

    /// Relation nesting: group valid tuples per SA and merge group keys across
    /// SAs with an outer-join-like combination (Figure 7, step 4).
    fn trace_relation_nest(&mut self, node: &OpNode) -> AlgebraResult<OpTrace> {
        let child = &node.inputs[0];
        let child_trace = self.take_trace(child.id);
        let n = self.n_sas();

        // Per-SA grouping passes are independent: each SA builds its own
        // key → (nested bag, member ids) map in parallel; the maps are then
        // merged over the union of keys — the outer-join-like combination of
        // Figure 7, step 4 — in SA order, which reproduces the serial result
        // exactly (B-tree maps are insertion-order insensitive).
        #[allow(clippy::mutable_key_type)] // cached hashes don't affect `Ord`
        type SaGroups = BTreeMap<Value, (Bag, Vec<u64>)>;
        let sas = self.sas;
        let per_sa_groups: Vec<BTreeMap<Value, (Tuple, Vec<u64>)>> = par_map_range(0..n, |sa| {
            let _span = whynot_obs::span_dyn(|| format!("sa#{sa}"));
            let kernel = NestOp::compile(&sas[sa].effective_operator(node));
            #[allow(clippy::mutable_key_type)]
            let mut sa_groups: SaGroups = BTreeMap::new();
            for input in &child_trace.tuples {
                let Some(tuple) = input.variant(sa) else { continue };
                if !input.flags(sa).valid {
                    continue;
                }
                let key = Value::from_tuple(kernel.key(tuple));
                let entry = sa_groups.entry(key).or_insert_with(|| (Bag::new(), Vec::new()));
                if let Some(member) = kernel.member(tuple) {
                    entry.0.insert(Value::from_tuple(member), 1);
                }
                if !entry.1.contains(&input.id) {
                    entry.1.push(input.id);
                }
            }
            sa_groups
                .into_iter()
                .map(|(key, (members, ids))| {
                    let output = kernel.output(row_tuple(&key), members);
                    (key, (output, ids))
                })
                .collect()
        });

        #[allow(clippy::mutable_key_type)]
        let mut groups: BTreeMap<Value, GroupSlot> = BTreeMap::new();
        for (sa, sa_groups) in per_sa_groups.into_iter().enumerate() {
            for (key, (output, member_ids)) in sa_groups {
                let slot = groups.entry(key).or_insert_with(|| GroupSlot {
                    per_sa: vec![None; n],
                    member_ids: vec![Vec::new(); n],
                });
                slot.per_sa[sa] = Some(output);
                slot.member_ids[sa] = member_ids;
            }
        }

        let mut tuples = Vec::with_capacity(groups.len());
        for slot in groups.into_values() {
            let id = self.fresh_id();
            let flags =
                slot.per_sa.iter().map(|tuple| base_flags(tuple.as_ref(), true, true)).collect();
            tuples.push(TracedTuple::new(id, slot.per_sa, flags, slot.member_ids));
        }
        self.put_trace(child_trace);
        Ok(OpTrace { op: node.id, kind: node.op.kind_name().to_string(), tuples })
    }

    /// Grouped aggregation: like relation nesting, but each group contributes
    /// aggregate values. Consistency is checked against the aggregates
    /// computed from all valid tuples and, as a fallback, from the tuples the
    /// immediately preceding operator retained (cf. the discussion of
    /// aggregation tracing limitations in Section 5.5).
    fn trace_group_aggregation(&mut self, node: &OpNode) -> AlgebraResult<OpTrace> {
        let child = &node.inputs[0];
        let child_trace = self.take_trace(child.id);
        let n = self.n_sas();

        // Like relation nesting: independent per-SA grouping passes in
        // parallel, merged over the union of group keys in SA order.
        #[allow(clippy::mutable_key_type)] // cached hashes don't affect `Ord`
        type SaAggGroups<'t> = BTreeMap<Value, (AggGroupSa<'t>, Vec<u64>)>;
        let kernels: Vec<GroupAggOp> =
            self.sas.iter().map(|sa| GroupAggOp::compile(&sa.effective_operator(node))).collect();
        let child_cols = self.columnar.get(&child.id).cloned();
        let per_sa_groups: Vec<SaAggGroups<'_>> = par_map_range(0..n, |sa| {
            let _span = whynot_obs::span_dyn(|| format!("sa#{sa}"));
            let kernel = &kernels[sa];
            let group_refs = kernel.group_by();
            // Columnar group keys: when the child is a columnar passthrough
            // and every grouping attribute is one of its columns, the group
            // key of row `i` is assembled from dense typed columns instead of
            // per-row field scans — identical to `tuple.project(group_refs)`.
            let key_cols: Option<Vec<&Column>> = child_cols.as_ref().and_then(|cols| {
                debug_assert_eq!(cols.rows(), child_trace.tuples.len());
                group_refs.iter().map(|s| cols.column(*s)).collect()
            });
            #[allow(clippy::mutable_key_type)]
            let mut sa_groups: SaAggGroups<'_> = BTreeMap::new();
            for (i, input) in child_trace.tuples.iter().enumerate() {
                let Some(tuple) = input.variant(sa) else { continue };
                if !input.flags(sa).valid {
                    continue;
                }
                let key = match &key_cols {
                    Some(cols) => Value::from_tuple(Tuple::new(
                        group_refs.iter().zip(cols.iter()).map(|(s, col)| (*s, col.value(i))),
                    )),
                    None => Value::from_tuple(kernel.key(tuple)),
                };
                let (entry, member_ids) = sa_groups.entry(key).or_default();
                entry.all_members.push(tuple);
                if input.flags(sa).retained {
                    entry.retained_members.push(tuple);
                }
                if !member_ids.contains(&input.id) {
                    member_ids.push(input.id);
                }
            }
            sa_groups
        });

        // See above: the cached structural hash does not affect ordering.
        #[allow(clippy::mutable_key_type)]
        let mut groups: BTreeMap<Value, AggGroupSlot<'_>> = BTreeMap::new();
        for (sa, sa_groups) in per_sa_groups.into_iter().enumerate() {
            for (key, (group, member_ids)) in sa_groups {
                let slot = groups.entry(key).or_insert_with(|| AggGroupSlot {
                    per_sa: (0..n).map(|_| None).collect(),
                    member_ids: vec![Vec::new(); n],
                });
                slot.per_sa[sa] = Some(group);
                slot.member_ids[sa] = member_ids;
            }
        }

        // The per-group aggregate evaluation is independent across groups;
        // fresh ids are assigned serially afterwards in key order, exactly
        // like the serial loop.
        let group_list: Vec<(Value, AggGroupSlot<'_>)> = groups.into_iter().collect();
        type AggRow = (Vec<Option<Tuple>>, Vec<SaFlags>, Vec<Option<Tuple>>);
        let computed: Vec<AggRow> = par_map(&group_list, |(key, slot)| {
            let key_tuple = row_tuple(key);
            let mut variants = Vec::with_capacity(n);
            let mut flags = Vec::with_capacity(n);
            let mut fallbacks = Vec::with_capacity(n);
            for (kernel, group) in kernels.iter().zip(&slot.per_sa) {
                match group {
                    Some(group) => {
                        let relaxed = kernel.aggregate(key_tuple, &group.all_members);
                        let retained_only = kernel.aggregate(key_tuple, &group.retained_members);
                        // The original query would produce the group from the
                        // retained members only; the group survives if any
                        // member was retained. The retained-members aggregate
                        // is kept as the fallback variant consulted by the
                        // consistency annotation (Section 5.5).
                        let retained = !group.retained_members.is_empty();
                        flags.push(SaFlags { valid: true, retained });
                        variants.push(Some(relaxed));
                        fallbacks.push(Some(retained_only));
                    }
                    None => {
                        flags.push(SaFlags::absent());
                        variants.push(None);
                        fallbacks.push(None);
                    }
                }
            }
            (variants, flags, fallbacks)
        });
        let mut tuples = Vec::with_capacity(group_list.len());
        for ((_, slot), (variants, flags, fallbacks)) in group_list.into_iter().zip(computed) {
            tuples.push(TracedTuple::with_fallbacks(
                self.fresh_id(),
                variants,
                flags,
                slot.member_ids,
                fallbacks,
            ));
        }
        self.put_trace(child_trace);
        Ok(OpTrace { op: node.id, kind: node.op.kind_name().to_string(), tuples })
    }

    fn trace_union(&mut self, node: &OpNode) -> AlgebraResult<OpTrace> {
        let left_trace = self.take_trace(node.inputs[0].id);
        let right_trace = self.take_trace(node.inputs[1].id);
        let mut tuples = Vec::with_capacity(left_trace.tuples.len() + right_trace.tuples.len());
        for input in left_trace.tuples.iter().chain(right_trace.tuples.iter()) {
            let id = self.fresh_id();
            let mut variants = Vec::with_capacity(self.n_sas());
            let mut flags = Vec::with_capacity(self.n_sas());
            for sa in 0..self.n_sas() {
                let variant = input.variant(sa).cloned();
                flags.push(base_flags(variant.as_ref(), input.flags(sa).valid, true));
                variants.push(variant);
            }
            tuples.push(TracedTuple::new(id, variants, flags, vec![vec![input.id]; self.n_sas()]));
        }
        self.put_trace(left_trace);
        self.put_trace(right_trace);
        Ok(OpTrace { op: node.id, kind: node.op.kind_name().to_string(), tuples })
    }

    fn trace_difference(&mut self, node: &OpNode) -> AlgebraResult<OpTrace> {
        let left_trace = self.take_trace(node.inputs[0].id);
        let right_trace = self.take_trace(node.inputs[1].id);
        // The right-side membership probe is the quadratic part; fan the
        // left tuples out over the pool.
        let n = self.n_sas();
        type DifferenceRow = (Vec<Option<Tuple>>, Vec<SaFlags>);
        let computed: Vec<DifferenceRow> = par_map(&left_trace.tuples, |input| {
            let mut variants = Vec::with_capacity(n);
            let mut flags = Vec::with_capacity(n);
            for sa in 0..n {
                let variant = input.variant(sa).cloned();
                let subtracted = variant.as_ref().map(|t| {
                    right_trace.tuples.iter().any(|r| {
                        r.flags(sa).valid && r.variant(sa).map(|rt| rt == t).unwrap_or(false)
                    })
                });
                let retained = matches!(subtracted, Some(false));
                flags.push(base_flags(variant.as_ref(), input.flags(sa).valid, retained));
                variants.push(variant);
            }
            (variants, flags)
        });
        let mut tuples = Vec::with_capacity(left_trace.tuples.len());
        for (input, (variants, flags)) in left_trace.tuples.iter().zip(computed) {
            tuples.push(TracedTuple::new(
                self.fresh_id(),
                variants,
                flags,
                vec![vec![input.id]; n],
            ));
        }
        self.put_trace(left_trace);
        self.put_trace(right_trace);
        Ok(OpTrace { op: node.id, kind: node.op.kind_name().to_string(), tuples })
    }
}

struct GroupSlot {
    per_sa: Vec<Option<Tuple>>,
    member_ids: Vec<Vec<u64>>,
}

/// One group's members under one schema alternative: every valid member,
/// and the members the preceding operator retained.
#[derive(Default)]
struct AggGroupSa<'t> {
    all_members: Vec<&'t Tuple>,
    retained_members: Vec<&'t Tuple>,
}

struct AggGroupSlot<'t> {
    per_sa: Vec<Option<AggGroupSa<'t>>>,
    member_ids: Vec<Vec<u64>>,
}

/// Replaces upper-bound leaf constraints (`<`, `≤`) on aggregate output
/// attributes by `?`, since dropping contributing tuples can always lower an
/// aggregate of non-negative inputs.
fn relax_aggregate_upper_bounds(nip: &Nip, agg_outputs: &[String]) -> Nip {
    match nip {
        Nip::Tuple(fields) => Nip::Tuple(
            fields
                .iter()
                .map(|(name, field)| {
                    let relaxed = if agg_outputs.iter().any(|o| *name == o.as_str()) {
                        match field {
                            Nip::Pred(nested_data::NipCmp::Lt | nested_data::NipCmp::Le, _) => {
                                Nip::Any
                            }
                            other => other.clone(),
                        }
                    } else {
                        field.clone()
                    };
                    (*name, relaxed)
                })
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Assembles one traced selection tuple's per-SA variants and flags. The
/// columnar and row-oriented paths differ only in how `retained` is decided
/// (a precomputed column mask vs. a per-tuple predicate evaluation), so both
/// share this loop — keeping their outputs structurally identical by
/// construction.
fn selection_row(
    n: usize,
    input: &TracedTuple,
    retained: impl Fn(usize, &Tuple) -> bool,
) -> (Vec<Option<Tuple>>, Vec<SaFlags>) {
    let mut variants = Vec::with_capacity(n);
    let mut flags = Vec::with_capacity(n);
    for sa in 0..n {
        let input_flags = input.flags(sa);
        let variant = input.variant(sa).cloned();
        let is_retained =
            variant.as_ref().map(|t| input_flags.valid && retained(sa, t)).unwrap_or(false);
        flags.push(base_flags(variant.as_ref(), input_flags.valid, is_retained));
        variants.push(variant);
    }
    (variants, flags)
}

/// Builds the flags of a variant: validity is inherited from the input, and
/// `retained` is provided by the operator-specific tracing procedure.
fn base_flags(variant: Option<&Tuple>, input_valid: bool, retained: bool) -> SaFlags {
    match variant {
        Some(_) if input_valid => SaFlags { valid: true, retained },
        _ => SaFlags::absent(),
    }
}

/// Records the per-operator trace counters when a profiling session is
/// active.
fn record_trace_counters(trace: &OpTrace) {
    if !whynot_obs::enabled() {
        return;
    }
    whynot_obs::add("trace.tuples", trace.tuples.len() as u64);
    let (mut valid, mut retained) = (0u64, 0u64);
    for tuple in &trace.tuples {
        for flags in &tuple.flags {
            valid += flags.valid as u64;
            retained += (flags.valid && flags.retained) as u64;
        }
    }
    whynot_obs::add("trace.valid", valid);
    whynot_obs::add("trace.retained", retained);
}

/// Collects every operator id of a plan subtree (used to decide which
/// schema-alternative substitutions can affect a join's right side).
fn collect_subtree_ops(node: &OpNode, out: &mut std::collections::BTreeSet<OpId>) {
    out.insert(node.id);
    for input in &node.inputs {
        collect_subtree_ops(input, out);
    }
}

/// Applies a structural kernel to one valid variant. Each application draws
/// one checkpoint and one eval row from an armed guard; a failed draw, a
/// kernel that did not compile, or a kernel error makes the variant vanish
/// (`None`) under the alternative.
fn apply_structural(kernel: &AlgebraResult<TupleOp>, tuple: &Tuple, armed: bool) -> Option<Tuple> {
    if armed && (whynot_guard::checkpoint().is_err() || whynot_guard::consume_eval_rows(1).is_err())
    {
        return None;
    }
    kernel.as_ref().ok()?.apply(tuple).ok()
}

/// Matches a NIP against a tuple without cloning it into a `Value`.
fn nip_matches_tuple(nip: &Nip, tuple: &Tuple) -> bool {
    match nip {
        Nip::Tuple(fields) => fields.iter().all(|(name, field_nip)| match tuple.get(*name) {
            Some(v) => field_nip.matches(v),
            None => false,
        }),
        Nip::Any => true,
        other => other.matches(&Value::from_tuple(tuple.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alternative::OpSubstitution;
    use nested_data::{NestedType, NipCmp, TupleType};
    use nrab_algebra::expr::CmpOp;
    use nrab_algebra::PlanBuilder;

    /// The person table of Figure 1a.
    fn person_db() -> Database {
        let address =
            TupleType::new([("city", NestedType::str()), ("year", NestedType::int())]).unwrap();
        let person_ty = TupleType::new([
            ("name", NestedType::str()),
            ("address1", NestedType::Relation(address.clone())),
            ("address2", NestedType::Relation(address)),
        ])
        .unwrap();
        let addr = |city: &str, year: i64| {
            Value::tuple([("city", Value::str(city)), ("year", Value::int(year))])
        };
        let peter = Value::tuple([
            ("name", Value::str("Peter")),
            ("address1", Value::bag([addr("NY", 2010), addr("LA", 2019), addr("LV", 2017)])),
            ("address2", Value::bag([addr("LA", 2010), addr("SF", 2018)])),
        ]);
        let sue = Value::tuple([
            ("name", Value::str("Sue")),
            ("address1", Value::bag([addr("LA", 2019), addr("NY", 2018)])),
            ("address2", Value::bag([addr("LA", 2019), addr("NY", 2018)])),
        ]);
        let mut db = Database::new();
        db.add_relation("person", person_ty, Bag::from_values([peter, sue]));
        db
    }

    fn running_example_plan() -> QueryPlan {
        PlanBuilder::table("person")
            .inner_flatten("address2", None)
            .select(Expr::attr_cmp("year", CmpOp::Ge, 2019i64))
            .project_attrs(&["name", "city"])
            .relation_nest(vec!["name"], "nList")
            .build()
            .unwrap()
    }

    /// Consistency NIPs of the running example (what schema backtracing
    /// produces): city = NY at every level where `city` exists, and the
    /// pushed-down address constraint at the table access.
    fn consistency_for(address_attr: &str) -> BTreeMap<OpId, Nip> {
        let city_ny = Nip::tuple([("city", Nip::val("NY"))]);
        let table_nip = Nip::tuple([(
            address_attr,
            Nip::bag([Nip::tuple([("city", Nip::val("NY")), ("year", Nip::Any)]), Nip::Star]),
        )]);
        BTreeMap::from([
            (0, table_nip),
            (1, city_ny.clone()),
            (2, city_ny.clone()),
            (3, city_ny.clone()),
            (4, Nip::tuple([("city", Nip::val("NY")), ("nList", Nip::bag([Nip::Any, Nip::Star]))])),
        ])
    }

    fn example_sas() -> Vec<SchemaAlternative> {
        vec![
            SchemaAlternative::original(consistency_for("address2")),
            SchemaAlternative::new(
                1,
                vec![OpSubstitution::new(1, "address2", "address1")],
                consistency_for("address1"),
            ),
        ]
    }

    fn trace_example() -> TraceResult {
        trace_plan(&running_example_plan(), &person_db(), &example_sas()).unwrap()
    }

    /// The index of the first tuple of `trace` satisfying `pred`.
    fn position(trace: &OpTrace, pred: impl Fn(&TracedTuple) -> bool) -> usize {
        trace.tuples.iter().position(pred).expect("tuple exists")
    }

    fn named(name: &str) -> impl Fn(&TracedTuple) -> bool + '_ {
        move |t| t.variant(0).unwrap().get("name") == Some(&Value::str(name))
    }

    #[test]
    fn table_access_consistency_mirrors_figure_4() {
        let result = trace_example();
        let table = result.trace(0).unwrap();
        assert_eq!(table.len(), 2);
        // Peter: no NY in address2 (SA1: inconsistent), NY 2010 in address1 (SA2: consistent).
        let peter = position(table, named("Peter"));
        assert!(!result.consistent(0, peter, 0));
        assert!(result.consistent(0, peter, 1));
        // Sue: NY in both address relations.
        let sue = position(table, named("Sue"));
        assert!(result.consistent(0, sue, 0));
        assert!(result.consistent(0, sue, 1));
    }

    #[test]
    fn flatten_trace_mirrors_figure_5() {
        let result = trace_example();
        let flatten = result.trace(1).unwrap();
        // Peter contributes max(3, 2) merged rows, Sue max(2, 2): 5 rows total.
        assert_eq!(flatten.len(), 5);
        // Exactly one row is consistent under S1 (Sue's NY 2018 address2 entry).
        let consistent_s1: Vec<_> =
            (0..flatten.len()).filter(|i| result.consistent(1, *i, 0)).collect();
        assert_eq!(consistent_s1.len(), 1);
        let sue = &flatten.tuples[consistent_s1[0]];
        assert_eq!(sue.variant(0).unwrap().get("name"), Some(&Value::str("Sue")));
        // Under S1 only 4 rows are valid (Peter's address2 has 2 entries).
        assert_eq!(flatten.tuples.iter().filter(|t| t.flags(0).valid).count(), 4);
        assert_eq!(flatten.tuples.iter().filter(|t| t.flags(1).valid).count(), 5);
        // No padding rows: every valid row is retained by the inner flatten.
        assert!(flatten.tuples.iter().all(|t| !t.flags(0).valid || t.flags(0).retained));
    }

    #[test]
    fn selection_trace_mirrors_figure_6() {
        let result = trace_example();
        let selection = result.trace(2).unwrap();
        // The consistent S1 tuple (Sue, NY, 2018) is not retained by year ≥ 2019.
        let witness = (0..selection.len()).find(|i| result.consistent(2, *i, 0)).unwrap();
        assert!(selection.tuples[witness].flags(0).valid);
        assert!(!selection.tuples[witness].flags(0).retained);
        // Some valid tuple *is* retained (Sue's LA 2019).
        assert!(selection.tuples.iter().any(|t| t.flags(0).valid && t.flags(0).retained));
    }

    #[test]
    fn nesting_trace_mirrors_figure_7() {
        let result = trace_example();
        let nest = result.root_trace();
        // Groups across both SAs: NY, LA, SF (S1) and NY, LA, LV (S2) → 4 city groups.
        assert_eq!(nest.len(), 4);
        let ny = position(nest, |t| {
            t.variant(0)
                .or(t.variant(1))
                .map(|v| v.get("city") == Some(&Value::str("NY")))
                .unwrap_or(false)
        });
        assert!(result.consistent(4, ny, 0));
        assert!(result.consistent(4, ny, 1));
        // The LV group only exists under S2 (it comes from address1).
        let lv = nest
            .tuples
            .iter()
            .find(|t| {
                t.variant(1).map(|v| v.get("city") == Some(&Value::str("LV"))).unwrap_or(false)
            })
            .unwrap();
        assert!(!lv.flags(0).valid);
        assert!(lv.flags(1).valid);
        assert!(result.has_consistent_output(0));
        assert!(result.has_consistent_output(1));
    }

    #[test]
    fn contributing_ids_reach_back_to_sue() {
        let result = trace_example();
        let contributing = result.contributing_ids(0);
        let table = result.trace(0).unwrap();
        let sue = &table.tuples[position(table, named("Sue"))];
        let peter = &table.tuples[position(table, named("Peter"))];
        assert!(contributing.contains(&sue.id));
        // Peter's tuple cannot contribute to the NY answer under S1...
        assert!(!contributing.contains(&peter.id));
        // ...but it can under S2 (address1 holds NY 2010).
        assert!(result.contributing_ids(1).contains(&peter.id));
    }

    #[test]
    fn selection_has_reparameterization_witness_under_both_sas() {
        let result = trace_example();
        for sa in 0..2 {
            let contributing = result.contributing_ids(sa);
            assert!(
                result.has_reparameterization_witness(2, sa, &contributing),
                "selection must be a candidate under SA {sa}"
            );
        }
        // The flatten has no reparameterization witness (all its consistent
        // tuples are retained).
        for sa in 0..2 {
            let contributing = result.contributing_ids(sa);
            assert!(!result.has_reparameterization_witness(1, sa, &contributing));
        }
    }

    #[test]
    fn join_tracing_pads_unmatched_tuples() {
        let mut db = Database::new();
        let r_ty = TupleType::new([("a", NestedType::int())]).unwrap();
        let s_ty =
            TupleType::new([("b", NestedType::int()), ("payload", NestedType::str())]).unwrap();
        db.add_relation(
            "r",
            r_ty,
            Bag::from_values([
                Value::tuple([("a", Value::int(1))]),
                Value::tuple([("a", Value::int(7))]),
            ]),
        );
        db.add_relation(
            "s",
            s_ty,
            Bag::from_values([
                Value::tuple([("b", Value::int(1)), ("payload", Value::str("x"))]),
                Value::tuple([("b", Value::int(2)), ("payload", Value::str("y"))]),
            ]),
        );
        let plan = PlanBuilder::table("r")
            .join(
                PlanBuilder::table("s"),
                JoinKind::Inner,
                Expr::cmp(Expr::attr("a"), CmpOp::Eq, Expr::attr("b")),
            )
            .build()
            .unwrap();
        // Why-not: a = 7 joined with anything.
        let consistency = BTreeMap::from([(plan.root.id, Nip::tuple([("a", Nip::val(7i64))]))]);
        let sas = vec![SchemaAlternative::original(consistency)];
        let result = trace_plan(&plan, &db, &sas).unwrap();
        let join = result.root_trace();
        // 1 matched pair + 1 unmatched left + 1 unmatched right.
        assert_eq!(join.len(), 3);
        let padded = position(join, |t| {
            t.variant(0).map(|v| v.get("a") == Some(&Value::int(7))).unwrap_or(false)
        });
        assert!(join.tuples[padded].flags(0).valid);
        assert!(result.consistent(plan.root.id, padded, 0));
        assert!(
            !join.tuples[padded].flags(0).retained,
            "inner join does not retain the padded tuple"
        );
        let contributing = result.contributing_ids(0);
        assert!(result.has_reparameterization_witness(plan.root.id, 0, &contributing));
    }

    #[test]
    fn group_aggregation_tracing_checks_relaxed_and_retained_values() {
        let db = person_db();
        // count addresses per person after a selection that keeps only year ≥ 2019.
        let plan = PlanBuilder::table("person")
            .inner_flatten("address1", None)
            .select(Expr::attr_cmp("year", CmpOp::Ge, 2019i64))
            .group_aggregate(
                vec!["name"],
                vec![nrab_algebra::AggSpec::new(
                    nrab_algebra::AggFunc::Count,
                    Expr::attr("city"),
                    "cnt",
                )],
            )
            .build()
            .unwrap();
        // Why not: Peter with cnt ≥ 2? (Original result: Peter has exactly 1.)
        let consistency = BTreeMap::from([(
            plan.root.id,
            Nip::tuple([("name", Nip::val("Peter")), ("cnt", Nip::pred(NipCmp::Ge, 2i64))]),
        )]);
        let sas = vec![SchemaAlternative::original(consistency)];
        let result = trace_plan(&plan, &db, &sas).unwrap();
        let root = result.root_trace();
        let peter = position(root, named("Peter"));
        // Relaxed count (3 addresses) satisfies cnt ≥ 2, so the group is consistent.
        assert!(result.consistent(plan.root.id, peter, 0));
        assert!(
            root.tuples[peter].flags(0).retained,
            "the group also exists in the original result"
        );
    }

    #[test]
    fn tracing_requires_at_least_one_alternative() {
        let db = person_db();
        let plan = running_example_plan();
        assert!(trace_plan(&plan, &db, &[]).is_err());
    }
}

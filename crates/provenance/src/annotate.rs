//! Annotated tuples, per-operator traces, and whole-plan trace results.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use nested_data::Tuple;
use nrab_algebra::OpId;

/// The question-independent annotations of one traced tuple at one operator
/// under one schema alternative (Section 5.3). The third annotation,
/// `consistent`, depends on the why-not question and lives in the
/// [`TraceResult`] overlay instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SaFlags {
    /// Does the tuple exist under this schema alternative?
    pub valid: bool,
    /// Would the operator keep/produce this tuple under its *original*
    /// parameters (modulo the attribute changes of the alternative)?
    pub retained: bool,
}

impl SaFlags {
    /// Flags for a tuple that does not exist under the alternative (padding).
    pub fn absent() -> Self {
        SaFlags { valid: false, retained: false }
    }
}

/// One tuple of an operator's traced (generalized) output.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedTuple {
    /// Fresh identifier, unique across the whole trace.
    pub id: u64,
    /// The tuple's data under each schema alternative (`None` = the tuple does
    /// not exist under that alternative and is only present as padding).
    pub variants: Vec<Option<Tuple>>,
    /// The annotations under each schema alternative.
    pub flags: Vec<SaFlags>,
    /// Identifiers of the traced input tuples this tuple was derived from,
    /// per schema alternative (lineage can differ between alternatives, e.g.
    /// the members of a nested group).
    pub inputs: Vec<Vec<u64>>,
    /// Alternative data variants used by consistency (re-)annotation, per
    /// schema alternative. Only grouped aggregations populate this: the
    /// aggregate computed from the *retained* members only, which the
    /// consistency check consults as a fallback (Section 5.5). Empty for all
    /// other operators.
    pub fallback_variants: Vec<Option<Tuple>>,
}

impl TracedTuple {
    /// Creates a traced tuple without fallback variants (every operator except
    /// grouped aggregation).
    pub fn new(
        id: u64,
        variants: Vec<Option<Tuple>>,
        flags: Vec<SaFlags>,
        inputs: Vec<Vec<u64>>,
    ) -> Self {
        TracedTuple { id, variants, flags, inputs, fallback_variants: Vec::new() }
    }

    /// Creates a traced tuple with per-SA fallback variants (grouped
    /// aggregation).
    pub fn with_fallbacks(
        id: u64,
        variants: Vec<Option<Tuple>>,
        flags: Vec<SaFlags>,
        inputs: Vec<Vec<u64>>,
        fallback_variants: Vec<Option<Tuple>>,
    ) -> Self {
        TracedTuple { id, variants, flags, inputs, fallback_variants }
    }

    /// The fallback data variant under alternative `sa`, if any.
    pub fn fallback_variant(&self, sa: usize) -> Option<&Tuple> {
        self.fallback_variants.get(sa).and_then(Option::as_ref)
    }
    /// The tuple's data under alternative `sa`, if it exists there.
    pub fn variant(&self, sa: usize) -> Option<&Tuple> {
        self.variants.get(sa).and_then(Option::as_ref)
    }

    /// The flags under alternative `sa` (absent flags if out of range).
    pub fn flags(&self, sa: usize) -> SaFlags {
        self.flags.get(sa).copied().unwrap_or_else(SaFlags::absent)
    }

    /// The lineage (input tuple ids) under alternative `sa`.
    pub fn input_ids(&self, sa: usize) -> &[u64] {
        self.inputs.get(sa).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The union of the lineage over all alternatives.
    pub fn all_input_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.inputs.iter().flatten().copied().collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// The traced (generalized) output of one operator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpTrace {
    /// The operator id.
    pub op: OpId,
    /// The operator's kind symbol (for reports).
    pub kind: String,
    /// The traced tuples.
    pub tuples: Vec<TracedTuple>,
}

impl OpTrace {
    /// Number of traced tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// The traced output of every operator of a plan, without the
/// question-specific `consistent` annotation.
///
/// Produced by [`crate::trace_plan_generalized`]: it depends only on the plan,
/// the database, and the attribute *substitutions* of the schema alternatives
/// — never on the why-not question's pushed-down NIPs. It is therefore safe to
/// cache and share across why-not questions that target the same plan and
/// database; [`crate::annotate_consistency`] specializes a shared generalized
/// trace to one question as a [`TraceResult`], which reads the trace but never
/// writes it.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneralizedTrace {
    pub(crate) traces: BTreeMap<OpId, OpTrace>,
    pub(crate) root: OpId,
    pub(crate) pre_order: Vec<OpId>,
    pub(crate) num_sas: usize,
}

impl GeneralizedTrace {
    /// Number of schema alternatives traced.
    pub fn num_sas(&self) -> usize {
        self.num_sas
    }

    /// Total number of traced tuples across all operators (a size measure for
    /// cache accounting).
    pub fn tuple_count(&self) -> usize {
        self.traces.values().map(|t| t.tuples.len()).sum()
    }

    /// Operator ids in pre-order (root first) — the order in which
    /// `approximateMSRs` walks the plan.
    pub fn pre_order(&self) -> &[OpId] {
        &self.pre_order
    }

    /// The trace of one operator.
    pub fn trace(&self, op: OpId) -> Option<&OpTrace> {
        self.traces.get(&op)
    }

    /// The trace of the root operator (the generalized query output).
    pub fn root_trace(&self) -> &OpTrace {
        &self.traces[&self.root]
    }
}

/// A fixed-size bit set: the `consistent` bits of one operator's trace, one
/// per tuple × schema alternative (tuple-major).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Bits(Vec<u64>);

impl Bits {
    pub(crate) fn new(len: usize) -> Self {
        Bits(vec![0; len.div_ceil(64)])
    }

    pub(crate) fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn get(&self, i: usize) -> bool {
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    pub(crate) fn count_ones(&self) -> usize {
        self.0.iter().map(|word| word.count_ones() as usize).sum()
    }
}

/// A generalized trace specialized to one why-not question: the shared,
/// immutable [`GeneralizedTrace`] plus the question's `consistent`
/// annotation as a bit overlay.
///
/// A tuple is *consistent* under a schema alternative if it is valid there
/// and (re-validated against the alternative's pushed-down NIP for its
/// operator) can still contribute to the missing answer. Bits are stored
/// only for operators the question constrains (some alternative has a
/// consistency NIP there); at every other operator a valid tuple is
/// consistent, so those operators read `valid`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceResult {
    base: Arc<GeneralizedTrace>,
    consistent: BTreeMap<OpId, Bits>,
}

impl TraceResult {
    pub(crate) fn new(base: Arc<GeneralizedTrace>, consistent: BTreeMap<OpId, Bits>) -> Self {
        TraceResult { base, consistent }
    }

    /// The trace of one operator.
    pub fn trace(&self, op: OpId) -> Option<&OpTrace> {
        self.base.trace(op)
    }

    /// The trace of the root operator (the generalized query output).
    pub fn root_trace(&self) -> &OpTrace {
        self.base.root_trace()
    }

    /// Whether tuple `index` of `op`'s trace is valid and consistent under
    /// alternative `sa`.
    pub fn consistent(&self, op: OpId, index: usize, sa: usize) -> bool {
        let Some(tuple) = self.trace(op).and_then(|t| t.tuples.get(index)) else { return false };
        self.is_consistent(self.consistent.get(&op), index, tuple, sa)
    }

    fn is_consistent(
        &self,
        bits: Option<&Bits>,
        index: usize,
        tuple: &TracedTuple,
        sa: usize,
    ) -> bool {
        match bits {
            Some(bits) => sa < self.base.num_sas && bits.get(index * self.base.num_sas + sa),
            None => tuple.flags(sa).valid,
        }
    }

    /// The tuples of `op`'s trace that are valid and consistent under `sa`.
    fn consistent_tuples(&self, op: OpId, sa: usize) -> impl Iterator<Item = &TracedTuple> {
        let bits = self.consistent.get(&op);
        let tuples = self.trace(op).map(|t| t.tuples.as_slice()).unwrap_or(&[]);
        tuples
            .iter()
            .enumerate()
            .filter(move |(index, tuple)| self.is_consistent(bits, *index, tuple, sa))
            .map(|(_, tuple)| tuple)
    }

    /// Whether the query result under alternative `sa` contains a tuple that
    /// is valid and consistent — i.e. whether *some* reparameterization
    /// captured by the tracing can produce the missing answer under `sa`.
    pub fn has_consistent_output(&self, sa: usize) -> bool {
        self.consistent_tuples(self.base.root, sa).next().is_some()
    }

    /// The identifiers of all traced tuples (at any operator) that lie in the
    /// lineage of a valid and consistent *output* tuple under alternative
    /// `sa`. This is the "in the lineage of a consistent output tuple" test of
    /// Algorithm 4, line 8.
    pub fn contributing_ids(&self, sa: usize) -> BTreeSet<u64> {
        let mut contributing = BTreeSet::new();
        for (position, op_id) in self.base.pre_order.iter().enumerate() {
            let Some(trace) = self.trace(*op_id) else { continue };
            let bits = self.consistent.get(op_id);
            for (index, tuple) in trace.tuples.iter().enumerate() {
                let selected = if position == 0 {
                    self.is_consistent(bits, index, tuple, sa)
                } else {
                    contributing.contains(&tuple.id)
                };
                if selected {
                    contributing.insert(tuple.id);
                    contributing.extend(tuple.input_ids(sa).iter().copied());
                }
            }
        }
        contributing
    }

    /// Whether any tuple of `op`'s trace witnesses the need to reparameterize
    /// `op` under alternative `sa` (Algorithm 4, line 8): it is valid and
    /// consistent, the original operator loses it, and it contributes to a
    /// consistent output tuple (`contributing` is the id set computed by
    /// [`TraceResult::contributing_ids`]).
    pub fn has_reparameterization_witness(
        &self,
        op: OpId,
        sa: usize,
        contributing: &BTreeSet<u64>,
    ) -> bool {
        self.consistent_tuples(op, sa)
            .any(|t| !t.flags(sa).retained && contributing.contains(&t.id))
    }

    /// Whether any tuple of `op`'s trace has all annotations set under
    /// alternative `sa` (the "all annotations being set to 1" test of
    /// Algorithm 4, lines 13 and 18), optionally restricted to tuples
    /// contributing to a consistent output.
    pub fn has_all_ones_witness(
        &self,
        op: OpId,
        sa: usize,
        contributing: Option<&BTreeSet<u64>>,
    ) -> bool {
        self.consistent_tuples(op, sa).any(|t| {
            t.flags(sa).retained && contributing.map(|c| c.contains(&t.id)).unwrap_or(true)
        })
    }
}

impl fmt::Display for SaFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v={} r={}", self.valid as u8, self.retained as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nested_data::Value;

    fn tuple(id: u64, valid: bool, retained: bool, input_ids: Vec<u64>) -> TracedTuple {
        let variant = valid.then(|| Tuple::new([("x", Value::int(id as i64))]));
        TracedTuple::new(id, vec![variant], vec![SaFlags { valid, retained }], vec![input_ids])
    }

    /// One SA; `consistent[op]` lists the consistent tuple indexes of `op`.
    fn overlay(base: &Arc<GeneralizedTrace>, consistent: &[(OpId, &[usize])]) -> TraceResult {
        let bits = consistent
            .iter()
            .map(|(op, indexes)| {
                let mut bits = Bits::new(base.traces[op].tuples.len());
                indexes.iter().for_each(|i| bits.set(*i));
                (*op, bits)
            })
            .collect();
        TraceResult::new(Arc::clone(base), bits)
    }

    #[test]
    fn flag_predicates() {
        assert_eq!(SaFlags::absent().to_string(), "v=0 r=0");
        assert_eq!(SaFlags { valid: true, retained: false }.to_string(), "v=1 r=0");
    }

    #[test]
    fn contributing_ids_follow_lineage_from_consistent_outputs() {
        // Plan: op 2 (root) <- op 1 <- op 0, one SA.
        let op = |op: OpId, kind: &str, tuples| OpTrace { op, kind: kind.into(), tuples };
        let traces = BTreeMap::from([
            (0, op(0, "table", vec![tuple(1, true, true, vec![]), tuple(2, true, true, vec![])])),
            (1, op(1, "σ", vec![tuple(3, true, false, vec![1]), tuple(4, true, true, vec![2])])),
            (2, op(2, "Nᴿ", vec![tuple(5, true, true, vec![3]), tuple(6, true, true, vec![4])])),
        ]);
        let base =
            Arc::new(GeneralizedTrace { traces, root: 2, pre_order: vec![2, 1, 0], num_sas: 1 });
        let result = overlay(&base, &[(0, &[0]), (1, &[0]), (2, &[0])]);

        assert!(result.has_consistent_output(0));
        let contributing = result.contributing_ids(0);
        assert_eq!(contributing, BTreeSet::from([5, 3, 1]));

        // The selection (op 1) has a reparameterization witness (tuple 3).
        assert!(result.has_reparameterization_witness(1, 0, &contributing));
        // The root does not (its consistent tuple is retained).
        assert!(!result.has_reparameterization_witness(2, 0, &contributing));
        // All-ones witness exists at the root and at op 0.
        assert!(result.has_all_ones_witness(2, 0, Some(&contributing)));
        assert!(result.has_all_ones_witness(0, 0, Some(&contributing)));

        assert!(result.consistent(2, 0, 0));
        assert!(!result.consistent(2, 1, 0));

        // Operators without an overlay read `valid`: every valid tuple is
        // consistent there.
        let unconstrained = overlay(&base, &[]);
        assert!(unconstrained.consistent(2, 1, 0));
        assert!(unconstrained.consistent(1, 1, 0));
        assert!(!result.consistent(1, 1, 0));
        assert!(!result.consistent(1, 9, 0), "out-of-range tuples are not consistent");
    }

    #[test]
    fn variant_and_flag_accessors_handle_out_of_range() {
        let t = tuple(7, true, true, vec![3]);
        assert!(t.variant(0).is_some());
        assert!(t.variant(5).is_none());
        assert_eq!(t.flags(5), SaFlags::absent());
        assert_eq!(t.input_ids(0), &[3]);
        assert!(t.input_ids(9).is_empty());
        assert_eq!(t.all_input_ids(), vec![3]);
        let trace = OpTrace { op: 0, kind: "σ".into(), tuples: vec![t] };
        assert_eq!(trace.len(), 1);
        assert!(!trace.is_empty());
    }
}

//! Bag-semantics evaluation of NRAB plans (the `⟦Q⟧_D` column of Table 1).
//!
//! Evaluation is built on the shared-immutable value layer: operators return
//! `Arc<Bag>` so table accesses share base relations instead of copying them,
//! result bags are assembled through [`BagBuilder`] (hash-deduplicated, sorted
//! once) instead of per-insert binary searches, and operator parameters are
//! interned to [`Sym`]s once per operator application so per-tuple field
//! lookups are integer compares.

use std::ops::Range;
use std::sync::Arc;

use nested_data::{Bag, BagBuilder, ColumnarBag, Sym, Tuple, TupleType, Value};
use whynot_exec::par_map;

use crate::database::Database;
use crate::error::{AlgebraError, AlgebraResult};
use crate::expr::Expr;
use crate::join::{join_matches, JoinSide};
use crate::operator::{FlattenKind, JoinKind, Operator, ProjColumn};
use crate::plan::{OpNode, QueryPlan};
use crate::schema::output_type;
use crate::tuple_op::{row_tuple, FlattenOp, GroupAggOp, NestOp, TupleOp};

/// Evaluates a plan over a database, returning the result relation.
///
/// The result is shared: for a bare table access it is literally the base
/// relation's `Arc`, with no copy.
pub fn evaluate(plan: &QueryPlan, db: &Database) -> AlgebraResult<Arc<Bag>> {
    let _span = whynot_obs::span("eval");
    // Chunked hot loops below raise guard trips as panics ([`whynot_guard::
    // enforce`]); recover them into the ordinary error channel here.
    whynot_guard::catch_trip(|| evaluate_node(&plan.root, db))
        .unwrap_or_else(|trip| Err(AlgebraError::Resource(trip)))
}

/// Evaluates a single plan node over a database, one operator at a time:
/// every input is evaluated to a full bag before the node's operator runs.
pub fn evaluate_node(node: &OpNode, db: &Database) -> AlgebraResult<Arc<Bag>> {
    let inputs: Vec<Arc<Bag>> =
        node.inputs.iter().map(|i| evaluate_node(i, db)).collect::<AlgebraResult<_>>()?;
    apply_operator(node, &inputs, db)
}

/// Applies a node's operator to already-evaluated inputs.
fn apply_operator(node: &OpNode, inputs: &[Arc<Bag>], db: &Database) -> AlgebraResult<Arc<Bag>> {
    if whynot_guard::armed() {
        // Deadline/cancellation check once per operator application, and the
        // operator's total input rows drawn from the eval-row budget —
        // deterministic in the plan and data, not the thread count.
        whynot_guard::checkpoint()?;
        whynot_guard::consume_eval_rows(inputs.iter().map(|b| b.distinct() as u64).sum())?;
    }
    if !whynot_obs::enabled() {
        return apply_operator_impl(node, inputs, db);
    }
    // One span per operator application; children were already evaluated, so
    // sibling operator spans partition the plan's wall time.
    let _span = whynot_obs::span_dyn(|| format!("op:{}#{}", node.op.kind_name(), node.id));
    whynot_obs::add("rows_in", inputs.iter().map(|b| b.distinct() as u64).sum());
    let result = apply_operator_impl(node, inputs, db);
    if let Ok(bag) = &result {
        whynot_obs::add("rows_out", bag.distinct() as u64);
    }
    result
}

fn apply_operator_impl(
    node: &OpNode,
    inputs: &[Arc<Bag>],
    db: &Database,
) -> AlgebraResult<Arc<Bag>> {
    let input = |i: usize| -> AlgebraResult<&Bag> {
        inputs.get(i).map(Arc::as_ref).ok_or_else(|| AlgebraError::WrongArity {
            operator: node.op.kind_name().to_string(),
            expected: node.op.arity(),
            found: inputs.len(),
        })
    };
    match &node.op {
        Operator::TableAccess { table } => Ok(Arc::clone(db.relation_shared(table)?)),
        Operator::Projection { columns } => match input(0)?.columnar() {
            Some(cols) => {
                whynot_obs::add("path.columnar", 1);
                Ok(Arc::new(eval_projection_columnar(&cols, columns)))
            }
            None => {
                whynot_obs::add("path.rows", 1);
                eval_tuple_op(node, input(0)?, db).map(Arc::new)
            }
        },
        Operator::Rename { .. }
        | Operator::TupleFlatten { .. }
        | Operator::TupleNest { .. }
        | Operator::NestAggregation { .. }
        | Operator::Dedup => eval_tuple_op(node, input(0)?, db).map(Arc::new),
        Operator::Selection { predicate } => Ok(Arc::new(eval_selection(input(0)?, predicate))),
        Operator::Join { kind, predicate } => {
            let left_schema = output_type(&node.inputs[0], db)?;
            let right_schema = output_type(&node.inputs[1], db)?;
            Ok(Arc::new(eval_join(
                input(0)?,
                input(1)?,
                *kind,
                predicate,
                &left_schema,
                &right_schema,
            )))
        }
        Operator::CrossProduct => Ok(Arc::new(eval_join(
            input(0)?,
            input(1)?,
            JoinKind::Inner,
            &Expr::lit(true),
            &TupleType::empty(),
            &TupleType::empty(),
        ))),
        Operator::Flatten { .. } => {
            let kernel = FlattenOp::compile(&node.op, &output_type(&node.inputs[0], db)?);
            eval_flatten(input(0)?, &kernel).map(Arc::new)
        }
        Operator::RelationNest { .. } => {
            Ok(Arc::new(eval_relation_nest(input(0)?, &NestOp::compile(&node.op))))
        }
        Operator::GroupAggregation { .. } => {
            Ok(Arc::new(eval_group_aggregation(input(0)?, &GroupAggOp::compile(&node.op))))
        }
        Operator::Union => Ok(Arc::new(input(0)?.union(input(1)?))),
        Operator::Difference => Ok(Arc::new(input(0)?.difference(input(1)?))),
    }
}

/// Rows per parallel chunk of a columnar scan. Chunks fan out over
/// [`whynot_exec::par_map`] and are reassembled in input order, so the scan
/// result is independent of the thread count.
const COLUMNAR_CHUNK_ROWS: usize = 1024;

/// Splits `rows` into contiguous `COLUMNAR_CHUNK_ROWS`-sized ranges.
pub fn columnar_chunks(rows: usize) -> Vec<Range<usize>> {
    (0..rows)
        .step_by(COLUMNAR_CHUNK_ROWS)
        .map(|start| start..(start + COLUMNAR_CHUNK_ROWS).min(rows))
        .collect()
}

/// Evaluates a predicate over every row of a columnar bag, column-at-a-time
/// in parallel chunks. `mask[r]` is the predicate value of row `r`, identical
/// to evaluating the predicate on the row's tuple.
pub fn columnar_mask(cols: &ColumnarBag, predicate: &Expr) -> Vec<bool> {
    let chunks = columnar_chunks(cols.rows());
    par_map(&chunks, |range| {
        whynot_guard::enforce();
        predicate.eval_columnar_mask(cols, range.clone())
    })
    .into_iter()
    .flatten()
    .collect()
}

/// A 1:1 operator over a bag: its [`TupleOp`] kernel applied to every entry.
fn eval_tuple_op(node: &OpNode, input: &Bag, db: &Database) -> AlgebraResult<Bag> {
    let kernel = TupleOp::compile(&node.op, &node.inputs[0], db)?;
    let mut out = BagBuilder::with_capacity(input.distinct());
    for (value, mult) in input.iter() {
        let (value, mult) = kernel.apply_entry(value, *mult)?;
        out.add(value, mult);
    }
    Ok(out.finish())
}

/// Columnar projection: evaluates each output column over per-chunk column
/// slices, then reassembles rows in input order. The output tuples (and
/// therefore the canonical result bag) are identical to the row-oriented
/// path's, because both build `⟨name: expr(row)⟩` from the same expression
/// semantics.
fn eval_projection_columnar(cols: &ColumnarBag, columns: &[ProjColumn]) -> Bag {
    let names: Vec<Sym> = columns.iter().map(|c| Sym::intern(&c.name)).collect();
    let chunks = columnar_chunks(cols.rows());
    let mults = cols.mults();
    let per_chunk: Vec<Vec<(Value, u64)>> = par_map(&chunks, |range| {
        whynot_guard::enforce();
        let evaluated: Vec<Vec<Value>> =
            columns.iter().map(|c| c.expr.eval_columnar(cols, range.clone())).collect();
        (0..range.len())
            .map(|i| {
                let projected = Tuple::new(
                    names.iter().zip(evaluated.iter()).map(|(name, col)| (*name, col[i].clone())),
                );
                (Value::from_tuple(projected), mults[range.start + i])
            })
            .collect()
    });
    let mut out = BagBuilder::with_capacity(cols.rows());
    for chunk in per_chunk {
        out.extend(chunk);
    }
    out.finish()
}

fn eval_selection(input: &Bag, predicate: &Expr) -> Bag {
    if let Some(cols) = input.columnar() {
        whynot_obs::add("path.columnar", 1);
        // Column-at-a-time predicate evaluation; the surviving entries are
        // gathered from the canonical input in order, so the result is the
        // same bag `filter` builds.
        let mask = columnar_mask(&cols, predicate);
        let entries: Vec<(Value, u64)> = input
            .iter()
            .zip(mask)
            .filter(|(_, keep)| *keep)
            .map(|(entry, _)| entry.clone())
            .collect();
        return Bag::from_canonical_entries(entries);
    }
    whynot_obs::add("path.rows", 1);
    input.filter(|v| v.as_tuple().map(|t| predicate.eval_bool(t)).unwrap_or(false))
}

fn eval_join(
    left: &Bag,
    right: &Bag,
    kind: JoinKind,
    predicate: &Expr,
    left_schema: &TupleType,
    right_schema: &TupleType,
) -> Bag {
    // Materialize each side's row tuples once (non-tuple entries join as the
    // empty tuple, as the nested loop always did), attach the bags' columnar
    // forms for key extraction, and let the shared join core find the pairs.
    let left_tuples: Vec<Tuple> =
        left.iter().map(|(v, _)| v.as_tuple().cloned().unwrap_or_else(Tuple::empty)).collect();
    let right_tuples: Vec<Tuple> =
        right.iter().map(|(v, _)| v.as_tuple().cloned().unwrap_or_else(Tuple::empty)).collect();
    let left_cols = left.columnar();
    let right_cols = right.columnar();
    let left_side =
        JoinSide::new(left_tuples.iter().map(Some).collect()).with_columns(left_cols.as_deref());
    let right_side =
        JoinSide::new(right_tuples.iter().map(Some).collect()).with_columns(right_cols.as_deref());
    let matches = join_matches(&left_side, &right_side, predicate, left_schema, right_schema);

    let left_mults: Vec<u64> = left.iter().map(|(_, m)| *m).collect();
    let right_mults: Vec<u64> = right.iter().map(|(_, m)| *m).collect();
    let mut out = BagBuilder::new();
    for pair in matches.pairs {
        out.add(Value::from_tuple(pair.combined), left_mults[pair.left] * right_mults[pair.right]);
    }

    if matches!(kind, JoinKind::Left | JoinKind::Full) {
        let right_names: Vec<Sym> = right_schema.attribute_syms().collect();
        for (li, lt) in left_tuples.iter().enumerate() {
            if !matches.left_matched[li] {
                let padded =
                    lt.concat(&Tuple::null_padded(&right_names)).unwrap_or_else(|_| lt.clone());
                out.add(Value::from_tuple(padded), left_mults[li]);
            }
        }
    }
    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        let left_names: Vec<Sym> = left_schema.attribute_syms().collect();
        for (ri, rt) in right_tuples.iter().enumerate() {
            if !matches.right_matched[ri] {
                let padded =
                    Tuple::null_padded(&left_names).concat(rt).unwrap_or_else(|_| rt.clone());
                out.add(Value::from_tuple(padded), right_mults[ri]);
            }
        }
    }
    out.finish()
}

fn eval_flatten(input: &Bag, kernel: &FlattenOp) -> AlgebraResult<Bag> {
    let mut out = BagBuilder::with_capacity(input.distinct());
    for (value, mult) in input.iter() {
        let tuple = row_tuple(value);
        let rows = kernel.elements(tuple)?;
        if rows.is_empty() && kernel.kind() == FlattenKind::Outer {
            out.add(Value::from_tuple(kernel.padding(tuple)?), *mult);
        }
        for (row, element_mult) in rows {
            out.add(Value::from_tuple(row), mult * element_mult);
        }
    }
    Ok(out.finish())
}

fn eval_relation_nest(input: &Bag, kernel: &NestOp) -> Bag {
    let groups = input.group_by(|v| Value::from_tuple(kernel.key(row_tuple(v))));
    let mut out = BagBuilder::with_capacity(groups.len());
    for (key, group) in groups {
        let mut nested = BagBuilder::with_capacity(group.distinct());
        for (value, mult) in group.iter() {
            if let Some(member) = kernel.member(row_tuple(value)) {
                nested.add(Value::from_tuple(member), *mult);
            }
        }
        out.add(Value::from_tuple(kernel.output(row_tuple(&key), nested.finish())), 1);
    }
    out.finish()
}

fn eval_group_aggregation(input: &Bag, kernel: &GroupAggOp) -> Bag {
    let groups = input.group_by(|v| Value::from_tuple(kernel.key(row_tuple(v))));
    let mut out = BagBuilder::with_capacity(groups.len());
    for (key, group) in groups {
        let members: Vec<&Tuple> = group.iter_expanded().map(row_tuple).collect();
        out.add(Value::from_tuple(kernel.aggregate(row_tuple(&key), &members)), 1);
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::builder::PlanBuilder;
    use crate::expr::CmpOp;
    use crate::operator::AggSpec;
    use nested_data::{NestedType, Nip};

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

    fn running_example() -> QueryPlan {
        PlanBuilder::table("person")
            .inner_flatten("address2", None)
            .select(Expr::attr_cmp("year", CmpOp::Ge, 2019i64))
            .project_attrs(&["name", "city"])
            .relation_nest(vec!["name"], "nList")
            .build()
            .unwrap()
    }

    #[test]
    fn running_example_produces_figure_1b() {
        let db = person_db();
        let result = evaluate(&running_example(), &db).unwrap();
        // Single tuple ⟨city: LA, nList: {{⟨name: Sue⟩}}⟩.
        assert_eq!(result.total(), 1);
        let expected = Value::tuple([
            ("city", Value::str("LA")),
            ("nList", Value::bag([Value::tuple([("name", Value::str("Sue"))])])),
        ]);
        assert_eq!(result.mult(&expected), 1);
        // And NY is indeed missing (the why-not question of Example 1).
        let nip =
            Nip::tuple([("city", Nip::val("NY")), ("nList", Nip::bag([Nip::Any, Nip::Star]))]);
        assert!(!result.iter().any(|(v, _)| nip.matches(v)));
    }

    #[test]
    fn flatten_inner_multiplies_tuples() {
        let db = person_db();
        let plan = PlanBuilder::table("person").inner_flatten("address2", None).build().unwrap();
        let result = evaluate(&plan, &db).unwrap();
        assert_eq!(result.total(), 4); // 2 addresses for each of the 2 persons
    }

    #[test]
    fn outer_flatten_pads_empty_collections() {
        let mut db = person_db();
        let schema = db.schema("person").unwrap().clone();
        let empty_person = Value::tuple([
            ("name", Value::str("Ann")),
            ("address1", Value::empty_bag()),
            ("address2", Value::empty_bag()),
        ]);
        let mut bag = db.relation("person").unwrap().clone();
        bag.insert(empty_person, 1);
        db.add_relation("person", schema, bag);

        let inner = PlanBuilder::table("person").inner_flatten("address2", None).build().unwrap();
        let outer = PlanBuilder::table("person").outer_flatten("address2", None).build().unwrap();
        assert_eq!(evaluate(&inner, &db).unwrap().total(), 4);
        let outer_result = evaluate(&outer, &db).unwrap();
        assert_eq!(outer_result.total(), 5);
        // Ann appears with null city.
        assert!(outer_result.iter().any(|(v, _)| {
            let t = v.as_tuple().unwrap();
            t.get("name") == Some(&Value::str("Ann")) && t.get("city") == Some(&Value::Null)
        }));
    }

    #[test]
    fn joins_inner_and_outer() {
        let mut db = Database::new();
        let r_ty = TupleType::new([("a", NestedType::int())]).unwrap();
        let s_ty = TupleType::new([("b", NestedType::int())]).unwrap();
        db.add_relation(
            "r",
            r_ty,
            Bag::from_values([
                Value::tuple([("a", Value::int(1))]),
                Value::tuple([("a", Value::int(2))]),
            ]),
        );
        db.add_relation(
            "s",
            s_ty,
            Bag::from_values([
                Value::tuple([("b", Value::int(2))]),
                Value::tuple([("b", Value::int(3))]),
            ]),
        );
        let pred = Expr::cmp(Expr::attr("a"), CmpOp::Eq, Expr::attr("b"));

        let inner = PlanBuilder::table("r")
            .join(PlanBuilder::table("s"), JoinKind::Inner, pred.clone())
            .build()
            .unwrap();
        assert_eq!(evaluate(&inner, &db).unwrap().total(), 1);

        let left = PlanBuilder::table("r")
            .join(PlanBuilder::table("s"), JoinKind::Left, pred.clone())
            .build()
            .unwrap();
        let left_result = evaluate(&left, &db).unwrap();
        assert_eq!(left_result.total(), 2);
        assert!(left_result
            .iter()
            .any(|(v, _)| v.as_tuple().unwrap().get("b") == Some(&Value::Null)));

        let full = PlanBuilder::table("r")
            .join(PlanBuilder::table("s"), JoinKind::Full, pred)
            .build()
            .unwrap();
        assert_eq!(evaluate(&full, &db).unwrap().total(), 3);
    }

    #[test]
    fn join_multiplicities_multiply() {
        let mut db = Database::new();
        let r_ty = TupleType::new([("a", NestedType::int())]).unwrap();
        let s_ty = TupleType::new([("b", NestedType::int())]).unwrap();
        db.add_relation("r", r_ty, Bag::from_entries([(Value::tuple([("a", Value::int(1))]), 2)]));
        db.add_relation("s", s_ty, Bag::from_entries([(Value::tuple([("b", Value::int(1))]), 3)]));
        let plan = PlanBuilder::table("r")
            .join(
                PlanBuilder::table("s"),
                JoinKind::Inner,
                Expr::cmp(Expr::attr("a"), CmpOp::Eq, Expr::attr("b")),
            )
            .build()
            .unwrap();
        let result = evaluate(&plan, &db).unwrap();
        assert_eq!(result.total(), 6);
    }

    #[test]
    fn projection_merges_duplicates() {
        let db = person_db();
        let plan = PlanBuilder::table("person")
            .inner_flatten("address1", None)
            .project_attrs(&["name"])
            .build()
            .unwrap();
        let result = evaluate(&plan, &db).unwrap();
        // Peter has 3 address1 entries, Sue 2.
        assert_eq!(result.mult(&Value::tuple([("name", Value::str("Peter"))])), 3);
        assert_eq!(result.mult(&Value::tuple([("name", Value::str("Sue"))])), 2);
    }

    #[test]
    fn tuple_nest_and_tuple_flatten_roundtrip() {
        let db = person_db();
        let plan = PlanBuilder::table("person")
            .inner_flatten("address2", None)
            .tuple_nest(vec!["city", "year"], "addr")
            .tuple_flatten("addr.city", Some("city_again"))
            .build()
            .unwrap();
        let result = evaluate(&plan, &db).unwrap();
        assert!(result.iter().all(|(v, _)| v.as_tuple().unwrap().contains("city_again")));
    }

    #[test]
    fn nest_aggregation_counts_nested_elements() {
        let db = person_db();
        let plan = PlanBuilder::table("person")
            .nest_aggregate(AggFunc::Count, "address2", None, "cnt")
            .build()
            .unwrap();
        let result = evaluate(&plan, &db).unwrap();
        for (v, _) in result.iter() {
            assert_eq!(v.as_tuple().unwrap().get("cnt"), Some(&Value::int(2)));
        }
    }

    #[test]
    fn group_aggregation_sums_per_group() {
        let db = person_db();
        let plan = PlanBuilder::table("person")
            .inner_flatten("address1", None)
            .group_aggregate(
                vec!["name"],
                vec![
                    AggSpec::new(AggFunc::Count, Expr::attr("city"), "n"),
                    AggSpec::new(AggFunc::Max, Expr::attr("year"), "latest"),
                ],
            )
            .build()
            .unwrap();
        let result = evaluate(&plan, &db).unwrap();
        assert_eq!(result.total(), 2);
        let peter = result
            .iter()
            .find(|(v, _)| v.as_tuple().unwrap().get("name") == Some(&Value::str("Peter")))
            .unwrap();
        assert_eq!(peter.0.as_tuple().unwrap().get("n"), Some(&Value::int(3)));
        assert_eq!(peter.0.as_tuple().unwrap().get("latest"), Some(&Value::int(2019)));
    }

    #[test]
    fn union_difference_dedup() {
        let mut db = Database::new();
        let ty = TupleType::new([("x", NestedType::int())]).unwrap();
        let one = Value::tuple([("x", Value::int(1))]);
        let two = Value::tuple([("x", Value::int(2))]);
        db.add_relation("r", ty.clone(), Bag::from_values([one.clone(), one.clone(), two.clone()]));
        db.add_relation("s", ty, Bag::from_values([one.clone()]));

        let union = PlanBuilder::table("r").union(PlanBuilder::table("s")).build().unwrap();
        assert_eq!(evaluate(&union, &db).unwrap().mult(&one), 3);

        let diff = PlanBuilder::table("r").difference(PlanBuilder::table("s")).build().unwrap();
        assert_eq!(evaluate(&diff, &db).unwrap().mult(&one), 1);

        let dedup = PlanBuilder::table("r").dedup().build().unwrap();
        assert_eq!(evaluate(&dedup, &db).unwrap().total(), 2);
    }

    #[test]
    fn rename_changes_attribute_names() {
        let db = person_db();
        let plan = PlanBuilder::table("person")
            .rename(vec![crate::operator::RenamePair::new("name", "person_name")])
            .project_attrs(&["person_name"])
            .build()
            .unwrap();
        let result = evaluate(&plan, &db).unwrap();
        assert!(result.iter().all(|(v, _)| v.as_tuple().unwrap().contains("person_name")));
    }

    #[test]
    fn computed_projection_column() {
        let db = person_db();
        let plan = PlanBuilder::table("person")
            .project(vec![
                ProjColumn::passthrough("name"),
                ProjColumn::computed("addr_count", Expr::size(Expr::attr("address1"))),
            ])
            .build()
            .unwrap();
        let result = evaluate(&plan, &db).unwrap();
        let sue = result
            .iter()
            .find(|(v, _)| v.as_tuple().unwrap().get("name") == Some(&Value::str("Sue")))
            .unwrap();
        assert_eq!(sue.0.as_tuple().unwrap().get("addr_count"), Some(&Value::int(2)));
    }
}

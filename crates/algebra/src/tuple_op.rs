//! Per-tuple operator kernels: the one definition of what an operator of
//! Table 1 does to a single tuple.
//!
//! The evaluator ([`crate::eval`]) folds these kernels over bag entries and
//! adds the multiplicities; the provenance tracer applies the same kernels to
//! each schema alternative's variant of a traced tuple. Both sides therefore
//! agree tuple for tuple, which is what tracing by re-applying an operator's
//! semantics (Section 5.3) requires.
//!
//! A kernel is compiled once per operator application — parameters interned
//! to [`Sym`]s, the input schema resolved where the operator needs it — and
//! then applied to any number of `&Tuple`s. A kernel returns an
//! [`AlgebraResult`]: the evaluator propagates an error, and the tracer reads
//! one as "this tuple does not exist under the alternative".

use std::sync::OnceLock;

use nested_data::{AttrPath, NestedType, Sym, Tuple, TupleType, Value};

use crate::agg::AggFunc;
use crate::database::Database;
use crate::error::{AlgebraError, AlgebraResult};
use crate::expr::Expr;
use crate::operator::{FlattenKind, Operator, ProjColumn};
use crate::plan::OpNode;
use crate::schema::output_type;

/// A compiled 1:1 operator: π, ρ, Fᵀ, νᵀ, γᵀ (per-tuple aggregation) or δ.
pub struct TupleOp(Kernel);

enum Kernel {
    /// π: evaluate each output column against the input tuple; `names` are
    /// the interned column names.
    Project { names: Vec<Sym>, columns: Vec<ProjColumn> },
    /// ρ: rename attributes (`from`, `to`).
    Rename { mapping: Vec<(Sym, Sym)> },
    /// Fᵀ: splice (or alias) the tuple value at `source` into the row;
    /// `source_ty` is the input schema's type there, used to pad a ⊥.
    TupleFlatten { source: AttrPath, alias: Option<Sym>, source_ty: Option<NestedType> },
    /// νᵀ: fold `attrs` into the nested tuple `into`.
    TupleNest { attrs: Vec<Sym>, into: Sym },
    /// γᵀ: aggregate the nested collection at `attr` (or its elements'
    /// `field`) into `output`.
    NestAgg { func: AggFunc, attr: Sym, field: Option<Sym>, output: Sym },
    /// δ: the identity on a tuple (it only collapses multiplicities).
    Dedup,
}

impl TupleOp {
    /// Compiles `op`, whose input is the plan node `input`. Only Fᵀ infers
    /// the input schema; that inference is the one way compiling can fail.
    ///
    /// # Panics
    ///
    /// If `op` is not a tuple-at-a-time operator (π, ρ, Fᵀ, Nᵀ, per-tuple
    /// aggregation or δ).
    pub fn compile(op: &Operator, input: &OpNode, db: &Database) -> AlgebraResult<TupleOp> {
        Ok(TupleOp(match op {
            Operator::Projection { columns } => Kernel::Project {
                names: columns.iter().map(|c| Sym::intern(&c.name)).collect(),
                columns: columns.clone(),
            },
            Operator::Rename { pairs } => Kernel::Rename {
                mapping: pairs.iter().map(|p| (Sym::intern(&p.from), Sym::intern(&p.to))).collect(),
            },
            Operator::TupleFlatten { source, alias } => Kernel::TupleFlatten {
                source_ty: output_type(input, db)?.resolve_path(source).ok().cloned(),
                source: source.clone(),
                alias: alias.as_deref().map(Sym::intern),
            },
            Operator::TupleNest { attrs, into } => Kernel::TupleNest {
                attrs: attrs.iter().map(|a| Sym::intern(a)).collect(),
                into: Sym::intern(into),
            },
            Operator::NestAggregation { func, attr, field, output } => Kernel::NestAgg {
                func: *func,
                attr: Sym::intern(attr),
                field: field.as_deref().map(Sym::intern),
                output: Sym::intern(output),
            },
            Operator::Dedup => Kernel::Dedup,
            other => unreachable!("{} is not a tuple-at-a-time operator", other.kind_name()),
        }))
    }

    /// Applies the operator to one tuple.
    pub fn apply(&self, tuple: &Tuple) -> AlgebraResult<Tuple> {
        match &self.0 {
            Kernel::Project { names, columns } => Ok(Tuple::new(
                names.iter().zip(columns.iter()).map(|(name, c)| (*name, c.expr.eval(tuple))),
            )),
            Kernel::Rename { mapping } => Ok(tuple.rename(mapping)),
            Kernel::TupleFlatten { source, alias, source_ty } => {
                let extracted = tuple.get_path(source).unwrap_or(Value::Null);
                match (alias, extracted) {
                    (Some(alias), extracted) => Ok(tuple.with_field(*alias, extracted)),
                    (None, Value::Tuple(inner)) => Ok(tuple.concat(&inner)?),
                    (None, Value::Null) => match source_ty {
                        Some(NestedType::Tuple(t)) => {
                            let names: Vec<Sym> = t.attribute_syms().collect();
                            Ok(tuple.concat(&Tuple::null_padded(&names))?)
                        }
                        _ => Ok(tuple.clone()),
                    },
                    (None, other) => Err(AlgebraError::InvalidParameter {
                        operator: "Fᵀ".into(),
                        message: format!(
                            "tuple flatten without alias expects a tuple value at `{source}`, \
                             found {}",
                            other.kind()
                        ),
                    }),
                }
            }
            Kernel::TupleNest { attrs, into } => {
                let nested = tuple.project(attrs).unwrap_or_else(|_| Tuple::empty());
                Ok(tuple.without(attrs).with_field(*into, Value::from_tuple(nested)))
            }
            Kernel::NestAgg { func, attr, field, output } => {
                // `AggFunc::apply` counts an empty input as 0, so a count
                // over a ⊥ or empty collection is 0, not ⊥.
                let values: Vec<Value> = match tuple.get(*attr) {
                    Some(Value::Bag(b)) => b
                        .iter_expanded()
                        .map(|element| match field {
                            Some(f) => element
                                .as_tuple()
                                .and_then(|t| t.get(*f).cloned())
                                .unwrap_or(Value::Null),
                            None => element.clone(),
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                Ok(tuple.with_field(*output, func.apply(values.iter())))
            }
            Kernel::Dedup => Ok(tuple.clone()),
        }
    }

    /// Applies the operator to one bag entry: the evaluator's row rule. A
    /// non-tuple entry passes ρ and δ unchanged and enters every other
    /// operator as the empty tuple; δ gives every entry multiplicity 1.
    pub fn apply_entry(&self, value: &Value, mult: u64) -> AlgebraResult<(Value, u64)> {
        let mult = if matches!(self.0, Kernel::Dedup) { 1 } else { mult };
        if value.as_tuple().is_none() && matches!(self.0, Kernel::Rename { .. } | Kernel::Dedup) {
            return Ok((value.clone(), mult));
        }
        Ok((Value::from_tuple(self.apply(row_tuple(value))?), mult))
    }
}

/// The tuple a bag entry presents to a kernel: a non-tuple entry presents
/// the empty tuple.
pub fn row_tuple(value: &Value) -> &Tuple {
    static EMPTY: OnceLock<Tuple> = OnceLock::new();
    value.as_tuple().unwrap_or_else(|| EMPTY.get_or_init(Tuple::empty))
}

/// A compiled relation flatten (`Fᴵ` / `Fᴼ`): the per-row expansion of a
/// relation-valued attribute.
pub struct FlattenOp {
    kind: FlattenKind,
    attr: Sym,
    alias: Option<Sym>,
    /// The element type's attributes, padded with ⊥ by an outer flatten
    /// without alias.
    padding: Vec<Sym>,
    /// `{attr}_value`: where a non-tuple element goes without an alias.
    value_field: Sym,
}

impl FlattenOp {
    /// Compiles a relation flatten over an input of type `input_schema`.
    ///
    /// # Panics
    ///
    /// If `op` is not a relation flatten.
    pub fn compile(op: &Operator, input_schema: &TupleType) -> FlattenOp {
        let Operator::Flatten { kind, attr, alias } = op else {
            unreachable!("{} is not a relation flatten", op.kind_name())
        };
        let attr_sym = Sym::intern(attr);
        let padding = match input_schema.attribute(attr_sym) {
            Some(NestedType::Relation(t)) => t.attribute_syms().collect(),
            _ => Vec::new(),
        };
        FlattenOp {
            kind: *kind,
            attr: attr_sym,
            alias: alias.as_deref().map(Sym::intern),
            padding,
            value_field: Sym::intern(&format!("{attr}_value")),
        }
    }

    /// The flatten kind (`Fᴵ` drops a row with no elements, `Fᴼ` pads it).
    pub fn kind(&self) -> FlattenKind {
        self.kind
    }

    /// One output row per distinct element of the tuple's collection, with
    /// the element's multiplicity. Empty when the collection is empty or ⊥.
    /// A non-tuple element is exposed as `{attr}_value` when there is no
    /// alias, so flattening plain lists works.
    pub fn elements(&self, tuple: &Tuple) -> AlgebraResult<Vec<(Tuple, u64)>> {
        let Some(Value::Bag(bag)) = tuple.get(self.attr) else { return Ok(Vec::new()) };
        bag.iter()
            .map(|(element, mult)| {
                let row = match (self.alias, element) {
                    (Some(alias), element) => tuple.with_field(alias, element.clone()),
                    (None, Value::Tuple(inner)) => tuple.concat(inner)?,
                    (None, other) => tuple.with_field(self.value_field, other.clone()),
                };
                Ok((row, *mult))
            })
            .collect()
    }

    /// The row an outer flatten keeps for a tuple without elements: the
    /// alias set to ⊥, or the element type's attributes padded with ⊥.
    pub fn padding(&self, tuple: &Tuple) -> AlgebraResult<Tuple> {
        match self.alias {
            Some(alias) => Ok(tuple.with_field(alias, Value::Null)),
            None => Ok(tuple.concat(&Tuple::null_padded(&self.padding))?),
        }
    }
}

/// A compiled relation nest `Nᴿ_{A→C}`: splits a tuple into its group key and
/// its nested member.
pub struct NestOp {
    attrs: Vec<Sym>,
    into: Sym,
}

impl NestOp {
    /// Compiles a relation nest.
    ///
    /// # Panics
    ///
    /// If `op` is not a relation nest.
    pub fn compile(op: &Operator) -> NestOp {
        let Operator::RelationNest { attrs, into } = op else {
            unreachable!("{} is not a relation nest", op.kind_name())
        };
        NestOp { attrs: attrs.iter().map(|a| Sym::intern(a)).collect(), into: Sym::intern(into) }
    }

    /// The group key: the tuple without the nested attributes.
    pub fn key(&self, tuple: &Tuple) -> Tuple {
        tuple.without(&self.attrs)
    }

    /// The element the tuple contributes to its group's collection, or
    /// `None` when a nested attribute is missing or all of them are ⊥. The
    /// latter mirrors Spark, and scenario D2 relies on it.
    pub fn member(&self, tuple: &Tuple) -> Option<Tuple> {
        let projected = tuple.project(&self.attrs).ok()?;
        projected.fields().iter().any(|(_, v)| !v.is_null()).then_some(projected)
    }

    /// The output tuple of one group: its key with the collection attached.
    pub fn output(&self, key: &Tuple, members: nested_data::Bag) -> Tuple {
        key.with_field(self.into, Value::from_bag(members))
    }
}

/// A compiled grouped aggregation `γ_{G; f(A)→B}`: the group key of a tuple
/// and the fold of the aggregates over a group's members.
pub struct GroupAggOp {
    group_by: Vec<Sym>,
    aggs: Vec<(Sym, AggFunc, Expr)>,
}

impl GroupAggOp {
    /// Compiles a grouped aggregation.
    ///
    /// # Panics
    ///
    /// If `op` is not a grouped aggregation.
    pub fn compile(op: &Operator) -> GroupAggOp {
        let Operator::GroupAggregation { group_by, aggs } = op else {
            unreachable!("{} is not a grouped aggregation", op.kind_name())
        };
        GroupAggOp {
            group_by: group_by.iter().map(|a| Sym::intern(a)).collect(),
            aggs: aggs.iter().map(|a| (Sym::intern(&a.output), a.func, a.input.clone())).collect(),
        }
    }

    /// The grouping attributes, in key order.
    pub fn group_by(&self) -> &[Sym] {
        &self.group_by
    }

    /// The group key: the tuple projected onto the grouping attributes (the
    /// empty tuple when one is missing).
    pub fn key(&self, tuple: &Tuple) -> Tuple {
        tuple.project(&self.group_by).unwrap_or_else(|_| Tuple::empty())
    }

    /// The output tuple of one group: its key extended with every aggregate
    /// folded over `members` (each member repeated per its multiplicity).
    pub fn aggregate(&self, key: &Tuple, members: &[&Tuple]) -> Tuple {
        let mut result = key.clone();
        for (output, func, input) in &self.aggs {
            let values: Vec<Value> = members.iter().map(|t| input.eval(t)).collect();
            result = result.with_field(*output, func.apply(values.iter()));
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use nested_data::Bag;

    fn db_with(name: &str, ty: TupleType) -> Database {
        let mut db = Database::new();
        db.add_relation(name, ty, Bag::new());
        db
    }

    #[test]
    fn tuple_flatten_without_alias_pads_a_null_with_the_source_type() {
        let inner = TupleType::new([("city", NestedType::str()), ("zip", NestedType::int())])
            .expect("distinct names");
        let ty = TupleType::new([("name", NestedType::str()), ("addr", NestedType::Tuple(inner))])
            .expect("distinct names");
        let db = db_with("r", ty);
        let input = PlanBuilder::table("r").build().expect("plan builds").root;
        let op = Operator::TupleFlatten { source: AttrPath::single("addr"), alias: None };
        let kernel = TupleOp::compile(&op, &input, &db).expect("schema infers");
        let tuple = Tuple::new([("name", Value::str("Ann")), ("addr", Value::Null)]);
        let out = kernel.apply(&tuple).expect("⊥ pads");
        assert_eq!(out.get("city"), Some(&Value::Null));
        assert_eq!(out.get("zip"), Some(&Value::Null));
        assert_eq!(out.get("name"), Some(&Value::str("Ann")));
    }

    #[test]
    fn tuple_flatten_without_alias_over_a_non_tuple_is_an_error() {
        let ty = TupleType::new([("name", NestedType::str()), ("addr", NestedType::str())])
            .expect("distinct names");
        let db = db_with("r", ty);
        let input = PlanBuilder::table("r").build().expect("plan builds").root;
        let op = Operator::TupleFlatten { source: AttrPath::single("addr"), alias: None };
        let kernel = TupleOp::compile(&op, &input, &db).expect("schema infers");
        let tuple = Tuple::new([("name", Value::str("Ann")), ("addr", Value::str("NY"))]);
        let error = kernel.apply(&tuple).unwrap_err();
        assert!(matches!(error, AlgebraError::InvalidParameter { .. }), "{error}");
    }

    #[test]
    fn nest_aggregation_count_over_null_or_empty_is_zero() {
        let db = Database::new();
        let input = OpNode::new(0, Operator::Dedup, Vec::new());
        let op = Operator::NestAggregation {
            func: AggFunc::Count,
            attr: "xs".into(),
            field: None,
            output: "n".into(),
        };
        let kernel = TupleOp::compile(&op, &input, &db).expect("no schema needed");
        for xs in [Value::Null, Value::empty_bag()] {
            let out = kernel.apply(&Tuple::new([("xs", xs)])).expect("γᵀ never fails");
            assert_eq!(out.get("n"), Some(&Value::int(0)));
        }
    }

    #[test]
    fn relation_flatten_exposes_non_tuple_elements_as_attr_value() {
        let op = Operator::Flatten { kind: FlattenKind::Inner, attr: "tags".into(), alias: None };
        let kernel = FlattenOp::compile(&op, &TupleType::empty());
        let tuple = Tuple::new([
            ("id", Value::int(1)),
            ("tags", Value::bag([Value::str("a"), Value::str("a"), Value::str("b")])),
        ]);
        let rows = kernel.elements(&tuple).expect("no name clash");
        let values: Vec<(Option<&Value>, u64)> =
            rows.iter().map(|(t, m)| (t.get("tags_value"), *m)).collect();
        assert_eq!(values, [(Some(&Value::str("a")), 2), (Some(&Value::str("b")), 1)]);
    }

    #[test]
    fn relation_nest_drops_all_null_members() {
        let op = Operator::RelationNest { attrs: vec!["a".into(), "b".into()], into: "xs".into() };
        let kernel = NestOp::compile(&op);
        let all_null = Tuple::new([("k", Value::int(1)), ("a", Value::Null), ("b", Value::Null)]);
        let half_null =
            Tuple::new([("k", Value::int(1)), ("a", Value::int(2)), ("b", Value::Null)]);
        assert_eq!(kernel.member(&all_null), None);
        assert_eq!(kernel.member(&half_null), Some(half_null.without(&["k"])));
        assert_eq!(kernel.key(&all_null), kernel.key(&half_null));
    }
}

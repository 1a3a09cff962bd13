//! The traced replay: answers one request by calling each layer's public
//! function in the order `WhyNotEngine::explain_with_tracer` calls them,
//! timing each call from outside. The replay's report must equal the
//! service's byte for byte, so a stage table that no longer describes the
//! service fails the traced run instead of timing the wrong thing.

use std::borrow::Cow;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nrab_algebra::{evaluate, QueryPlan};
use nrab_provenance::{annotate_consistency, substitution_signature, trace_plan_generalized};
use whynot_core::alternatives::{enumerate_schema_alternatives, DEFAULT_MAX_ALTERNATIVES};
use whynot_core::backtrace::schema_backtrace;
use whynot_core::msr::approximate_msrs;
use whynot_core::rank::{order_and_prune, RankedCandidate};
use whynot_core::side_effects::side_effect_bounds;
use whynot_core::{Explanation, WhyNotAnswer, WhyNotQuestion};
use whynot_service::{
    Catalog, DbHandle, DbRef, ExplainRequest, ExplanationReport, Json, PlanHandle, PlanRef,
    TraceCache, TraceKey,
};

/// Per-stage times and work counts of one replayed request.
#[derive(Default)]
pub struct Stages {
    /// `Json::parse` + `ExplainRequest::from_json` (HTTP workloads only).
    pub wire_decode: Duration,
    /// `WhyNotQuestion::validate`, which evaluates ⟦Q⟧_D.
    pub validate: Duration,
    /// `nrab_algebra::evaluate` alone ([`eval_probe`]): the query's own cost,
    /// measured apart from the replay and kept out of `total`.
    pub eval: Duration,
    pub backtrace: Duration,
    pub alternatives: Duration,
    /// `TraceCache::get_or_compute` minus the trace computed inside it.
    pub cache_get: Duration,
    /// `trace_plan_generalized`, run only on a cache miss.
    pub trace: Duration,
    pub annotate: Duration,
    /// `approximate_msrs` + `side_effect_bounds` + `order_and_prune`.
    pub rank: Duration,
    /// `ExplanationReport::from_answer` + `to_json` + `to_compact`.
    pub report_encode: Duration,
    /// The whole replay, timers included.
    pub total: Duration,
    pub schema_alternatives: u64,
    /// Tuples of the trace computed by this request (0 on a cache hit).
    pub trace_tuples: u64,
    pub candidates: u64,
    pub explanations: u64,
    /// The compact report, for the fidelity check.
    pub report: String,
}

impl Stages {
    /// The sum of the stages that make up `total` (everything but `eval`).
    pub fn sum(&self) -> Duration {
        self.wire_decode
            + self.validate
            + self.backtrace
            + self.alternatives
            + self.cache_get
            + self.trace
            + self.annotate
            + self.rank
            + self.report_encode
    }
}

fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

/// Replays one request against `catalog`, with `cache` standing in for the
/// service's trace cache. `body` is the wire form to decode, for workloads
/// whose requests arrive over HTTP.
pub fn replay(
    catalog: &Catalog,
    cache: &TraceCache,
    request: &ExplainRequest,
    body: Option<&str>,
) -> Result<Stages, String> {
    let mut s = Stages::default();
    let start = Instant::now();
    let request = match body {
        Some(body) => Cow::Owned(timed(&mut s.wire_decode, || {
            let doc = Json::parse(body).map_err(|e| e.to_string())?;
            ExplainRequest::from_json(&doc).map_err(|e| e.to_string())
        })?),
        None => Cow::Borrowed(request),
    };
    let (db, plan) = resolve(catalog, &request)?;
    let question =
        WhyNotQuestion::new(Arc::clone(&plan.plan), Arc::clone(&db.db), request.why_not.clone());

    let original = timed(&mut s.validate, || question.validate()).map_err(|e| e.to_string())?;
    let original_result_size = original.total();

    let (plan_ref, db_ref, why_not) = (&*question.plan, &*question.db, &question.why_not);
    let backtrace = timed(&mut s.backtrace, || schema_backtrace(plan_ref, db_ref, why_not))
        .map_err(|e| e.to_string())?;
    let alternatives =
        if request.use_schema_alternatives { &request.alternatives[..] } else { &[] };
    let max = request.max_schema_alternatives.unwrap_or(DEFAULT_MAX_ALTERNATIVES);
    let sas = timed(&mut s.alternatives, || {
        enumerate_schema_alternatives(plan_ref, db_ref, why_not, &backtrace, alternatives, max)
    })
    .map_err(|e| e.to_string())?;
    s.schema_alternatives = sas.len() as u64;

    let key = TraceKey {
        db: format!("catalog:{}", db.name),
        db_version: db.version,
        plan_fingerprint: plan.fingerprint,
        substitutions: substitution_signature(&sas),
    };
    let mut trace_time = Duration::ZERO;
    let mut cache_time = Duration::ZERO;
    let (base, hit) = timed(&mut cache_time, || {
        cache.get_or_compute(key, || {
            timed(&mut trace_time, || trace_plan_generalized(plan_ref, db_ref, &sas))
        })
    })
    .map_err(|e| e.to_string())?;
    s.trace = trace_time;
    s.cache_get = cache_time.saturating_sub(trace_time);
    if !hit {
        s.trace_tuples = base.tuple_count() as u64;
    }

    let trace = timed(&mut s.annotate, || annotate_consistency(&base, plan_ref, &sas));

    let explanations = timed(&mut s.rank, || {
        let candidates = approximate_msrs(plan_ref, &trace, &sas);
        s.candidates = candidates.len() as u64;
        let ranked: Vec<RankedCandidate> = candidates
            .into_iter()
            .map(|candidate| {
                let bounds = side_effect_bounds(
                    plan_ref,
                    &trace,
                    candidate.sa,
                    &candidate.ops,
                    original_result_size,
                );
                RankedCandidate { candidate, bounds }
            })
            .collect();
        order_and_prune(ranked)
            .into_iter()
            .map(|ranked| explanation(plan_ref, ranked))
            .collect::<Vec<_>>()
    });
    s.explanations = explanations.len() as u64;

    let answer = WhyNotAnswer { explanations, schema_alternatives: sas, original_result_size };
    s.report = timed(&mut s.report_encode, || {
        ExplanationReport::from_answer(&answer).to_json().to_compact()
    });
    // Freeing the annotated copy of the trace and the query result is part
    // of the stage that built them.
    timed(&mut s.annotate, || drop(trace));
    timed(&mut s.validate, || drop(original));
    s.total = start.elapsed();
    Ok(s)
}

/// Times `nrab_algebra::evaluate` of the request's query: ⟦Q⟧_D, the cost
/// the paper compares explanation time with.
pub fn eval_probe(catalog: &Catalog, request: &ExplainRequest) -> Result<Duration, String> {
    let (db, plan) = resolve(catalog, request)?;
    let start = Instant::now();
    black_box(evaluate(&plan.plan, &db.db).map_err(|e| e.to_string())?);
    Ok(start.elapsed())
}

/// The catalog entries a request names (the workloads send names only).
fn resolve(catalog: &Catalog, request: &ExplainRequest) -> Result<(DbHandle, PlanHandle), String> {
    let (DbRef::Named(db), PlanRef::Named(plan)) = (&request.db, &request.plan) else {
        return Err("the replay resolves catalog names only".to_string());
    };
    let db = catalog.database(db).map_err(|e| e.to_string())?;
    Ok((db, catalog.plan(plan).map_err(|e| e.to_string())?))
}

/// The engine's (private) conversion of a ranked candidate to an explanation.
fn explanation(plan: &QueryPlan, ranked: RankedCandidate) -> Explanation {
    let mut labels = Vec::new();
    let mut kinds = Vec::new();
    for op in &ranked.candidate.ops {
        if let Ok(node) = plan.node(*op) {
            labels.push(format!("[{}] {}", node.id, node.op));
            kinds.push(node.op.kind_name().to_string());
        }
    }
    Explanation {
        operators: ranked.candidate.ops,
        operator_labels: labels,
        operator_kinds: kinds,
        schema_alternative: ranked.candidate.sa,
        side_effects: ranked.bounds,
    }
}

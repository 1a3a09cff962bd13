//! The fused ↔ operator-at-a-time tracer equivalence contract, end to end:
//! for every evaluation scenario and every thread count, generalized traces
//! and rendered wire reports must be **bit-identical** whether the tracer
//! replays runs of 1:1 operators (selections and the structural operators)
//! as one fused morsel-driven pass or traces every operator on its own. The
//! operator-at-a-time replay is the reference for the fused replay's ids,
//! lineage, flags and guard draws; this is the property that makes tracer
//! fusion a pure performance knob, exactly like `WHYNOT_THREADS`, the
//! columnar layout, and the hash join.

use nrab_provenance::{trace_plan_generalized, with_pipelining};
use whynot_core::alternatives::enumerate_schema_alternatives;
use whynot_core::backtrace::schema_backtrace;
use whynot_core::WhyNotEngine;
use whynot_exec::with_threads;
use whynot_scenarios::{crime, dblp, running, tpch, twitter, Scenario};

/// Reduced-scale scenario set covering every dataset family and operator mix
/// (mirrors the columnar and parallel-determinism suites). The DBLP plans are
/// the ones with real select→select→project chains above the join; the rest
/// pin down that plans with other operator mixes trace identically too.
fn scenarios() -> Vec<Scenario> {
    let mut scenarios = vec![running::running_example()];
    scenarios.extend(dblp::all_dblp(40));
    scenarios.extend(twitter::all_twitter(40));
    scenarios.extend(tpch::all_tpch(15));
    scenarios.extend(crime::all_crime());
    scenarios
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn generalized_traces_match_the_materialized_path() {
    for scenario in scenarios() {
        let backtrace = schema_backtrace(&scenario.plan, &scenario.db, &scenario.why_not)
            .unwrap_or_else(|e| panic!("{}: backtrace failed: {e}", scenario.name));
        let sas = enumerate_schema_alternatives(
            &scenario.plan,
            &scenario.db,
            &scenario.why_not,
            &backtrace,
            &scenario.alternatives,
            64,
        )
        .unwrap_or_else(|e| panic!("{}: alternative enumeration failed: {e}", scenario.name));
        let reference = with_pipelining(false, || {
            trace_plan_generalized(&scenario.plan, &scenario.db, &sas)
                .unwrap_or_else(|e| panic!("{}: materialized trace failed: {e}", scenario.name))
        });
        for threads in THREAD_COUNTS {
            let trace = with_threads(threads, || {
                trace_plan_generalized(&scenario.plan, &scenario.db, &sas)
                    .unwrap_or_else(|e| panic!("{}: pipelined trace failed: {e}", scenario.name))
            });
            assert!(
                trace == reference,
                "{} @ {} threads: pipelined trace differs from the materialized trace",
                scenario.name,
                threads
            );
        }
    }
}

#[test]
fn wire_reports_match_the_materialized_path() {
    for scenario in scenarios() {
        let question = scenario.question();
        let reference = with_pipelining(false, || {
            WhyNotEngine::rp()
                .explain(&question, &scenario.alternatives)
                .unwrap_or_else(|e| panic!("{}: materialized explain failed: {e}", scenario.name))
        });
        let reference_json = whynot_service::report::ExplanationReport::from_answer(&reference)
            .to_json()
            .to_compact();
        for threads in THREAD_COUNTS {
            let answer = with_threads(threads, || {
                WhyNotEngine::rp()
                    .explain(&question, &scenario.alternatives)
                    .unwrap_or_else(|e| panic!("{}: pipelined explain failed: {e}", scenario.name))
            });
            let json = whynot_service::report::ExplanationReport::from_answer(&answer)
                .to_json()
                .to_compact();
            assert_eq!(
                json, reference_json,
                "{} @ {} threads: pipelined wire report differs",
                scenario.name, threads
            );
        }
    }
}

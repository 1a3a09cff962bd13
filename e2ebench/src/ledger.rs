//! The traced run (`--trace 1`): the per-layer ledger.
//!
//! The run first repeats the workload's closed loop untraced for half its
//! time, which gives the untraced latency and the counter deltas of the
//! cache, the pool and the HTTP front end. For the other half, every client
//! alternates between asking the service (in process, and over HTTP for the
//! HTTP workload) and replaying the same request stage by stage
//! ([`crate::replay`]). Each replay must give the service's report byte for
//! byte.

use std::time::{Duration, Instant};

use whynot_service::http::http_stats;
use whynot_service::{ExplainService, Json, TraceCache};

use crate::replay::{eval_probe, replay, Stages};
use crate::workload::{
    cache_shape, closed_loop, report_of_wire, Door, Instance, Question, Schedule, Spec,
};
use crate::{ms, percentile, Metric, Run};

/// One request of the traced half.
struct Traced {
    question: usize,
    stages: Stages,
    /// The service answering in process: `ExplainService::explain` plus the
    /// report's encoding, or for HTTP workloads what the server does with a
    /// body (`Json::parse`, `handle_wire`, `to_compact`).
    in_process: Duration,
    /// `HttpClient::post_json` (HTTP workloads).
    round_trip: Option<Duration>,
    /// Reports the service gave (in process, then over HTTP).
    served: Vec<Result<String, String>>,
}

pub fn traced_run(
    spec: &Spec,
    questions: &[Question],
    instance: &Instance,
    schedules: &mut [Schedule],
    duration: Duration,
    run: &mut Run,
) -> Result<(), String> {
    let half = duration / 2;
    let service = &instance.service;

    let (cache0, pool0, http0) = (service.cache_stats(), whynot_exec::pool_stats(), http_stats());
    let (samples, _) = closed_loop(instance, questions, schedules, half)?;
    let (cache1, pool1, http1) = (service.cache_stats(), whynot_exec::pool_stats(), http_stats());
    let untraced: Vec<f64> = samples.iter().map(|s| ms(s.latency)).collect();
    let requests = samples.len();
    samples.into_iter().for_each(|sample| run.check(sample.checked));
    cache_shape(spec, &cache0, &cache1, requests)?;

    let replay_cache = match spec.cache_capacity {
        Some(capacity) => TraceCache::new(capacity),
        None => TraceCache::default(),
    };
    if spec.warm {
        for question in questions {
            let stages = replay(service.catalog(), &replay_cache, &question.request, None)?;
            run.fidelity(question, &stages, &[Ok(question.reference.clone())]);
        }
    }
    let replay0 = replay_cache.stats();
    let traced = traced_half(spec, questions, instance, &replay_cache, schedules, half)?;
    let cache2 = service.cache_stats();
    for t in &traced {
        run.fidelity(&questions[t.question], &t.stages, &t.served);
    }
    // Each traced request asks the service once per front door it uses.
    let asks = traced.len() * if spec.http { 2 } else { 1 };
    cache_shape(spec, &cache1, &cache2, asks)?;
    cache_shape(spec, &replay0, &replay_cache.stats(), traced.len())?;

    let n = traced.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Traced) -> f64| traced.iter().map(f).sum::<f64>() / n;
    let stage = |f: fn(&Stages) -> Duration| mean(&|t| ms(f(&t.stages)));
    let count = |f: fn(&Stages) -> u64| mean(&|t| f(&t.stages) as f64);
    let in_process = mean(&|t| ms(t.in_process));
    let eval = stage(|s| s.eval);
    let transport =
        |t: &Traced| t.round_trip.map_or(Duration::ZERO, |rt| rt.saturating_sub(t.in_process));
    let traced_totals: Vec<f64> =
        traced.iter().map(|t| ms(t.stages.total + transport(t))).collect();
    let (candidates, explanations) = traced
        .iter()
        .fold((0u64, 0u64), |(c, e), t| (c + t.stages.candidates, e + t.stages.explanations));
    let lookups = (cache1.hits + cache1.misses).saturating_sub(cache0.hits + cache0.misses);
    let pool = pool1.since(&pool0);

    run.metrics.extend([
        Metric::new("algebra.eval_ms", eval, "ms"),
        Metric::new("core.validate_ms", stage(|s| s.validate), "ms"),
        Metric::new("core.backtrace_ms", stage(|s| s.backtrace), "ms"),
        Metric::new("core.alternatives_ms", stage(|s| s.alternatives), "ms"),
        Metric::new("core.schema_alternatives", count(|s| s.schema_alternatives), "count"),
        Metric::new("provenance.trace_ms", stage(|s| s.trace), "ms"),
        Metric::new("provenance.trace_tuples", count(|s| s.trace_tuples), "count"),
        Metric::new("provenance.annotate_ms", stage(|s| s.annotate), "ms"),
        Metric::new("core.rank_ms", stage(|s| s.rank), "ms"),
        Metric::new("core.candidates", count(|s| s.candidates), "count"),
        Metric::new("core.explanations", count(|s| s.explanations), "count"),
        Metric::new(
            "core.explanations_per_candidate",
            explanations as f64 / candidates.max(1) as f64,
            "ratio",
        ),
        Metric::new("service.cache_get_ms", stage(|s| s.cache_get), "ms"),
        Metric::new(
            "service.cache_hit_rate",
            (cache1.hits - cache0.hits) as f64 / lookups.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "service.cache_evictions",
            (cache1.evictions - cache0.evictions) as f64,
            "count",
        ),
        Metric::new("service.cache_weight", cache1.weight as f64, "count"),
        Metric::new("service.wire_decode_ms", stage(|s| s.wire_decode), "ms"),
        Metric::new("service.report_encode_ms", stage(|s| s.report_encode), "ms"),
        Metric::new("http.round_trip_ms", mean(&|t| t.round_trip.map_or(0.0, ms)), "ms"),
        Metric::new("http.transport_ms", mean(&|t| ms(transport(t))), "ms"),
        Metric::new("http.requests", (http1.requests - http0.requests) as f64, "count"),
        Metric::new("http.connections", (http1.connections - http0.connections) as f64, "count"),
        Metric::new(
            "exec.par_regions_per_request",
            pool.par_regions as f64 / requests.max(1) as f64,
            "count",
        ),
        Metric::new(
            "exec.steal_ratio",
            pool.chunks_stolen as f64 / pool.chunks_claimed.max(1) as f64,
            "ratio",
        ),
        Metric::new("core.rp_over_query_x", in_process / eval.max(f64::MIN_POSITIVE), "ratio"),
        Metric::new("bench.unattributed_ms", in_process - mean(&|t| ms(t.stages.sum())), "ms"),
        Metric::new(
            "bench.tracing_overhead_ms",
            percentile(&traced_totals, 0.5) - percentile(&untraced, 0.5),
            "ms",
        ),
    ]);
    println!("traced requests: {}, untraced requests: {requests}", traced.len());
    Ok(())
}

/// Every client alternates a service request and a replay of it until the
/// time is up.
fn traced_half(
    spec: &Spec,
    questions: &[Question],
    instance: &Instance,
    replay_cache: &TraceCache,
    schedules: &mut [Schedule],
    duration: Duration,
) -> Result<Vec<Traced>, String> {
    let doors = instance.doors(schedules.len())?;
    let service = &instance.service;
    let deadline = Instant::now() + duration;
    let per_client: Vec<Result<Vec<Traced>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = doors
            .into_iter()
            .zip(schedules.iter_mut())
            .map(|(mut door, schedule)| {
                scope.spawn(move || {
                    let mut traced = Vec::new();
                    while Instant::now() < deadline {
                        let question = schedule.next_question();
                        traced.push(trace_one(
                            spec,
                            question,
                            &questions[question],
                            &mut door,
                            service,
                            replay_cache,
                        )?);
                    }
                    Ok(traced)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("benchmark client panicked")).collect()
    });
    let mut all = Vec::new();
    for client in per_client {
        all.extend(client?);
    }
    Ok(all)
}

/// Replays one request, then asks the service for it (over HTTP and in
/// process, or in process only), then times the query alone. The replay goes
/// first so that its stages meet the caches as a real request does, and the
/// query probe last so that it warms no stage.
fn trace_one(
    spec: &Spec,
    question: usize,
    q: &Question,
    door: &mut Door<'_>,
    service: &ExplainService,
    replay_cache: &TraceCache,
) -> Result<Traced, String> {
    let body = spec.http.then_some(q.body.as_str());
    let mut stages = replay(service.catalog(), replay_cache, &q.request, body)?;
    let mut served = Vec::with_capacity(2);
    let mut round_trip = None;
    if spec.http {
        let sent = Instant::now();
        let reply = door.ask(q);
        round_trip = Some(sent.elapsed());
        served.push(reply.report());
    }
    let started = Instant::now();
    served.push(if spec.http {
        let doc = Json::parse(&q.body).map_err(|e| e.to_string())?;
        let out = service.handle_wire(&doc).map(|r| r.to_compact());
        out.map_err(|e| e.to_string()).and_then(|wire| report_of_wire(&wire))
    } else {
        let out = service.explain(&q.request).map(|r| r.report.to_json().to_compact());
        out.map_err(|e| e.to_string())
    });
    let in_process = started.elapsed();
    stages.eval = eval_probe(service.catalog(), &q.request)?;
    Ok(Traced { question, stages, in_process, round_trip, served })
}

//! The three workloads: what each one sets up, the seeded schedule its
//! clients follow, the front door they knock on, and the closed loop that
//! times them.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use whynot_core::WhyNotEngine;
use whynot_rng::rngs::StdRng;
use whynot_rng::{Rng, SeedableRng};
use whynot_service::loadgen::family_scenarios;
use whynot_service::{
    serve, CacheStats, DbRef, ExplainRequest, ExplainResponse, ExplainService, ExplanationReport,
    HttpClient, HttpResponse, Json, PlanRef, ServeConfig, ServerHandle, ServiceResult,
};

/// One benchmark workload. `BENCHMARK.json` records the same fields and the
/// reason each workload exists.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Scenario family, generated at the family's default scale.
    pub family: &'static str,
    /// Closed-loop clients (each waits for its answer before asking again).
    pub clients: usize,
    /// Trace-cache capacity; `None` keeps the service default (64 entries).
    pub cache_capacity: Option<usize>,
    /// Whether the clients reach the service over loopback HTTP.
    pub http: bool,
    /// Warm workloads ask every question once during set-up, so every
    /// measured request hits the trace cache. Cold ones never repeat a
    /// question back to back, so with one cache entry every request misses.
    pub warm: bool,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "dblp-warm",
        family: "dblp",
        clients: 2,
        cache_capacity: None,
        http: false,
        warm: true,
    },
    Spec {
        name: "dblp-cold",
        family: "dblp",
        clients: 2,
        cache_capacity: Some(1),
        http: false,
        warm: false,
    },
    Spec {
        name: "tpch-cold",
        family: "tpch",
        clients: 1,
        cache_capacity: Some(1),
        http: false,
        warm: false,
    },
    Spec {
        name: "http-dblp-warm",
        family: "dblp",
        clients: 2,
        cache_capacity: None,
        http: true,
        warm: true,
    },
];

/// HTTP handler threads: one per client connection (keep-alive connections
/// hold a worker while open).
const HTTP_WORKERS: usize = 2;

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|spec| spec.name == name)
}

/// One question of the workload, in the two forms clients send it, with the
/// report the uncached engine gives for it.
#[derive(Debug)]
pub struct Question {
    pub name: String,
    pub request: ExplainRequest,
    /// The request's wire form (`POST /v1/explain` body).
    pub body: String,
    /// Compact JSON of `ExplanationReport::from_answer` over the answer of
    /// `WhyNotEngine::rp().explain`, computed once without any cache.
    pub reference: String,
}

/// Builds the workload's questions and their references. Fails when the
/// engine errs or misses a scenario's gold-standard explanation.
pub fn questions(spec: &Spec) -> Result<Vec<Question>, String> {
    let scenarios = family_scenarios(spec.family, None).map_err(|e| e.to_string())?;
    let mut questions = Vec::with_capacity(scenarios.len());
    let mut wrong = Vec::new();
    for scenario in scenarios {
        let answer = WhyNotEngine::rp()
            .explain(&scenario.question(), &scenario.alternatives)
            .map_err(|e| format!("{}: reference engine failed: {e}", scenario.name))?;
        if let Some(gold) = scenario.gold_ops() {
            if !answer.explanations.iter().any(|e| e.operators == gold) {
                wrong.push(format!(
                    "{}: gold explanation {gold:?} missing from {:?}",
                    scenario.name,
                    answer.operator_sets()
                ));
            }
        }
        let request = ExplainRequest::new(
            DbRef::Named(scenario.name.clone()),
            PlanRef::Named(scenario.name.clone()),
            scenario.why_not,
        )
        .with_alternatives(scenario.alternatives);
        let body = request.to_json().map_err(|e| e.to_string())?.to_compact();
        questions.push(Question {
            name: scenario.name,
            request,
            body,
            reference: ExplanationReport::from_answer(&answer).to_json().to_compact(),
        });
    }
    if wrong.is_empty() {
        Ok(questions)
    } else {
        Err(wrong.join("; "))
    }
}

/// A set-up service: the catalog holds every scenario, and for HTTP
/// workloads a server runs in this process.
pub struct Instance {
    pub service: Arc<ExplainService>,
    server: Option<ServerHandle>,
}

impl Instance {
    /// Generates the scenarios, registers them, starts the server (HTTP
    /// workloads) and, for warm workloads, asks every question once. Each
    /// warm-up reply is checked; the outcomes are returned with the instance.
    pub fn set_up(spec: &Spec, questions: &[Question]) -> Result<(Instance, Vec<Checked>), String> {
        let scenarios = family_scenarios(spec.family, None).map_err(|e| e.to_string())?;
        let mut service = match spec.cache_capacity {
            Some(capacity) => ExplainService::with_cache_capacity(capacity),
            None => ExplainService::new(),
        };
        for scenario in scenarios {
            service.catalog_mut().register_database(scenario.name.clone(), scenario.db);
            service.catalog_mut().register_plan(scenario.name, scenario.plan);
        }
        let service = Arc::new(service);
        let server = if spec.http {
            let config = ServeConfig { workers: HTTP_WORKERS, ..ServeConfig::default() };
            Some(serve(Arc::clone(&service), config).map_err(|e| format!("serve: {e}"))?)
        } else {
            None
        };
        let instance = Instance { service, server };
        let mut warm_up = Vec::new();
        if spec.warm {
            let mut door = instance.door();
            for question in questions {
                warm_up.push(door.ask(question).check(question));
            }
        }
        Ok((instance, warm_up))
    }

    /// A new client of the workload's front door.
    pub fn door(&self) -> Door<'_> {
        match &self.server {
            Some(server) => Door::Http { addr: server.addr().to_string(), client: None },
            None => Door::Local(&self.service),
        }
    }

    /// One connected client per schedule, so that connecting is not timed.
    pub fn doors(&self, clients: usize) -> Result<Vec<Door<'_>>, String> {
        (0..clients)
            .map(|_| {
                let mut door = self.door();
                door.connect().map_err(|e| format!("connect: {e}"))?;
                Ok(door)
            })
            .collect()
    }

    /// Stops the server, if any, and waits for its threads.
    pub fn shut_down(self) {
        if let Some(server) = self.server {
            server.shutdown();
        }
    }
}

/// A client's way into the service.
pub enum Door<'a> {
    Local(&'a ExplainService),
    /// One keep-alive connection, opened on first use and reopened only if
    /// the server closed it.
    Http {
        addr: String,
        client: Option<HttpClient>,
    },
}

/// A reply as the client received it.
pub enum Reply {
    Local(ServiceResult<ExplainResponse>),
    Http(io::Result<HttpResponse>),
}

/// The outcome of checking one reply against its question's reference.
pub struct Checked {
    pub error: Option<String>,
}

impl Door<'_> {
    /// Opens the HTTP connection now rather than on first use.
    pub fn connect(&mut self) -> io::Result<()> {
        if let Door::Http { addr, client } = self {
            if client.is_none() {
                *client = Some(HttpClient::connect(addr)?);
            }
        }
        Ok(())
    }

    pub fn ask(&mut self, question: &Question) -> Reply {
        match self {
            Door::Local(service) => Reply::Local(service.explain(&question.request)),
            Door::Http { addr, client } => {
                let response = match client {
                    Some(connected) => connected.post_json("/v1/explain", &question.body, &[]),
                    None => HttpClient::connect(addr).and_then(|mut connected| {
                        let response = connected.post_json("/v1/explain", &question.body, &[]);
                        *client = Some(connected);
                        response
                    }),
                };
                let reusable =
                    matches!(&response, Ok(r) if r.header("connection") != Some("close"));
                if !reusable {
                    *client = None;
                }
                Reply::Http(response)
            }
        }
    }
}

impl Reply {
    /// The compact JSON of the report this reply carries.
    pub fn report(&self) -> Result<String, String> {
        match self {
            Reply::Local(Ok(response)) => Ok(response.report.to_json().to_compact()),
            Reply::Local(Err(e)) => Err(format!("service error: {e}")),
            Reply::Http(Err(e)) => Err(format!("transport error: {e}")),
            Reply::Http(Ok(response)) if response.status != 200 => {
                Err(format!("HTTP {}: {}", response.status, response.body))
            }
            Reply::Http(Ok(response)) => report_of_wire(&response.body),
        }
    }

    /// Compares the reply's report byte for byte with the reference.
    pub fn check(&self, question: &Question) -> Checked {
        let error = match self.report() {
            Ok(report) if report == question.reference => None,
            Ok(report) => {
                Some(format!("{}: report differs from the reference: {report}", question.name))
            }
            Err(e) => Some(format!("{}: {e}", question.name)),
        };
        Checked { error }
    }
}

/// Extracts the compact `report` of a wire response document.
pub fn report_of_wire(body: &str) -> Result<String, String> {
    let doc = Json::parse(body).map_err(|e| format!("bad response JSON: {e}"))?;
    doc.get("report").map(Json::to_compact).ok_or_else(|| format!("no report in {body}"))
}

/// The seeded order in which one client asks questions. Only question
/// indices come out of it; the program sees the generated requests alone.
pub struct Schedule {
    rng: StdRng,
    /// The questions this client asks.
    own: Vec<usize>,
    warm: bool,
    cycle: Vec<usize>,
    next: usize,
    last: Option<usize>,
}

impl Schedule {
    /// One independent schedule per client, all derived from `seed`. Warm
    /// clients share every question. Cold clients split the questions
    /// between them, so that no client can hit a trace another one cached.
    /// `last` is the question asked just before (cold schedules never repeat
    /// it).
    pub fn for_clients(
        spec: &Spec,
        seed: u64,
        questions: usize,
        last: Option<usize>,
    ) -> Vec<Schedule> {
        let mut master = StdRng::seed_from_u64(seed);
        (0..spec.clients)
            .map(|client| Schedule {
                rng: StdRng::seed_from_u64(master.next_u64()),
                own: (0..questions).filter(|q| spec.warm || q % spec.clients == client).collect(),
                warm: spec.warm,
                cycle: Vec::new(),
                next: 0,
                last,
            })
            .collect()
    }

    /// Warm: a uniform draw. Cold: the next entry of a shuffled cycle through
    /// the client's questions, never the question just asked.
    pub fn next_question(&mut self) -> usize {
        let n = self.own.len();
        let question = if self.warm {
            self.own[self.rng.gen_range(0..n)]
        } else {
            if self.next == self.cycle.len() {
                self.cycle = self.own.clone();
                for i in (1..n).rev() {
                    let j = self.rng.gen_range(0..=i);
                    self.cycle.swap(i, j);
                }
                if n > 1 && Some(self.cycle[0]) == self.last {
                    let j = self.rng.gen_range(1..n);
                    self.cycle.swap(0, j);
                }
                self.next = 0;
            }
            self.next += 1;
            self.cycle[self.next - 1]
        };
        self.last = Some(question);
        question
    }
}

/// One timed request of the closed loop.
pub struct Sample {
    pub latency: Duration,
    pub checked: Checked,
}

/// Runs every client's closed loop for `duration`: each client asks its
/// next question only when the previous answer has arrived, and checks the
/// answer after its latency is taken. Returns the samples and the wall time
/// from the common start to the last answer.
pub fn closed_loop(
    instance: &Instance,
    questions: &[Question],
    schedules: &mut [Schedule],
    duration: Duration,
) -> Result<(Vec<Sample>, Duration), String> {
    let doors = instance.doors(schedules.len())?;
    let start = Instant::now();
    let deadline = start + duration;
    let per_client: Vec<(Vec<Sample>, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = doors
            .into_iter()
            .zip(schedules.iter_mut())
            .map(|(mut door, schedule)| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut finished = Instant::now();
                    while finished < deadline {
                        let question = schedule.next_question();
                        let sent = Instant::now();
                        let reply = door.ask(&questions[question]);
                        finished = Instant::now();
                        let checked = reply.check(&questions[question]);
                        samples.push(Sample { latency: finished - sent, checked });
                    }
                    (samples, finished)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("benchmark client panicked")).collect()
    });
    let end = per_client.iter().map(|(_, finished)| *finished).max().unwrap_or(start);
    let samples = per_client.into_iter().flat_map(|(samples, _)| samples).collect();
    Ok((samples, end - start))
}

/// Trace-cache counters that must hold for the workload to be what it
/// claims: warm windows hit on every lookup; cold caches never hit and evict
/// every trace but the newest.
pub fn cache_shape(
    spec: &Spec,
    before: &CacheStats,
    after: &CacheStats,
    asks: usize,
) -> Result<(), String> {
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let ok = if spec.warm {
        misses == 0 && after.coalesced == before.coalesced && hits == asks as u64
    } else {
        after.hits == 0 && after.evictions + 1 == after.misses && misses == asks as u64
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{} is not what it claims: {asks} requests moved the trace cache from {before:?} to {after:?}",
            spec.name
        ))
    }
}

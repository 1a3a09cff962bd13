//! End-to-end benchmark of the why-not explanation service.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <dblp-warm|dblp-cold|tpch-cold|http-dblp-warm> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run is one workload in its own process, so set-up time and peak
//! memory belong to that workload alone. The run builds the workload's
//! questions and a reference report for each with the uncached engine, sets
//! the service up several times (the median is `setup_s`), then drives it
//! with closed-loop clients for `--seconds`. Every reply is compared byte for
//! byte with its reference once its latency is taken; any mismatch, error or
//! refused request fails the run. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ledger ([`ledger`]). The last line of standard
//! output is one JSON object; the exit code is non-zero unless every answer
//! was right.

mod ledger;
mod replay;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use whynot_service::Json;

use crate::replay::Stages;
use crate::workload::{closed_loop, spec, Checked, Instance, Question, Schedule, Spec};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

const USAGE: &str = "usage: e2ebench --workload <dblp-warm|dblp-cold|tpch-cold|http-dblp-warm> \
                     --seed <u64> --seconds <secs> --trace <0|1>";

struct Args {
    spec: &'static Spec,
    seed: u64,
    duration: Duration,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown argument {flag}")),
        };
        *slot = Some(value);
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = spec(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = seed.ok_or("--seed is required")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 =
        seconds.ok_or("--seconds is required")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args { spec, seed, duration: Duration::from_secs_f64(seconds), trace })
}

/// A reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind the value, printed beside it.
    samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_string(), value, unit, samples: None }
    }
}

/// What one run counted and measured.
#[derive(Default)]
pub struct Run {
    attempted: u64,
    failed: u64,
    pub metrics: Vec<Metric>,
}

/// Wrong answers printed in full; the rest are only counted.
const SHOWN_PROBLEMS: u64 = 20;

impl Run {
    /// Counts one checked reply.
    pub fn check(&mut self, checked: Checked) {
        self.attempted += 1;
        if let Some(problem) = checked.error {
            self.failed += 1;
            if self.failed <= SHOWN_PROBLEMS {
                eprintln!("e2ebench: wrong answer: {problem}");
            }
        }
    }

    /// Counts one replayed request: its report must equal every report the
    /// service gave for it, and the reference.
    pub fn fidelity(
        &mut self,
        question: &Question,
        stages: &Stages,
        served: &[Result<String, String>],
    ) {
        let problem = served.iter().find_map(|served| match served {
            Ok(report) if *report == stages.report && *report == question.reference => None,
            Ok(report) => Some(format!(
                "{}: replay gave {} but the service gave {report}",
                question.name, stages.report
            )),
            Err(e) => Some(format!("{}: {e}", question.name)),
        });
        self.check(Checked { error: problem });
    }
}

pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`q` in (0, 1]) of unsorted values; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(args: &Args) -> Result<Run, String> {
    let spec = args.spec;
    let mut run = Run::default();
    let questions = workload::questions(spec)?;

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut instance: Option<Instance> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = instance.take() {
            previous.shut_down();
        }
        let started = Instant::now();
        let (set_up, warm_up) = Instance::set_up(spec, &questions)?;
        setup_s.push(started.elapsed().as_secs_f64());
        warm_up.into_iter().for_each(|checked| run.check(checked));
        instance = Some(set_up);
    }
    let instance = instance.expect("at least one set-up");

    // Cold workloads are not warmed up, so ask every question once here,
    // untimed; the schedule then starts with a different question.
    let mut last = None;
    if !spec.warm {
        let mut door = instance.door();
        for (index, question) in questions.iter().enumerate() {
            run.check(door.ask(question).check(question));
            last = Some(index);
        }
    }
    let mut schedules = Schedule::for_clients(spec, args.seed, questions.len(), last);

    if args.trace {
        ledger::traced_run(spec, &questions, &instance, &mut schedules, args.duration, &mut run)?;
    } else {
        let before = instance.service.cache_stats();
        let (samples, wall) = closed_loop(&instance, &questions, &mut schedules, args.duration)?;
        let after = instance.service.cache_stats();
        let requests = samples.len();
        let mut latencies = Vec::with_capacity(requests);
        for sample in samples {
            if sample.checked.error.is_none() {
                latencies.push(ms(sample.latency));
            }
            run.check(sample.checked);
        }
        workload::cache_shape(spec, &before, &after, requests)?;
        let n = latencies.len();
        run.metrics = vec![
            Metric {
                samples: Some(n),
                ..Metric::new("latency_p50_ms", percentile(&latencies, 0.50), "ms")
            },
            Metric {
                samples: Some(n),
                ..Metric::new("latency_p95_ms", percentile(&latencies, 0.95), "ms")
            },
            Metric::new("throughput_rps", requests as f64 / wall.as_secs_f64(), "rps"),
            Metric::new("success_rate", 1.0 - run.failed as f64 / run.attempted as f64, "ratio"),
            Metric {
                samples: Some(SETUPS),
                ..Metric::new("setup_s", percentile(&setup_s, 0.5), "s")
            },
            Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"),
        ];
    }
    instance.shut_down();
    Ok(run)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match run(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.spec.name);
            return ExitCode::FAILURE;
        }
    };
    let mut metrics = Vec::with_capacity(run.metrics.len());
    println!(
        "{} (seed {}, {} trace)",
        args.spec.name,
        args.seed,
        if args.trace { "with" } else { "no" }
    );
    for metric in &run.metrics {
        let samples = metric.samples.map(|n| format!("n={n}")).unwrap_or_default();
        println!("  {:<34} {:>14.4} {:<6} {samples}", metric.name, metric.value, metric.unit);
        if !metric.value.is_finite() {
            eprintln!("e2ebench: {} is not finite", metric.name);
            return ExitCode::FAILURE;
        }
        let value =
            Json::object([("value", Json::Float(metric.value)), ("unit", Json::str(metric.unit))]);
        metrics.push((metric.name.clone(), value));
    }
    let correct = run.failed == 0 && run.attempted > 0;
    println!(
        "{}",
        Json::object([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(run.attempted as i64)),
            ("failed", Json::Int(run.failed as i64)),
            ("metrics", Json::Object(metrics)),
        ])
        .to_compact()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Paper-scale pipeline benchmark for the cISP workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload us_design --seed 42 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` times untraced reps through the public entry points and
//! prints the end-to-end metrics; `--trace 1` runs one untraced and one
//! traced rep (stage by stage, a span around every layer call), checks that
//! they agree and prints the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The line before it is the full record (machine fingerprint, every rep's
//! time), also written with the spans to `perfbench/out/`.
//!
//! `--scale tiny` runs the same workloads at `ScenarioConfig::tiny_test`
//! size in seconds; `--write-benchmark-json <path>` writes the metric and
//! workload table as `BENCHMARK.json`.
//!
//! See `perfbench/README.md` for the workloads and every metric.

mod pipeline;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pipeline::{Check, Counters, Output, Params, Scale, Workload, DEFAULT_SEED, HELD_OUT_SEED};
use trace::Tracer;

/// One metric of `BENCHMARK.json`.
struct MetricDef {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    /// Allowed regression as a share of the parent's median (end-to-end
    /// metrics only).
    bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

const WORKLOADS: &[(&str, &str)] = &[
    (
        "us_design",
        "full US scenario built from its config and designed by the cISP heuristic at 3,000 towers: hop sweep, candidate search and design engines",
    ),
    (
        "us_backbone_sim",
        "the 119-site backbone lowered conduit-backed at 100 Gbps, simulated hybrid packet/fluid and fed to the app models: packet engine and event queue",
    ),
    (
        "us_weather_replay",
        "a storm year, a storm season replayed through the packet engine and single conduit cuts: many short rerouted runs",
    ),
];

const END_TO_END: &[MetricDef] = &[
    e2e("workload_s", "s", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("mean_stretch", "ratio", 0.15),
    e2e("peak_rss_mb", "MB", 0.25),
];

const PER_LAYER: &[MetricDef] = &[
    layer("data.synth_s", "s", "lower"),
    layer("data.towers", "count", "higher"),
    layer("hops.sweep_s", "s", "lower"),
    layer("hops.feasible", "count", "higher"),
    layer("links.attach_s", "s", "lower"),
    layer("links.candidates_s", "s", "lower"),
    layer("links.candidates", "count", "higher"),
    layer("links.zero_attached", "count", "lower"),
    layer("design.greedy_s", "s", "lower"),
    layer("design.cisp_s", "s", "lower"),
    layer("design.selected", "count", "higher"),
    layer("design.towers_used", "count", "lower"),
    layer("augment.provision_s", "s", "lower"),
    layer("cost.per_gb", "USD/GB", "lower"),
    layer("topology.conduit_s", "s", "lower"),
    layer("evaluate.lower_s", "s", "lower"),
    layer("evaluate.links", "count", "lower"),
    layer("evaluate.demands", "count", "higher"),
    layer("evaluate.pair_rtts_s", "s", "lower"),
    layer("routing.route_s", "s", "lower"),
    layer("routing.reroute_s", "s", "lower"),
    layer("routing.reroutes", "count", "lower"),
    layer("fluid.solve_s", "s", "lower"),
    layer("fluid.flows", "count", "higher"),
    layer("fluid.packet_events_avoided", "count", "higher"),
    layer("netsim.run_s", "s", "lower"),
    layer("netsim.events", "count", "lower"),
    layer("netsim.ns_per_event", "ns", "lower"),
    layer("netsim.components", "count", "higher"),
    layer("netsim.delivered", "count", "higher"),
    layer("netsim.dropped", "count", "lower"),
    layer("queue.pushes", "count", "lower"),
    layer("queue.mean_occupancy", "count", "lower"),
    layer("queue.peak_occupancy", "count", "lower"),
    layer("weather.year_s", "s", "lower"),
    layer("weather.intervals", "count", "higher"),
    layer("weather.mean_failed_links", "count", "lower"),
    layer("weather.failures_s", "s", "lower"),
    layer("weather.storm_s", "s", "lower"),
    layer("weather.cut_s", "s", "lower"),
    layer("weather.cuts", "count", "higher"),
    layer("apps.gaming_s", "s", "lower"),
    layer("apps.web_s", "s", "lower"),
    layer("trace.overhead_s", "s", "lower"),
    layer("trace.coverage", "fraction", "higher"),
];

/// Seconds each run measures: `run_seconds` in `BENCHMARK.json`, and the
/// default of `--seconds`.
const RUN_SECONDS: u64 = 15;

fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let metrics = |defs: &[MetricDef]| -> String {
        defs.iter()
            .map(|m| match m.bound {
                Some(bound) => format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, bound
                ),
                None => format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                ),
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    format!(
        concat!(
            "{{\n",
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", ",
            "\"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
            "  \"paths\": [\"perfbench\"],\n",
            "  \"run_seconds\": {},\n",
            "  \"workloads\": [\n{}\n  ],\n",
            "  \"end_to_end\": [\n{}\n  ],\n",
            "  \"per_layer\": [\n{}\n  ]\n",
            "}}\n"
        ),
        RUN_SECONDS,
        workloads.join(",\n"),
        metrics(END_TO_END),
        metrics(PER_LAYER),
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        scale: Scale::Paper,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "paper" => Scale::Paper,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--scale takes paper or tiny, not {other}")),
                }
            }
            "--write-benchmark-json" => {
                let path = value()?;
                std::fs::write(&path, benchmark_json()).map_err(|e| format!("{path}: {e}"))?;
                println!("wrote {path}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(format!("--seconds must be 0 or more, not {}", args.seconds));
    }
    Ok(args)
}

/// Peak resident set size of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).map(str::to_string))
        })
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's git revision, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Tallies the operations (set-ups and reps) a run attempted and the ones
/// that panicked or failed a check.
#[derive(Default)]
struct Ops {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Ops {
    /// Run one operation, catching panics; `None` when it failed.
    fn run<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        self.guard(what, f)
    }

    /// Run part of an operation already counted by [`Ops::run`]: a failure
    /// counts, a second attempt does not.
    fn guard<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => self.fail(format!("{what}: {e}")),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                self.fail(format!("{what} panicked: {msg}"))
            }
        }
    }

    fn fail<T>(&mut self, error: String) -> Option<T> {
        eprintln!("FAILED {error}");
        self.failed += 1;
        self.errors.push(error);
        None
    }
}

struct Outcome {
    metrics: Vec<(&'static str, &'static str, f64)>,
    record: Vec<(String, String)>,
    spans: Option<String>,
}

/// What one rep measured. `digest` is `None` when the outputs failed a
/// check; the time still counts.
#[derive(Clone, Copy)]
struct RepStats {
    digest: Option<u64>,
    seconds: f64,
    peak_rss_mb: f64,
}

/// Time one rep and read the process's peak resident set so far, then check
/// and digest the rep's outputs once the timer has stopped. `None` when the
/// rep itself failed.
fn timed(
    ops: &mut Ops,
    what: &str,
    rep: impl FnOnce() -> Result<Output, String>,
) -> Option<RepStats> {
    let (output, seconds, peak_rss_mb) = ops.run(what, || {
        let start = Instant::now();
        let output = rep()?;
        Ok((output, start.elapsed().as_secs_f64(), peak_rss_mb()))
    })?;
    let digest = ops.guard(what, || output.check());
    Some(RepStats {
        digest,
        seconds,
        peak_rss_mb,
    })
}

/// Time one set-up. A failed check counts against the run but the run goes
/// on: the set-up keeps what it built.
fn timed_setup(ops: &mut Ops, what: &str, setup: impl FnOnce() -> Check) -> f64 {
    let start = Instant::now();
    ops.run(what, setup);
    start.elapsed().as_secs_f64()
}

fn run_untraced(w: &mut dyn Workload, args: &Args, ops: &mut Ops) -> Option<Outcome> {
    let setup_times: Vec<f64> = (0..w.setup_reps())
        .map(|_| timed_setup(ops, "setup", || w.setup()))
        .collect();
    let budget = Duration::from_secs_f64(args.seconds);
    let measuring = Instant::now();
    let mut times = Vec::new();
    let mut first = None;
    let mut rss = Vec::new();
    while times.is_empty() || measuring.elapsed() < budget {
        let Some(rep) = timed(ops, "rep", || Ok(w.rep())) else {
            if ops.failed > 2 {
                break;
            }
            continue;
        };
        times.push(rep.seconds);
        rss.push(rep.peak_rss_mb);
        match (first, rep.digest) {
            (None, digest) => first = digest,
            (Some(f), Some(d)) if f != d => {
                ops.fail::<()>(format!("rep {} differs from rep 1", times.len()));
            }
            _ => {}
        }
    }
    if times.is_empty() {
        return None;
    }
    let list = |v: &[f64]| {
        format!(
            "[{}]",
            v.iter()
                .map(|x| json_num(*x))
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    Some(Outcome {
        metrics: vec![
            ("workload_s", "s", median(&times)),
            ("setup_s", "s", median(&setup_times)),
            ("mean_stretch", "ratio", w.mean_stretch()),
            // The peak through set-up and the first rep. Later reps are
            // left out: with two workers, memory the allocator retains
            // grows by steps at random reps.
            ("peak_rss_mb", "MB", rss[0]),
        ],
        record: vec![
            ("setup_times_s".into(), list(&setup_times)),
            ("rep_times_s".into(), list(&times)),
            ("peak_rss_mb_after_rep".into(), list(&rss)),
            (format!("{}_s", w.root()), json_num(median(&times))),
        ],
        spans: None,
    })
}

fn run_traced(w: &mut dyn Workload, ops: &mut Ops) -> Outcome {
    let mut tracer = Tracer::new();
    let mut counters = Counters::new();

    let untraced_setup = timed_setup(ops, "setup", || w.setup());
    let traced_setup = timed_setup(ops, "traced setup", || {
        w.setup_traced(&mut tracer, &mut counters)
    });

    // The first rep of a process runs cold (page faults, heap growth), so
    // the overhead compares the traced rep with a later untraced one.
    let warm_up = timed(ops, "rep", || Ok(w.rep()));
    let traced = timed(ops, "traced rep", || {
        w.rep_traced(&mut tracer, &mut counters)
    });
    let untraced = timed(ops, "rep", || Ok(w.rep()));
    let digest = |rep: Option<RepStats>| rep.and_then(|r| r.digest);
    for (what, rep) in [("first", warm_up), ("last", untraced)] {
        if let (Some(rep), Some(traced)) = (digest(rep), digest(traced)) {
            if rep != traced {
                ops.fail::<()>(format!("traced rep differs from the {what} untraced rep"));
            }
        }
    }
    // A rep that panicked has no time; the run is then incorrect and the
    // overhead reads 0.
    let traced_rep = traced.map_or(0.0, |r| r.seconds - tracer.total_s("fluid.solve"));
    let untraced_rep = untraced.map_or(traced_rep, |r| r.seconds);

    let root = w.root();
    let coverage = tracer.coverage(root, w.phases());
    let overhead = traced_rep - untraced_rep;
    let events = counters.get("netsim.events").copied().unwrap_or(0.0);
    let run_s = tracer.total_s("netsim.run");
    counters.insert(
        "netsim.ns_per_event",
        if events > 0.0 {
            run_s * 1e9 / events
        } else {
            0.0
        },
    );
    counters.insert("trace.overhead_s", overhead);
    counters.insert("trace.coverage", coverage);
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = match m.name.strip_suffix("_s") {
                Some(span) if !counters.contains_key(m.name) => tracer.total_s(span),
                _ => counters.get(m.name).copied().unwrap_or(0.0),
            };
            (m.name, m.unit, value)
        })
        .collect();
    Outcome {
        metrics,
        record: vec![
            ("untraced_setup_s".into(), json_num(untraced_setup)),
            ("traced_setup_s".into(), json_num(traced_setup)),
            ("untraced_rep_s".into(), json_num(untraced_rep)),
            ("traced_rep_s".into(), json_num(traced_rep)),
            (format!("{root}_coverage"), json_num(coverage)),
        ],
        spans: Some(tracer.to_json()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let params = Params {
        scale: args.scale,
        seed: args.seed,
    };
    let Some(mut w) = pipeline::workload(&args.workload, params) else {
        eprintln!(
            "error: unknown workload {}; expected one of {:?}",
            args.workload,
            WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>()
        );
        return ExitCode::from(2);
    };

    let mut ops = Ops::default();
    let outcome = if args.trace {
        Some(run_traced(w.as_mut(), &mut ops))
    } else {
        run_untraced(w.as_mut(), &args, &mut ops)
    };
    let Some(outcome) = outcome else {
        eprintln!("error: nothing was measured");
        return ExitCode::FAILURE;
    };

    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let config = params.scenario_config();
    let mut record = vec![
        ("workload".to_string(), json_str(&args.workload)),
        (
            "scale".into(),
            json_str(&format!("{:?}", args.scale).to_lowercase()),
        ),
        ("seed".into(), args.seed.to_string()),
        ("held_out_seed".into(), HELD_OUT_SEED.to_string()),
        ("scenario_seed".into(), w.scenario_seed().to_string()),
        ("trace".into(), args.trace.to_string()),
        ("nproc".into(), threads.to_string()),
        ("cpu_model".into(), json_str(&cpu_model())),
        ("rustc".into(), json_str(env!("PERFBENCH_RUSTC_VERSION"))),
        ("git_revision".into(), json_str(&git_revision())),
        ("pool_workers".into(), config.pool_workers.to_string()),
        ("sim_workers".into(), pipeline::SIM_WORKERS.to_string()),
        ("threads_used".into(), threads.to_string()),
        ("failed_ops".into(), ops.failed.to_string()),
        ("attempted_ops".into(), ops.attempted.to_string()),
        (
            "errors".into(),
            format!(
                "[{}]",
                ops.errors
                    .iter()
                    .map(|e| json_str(e))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    record.extend(outcome.record);
    let metrics_json = |metrics: &[(&str, &str, f64)]| -> String {
        metrics
            .iter()
            .map(|(name, unit, value)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    record.push((
        "metrics".into(),
        format!("{{{}}}", metrics_json(&outcome.metrics)),
    ));
    let record_json = format!(
        "{{{}}}",
        record
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let stem = format!(
        "{out_dir}/{}-{}-seed{}-trace{}",
        args.workload,
        format!("{:?}", args.scale).to_lowercase(),
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|_| std::fs::write(format!("{stem}.json"), &record_json))
        .and_then(|_| match &outcome.spans {
            Some(spans) => std::fs::write(format!("{stem}-spans.json"), spans),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("warning: could not write the record to {out_dir}: {e}");
    }

    let all_finite = outcome.metrics.iter().all(|m| m.2.is_finite());
    println!("{record_json}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.failed == 0 && all_finite,
        ops.attempted,
        ops.failed,
        metrics_json(&outcome.metrics)
    );
    ExitCode::SUCCESS
}

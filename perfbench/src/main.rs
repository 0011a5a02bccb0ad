//! ActFort benchmark: end-to-end and per-layer metrics for the query
//! service, the analysis engines and the GSM campaign.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-mixed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `cold-mixed` (open-loop serving) and `campaign`. `--trace 0` measures the end-to-end metrics; `--trace 1`
//! replays the same inputs with a span around every layer call and
//! reports the per-layer metrics, writing the spans to
//! `.bench_out/<workload>-seed<seed>-spans.jsonl`. Every result also
//! goes to `.bench_out/<workload>-seed<seed>-trace<t>.json` with the
//! host it ran on. The last line of standard output is the result as
//! one JSON object; a failed correctness check exits non-zero.

mod campaign;
mod openloop;
mod rng;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// End-to-end metrics (tracing off), with units.
const END_TO_END: &[(&str, &str)] = &[("p50_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (traced run), with units. A layer a workload does
/// not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.http.parse_us", "us"),
    ("serve.http.render_us", "us"),
    ("serve.wire.parse_us", "us"),
    ("serve.wire.render_us", "us"),
    ("serve.cache.lookup_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.residual_us", "us"),
    ("serve.shed_ratio", "ratio"),
    ("serve.error_rate", "ratio"),
    ("serve.write_p50_ms", "ms"),
    ("serve.snapshot.build_ms", "ms"),
    ("ecosystem.synth.population_ms", "ms"),
    ("core.prepared.compile_us", "us"),
    ("core.prepared.forward_us", "us"),
    ("core.prepared.fell_per_query", "count"),
    ("core.backward.query_us", "us"),
    ("core.backward.chains_per_query", "count"),
    ("core.score.batch_us", "us"),
    ("core.score.users_per_s", "1/s"),
    ("core.counter.patch_us", "us"),
    ("core.counter.patch_cached_us", "us"),
    ("core.counter.whatif_us", "us"),
    ("core.campaign.assess_ms", "ms"),
    ("gsm.campaign.run_ms", "ms"),
    ("gsm.campaign.events_per_s", "1/s"),
    ("gsm.campaign.interceptions", "count"),
    ("trace.overhead_pct", "%"),
];

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` for `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// What a workload run produced.
#[derive(Debug)]
pub struct RunResult {
    /// Failed correctness checks (empty when correct).
    pub problems: Vec<String>,
    /// Operations attempted in the measured phase.
    pub attempted: usize,
    /// Operations that failed (non-200, refused included).
    pub failed: usize,
    /// The metrics.
    pub metrics: Metrics,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds takes a number")?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn out_path(workload: &str, seed: u64, suffix: &str) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("{workload}-seed{seed}-{suffix}"))
}

/// Writes a traced run's spans to `.bench_out/`.
///
/// # Errors
///
/// A message when the file cannot be written.
pub fn write_spans(tr: &trace::Tracer, workload: &str, seed: u64) -> Result<(), String> {
    let path = out_path(workload, seed, "spans.jsonl");
    tr.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "perfbench: {} spans written to {}",
        tr.spans().len(),
        path.display()
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload cold-mixed|campaign \
                 --seed <n> --seconds <s> --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let host = stats::Host::probe();
    println!(
        "perfbench: host nproc={} cpu=\"{}\" rustc=\"{}\"",
        host.nproc, host.cpu, host.rustc
    );
    let result = match args.workload.as_str() {
        serve::NAME => serve::run(args.seed, args.seconds, args.trace),
        "campaign" => campaign::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = result.metrics.0.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() || (!args.trace && value <= 0.0) {
            result
                .problems
                .push(format!("metric {name} measured {value}"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
        println!("perfbench: {name} = {value} {unit}");
    }
    let correct = result.problems.is_empty();
    for p in &result.problems {
        println!("perfbench: FAILED {p}");
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        result.attempted.max(1),
        result.failed
    );
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\"}}, \"result\": {line}}}\n",
        args.workload, args.seed, args.seconds, args.trace, host.nproc, host.cpu, host.rustc
    );
    let path = out_path(
        &args.workload,
        args.seed,
        &format!("trace{}.json", u8::from(args.trace)),
    );
    if let Err(e) =
        std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, record))
    {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

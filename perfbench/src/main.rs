//! One benchmark for the OAQ workspace: three workloads, end-to-end
//! metrics from an untraced run, per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload query_hot|query_cold|campaign --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the full report (host facts, sample counts, reconciliations). With
//! `--trace 1` the spans are written to `.perfbench-traces/`. The exit code
//! is 0 only when every answer was correct and, when traced, every
//! reconciliation held.

mod campaign;
mod gen;
mod query;
mod report;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use report::Obj;
use trace::Tracer;

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`. A layer a
/// workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.send_us", "us"),
    ("serve.recv_wait_us", "us"),
    ("serve.codec_us", "us"),
    ("serve.bytes_per_req", "bytes"),
    ("serve.wire_overhead_us", "us"),
    ("engine.e2e_us", "us"),
    ("engine.queue_wait_us", "us"),
    ("engine.solve_us", "us"),
    ("engine.mean_batch_size", "count"),
    ("engine.result_hit_ratio", "ratio"),
    ("engine.pk_solves_per_req", "count"),
    ("engine.pk_hit_ratio", "ratio"),
    ("engine.coalesced_per_req", "count"),
    ("engine.rejected_frac", "ratio"),
    ("san.pk_solve_us", "us"),
    ("analytic.g_eval_us", "us"),
    ("geoloc.synth_us", "us"),
    ("geoloc.wls_batch_us", "us"),
    ("geoloc.solved_frac", "ratio"),
    ("exec.parallel_efficiency", "ratio"),
    ("core.episode_setup_us", "us"),
    ("core.episode_run_us", "us"),
    ("core.messages_per_episode", "count"),
    ("core.coord_requests_per_episode", "count"),
    ("core.gave_up_per_episode", "count"),
    ("core.wait_timeouts_per_episode", "count"),
    ("core.chain_length_mean", "count"),
    ("core.timely_frac", "ratio"),
];

/// Seconds of timed work between two set-ups. A run times one set-up at
/// start and one after each slice of its untraced phase; `setup_s` is
/// their median.
pub const SLICE_S: f64 = 1.0;

/// Slices of about [`SLICE_S`] in a timed phase of `seconds`, at least one.
#[must_use]
pub fn slices(seconds: f64) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let n = (seconds / SLICE_S).round() as usize;
    n.max(1)
}

/// FNV-1a over the little-endian bytes of `words`: the digest that
/// answers are compared by.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// An empty buffer of capacity `cap` whose pages are already resident, so
/// filling it later does not raise peak RSS.
pub fn touched<T: Copy>(cap: usize, fill: T) -> Vec<T> {
    let mut v = vec![fill; cap];
    std::hint::black_box(&mut v[..]);
    v.clear();
    v
}

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, seconds (split in two when traced).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload query_hot|query_cold|campaign \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                };
            }
            f => return Err(format!("unknown argument {f}")),
        }
    }
    if !["query_hot", "query_cold", "campaign"].contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(opts)
}

/// What the clients saw in one timed phase.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Completed operations per second: replies, or campaign episodes.
    pub throughput_per_s: f64,
    /// Per-operation latency, ms, ascending: request round trips, or
    /// campaign passes.
    pub latencies_ms: Vec<f64>,
}

impl Phase {
    /// A phase; sorts `latencies_ms` in place (no copy, so peak RSS does
    /// not depend on the sample count).
    ///
    /// # Panics
    ///
    /// Panics on a NaN latency.
    #[must_use]
    pub fn new(throughput_per_s: f64, mut latencies_ms: Vec<f64>) -> Self {
        latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
        Phase {
            throughput_per_s,
            latencies_ms,
        }
    }
}

/// Per-layer values by metric name.
#[derive(Debug, Clone, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// No values yet.
    #[must_use]
    pub fn new() -> Self {
        Layers::default()
    }

    /// Sets one value.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.0.insert(key, value);
    }

    /// A value, 0 when the workload never set it.
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// One check that per-layer costs add up to an end-to-end cost.
#[derive(Debug, Clone)]
pub struct Reconciliation {
    name: &'static str,
    lhs: f64,
    rhs: f64,
    tolerance: f64,
    pass: bool,
}

impl Reconciliation {
    /// `lhs` within `tolerance` (a share of `rhs`) of `rhs`.
    #[must_use]
    pub fn new(name: &'static str, lhs: f64, rhs: f64, tolerance: f64) -> Self {
        let pass = (lhs - rhs).abs() <= tolerance * rhs.abs();
        Reconciliation {
            name,
            lhs,
            rhs,
            tolerance,
            pass,
        }
    }

    /// `0 ≤ part ≤ whole`: the part fits inside the whole, so the rest of
    /// the whole is a non-negative remainder.
    #[must_use]
    pub fn bounded(name: &'static str, part: f64, whole: f64) -> Self {
        Reconciliation {
            name,
            lhs: part,
            rhs: whole,
            tolerance: 0.0,
            pass: part >= 0.0 && part <= whole,
        }
    }

    fn json(&self) -> Obj {
        let mut o = Obj::new();
        o.str("check", self.name)
            .num("lhs", self.lhs)
            .num("rhs", self.rhs)
            .num("tolerance", self.tolerance)
            .bool("pass", self.pass);
        o
    }
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (requests, or campaign cell aggregates).
    pub attempted: u64,
    /// Operations failed: errors, lost requests, wrong answers.
    pub failed: u64,
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// The untraced phase.
    pub plain: Phase,
    /// The traced phase, when traced.
    pub traced: Option<Phase>,
    /// Per-layer values, when traced.
    pub layers: Layers,
    /// Reconciliations, when traced.
    pub reconciliations: Vec<Reconciliation>,
    /// Spans, when traced.
    pub tracer: Option<Tracer>,
    /// Workload facts for the report.
    pub notes: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// An outcome with its set-up times and untraced phase.
    #[must_use]
    pub fn new(setup_s: Vec<f64>, plain: Phase) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            setup_s,
            plain,
            traced: None,
            layers: Layers::new(),
            reconciliations: Vec::new(),
            tracer: None,
            notes: Vec::new(),
        }
    }

    /// Adds a fact to the report.
    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.push((name, value));
    }
}

/// Median, tail and sample count of one phase's latencies.
fn latency_json(phase: &Phase) -> Obj {
    let mut o = Obj::new();
    o.num("throughput_per_s", phase.throughput_per_s)
        .int("samples", phase.latencies_ms.len() as u64);
    if !phase.latencies_ms.is_empty() {
        let sorted = &phase.latencies_ms;
        let tail = stats::tail(sorted, 0.99);
        o.num("p50_ms", stats::percentile(sorted, 0.5))
            .num("p90_ms", stats::tail(sorted, 0.9).value)
            .num("tail_ms", tail.value)
            .num("tail_percentile", tail.q * 100.0)
            .int("beyond_tail", stats::beyond(sorted.len(), tail.q) as u64);
    }
    o
}

fn metric(value: f64, unit: &str) -> Obj {
    let mut o = Obj::new();
    o.num("value", value).str("unit", unit);
    o
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match opts.workload.as_str() {
        "query_hot" => query::run(query::Traffic::Hot, &opts),
        "query_cold" => query::run(query::Traffic::Cold, &opts),
        _ => Ok(campaign::run(&opts)),
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} could not run: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    let rss = report::peak_rss_mb();
    if outcome.plain.latencies_ms.is_empty() {
        eprintln!("perfbench: {} completed no operation", opts.workload);
        return ExitCode::FAILURE;
    }

    let mut metrics = Obj::new();
    if opts.trace {
        for (name, unit) in PER_LAYER {
            metrics.obj(name, &metric(outcome.layers.get(name), unit));
        }
    } else {
        let sorted = &outcome.plain.latencies_ms;
        let values = [
            stats::median(&outcome.setup_s),
            outcome.plain.throughput_per_s,
            stats::percentile(sorted, 0.5),
            stats::tail(sorted, 0.9).value,
            rss,
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.obj(name, &metric(value, unit));
        }
    }
    let reconciled = outcome.reconciliations.iter().all(|r| r.pass);
    let correct = outcome.failed == 0 && reconciled;

    let mut host = Obj::new();
    host.int("cores", report::cores() as u64)
        .str("git_revision", &report::git_revision())
        .str("os", std::env::consts::OS)
        .str("arch", std::env::consts::ARCH);
    let mut notes = Obj::new();
    for (k, v) in &outcome.notes {
        notes.num(k, *v);
    }
    let setups = stats::sorted(&outcome.setup_s);
    let mut setup = Obj::new();
    setup
        .num("median_s", stats::percentile(&setups, 0.5))
        .num("p25_s", stats::percentile(&setups, 0.25))
        .num("p75_s", stats::percentile(&setups, 0.75))
        .int("samples", setups.len() as u64);
    let mut rep = Obj::new();
    rep.str("workload", &opts.workload)
        .int("seed", opts.seed)
        .num("seconds", opts.seconds)
        .bool("trace", opts.trace)
        .obj("host", &host)
        .int("attempted", outcome.attempted)
        .int("failed", outcome.failed)
        .obj("setup", &setup)
        .num("peak_rss_mb", rss)
        .obj("untraced", &latency_json(&outcome.plain))
        .obj("workload_facts", &notes);
    if let Some(traced) = &outcome.traced {
        let plain_p50 = stats::percentile(&outcome.plain.latencies_ms, 0.5);
        let traced_p50 = stats::percentile(&traced.latencies_ms, 0.5);
        let mut overhead = Obj::new();
        overhead
            .num("latency_p50_ms", traced_p50 - plain_p50)
            .num("latency_p50_share", traced_p50 / plain_p50 - 1.0)
            .num(
                "throughput_share",
                traced.throughput_per_s / outcome.plain.throughput_per_s - 1.0,
            );
        rep.obj("traced", &latency_json(traced))
            .obj("tracing_overhead", &overhead);
        eprintln!(
            "perfbench: {} tracing overhead: p50 latency {:+.4} ms ({:+.2}%), throughput {:+.2}%",
            opts.workload,
            traced_p50 - plain_p50,
            (traced_p50 / plain_p50 - 1.0) * 100.0,
            (traced.throughput_per_s / outcome.plain.throughput_per_s - 1.0) * 100.0
        );
        let mut recon = Obj::new();
        for (i, r) in outcome.reconciliations.iter().enumerate() {
            recon.obj(&i.to_string(), &r.json());
            eprintln!(
                "perfbench: reconciliation {}: {} ({:.3} vs {:.3}, tolerance {})",
                if r.pass { "ok" } else { "MISSED" },
                r.name,
                r.lhs,
                r.rhs,
                r.tolerance
            );
        }
        rep.obj("reconciliations", &recon);
    }
    if let Some(tracer) = &outcome.tracer {
        let path = PathBuf::from(".perfbench-traces")
            .join(format!("{}-seed{}.tsv", opts.workload, opts.seed));
        match tracer.write_tsv(&path) {
            Ok(()) => {
                rep.str("spans", &path.display().to_string())
                    .int("span_count", tracer.spans().len() as u64);
            }
            Err(e) => eprintln!("perfbench: spans not written to {}: {e}", path.display()),
        }
    }
    println!("{}", rep.checked());

    let mut result = Obj::new();
    result
        .bool("correct", correct)
        .int("attempted", outcome.attempted)
        .int("failed", outcome.failed)
        .obj("metrics", &metrics);
    println!("{}", result.checked());
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} failed: {} of {} operations failed, reconciliations {}",
            opts.workload,
            outcome.failed,
            outcome.attempted,
            if reconciled { "held" } else { "missed" }
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = parse(&args("--workload campaign --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(o.workload, "campaign");
        assert_eq!(o.seed, 7);
        assert_eq!(o.seconds, 3.0);
        assert!(o.trace);
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload campaign --trace 2")).is_err());
        assert!(parse(&args("--workload campaign --bogus 1")).is_err());
        assert!(parse(&args("--workload campaign --seconds 0")).is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits next to the benchmark directory");
        let doc = oaq_serve::report::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| match m.get(k) {
                        Some(oaq_serve::report::JsonValue::String(s)) => s.clone(),
                        _ => panic!("metric without {k}"),
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn reconciliation_tolerance() {
        assert!(Reconciliation::new("x", 1.04, 1.0, 0.05).pass);
        assert!(!Reconciliation::new("x", 1.06, 1.0, 0.05).pass);
        assert!(Reconciliation::bounded("x", 0.5, 1.0).pass);
        assert!(!Reconciliation::bounded("x", 1.5, 1.0).pass);
    }
}

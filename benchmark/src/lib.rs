//! The GreFar benchmark: four workloads that drive the batch simulator and
//! the `grefar-served` daemon through their public interfaces, check their
//! outputs, and print end-to-end metrics (untraced run) or per-layer
//! metrics (traced run) as one JSON line.
//!
//! ```text
//! grefar-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                  [--daemon PATH] [--workdir DIR]
//! ```
//!
//! `benchmark/run.sh` builds this package and the daemon, then runs it.

pub mod checks;
pub mod served;
pub mod sim;
pub mod spans;
pub mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("slots_per_s", "1/s"),
    ("slot_p50_us", "us"),
    ("avg_cost", "cost"),
    ("mean_delay_slots", "slots"),
    ("ack_p50_ms.light", "ms"),
    ("ack_p50_ms.busy", "ms"),
    ("max_submits_per_s", "1/s"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tail.slot_p99_us", "us"),
    ("tail.ack_p99_ms.light", "ms"),
    ("tail.ack_p99_ms.busy", "ms"),
    ("trace.inputs_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("core.decide.busy_s", "s"),
    ("core.decide.p50_us", "us"),
    ("core.decide.p99_us", "us"),
    ("core.decide.share", "ratio"),
    ("core.decide.fw_slots", "count"),
    ("core.decide.greedy_slots", "count"),
    ("convex.fw.iters", "count"),
    ("convex.fw.iters_p99", "count"),
    ("convex.fw.capped_slots", "count"),
    ("convex.fw.converged_frac", "ratio"),
    ("convex.fw.iter_us", "us"),
    ("convex.fw.busy_s", "s"),
    ("convex.fw.share", "ratio"),
    ("sim.slot.p50_us", "us"),
    ("sim.slot.p99_us", "us"),
    ("sim.slot.self_s", "s"),
    ("sim.queue_update.busy_s", "s"),
    ("sim.queue_update.p50_us", "us"),
    ("sim.queue_update.p99_us", "us"),
    ("sim.queue_update.share", "ratio"),
    ("sim.jobs_completed", "count"),
    ("sim.queue_peak", "jobs"),
    ("obs.jsonl.busy_s", "s"),
    ("obs.jsonl.events", "count"),
    ("obs.jsonl.bytes_per_slot", "bytes"),
    ("metrics.fold.busy_s", "s"),
    ("obs.us_per_event", "us"),
    ("obs.share", "ratio"),
    ("served.parse.p50_us", "us"),
    ("served.journal.append_p50_us", "us"),
    ("served.journal.append_p99_us", "us"),
    ("served.journal.fsyncs_per_ack", "ratio"),
    ("served.inject.p50_us", "us"),
    ("served.advance.p99_us", "us"),
    ("sim.checkpoint.write_p50_us", "us"),
    ("served.rejected.queue_full", "count"),
    ("served.wait.p50_ms.light", "ms"),
    ("served.wait.p50_ms.busy", "ms"),
    ("served.gen_late_ms", "ms"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["sim-fair", "sim-heavy", "sim-observed", "served-mixed"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the untraced (end-to-end) run.
    pub trace: bool,
    /// The `grefar-served` binary (served workload only).
    pub daemon: Option<PathBuf>,
    /// Working directory for telemetry, journals, checkpoints and spans.
    pub workdir: PathBuf,
}

impl Args {
    /// Parses `--flag value` pairs.
    ///
    /// # Errors
    /// A message naming the missing or malformed flag.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut daemon = None;
        let mut workdir = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("missing value after {flag}"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "--seconds expects a number")?;
                    if !(s > 0.0 && s <= 60.0) {
                        return Err("--seconds must be in (0, 60]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace expects 0 or 1".into()),
                    })
                }
                "--daemon" => daemon = Some(PathBuf::from(value)),
                "--workdir" => workdir = Some(PathBuf::from(value)),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload: String = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload} (expected one of {WORKLOADS:?})"
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
            daemon,
            workdir: workdir.unwrap_or_else(|| PathBuf::from(".bench_build/perfbench-work")),
        })
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: Vec<(&'static str, f64)>,
    /// Operations attempted (slots stepped, requests sent).
    pub attempted: u64,
    /// Operations that failed (refused or unanswered requests).
    pub failed: u64,
    /// Failed output checks.
    pub errors: Vec<String>,
    /// Human-readable lines (sample counts and the like) for stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records metric `name`, which must be declared in [`END_TO_END`] or
    /// [`PER_LAYER`].
    ///
    /// # Panics
    /// Panics on an undeclared name (a bench bug).
    pub fn metric(&mut self, name: &str, value: f64) {
        let declared = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((declared.0, value));
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Records a check result.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            if !self.errors.contains(&e) {
                self.errors.push(e);
            }
        }
    }

    /// Adds a line for the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Renders the result line for the metric set of `trace` mode, in the
    /// declared order. A declared metric the run did not record, or a
    /// non-finite value, is itself a failed check.
    pub fn finish(&mut self, trace: bool) -> String {
        let declared = if trace { PER_LAYER } else { END_TO_END };
        let mut body = String::new();
        for (i, (name, unit)) in declared.iter().enumerate() {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                Some(v) => {
                    self.errors
                        .push(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None => {
                    self.errors.push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A small deterministic generator (splitmix64) for request scripts.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Seeds the generator, domain-separated by `tag`.
    pub fn new(seed: u64, tag: u64) -> Self {
        SplitMix(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

impl Args {
    /// Where a traced run writes its span log.
    pub fn spans_path(&self) -> PathBuf {
        self.workdir
            .join(format!("spans-{}-seed{}.tsv", self.workload, self.seed))
    }
}

/// Runs the workload `args` names.
pub fn run(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "served-mixed" => served::run(args),
        name => sim::run(args, sim::SimWorkload::named(name)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn args_parse_and_reject() {
        let a = args(&[
            "--workload",
            "sim-fair",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2.0, true));
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(args(&["--workload", "sim-fair"]).is_err());
        assert!(args(&["--workload", "sim-fair", "--seed", "1", "--trace", "2"]).is_err());
    }

    #[test]
    fn result_line_lists_every_declared_metric() {
        let mut out = Outcome::default();
        for (name, _) in END_TO_END {
            out.metric(name, 1.5);
        }
        let line = out.finish(false);
        assert!(out.correct());
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        let mut partial = Outcome::default();
        partial.metric("setup_s", 1.0);
        let _ = partial.finish(false);
        assert!(!partial.correct());
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let compact: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                compact.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        for name in WORKLOADS {
            assert!(compact.contains(&format!("\"name\":\"{name}\"")));
        }
    }
}

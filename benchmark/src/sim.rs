//! The batch-simulator workloads: the paper scenario under GreFar, stepped
//! through `SteppedRun::step`.
//!
//! An untraced run measures set-up, then the unpaced slot loop (slots/s,
//! per-step latency). From the measured step times it also derives each
//! slot's latency had slots been released on a fixed clock, as an online
//! scheduler receives them. A traced run repeats the loop under the span
//! recorder.

use crate::checks;
use crate::spans::{SharedLog, SpanLog, Timed, Traced};
use crate::stats::{best, latency_percentiles, median, peak_rss_mb, quantile, Better};
use crate::{Args, Outcome};
use grefar_bench::Telemetry;
use grefar_core::{GreFar, GreFarParams};
use grefar_metrics::{shared_handle, MetricsConfig, MetricsLayer};
use grefar_obs::{NullObserver, Observer};
use grefar_sim::{PaperScenario, Simulation, SimulationInputs, SimulationReport, SteppedRun};
use grefar_types::SystemConfig;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// GreFar's cost weight V in every workload (the paper's default).
pub const V: f64 = 7.5;
/// Slots per run: long enough for the queues and the job tracker to reach
/// the states a month-scale run reaches.
pub const HORIZON: usize = 2000;
/// GreFar's per-slot Frank–Wolfe iteration cap (`GreFarParams` default).
pub const FW_CAP: u64 = 200;
/// Slot release rates behind the `ack_*` metrics, slots per second. At
/// 1000/s the queue behind each capped Frank–Wolfe slot grows with the
/// machine's speed, so the busy figure would measure the host, not the
/// program.
pub const LIGHT_RATE: f64 = 250.0;
/// See [`LIGHT_RATE`].
pub const BUSY_RATE: f64 = 500.0;
/// Set-up is timed this many times; the median is reported.
const SETUPS: usize = 5;

/// One simulator workload's parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimWorkload {
    /// Fairness weight β (0 takes the greedy path, > 0 Frank–Wolfe).
    pub beta: f64,
    /// Arrival scale over the paper scenario.
    pub load_scale: f64,
    /// Production observability plane on (JSONL telemetry + metrics).
    pub observed: bool,
}

impl SimWorkload {
    /// The parameters of a `sim-*` workload.
    ///
    /// # Panics
    /// Panics on a name that is not a simulator workload.
    pub fn named(name: &str) -> Self {
        match name {
            "sim-fair" => SimWorkload {
                beta: 100.0,
                load_scale: 1.0,
                observed: false,
            },
            "sim-heavy" => SimWorkload {
                beta: 0.0,
                load_scale: 100.0,
                observed: false,
            },
            "sim-observed" => SimWorkload {
                beta: 0.0,
                load_scale: 1.0,
                observed: true,
            },
            other => panic!("not a simulator workload: {other}"),
        }
    }
}

/// Generates the seed's inputs.
pub fn inputs(seed: u64, load_scale: f64, horizon: usize) -> (SystemConfig, SimulationInputs) {
    let scenario = PaperScenario::default()
        .with_seed(seed)
        .with_load_scale(load_scale);
    let config = scenario.config().clone();
    (config, scenario.into_inputs(horizon))
}

/// Builds a fresh run of GreFar(V, β) over `inputs`.
pub fn engine(config: &SystemConfig, inputs: SimulationInputs, beta: f64) -> SteppedRun {
    let grefar = GreFar::new(config, GreFarParams::new(V, beta)).expect("valid GreFar parameters");
    SteppedRun::new(Simulation::new(config.clone(), inputs, Box::new(grefar)))
}

/// The production observability plane as `grefar_cli --telemetry F
/// --metrics-listen ADDR` composes it: the metrics layer, refreshing the
/// shared exposition every 64 slots, over the JSONL telemetry sink. The
/// listener itself is left out, and so is `--metrics-snapshot`, whose
/// file rename every 64 slots made the workload measure the disk.
fn plane<I: Observer>(sink: I) -> MetricsLayer<I> {
    MetricsLayer::new(sink, MetricsConfig::default()).with_shared(shared_handle())
}

fn telemetry(dir: &Path, tag: &str) -> Telemetry {
    Telemetry::with_jsonl(&dir.join(format!("{tag}.jsonl")))
}

/// Deterministic results of one full run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunValues {
    /// Time-average g = e − β·f (eq. (6)).
    pub avg_cost: f64,
    /// Mean job sojourn, slots.
    pub mean_delay: f64,
    /// Jobs completed.
    pub completed: u64,
    /// Largest single queue over the run.
    pub queue_peak: f64,
}

impl RunValues {
    fn of(report: &SimulationReport, beta: f64, queue_peak: f64) -> Self {
        RunValues {
            avg_cost: report.energy.mean() - beta * report.fairness.mean(),
            mean_delay: report.completions.mean_sojourn,
            completed: report.completions.completed_total,
            queue_peak,
        }
    }

    fn check_same(&self, other: &RunValues) -> Result<(), String> {
        checks::same("avg_cost", self.avg_cost, other.avg_cost)?;
        checks::same("mean_delay_slots", self.mean_delay, other.mean_delay)?;
        checks::same(
            "sim.jobs_completed",
            self.completed as f64,
            other.completed as f64,
        )?;
        checks::same("sim.queue_peak", self.queue_peak, other.queue_peak)
    }
}

/// Finishes a run and applies the per-run output checks: the ledger
/// balances at the horizon and the peak queue is within Theorem 1(a).
/// Also returns each slot's (energy, fairness).
pub fn finish_checked(
    run: SteppedRun,
    obs: &mut dyn Observer,
    beta: f64,
    bound: Option<f64>,
    out: &mut Outcome,
) -> (RunValues, Vec<(f64, f64)>) {
    out.check(checks::ledger_balances(&run));
    let peak = run.queue_peak();
    out.check(checks::within_occupancy_bound(peak, bound));
    let report = run.finish(obs);
    let per_slot = report
        .energy
        .instant()
        .iter()
        .copied()
        .zip(report.fairness.instant().iter().copied())
        .collect();
    (RunValues::of(&report, beta, peak), per_slot)
}

struct Setup {
    config: SystemConfig,
    inputs: SimulationInputs,
    setup_s: f64,
    inputs_s: f64,
}

/// Times input generation plus engine (and plane) construction
/// [`SETUPS`] times, keeping the median. The telemetry file is created
/// and closed outside the timer: on a shared disk those two calls alone
/// ranged from microseconds to a tenth of a second. The plane emits no
/// `theory.bounds` event: its slackness search costs 7–150 ms depending
/// on the seed, which would make `setup_s` measure the seed.
fn setup(args: &Args, w: SimWorkload, dir: &Path) -> Setup {
    let mut totals = Vec::new();
    let mut input_times = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let sink = w.observed.then(|| telemetry(dir, &format!("setup{i}")));
        let t0 = Instant::now();
        let (config, inputs) = inputs(args.seed, w.load_scale, HORIZON);
        input_times.push(t0.elapsed().as_secs_f64());
        let run = engine(&config, inputs.clone(), w.beta);
        let observed = sink.map(plane);
        std::hint::black_box((&run, &observed));
        totals.push(t0.elapsed().as_secs_f64());
        drop(observed);
        kept = Some((config, inputs));
    }
    let (config, inputs) = kept.expect("at least one set-up");
    Setup {
        config,
        inputs,
        setup_s: median(&totals),
        inputs_s: median(&input_times),
    }
}

/// One untraced pass over the horizon: per-step latencies, wall time.
struct Pass {
    values: RunValues,
    step_us: Vec<f64>,
    loop_s: f64,
}

fn untraced_pass(
    s: &Setup,
    w: SimWorkload,
    bound: Option<f64>,
    dir: &Path,
    tag: &str,
    out: &mut Outcome,
) -> Pass {
    let mut run = engine(&s.config, s.inputs.clone(), w.beta);
    let mut null = NullObserver;
    let mut observed = w.observed.then(|| plane(telemetry(dir, tag)));
    let obs: &mut dyn Observer = match &mut observed {
        Some(p) => p,
        None => &mut null,
    };
    let mut step_us = Vec::with_capacity(HORIZON);
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        if !run.step(obs) {
            break;
        }
        step_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let loop_s = start.elapsed().as_secs_f64();
    out.attempted += step_us.len() as u64;
    let values = finish_checked(run, obs, w.beta, bound, out).0;
    if let Some(p) = observed {
        check_telemetry(p, dir, tag, out);
    }
    Pass {
        values,
        step_us,
        loop_s,
    }
}

/// Flushes the plane and checks its telemetry stream.
fn check_telemetry(layer: MetricsLayer<Telemetry>, dir: &Path, tag: &str, out: &mut Outcome) {
    let (telemetry, health) = layer.into_parts();
    drop(telemetry);
    out.check(
        health
            .map(|_| ())
            .map_err(|e| format!("metrics layer: {e}")),
    );
    let path = dir.join(format!("{tag}.jsonl"));
    match std::fs::read_to_string(&path) {
        Ok(text) => out.check(checks::telemetry_well_formed(&text, HORIZON as u64)),
        Err(e) => out.check(Err(format!("cannot read {}: {e}", path.display()))),
    }
}

/// [`released_at`] for every pass.
fn released(steps: &[Vec<f64>], rate: f64) -> Vec<Vec<f64>> {
    steps.iter().map(|w| released_at(rate, w)).collect()
}

/// The p99 figures, which vary too much from run to run on a shared
/// machine to gate a change, reported with the per-layer metrics.
fn tail_metrics(steps: &[Vec<f64>], out: &mut Outcome) {
    out.metric("tail.slot_p99_us", latency_percentiles(steps).1);
    for (phase, rate) in [("light", LIGHT_RATE), ("busy", BUSY_RATE)] {
        let p99 = latency_percentiles(&released(steps, rate)).1;
        out.metric(&format!("tail.ack_p99_ms.{phase}"), p99);
    }
}

/// Latency of each slot, in ms, had the slots been released every
/// `1/rate` s to a scheduler taking the measured step times in order: a
/// slot starts at its release or when the previous one ends, whichever is
/// later (the FIFO recursion of a single server).
fn released_at(rate: f64, step_us: &[f64]) -> Vec<f64> {
    let gap_us = 1e6 / rate;
    let mut done = 0.0f64;
    step_us
        .iter()
        .enumerate()
        .map(|(k, step)| {
            let release = k as f64 * gap_us;
            done = done.max(release) + step;
            (done - release) / 1e3
        })
        .collect()
}

fn work_dir(args: &Args) -> PathBuf {
    let dir = args
        .workdir
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the work directory");
    dir
}

/// Runs a simulator workload.
pub fn run(args: &Args, w: SimWorkload) -> Outcome {
    let mut out = Outcome::default();
    let dir = work_dir(args);
    let s = setup(args, w, &dir);
    let bound = checks::occupancy_bound(&s.config, &s.inputs, V, w.beta);
    let budget = Duration::from_secs_f64(args.seconds);
    if args.trace {
        traced(w, &s, bound, &dir, budget, &args.spans_path(), &mut out);
    } else {
        untraced(w, &s, bound, &dir, budget, &mut out);
    }
    out.metric("setup_s", s.setup_s);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn untraced(
    w: SimWorkload,
    s: &Setup,
    bound: Option<f64>,
    dir: &Path,
    budget: Duration,
    out: &mut Outcome,
) {
    // The whole budget on the unpaced loop, at least four passes; each
    // pass is one window.
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < 4 || started.elapsed() < budget {
        let pass = untraced_pass(s, w, bound, dir, "loop", out);
        if let Some(first) = passes.first() {
            out.check(first.values.check_same(&pass.values));
        }
        passes.push(pass);
    }
    let per_pass = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let jobs: f64 = s.inputs.all_arrivals().iter().flatten().sum();
    let rates = per_pass(&|p| HORIZON as f64 / p.loop_s);
    let values = passes[0].values;
    out.metric("slots_per_s", best(&rates, Better::Higher));
    let steps: Vec<Vec<f64>> = passes.iter().map(|p| p.step_us.clone()).collect();
    let (p50, _, n50, _) = latency_percentiles(&steps);
    out.metric("slot_p50_us", p50);
    out.metric("avg_cost", values.avg_cost);
    out.metric("mean_delay_slots", values.mean_delay);
    out.metric(
        "max_submits_per_s",
        best(&per_pass(&|p| jobs / p.loop_s), Better::Higher),
    );
    out.note(format!(
        "unpaced loop: {} passes of {HORIZON} slots, step p50 n={n50}; slots/s per pass {:?}",
        passes.len(),
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    for (phase, rate) in [("light", LIGHT_RATE), ("busy", BUSY_RATE)] {
        let (p50, _, n50, _) = latency_percentiles(&released(&steps, rate));
        out.metric(&format!("ack_p50_ms.{phase}"), p50);
        out.note(format!(
            "{phase}: slots released at {rate}/s onto the measured steps; p50 n={n50}"
        ));
    }
    out.metric("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0));
}

/// Bench-side span around each `SteppedRun::step`.
pub const STEP: &str = "sim.step";

fn traced(
    w: SimWorkload,
    s: &Setup,
    bound: Option<f64>,
    dir: &Path,
    budget: Duration,
    spans_path: &Path,
    out: &mut Outcome,
) {
    // Untraced and traced passes alternate, so drift in machine speed
    // hits both sides of the overhead ratio alike. The untraced values are
    // what every traced pass must reproduce.
    let started = Instant::now();
    let baseline = untraced_pass(s, w, bound, dir, "baseline", out);
    let mut untraced_rates = vec![HORIZON as f64 / baseline.loop_s];
    let mut untraced_steps = vec![baseline.step_us.clone()];
    let mut traced_rates = Vec::new();
    let mut first: Option<TracedPass> = None;
    let mut last = None;
    while traced_rates.len() < 2 || started.elapsed() < budget {
        if !traced_rates.is_empty() {
            let pass = untraced_pass(s, w, bound, dir, "baseline", out);
            untraced_rates.push(HORIZON as f64 / pass.loop_s);
            untraced_steps.push(pass.step_us);
        }
        let pass = traced_pass(s, w, bound, dir, out);
        out.check(baseline.values.check_same(&pass.values));
        traced_rates.push(HORIZON as f64 / pass.loop_s);
        match &first {
            None => first = Some(pass),
            Some(f) => {
                out.check(first_counts_match(f, &pass));
                last = Some(pass);
            }
        }
    }
    let untraced = best(&untraced_rates, Better::Higher);
    let traced = best(&traced_rates, Better::Higher);
    out.metric("trace.inputs_s", s.inputs_s);
    out.metric("trace.overhead_frac", untraced / traced - 1.0);
    tail_metrics(&untraced_steps, out);
    let last = last.expect("at least two traced passes");
    layer_metrics(&last.log.borrow(), &last, traced_rates.len(), out);
    write_spans(&last.log.borrow(), spans_path, out);
    out.note(format!(
        "traced: {} passes; untraced {untraced:.1} slots/s vs traced {traced:.1} slots/s",
        traced_rates.len()
    ));
    for name in [
        "served.parse.p50_us",
        "served.journal.append_p50_us",
        "served.journal.append_p99_us",
        "served.journal.fsyncs_per_ack",
        "served.inject.p50_us",
        "served.advance.p99_us",
        "sim.checkpoint.write_p50_us",
        "served.rejected.queue_full",
        "served.wait.p50_ms.light",
        "served.wait.p50_ms.busy",
        "served.gen_late_ms",
    ] {
        out.metric(name, 0.0);
    }
}

/// One traced pass and what it counted.
pub struct TracedPass {
    /// The pass's span log.
    pub log: SharedLog,
    values: RunValues,
    loop_s: f64,
    fold_events: u64,
    sink_events: u64,
    jsonl_bytes: u64,
}

impl TracedPass {
    /// A pass with no observability sink (the served replay).
    pub fn replay(log: SharedLog, values: RunValues, loop_s: f64) -> Self {
        TracedPass {
            log,
            values,
            loop_s,
            fold_events: 0,
            sink_events: 0,
            jsonl_bytes: 0,
        }
    }
}

fn traced_pass(
    s: &Setup,
    w: SimWorkload,
    bound: Option<f64>,
    dir: &Path,
    out: &mut Outcome,
) -> TracedPass {
    let log = SpanLog::shared();
    let mut run = engine(&s.config, s.inputs.clone(), w.beta);
    let mut obs = if w.observed {
        let inner = plane(Timed::new(
            log.clone(),
            "obs.jsonl",
            telemetry(dir, "traced"),
        ));
        Traced::with_sink(log.clone(), "metrics.fold", inner)
    } else {
        Traced::hooks_only(log.clone())
    };
    let start = Instant::now();
    while !run.is_done() {
        log.borrow_mut().next_root();
        log.borrow_mut().enter(STEP);
        run.step(&mut obs);
        log.borrow_mut().exit();
    }
    let loop_s = start.elapsed().as_secs_f64();
    out.attempted += HORIZON as u64;
    let values = finish_checked(run, &mut obs, w.beta, bound, out).0;
    let (mut fold_events, mut sink_events, mut jsonl_bytes) = (0, 0, 0);
    if let Some(fold) = obs.into_inner() {
        fold_events = fold.events();
        let (sink, health) = fold.into_inner().into_parts();
        out.check(
            health
                .map(|_| ())
                .map_err(|e| format!("metrics layer: {e}")),
        );
        sink_events = sink.events();
        drop(sink);
        let path = dir.join("traced.jsonl");
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        jsonl_bytes = text.len() as u64;
        out.check(checks::telemetry_well_formed(&text, HORIZON as u64));
    }
    TracedPass {
        log,
        values,
        loop_s,
        fold_events,
        sink_events,
        jsonl_bytes,
    }
}

/// Frank–Wolfe iterations of each `decide` span, in slot order.
fn fw_per_slot(log: &SpanLog) -> Vec<u64> {
    log.children_per("decide", "fw.iter")
}

fn first_counts_match(first: &TracedPass, again: &TracedPass) -> Result<(), String> {
    let a = fw_per_slot(&first.log.borrow());
    let b = fw_per_slot(&again.log.borrow());
    if a != b {
        return Err(format!(
            "determinism: Frank–Wolfe iterations {} then {}",
            a.iter().sum::<u64>(),
            b.iter().sum::<u64>()
        ));
    }
    checks::same(
        "obs.jsonl.events",
        first.sink_events as f64,
        again.sink_events as f64,
    )
}

/// The per-layer metrics of the core, convex, sim and obs layers from one
/// pass's span log (`passes` only for the note).
pub fn layer_metrics(log: &SpanLog, pass: &TracedPass, passes: usize, out: &mut Outcome) {
    let sum = log.summarize();
    let step_s = sum.busy_s(STEP).max(f64::MIN_POSITIVE);
    let iters = fw_per_slot(log);
    let fw_slots: Vec<f64> = iters
        .iter()
        .filter(|&&n| n > 0)
        .map(|&n| n as f64)
        .collect();
    let capped = iters.iter().filter(|&&n| n >= FW_CAP).count();
    let sink_s = sum.busy_s("metrics.fold");
    let decide_self = sum.busy_s("decide") - sum.busy_s("fw.iter") - sinks_under(log, "decide");
    out.metric("core.decide.busy_s", sum.busy_s("decide"));
    out.metric("core.decide.p50_us", sum.quantile_us("decide", 0.5));
    out.metric("core.decide.p99_us", sum.quantile_us("decide", 0.99));
    out.metric("core.decide.share", decide_self / step_s);
    out.metric("core.decide.fw_slots", fw_slots.len() as f64);
    out.metric(
        "core.decide.greedy_slots",
        (iters.len() - fw_slots.len()) as f64,
    );
    out.metric("convex.fw.iters", iters.iter().sum::<u64>() as f64);
    out.metric("convex.fw.iters_p99", quantile(&fw_slots, 0.99));
    out.metric("convex.fw.capped_slots", capped as f64);
    out.metric(
        "convex.fw.converged_frac",
        if fw_slots.is_empty() {
            0.0
        } else {
            (fw_slots.len() - capped) as f64 / fw_slots.len() as f64
        },
    );
    out.metric("convex.fw.iter_us", sum.quantile_us("fw.iter", 0.5));
    out.metric("convex.fw.busy_s", sum.busy_s("fw.iter"));
    out.metric("convex.fw.share", sum.busy_s("fw.iter") / step_s);
    out.metric("sim.slot.p50_us", sum.quantile_us(STEP, 0.5));
    out.metric("sim.slot.p99_us", sum.quantile_us(STEP, 0.99));
    out.metric("sim.slot.self_s", sum.self_s("slot"));
    out.metric("sim.queue_update.busy_s", sum.busy_s("queue.update"));
    out.metric(
        "sim.queue_update.p50_us",
        sum.quantile_us("queue.update", 0.5),
    );
    out.metric(
        "sim.queue_update.p99_us",
        sum.quantile_us("queue.update", 0.99),
    );
    out.metric(
        "sim.queue_update.share",
        sum.busy_s("queue.update") / step_s,
    );
    out.metric("sim.jobs_completed", pass.values.completed as f64);
    out.metric("sim.queue_peak", pass.values.queue_peak);
    out.metric("obs.jsonl.busy_s", sum.busy_s("obs.jsonl"));
    out.metric("obs.jsonl.events", pass.sink_events as f64);
    out.metric(
        "obs.jsonl.bytes_per_slot",
        pass.jsonl_bytes as f64 / HORIZON as f64,
    );
    out.metric("metrics.fold.busy_s", sum.self_s("metrics.fold"));
    out.metric(
        "obs.us_per_event",
        if pass.fold_events == 0 {
            0.0
        } else {
            sink_s * 1e6 / pass.fold_events as f64
        },
    );
    out.metric("obs.share", sink_s / step_s);
    out.note(format!(
        "per-layer figures from the last of {passes} traced passes ({} slots, {} of them \
         Frank–Wolfe)",
        sum.count(STEP),
        fw_slots.len()
    ));
}

/// Writes the span log out at the end of a traced run.
pub fn write_spans(log: &SpanLog, path: &Path, out: &mut Outcome) {
    match log.write_tsv(path) {
        Ok(()) => out.note(format!("spans written to {}", path.display())),
        Err(e) => out.check(Err(format!("cannot write {}: {e}", path.display()))),
    }
}

/// Time spent in sink spans directly under `parent` spans.
fn sinks_under(log: &SpanLog, parent: &str) -> f64 {
    let spans = log.spans();
    spans
        .iter()
        .filter(|s| {
            s.name == "metrics.fold"
                && spans
                    .get(s.parent as usize)
                    .is_some_and(|p| p.name == parent)
        })
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum()
}

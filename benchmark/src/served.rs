//! The `served-mixed` workload: the release `grefar-served` binary as a
//! separate process (manual clock, β = 100, admission journal and a
//! checkpoint every 50 slots on the checkout's disk, telemetry on), driven
//! over one TCP
//! connection by a writer thread (this one) and a reader thread.
//!
//! Phases, in order:
//! * `light`: open loop, 250 requests/s;
//! * `busy`: open loop, 500 requests/s;
//! * burst: closed loop, one `advance` in flight — the slot rate a caller
//!   sees through the daemon;
//! * saturation: closed loop, 32 requests in flight (half the daemon's
//!   default queue cap of 64, so backpressure never trips).
//!
//! The first three phases carry the same mix: every 50 requests, 48
//! submits, one `status` (a read that is never journaled) and one
//! `advance` (a Frank–Wolfe slot that competes with admissions on the
//! state keeper).
//!
//! The traced run replays the identical request script, single-threaded,
//! through the layers' public functions (`protocol::parse_request`,
//! `Journal::append`, `SteppedRun::inject_arrivals`, `SteppedRun::step`,
//! `Checkpoint::append`, `Journal::rotate`) on the same disk.

use crate::checks::{self, Ack};
use crate::sim::{self, TracedPass, V};
use crate::spans::{SpanLog, Traced};
use crate::stats::{best, latency_percentiles, median, peak_rss_mb, quantile, Better};
use crate::{Args, Outcome, SplitMix};
use grefar_obs::json::{parse_object, JsonValue};
use grefar_obs::NullObserver;
use grefar_served::engine::{EngineSpec, SchedulerSpec};
use grefar_served::journal::{Journal, JournalEntry};
use grefar_served::protocol;
use grefar_served::supervisor::journal_path_for;
use grefar_sim::{PaperScenario, SteppedRun};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::linux::net::TcpStreamExt as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Fairness weight: every `advance` runs Frank–Wolfe.
pub const BETA: f64 = 100.0;
/// Requests per mix period; the last is an `advance`, the middle one a
/// `status`, the rest submits.
const MIX_PERIOD: usize = 50;
const STATUS_AT: usize = 24;
/// Saturation window: half the daemon's default `--queue-cap` of 64.
const WINDOW: u64 = 32;
/// `--checkpoint-every`: a checkpoint cut (one `sync_all`, then a journal
/// rotation with two more) every 50 slots rather than every slot, so an
/// `advance` in the busy phase does not stall admissions for a full
/// checkpoint of the growing run state.
const CHECKPOINT_EVERY: u64 = 50;
/// Latency assigned to a refused or unanswered submit: above any limit.
const FAILED_MS: f64 = 1e6;
/// Daemon spawns timed for `setup_s`; the last one is measured.
const SPAWNS: usize = 5;
/// Longest wait for the daemon (port file, replies, exit).
const PATIENCE: Duration = Duration::from_secs(30);

/// Workload phases, in the order they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Open loop at [`Phase::rate`].
    Light,
    /// Open loop at [`Phase::rate`].
    Busy,
    /// Closed loop of `advance`, one in flight.
    Burst,
    /// Closed loop, [`WINDOW`] in flight.
    Saturation,
}

impl Phase {
    /// Open-loop request rate, requests/s.
    pub fn rate(self) -> Option<f64> {
        match self {
            Phase::Light => Some(250.0),
            Phase::Busy => Some(500.0),
            Phase::Saturation | Phase::Burst => None,
        }
    }

    fn window(self) -> u64 {
        match self {
            Phase::Saturation => WINDOW,
            _ => 1,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Phase::Light => "light",
            Phase::Busy => "busy",
            Phase::Saturation => "saturation",
            Phase::Burst => "burst",
        }
    }
}

/// One scripted request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Admit `count` jobs of class `job`.
    Submit {
        /// Job class.
        job: usize,
        /// Jobs.
        count: f64,
    },
    /// Execute one slot.
    Advance,
    /// Read the daemon's counters.
    Status,
}

impl Op {
    /// The wire `op`.
    pub fn name(self) -> &'static str {
        match self {
            Op::Submit { .. } => "submit",
            Op::Advance => "advance",
            Op::Status => "status",
        }
    }

    /// The request's wire line (without the newline).
    pub fn line(self) -> String {
        match self {
            Op::Submit { job, count } => {
                format!("{{\"op\":\"submit\",\"job\":{job},\"count\":{count}}}")
            }
            Op::Advance => "{\"op\":\"advance\"}".to_string(),
            Op::Status => "{\"op\":\"status\"}".to_string(),
        }
    }
}

/// The seed's request script for a `seconds`-long run.
pub fn script(seed: u64, classes: usize, seconds: f64) -> Vec<(Phase, Op)> {
    let mut rng = SplitMix::new(seed, 0x5e7e_d5c7);
    let mut mix = |phase: Phase, n: usize| -> Vec<(Phase, Op)> {
        (0..n.max(MIX_PERIOD))
            .map(|k| {
                let op = match k % MIX_PERIOD {
                    i if i == MIX_PERIOD - 1 => Op::Advance,
                    STATUS_AT => Op::Status,
                    _ => Op::Submit {
                        job: rng.below(classes as u64) as usize,
                        count: (1 + rng.below(3)) as f64,
                    },
                };
                (phase, op)
            })
            .collect()
    };
    let mut out = mix(Phase::Light, (seconds * 0.4 * 250.0).round() as usize);
    out.extend(mix(Phase::Busy, (seconds * 0.2 * 500.0).round() as usize));
    let burst = ((seconds * 20.0).round() as usize).max(MIX_PERIOD);
    out.extend(std::iter::repeat_n((Phase::Burst, Op::Advance), burst));
    out.extend(mix(
        Phase::Saturation,
        (seconds * 0.8 * 1000.0).round() as usize,
    ));
    out
}

/// A running daemon.
struct Daemon {
    child: Child,
    addr: String,
    dir: PathBuf,
}

impl Daemon {
    /// Spawns the daemon in `dir`; returns it and the spawn-to-port-ready
    /// time in seconds.
    fn spawn(bin: &Path, dir: &Path, seed: u64, hours: usize) -> Result<(Daemon, f64), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let port = dir.join("port");
        let _ = std::fs::remove_file(&port);
        let log = std::fs::File::create(dir.join("daemon.log")).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--clock", "manual"])
            .args(["--v", &V.to_string(), "--beta", &BETA.to_string()])
            .args(["--seed", &seed.to_string(), "--hours", &hours.to_string()])
            .arg("--checkpoint")
            .arg(dir.join("run.ckpt"))
            .args(["--checkpoint-every", &CHECKPOINT_EVERY.to_string()])
            .arg("--telemetry")
            .arg(dir.join("run.jsonl"))
            .arg("--port-file")
            .arg(&port)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        loop {
            if let Ok(text) = std::fs::read_to_string(&port) {
                if text.ends_with('\n') {
                    let secs = started.elapsed().as_secs_f64();
                    let addr = text.trim().to_string();
                    let dir = dir.to_path_buf();
                    return Ok((Daemon { child, addr, dir }, secs));
                }
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if started.elapsed() > PATIENCE {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon did not report its port".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(PATIENCE))
            .map_err(|e| e.to_string())?;
        Ok(stream)
    }

    /// Waits for the process to exit; kills it after [`PATIENCE`].
    fn wait(mut self) -> Result<(), String> {
        let started = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if started.elapsed() > PATIENCE => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not exit after drain".into());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(e.to_string()),
            }
        }
    }

    /// Drains over a fresh connection and waits for a clean exit.
    fn drain(self) -> Result<(), String> {
        let stream = self.connect()?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut writer = stream;
        writeln!(writer, "{{\"op\":\"drain\"}}").map_err(|e| e.to_string())?;
        let mut reply = String::new();
        reader.read_line(&mut reply).map_err(|e| e.to_string())?;
        self.wait()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A parsed reply line.
#[derive(Debug, Clone, Default)]
struct Reply {
    at: Option<Instant>,
    fields: BTreeMap<String, JsonValue>,
}

impl Reply {
    fn ok(&self) -> bool {
        self.fields.get("ok").and_then(JsonValue::as_bool) == Some(true)
    }

    fn num(&self, key: &str) -> Option<f64> {
        self.fields.get(key).and_then(JsonValue::as_f64)
    }

    fn error(&self) -> Option<&str> {
        self.fields.get("error").and_then(JsonValue::as_str)
    }
}

/// What the live session saw, request by request.
struct Session {
    due: Vec<Instant>,
    sent: Vec<Instant>,
    replies: Vec<Reply>,
    status: Reply,
}

/// Sends the script over one connection: this thread writes on schedule,
/// a reader thread collects the replies, which [`match_replies`] pairs
/// with their requests. A final `status` is sent once every scripted
/// reply is in.
fn drive(stream: TcpStream, script: &[(Phase, Op)]) -> Result<Session, String> {
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    let mut writer = stream;
    let received = AtomicU64::new(0);
    let reader_done = AtomicBool::new(false);
    let replies: Mutex<Vec<Reply>> = Mutex::new(Vec::with_capacity(script.len() + 1));
    let total = script.len() + 1;
    let lines: Vec<String> = script.iter().map(|(_, op)| op.line() + "\n").collect();

    let (due, mut sent, write_error) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut reader = BufReader::new(read_half);
            let mut line = String::new();
            for _ in 0..total {
                line.clear();
                // Acknowledge every reply at once. With delayed ACKs the
                // daemon's Nagle-enabled socket would hold each reply
                // until the next request carried the ACK, quantizing
                // latency to the request gap.
                let _ = reader.get_ref().set_quickack(true);
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        let at = Instant::now();
                        let fields = parse_object(line.trim()).unwrap_or_default();
                        replies.lock().expect("reply log poisoned").push(Reply {
                            at: Some(at),
                            fields,
                        });
                        received.fetch_add(1, Ordering::Release);
                    }
                }
            }
            reader_done.store(true, Ordering::Release);
        });

        let mut due = Vec::with_capacity(script.len());
        let mut sent = Vec::with_capacity(script.len() + 1);
        let await_replies = |upto: u64| {
            while received.load(Ordering::Acquire) < upto && !reader_done.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        };
        let mut phase_start = Instant::now();
        let mut k = 0u32;
        let mut write_error = None;
        for (i, ((phase, _), line)) in script.iter().zip(&lines).enumerate() {
            if i == 0 || script[i - 1].0 != *phase {
                // Phases never overlap: the previous one drains first.
                await_replies(i as u64);
                phase_start = Instant::now();
                k = 0;
            }
            let when = match phase.rate() {
                Some(rate) => {
                    let when = phase_start + Duration::from_secs_f64(f64::from(k) / rate);
                    if let Some(wait) = when.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    when
                }
                None => {
                    await_replies((i as u64 + 1).saturating_sub(phase.window()));
                    Instant::now()
                }
            };
            k += 1;
            let now = Instant::now();
            due.push(when.min(now));
            sent.push(now);
            if let Err(e) = writer.write_all(line.as_bytes()) {
                write_error = Some(format!("send: {e}"));
                break;
            }
        }
        await_replies(sent.len() as u64);
        let mut status_sent = None;
        if write_error.is_none() {
            status_sent = Some(Instant::now());
            if let Err(e) = writer.write_all(b"{\"op\":\"status\"}\n") {
                write_error = Some(format!("send status: {e}"));
            }
        }
        await_replies(sent.len() as u64 + 1);
        let _ = writer.shutdown(std::net::Shutdown::Write);
        reader.join().expect("reader thread panicked");
        if let Some(at) = status_sent {
            sent.push(at);
        }
        (due, sent, write_error)
    });
    if write_error.is_some() && sent.is_empty() {
        return Err(write_error.unwrap_or_default());
    }
    let mut ops: Vec<&str> = script.iter().map(|(_, op)| op.name()).collect();
    ops.truncate(due.len());
    let status_sent = sent.len() > due.len();
    if status_sent {
        ops.push("status");
    }
    let mut replies = match_replies(
        &ops,
        &sent,
        replies.into_inner().expect("reply log poisoned"),
    );
    let status = if status_sent {
        replies.pop().unwrap_or_default()
    } else {
        Reply::default()
    };
    sent.truncate(due.len());
    Ok(Session {
        due,
        sent,
        replies,
        status,
    })
}

/// Rejections the admission actor writes at once, ahead of the replies
/// still queued at the state keeper; every other reply comes back in
/// request order.
const ADMISSION_REJECTIONS: &[&str] = &["queue_full", "unavailable", "line_too_long", "parse"];

/// Pairs replies (in arrival order) with requests (`ops`, sent at
/// `sent`): an admission rejection answers the latest request of its op
/// sent before it arrived; the other replies answer the remaining
/// requests in order. Unanswered requests get an empty reply.
fn match_replies(ops: &[&str], sent: &[Instant], replies: Vec<Reply>) -> Vec<Reply> {
    let mut matched: Vec<Option<Reply>> = vec![None; ops.len()];
    let mut in_order = Vec::with_capacity(replies.len());
    for reply in replies {
        if !reply
            .error()
            .is_some_and(|e| ADMISSION_REJECTIONS.contains(&e))
        {
            in_order.push(reply);
            continue;
        }
        let op = reply
            .fields
            .get("op")
            .and_then(JsonValue::as_str)
            .unwrap_or("");
        let at = reply.at.unwrap_or_else(Instant::now);
        let target = (0..ops.len())
            .rev()
            .find(|&i| matched[i].is_none() && sent[i] <= at && ops[i] == op);
        if let Some(i) = target {
            matched[i] = Some(reply);
        }
    }
    let mut free = (0..ops.len())
        .filter(|&i| matched[i].is_none())
        .collect::<Vec<_>>()
        .into_iter();
    for reply in in_order {
        if let Some(i) = free.next() {
            matched[i] = Some(reply);
        }
    }
    matched.into_iter().map(Option::unwrap_or_default).collect()
}

/// Acks of OK submits as the daemon reported them, in arrival order.
fn acks(session: &Session) -> Vec<Ack> {
    session
        .replies
        .iter()
        .filter(|r| r.ok() && r.fields.get("op").and_then(JsonValue::as_str) == Some("submit"))
        .map(|r| Ack {
            seq: r.num("seq").unwrap_or(f64::NAN) as u64,
            t: r.num("slot").unwrap_or(f64::NAN) as u64,
            job: r.num("job").unwrap_or(f64::NAN) as usize,
            count: r.num("count").unwrap_or(f64::NAN),
        })
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Each phase is cut into this many windows of consecutive requests; the
/// reported figure is the best window (see [`best`]).
const WINDOWS: usize = 8;

/// Per-phase results of a live session (best window).
#[derive(Debug, Default)]
struct Live {
    ack_p50_ms: BTreeMap<Phase, f64>,
    ack_p99_ms: BTreeMap<Phase, f64>,
    late_p50_ms: BTreeMap<Phase, f64>,
    late_p99_ms: BTreeMap<Phase, f64>,
    sat_rate: f64,
    burst_rate: f64,
    burst_p50_us: f64,
    burst_p99_us: f64,
    queue_full: u64,
}

impl Live {
    /// The p50 (or, with `p99`, the p99) ack latency of an open-loop
    /// phase; a phase that never ran reads as failed.
    fn ack_ms(&self, phase: Phase, p99: bool) -> f64 {
        let map = if p99 {
            &self.ack_p99_ms
        } else {
            &self.ack_p50_ms
        };
        map.get(&phase).copied().unwrap_or(FAILED_MS)
    }
}

/// `items` cut into [`WINDOWS`] runs of consecutive elements.
fn windows<T>(items: &[T]) -> impl Iterator<Item = &[T]> {
    let n = items.len();
    (0..WINDOWS)
        .map(move |k| &items[k * n / WINDOWS..(k + 1) * n / WINDOWS])
        .filter(|w| !w.is_empty())
}

fn analyze(script: &[(Phase, Op)], s: &Session, out: &mut Outcome) -> Live {
    let mut live = Live::default();
    out.attempted += script.len() as u64 + 1;
    out.failed += (script.len() - s.sent.len()) as u64;
    let mut by_phase: BTreeMap<Phase, Vec<usize>> = BTreeMap::new();
    for (i, reply) in s.replies.iter().enumerate() {
        if !reply.ok() {
            out.failed += 1;
        }
        if reply.error() == Some("queue_full") {
            live.queue_full += 1;
        }
        by_phase.entry(script[i].0).or_default().push(i);
    }
    if !s.status.ok() {
        out.failed += 1;
    }
    let submit_ms = |i: usize| match (&script[i].1, s.replies[i].at) {
        (Op::Submit { .. }, Some(at)) if s.replies[i].ok() => Some(ms(at - s.due[i])),
        (Op::Submit { .. }, _) => Some(FAILED_MS),
        _ => None,
    };
    // From the first send to the last reply of a window.
    let elapsed = |w: &[usize]| {
        let first = s.sent[w[0]];
        let last = w
            .iter()
            .filter_map(|&i| s.replies[i].at)
            .max()
            .unwrap_or(first);
        (last - first).as_secs_f64().max(1e-9)
    };
    for (phase, idx) in &by_phase {
        let phase = *phase;
        match phase {
            Phase::Light | Phase::Busy => {
                let per_window: Vec<Vec<f64>> = windows(idx)
                    .map(|w| w.iter().filter_map(|&i| submit_ms(i)).collect())
                    .collect();
                let (p50, p99, n50, n99) = latency_percentiles(&per_window);
                live.ack_p50_ms.insert(phase, p50);
                live.ack_p99_ms.insert(phase, p99);
                let late: Vec<f64> = idx.iter().map(|&i| ms(s.sent[i] - s.due[i])).collect();
                live.late_p50_ms.insert(phase, quantile(&late, 0.5));
                live.late_p99_ms.insert(phase, quantile(&late, 0.99));
                out.note(format!(
                    "{}: {} windows of {} submits, ack p50 {:.3} ms (n={n50}) / p99 {:.3} ms \
                     (n={n99}), generator late p50 {:.3} ms / p99 {:.3} ms",
                    phase.label(),
                    per_window.len(),
                    per_window.first().map_or(0, Vec::len),
                    p50,
                    p99,
                    live.late_p50_ms[&phase],
                    live.late_p99_ms[&phase],
                ));
            }
            Phase::Saturation => {
                let rates: Vec<f64> = windows(idx)
                    .map(|w| {
                        let acked = w
                            .iter()
                            .filter(|&&i| {
                                matches!(script[i].1, Op::Submit { .. }) && s.replies[i].ok()
                            })
                            .count();
                        acked as f64 / elapsed(w)
                    })
                    .collect();
                live.sat_rate = best(&rates, Better::Higher);
            }
            Phase::Burst => {
                let rtt_us = |w: &[usize]| -> Vec<f64> {
                    w.iter()
                        .filter_map(|&i| {
                            s.replies[i]
                                .at
                                .map(|at| (at - s.sent[i]).as_secs_f64() * 1e6)
                        })
                        .collect()
                };
                let per_window: Vec<(Vec<f64>, f64)> = windows(idx)
                    .map(|w| (rtt_us(w), w.len() as f64 / elapsed(w)))
                    .collect();
                let rtts: Vec<Vec<f64>> = per_window.iter().map(|(l, _)| l.clone()).collect();
                let (p50, p99, _, _) = latency_percentiles(&rtts);
                live.burst_p50_us = p50;
                live.burst_p99_us = p99;
                let rates: Vec<f64> = per_window.iter().map(|(_, r)| *r).collect();
                live.burst_rate = best(&rates, Better::Higher);
            }
        }
    }
    // Latency is taken from the due time, so a late generator cannot
    // flatter the daemon; a generator that is late on most requests,
    // though, no longer offers the phase's rate.
    for phase in [Phase::Light, Phase::Busy] {
        let gap_ms = 1e3 / phase.rate().expect("open-loop phase");
        let late = live.late_p50_ms.get(&phase).copied().unwrap_or(0.0);
        if late > gap_ms {
            out.check(Err(format!(
                "invalid run: the generator ran {late:.3} ms late (median) in the {} phase, \
                 more than its {gap_ms} ms gap",
                phase.label()
            )));
        }
    }
    out.note(format!(
        "saturation: {:.0} OK acks/s with {WINDOW} in flight; burst: {:.1} slots/s, \
         advance p50 {:.0} us / p99 {:.0} us",
        live.sat_rate, live.burst_rate, live.burst_p50_us, live.burst_p99_us
    ));
    live
}

/// The daemon's engine, rebuilt in-process from the same flags.
fn engine_spec(seed: u64, hours: usize) -> EngineSpec {
    let scenario = PaperScenario::default().with_seed(seed);
    let config = scenario.config().clone();
    EngineSpec {
        config,
        base_inputs: scenario.into_inputs(hours),
        scheduler: SchedulerSpec::parse("grefar", V, BETA).expect("grefar scheduler"),
        admission_cap: None,
        faults: None,
        feeds: None,
        deadline_iters: None,
    }
}

fn entry_of(ack: &Ack) -> JournalEntry {
    JournalEntry {
        seq: ack.seq,
        t: ack.t,
        job: ack.job,
        count: ack.count,
    }
}

/// Replays the acknowledged submissions through a batch run for `slots`
/// slots: the schedule the daemon must have produced.
fn batch_replay(
    spec: &EngineSpec,
    acks: &[Ack],
    slots: u64,
    out: &mut Outcome,
) -> Result<(sim::RunValues, Vec<(f64, f64)>), String> {
    let entries: Vec<JournalEntry> = acks.iter().map(entry_of).collect();
    let mut run = spec.build(&entries, None)?;
    let mut null = NullObserver;
    for _ in 0..slots {
        run.step(&mut null);
    }
    let mut inputs = spec.base_inputs.clone();
    for a in acks {
        inputs.inject_arrivals(a.t as usize, a.job, a.count);
    }
    let bound = checks::occupancy_bound(&spec.config, &inputs.truncated(slots as usize), V, BETA);
    let values = sim::finish_checked(run, &mut null, BETA, bound, out);
    Ok(values)
}

/// The daemon's telemetry agrees slot by slot with the batch replay.
fn same_schedule(text: &str, expected: &[(f64, f64)]) -> Result<(), String> {
    let mut seen = 0usize;
    for line in text.lines() {
        let event = parse_object(line).map_err(|e| format!("daemon telemetry: {e}"))?;
        if event.get("event").and_then(JsonValue::as_str) != Some("slot") {
            continue;
        }
        let field = |k: &str| event.get(k).and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
        let t = field("t") as usize;
        let (energy, fairness) = *expected
            .get(t)
            .ok_or_else(|| format!("daemon telemetry: slot {t} past the replay"))?;
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + b.abs());
        if !close(field("energy"), energy) || !close(field("fairness"), fairness) {
            return Err(format!(
                "schedule: daemon slot {t} energy/fairness {}/{} but the batch replay has \
                 {energy}/{fairness}",
                field("energy"),
                field("fairness")
            ));
        }
        seen += 1;
    }
    if seen != expected.len() {
        return Err(format!(
            "daemon telemetry: {seen} slot events for {} executed slots",
            expected.len()
        ));
    }
    Ok(())
}

/// Runs `served-mixed`.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let dir = args
        .workdir
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = session(args, &dir, &mut out) {
        out.check(Err(e));
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn session(args: &Args, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let bin = args
        .daemon
        .as_deref()
        .ok_or("served-mixed needs --daemon PATH")?;
    let classes = PaperScenario::default().config().num_job_classes();
    let script = script(args.seed, classes, args.seconds);
    let advances = script.iter().filter(|(_, op)| *op == Op::Advance).count();
    let hours = advances + MIX_PERIOD;

    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SPAWNS {
        let (d, secs) = Daemon::spawn(bin, &dir.join(format!("spawn{i}")), args.seed, hours)?;
        setups.push(secs);
        if i + 1 < SPAWNS {
            d.drain()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("the measured daemon");
    out.metric("setup_s", median(&setups));

    let session = drive(daemon.connect()?, &script)?;
    let live = analyze(&script, &session, out);
    let acks = acks(&session);
    // The last checkpoint cut, where the daemon last trimmed its journal.
    let slot = session.status.num("slot").unwrap_or(-1.0) as u64;
    let cut_slot = slot / CHECKPOINT_EVERY * CHECKPOINT_EVERY;
    let admitted = session.status.num("admitted").unwrap_or(-1.0) as u64;
    out.check(checks::served_journal_conserves(
        &acks,
        admitted,
        &journal_path_for(&daemon.dir.join("run.ckpt")),
        cut_slot,
    ));
    let rss = peak_rss_mb(&daemon.child.id().to_string()).unwrap_or(0.0);
    let telemetry_path = daemon.dir.join("run.jsonl");
    let log_path = daemon.dir.join("daemon.log");
    out.check(daemon.drain());
    // Anything the daemon said on stderr (restarts, panics) goes to ours.
    let log = std::fs::read_to_string(&log_path).unwrap_or_default();
    for line in log.lines().filter(|l| !l.trim().is_empty()).take(20) {
        out.note(format!("daemon: {line}"));
    }

    let spec = engine_spec(args.seed, hours);
    let (values, per_slot) = batch_replay(&spec, &acks, slot, out)?;
    let text = std::fs::read_to_string(&telemetry_path).map_err(|e| e.to_string())?;
    out.check(same_schedule(&text, &per_slot));

    if args.trace {
        traced(args, &script, &session, &live, &acks, dir, &values, out)?;
    } else {
        out.metric("peak_rss_mb", rss);
        out.metric("slots_per_s", live.burst_rate);
        out.metric("slot_p50_us", live.burst_p50_us);
        out.metric("avg_cost", values.avg_cost);
        out.metric("mean_delay_slots", values.mean_delay);
        out.metric("ack_p50_ms.light", live.ack_ms(Phase::Light, false));
        out.metric("ack_p50_ms.busy", live.ack_ms(Phase::Busy, false));
        out.metric("max_submits_per_s", live.sat_rate);
    }
    Ok(())
}

/// Replays the live session's requests through the layers' public
/// functions and reports the per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    script: &[(Phase, Op)],
    session: &Session,
    live: &Live,
    acks: &[Ack],
    dir: &Path,
    expected: &sim::RunValues,
    out: &mut Outcome,
) -> Result<(), String> {
    let replay_dir = dir.join("replay");
    std::fs::create_dir_all(&replay_dir).map_err(|e| e.to_string())?;
    let ckpt = replay_dir.join("run.ckpt");
    let mut journal = Journal::open(&journal_path_for(&ckpt)).map_err(|e| e.to_string())?;
    let hours = script.iter().filter(|(_, op)| *op == Op::Advance).count() + MIX_PERIOD;
    let t0 = Instant::now();
    let spec = engine_spec(args.seed, hours);
    let inputs_s = t0.elapsed().as_secs_f64();
    let mut run: SteppedRun = spec.build(&[], None)?;
    let log = SpanLog::shared();
    let mut obs = Traced::<NullObserver>::hooks_only(log.clone());
    let mut accepted: Vec<JournalEntry> = Vec::new();
    let mut acked = acks.iter();
    let (mut appends, mut advances, mut cuts) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    for ((_, op), reply) in script.iter().zip(&session.replies) {
        if !reply.ok() {
            continue;
        }
        let line = op.line();
        log.borrow_mut().next_root();
        log.borrow_mut().enter("served.parse");
        let parsed = protocol::parse_request(&line);
        log.borrow_mut().exit();
        if parsed.is_err() {
            return Err(format!(
                "replay: the daemon accepted {line} but it does not parse"
            ));
        }
        match op {
            Op::Submit { .. } => {
                let ack = acked.next().ok_or("replay: more OK submits than acks")?;
                let entry = entry_of(ack);
                log.borrow_mut().enter("journal.append");
                journal
                    .append(entry)
                    .map_err(|e| format!("replay journal: {e}"))?;
                log.borrow_mut().exit();
                log.borrow_mut().enter("sim.inject");
                run.inject_arrivals(entry.t, entry.job, entry.count)
                    .map_err(|e| format!("replay inject: {e}"))?;
                log.borrow_mut().exit();
                accepted.push(entry);
                appends += 1;
            }
            Op::Advance => {
                log.borrow_mut().enter("served.advance");
                log.borrow_mut().enter(sim::STEP);
                run.step(&mut obs);
                log.borrow_mut().exit();
                // The state keeper's cadence and trim: at each cut, keep
                // what a resume still needs.
                let slot = run.next_slot();
                if slot.is_multiple_of(CHECKPOINT_EVERY) {
                    log.borrow_mut().enter("checkpoint.append");
                    run.checkpoint()
                        .append(&ckpt)
                        .map_err(|e| format!("replay checkpoint: {e}"))?;
                    log.borrow_mut().exit();
                    let from = accepted
                        .iter()
                        .position(|e| e.t >= slot)
                        .unwrap_or(accepted.len().saturating_sub(1));
                    log.borrow_mut().enter("journal.rotate");
                    journal
                        .rotate(&accepted[from..])
                        .map_err(|e| format!("replay rotate: {e}"))?;
                    log.borrow_mut().exit();
                    cuts += 1;
                }
                log.borrow_mut().exit();
                advances += 1;
            }
            Op::Status => {}
        }
    }
    let loop_s = started.elapsed().as_secs_f64();
    let values = sim::finish_checked(run, &mut obs, BETA, None, out).0;
    out.check(checks::same(
        "avg_cost (replay)",
        expected.avg_cost,
        values.avg_cost,
    ));
    out.check(checks::same(
        "mean_delay_slots (replay)",
        expected.mean_delay,
        values.mean_delay,
    ));
    let pass = TracedPass::replay(log.clone(), values, loop_s);
    sim::layer_metrics(&log.borrow(), &pass, 1, out);
    sim::write_spans(&log.borrow(), &args.spans_path(), out);
    let sum = log.borrow().summarize();
    let service_ms = (sum.quantile_us("served.parse", 0.5)
        + sum.quantile_us("journal.append", 0.5)
        + sum.quantile_us("sim.inject", 0.5))
        / 1e3;
    // A journal append is one sync_data; a checkpoint cut syncs its
    // append, then the rotated journal and its directory.
    let fsyncs = appends + 3 * cuts;
    out.metric("trace.inputs_s", inputs_s);
    out.metric("tail.slot_p99_us", live.burst_p99_us);
    out.metric("tail.ack_p99_ms.light", live.ack_ms(Phase::Light, true));
    out.metric("tail.ack_p99_ms.busy", live.ack_ms(Phase::Busy, true));
    // The daemon runs uninstrumented in both modes: the per-layer times
    // come from the offline replay, so tracing adds nothing to the wire.
    out.metric("trace.overhead_frac", 0.0);
    out.metric("served.parse.p50_us", sum.quantile_us("served.parse", 0.5));
    out.metric(
        "served.journal.append_p50_us",
        sum.quantile_us("journal.append", 0.5),
    );
    out.metric(
        "served.journal.append_p99_us",
        sum.quantile_us("journal.append", 0.99),
    );
    out.metric(
        "served.journal.fsyncs_per_ack",
        fsyncs as f64 / appends.max(1) as f64,
    );
    out.metric("served.inject.p50_us", sum.quantile_us("sim.inject", 0.5));
    out.metric(
        "served.advance.p99_us",
        sum.quantile_us("served.advance", 0.99),
    );
    out.metric(
        "sim.checkpoint.write_p50_us",
        sum.quantile_us("checkpoint.append", 0.5),
    );
    out.metric("served.rejected.queue_full", live.queue_full as f64);
    out.metric(
        "served.wait.p50_ms.light",
        live.ack_ms(Phase::Light, false) - service_ms,
    );
    out.metric(
        "served.wait.p50_ms.busy",
        live.ack_ms(Phase::Busy, false) - service_ms,
    );
    out.metric(
        "served.gen_late_ms",
        live.late_p99_ms.values().copied().fold(0.0, f64::max),
    );
    out.note(format!(
        "replay: {appends} submits, {advances} advances, {cuts} checkpoint cuts"
    ));
    Ok(())
}

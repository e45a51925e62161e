//! The discrete-time simulation engine (§VI-A's "time-based simulator").

use std::path::{Path, PathBuf};

use crate::checkpoint::{Checkpoint, SeriesSnapshot};
use crate::error::SimError;
use crate::inputs::SimulationInputs;
use crate::report::{RunningSeries, SimulationReport};
use crate::tracker::JobTracker;
use grefar_core::{
    cost_breakdown, stale, JobLedger, QuadraticDeviation, QueueState, Scheduler, SolverBudget,
};
use grefar_faults::FaultPlan;
use grefar_ingest::{FeedHarness, FeedProfile};
use grefar_obs::{Event, NullObserver, Observer, Timer};
use grefar_types::{Grid, Slot, SystemConfig};

/// One simulation run: a scheduler against a frozen input horizon.
///
/// Each slot `t` executes the Algorithm-1 loop:
///
/// 1. observe the state `x(t)` and queues `Θ(t)`,
/// 2. ask the scheduler for the action `z(t)`,
/// 3. meter energy (2) and fairness (3),
/// 4. serve/route jobs at the job level ([`JobTracker`]),
/// 5. update the queues by (12)–(13) with the slot's arrivals `a(t)`.
///
/// # Fault injection
///
/// [`with_fault_plan`](Simulation::with_fault_plan) overlays a
/// deterministic [`FaultPlan`] on the run: data faults (outages,
/// availability collapses, price spikes/gaps, arrival bursts) rewrite the
/// frozen inputs up front, solver squeezes impose per-slot
/// [`SolverBudget`]s on the scheduler at run time, and each fault window's
/// opening emits a `fault.inject` telemetry event. Without a plan the run
/// is byte-identical to the unfaulted engine.
///
/// # Unreliable feeds
///
/// [`with_feed_profile`](Simulation::with_feed_profile) interposes the
/// `grefar-ingest` resilient feed layer between the frozen inputs and the
/// scheduler: every slot the scheduler acts on the layer's *estimated*
/// state (with retry/breaker/fallback semantics per the
/// [`FeedProfile`]) and the decision is repaired against the truth when
/// staleness made it infeasible (`grefar_core::stale`). Physics — queue
/// updates, metering, admission — always use the true inputs. Without a
/// profile the run is byte-identical to the plain engine.
///
/// # Checkpoint/resume
///
/// [`run_resumable`](Simulation::run_resumable) writes a schema-versioned
/// [`Checkpoint`] every `k` slots (atomically);
/// [`resume`](Simulation::resume) continues from one **bit-identically** —
/// the resumed report equals the uninterrupted run's exactly. Feed-client
/// state (breakers, caches) is not serialized: it evolves deterministically
/// from the profile and the frozen inputs alone, so resume replays it with
/// [`FeedHarness::fast_forward`].
///
/// # Example
/// See the [crate-level documentation](crate).
pub struct Simulation {
    config: SystemConfig,
    inputs: SimulationInputs,
    scheduler: Box<dyn Scheduler>,
    admission_cap: Option<f64>,
    queue_bound: Option<f64>,
    faults: Option<FaultPlan>,
    feeds: Option<FeedHarness>,
    deadline_iters: Option<usize>,
    corrupt_at: Option<(u64, f64)>,
}

impl core::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Simulation")
            .field("horizon", &self.inputs.horizon())
            .field("admission_cap", &self.admission_cap)
            .field("queue_bound", &self.queue_bound)
            .field("faults", &self.faults.as_ref().map(FaultPlan::spec))
            .field("feeds", &self.feeds.as_ref().map(|h| h.profile().spec()))
            .finish_non_exhaustive()
    }
}

/// Checkpointing (and optional crash-injection) policy for
/// [`Simulation::run_resumable`].
#[derive(Debug, Clone)]
pub struct RunPolicy {
    path: PathBuf,
    every: usize,
    kill_at: Option<u64>,
    kill_when: Option<fn() -> bool>,
}

impl RunPolicy {
    /// Checkpoint to `path` after every `every` slots.
    ///
    /// # Panics
    /// Panics if `every` is zero.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        Self {
            path: path.into(),
            every,
            kill_at: None,
            kill_when: None,
        }
    }

    /// Kill the run just before executing `slot`: a final checkpoint is
    /// written and the run returns [`SimError::Killed`]. This is the
    /// crash-injection half of the crash-recovery test — the process
    /// survives (buffers flush), but the run ends exactly as an abrupt
    /// death at that slot would leave it.
    #[must_use]
    pub fn with_kill_at(mut self, slot: u64) -> Self {
        self.kill_at = Some(slot);
        self
    }

    /// Kill the run at the next checkpoint boundary once `predicate`
    /// returns true: a final checkpoint is written and the run returns
    /// [`SimError::Killed`], resumable exactly like a [`with_kill_at`]
    /// cut. This is how the experiment binaries turn a latched `SIGTERM`
    /// into a graceful, resumable exit (the predicate is polled every
    /// `every` slots, the same cadence durability already costs).
    ///
    /// [`with_kill_at`]: RunPolicy::with_kill_at
    #[must_use]
    pub fn with_kill_when(mut self, predicate: fn() -> bool) -> Self {
        self.kill_when = Some(predicate);
        self
    }

    /// The checkpoint file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Everything the slot loop carries between slots — the unit a
/// [`Checkpoint`] captures.
struct RunState {
    next_slot: usize,
    queues: QueueState,
    tracker: JobTracker,
    energy: RunningSeries,
    fairness: RunningSeries,
    account_shares: Vec<RunningSeries>,
    work_per_dc: Vec<RunningSeries>,
    dc_delay: Vec<Vec<f64>>,
    prices: Vec<Vec<f64>>,
    arriving_work: RunningSeries,
    queue_total: Vec<f64>,
    queue_max: Vec<f64>,
    dropped: u64,
    ledger: JobLedger,
}

impl RunState {
    fn fresh(config: &SystemConfig) -> Self {
        let n = config.num_data_centers();
        Self {
            next_slot: 0,
            queues: QueueState::new(config),
            tracker: JobTracker::new(config),
            energy: RunningSeries::new(),
            fairness: RunningSeries::new(),
            account_shares: vec![RunningSeries::new(); config.num_accounts()],
            work_per_dc: vec![RunningSeries::new(); n],
            dc_delay: vec![Vec::new(); n],
            prices: vec![Vec::new(); n],
            arriving_work: RunningSeries::new(),
            queue_total: Vec::new(),
            queue_max: Vec::new(),
            dropped: 0,
            ledger: JobLedger::new(),
        }
    }

    fn from_checkpoint(config: &SystemConfig, ck: Checkpoint) -> Result<Self, SimError> {
        let n = config.num_data_centers();
        let j_count = config.num_job_classes();
        if ck.queues_local.len() != n
            || ck.queues_central.len() != j_count
            || ck.series.account_shares.len() != config.num_accounts()
            || ck.series.work_per_dc.len() != n
        {
            return Err(SimError::Mismatch(
                "checkpoint shape mismatches the configuration".to_string(),
            ));
        }
        let mut local = Grid::zeros(n, j_count);
        for (i, row) in ck.queues_local.iter().enumerate() {
            local.row_mut(i).copy_from_slice(row);
        }
        let queues =
            QueueState::from_parts(ck.queues_central, local).map_err(SimError::Mismatch)?;
        let tracker = JobTracker::from_snapshot(config, ck.tracker).map_err(SimError::Mismatch)?;
        let ledger = JobLedger::from_parts(
            ck.ledger.offered,
            ck.ledger.admitted,
            ck.ledger.dropped,
            ck.ledger.served,
            ck.ledger.route_excess,
        )
        .map_err(SimError::Mismatch)?;
        Ok(Self {
            next_slot: ck.slot as usize,
            queues,
            tracker,
            energy: RunningSeries::from_instant(ck.series.energy),
            fairness: RunningSeries::from_instant(ck.series.fairness),
            account_shares: ck
                .series
                .account_shares
                .into_iter()
                .map(RunningSeries::from_instant)
                .collect(),
            work_per_dc: ck
                .series
                .work_per_dc
                .into_iter()
                .map(RunningSeries::from_instant)
                .collect(),
            dc_delay: ck.series.dc_delay,
            prices: ck.series.prices,
            arriving_work: RunningSeries::from_instant(ck.series.arriving_work),
            queue_total: ck.series.queue_total,
            queue_max: ck.series.queue_max,
            dropped: ck.dropped,
            ledger,
        })
    }

    fn to_checkpoint(
        &self,
        horizon: usize,
        scheduler: &str,
        faults: &str,
        feeds: &str,
    ) -> Checkpoint {
        Checkpoint {
            slot: self.next_slot as u64,
            horizon: horizon as u64,
            scheduler: scheduler.to_string(),
            faults: faults.to_string(),
            feeds: feeds.to_string(),
            dropped: self.dropped,
            ledger: crate::checkpoint::LedgerSnapshot {
                offered: self.ledger.offered(),
                admitted: self.ledger.admitted(),
                dropped: self.ledger.dropped(),
                served: self.ledger.served(),
                route_excess: self.ledger.route_excess(),
            },
            queues_central: self.queues.central_slice().to_vec(),
            queues_local: (0..self.queues.local_grid().rows())
                .map(|i| self.queues.local_grid().row(i).to_vec())
                .collect(),
            tracker: self.tracker.snapshot(),
            series: SeriesSnapshot {
                energy: self.energy.instant().to_vec(),
                fairness: self.fairness.instant().to_vec(),
                account_shares: self
                    .account_shares
                    .iter()
                    .map(|s| s.instant().to_vec())
                    .collect(),
                work_per_dc: self
                    .work_per_dc
                    .iter()
                    .map(|s| s.instant().to_vec())
                    .collect(),
                dc_delay: self.dc_delay.clone(),
                prices: self.prices.clone(),
                arriving_work: self.arriving_work.instant().to_vec(),
                queue_total: self.queue_total.clone(),
                queue_max: self.queue_max.clone(),
            },
        }
    }

    fn into_report(self, scheduler: String, horizon: usize) -> SimulationReport {
        let n = self.dc_delay.len();
        let dc_delay_quantiles = (0..n).map(|i| self.tracker.dc_delay_quantiles(i)).collect();
        SimulationReport {
            scheduler,
            horizon,
            energy: self.energy,
            fairness: self.fairness,
            account_shares: self.account_shares,
            work_per_dc: self.work_per_dc,
            dc_delay: self.dc_delay,
            prices: self.prices,
            arriving_work: self.arriving_work,
            queue_total: self.queue_total,
            queue_max: self.queue_max,
            completions: self.tracker.stats(),
            dc_delay_quantiles,
            dropped_jobs: self.dropped,
        }
    }
}

impl Simulation {
    /// Creates a run.
    ///
    /// # Panics
    /// Panics if the inputs' shapes mismatch the configuration (use
    /// [`try_new`](Simulation::try_new) for a typed error instead).
    pub fn new(
        config: SystemConfig,
        inputs: SimulationInputs,
        scheduler: Box<dyn Scheduler>,
    ) -> Self {
        match Self::try_new(config, inputs, scheduler) {
            Ok(sim) => sim,
            // verify: allow(no-panic): documented `# Panics` constructor contract; try_new is the typed-error path
            Err(err) => panic!("{err}"),
        }
    }

    /// Creates a run, reporting shape mismatches as a typed error.
    ///
    /// # Errors
    /// [`SimError::Mismatch`] if the inputs' data-center or job-class
    /// counts disagree with the configuration.
    pub fn try_new(
        config: SystemConfig,
        inputs: SimulationInputs,
        scheduler: Box<dyn Scheduler>,
    ) -> Result<Self, SimError> {
        if inputs.state(0).num_data_centers() != config.num_data_centers() {
            return Err(SimError::Mismatch(format!(
                "inputs have {} data centers, configuration has {}",
                inputs.state(0).num_data_centers(),
                config.num_data_centers()
            )));
        }
        if inputs.arrivals(0).len() != config.num_job_classes() {
            return Err(SimError::Mismatch(format!(
                "inputs have {} job classes, configuration has {}",
                inputs.arrivals(0).len(),
                config.num_job_classes()
            )));
        }
        Ok(Self {
            config,
            inputs,
            scheduler,
            admission_cap: None,
            queue_bound: None,
            faults: None,
            feeds: None,
            deadline_iters: None,
            corrupt_at: None,
        })
    }

    /// Declares the inputs Theorem-1 admissible with queue bound
    /// `bound = V·C3/δ` (eq. (23); compute it with
    /// `grefar_core::theory::TheoryBounds::queue_bound`). Under the
    /// `strict-invariants` feature the run then asserts, every slot, that no
    /// queue exceeds the bound — in the default build the value is recorded
    /// but not enforced.
    ///
    /// # Panics
    /// Panics if `bound` is negative or non-finite.
    #[must_use]
    pub fn with_queue_bound(mut self, bound: f64) -> Self {
        assert!(
            bound.is_finite() && bound >= 0.0,
            "queue bound must be non-negative"
        );
        self.queue_bound = Some(bound);
        self
    }

    /// Enables admission control (§V-B: "in the worst case where the data
    /// center is overloaded, admission control techniques can be applied"):
    /// arrivals that would push a central queue beyond `cap` are dropped
    /// and counted in [`SimulationReport::dropped_jobs`].
    ///
    /// # Panics
    /// Panics if `cap` is negative or non-finite.
    #[must_use]
    pub fn with_admission_cap(mut self, cap: f64) -> Self {
        assert!(cap.is_finite() && cap >= 0.0, "cap must be non-negative");
        self.admission_cap = Some(cap);
        self
    }

    /// Overlays a fault plan: applies its data faults to the frozen inputs
    /// and registers it for run-time effects (solver budgets,
    /// `fault.inject` events). See the
    /// [type-level docs](Simulation#fault-injection).
    ///
    /// # Errors
    /// [`SimError::Mismatch`] if the plan references data centers or job
    /// classes the system does not have.
    pub fn with_fault_plan(self, plan: FaultPlan) -> Result<Self, SimError> {
        let Self {
            config,
            inputs,
            scheduler,
            admission_cap,
            queue_bound,
            faults: _,
            feeds,
            deadline_iters,
            corrupt_at,
        } = self;
        plan.validate_for(config.num_data_centers(), config.num_job_classes())
            .map_err(|e| SimError::Mismatch(e.to_string()))?;
        let inputs = inputs
            .with_faults(&plan)
            .map_err(|e| SimError::Mismatch(e.to_string()))?;
        Ok(Self {
            config,
            inputs,
            scheduler,
            admission_cap,
            queue_bound,
            faults: Some(plan),
            feeds,
            deadline_iters,
            corrupt_at,
        })
    }

    /// Interposes the resilient feed layer: the scheduler now acts on the
    /// profile's estimated state instead of the truth. See the
    /// [type-level docs](Simulation#unreliable-feeds). A
    /// [perfect](FeedProfile::is_perfect) profile short-circuits to the
    /// plain path, keeping output byte-identical to a run without one.
    ///
    /// # Errors
    /// [`SimError::Mismatch`] if the profile targets data centers the
    /// system does not have.
    pub fn with_feed_profile(mut self, profile: FeedProfile) -> Result<Self, SimError> {
        let harness = FeedHarness::new(profile, self.config.num_data_centers())
            .map_err(|e| SimError::Mismatch(e.to_string()))?;
        self.feeds = Some(harness);
        Ok(self)
    }

    /// Adds `count` jobs of class `job` to slot `t`'s arrivals, *after*
    /// any fault transformation — the journal-replay hook of
    /// `grefar-served`. A restarted daemon rebuilds its simulation (same
    /// seed, same fault plan), replays every journaled submission through
    /// here, and only then resumes from its checkpoint; because live
    /// submissions also land post-fault, the replayed inputs are
    /// bit-identical to the uninterrupted run's.
    ///
    /// # Panics
    /// Panics if `t` is past the horizon, `job` is out of range, or
    /// `count` is negative or non-finite.
    pub fn inject_arrivals(&mut self, t: usize, job: usize, count: f64) {
        self.inputs.inject_arrivals(t, job, count);
    }

    /// The scheduler's self-reported name (what `run.start` will carry).
    pub fn scheduler_name(&self) -> String {
        self.scheduler.name()
    }

    /// The frozen inputs this run will execute against (already
    /// fault-transformed when a plan is set).
    pub fn inputs(&self) -> &SimulationInputs {
        &self.inputs
    }

    /// The fault plan in force, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The feed profile in force, if any.
    pub fn feed_profile(&self) -> Option<&FeedProfile> {
        self.feeds.as_ref().map(FeedHarness::profile)
    }

    /// Test-only mutation hook: right after slot `slot`'s queue update,
    /// add `delta` jobs to central queue 0 behind the physics' back. The
    /// `grefar-soak` mutation self-check uses this to prove the
    /// conservation-ledger oracle detects a corrupted queue update; never
    /// call it outside tests.
    #[doc(hidden)]
    pub fn corrupt_queue_for_test(&mut self, slot: u64, delta: f64) {
        self.corrupt_at = Some((slot, delta));
    }

    /// Runs the whole horizon and returns the report.
    pub fn run(mut self) -> SimulationReport {
        self.run_with_observer(&mut NullObserver)
    }

    /// Runs the whole horizon, streaming telemetry (`run.start`, one `slot`
    /// per step, scheduler-internal events, `run.end`) to `obs`. With a
    /// [`NullObserver`] this is exactly [`run`](Simulation::run): every
    /// event construction and clock read is guarded by
    /// [`Observer::enabled`], so the disabled path stays on the hot loop's
    /// original cost.
    ///
    /// Takes `&mut self` (rather than consuming) so sweep runners can reuse
    /// a built simulation; the report is identical either way.
    pub fn run_with_observer(&mut self, obs: &mut dyn Observer) -> SimulationReport {
        let horizon = self.inputs.horizon();
        let run_timer = Timer::start();
        let mut rs = RunState::fresh(&self.config);
        self.emit_run_start(obs);
        self.run_span(&mut rs, horizon, obs);
        self.emit_run_end(&rs, &run_timer, obs);
        rs.into_report(self.scheduler.name(), horizon)
    }

    /// Like [`run_with_observer`], but checkpointing per `policy`, and
    /// honoring its crash injection.
    ///
    /// # Errors
    /// [`SimError::Killed`] when the policy's kill slot is reached (the
    /// checkpoint has been written), or a checkpoint I/O error.
    pub fn run_resumable(
        &mut self,
        obs: &mut dyn Observer,
        policy: &RunPolicy,
    ) -> Result<SimulationReport, SimError> {
        let rs = RunState::fresh(&self.config);
        self.drive(rs, obs, Some(policy))
    }

    /// Resumes a checkpointed run, continuing bit-identically to the
    /// uninterrupted execution. The simulation must be built from the same
    /// configuration, inputs (same seed!), scheduler and fault plan as the
    /// original run; `run.start` is not re-emitted, so appending the
    /// resumed telemetry to the truncated original yields one contiguous
    /// stream. Pass a `policy` to keep checkpointing during the remainder.
    ///
    /// # Errors
    /// [`SimError::Mismatch`] when the checkpoint disagrees with this
    /// simulation (horizon, scheduler, fault plan or shapes), plus the
    /// [`run_resumable`](Simulation::run_resumable) errors when a policy is
    /// given.
    pub fn resume(
        &mut self,
        checkpoint: Checkpoint,
        obs: &mut dyn Observer,
        policy: Option<&RunPolicy>,
    ) -> Result<SimulationReport, SimError> {
        self.checkpoint_preflight(&checkpoint)?;
        let rs = RunState::from_checkpoint(&self.config, checkpoint)?;
        self.drive(rs, obs, policy)
    }

    /// Validates a checkpoint against this simulation and replays the feed
    /// layer up to its slot — the shared front half of
    /// [`resume`](Simulation::resume) and [`SteppedRun::resume`].
    fn checkpoint_preflight(&mut self, checkpoint: &Checkpoint) -> Result<(), SimError> {
        let horizon = self.inputs.horizon();
        if checkpoint.horizon as usize != horizon {
            return Err(SimError::Mismatch(format!(
                "checkpoint horizon {} but inputs have {horizon} slots",
                checkpoint.horizon
            )));
        }
        if checkpoint.slot as usize > horizon {
            return Err(SimError::Mismatch(format!(
                "checkpoint is at slot {} beyond the horizon {horizon}",
                checkpoint.slot
            )));
        }
        let name = self.scheduler.name();
        if checkpoint.scheduler != name {
            return Err(SimError::Mismatch(format!(
                "checkpoint was written by {:?}, this run uses {name:?}",
                checkpoint.scheduler
            )));
        }
        let spec = self
            .faults
            .as_ref()
            .map(FaultPlan::spec)
            .unwrap_or_default();
        if checkpoint.faults != spec {
            return Err(SimError::Mismatch(format!(
                "checkpoint fault plan {:?} differs from this run's {spec:?}",
                checkpoint.faults
            )));
        }
        let feed_spec = self.feed_spec();
        if checkpoint.feeds != feed_spec {
            return Err(SimError::Mismatch(format!(
                "checkpoint feed profile {:?} differs from this run's {feed_spec:?}",
                checkpoint.feeds
            )));
        }
        // Feed-client state (breakers, caches) is deterministic in the
        // profile and frozen inputs: replay it up to the checkpoint slot.
        if let Some(harness) = &mut self.feeds {
            harness.fast_forward(
                self.inputs.states(),
                self.inputs.all_arrivals(),
                checkpoint.slot,
            );
        }
        Ok(())
    }

    fn feed_spec(&self) -> String {
        self.feeds
            .as_ref()
            .map(|h| h.profile().spec())
            .unwrap_or_default()
    }

    /// The shared driver: runs `rs` to the horizon in checkpoint-bounded
    /// spans. The slot loop itself is infallible; errors only arise at
    /// span boundaries (checkpoint writes, crash injection).
    fn drive(
        &mut self,
        mut rs: RunState,
        obs: &mut dyn Observer,
        policy: Option<&RunPolicy>,
    ) -> Result<SimulationReport, SimError> {
        let horizon = self.inputs.horizon();
        let run_timer = Timer::start();
        if rs.next_slot == 0 {
            self.emit_run_start(obs);
        }
        loop {
            let mut until = horizon;
            let mut kill = false;
            if let Some(p) = policy {
                until = until.min((rs.next_slot / p.every + 1) * p.every);
                if let Some(k) = p.kill_at {
                    let k = k as usize;
                    if k >= rs.next_slot && k < until && k < horizon {
                        until = k;
                    }
                    kill = k == until && k < horizon;
                }
            }
            self.run_span(&mut rs, until, obs);
            if let Some(p) = policy {
                let signaled =
                    rs.next_slot < horizon && p.kill_when.is_some_and(|predicate| predicate());
                if kill || signaled {
                    self.write_checkpoint(&rs, p, obs)?;
                    return Err(SimError::Killed {
                        slot: rs.next_slot as u64,
                        checkpoint: p.path.clone(),
                    });
                }
                if rs.next_slot < horizon {
                    self.write_checkpoint(&rs, p, obs)?;
                }
            }
            if rs.next_slot >= horizon {
                break;
            }
        }
        self.emit_run_end(&rs, &run_timer, obs);
        Ok(rs.into_report(self.scheduler.name(), horizon))
    }

    fn write_checkpoint(
        &self,
        rs: &RunState,
        policy: &RunPolicy,
        obs: &mut dyn Observer,
    ) -> Result<(), SimError> {
        let spec = self
            .faults
            .as_ref()
            .map(FaultPlan::spec)
            .unwrap_or_default();
        let profiling = obs.profiling();
        if profiling {
            obs.span_enter("checkpoint.write");
        }
        let result = rs
            .to_checkpoint(
                self.inputs.horizon(),
                &self.scheduler.name(),
                &spec,
                &self.feed_spec(),
            )
            .write(&policy.path);
        if profiling {
            obs.span_exit("checkpoint.write");
        }
        if result.is_ok() && obs.enabled() {
            obs.record_event(Event::new("checkpoint.write").field("t", rs.next_slot as u64));
            obs.add_counter("checkpoint.writes", 1);
        }
        result
    }

    fn emit_run_start(&mut self, obs: &mut dyn Observer) {
        if obs.enabled() {
            obs.record_event(
                Event::new("run.start")
                    .field("scheduler", self.scheduler.name())
                    .field("horizon", self.inputs.horizon())
                    .field("data_centers", self.config.num_data_centers())
                    .field("job_classes", self.config.num_job_classes()),
            );
        }
    }

    fn emit_run_end(&mut self, rs: &RunState, run_timer: &Timer, obs: &mut dyn Observer) {
        if obs.enabled() {
            obs.record_event(
                Event::new("run.end")
                    .field("slots", self.inputs.horizon())
                    .field("completed", rs.tracker.stats().completed_total)
                    .field("dropped", rs.dropped)
                    .field("wall_us", run_timer.elapsed_micros()),
            );
        }
    }

    /// Executes slots `rs.next_slot .. until` of the Algorithm-1 loop.
    /// Infallible: every slot yields a decision (the scheduler's fallback
    /// chain guarantees one) and every update is total.
    fn run_span(&mut self, rs: &mut RunState, until: usize, obs: &mut dyn Observer) {
        let work = self.config.work_vector();
        for t in rs.next_slot..until {
            self.step_slot(rs, t, &work, obs);
        }
        rs.next_slot = rs.next_slot.max(until);
    }

    /// Executes exactly slot `t` of the Algorithm-1 loop — the single
    /// stepping core shared by the batch simulator ([`run_span`]) and the
    /// live daemon ([`SteppedRun`]), so both produce the identical
    /// telemetry and state trajectory.
    fn step_slot(&mut self, rs: &mut RunState, t: usize, work: &[f64], obs: &mut dyn Observer) {
        let fairness_fn = QuadraticDeviation;
        let telemetry = obs.enabled();
        let profiling = obs.profiling();
        {
            if profiling {
                obs.span_enter("slot");
            }
            let slot_timer = if telemetry {
                Some(Timer::start())
            } else {
                None
            };
            if let Some(plan) = &self.faults {
                if telemetry {
                    for fault in plan.starting_at(t as u64) {
                        obs.record_event(fault_inject_event(fault, t as u64));
                        obs.add_counter("faults.injected", 1);
                    }
                }
            }
            // The slot's iteration budget is the tighter of any active
            // squeeze fault and the daemon's per-slot deadline budget.
            let squeeze = self
                .faults
                .as_ref()
                .and_then(|plan| plan.fw_budget_at(t as u64));
            if self.faults.is_some() || self.deadline_iters.is_some() {
                let budget = match (squeeze, self.deadline_iters) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                self.scheduler
                    .set_solver_budget(budget.map(SolverBudget::fw_iters));
            }
            let dropped_before = rs.dropped;
            let state = self.inputs.state(t);
            // With a feed layer the scheduler sees the layer's *estimate*
            // and the decision is repaired against the truth; metering and
            // queue physics below always use the true `state`.
            let decision = match &mut self.feeds {
                Some(harness) => {
                    if profiling {
                        obs.span_enter("feed.fetch");
                    }
                    let estimated = harness.observe(
                        t as u64,
                        self.inputs.states(),
                        self.inputs.all_arrivals(),
                        obs,
                    );
                    if profiling {
                        obs.span_exit("feed.fetch");
                        obs.span_enter("decide");
                    }
                    let decision = stale::decide_estimated(
                        self.scheduler.as_mut(),
                        &self.config,
                        &estimated,
                        state,
                        &rs.queues,
                        obs,
                    );
                    if profiling {
                        obs.span_exit("decide");
                    }
                    decision
                }
                None => {
                    if profiling {
                        obs.span_enter("decide");
                    }
                    let decision = self.scheduler.decide_observed(state, &rs.queues, obs);
                    if profiling {
                        obs.span_exit("decide");
                    }
                    decision
                }
            };
            debug_assert!(decision.is_nonnegative() && decision.is_finite());

            // Metering (energy (2), fairness (3)) — β only weighs the two
            // into g; record the components themselves.
            let breakdown = cost_breakdown(&self.config, state, &decision, 0.0, &fairness_fn);
            rs.energy.push(breakdown.energy);
            rs.fairness.push(breakdown.fairness);
            for (series, &share) in rs.account_shares.iter_mut().zip(&breakdown.shares) {
                series.push(share);
            }
            for (i, series) in rs.work_per_dc.iter_mut().enumerate() {
                series.push(decision.work_processed(i, work));
            }
            for (i, series) in rs.prices.iter_mut().enumerate() {
                series.push(state.data_center(i).price());
            }

            // Job-level execution, then queue dynamics (12)–(13).
            if profiling {
                obs.span_enter("queue.update");
            }
            rs.tracker.step(t as Slot, &decision);
            let raw_arrivals = self.inputs.arrivals(t);
            // Admission control trims a copy; without a cap the slot's
            // arrivals are used in place.
            let admitted;
            let arrivals: &[f64] = match self.admission_cap {
                None => raw_arrivals,
                Some(cap) => {
                    let mut trimmed = raw_arrivals.to_vec();
                    for (j, a) in trimmed.iter_mut().enumerate() {
                        // Queue after this slot's routing:
                        let after_route =
                            (rs.queues.central(j) - decision.routed.col_sum(j)).max(0.0);
                        let room = (cap - after_route).max(0.0).floor();
                        if *a > room {
                            rs.dropped += (*a - room).round() as u64;
                            *a = room;
                        }
                    }
                    admitted = trimmed;
                    &admitted
                }
            };
            rs.tracker.arrive(t as Slot, arrivals);
            #[cfg(feature = "strict-invariants")]
            let prev_queues = rs.queues.clone();
            // Conservation ledger: account the slot's effective flows
            // against the pre-update queues, then apply the dynamics.
            rs.ledger
                .account(&rs.queues, &decision, raw_arrivals, arrivals);
            rs.queues.apply(&decision, arrivals);
            if profiling {
                obs.span_exit("queue.update");
            }

            // `strict-invariants`: the realized transition must match the
            // dynamics (12)-(13) exactly, and on a declared-admissible trace
            // every queue must respect the Theorem 1(a) bound.
            #[cfg(feature = "strict-invariants")]
            {
                use grefar_core::invariant;
                let check = invariant::check_queue_update(
                    &self.config,
                    &prev_queues,
                    &decision,
                    arrivals,
                    &rs.queues,
                )
                .and_then(|()| match self.queue_bound {
                    Some(bound) => invariant::check_queue_bound(&rs.queues, bound),
                    None => Ok(()),
                })
                .and_then(|()| rs.ledger.check(&rs.queues));
                if let Err(violation) = check {
                    if obs.enabled() {
                        obs.record_event(violation.event(t as u64));
                    }
                    // verify: allow(no-panic): strict-invariants enforcement aborts by design after emitting the violation event
                    panic!("strict-invariants: slot {t}: {violation}");
                }
            }

            // The job tracker and the (12)–(13) queues must agree whenever
            // the scheduler respects backlogs (all built-in ones do). A
            // run carrying the test corruption hook is deliberately broken
            // past the corruption slot, so the cross-check stands down.
            #[cfg(debug_assertions)]
            if self.corrupt_at.is_none() {
                for j in 0..self.config.num_job_classes() {
                    debug_assert!(
                        (rs.queues.central(j) - rs.tracker.central_backlog(j)).abs() < 1e-6,
                        "slot {t}: central queue {j} diverged"
                    );
                    for i in 0..self.config.num_data_centers() {
                        debug_assert!(
                            (rs.queues.local(i, j) - rs.tracker.local_backlog(i, j)).abs() < 1e-6,
                            "slot {t}: local queue ({i},{j}) diverged"
                        );
                    }
                }
            }

            // Test-only corruption (see `corrupt_queue_for_test`): strikes
            // after the physics so the recorded series and the ledger
            // event below observe the tampered state.
            if let Some((slot, delta)) = self.corrupt_at {
                if slot == t as u64 {
                    rs.queues.corrupt_central_for_test(0, delta);
                }
            }

            rs.arriving_work.push(
                raw_arrivals
                    .iter()
                    .zip(work)
                    .map(|(a, d)| a * d)
                    .sum::<f64>(),
            );
            rs.queue_total.push(rs.queues.total());
            rs.queue_max.push(rs.queues.max_len());
            for (i, series) in rs.dc_delay.iter_mut().enumerate() {
                let (count, sum) = rs.tracker.dc_delay_accumulator(i);
                series.push(if count > 0 { sum / count as f64 } else { 0.0 });
            }

            if let Some(timer) = slot_timer {
                let elapsed = timer.elapsed();
                let central: f64 = (0..self.config.num_job_classes())
                    .map(|j| rs.queues.central(j))
                    .sum();
                let arrivals_total: f64 = raw_arrivals.iter().sum();
                let dropped_now = rs.dropped - dropped_before;
                obs.record_event(
                    Event::new("slot")
                        .field("t", t)
                        .field("queue_central", central)
                        .field("queue_local", rs.queues.total() - central)
                        .field("queue_max", rs.queues.max_len())
                        .field("energy", breakdown.energy)
                        .field("fairness", breakdown.fairness)
                        .field("arrivals", arrivals_total)
                        .field("dropped", dropped_now)
                        .field(
                            "wall_us",
                            u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
                        ),
                );
                obs.record_event(rs.ledger.event(t as u64, rs.queues.total()));
                obs.record_duration("slot.wall_us", elapsed);
                obs.record_value("queue.total", rs.queues.total());
                obs.add_counter("slots", 1);
                obs.add_counter("arrivals", arrivals_total.round() as u64);
                if dropped_now > 0 {
                    obs.add_counter("admission_cap.hits", 1);
                    obs.add_counter("dropped", dropped_now);
                }
                obs.set_gauge("queue.max", rs.queues.max_len());
            }
            if profiling {
                obs.span_exit("slot");
            }
            rs.next_slot = t + 1;
        }
    }
}

/// A slot-by-slot handle on one run: the same Algorithm-1 stepping core
/// the batch [`Simulation`] drives, exposed one slot at a time so a
/// long-running process (`grefar-served`) can interleave the loop with
/// live admission, checkpointing and a real-time clock.
///
/// Invariants shared with the batch path:
///
/// * [`step`](SteppedRun::step) executes exactly the slot the simulator
///   would — identical telemetry, identical state trajectory;
/// * [`checkpoint`](SteppedRun::checkpoint) captures the identical
///   [`Checkpoint`] a [`RunPolicy`] cut would, so a `kill -9`'d daemon
///   resumes bit-identically ([`SteppedRun::resume`]);
/// * live submissions enter through
///   [`inject_arrivals`](SteppedRun::inject_arrivals) *before* their slot
///   executes, so replaying an admission journal onto the same frozen
///   base reproduces the exact same run.
pub struct SteppedRun {
    sim: Simulation,
    rs: RunState,
    timer: Timer,
    started: bool,
}

impl SteppedRun {
    /// Wraps a built simulation for stepping, starting at slot 0.
    /// `run.start` is emitted on the first [`step`](SteppedRun::step).
    pub fn new(sim: Simulation) -> Self {
        let rs = RunState::fresh(&sim.config);
        Self {
            sim,
            rs,
            timer: Timer::start(),
            started: false,
        }
    }

    /// Resumes stepping from a checkpoint, continuing bit-identically to
    /// the uninterrupted run (same validation and feed replay as
    /// [`Simulation::resume`]; `run.start` is not re-emitted).
    ///
    /// # Errors
    /// [`SimError::Mismatch`] when the checkpoint disagrees with this
    /// simulation (horizon, scheduler, fault plan, feed profile, shapes).
    pub fn resume(mut sim: Simulation, checkpoint: Checkpoint) -> Result<Self, SimError> {
        sim.checkpoint_preflight(&checkpoint)?;
        let rs = RunState::from_checkpoint(&sim.config, checkpoint)?;
        Ok(Self {
            sim,
            rs,
            timer: Timer::start(),
            started: true,
        })
    }

    /// The next slot to execute (also the slot a checkpoint cut now would
    /// record).
    pub fn next_slot(&self) -> u64 {
        self.rs.next_slot as u64
    }

    /// The run's full horizon in slots.
    pub fn horizon(&self) -> u64 {
        self.sim.inputs.horizon() as u64
    }

    /// Whether every slot of the horizon has executed.
    pub fn is_done(&self) -> bool {
        self.rs.next_slot >= self.sim.inputs.horizon()
    }

    /// The scheduler's self-reported name.
    pub fn scheduler_name(&self) -> String {
        self.sim.scheduler.name()
    }

    /// Jobs dropped by admission control so far.
    pub fn dropped(&self) -> u64 {
        self.rs.dropped
    }

    /// The current total queued work Σ Θ(t).
    pub fn queue_total(&self) -> f64 {
        self.rs.queues.total()
    }

    /// The largest single queue backlog `max Q` observed over executed
    /// slots — the quantity Theorem 1(a) bounds, exposed so a per-slot
    /// occupancy oracle can compare it against the analytic bound without
    /// waiting for the final report.
    pub fn queue_peak(&self) -> f64 {
        self.rs.queue_max.iter().copied().fold(0.0f64, f64::max)
    }

    /// The run's cumulative job-conservation ledger.
    pub fn ledger(&self) -> &JobLedger {
        &self.rs.ledger
    }

    /// Forwards [`Simulation::corrupt_queue_for_test`] — the soak
    /// harness's mutation self-check hook.
    #[doc(hidden)]
    pub fn corrupt_queue_for_test(&mut self, slot: u64, delta: f64) {
        self.sim.corrupt_queue_for_test(slot, delta);
    }

    /// Adds `count` jobs of class `job` to slot `t`'s arrivals. The slot
    /// must not have executed yet.
    ///
    /// # Errors
    /// [`SimError::Mismatch`] when `t` already executed or is past the
    /// horizon, `job` is out of range, or `count` is not a non-negative
    /// finite number.
    pub fn inject_arrivals(&mut self, t: u64, job: usize, count: f64) -> Result<(), SimError> {
        if t < self.rs.next_slot as u64 {
            return Err(SimError::Mismatch(format!(
                "slot {t} already executed (next is {})",
                self.rs.next_slot
            )));
        }
        if t >= self.sim.inputs.horizon() as u64 {
            return Err(SimError::Mismatch(format!(
                "slot {t} past the horizon {}",
                self.sim.inputs.horizon()
            )));
        }
        if job >= self.sim.config.num_job_classes() {
            return Err(SimError::Mismatch(format!(
                "job class {job} out of range (system has {})",
                self.sim.config.num_job_classes()
            )));
        }
        if !(count.is_finite() && count >= 0.0) {
            return Err(SimError::Mismatch(format!(
                "arrival count must be non-negative and finite, got {count}"
            )));
        }
        self.sim.inputs.inject_arrivals(t as usize, job, count);
        Ok(())
    }

    /// Caps the scheduler's per-slot Frank–Wolfe iterations (the daemon's
    /// slot-deadline budget); active squeeze faults tighten it further.
    /// `None` removes the cap.
    pub fn set_deadline_budget(&mut self, max_fw_iters: Option<usize>) {
        self.sim.deadline_iters = max_fw_iters;
    }

    /// Executes the next slot, streaming its telemetry to `obs`. Returns
    /// `false` (without stepping) once the horizon is exhausted. The first
    /// call of a fresh (non-resumed) run emits `run.start` first.
    pub fn step(&mut self, obs: &mut dyn Observer) -> bool {
        if self.is_done() {
            return false;
        }
        if !self.started {
            self.sim.emit_run_start(obs);
            self.started = true;
        }
        let t = self.rs.next_slot;
        let work = self.sim.config.work_vector();
        self.sim.step_slot(&mut self.rs, t, &work, obs);
        true
    }

    /// Captures the current state as a [`Checkpoint`] (identical to the
    /// cut a [`RunPolicy`] would write at this slot).
    pub fn checkpoint(&self) -> Checkpoint {
        let faults = self
            .sim
            .faults
            .as_ref()
            .map(FaultPlan::spec)
            .unwrap_or_default();
        self.rs.to_checkpoint(
            self.sim.inputs.horizon(),
            &self.sim.scheduler.name(),
            &faults,
            &self.sim.feed_spec(),
        )
    }

    /// Finishes the run: emits `run.end` (with the *executed* slot count,
    /// which equals the horizon when the run completed) and folds the
    /// accumulated state into the report.
    pub fn finish(self, obs: &mut dyn Observer) -> SimulationReport {
        if obs.enabled() {
            obs.record_event(
                Event::new("run.end")
                    .field("slots", self.rs.next_slot)
                    .field("completed", self.rs.tracker.stats().completed_total)
                    .field("dropped", self.rs.dropped)
                    .field("wall_us", self.timer.elapsed_micros()),
            );
        }
        let horizon = self.sim.inputs.horizon();
        self.rs.into_report(self.sim.scheduler.name(), horizon)
    }
}

/// Renders a fault window's opening as a `fault.inject` telemetry event.
fn fault_inject_event(fault: &grefar_faults::Fault, t: u64) -> Event {
    let mut event = Event::new("fault.inject")
        .field("t", t)
        .field("kind", fault.label())
        .field("start", fault.start)
        .field("end", fault.end);
    if let Some(dc) = fault.dc() {
        event = event.field("dc", dc);
    }
    if let Some(job) = fault.job() {
        event = event.field("job", job);
    }
    if let Some(magnitude) = fault.magnitude() {
        event = event.field("magnitude", magnitude);
    }
    event
}

#[cfg(test)]
mod tests {
    use super::*;
    use grefar_cluster::{AvailabilityProcess, FullAvailability};
    use grefar_core::{Always, GreFar, GreFarParams};
    use grefar_obs::MemoryObserver;
    use grefar_trace::{ConstantPrice, ConstantWorkload, PriceProcess};
    use grefar_types::{DataCenterId, JobClass, ServerClass};

    fn config() -> SystemConfig {
        SystemConfig::builder()
            .server_class(ServerClass::new(1.0, 1.0))
            .data_center("a", vec![10.0])
            .account("x", 1.0)
            .job_class(
                JobClass::new(1.0, vec![DataCenterId::new(0)], 0)
                    .with_max_arrivals(4.0)
                    .with_max_route(8.0)
                    .with_max_process(20.0),
            )
            .build()
            .unwrap()
    }

    fn inputs(cfg: &SystemConfig, horizon: usize, price: f64, rate: f64) -> SimulationInputs {
        let mut prices: Vec<Box<dyn PriceProcess + Send>> = vec![Box::new(ConstantPrice(price))];
        let mut avail: Vec<Box<dyn AvailabilityProcess + Send>> = vec![Box::new(FullAvailability)];
        let mut workload = ConstantWorkload::new(vec![rate]);
        SimulationInputs::generate(cfg, horizon, 1, &mut prices, &mut avail, &mut workload)
    }

    #[test]
    fn always_achieves_delay_one_and_serves_everything() {
        let cfg = config();
        let inp = inputs(&cfg, 200, 0.5, 3.0);
        let report = Simulation::new(cfg.clone(), inp, Box::new(Always::new(&cfg))).run();
        // 3 jobs/slot × ~198 completions; energy = 3 work × 0.5 = 1.5/slot.
        assert!(report.completions.completed_total >= 3 * 190);
        assert!((report.average_energy_cost() - 1.5).abs() < 0.1);
        assert!((report.average_dc_delay(0) - 1.0).abs() < 1e-9);
        assert_eq!(report.dropped_jobs, 0);
        assert_eq!(report.scheduler, "Always");
    }

    #[test]
    fn grefar_defers_under_constant_high_price_until_queue_threshold() {
        let cfg = config();
        let inp = inputs(&cfg, 300, 1.0, 2.0);
        // V = 10 → threshold q/d > V·φ·p/s = 10.
        let g = GreFar::new(&cfg, GreFarParams::new(10.0, 0.0)).unwrap();
        let report = Simulation::new(cfg.clone(), inp, Box::new(g)).run();
        // The queue builds to ≈ threshold, then serves at arrival rate.
        // Delay is therefore well above Always's 1.
        assert!(
            report.average_dc_delay(0) > 2.0,
            "{}",
            report.average_dc_delay(0)
        );
        // Long-run service keeps up with arrivals (rate stability).
        let served: f64 = report.work_per_dc[0].instant().iter().sum();
        assert!(served >= 2.0 * 260.0, "served {served}");
        // Queue stays bounded (well under the Theorem 1 bound; the exact
        // O(V) scaling is exercised by the theory integration tests).
        assert!(
            report.max_queue_length() <= 40.0,
            "{}",
            report.max_queue_length()
        );
    }

    #[test]
    fn grefar_energy_cost_never_exceeds_always_under_same_inputs() {
        let cfg = config();
        let inp = inputs(&cfg, 400, 0.7, 2.0);
        let always = Simulation::new(cfg.clone(), inp.clone(), Box::new(Always::new(&cfg))).run();
        let grefar = Simulation::new(
            cfg.clone(),
            inp,
            Box::new(GreFar::new(&cfg, GreFarParams::new(5.0, 0.0)).unwrap()),
        )
        .run();
        // Constant price: same work must eventually be served at the same
        // price, but GreFar never serves *more* total energy than Always.
        assert!(
            grefar.average_energy_cost() <= always.average_energy_cost() + 1e-9,
            "GreFar {} vs Always {}",
            grefar.average_energy_cost(),
            always.average_energy_cost()
        );
    }

    #[test]
    fn admission_control_drops_overload() {
        let cfg = config();
        // Capacity 10, arrivals 4/slot — fine; but cap the queue at 2.
        let inp = inputs(&cfg, 100, 5.0, 4.0);
        let g = GreFar::new(&cfg, GreFarParams::new(50.0, 0.0)).unwrap();
        let report = Simulation::new(cfg.clone(), inp, Box::new(g))
            .with_admission_cap(2.0)
            .run();
        assert!(report.dropped_jobs > 0);
        assert!(report.max_queue_length() <= 2.0 + 4.0); // cap + one slot's arrivals
    }

    #[test]
    fn report_series_have_full_horizon() {
        let cfg = config();
        let inp = inputs(&cfg, 50, 0.4, 1.0);
        let report = Simulation::new(cfg.clone(), inp, Box::new(Always::new(&cfg))).run();
        assert_eq!(report.horizon, 50);
        assert_eq!(report.energy.len(), 50);
        assert_eq!(report.fairness.len(), 50);
        assert_eq!(report.dc_delay[0].len(), 50);
        assert_eq!(report.prices[0].len(), 50);
        assert_eq!(report.queue_total.len(), 50);
        assert_eq!(report.num_data_centers(), 1);
    }

    #[test]
    fn try_new_reports_shape_mismatch() {
        let cfg = config();
        let other = SystemConfig::builder()
            .server_class(ServerClass::new(1.0, 1.0))
            .data_center("a", vec![10.0])
            .data_center("b", vec![10.0])
            .account("x", 1.0)
            .job_class(JobClass::new(
                1.0,
                vec![DataCenterId::new(0), DataCenterId::new(1)],
                0,
            ))
            .build()
            .unwrap();
        let inp = inputs(&cfg, 10, 0.5, 1.0);
        let err = Simulation::try_new(other, inp, Box::new(Always::new(&cfg))).unwrap_err();
        assert!(matches!(err, SimError::Mismatch(_)));
    }

    #[test]
    fn full_outage_run_completes_degrades_and_recovers() {
        let cfg = config();
        let inp = inputs(&cfg, 120, 0.5, 2.0);
        let plan = FaultPlan::parse("outage:dc=0,start=30,end=40").unwrap();
        let g = GreFar::new(&cfg, GreFarParams::new(1.0, 0.0)).unwrap();
        let mut sim = Simulation::new(cfg, inp, Box::new(g))
            .with_fault_plan(plan)
            .unwrap();
        let mut obs = MemoryObserver::new();
        let report = sim.run_with_observer(&mut obs);
        // The fault window opening is announced, the offline DC reported.
        assert_eq!(obs.event_count("fault.inject"), 1);
        assert!(obs.event_count("degraded.mode") > 0);
        // Queues pile up during the outage and drain afterwards.
        let peak = report.queue_total.iter().cloned().fold(0.0f64, f64::max);
        let final_q = *report.queue_total.last().unwrap();
        assert!(peak >= 10.0, "outage should grow the backlog, peak {peak}");
        assert!(
            final_q < peak / 2.0,
            "backlog should recover, final {final_q}"
        );
    }

    #[test]
    fn without_fault_plan_no_fault_events_are_emitted() {
        let cfg = config();
        let inp = inputs(&cfg, 50, 0.5, 2.0);
        let g = GreFar::new(&cfg, GreFarParams::new(1.0, 0.0)).unwrap();
        let mut sim = Simulation::new(cfg, inp, Box::new(g));
        let mut obs = MemoryObserver::new();
        sim.run_with_observer(&mut obs);
        assert_eq!(obs.event_count("fault.inject"), 0);
        assert_eq!(obs.event_count("degraded.mode"), 0);
    }

    #[test]
    fn fault_plan_rejects_out_of_range_targets() {
        let cfg = config();
        let inp = inputs(&cfg, 10, 0.5, 1.0);
        let plan = FaultPlan::parse("outage:dc=7,start=0,end=5").unwrap();
        let g = GreFar::new(&cfg, GreFarParams::new(1.0, 0.0)).unwrap();
        let err = Simulation::new(cfg, inp, Box::new(g))
            .with_fault_plan(plan)
            .unwrap_err();
        assert!(matches!(err, SimError::Mismatch(_)));
    }

    #[test]
    fn kill_and_resume_reproduce_the_uninterrupted_run_exactly() {
        let cfg = config();
        let inp = inputs(&cfg, 120, 0.8, 2.0);
        let make = |cfg: &SystemConfig| {
            Box::new(GreFar::new(cfg, GreFarParams::new(5.0, 0.0)).unwrap()) as Box<dyn Scheduler>
        };
        let full = Simulation::new(cfg.clone(), inp.clone(), make(&cfg)).run();

        let dir = std::env::temp_dir().join(format!("grefar-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt.jsonl");
        let policy = RunPolicy::new(&path, 25).with_kill_at(60);
        let mut killed = Simulation::new(cfg.clone(), inp.clone(), make(&cfg));
        match killed.run_resumable(&mut NullObserver, &policy) {
            Err(SimError::Killed { slot: 60, .. }) => {}
            other => panic!("expected kill at 60, got {other:?}"),
        }

        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!(ck.slot, 60);
        let mut resumed_sim = Simulation::new(cfg.clone(), inp, make(&cfg));
        let resumed = resumed_sim.resume(ck, &mut NullObserver, None).unwrap();
        assert_eq!(resumed, full, "resume must be bit-identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_when_predicate_cuts_at_the_next_checkpoint_boundary() {
        use std::sync::atomic::{AtomicBool, Ordering};
        static SIGNALED: AtomicBool = AtomicBool::new(false);
        fn signaled() -> bool {
            SIGNALED.load(Ordering::SeqCst)
        }

        let cfg = config();
        let inp = inputs(&cfg, 120, 0.8, 2.0);
        let make = |cfg: &SystemConfig| {
            Box::new(GreFar::new(cfg, GreFarParams::new(5.0, 0.0)).unwrap()) as Box<dyn Scheduler>
        };
        let full = Simulation::new(cfg.clone(), inp.clone(), make(&cfg)).run();

        let dir = std::env::temp_dir().join(format!("grefar-killwhen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt.jsonl");

        // Predicate false for the whole run: completes normally.
        SIGNALED.store(false, Ordering::SeqCst);
        let policy = RunPolicy::new(&path, 25).with_kill_when(signaled);
        let mut quiet = Simulation::new(cfg.clone(), inp.clone(), make(&cfg));
        let report = quiet.run_resumable(&mut NullObserver, &policy).unwrap();
        assert_eq!(report, full);

        // Predicate already true: the run is cut at the first checkpoint
        // boundary (slot 25, not slot 0 — the span in flight finishes).
        SIGNALED.store(true, Ordering::SeqCst);
        let mut cut = Simulation::new(cfg.clone(), inp.clone(), make(&cfg));
        match cut.run_resumable(&mut NullObserver, &policy) {
            Err(SimError::Killed { slot: 25, .. }) => {}
            other => panic!("expected signal cut at 25, got {other:?}"),
        }

        // And the cut is an ordinary checkpoint: resume reproduces the
        // uninterrupted run exactly.
        SIGNALED.store(false, Ordering::SeqCst);
        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!(ck.slot, 25);
        let mut resumed_sim = Simulation::new(cfg.clone(), inp, make(&cfg));
        let resumed = resumed_sim.resume(ck, &mut NullObserver, None).unwrap();
        assert_eq!(resumed, full, "signal cut + resume must be bit-identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_mismatched_runs() {
        let cfg = config();
        let inp = inputs(&cfg, 40, 0.5, 2.0);
        let dir = std::env::temp_dir().join(format!("grefar-resume-mm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt.jsonl");
        let policy = RunPolicy::new(&path, 10).with_kill_at(10);
        let g = GreFar::new(&cfg, GreFarParams::new(5.0, 0.0)).unwrap();
        let mut sim = Simulation::new(cfg.clone(), inp.clone(), Box::new(g));
        assert!(sim.run_resumable(&mut NullObserver, &policy).is_err());
        let ck = Checkpoint::load(&path).unwrap();

        // Different scheduler: refuse to resume.
        let mut other = Simulation::new(cfg.clone(), inp.clone(), Box::new(Always::new(&cfg)));
        assert!(matches!(
            other.resume(ck.clone(), &mut NullObserver, None),
            Err(SimError::Mismatch(_))
        ));
        // Different horizon: refuse to resume.
        let g = GreFar::new(&cfg, GreFarParams::new(5.0, 0.0)).unwrap();
        let mut short = Simulation::new(cfg.clone(), inp.truncated(20), Box::new(g));
        assert!(matches!(
            short.resume(ck, &mut NullObserver, None),
            Err(SimError::Mismatch(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn perfect_feed_profile_is_byte_identical_to_plain_run() {
        let cfg = config();
        let inp = inputs(&cfg, 80, 0.6, 2.0);
        let make = |cfg: &SystemConfig| {
            Box::new(GreFar::new(cfg, GreFarParams::new(5.0, 0.0)).unwrap()) as Box<dyn Scheduler>
        };
        let plain = Simulation::new(cfg.clone(), inp.clone(), make(&cfg)).run();
        let mut with_feeds = Simulation::new(cfg.clone(), inp, make(&cfg))
            .with_feed_profile(FeedProfile::perfect())
            .unwrap();
        let mut obs = MemoryObserver::new();
        let report = with_feeds.run_with_observer(&mut obs);
        assert_eq!(report, plain, "perfect feeds must not change the run");
        assert_eq!(obs.event_count("state.stale"), 0);
        assert_eq!(obs.event_count("feed.fetch"), 0);
        assert_eq!(obs.event_count("feed.breaker"), 0);
    }

    #[test]
    fn lossy_feeds_run_completes_and_reports_staleness() {
        let cfg = config();
        let inp = inputs(&cfg, 120, 0.6, 2.0);
        let profile = FeedProfile::parse(
            "drop:feed=price,p=0.5,start=0,end=120;\
             outage:feed=avail,dc=0,start=30,end=40;\
             policy:seed=9,retries=1",
        )
        .unwrap();
        let g = GreFar::new(&cfg, GreFarParams::new(5.0, 0.0)).unwrap();
        let mut sim = Simulation::new(cfg.clone(), inp, Box::new(g))
            .with_feed_profile(profile)
            .unwrap();
        let mut obs = MemoryObserver::new();
        let report = sim.run_with_observer(&mut obs);
        // The run finishes the whole horizon with feasible decisions (the
        // engine debug-asserts feasibility every slot) while degradation is
        // visible in telemetry.
        assert_eq!(report.horizon, 120);
        assert!(obs.event_count("state.stale") > 0, "stale slots expected");
        assert!(obs.counter("feed.failures") > 0, "drops must be recorded");
        // Work still gets served: hold-last of a constant price/availability
        // estimates the truth well, so throughput survives the lossy feed.
        assert!(report.completions.completed_total > 0);
    }

    #[test]
    fn kill_and_resume_with_feeds_reproduce_the_uninterrupted_run_exactly() {
        let cfg = config();
        let inp = inputs(&cfg, 120, 0.8, 2.0);
        let spec = "drop:feed=price,p=0.4,start=0,end=120;policy:seed=3";
        let make = |cfg: &SystemConfig| {
            Simulation::new(
                cfg.clone(),
                inputs(cfg, 120, 0.8, 2.0),
                Box::new(GreFar::new(cfg, GreFarParams::new(5.0, 0.0)).unwrap())
                    as Box<dyn Scheduler>,
            )
            .with_feed_profile(FeedProfile::parse(spec).unwrap())
            .unwrap()
        };
        let _ = inp;
        let full = make(&cfg).run();

        let dir = std::env::temp_dir().join(format!("grefar-feed-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt.jsonl");
        let policy = RunPolicy::new(&path, 25).with_kill_at(60);
        let mut killed = make(&cfg);
        match killed.run_resumable(&mut NullObserver, &policy) {
            Err(SimError::Killed { slot: 60, .. }) => {}
            other => panic!("expected kill at 60, got {other:?}"),
        }

        let ck = Checkpoint::load(&path).unwrap();
        // The checkpoint stores the canonical (fully-spelled) spec.
        assert_eq!(ck.feeds, FeedProfile::parse(spec).unwrap().spec());
        // Resuming under a *different* profile is refused.
        let g = GreFar::new(&cfg, GreFarParams::new(5.0, 0.0)).unwrap();
        let mut plain = Simulation::new(cfg.clone(), inputs(&cfg, 120, 0.8, 2.0), Box::new(g));
        assert!(matches!(
            plain.resume(ck.clone(), &mut NullObserver, None),
            Err(SimError::Mismatch(_))
        ));
        // The matching profile resumes bit-identically: breaker and cache
        // state is replayed by fast_forward, not serialized.
        let mut resumed_sim = make(&cfg);
        let resumed = resumed_sim.resume(ck, &mut NullObserver, None).unwrap();
        assert_eq!(resumed, full, "feed-layer resume must be bit-identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stepped_run_matches_batch_run_event_for_event() {
        let cfg = config();
        let make = |cfg: &SystemConfig| {
            Simulation::new(
                cfg.clone(),
                inputs(cfg, 90, 0.8, 2.0),
                Box::new(GreFar::new(cfg, GreFarParams::new(5.0, 0.0)).unwrap())
                    as Box<dyn Scheduler>,
            )
            .with_fault_plan(FaultPlan::parse("outage:dc=0,start=20,end=30").unwrap())
            .unwrap()
        };
        // A capturing sink: full event stream with the wall-clock timing
        // field blanked (the only nondeterministic payload).
        #[derive(Default)]
        struct Recorder(Vec<String>);
        impl Observer for Recorder {
            fn record_event(&mut self, event: Event) {
                let mut line = event.to_json();
                if let Some(at) = line.find("\"wall_us\":") {
                    let tail = &line[at..];
                    let stop = tail.find([',', '}']).map_or(line.len(), |rel| at + rel);
                    line.replace_range(at..stop, "\"wall_us\":0");
                }
                self.0.push(line);
            }
        }

        let mut batch_obs = Recorder::default();
        let batch = make(&cfg).run_with_observer(&mut batch_obs);

        let mut stepped = SteppedRun::new(make(&cfg));
        let mut stepped_obs = Recorder::default();
        assert_eq!(stepped.horizon(), 90);
        while stepped.step(&mut stepped_obs) {}
        assert!(stepped.is_done());
        assert!(!stepped.step(&mut stepped_obs), "done run must not step");
        let report = stepped.finish(&mut stepped_obs);
        assert_eq!(report, batch, "stepped report must equal batch report");

        // Same events, same order, same payloads.
        assert!(!batch_obs.0.is_empty());
        assert_eq!(batch_obs.0, stepped_obs.0);
    }

    #[test]
    fn stepped_checkpoint_resumes_bit_identically() {
        let cfg = config();
        let make = |cfg: &SystemConfig| {
            Simulation::new(
                cfg.clone(),
                inputs(cfg, 80, 0.7, 2.0),
                Box::new(GreFar::new(cfg, GreFarParams::new(5.0, 0.0)).unwrap())
                    as Box<dyn Scheduler>,
            )
        };
        let full = make(&cfg).run();

        let mut first = SteppedRun::new(make(&cfg));
        for _ in 0..33 {
            assert!(first.step(&mut NullObserver));
        }
        let ck = first.checkpoint();
        assert_eq!(ck.slot, 33);
        // The stepped cut parses through the same JSONL format.
        let ck = Checkpoint::parse(&ck.to_jsonl()).unwrap();
        let mut second = SteppedRun::resume(make(&cfg), ck).unwrap();
        assert_eq!(second.next_slot(), 33);
        while second.step(&mut NullObserver) {}
        assert_eq!(
            second.finish(&mut NullObserver),
            full,
            "stepped resume must be bit-identical"
        );
    }

    #[test]
    fn stepped_injection_validates_and_replays_deterministically() {
        let cfg = config();
        let make = |cfg: &SystemConfig| {
            Simulation::new(
                cfg.clone(),
                inputs(cfg, 40, 0.6, 1.0),
                Box::new(Always::new(cfg)) as Box<dyn Scheduler>,
            )
        };
        let submissions = [
            (5u64, 0usize, 2.0),
            (12, 0, 3.0),
            (12, 0, 1.0),
            (39, 0, 4.0),
        ];

        let mut live = SteppedRun::new(make(&cfg));
        for &(t, job, count) in &submissions {
            live.inject_arrivals(t, job, count).unwrap();
        }
        while live.step(&mut NullObserver) {}
        let live_report = live.finish(&mut NullObserver);

        // Replaying the same submissions onto the same base reproduces the
        // exact run — the property the daemon's admission journal rests on.
        let mut replay = SteppedRun::new(make(&cfg));
        for &(t, job, count) in &submissions {
            replay.inject_arrivals(t, job, count).unwrap();
        }
        while replay.step(&mut NullObserver) {}
        assert_eq!(replay.finish(&mut NullObserver), live_report);
        // More work arrived than the base workload alone carries.
        let base = make(&cfg).run();
        assert!(
            live_report.completions.completed_total > base.completions.completed_total,
            "injected arrivals must add completions"
        );

        // Typed rejections: executed slots, bad slots, bad classes, bad
        // counts.
        let mut run = SteppedRun::new(make(&cfg));
        assert!(run.step(&mut NullObserver));
        assert!(matches!(
            run.inject_arrivals(0, 0, 1.0),
            Err(SimError::Mismatch(_))
        ));
        assert!(matches!(
            run.inject_arrivals(40, 0, 1.0),
            Err(SimError::Mismatch(_))
        ));
        assert!(matches!(
            run.inject_arrivals(5, 9, 1.0),
            Err(SimError::Mismatch(_))
        ));
        assert!(matches!(
            run.inject_arrivals(5, 0, f64::NAN),
            Err(SimError::Mismatch(_))
        ));
        assert!(matches!(
            run.inject_arrivals(5, 0, -1.0),
            Err(SimError::Mismatch(_))
        ));
    }

    #[test]
    fn stepped_deadline_budget_degrades_instead_of_overrunning() {
        // Same setup as the squeeze test, but the cap arrives through the
        // daemon's deadline-budget path.
        let cfg = SystemConfig::builder()
            .server_class(ServerClass::new(1.0, 1.0))
            .data_center("a", vec![30.0])
            .account("x", 0.5)
            .account("y", 0.5)
            .job_class(
                JobClass::new(1.0, vec![DataCenterId::new(0)], 0)
                    .with_max_arrivals(5.0)
                    .with_max_route(10.0)
                    .with_max_process(30.0),
            )
            .job_class(
                JobClass::new(1.0, vec![DataCenterId::new(0)], 1)
                    .with_max_arrivals(5.0)
                    .with_max_route(10.0)
                    .with_max_process(30.0),
            )
            .build()
            .unwrap();
        let mut prices: Vec<Box<dyn PriceProcess + Send>> = vec![Box::new(ConstantPrice(0.5))];
        let mut avail: Vec<Box<dyn AvailabilityProcess + Send>> = vec![Box::new(FullAvailability)];
        let mut workload = ConstantWorkload::new(vec![4.0, 1.0]);
        let inp = SimulationInputs::generate(&cfg, 30, 1, &mut prices, &mut avail, &mut workload);
        let g = GreFar::new(&cfg, GreFarParams::new(1.0, 500.0)).unwrap();
        let mut run = SteppedRun::new(Simulation::new(cfg, inp, Box::new(g)));
        run.set_deadline_budget(Some(1));
        let mut obs = MemoryObserver::new();
        while run.step(&mut obs) {}
        assert!(
            obs.event_count("degraded.mode") > 0,
            "a 1-iteration deadline budget must force the fallback chain"
        );
    }

    #[test]
    fn solver_squeeze_budget_reaches_the_scheduler() {
        // β > 0 forces Frank–Wolfe; a 1-iteration squeeze forces the greedy
        // fallback, which the telemetry must report.
        let cfg = SystemConfig::builder()
            .server_class(ServerClass::new(1.0, 1.0))
            .data_center("a", vec![30.0])
            .account("x", 0.5)
            .account("y", 0.5)
            .job_class(
                JobClass::new(1.0, vec![DataCenterId::new(0)], 0)
                    .with_max_arrivals(5.0)
                    .with_max_route(10.0)
                    .with_max_process(30.0),
            )
            .job_class(
                JobClass::new(1.0, vec![DataCenterId::new(0)], 1)
                    .with_max_arrivals(5.0)
                    .with_max_route(10.0)
                    .with_max_process(30.0),
            )
            .build()
            .unwrap();
        let mut prices: Vec<Box<dyn PriceProcess + Send>> = vec![Box::new(ConstantPrice(0.5))];
        let mut avail: Vec<Box<dyn AvailabilityProcess + Send>> = vec![Box::new(FullAvailability)];
        let mut workload = ConstantWorkload::new(vec![4.0, 1.0]);
        let inp = SimulationInputs::generate(&cfg, 40, 1, &mut prices, &mut avail, &mut workload);
        let plan = FaultPlan::parse("squeeze:start=10,end=20,iters=1").unwrap();
        let g = GreFar::new(&cfg, GreFarParams::new(1.0, 500.0)).unwrap();
        let mut sim = Simulation::new(cfg, inp, Box::new(g))
            .with_fault_plan(plan)
            .unwrap();
        let mut obs = MemoryObserver::new();
        sim.run_with_observer(&mut obs);
        assert!(obs.event_count("degraded.mode") > 0);
        assert_eq!(obs.event_count("fault.inject"), 1);
    }
}

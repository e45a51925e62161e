//! Job-level FIFO tracking for true per-job delay measurement.
//!
//! The queue dynamics (12)–(13) determine queue *lengths*; to measure the
//! per-job delays the paper plots (Fig. 2(b)(c), 3(c), 4(c)) the simulator
//! additionally tracks jobs individually. Jobs are served FIFO within each
//! (data center, job type) queue; because jobs may be suspended and resumed
//! (§III-B), the front job may be partially complete.
//!
//! Jobs that enter the same queue in the same slot cannot be told apart
//! under FIFO, so each queue stores *cohorts* — `(arrival, count)` centrally,
//! `(arrival, serviceable_from, count)` locally — plus the remaining
//! fraction of the local front job. Delays are whole slots, so completed
//! jobs are kept as a per-DC histogram keyed by delay. Both are exact:
//! serving `k` whole jobs of a cohort at once performs the same float
//! operations as `k` single-job steps (every operand is an integer-valued
//! `f64` below 2^53), and the histogram yields the same order statistics as
//! the sorted sample list. Memory is O(queued cohorts), not O(jobs seen).
//!
//! Timing convention (matching (12)–(13)): a job arriving during slot `t`
//! becomes visible in the central queue at `t+1`; a job routed at slot `u`
//! becomes serviceable in its data center at `u+1`; a job finishing during
//! slot `w` has data-center delay `w − (u+1) + 1 = w − u` and total sojourn
//! `w − t`. The "Always" baseline therefore yields a data-center delay of
//! exactly 1, as §VI-B.3 expects.

use crate::stats::Quantiles;
use grefar_types::{Decision, Slot, SystemConfig};
use std::collections::VecDeque;

/// A FIFO queue of cohorts: runs of `count` jobs sharing the key `K`.
/// Adjacent cohorts always have distinct keys, so the representation is
/// canonical.
#[derive(Debug, Clone, Default)]
struct Cohorts<K> {
    runs: VecDeque<(K, u64)>,
    jobs: u64,
}

impl<K: Copy + PartialEq> Cohorts<K> {
    fn push(&mut self, key: K, count: u64) {
        if count == 0 {
            return;
        }
        self.jobs += count;
        match self.runs.back_mut() {
            Some((last, n)) if *last == key => *n += count,
            _ => self.runs.push_back((key, count)),
        }
    }

    /// Removes up to `max` jobs from the front cohort.
    fn take_front(&mut self, max: u64) -> Option<(K, u64)> {
        let (key, n) = self.runs.front_mut()?;
        let key = *key;
        let taken = max.min(*n);
        *n -= taken;
        if *n == 0 {
            self.runs.pop_front();
        }
        self.jobs -= taken;
        Some((key, taken))
    }
}

/// A data-center queue: cohorts keyed by `(arrival, serviceable_from)`, and
/// the remaining fraction of the front job when it has been partly served.
#[derive(Debug, Clone, Default)]
struct LocalQueue {
    cohorts: Cohorts<(Slot, Slot)>,
    /// `Some(r)`, `r ∈ (0, 1)`, while the front job is suspended mid-way.
    partial: Option<f64>,
}

/// Aggregate completion statistics up to the current slot.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionStats {
    /// Jobs completed in each data center.
    pub completed_per_dc: Vec<u64>,
    /// Mean data-center delay (slots) of jobs completed in each data center
    /// (`NaN`-free: 0 when no completions).
    pub mean_dc_delay: Vec<f64>,
    /// Total completed jobs.
    pub completed_total: u64,
    /// Mean total sojourn (arrival to completion) over all completed jobs.
    pub mean_sojourn: f64,
}

/// Cohort-based FIFO tracker mirroring the queue dynamics.
#[derive(Debug, Clone)]
pub struct JobTracker {
    /// central[j]: jobs waiting at the central scheduler, keyed by arrival.
    central: Vec<Cohorts<Slot>>,
    /// local[i][j]: jobs waiting/executing in data center i.
    local: Vec<Vec<LocalQueue>>,
    completed_per_dc: Vec<u64>,
    dc_delay_sum: Vec<f64>,
    /// delay_hist[i][d]: jobs completed in data center i with delay d.
    delay_hist: Vec<Vec<u64>>,
    completed_total: u64,
    sojourn_sum: f64,
    /// Per-DC completions of the latest step (reused across slots).
    completions: Vec<u64>,
}

impl JobTracker {
    /// An empty tracker shaped for the system.
    pub fn new(config: &SystemConfig) -> Self {
        let n = config.num_data_centers();
        let j = config.num_job_classes();
        Self {
            central: vec![Cohorts::default(); j],
            local: vec![vec![LocalQueue::default(); j]; n],
            completed_per_dc: vec![0; n],
            dc_delay_sum: vec![0.0; n],
            delay_hist: vec![Vec::new(); n],
            completed_total: 0,
            sojourn_sum: 0.0,
            completions: vec![0; n],
        }
    }

    /// Jobs currently waiting at the central scheduler for type `j`
    /// (should equal `Q_j(t)` whenever decisions respect backlogs).
    pub fn central_backlog(&self, j: usize) -> f64 {
        self.central[j].jobs as f64
    }

    /// Job-units waiting in data center `i` for type `j`, counting the
    /// partially-served front job fractionally (should equal `q_{i,j}(t)`).
    pub fn local_backlog(&self, i: usize, j: usize) -> f64 {
        let queue = &self.local[i][j];
        match queue.cohorts.jobs {
            0 => 0.0,
            jobs => queue.partial.unwrap_or(1.0) + (jobs - 1) as f64,
        }
    }

    /// Whole jobs present in data center `i` for type `j` (a partially
    /// served job counts as one until it completes). Together with
    /// [`central_backlog`](Self::central_backlog) and the completion count
    /// this satisfies exact job-count conservation.
    pub fn local_job_count(&self, i: usize, j: usize) -> usize {
        self.local[i][j].cohorts.jobs as usize
    }

    /// Executes one slot `t` of the decision: serves `h_{i,j}(t)` job-units
    /// FIFO in every data center (recording completions), then moves
    /// `r_{i,j}(t)` jobs from the central queues to the data centers
    /// (serviceable from `t+1`). Returns per-DC completions of this slot.
    ///
    /// Amounts beyond the actual backlog are ignored, mirroring the
    /// `max[·, 0]` in (12)–(13).
    pub fn step(&mut self, t: Slot, decision: &Decision) -> &[u64] {
        self.completions.fill(0);
        for i in 0..self.local.len() {
            for j in 0..self.central.len() {
                self.serve(t, i, j, decision.processed[(i, j)]);
            }
        }

        // Route: r_{i,j}(t) moves whole jobs, FIFO, capped by the backlog.
        for j in 0..self.central.len() {
            for i in 0..self.local.len() {
                let mut want = decision.routed[(i, j)].round() as u64;
                while want > 0 {
                    let Some((arrival, taken)) = self.central[j].take_front(want) else {
                        break;
                    };
                    self.local[i][j].cohorts.push((arrival, t + 1), taken);
                    want -= taken;
                }
            }
        }

        &self.completions
    }

    /// Serves `budget` job-units of queue `(i, j)` at slot `t`: whole jobs
    /// of the front cohort in one batch, the suspended front job and the
    /// fractional rest one job at a time.
    fn serve(&mut self, t: Slot, i: usize, j: usize, mut budget: f64) {
        let queue = &mut self.local[i][j];
        while budget > 1e-12 {
            let Some(&((arrival, serviceable_from), count)) = queue.cohorts.runs.front() else {
                break;
            };
            if serviceable_from > t {
                // Jobs routed this very slot are not serviceable yet.
                break;
            }
            let done = match queue.partial {
                // Untouched front job and a whole unit of budget: each of
                // the next k jobs takes exactly 1.0, and `budget − k` is
                // exact because every intermediate value is.
                None if budget >= 1.0 => {
                    let k = count.min(budget.floor() as u64);
                    budget -= k as f64;
                    k
                }
                _ => {
                    let mut remaining = queue.partial.unwrap_or(1.0);
                    let served = remaining.min(budget);
                    remaining -= served;
                    budget -= served;
                    if remaining <= 1e-12 {
                        queue.partial = None;
                        1
                    } else {
                        queue.partial = Some(remaining);
                        0
                    }
                }
            };
            if done == 0 {
                continue;
            }
            queue.cohorts.take_front(done);
            // DC delay: w − u where u is the routing slot
            // (= serviceable_from − 1); sojourn: w − arrival.
            let delay = t + 1 - serviceable_from;
            self.completions[i] += done;
            self.completed_per_dc[i] += done;
            self.completed_total += done;
            self.dc_delay_sum[i] += (done * delay) as f64;
            self.sojourn_sum += (done * t.saturating_sub(arrival)) as f64;
            let hist = &mut self.delay_hist[i];
            let d = delay as usize;
            if hist.len() <= d {
                hist.resize(d + 1, 0);
            }
            hist[d] += done;
        }
    }

    /// Records the arrivals of slot `t` (visible to the scheduler from
    /// `t+1`, per (12)).
    ///
    /// # Panics
    /// Panics if the arrival vector length mismatches.
    pub fn arrive(&mut self, t: Slot, arrivals: &[f64]) {
        assert_eq!(
            arrivals.len(),
            self.central.len(),
            "arrival vector mismatch"
        );
        for (queue, &count) in self.central.iter_mut().zip(arrivals) {
            queue.push(t, count.round() as u64);
        }
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> CompletionStats {
        let mean_dc_delay = self
            .completed_per_dc
            .iter()
            .zip(&self.dc_delay_sum)
            .map(|(&c, &s)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect();
        CompletionStats {
            completed_per_dc: self.completed_per_dc.clone(),
            mean_dc_delay,
            completed_total: self.completed_total,
            mean_sojourn: if self.completed_total > 0 {
                self.sojourn_sum / self.completed_total as f64
            } else {
                0.0
            },
        }
    }

    /// Cumulative (completions, delay-sum) for data center `i` — used by
    /// the report to build running-average delay curves.
    pub fn dc_delay_accumulator(&self, i: usize) -> (u64, f64) {
        (self.completed_per_dc[i], self.dc_delay_sum[i])
    }

    /// Tail-latency quantiles of the data-center delays of every job
    /// completed in data center `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn dc_delay_quantiles(&self, i: usize) -> Quantiles {
        Quantiles::from_histogram(&self.delay_hist[i])
    }

    /// Captures the tracker's complete job-level state for a checkpoint.
    pub fn snapshot(&self) -> TrackerSnapshot {
        TrackerSnapshot {
            central: self
                .central
                .iter()
                .map(|q| q.runs.iter().copied().collect())
                .collect(),
            local: self
                .local
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|q| {
                            q.cohorts
                                .runs
                                .iter()
                                .map(|&((a, s), n)| (a, s, n))
                                .collect()
                        })
                        .collect()
                })
                .collect(),
            front_remaining: self
                .local
                .iter()
                .map(|row| row.iter().map(|q| q.partial.unwrap_or(1.0)).collect())
                .collect(),
            completed_per_dc: self.completed_per_dc.clone(),
            dc_delay_sum: self.dc_delay_sum.clone(),
            delay_hist: self.delay_hist.clone(),
            completed_total: self.completed_total,
            sojourn_sum: self.sojourn_sum,
        }
    }

    /// Rebuilds a tracker from a [`snapshot`](Self::snapshot) — the exact
    /// inverse, so `from_snapshot(config, t.snapshot())` continues precisely
    /// where `t` stopped.
    ///
    /// # Errors
    /// Returns a message if the snapshot's shape mismatches the
    /// configuration, a front-job fraction is out of `(0, 1]` (or below 1
    /// in an empty queue), or a delay histogram disagrees with its DC's
    /// completion count.
    pub fn from_snapshot(config: &SystemConfig, snap: TrackerSnapshot) -> Result<Self, String> {
        let n = config.num_data_centers();
        let j_count = config.num_job_classes();
        if snap.central.len() != j_count
            || snap.local.len() != n
            || snap.front_remaining.len() != n
            || snap.local.iter().any(|row| row.len() != j_count)
            || snap.front_remaining.iter().any(|row| row.len() != j_count)
            || snap.completed_per_dc.len() != n
            || snap.dc_delay_sum.len() != n
            || snap.delay_hist.len() != n
        {
            return Err("tracker snapshot shape mismatches the configuration".to_string());
        }
        for (i, hist) in snap.delay_hist.iter().enumerate() {
            let total: u64 = hist.iter().sum();
            if total != snap.completed_per_dc[i] {
                return Err(format!(
                    "delay histogram of DC {i} holds {total} jobs, but {} completed",
                    snap.completed_per_dc[i]
                ));
            }
        }
        let mut local = vec![vec![LocalQueue::default(); j_count]; n];
        for (i, row) in snap.local.into_iter().enumerate() {
            for (j, cohorts) in row.into_iter().enumerate() {
                let queue = &mut local[i][j];
                for (arrival, serviceable_from, count) in cohorts {
                    queue.cohorts.push((arrival, serviceable_from), count);
                }
                let remaining = snap.front_remaining[i][j];
                if !(remaining > 0.0 && remaining <= 1.0)
                    || (remaining < 1.0 && queue.cohorts.jobs == 0)
                {
                    return Err(format!(
                        "front job fraction {remaining} invalid for queue ({i}, {j})"
                    ));
                }
                queue.partial = (remaining < 1.0).then_some(remaining);
            }
        }
        let central = snap
            .central
            .into_iter()
            .map(|runs| {
                let mut queue = Cohorts::default();
                for (arrival, count) in runs {
                    queue.push(arrival, count);
                }
                queue
            })
            .collect();
        Ok(Self {
            central,
            local,
            completed_per_dc: snap.completed_per_dc,
            dc_delay_sum: snap.dc_delay_sum,
            delay_hist: snap.delay_hist,
            completed_total: snap.completed_total,
            sojourn_sum: snap.sojourn_sum,
            completions: vec![0; n],
        })
    }
}

/// A plain-data copy of a [`JobTracker`]'s state, as written to and read
/// from checkpoints. Queues are FIFO lists of cohorts; adjacent cohorts of
/// a [`snapshot`](JobTracker::snapshot) never share a key.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerSnapshot {
    /// `(arrival, count)` cohorts waiting centrally, per job class.
    pub central: Vec<Vec<(Slot, u64)>>,
    /// `(arrival, serviceable_from, count)` cohorts waiting in each data
    /// center, as `[dc][job class]` queues.
    pub local: Vec<Vec<Vec<(Slot, Slot, u64)>>>,
    /// Remaining fraction of each local queue's front job, `[dc][job
    /// class]`; 1 when it is untouched or the queue is empty.
    pub front_remaining: Vec<Vec<f64>>,
    /// Completions per data center.
    pub completed_per_dc: Vec<u64>,
    /// Cumulative data-center delay per data center.
    pub dc_delay_sum: Vec<f64>,
    /// Completed jobs by whole-slot delay, per data center:
    /// `delay_hist[i][d]` jobs finished in DC `i` with delay `d`.
    pub delay_hist: Vec<Vec<u64>>,
    /// Total completions.
    pub completed_total: u64,
    /// Cumulative sojourn time over all completed jobs.
    pub sojourn_sum: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use grefar_types::{DataCenterId, JobClass, ServerClass};

    fn config() -> SystemConfig {
        SystemConfig::builder()
            .server_class(ServerClass::new(1.0, 1.0))
            .data_center("a", vec![10.0])
            .account("x", 1.0)
            .job_class(JobClass::new(1.0, vec![DataCenterId::new(0)], 0))
            .build()
            .unwrap()
    }

    #[test]
    fn always_style_service_has_dc_delay_one() {
        let cfg = config();
        let mut tr = JobTracker::new(&cfg);
        // Slot 0: 2 jobs arrive.
        tr.arrive(0, &[2.0]);
        // Slot 1: route both.
        let mut route = cfg.decision_zeros();
        route.routed[(0, 0)] = 2.0;
        tr.step(1, &route);
        assert_eq!(tr.central_backlog(0), 0.0);
        assert_eq!(tr.local_backlog(0, 0), 2.0);
        // Slot 2: serve both.
        let mut serve = cfg.decision_zeros();
        serve.processed[(0, 0)] = 2.0;
        let done = tr.step(2, &serve);
        assert_eq!(done, [2]);
        let stats = tr.stats();
        assert_eq!(stats.completed_total, 2);
        assert_eq!(stats.mean_dc_delay[0], 1.0);
        assert_eq!(stats.mean_sojourn, 2.0);
    }

    #[test]
    fn jobs_routed_this_slot_are_not_serviceable_yet() {
        let cfg = config();
        let mut tr = JobTracker::new(&cfg);
        tr.arrive(0, &[1.0]);
        // Route and (attempt to) serve in the same slot: per (13) the job
        // only reaches the DC queue at t+1.
        let mut z = cfg.decision_zeros();
        z.routed[(0, 0)] = 1.0;
        z.processed[(0, 0)] = 1.0;
        let done = tr.step(1, &z);
        assert_eq!(done, [0]);
        assert_eq!(tr.local_backlog(0, 0), 1.0);
    }

    #[test]
    fn partial_service_suspends_and_resumes() {
        let cfg = config();
        let mut tr = JobTracker::new(&cfg);
        tr.arrive(0, &[1.0]);
        let mut route = cfg.decision_zeros();
        route.routed[(0, 0)] = 1.0;
        tr.step(1, &route);
        // Serve 0.4 then 0.6 of the job.
        let mut z = cfg.decision_zeros();
        z.processed[(0, 0)] = 0.4;
        assert_eq!(tr.step(2, &z), [0]);
        assert!((tr.local_backlog(0, 0) - 0.6).abs() < 1e-12);
        z.processed[(0, 0)] = 0.6;
        assert_eq!(tr.step(3, &z), [1]);
        // DC delay: routed at 1, finished at 3 → 2 slots.
        assert_eq!(tr.stats().mean_dc_delay[0], 2.0);
    }

    #[test]
    fn fifo_order_within_type() {
        let cfg = config();
        let mut tr = JobTracker::new(&cfg);
        tr.arrive(0, &[1.0]); // job A (arrival 0)
        tr.arrive(1, &[1.0]); // job B (arrival 1)
        let mut route = cfg.decision_zeros();
        route.routed[(0, 0)] = 2.0;
        tr.step(2, &route);
        let mut z = cfg.decision_zeros();
        z.processed[(0, 0)] = 1.0;
        tr.step(3, &z);
        // One completion; the completed job must be A (sojourn 3), not B.
        assert_eq!(tr.stats().completed_total, 1);
        assert_eq!(tr.stats().mean_sojourn, 3.0);
    }

    #[test]
    fn over_serving_and_over_routing_are_capped() {
        let cfg = config();
        let mut tr = JobTracker::new(&cfg);
        tr.arrive(0, &[1.0]);
        let mut z = cfg.decision_zeros();
        z.routed[(0, 0)] = 50.0;
        z.processed[(0, 0)] = 50.0;
        tr.step(1, &z);
        assert_eq!(tr.central_backlog(0), 0.0);
        assert_eq!(tr.local_backlog(0, 0), 1.0);
        tr.step(2, &z);
        assert_eq!(tr.local_backlog(0, 0), 0.0);
        assert_eq!(tr.stats().completed_total, 1);
    }

    #[test]
    fn snapshot_roundtrip_continues_identically() {
        let cfg = config();
        let mut tr = JobTracker::new(&cfg);
        tr.arrive(0, &[3.0]);
        let mut route = cfg.decision_zeros();
        route.routed[(0, 0)] = 3.0;
        tr.step(1, &route);
        let mut z = cfg.decision_zeros();
        z.processed[(0, 0)] = 1.4; // one done, one at 0.6 remaining
        tr.step(2, &z);

        let restored = JobTracker::from_snapshot(&cfg, tr.snapshot()).unwrap();
        assert_eq!(restored.stats(), tr.stats());
        assert_eq!(restored.snapshot(), tr.snapshot());
        // Both continue to the same future.
        let mut a = tr.clone();
        let mut b = restored;
        z.processed[(0, 0)] = 2.0;
        assert_eq!(a.step(3, &z), b.step(3, &z));
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn from_snapshot_rejects_bad_shapes_and_fractions() {
        let cfg = config();
        let tr = JobTracker::new(&cfg);
        let mut snap = tr.snapshot();
        snap.completed_per_dc.push(0);
        assert!(JobTracker::from_snapshot(&cfg, snap).is_err());
        let mut snap = tr.snapshot();
        snap.local[0][0].push((0, 1, 2));
        snap.front_remaining[0][0] = 1.5;
        assert!(JobTracker::from_snapshot(&cfg, snap).is_err());
        let mut snap = tr.snapshot();
        snap.front_remaining[0][0] = 0.5;
        assert!(JobTracker::from_snapshot(&cfg, snap).is_err());
        let mut snap = tr.snapshot();
        snap.delay_hist[0] = vec![0, 1];
        assert!(JobTracker::from_snapshot(&cfg, snap).is_err());
    }

    #[test]
    fn accumulator_matches_stats() {
        let cfg = config();
        let mut tr = JobTracker::new(&cfg);
        tr.arrive(0, &[3.0]);
        let mut route = cfg.decision_zeros();
        route.routed[(0, 0)] = 3.0;
        tr.step(1, &route);
        let mut z = cfg.decision_zeros();
        z.processed[(0, 0)] = 3.0;
        tr.step(2, &z);
        let (count, sum) = tr.dc_delay_accumulator(0);
        assert_eq!(count, 3);
        assert_eq!(sum, 3.0);
        assert_eq!(
            tr.dc_delay_quantiles(0),
            Quantiles::from_samples(&[1.0, 1.0, 1.0])
        );
    }
}

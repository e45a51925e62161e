//! Equivalence oracle for the cohort-based [`JobTracker`]: a minimal
//! one-entry-per-job FIFO tracker (the straightforward algorithm, kept
//! here as ground truth) runs beside it on random systems and random
//! decisions — fractional service, over-routing, over-serving, budgets a
//! hair either side of whole jobs — and every observable must agree after
//! every slot.

use grefar_sim::stats::Quantiles;
use grefar_sim::{CompletionStats, JobTracker, TrackerSnapshot};
use grefar_types::{DataCenterId, Decision, JobClass, ServerClass, Slot, SystemConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// One job waiting in a data center.
#[derive(Debug, Clone, Copy)]
struct LocalJob {
    arrival: Slot,
    serviceable_from: Slot,
    remaining: f64,
}

/// The per-job reference: one queue entry per job, every delay kept.
struct PerJobTracker {
    central: Vec<VecDeque<Slot>>,
    local: Vec<Vec<VecDeque<LocalJob>>>,
    completed_per_dc: Vec<u64>,
    dc_delay_sum: Vec<f64>,
    samples: Vec<Vec<f64>>,
    completed_total: u64,
    sojourn_sum: f64,
}

impl PerJobTracker {
    fn new(n: usize, j: usize) -> Self {
        Self {
            central: vec![VecDeque::new(); j],
            local: vec![vec![VecDeque::new(); j]; n],
            completed_per_dc: vec![0; n],
            dc_delay_sum: vec![0.0; n],
            samples: vec![Vec::new(); n],
            completed_total: 0,
            sojourn_sum: 0.0,
        }
    }

    fn step(&mut self, t: Slot, decision: &Decision) -> Vec<u64> {
        let mut completions = vec![0u64; self.local.len()];
        for (i, done) in completions.iter_mut().enumerate() {
            for j in 0..self.central.len() {
                let mut budget = decision.processed[(i, j)];
                let queue = &mut self.local[i][j];
                while budget > 1e-12 {
                    let Some(front) = queue.front_mut() else {
                        break;
                    };
                    if front.serviceable_from > t {
                        break;
                    }
                    let served = front.remaining.min(budget);
                    front.remaining -= served;
                    budget -= served;
                    if front.remaining <= 1e-12 {
                        let job = queue.pop_front().expect("front exists");
                        *done += 1;
                        self.completed_per_dc[i] += 1;
                        self.completed_total += 1;
                        let delay = (t + 1 - job.serviceable_from) as f64;
                        self.dc_delay_sum[i] += delay;
                        self.samples[i].push(delay);
                        self.sojourn_sum += t.saturating_sub(job.arrival) as f64;
                    }
                }
            }
        }
        for j in 0..self.central.len() {
            for i in 0..self.local.len() {
                for _ in 0..decision.routed[(i, j)].round() as usize {
                    let Some(arrival) = self.central[j].pop_front() else {
                        break;
                    };
                    self.local[i][j].push_back(LocalJob {
                        arrival,
                        serviceable_from: t + 1,
                        remaining: 1.0,
                    });
                }
            }
        }
        completions
    }

    fn arrive(&mut self, t: Slot, arrivals: &[f64]) {
        for (queue, &count) in self.central.iter_mut().zip(arrivals) {
            queue.extend(std::iter::repeat(t).take(count.round() as usize));
        }
    }

    fn stats(&self) -> CompletionStats {
        CompletionStats {
            completed_per_dc: self.completed_per_dc.clone(),
            mean_dc_delay: (self.completed_per_dc.iter().zip(&self.dc_delay_sum))
                .map(|(&c, &s)| if c > 0 { s / c as f64 } else { 0.0 })
                .collect(),
            completed_total: self.completed_total,
            mean_sojourn: if self.completed_total > 0 {
                self.sojourn_sum / self.completed_total as f64
            } else {
                0.0
            },
        }
    }

    fn local_backlog(&self, i: usize, j: usize) -> f64 {
        self.local[i][j].iter().map(|job| job.remaining).sum()
    }

    /// The same state in snapshot form: runs of equal jobs, delays binned.
    fn snapshot(&self) -> TrackerSnapshot {
        TrackerSnapshot {
            central: self
                .central
                .iter()
                .map(|q| runs(q.iter().copied()))
                .collect(),
            local: (self.local.iter())
                .map(|row| {
                    row.iter()
                        .map(|q| {
                            runs(q.iter().map(|job| (job.arrival, job.serviceable_from)))
                                .into_iter()
                                .map(|((a, s), n)| (a, s, n))
                                .collect()
                        })
                        .collect()
                })
                .collect(),
            front_remaining: (self.local.iter())
                .map(|row| {
                    (row.iter())
                        .map(|q| q.front().map_or(1.0, |job| job.remaining))
                        .collect()
                })
                .collect(),
            completed_per_dc: self.completed_per_dc.clone(),
            dc_delay_sum: self.dc_delay_sum.clone(),
            delay_hist: (self.samples.iter())
                .map(|samples| {
                    let mut hist = Vec::new();
                    for &d in samples {
                        let d = d as usize;
                        hist.resize(hist.len().max(d + 1), 0u64);
                        hist[d] += 1;
                    }
                    hist
                })
                .collect(),
            completed_total: self.completed_total,
            sojourn_sum: self.sojourn_sum,
        }
    }
}

fn runs<T: PartialEq>(values: impl Iterator<Item = T>) -> Vec<(T, u64)> {
    let mut out: Vec<(T, u64)> = Vec::new();
    for value in values {
        match out.last_mut() {
            Some((last, n)) if *last == value => *n += 1,
            _ => out.push((value, 1)),
        }
    }
    out
}

fn config(n: usize, j: usize) -> SystemConfig {
    let mut builder = SystemConfig::builder().server_class(ServerClass::new(1.0, 1.0));
    for i in 0..n {
        builder = builder.data_center(format!("dc{i}"), vec![10.0]);
    }
    builder = builder.account("x", 1.0);
    for _ in 0..j {
        let everywhere = (0..n).map(DataCenterId::new).collect();
        builder = builder.job_class(JobClass::new(1.0, everywhere, 0));
    }
    builder.build().expect("valid config")
}

/// Whole and fractional counts of jobs, including over-routing amounts.
fn job_count(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..6) {
        0 | 1 => 0.0,
        2 => rng.gen_range(0..4) as f64,
        3 => rng.gen_range(0.0..6.0),
        4 => rng.gen_range(0..40) as f64,
        _ => rng.gen_range(0.0..200.0),
    }
}

/// Service budgets: fractions, whole jobs, whole jobs off by a hair on
/// either side of both 1e-12 thresholds, and over-serving.
fn budget(rng: &mut StdRng) -> f64 {
    let whole = rng.gen_range(0..8) as f64;
    match rng.gen_range(0..9) {
        0 => 0.0,
        1 => whole,
        2 => rng.gen_range(0.0..1.0),
        3 => rng.gen_range(0.0..8.0),
        4 => whole + [5e-13, 2e-12, 1e-9][rng.gen_range(0..3usize)],
        5 => (whole + 1.0) - [5e-13, 2e-12, 1e-9][rng.gen_range(0..3usize)],
        6 => [1e-13, 1e-12, 3e-12][rng.gen_range(0..3usize)],
        7 => rng.gen_range(0.0..60.0),
        _ => 1e4,
    }
}

fn assert_agree(
    t: Slot,
    n: usize,
    j_count: usize,
    ours: &JobTracker,
    reference: &PerJobTracker,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(ours.stats(), reference.stats(), "stats at slot {}", t);
    for j in 0..j_count {
        prop_assert_eq!(ours.central_backlog(j), reference.central[j].len() as f64);
        for i in 0..n {
            prop_assert_eq!(ours.local_job_count(i, j), reference.local[i][j].len());
            let (a, b) = (ours.local_backlog(i, j), reference.local_backlog(i, j));
            prop_assert!((a - b).abs() < 1e-9, "local backlog ({i},{j}) {a} vs {b}");
        }
    }
    for i in 0..n {
        prop_assert_eq!(
            ours.dc_delay_accumulator(i),
            (reference.completed_per_dc[i], reference.dc_delay_sum[i])
        );
        let (q, r) = (
            ours.dc_delay_quantiles(i),
            Quantiles::from_samples(&reference.samples[i]),
        );
        prop_assert_eq!(q.count, r.count);
        for (a, b) in [
            (q.p50, r.p50),
            (q.p90, r.p90),
            (q.p95, r.p95),
            (q.p99, r.p99),
        ] {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "quantile at slot {}", t);
        }
        prop_assert_eq!(q.max.to_bits(), r.max.to_bits());
    }
    prop_assert_eq!(
        ours.snapshot(),
        reference.snapshot(),
        "snapshot at slot {}",
        t
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Cohort tracker ≡ per-job tracker on every field after every slot,
    /// including across a snapshot round trip mid-run.
    #[test]
    fn cohort_tracker_matches_per_job_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=3usize);
        let j_count = rng.gen_range(1..=3usize);
        let cfg = config(n, j_count);
        let horizon = rng.gen_range(10..80u64);
        let restore_at = rng.gen_range(0..horizon);
        let mut ours = JobTracker::new(&cfg);
        let mut reference = PerJobTracker::new(n, j_count);
        for t in 0..horizon {
            let mut decision = cfg.decision_zeros();
            for i in 0..n {
                for j in 0..j_count {
                    decision.routed[(i, j)] = job_count(&mut rng);
                    decision.processed[(i, j)] = budget(&mut rng);
                }
            }
            let expected = reference.step(t, &decision);
            prop_assert_eq!(ours.step(t, &decision), expected.as_slice(), "completions at slot {}", t);
            // Occasionally a second batch in the same slot, so cohorts merge.
            for _ in 0..rng.gen_range(1..=2) {
                let arrivals: Vec<f64> = (0..j_count).map(|_| job_count(&mut rng)).collect();
                ours.arrive(t, &arrivals);
                reference.arrive(t, &arrivals);
            }
            assert_agree(t, n, j_count, &ours, &reference)?;
            if t == restore_at {
                ours = JobTracker::from_snapshot(&cfg, ours.snapshot()).expect("own snapshot");
            }
        }
    }
}

/// Large cohorts and large budgets: hundreds of jobs per slot, served
/// hundreds at a time, stay exact.
#[test]
fn large_cohorts_match_the_reference() {
    let cfg = config(2, 1);
    let mut ours = JobTracker::new(&cfg);
    let mut reference = PerJobTracker::new(2, 1);
    let mut rng = StdRng::seed_from_u64(7);
    for t in 0..200 {
        let mut decision = cfg.decision_zeros();
        for i in 0..2 {
            decision.routed[(i, 0)] = rng.gen_range(0..1200) as f64;
            decision.processed[(i, 0)] = rng.gen_range(0.0..1000.0);
        }
        let expected = reference.step(t, &decision);
        assert_eq!(ours.step(t, &decision), expected.as_slice());
        let arrivals = [rng.gen_range(0..2000) as f64];
        ours.arrive(t, &arrivals);
        reference.arrive(t, &arrivals);
        assert_agree(t, 2, 1, &ours, &reference).unwrap();
    }
    assert!(ours.stats().completed_total > 100_000);
}

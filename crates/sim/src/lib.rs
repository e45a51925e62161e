//! Discrete-time simulator and experiment runner for the GreFar scheduler.
//!
//! Reproduces the evaluation methodology of §VI of the paper: "We build a
//! time-based simulator and drive the simulation using a real-world trace".
//! The pieces:
//!
//! * [`SimulationInputs`] — a frozen realization of prices, availability and
//!   arrivals, so that every scheduler under comparison sees *identical*
//!   randomness (required for the GreFar-vs-Always comparison of Fig. 4),
//! * [`PaperScenario`] — the §VI-A setup: three data centers with Table I's
//!   normalized speeds/powers, four organizations with fairness weights
//!   40/30/15/15, diurnal prices calibrated to Table I averages, and a
//!   Cosmos-like workload,
//! * [`JobTracker`] — exact job-level FIFO tracking, by same-slot cohorts,
//!   yielding *true per-job delays* (not just queue-length proxies),
//! * [`Simulation`] — the slot loop: observe → decide → meter energy and
//!   fairness → serve jobs → update queues (12)–(13),
//! * [`SimulationReport`] — running averages exactly as in the paper's
//!   footnote 8, plus per-DC delay and work series,
//! * [`sweep`] — run many scheduler configurations against the same inputs
//!   in parallel (used by the V-sweep of Fig. 2).
//!
//! # Example
//!
//! ```
//! use grefar_core::{GreFar, GreFarParams};
//! use grefar_sim::{PaperScenario, Simulation};
//!
//! let scenario = PaperScenario::default().with_seed(7);
//! let config = scenario.config().clone();
//! let inputs = scenario.into_inputs(72); // three days
//! let grefar = GreFar::new(&config, GreFarParams::new(7.5, 0.0)).unwrap();
//! let report = Simulation::new(config, inputs, Box::new(grefar)).run();
//! assert!(report.average_energy_cost() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod error;
mod inputs;
mod mpc;
mod report;
mod scenario;
mod simulation;
pub mod stats;
pub mod sweep;
pub mod theory_obs;
mod tracker;

pub use checkpoint::{
    Checkpoint, CheckpointRecovery, LedgerSnapshot, SeriesSnapshot, CHECKPOINT_SCHEMA,
};
pub use error::SimError;
pub use inputs::SimulationInputs;
pub use mpc::MpcScheduler;
pub use report::{RunningSeries, SimulationReport};
pub use scenario::PaperScenario;
pub use simulation::{RunPolicy, Simulation, SteppedRun};
pub use tracker::{CompletionStats, JobTracker, TrackerSnapshot};

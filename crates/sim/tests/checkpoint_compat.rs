//! Checkpoint compatibility across the tracker's storage change. The
//! fixture was written by the one-entry-per-job tracker: its
//! `ckpt.tracker_dc` lines carry every completed job's delay
//! (`delay_samples`) where current checkpoints carry a delay histogram
//! (`delay_hist`). It is the state of [`simulation`] after [`CUT`] slots.

use grefar_core::{GreFar, GreFarParams};
use grefar_obs::NullObserver;
use grefar_sim::{Checkpoint, PaperScenario, Simulation, SteppedRun};

const FIXTURE: &str = include_str!("fixtures/per_job_tracker.ckpt.jsonl");
const HORIZON: usize = 60;
const CUT: u64 = 30;

/// GreFar (V = 7.5, β = 0) on the paper scenario at twice the load.
fn simulation() -> Simulation {
    let scenario = PaperScenario::default().with_seed(11).with_load_scale(2.0);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(HORIZON);
    let grefar = GreFar::new(&config, GreFarParams::new(7.5, 0.0)).expect("valid parameters");
    Simulation::new(config, inputs, Box::new(grefar))
}

fn job_lines(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| {
            l.contains(r#""event":"ckpt.central_jobs""#)
                || l.contains(r#""event":"ckpt.local_jobs""#)
        })
        .collect()
}

#[test]
fn legacy_checkpoint_resumes_bit_identically() {
    assert!(FIXTURE.contains("delay_samples") && !FIXTURE.contains("delay_hist"));
    let checkpoint = Checkpoint::parse(FIXTURE).expect("legacy checkpoint parses");
    assert_eq!(checkpoint.slot, CUT);
    assert!(checkpoint.tracker.completed_total > 0);

    let full = simulation().run();
    let resumed = simulation()
        .resume(checkpoint, &mut NullObserver, None)
        .expect("legacy checkpoint resumes");
    assert_eq!(
        resumed, full,
        "resume from a legacy checkpoint must be bit-identical"
    );
}

#[test]
fn job_lines_match_the_per_job_writer_byte_for_byte() {
    let mut run = SteppedRun::new(simulation());
    for _ in 0..CUT {
        assert!(run.step(&mut NullObserver));
    }
    let text = run.checkpoint().to_jsonl();

    let (ours, theirs) = (job_lines(&text), job_lines(FIXTURE));
    assert!(!ours.is_empty());
    assert_eq!(ours, theirs);
    // The cut holds queued work and a partly served front job, so the
    // comparison covers cohort expansion and the fractional front.
    assert!(ours.iter().any(|l| !l.contains(r#""arrivals":"""#)));
    let parsed = Checkpoint::parse(&text).expect("new checkpoint parses");
    assert!(parsed
        .tracker
        .front_remaining
        .iter()
        .flatten()
        .any(|&r| r < 1.0));

    // Same state either way, and the new format round-trips to itself.
    assert_eq!(parsed, Checkpoint::parse(FIXTURE).expect("legacy parses"));
    assert_eq!(parsed.to_jsonl(), text);
}

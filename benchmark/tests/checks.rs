//! Self-test of the benchmark's output checks: each passes on good output
//! and trips on a planted fault.

use grefar_obs::NullObserver;
use grefar_perfbench::checks::{self, Ack};
use grefar_perfbench::sim;
use grefar_served::journal::{self, Journal, JournalEntry};
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stepped(corrupt: bool) -> grefar_sim::SteppedRun {
    let (config, inputs) = sim::inputs(7, 1.0, 40);
    let mut run = sim::engine(&config, inputs, 0.0);
    if corrupt {
        run.corrupt_queue_for_test(10, 5.0);
    }
    while run.step(&mut NullObserver) {}
    run
}

#[test]
fn ledger_check_catches_a_corrupted_queue_update() {
    assert_eq!(checks::ledger_balances(&stepped(false)), Ok(()));
    let err = checks::ledger_balances(&stepped(true)).unwrap_err();
    assert!(err.starts_with("ledger:"), "{err}");
}

#[test]
fn occupancy_and_determinism_checks_trip() {
    assert!(checks::within_occupancy_bound(4.0, Some(5.0)).is_ok());
    assert!(checks::within_occupancy_bound(6.0, None).is_ok());
    assert!(checks::within_occupancy_bound(6.0, Some(5.0)).is_err());
    assert!(checks::same("avg_cost", 1.5, 1.5).is_ok());
    assert!(checks::same("avg_cost", 1.5, 1.5 + 1e-12).is_err());
}

#[test]
fn telemetry_check_needs_parseable_lines_and_one_slot_event_per_slot() {
    let good = "{\"schema\":1,\"event\":\"run.start\"}\n\
                {\"schema\":1,\"event\":\"slot\",\"t\":0}\n\
                {\"schema\":1,\"event\":\"slot\",\"t\":1}\n";
    assert_eq!(checks::telemetry_well_formed(good, 2), Ok(()));
    assert!(checks::telemetry_well_formed(good, 3).is_err());
    let torn = format!("{good}{{\"schema\":1,\"event\":\"sl");
    assert!(checks::telemetry_well_formed(&torn, 2).is_err());
}

fn acks(n: u64, t: u64) -> Vec<Ack> {
    (0..n)
        .map(|seq| Ack {
            seq,
            t,
            job: (seq % 3) as usize,
            count: 1.0 + (seq % 2) as f64,
        })
        .collect()
}

fn write_journal(path: &std::path::Path, acks: &[Ack]) {
    let mut journal = Journal::open(path).unwrap();
    for a in acks {
        journal
            .append(JournalEntry {
                seq: a.seq,
                t: a.t,
                job: a.job,
                count: a.count,
            })
            .unwrap();
    }
}

#[test]
fn served_conservation_catches_a_lost_journal_entry() {
    let dir = temp_dir("served_conservation");
    let acked = acks(6, 2);
    let path = dir.join("run.ckpt.journal");
    write_journal(&path, &acked);
    assert_eq!(
        checks::served_journal_conserves(&acked, 6, &path, 2),
        Ok(())
    );

    // A copy of the journal with one entry removed, wherever it was.
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    for drop in 0..lines.len() {
        let mut copy = String::new();
        for (i, line) in lines.iter().enumerate() {
            if i != drop {
                copy.push_str(line);
                copy.push('\n');
            }
        }
        let lossy = dir.join(format!("copy{drop}.journal"));
        std::fs::write(&lossy, copy).unwrap();
        let err = checks::served_journal_conserves(&acked, 6, &lossy, 2).unwrap_err();
        assert!(err.starts_with("served:"), "entry {drop}: {err}");
    }

    // The admitted counter and the ack sequence are checked as well.
    let entries = journal::load(&path).unwrap().entries;
    assert!(checks::served_conserves(&acked, 5, &entries, 2).is_err());
    let mut dup = acked.clone();
    dup[3].seq = 2;
    assert!(checks::served_conserves(&dup, 6, &entries, 2).is_err());
}

#[test]
fn served_conservation_follows_the_checkpoint_trim() {
    // Acks into slots 1 and 2, a checkpoint cut at slot 2 between them:
    // the trimmed journal keeps the newest ack before the cut (the seq
    // watermark) and everything after it.
    let mut acked = acks(3, 1);
    acked.extend(acks(3, 2).into_iter().map(|a| Ack {
        seq: a.seq + 3,
        ..a
    }));
    let dir = temp_dir("served_trim");
    let path = dir.join("run.ckpt.journal");
    write_journal(&path, &acked[2..]);
    let entries = journal::load(&path).unwrap().entries;
    assert_eq!(checks::served_conserves(&acked, 6, &entries, 2), Ok(()));
    // Without the watermark, or with an entry the trim drops, it fails.
    assert!(checks::served_conserves(&acked, 6, &entries[1..], 2).is_err());
    let path = dir.join("untrimmed.journal");
    write_journal(&path, &acked);
    let untrimmed = journal::load(&path).unwrap().entries;
    assert!(checks::served_conserves(&acked, 6, &untrimmed, 2).is_err());
    // Before any cut the journal holds every ack.
    assert_eq!(checks::served_conserves(&acked, 6, &untrimmed, 0), Ok(()));
    // A cut after the newest ack leaves the watermark alone.
    let path = dir.join("watermark.journal");
    write_journal(&path, &acked[5..]);
    let entries = journal::load(&path).unwrap().entries;
    assert_eq!(checks::served_conserves(&acked, 6, &entries, 3), Ok(()));
}

//! Output checks. Each returns `Err` with a reason; a run that fails any
//! of them reports `"correct": false` and exits non-zero.

use grefar_core::theory::{slackness_delta_trace, TheoryBounds};
use grefar_obs::json::{parse_object, JsonValue};
use grefar_served::journal::JournalEntry;
use grefar_sim::{SimulationInputs, SteppedRun};
use grefar_types::SystemConfig;

/// Relative slack on the occupancy comparison (the bound is analytic and
/// the peak is a sum of floats).
const OCCUPANCY_EPS: f64 = 1e-9;

/// The job-conservation ledger balances against the live queues:
/// admitted − served + route excess = Σ Θ, within the ledger's own
/// accumulated-rounding tolerance (the identity `JobLedger::check` tests).
pub fn ledger_balances(run: &SteppedRun) -> Result<(), String> {
    let ledger = run.ledger();
    let balance = ledger.balance(run.queue_total());
    if balance.abs() > ledger.tolerance() {
        return Err(format!(
            "ledger: balance {balance:.6} exceeds tolerance {:.3e} at slot {} \
             (admitted {:.3}, served {:.3}, queued {:.3})",
            ledger.tolerance(),
            run.next_slot(),
            ledger.admitted(),
            ledger.served(),
            run.queue_total()
        ));
    }
    Ok(())
}

/// The Theorem 1(a) queue bound `V·C3/δ` for these inputs, or `None`
/// when the trace admits no slackness certificate (no guarantee exists).
pub fn occupancy_bound(
    config: &SystemConfig,
    inputs: &SimulationInputs,
    v: f64,
    beta: f64,
) -> Option<f64> {
    let delta = slackness_delta_trace(config, &inputs.capacities(config), inputs.all_arrivals())?;
    let price_max = inputs
        .states()
        .iter()
        .flat_map(|state| (0..config.num_data_centers()).map(|i| state.data_center(i).price()))
        .fold(0.0f64, f64::max);
    Some(TheoryBounds::new(config, delta, price_max, beta).queue_bound(v))
}

/// The peak queue stays within the Theorem 1(a) bound, when one exists.
pub fn within_occupancy_bound(peak: f64, bound: Option<f64>) -> Result<(), String> {
    match bound {
        Some(bound) if peak > bound * (1.0 + OCCUPANCY_EPS) => Err(format!(
            "occupancy: peak queue {peak:.6} exceeds the Theorem 1(a) bound {bound:.6}"
        )),
        _ => Ok(()),
    }
}

/// Two values that must repeat exactly (deterministic per seed).
pub fn same(what: &str, first: f64, again: f64) -> Result<(), String> {
    if first.to_bits() == again.to_bits() {
        Ok(())
    } else {
        Err(format!("determinism: {what} was {first} and then {again}"))
    }
}

/// Every telemetry line parses as a flat JSON object, and the stream has
/// exactly one `slot` event per executed slot.
pub fn telemetry_well_formed(text: &str, slots: u64) -> Result<(), String> {
    let mut slot_events = 0u64;
    for (n, line) in text.lines().enumerate() {
        let object = parse_object(line).map_err(|e| format!("telemetry line {}: {e}", n + 1))?;
        if object.get("event").and_then(JsonValue::as_str) == Some("slot") {
            slot_events += 1;
        }
    }
    if slot_events != slots {
        return Err(format!(
            "telemetry: {slot_events} slot events for {slots} executed slots"
        ));
    }
    Ok(())
}

/// One acknowledged submission, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ack {
    /// Journal sequence number the daemon assigned.
    pub seq: u64,
    /// Slot the submission was admitted into.
    pub t: u64,
    /// Job class.
    pub job: usize,
    /// Jobs submitted.
    pub count: f64,
}

/// [`served_conserves`] against the journal file at `path`, loaded with
/// the daemon's own recovery loader; a journal the loader refuses fails
/// the check too.
pub fn served_journal_conserves(
    acks: &[Ack],
    admitted: u64,
    path: &std::path::Path,
    cut_slot: u64,
) -> Result<(), String> {
    let recovered = grefar_served::journal::load(path).map_err(|e| format!("served: {e}"))?;
    served_conserves(acks, admitted, &recovered.entries, cut_slot)
}

/// Served conservation: every OK ack is counted once by the daemon and is
/// durable in its journal.
///
/// * `acks` carry unique, contiguous `seq` numbers from 0;
/// * the daemon's `status` admitted counter equals the number of OK acks;
/// * the journal, as loaded after the last ack, holds exactly what the
///   daemon must still keep since its last checkpoint cut at `cut_slot`
///   (the journal is trimmed at every cut): the newest ack admitted
///   before the cut, kept as the `seq` watermark, and every ack after it.
pub fn served_conserves(
    acks: &[Ack],
    admitted: u64,
    journal: &[JournalEntry],
    cut_slot: u64,
) -> Result<(), String> {
    for (i, ack) in acks.iter().enumerate() {
        if ack.seq != i as u64 {
            return Err(format!(
                "served: ack #{i} carries seq {} (duplicate or gap)",
                ack.seq
            ));
        }
    }
    if admitted != acks.len() as u64 {
        return Err(format!(
            "served: {} OK acks but the daemon counted {admitted} admissions",
            acks.len()
        ));
    }
    let before_cut = acks.iter().take_while(|a| a.t < cut_slot).count();
    let from = before_cut.saturating_sub(1);
    let expected = &acks[from..];
    let matches = expected.len() == journal.len()
        && expected.iter().zip(journal).all(|(a, e)| {
            a.seq == e.seq && a.t == e.t && a.job == e.job && a.count.to_bits() == e.count.to_bits()
        });
    if !matches {
        return Err(format!(
            "served: journal holds {} entries (seq {:?}..{:?}) where the acks require {} \
             (seq {:?}..{:?})",
            journal.len(),
            journal.first().map(|e| e.seq),
            journal.last().map(|e| e.seq),
            expected.len(),
            expected.first().map(|a| a.seq),
            expected.last().map(|a| a.seq),
        ));
    }
    Ok(())
}

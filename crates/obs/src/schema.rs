//! The telemetry event registry: the single declared contract between
//! every emitter in the workspace and every consumer of the stream.
//!
//! Three layers depend on the exact set of event names and fields —
//! the live metrics fold (`grefar-metrics`), the offline report rebuild
//! (`grefar-report`), and the checkpoint reader (`grefar-sim`). Before
//! this registry existed the contract lived in a hand-maintained doc
//! table (which drifted: it said `degraded_slots` where the code emits
//! `degraded_events`). Now it is data:
//!
//! * [`EVENTS`] declares every event, its [`Channel`], and its
//!   required/optional [`FieldSpec`]s;
//! * `grefar-verify`'s `event-schema` static pass checks every
//!   `Event::new("…")` construction site against it, and checks that the
//!   fold/stream `match` arms cover it (see DESIGN.md, "Correctness
//!   tooling");
//! * [`synthesize`] builds a placeholder event straight from a schema so
//!   consumers can fixture-test that their parsers accept exactly what
//!   the registry declares.
//!
//! Keep entries sorted by name within each channel; the registry's own
//! unit tests enforce the structural invariants (unique sorted names,
//! disjoint field sets).

use crate::event::{Event, Value};

/// Which stream an event travels on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// The run telemetry stream (`--telemetry` JSONL, live observers).
    Telemetry,
    /// The checkpoint file format (`ckpt.*` lines; see
    /// `grefar_sim::checkpoint`).
    Checkpoint,
}

/// The wire type of one event field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// Unsigned integer (slots, counts).
    U64,
    /// Signed integer.
    I64,
    /// Floating point (costs, queue lengths, bounds).
    F64,
    /// Boolean flag.
    Bool,
    /// Short string label.
    Str,
}

/// One declared field: name plus wire type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    /// The field key as it appears on the wire.
    pub name: &'static str,
    /// The wire type.
    pub kind: FieldKind,
}

const fn u(name: &'static str) -> FieldSpec {
    FieldSpec {
        name,
        kind: FieldKind::U64,
    }
}

const fn f(name: &'static str) -> FieldSpec {
    FieldSpec {
        name,
        kind: FieldKind::F64,
    }
}

const fn s(name: &'static str) -> FieldSpec {
    FieldSpec {
        name,
        kind: FieldKind::Str,
    }
}

/// One registered event: name, channel, and field contract.
///
/// `required` fields appear on every instance; `optional` fields may be
/// present (conditional emission) but no undeclared field ever is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSchema {
    /// The event name (`"event"` key on the wire).
    pub name: &'static str,
    /// Which stream it travels on.
    pub channel: Channel,
    /// One-line description for docs and findings.
    pub doc: &'static str,
    /// Fields present on every instance.
    pub required: &'static [FieldSpec],
    /// Fields present only under some conditions.
    pub optional: &'static [FieldSpec],
}

/// Every event the workspace emits, sorted by name within channel
/// (telemetry first, then checkpoint).
pub const EVENTS: &[EventSchema] = &[
    EventSchema {
        name: "admission.accept",
        channel: Channel::Telemetry,
        doc: "The daemon admitted a job submission into a slot's arrivals.",
        required: &[u("t"), u("job"), f("count"), u("seq")],
        optional: &[],
    },
    EventSchema {
        name: "admission.reject",
        channel: Channel::Telemetry,
        doc: "The daemon rejected a submission (shedding, draining, or malformed).",
        required: &[u("t"), s("reason")],
        optional: &[u("job"), f("count")],
    },
    EventSchema {
        name: "alert.fire",
        channel: Channel::Telemetry,
        doc: "An alert rule's condition held for its full hold window.",
        required: &[u("t"), s("rule"), s("signal"), f("value"), f("threshold")],
        optional: &[u("for_slots")],
    },
    EventSchema {
        name: "alert.resolve",
        channel: Channel::Telemetry,
        doc: "A previously fired alert rule's condition cleared.",
        required: &[u("t"), s("rule"), f("value"), u("fired_at")],
        optional: &[],
    },
    EventSchema {
        name: "checkpoint.truncated",
        channel: Channel::Telemetry,
        doc: "A checkpoint load recovered past a truncated/corrupt trailing record.",
        required: &[u("t"), u("kept_lines"), u("dropped_bytes")],
        optional: &[],
    },
    EventSchema {
        name: "checkpoint.write",
        channel: Channel::Telemetry,
        doc: "A checkpoint was cut at slot t.",
        required: &[u("t")],
        optional: &[],
    },
    EventSchema {
        name: "decision.explain",
        channel: Channel::Telemetry,
        doc: "Per-DC provenance of one drift-plus-penalty decision (eq. 14).",
        required: &[
            u("t"),
            u("dc"),
            f("drift"),
            f("energy"),
            f("routed"),
            f("processed"),
            f("backlog"),
            f("busy"),
            f("capacity"),
        ],
        optional: &[f("fairness"), s("deficits"), s("reason")],
    },
    EventSchema {
        name: "degraded.mode",
        channel: Channel::Telemetry,
        doc: "The scheduler served a slot through a degradation fallback.",
        required: &[u("t"), s("reason")],
        optional: &[u("dc"), u("fw_iterations"), f("fw_gap"), s("violation")],
    },
    EventSchema {
        name: "fault.inject",
        channel: Channel::Telemetry,
        doc: "A fault window opened (emitted once, at its first slot).",
        required: &[u("t"), s("kind"), u("start"), u("end")],
        optional: &[u("dc"), u("job"), f("magnitude"), s("actor")],
    },
    EventSchema {
        name: "feed.breaker",
        channel: Channel::Telemetry,
        doc: "A feed circuit-breaker state transition.",
        required: &[u("t"), s("feed"), s("from"), s("to")],
        optional: &[u("dc")],
    },
    EventSchema {
        name: "feed.fetch",
        channel: Channel::Telemetry,
        doc: "A feed poll that failed or needed retries (clean fetches stay silent).",
        required: &[u("t"), s("feed"), s("outcome"), u("attempts")],
        optional: &[u("dc"), s("reason")],
    },
    EventSchema {
        name: "feed.quarantine",
        channel: Channel::Telemetry,
        doc: "A feed payload rejected by validation.",
        required: &[u("t"), s("feed"), s("reason")],
        optional: &[u("dc")],
    },
    EventSchema {
        name: "grefar.decide",
        channel: Channel::Telemetry,
        doc: "One drift-plus-penalty decision (paper eq. 14).",
        required: &[
            u("t"),
            f("v"),
            f("beta"),
            f("objective"),
            f("drift"),
            f("penalty"),
            f("routed"),
            f("processed"),
            s("solver"),
            u("fw_iterations"),
            f("fw_gap"),
            u("wall_us"),
        ],
        optional: &[],
    },
    EventSchema {
        name: "health.snapshot",
        channel: Channel::Telemetry,
        doc: "The metrics layer's health verdict at snapshot time.",
        required: &[
            u("t"),
            s("verdict"),
            f("queue_peak"),
            u("invariant_violations"),
            u("degraded_events"),
            u("stale_events"),
            u("open_breakers"),
        ],
        optional: &[
            f("queue_bound"),
            f("occupancy_pct"),
            u("checkpoint_age_slots"),
            u("active_alerts"),
        ],
    },
    EventSchema {
        name: "invariant.violation",
        channel: Channel::Telemetry,
        doc: "A paper invariant failed at runtime (strict-invariants builds).",
        required: &[u("t"), s("kind"), s("detail")],
        optional: &[],
    },
    EventSchema {
        name: "lp.solve",
        channel: Channel::Telemetry,
        doc: "One simplex solve by the MPC baseline.",
        required: &[
            u("t"),
            u("vars"),
            u("rows"),
            u("pivots_phase1"),
            u("pivots_phase2"),
            u("degenerate_pivots"),
            u("bound_flips"),
            u("wall_us"),
        ],
        optional: &[],
    },
    EventSchema {
        name: "profile.span",
        channel: Channel::Telemetry,
        doc: "One folded span-profiler stack (post-run trailer).",
        required: &[s("stack"), s("clock"), u("count")],
        optional: &[
            u("total_ticks"),
            u("self_ticks"),
            u("total_us"),
            u("self_us"),
            u("span_id"),
            u("parent_id"),
        ],
    },
    EventSchema {
        name: "run.end",
        channel: Channel::Telemetry,
        doc: "A simulation run finished.",
        required: &[u("slots"), u("completed"), f("dropped"), u("wall_us")],
        optional: &[],
    },
    EventSchema {
        name: "run.start",
        channel: Channel::Telemetry,
        doc: "A simulation run began.",
        required: &[
            s("scheduler"),
            u("horizon"),
            u("data_centers"),
            u("job_classes"),
        ],
        optional: &[],
    },
    EventSchema {
        name: "served.restart",
        channel: Channel::Telemetry,
        doc: "The supervisor restarted a crashed or stalled actor.",
        required: &[u("t"), s("actor"), u("restarts"), u("backoff_ms")],
        optional: &[],
    },
    EventSchema {
        name: "served.start",
        channel: Channel::Telemetry,
        doc: "The scheduling daemon came up and began serving slots.",
        required: &[s("addr"), u("slot"), s("clock")],
        optional: &[],
    },
    EventSchema {
        name: "served.stop",
        channel: Channel::Telemetry,
        doc: "The scheduling daemon stopped (drain, horizon, or fatal supervision).",
        required: &[u("t"), s("reason")],
        optional: &[u("admitted"), u("rejected")],
    },
    EventSchema {
        name: "slot",
        channel: Channel::Telemetry,
        doc: "One executed slot: queues, costs, arrivals.",
        required: &[
            u("t"),
            f("queue_central"),
            f("queue_local"),
            f("queue_max"),
            f("energy"),
            f("fairness"),
            f("arrivals"),
            f("dropped"),
            u("wall_us"),
        ],
        optional: &[],
    },
    EventSchema {
        name: "soak.ledger",
        channel: Channel::Telemetry,
        doc: "Per-slot job-conservation ledger: cumulative offered/served \
              accounting and the balance against the live queue total.",
        required: &[
            u("t"),
            f("offered"),
            f("admitted"),
            f("dropped"),
            f("served"),
            f("route_excess"),
            f("queued"),
            f("balance"),
        ],
        optional: &[],
    },
    EventSchema {
        name: "state.stale",
        channel: Channel::Telemetry,
        doc: "A slot decided on a not-fully-fresh feed estimate.",
        required: &[u("t"), u("stale_fields"), u("max_age"), f("price_mae")],
        optional: &[],
    },
    EventSchema {
        name: "sweep.run",
        channel: Channel::Telemetry,
        doc: "Marks the start of one labeled run in a sweep.",
        required: &[s("label")],
        optional: &[],
    },
    EventSchema {
        name: "theory.bounds",
        channel: Channel::Telemetry,
        doc: "Theorem 1 certificates for one labeled run.",
        required: &[
            s("label"),
            f("v"),
            f("beta"),
            f("delta"),
            f("price_max"),
            f("queue_bound"),
            f("cost_gap_bound"),
            u("frame"),
        ],
        optional: &[u("stale_slots"), f("stale_queue_bound")],
    },
    // -- checkpoint channel ------------------------------------------------
    EventSchema {
        name: "ckpt.central_jobs",
        channel: Channel::Checkpoint,
        doc: "Per-job-class central FIFO arrival slots.",
        required: &[u("job"), s("arrivals")],
        optional: &[],
    },
    EventSchema {
        name: "ckpt.end",
        channel: Channel::Checkpoint,
        doc: "Checkpoint trailer: total line count for truncation detection.",
        required: &[u("lines")],
        optional: &[],
    },
    EventSchema {
        name: "ckpt.header",
        channel: Channel::Checkpoint,
        doc: "Checkpoint header: schema version, cut slot, run shape.",
        required: &[
            u("v"),
            u("slot"),
            u("horizon"),
            s("scheduler"),
            s("faults"),
            s("feeds"),
            f("dropped"),
            u("data_centers"),
            u("job_classes"),
            u("accounts"),
            u("completed_total"),
            s("sojourn_sum"),
        ],
        optional: &[],
    },
    EventSchema {
        name: "ckpt.ledger",
        channel: Channel::Checkpoint,
        doc: "Cumulative job-conservation ledger counters at the cut.",
        required: &[
            f("offered"),
            f("admitted"),
            f("dropped"),
            f("served"),
            f("route_excess"),
        ],
        optional: &[],
    },
    EventSchema {
        name: "ckpt.local_jobs",
        channel: Channel::Checkpoint,
        doc: "Per-(dc, job-class) local FIFO contents.",
        required: &[
            u("dc"),
            u("job"),
            s("arrivals"),
            s("serviceable"),
            s("remaining"),
        ],
        optional: &[],
    },
    EventSchema {
        name: "ckpt.local_queues",
        channel: Channel::Checkpoint,
        doc: "One data center's local queue lengths.",
        required: &[u("dc"), s("values")],
        optional: &[],
    },
    EventSchema {
        name: "ckpt.queues",
        channel: Channel::Checkpoint,
        doc: "Central queue lengths at the cut.",
        required: &[s("central")],
        optional: &[],
    },
    EventSchema {
        name: "ckpt.series",
        channel: Channel::Checkpoint,
        doc: "One recorded time series (scalar or indexed family).",
        required: &[s("name"), s("values")],
        optional: &[u("index")],
    },
    EventSchema {
        name: "ckpt.tracker_dc",
        channel: Channel::Checkpoint,
        doc: "Per-DC completion and delay tracker state; delay_hist[d] counts jobs finished with delay d.",
        required: &[u("dc"), u("completed"), s("delay_sum"), s("delay_hist")],
        optional: &[],
    },
];

/// Looks up an event schema by name.
pub fn lookup(name: &str) -> Option<&'static EventSchema> {
    EVENTS.iter().find(|schema| schema.name == name)
}

/// The registered names on one channel, in registry order.
pub fn names(channel: Channel) -> impl Iterator<Item = &'static str> {
    EVENTS
        .iter()
        .filter(move |schema| schema.channel == channel)
        .map(|schema| schema.name)
}

fn placeholder(field: &FieldSpec) -> Value {
    match field.kind {
        FieldKind::U64 => Value::U64(1),
        FieldKind::I64 => Value::I64(-1),
        FieldKind::F64 => Value::F64(1.5),
        FieldKind::Bool => Value::Bool(true),
        FieldKind::Str => Value::Str(format!("synth_{}", field.name)),
    }
}

/// Builds a placeholder [`Event`] straight from a schema: every required
/// field (and, when `include_optional`, every optional field) set to a
/// deterministic dummy value of the declared kind.
///
/// Consumers use this to prove, in fixture tests, that their parsers
/// accept exactly what the registry declares — see
/// `grefar-metrics`' and `grefar-report`'s registry-sync tests.
pub fn synthesize(schema: &EventSchema, include_optional: bool) -> Event {
    let mut event = Event::new(schema.name);
    for field in schema.required {
        event = event.field(field.name, placeholder(field));
    }
    if include_optional {
        for field in schema.optional {
            event = event.field(field.name, placeholder(field));
        }
    }
    event
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_unique_and_sorted_within_channel() {
        for channel in [Channel::Telemetry, Channel::Checkpoint] {
            let names: Vec<&str> = names(channel).collect();
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(names, sorted, "{channel:?} names must be unique and sorted");
            assert!(!names.is_empty());
        }
    }

    #[test]
    fn checkpoint_prefix_matches_channel() {
        for schema in EVENTS {
            assert_eq!(
                schema.name.starts_with("ckpt."),
                schema.channel == Channel::Checkpoint,
                "{} channel / prefix mismatch",
                schema.name
            );
        }
    }

    #[test]
    fn field_sets_are_disjoint_and_unique() {
        for schema in EVENTS {
            let mut seen: Vec<&str> = Vec::new();
            for field in schema.required.iter().chain(schema.optional) {
                assert!(
                    !seen.contains(&field.name),
                    "{}: duplicate field {}",
                    schema.name,
                    field.name
                );
                seen.push(field.name);
            }
            assert!(!schema.doc.is_empty(), "{}: missing doc", schema.name);
        }
    }

    #[test]
    fn lookup_finds_every_event() {
        for schema in EVENTS {
            assert_eq!(lookup(schema.name).map(|s| s.name), Some(schema.name));
        }
        assert!(lookup("no.such.event").is_none());
    }

    #[test]
    fn synthesized_events_carry_declared_fields() {
        let schema = lookup("slot").unwrap();
        let event = synthesize(schema, false);
        assert_eq!(event.name(), "slot");
        assert_eq!(event.fields().len(), schema.required.len());
        for field in schema.required {
            assert!(event.get(field.name).is_some(), "missing {}", field.name);
        }
        let full = synthesize(lookup("theory.bounds").unwrap(), true);
        assert!(full.get("stale_slots").is_some());
        assert!(full.get("stale_queue_bound").is_some());
    }
}

//! Chrome `trace_event` export for [`vpc_sim::trace`] logs.
//!
//! Converts a [`TraceLog`] into the JSON object format understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): a
//! `traceEvents` array of events with microsecond-style timestamps (we
//! emit processor cycles directly — the viewer's time unit is then
//! "cycles", off by a fixed 10^6 label), thread/process metadata, and an
//! `otherData` block recording the retained and dropped event counts.
//!
//! Mapping:
//!
//! * arbiter **grants** become duration events (`ph: "X"`) on the granted
//!   thread's track, lasting the request's service time, with the
//!   fair-queuing virtual start/finish times (Eq. 3'/4) in `args`;
//! * everything else (defer, hit/miss, evict, SGB gather/drain, DRAM
//!   issue, load return) becomes an instant event (`ph: "i"`);
//! * the event `cat` is the resource class (`tag`/`data`/`bus`/`dram`) or
//!   subsystem (`bank`/`sgb`/`core`), so Perfetto's category filter can
//!   isolate one resource;
//! * `tid` is the simulated thread index and `pid` the job index, so a
//!   merged multi-job export shows one process lane per job.

use std::io;
use std::path::Path;

use vpc_sim::trace::{EventData, TraceLog};

use crate::json::JsonValue;

/// One job's trace under its label: a `(label, log)` pair.
pub type JobTrace = (String, TraceLog);

fn opt_u64(v: Option<u64>) -> JsonValue {
    match v {
        Some(v) => JsonValue::from(v),
        None => JsonValue::Null,
    }
}

fn event_json(event: &vpc_sim::trace::TraceEvent, pid: usize) -> JsonValue {
    let thread = event.data.thread();
    let mut fields: Vec<(String, JsonValue)> = vec![
        ("name".into(), JsonValue::from(event.data.name())),
        (
            "ph".into(),
            JsonValue::from(if matches!(event.data, EventData::Grant { .. }) { "X" } else { "i" }),
        ),
        ("ts".into(), JsonValue::from(event.at)),
        ("pid".into(), JsonValue::from(pid)),
        ("tid".into(), JsonValue::from(u64::from(thread.0))),
    ];
    let (cat, args): (&str, Vec<(String, JsonValue)>) = match event.data {
        EventData::Grant { resource, kind, service, virtual_start, virtual_finish, .. } => {
            fields.push(("dur".into(), JsonValue::from(service)));
            (
                resource.kind.label(),
                vec![
                    ("resource".into(), JsonValue::from(resource.to_string())),
                    ("kind".into(), JsonValue::from(if kind.is_read() { "read" } else { "write" })),
                    ("virtual_start".into(), opt_u64(virtual_start)),
                    ("virtual_finish".into(), opt_u64(virtual_finish)),
                ],
            )
        }
        EventData::Defer { resource, virtual_start, .. } => (
            resource.kind.label(),
            vec![
                ("resource".into(), JsonValue::from(resource.to_string())),
                ("virtual_start".into(), opt_u64(virtual_start)),
            ],
        ),
        EventData::BankAccess { bank, line, kind, .. } => (
            "bank",
            vec![
                ("bank".into(), JsonValue::from(u64::from(bank))),
                ("line".into(), JsonValue::from(line.to_string())),
                ("kind".into(), JsonValue::from(if kind.is_read() { "read" } else { "write" })),
            ],
        ),
        EventData::Evict { bank, line, victim, dirty, .. } => (
            "bank",
            vec![
                ("bank".into(), JsonValue::from(u64::from(bank))),
                ("line".into(), JsonValue::from(line.to_string())),
                ("victim".into(), JsonValue::from(u64::from(victim.0))),
                ("dirty".into(), JsonValue::from(dirty)),
            ],
        ),
        EventData::SgbGather { line, .. } => {
            ("sgb", vec![("line".into(), JsonValue::from(line.to_string()))])
        }
        EventData::SgbDrain { line, occupancy, .. } => (
            "sgb",
            vec![
                ("line".into(), JsonValue::from(line.to_string())),
                ("occupancy".into(), JsonValue::from(u64::from(occupancy))),
            ],
        ),
        EventData::DramIssue { channel, line, kind, .. } => (
            "dram",
            vec![
                ("channel".into(), JsonValue::from(u64::from(channel))),
                ("line".into(), JsonValue::from(line.to_string())),
                ("kind".into(), JsonValue::from(if kind.is_read() { "read" } else { "write" })),
            ],
        ),
        EventData::LoadReturn { line, .. } => {
            ("core", vec![("line".into(), JsonValue::from(line.to_string()))])
        }
    };
    fields.insert(1, ("cat".into(), JsonValue::from(cat)));
    if matches!(event.data, EventData::Defer { .. }) {
        // Instant-event scope: thread-scoped, so the tick renders on the
        // thread's own track.
        fields.push(("s".into(), JsonValue::from("t")));
    }
    fields.push(("args".into(), JsonValue::Object(args)));
    JsonValue::Object(fields)
}

fn metadata(name: &str, pid: usize, tid: Option<u64>, value: &str) -> JsonValue {
    let mut fields: Vec<(String, JsonValue)> = vec![
        ("name".into(), JsonValue::from(name)),
        ("ph".into(), JsonValue::from("M")),
        ("pid".into(), JsonValue::from(pid)),
    ];
    if let Some(tid) = tid {
        fields.push(("tid".into(), JsonValue::from(tid)));
    }
    fields.push(("args".into(), JsonValue::object([("name", JsonValue::from(value))])));
    JsonValue::Object(fields)
}

/// Converts labeled job logs into one Chrome `trace_event` JSON document,
/// with one process lane per job (job index = `pid`, job label = process
/// name) and one track per simulated thread.
pub fn chrome_trace_jobs(jobs: &[JobTrace]) -> JsonValue {
    let mut events = Vec::new();
    let mut retained = 0u64;
    let mut dropped = 0u64;
    for (pid, (label, log)) in jobs.iter().enumerate() {
        events.push(metadata("process_name", pid, None, label));
        let mut threads: Vec<u64> =
            log.events().iter().map(|e| u64::from(e.data.thread().0)).collect();
        threads.sort_unstable();
        threads.dedup();
        for tid in threads {
            events.push(metadata("thread_name", pid, Some(tid), &format!("T{tid}")));
        }
        for event in log.events() {
            events.push(event_json(event, pid));
        }
        retained += log.events().len() as u64;
        dropped += log.dropped();
    }
    JsonValue::object([
        ("traceEvents", JsonValue::Array(events)),
        (
            "otherData",
            JsonValue::object([
                ("clock", JsonValue::from("processor-cycles")),
                ("retained_events", JsonValue::from(retained)),
                ("dropped_events", JsonValue::from(dropped)),
            ]),
        ),
    ])
}

/// Writes a Chrome trace document to `path` (pretty-printed, with a
/// trailing newline).
pub fn write_chrome_trace(path: &Path, doc: &JsonValue) -> io::Result<()> {
    std::fs::write(path, doc.pretty() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpc_sim::trace::{ResourceId, TraceEvent};
    use vpc_sim::{AccessKind, LineAddr, ThreadId};

    fn sample_log() -> TraceLog {
        let mut log = TraceLog::new(4);
        log.push(TraceEvent {
            at: 10,
            data: EventData::Grant {
                resource: ResourceId::data_array(0),
                thread: ThreadId(1),
                kind: AccessKind::Write,
                service: 16,
                virtual_start: Some(100),
                virtual_finish: Some(164),
            },
        });
        log.push(TraceEvent {
            at: 10,
            data: EventData::Defer {
                resource: ResourceId::data_array(0),
                thread: ThreadId(0),
                virtual_start: Some(120),
            },
        });
        log.push(TraceEvent {
            at: 12,
            data: EventData::BankAccess {
                bank: 0,
                thread: ThreadId(1),
                line: LineAddr(0x40),
                kind: AccessKind::Read,
                hit: false,
            },
        });
        for at in 13..20 {
            log.push(TraceEvent {
                at,
                data: EventData::LoadReturn { thread: ThreadId(0), line: LineAddr(at) },
            });
        }
        log
    }

    #[test]
    fn export_is_valid_json_with_expected_shape() {
        let doc = chrome_trace_jobs(&[("fig5/sample".to_string(), sample_log())]);
        let parsed = JsonValue::parse(&doc.pretty()).expect("export parses back");
        let JsonValue::Object(fields) = &parsed else { panic!("not an object") };
        let events = fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents present");
        let JsonValue::Array(events) = events else { panic!("traceEvents not an array") };
        // 1 process_name + 2 thread_name metadata + 4 retained events.
        assert_eq!(events.len(), 7);
        let text = doc.pretty();
        assert!(text.contains("\"ph\": \"X\""), "grant is a duration event");
        assert!(text.contains("\"virtual_start\": 100"));
        assert!(text.contains("\"virtual_finish\": 164"));
        assert!(text.contains("\"dropped_events\": 6"), "overflow drops surface in otherData");
    }

    #[test]
    fn job_lanes_get_distinct_pids() {
        let jobs = vec![("job/a".to_string(), sample_log()), ("job/b".to_string(), sample_log())];
        let text = chrome_trace_jobs(&jobs).pretty();
        assert!(text.contains("\"pid\": 1"), "second job gets pid 1");
        assert!(text.contains("job/b"));
    }
}

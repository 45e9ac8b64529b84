//! Chrome `trace_event` JSON exporter.
//!
//! Emits the JSON Object Format (`{"traceEvents": [...]}`) that
//! Perfetto and `chrome://tracing` load: `B`/`E` duration events for
//! sync spans, `b`/`e` async events (with `id` and a shared `cat`) for
//! off-stack lifetimes, `i` instants, and one `thread_name` metadata
//! event per registered thread. Timestamps are microseconds (`ts`);
//! wall nanoseconds are carried at full precision in `args.wall_ns`.

use crate::trace::{TraceDump, TraceEventKind, ARG_NONE};
use fw_types::json::write_str;
use std::fmt::Write as _;

/// Process id reported in every event; the pipeline is single-process.
const PID: u32 = 1;

/// Render the dump as Chrome JSON Object Format.
pub fn to_chrome_json(dump: &TraceDump) -> String {
    let mut out = String::with_capacity(dump.events.len() * 96 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |line: &str, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(line);
    };

    // Thread-name metadata first so the track labels resolve.
    let mut line = String::new();
    for (tid, name) in &dump.threads {
        line.clear();
        let _ = write!(
            line,
            "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":"
        );
        write_str(&mut line, name);
        line.push_str("}}");
        push(&line, &mut first);
    }

    for ev in &dump.events {
        line.clear();
        let ph = ev.kind.phase();
        let ts_us = ev.wall_ns / 1000;
        let ts_frac = (ev.wall_ns % 1000) / 100; // one decimal of µs
        let _ = write!(
            line,
            "{{\"ph\":\"{ph}\",\"pid\":{PID},\"tid\":{tid},\"ts\":{ts_us}.{ts_frac},\"name\":",
            tid = ev.tid,
        );
        write_str(&mut line, dump.name(ev.name_id));
        match ev.kind {
            TraceEventKind::AsyncBegin | TraceEventKind::AsyncEnd => {
                // Async events need a correlation id and category.
                let _ = write!(line, ",\"cat\":\"async\",\"id\":{}", ev.span_id);
            }
            TraceEventKind::Instant => {
                line.push_str(",\"s\":\"t\"");
            }
            TraceEventKind::Begin | TraceEventKind::End => {}
        }
        // args only on opening/instant events; E events inherit them.
        if !matches!(ev.kind, TraceEventKind::End | TraceEventKind::AsyncEnd) {
            let _ = write!(
                line,
                ",\"args\":{{\"span\":{},\"parent\":{},\"wall_ns\":{}",
                ev.span_id, ev.parent_id, ev.wall_ns
            );
            if ev.arg != ARG_NONE {
                let _ = write!(line, ",\"worker\":{}", ev.arg);
            }
            line.push('}');
        }
        line.push('}');
        push(&line, &mut first);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceEvent, ARG_NONE};
    use crate::Json;

    fn sample_dump() -> TraceDump {
        let mk = |kind, span_id, parent_id, tid, name_id, arg, wall_ns| TraceEvent {
            kind,
            tid,
            span_id,
            parent_id,
            name_id,
            arg,
            wall_ns,
        };
        TraceDump {
            events: vec![
                mk(TraceEventKind::Begin, 1, 0, 1, 0, ARG_NONE, 1000),
                mk(TraceEventKind::AsyncBegin, 2, 1, 1, 1, 443, 1500),
                mk(TraceEventKind::Instant, 3, 1, 1, 2, ARG_NONE, 1700),
                mk(TraceEventKind::AsyncEnd, 2, 0, 1, 1, ARG_NONE, 2500),
                mk(TraceEventKind::End, 1, 0, 1, 0, ARG_NONE, 3100),
            ],
            threads: vec![(1, "main".to_string())],
            names: vec!["root \"q\"".into(), "net/conn".into(), "mark".into()],
            dropped: 0,
        }
    }

    /// Schema-shape check for the acceptance criterion: the export is
    /// valid JSON in the Chrome Object Format, every event carries the
    /// mandatory keys with the right types, phases are limited to the
    /// set we emit, async events carry ids, and B/E pair per tid.
    #[test]
    fn export_matches_chrome_trace_event_schema() {
        let text = to_chrome_json(&sample_dump());
        let doc = Json::parse(&text).expect("exporter emits valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert_eq!(events.len(), 1 + 5, "one metadata + five events");

        let mut depth_by_tid: std::collections::HashMap<u64, i64> = Default::default();
        let mut seen_meta = false;
        for ev in events {
            let ph = ev.get("ph").and_then(Json::as_str).expect("ph present");
            assert!(
                matches!(ph, "B" | "E" | "b" | "e" | "i" | "M"),
                "unexpected phase {ph}"
            );
            assert!(ev.get("pid").and_then(Json::as_u64).is_some());
            let tid = ev.get("tid").and_then(Json::as_u64).expect("tid");
            assert!(ev.get("name").and_then(Json::as_str).is_some());
            match ph {
                "M" => {
                    seen_meta = true;
                    assert_eq!(ev.get("name").and_then(Json::as_str), Some("thread_name"));
                    continue;
                }
                "B" => *depth_by_tid.entry(tid).or_insert(0) += 1,
                "E" => {
                    let d = depth_by_tid.entry(tid).or_insert(0);
                    *d -= 1;
                    assert!(*d >= 0, "E without matching B");
                }
                "b" | "e" => {
                    assert!(ev.get("id").and_then(Json::as_u64).is_some(), "async id");
                    assert_eq!(ev.get("cat").and_then(Json::as_str), Some("async"));
                }
                _ => {}
            }
            // ts is a non-negative number on every non-metadata event.
            assert!(ev
                .get("ts")
                .and_then(Json::as_f64)
                .is_some_and(|t| t >= 0.0));
        }
        assert!(seen_meta, "thread_name metadata present");
        assert!(depth_by_tid.values().all(|&d| d == 0), "B/E balanced");
    }

    #[test]
    fn args_carry_wall_clock_and_worker_labels() {
        let text = to_chrome_json(&sample_dump());
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let open = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("b"))
            .expect("async begin present");
        let args = open.get("args").expect("args on opening event");
        assert_eq!(args.get("wall_ns").and_then(Json::as_u64), Some(1500));
        let keys: Vec<&str> = args
            .as_obj()
            .expect("args object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["span", "parent", "wall_ns", "worker"]);
        assert_eq!(args.get("worker").and_then(Json::as_u64), Some(443));
        // Name with an embedded quote survives escaping.
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("root \"q\"")));
    }
}

//! CI validator for `spatch --trace-out` profiles: checks that the
//! Chrome trace-event JSON is well-formed, that every engine phase
//! recorded at least one span, and that the per-phase duration totals
//! reconcile (within 5%) with the `metrics` block of the run's
//! `--report` JSON — the three telemetry surfaces must tell one story.
//! The trace file keeps the newest `cocci_trace::RING_CAPACITY` spans
//! per thread while the report counts every span, so the check is meant
//! for runs where no thread recorded more than that.
//!
//! ```text
//! cargo run -p cocci-examples --example trace_check -- TRACE.json REPORT.json
//! ```
//!
//! Exits non-zero with a diagnostic on the first violation.

use cocci_core::report::json;
use cocci_core::ApplyReport;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    eprintln!("trace_check: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (trace_path, report_path) = match (args.first(), args.get(1)) {
        (Some(t), Some(r)) => (t, r),
        _ => return fail("usage: trace_check <trace.json> <report.json>"),
    };

    let trace_text = match std::fs::read_to_string(trace_path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("{trace_path}: {e}")),
    };
    let trace = match json::parse(&trace_text) {
        Ok(v) => v,
        Err(e) => return fail(&format!("{trace_path}: not valid JSON: {e}")),
    };
    let events = match trace
        .as_object()
        .and_then(|o| o.get("traceEvents"))
        .and_then(json::Value::as_array)
    {
        Some(evs) => evs,
        None => return fail(&format!("{trace_path}: no traceEvents array")),
    };

    // Sum complete-event ("X") durations per phase name; µs -> ns.
    let mut spans: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for ev in events {
        let Some(o) = ev.as_object() else {
            return fail(&format!("{trace_path}: non-object trace event"));
        };
        match o.get("ph").and_then(json::Value::as_str) {
            Some("X") => {
                for key in ["pid", "tid", "ts", "dur"] {
                    if o.get(key).and_then(json::Value::as_f64).is_none() {
                        return fail(&format!("{trace_path}: X event missing numeric {key}"));
                    }
                }
                let Some(name) = o.get("name").and_then(json::Value::as_str) else {
                    return fail(&format!("{trace_path}: X event missing name"));
                };
                let dur_us = o.get("dur").and_then(json::Value::as_f64).unwrap_or(0.0);
                let e = spans.entry(name.to_string()).or_insert((0, 0));
                e.0 += 1;
                e.1 += (dur_us * 1e3).round() as u64;
            }
            Some(_) => {} // "M" metadata and any future event kinds
            None => return fail(&format!("{trace_path}: event missing ph")),
        }
    }
    for phase in cocci_trace::Phase::ALL {
        match spans.get(phase.name()) {
            Some(&(count, _)) if count > 0 => {}
            _ => {
                return fail(&format!(
                    "{trace_path}: no spans for phase {}",
                    phase.name()
                ))
            }
        }
    }

    let report_text = match std::fs::read_to_string(report_path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("{report_path}: {e}")),
    };
    let report = match ApplyReport::from_json(&report_text) {
        Ok(r) => r,
        Err(e) => return fail(&format!("{report_path}: {e}")),
    };
    let Some(metrics) = &report.metrics else {
        return fail(&format!("{report_path}: report has no metrics block"));
    };

    // Both surfaces are snapshotted after the workers join and, with no
    // span dropped, hold the same spans, so span counts must agree
    // exactly and durations within rounding; the 5% budget is pure slack
    // for the µs quantisation of the trace file.
    for phase in cocci_trace::Phase::ALL {
        let name = phase.name();
        let (trace_count, trace_ns) = spans.get(name).copied().unwrap_or((0, 0));
        let report_count = metrics.phase_counts.get(name).copied().unwrap_or(0);
        let report_ns = metrics.phase_total_ns(name);
        if trace_count != report_count {
            return fail(&format!(
                "phase {name}: {trace_count} trace spans vs {report_count} in the report metrics"
            ));
        }
        let drift = (trace_ns as f64 - report_ns as f64).abs();
        if drift > report_ns.max(1_000) as f64 * 0.05 {
            return fail(&format!(
                "phase {name}: trace total {trace_ns}ns vs report {report_ns}ns (>5% apart)"
            ));
        }
    }
    println!(
        "trace_check: ok — {} events, {} phases reconciled against {}",
        events.len(),
        cocci_trace::Phase::ALL.len(),
        report_path
    );
    ExitCode::SUCCESS
}

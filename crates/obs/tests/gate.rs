//! The trace gate and the trace file sink, exercised in a process of
//! their own: both are process-global, so this file holds a single test
//! to keep toggles race-free.

use co_obs::{json, FieldValue, TraceOutput};
use std::io::Read;

#[test]
fn gate_and_file_sink_behave() {
    // Trace off by default: emit is a no-op.
    assert!(!co_obs::trace_enabled());
    co_obs::emit("gate.ignored", &[]);

    // File sink: every line (spans and warns alike) must parse as JSON.
    let path = std::env::temp_dir().join(format!("co_obs_gate_{}.jsonl", std::process::id()));
    co_obs::set_trace_output(TraceOutput::File(path.clone()));
    assert!(co_obs::trace_enabled());
    co_obs::emit(
        "gate.event",
        &[("n", FieldValue::U64(1)), ("tag", FieldValue::Str("a\"b"))],
    );
    co_obs::warn(
        "gate",
        "synthetic warning",
        &[("value", FieldValue::Str("bad"))],
    );
    co_obs::set_trace_output(TraceOutput::Off);
    assert!(!co_obs::trace_enabled());

    let mut contents = String::new();
    std::fs::File::open(&path)
        .unwrap()
        .read_to_string(&mut contents)
        .unwrap();
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = contents.lines().collect();
    assert_eq!(lines.len(), 2, "one span + one warn: {contents}");
    for line in &lines {
        json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    assert!(lines[0].contains("\"event\":\"gate.event\""));
    assert!(lines[1].contains("\"event\":\"warn\""));
    assert!(lines[1].contains("\"message\":\"synthetic warning\""));
}

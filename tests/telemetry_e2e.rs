//! End-to-end telemetry: a recorded WavePipe run exported through both
//! consumers, validated against the acceptance criteria — the Chrome trace
//! must make the pipelining overlap visible on multiple lanes, and the JSONL
//! stream must survive a round trip.

use std::sync::Arc;
use wavepipe::circuit::generators;
use wavepipe::core::{run_wavepipe, Scheme, WavePipeOptions};
use wavepipe::engine::{
    run_transient, FaultPlan, MetricsHandle, MetricsRegistry, MnaSystem, SimOptions,
};
use wavepipe::telemetry::{
    chrome, json, jsonl, EventKind, Gauge, Probe, ProbeHandle, RecordingProbe,
};

fn traced_run(
    scheme: Scheme,
    threads: usize,
) -> (Arc<RecordingProbe>, wavepipe::core::WavePipeReport) {
    let b = generators::rc_ladder(8);
    let probe = RecordingProbe::shared();
    let opts = WavePipeOptions::new(scheme, threads).with_probe(ProbeHandle::new(probe.clone()));
    let rep = run_wavepipe(&b.circuit, b.tstep, b.tstop, &opts).unwrap();
    (probe, rep)
}

#[test]
fn combined_chrome_trace_shows_overlapping_lanes() {
    let (probe, _rep) = traced_run(Scheme::Combined, 4);
    let events = probe.events();
    let text = chrome::chrome_trace_string(&events);

    // Valid JSON with the trace-event structure.
    let doc = json::parse(&text).expect("chrome trace must be valid JSON");
    let trace_events = doc.get("traceEvents").and_then(json::JsonValue::as_array).unwrap();

    // Solve spans ("X" phase, real lanes — not the synthetic rounds track).
    let spans: Vec<(f64, f64, f64)> = trace_events
        .iter()
        .filter(|e| e.get("ph").and_then(json::JsonValue::as_str) == Some("X"))
        .filter(|e| {
            e.get("tid").and_then(json::JsonValue::as_f64).unwrap() < f64::from(chrome::ROUNDS_TID)
        })
        .map(|e| {
            let tid = e.get("tid").unwrap().as_f64().unwrap();
            let ts = e.get("ts").unwrap().as_f64().unwrap();
            let dur = e.get("dur").unwrap().as_f64().unwrap();
            (tid, ts, ts + dur)
        })
        .collect();

    let mut lanes: Vec<u64> = spans.iter().map(|&(tid, _, _)| tid as u64).collect();
    lanes.sort_unstable();
    lanes.dedup();
    assert!(lanes.len() >= 2, "expected spans on >= 2 lanes, got {lanes:?}");

    // Pipelining visible: at least one pair of spans on distinct lanes with
    // overlapping time ranges (worker spans start at dispatch, so this holds
    // even on a single-core host).
    let overlap = spans.iter().enumerate().any(|(i, &(la, s1, e1))| {
        spans[i + 1..].iter().any(|&(lb, s2, e2)| la != lb && s1 < e2 && s2 < e1)
    });
    assert!(overlap, "no overlapping spans on distinct lanes");
}

#[test]
fn jsonl_stream_round_trips() {
    let (probe, rep) = traced_run(Scheme::Backward, 2);
    let events = probe.events();
    assert!(!events.is_empty());

    let mut buf = Vec::new();
    jsonl::write_jsonl(&events, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let parsed = jsonl::parse_jsonl(&text).expect("exported JSONL must parse back");
    assert_eq!(parsed, events, "JSONL round trip must be lossless");

    // The stream carries the run's accepted points.
    let accepted =
        events.iter().filter(|e| matches!(e.kind, EventKind::PointAccepted { .. })).count();
    assert_eq!(accepted, rep.total.steps_accepted);
}

#[test]
fn serial_engine_emits_balanced_solve_spans() {
    // The probe also works below the pipelining layer: a plain serial run
    // emits paired SolveStart/SolveEnd and per-point accept events.
    let b = generators::rc_ladder(6);
    let probe = RecordingProbe::shared();
    let opts = wavepipe::engine::SimOptions::default().with_probe(ProbeHandle::new(probe.clone()));
    let res = wavepipe::engine::run_transient(&b.circuit, b.tstep, b.tstop, &opts).unwrap();

    let events = probe.events();
    let starts = events.iter().filter(|e| matches!(e.kind, EventKind::SolveStart { .. })).count();
    let ends = events.iter().filter(|e| matches!(e.kind, EventKind::SolveEnd { .. })).count();
    assert_eq!(starts, ends, "every solve span must close");
    assert!(starts > 0);
    let accepted =
        events.iter().filter(|e| matches!(e.kind, EventKind::PointAccepted { .. })).count();
    assert_eq!(accepted, res.stats().steps_accepted);
    // Everything on lane 0, and the summary agrees.
    assert!(events.iter().all(|e| e.lane == 0));
    let summary = probe.summary().unwrap();
    assert_eq!(summary.points_accepted as usize, accepted);
    assert_eq!(summary.active_lanes(), 1);
}

/// Per-class tallies are read from the bypass mask each stamp pass leaves
/// behind, so every stamp path must write it: the serial kernel, the
/// colored executor, and the executor after a worker loss degraded it to
/// the serial kernel mid-run.
#[test]
fn per_class_metrics_match_stamp_counters() {
    let b = generators::inverter_chain(6);
    let nl = MnaSystem::compile(&b.circuit).unwrap().nonlinear_device_count();
    for (what, workers, faults) in [
        ("serial", 0, FaultPlan::new()),
        ("colored x2", 2, FaultPlan::new()),
        ("colored x2, worker lost", 2, FaultPlan::new().with_stamp_panic(0, 5)),
    ] {
        let registry = MetricsRegistry::shared();
        let opts = SimOptions::default()
            .with_stamp_workers(workers)
            .with_bypass(true)
            .with_faults(faults)
            .with_metrics(MetricsHandle::new(registry.clone()));
        let res = run_transient(&b.circuit, b.tstep, b.tstop, &opts).unwrap();
        let stats = res.stats();
        let snap = registry.snapshot();
        let sum = |family: &str| -> u64 {
            snap.labeled.iter().filter(|lv| lv.family == family).map(|lv| lv.value).sum()
        };
        assert!(stats.bypass_hits > 0, "{what}: the run never bypassed a device");
        assert_eq!(sum("class_bypassed"), stats.bypass_hits as u64, "{what}: bypassed");
        let nl_evals = nl * stats.newton_iterations - stats.bypass_hits;
        assert_eq!(sum("class_evals"), nl_evals as u64, "{what}: nonlinear evaluations");
    }
}

/// `current_h` is the committed stride in every step loop: after a serial
/// run and a backward-pipelined run it equals the last stride of the
/// returned waveform (not the next step proposal).
#[test]
fn current_h_gauge_is_the_last_committed_stride() {
    let b = generators::rc_ladder(8);
    let last_stride = |times: &[f64]| times[times.len() - 1] - times[times.len() - 2];

    let registry = MetricsRegistry::shared();
    let opts = SimOptions::default().with_metrics(MetricsHandle::new(registry.clone()));
    let res = run_transient(&b.circuit, b.tstep, b.tstop, &opts).unwrap();
    assert_eq!(registry.gauge(Gauge::CurrentH), last_stride(res.times()), "serial");

    let registry = MetricsRegistry::shared();
    let wp = WavePipeOptions::new(Scheme::Backward, 2)
        .with_metrics(MetricsHandle::new(registry.clone()));
    let rep = run_wavepipe(&b.circuit, b.tstep, b.tstop, &wp).unwrap();
    assert_eq!(registry.gauge(Gauge::CurrentH), last_stride(rep.result.times()), "backward");
}

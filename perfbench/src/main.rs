//! WavePipe benchmark: measured end-to-end wall and CPU time plus per-layer
//! attribution on three workloads. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <digital_chain|grid_backward|corner_sweep>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`
//! holding every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). Human-readable context (host, effective path, sample
//! counts and quartiles) goes to the lines before it.

mod calibrate;
mod instrument;
mod netlist;
mod workloads;

use std::process::ExitCode;

/// End-to-end metrics, reported with tracing off; the times are at the
/// reference host speed (see [`calibrate`]).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("first_result_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run; a metric that does not
/// apply to a workload reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("host.spin_efficiency", "1"),
    ("host.relative_speed", "1"),
    ("verify.err_rms_rel", "1"),
    ("circuit.parse_s", "s"),
    ("engine.mna.compile_s", "s"),
    ("engine.mna.stamp_s", "s"),
    ("engine.mna.stamp_calls", "count"),
    ("engine.mna.device_evals", "count"),
    ("engine.mna.bypass_ratio", "1"),
    ("engine.mna.stamp_us", "us"),
    ("sparse.factor_s", "s"),
    ("sparse.factor_calls", "count"),
    ("sparse.refactor_s", "s"),
    ("sparse.refactor_calls", "count"),
    ("sparse.solve_s", "s"),
    ("sparse.solve_calls", "count"),
    ("sparse.pivot_degraded", "count"),
    ("sparse.refactor_us", "us"),
    ("sparse.solve_us", "us"),
    ("sparse.lu_nnz", "count"),
    ("sparse.refactor_bytes_computed", "B"),
    ("engine.newton.iterations", "count"),
    ("engine.newton.per_step", "1"),
    ("engine.newton.reuse_ratio", "1"),
    ("engine.newton.companion_hits", "count"),
    ("engine.transient.steps_accepted", "count"),
    ("engine.transient.reject_ratio", "1"),
    ("engine.transient.dcop_s", "s"),
    ("engine.transient.other_s", "s"),
    ("core.rounds", "count"),
    ("core.lead_accept_ratio", "1"),
    ("core.spec_accept_ratio", "1"),
    ("core.discarded_solves", "count"),
    ("core.cpu_inflation", "1"),
    ("core.overhead_cpu_s", "s"),
    ("core.solve_busy_s", "s"),
    ("core.critical_path_s", "s"),
    ("core.round_overhead_s", "s"),
    ("core.measured_cp_speedup", "1"),
    ("batch.prep_s", "s"),
    ("batch.instance_solve_s", "s"),
    ("batch.lane_width", "count"),
    ("batch.quarantined", "count"),
    ("batch.lane_groups", "count"),
    ("batch.lane_packed_solves", "count"),
    ("batch.lane_ejections", "count"),
    ("telemetry.trace_overhead_frac", "1"),
    ("serial.stamp_s", "s"),
    ("serial.refactor_solve_s", "s"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Removes every `WAVEPIPE_*` override from the environment before any
/// engine code reads one, so CI legs cannot silently change what is
/// measured. Runs while the process is still single-threaded.
fn clear_overrides() {
    let found: Vec<(String, String)> = std::env::vars_os()
        .filter_map(|(k, v)| {
            let k = k.into_string().ok()?;
            k.starts_with("WAVEPIPE_").then(|| (k, v.to_string_lossy().into_owned()))
        })
        .collect();
    for (k, v) in &found {
        println!("override cleared: {k}={v}");
        std::env::remove_var(k);
    }
}

/// One workload's outcome.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Counts one analysis (or check) and whether it went wrong.
    pub fn tally(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("FAILED: {}", what());
        }
    }
}

fn json_line(out: &Outcome, catalogue: &[(&str, &str)]) -> Result<String, String> {
    let mut body = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        // A metric is left unmeasured (or not finite) only when the
        // analyses it comes from failed, which `failed` already reports.
        let value = out.metrics.iter().find(|(n, _)| n == name).map_or(f64::NAN, |&(_, v)| v);
        if !value.is_finite() && out.failed == 0 {
            return Err(format!("metric {name} was not measured"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        body.push(format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        body.join(",")
    ))
}

fn main() -> ExitCode {
    clear_overrides();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "digital_chain" => workloads::digital_chain(&args),
        "grid_backward" => workloads::grid_backward(&args),
        "corner_sweep" => workloads::corner_sweep(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match json_line(&outcome, catalogue) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

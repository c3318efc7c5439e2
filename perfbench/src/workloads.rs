//! The three workloads: set-up, the measured analysis loop, output checks,
//! and (with `--trace 1`) the instrumented runs that split the time by layer.

use crate::calibrate::Calibration;
use crate::instrument::{self, LuTotals, SpanProbe, TimedFactory};
use crate::netlist::{self, Rng, SWEEP_STAGES};
use crate::{Args, Outcome};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use wavepipe::batch::{BatchDispatch, BatchSim, ParamKind, QuarantineReport};
use wavepipe::circuit::{parse_netlist, Circuit, Element, ParsedDeck, TranSpec};
use wavepipe::core::verify::compare;
use wavepipe::core::{run_wavepipe, Scheme, WavePipeOptions};
use wavepipe::engine::dcop::dc_operating_point;
use wavepipe::engine::newton::LinearCache;
use wavepipe::engine::{
    run_transient, EngineError, MetricsHandle, MetricsRegistry, MnaSystem, ProbeHandle, SimOptions,
    SimStats, SolverHandle, StampInput, TransientResult,
};
use wavepipe::sparse::{LuOptions, SparseLu};
use wavepipe::telemetry::Counter;

/// Fewest repetitions of any timed loop.
const MIN_REPS: usize = 3;
/// Largest RMS deviation, relative to the reference peak, that an analysis
/// may show against its tight-tolerance serial reference.
const TOL_RMS_REL: f64 = 2e-2;
/// Threads given to the pipelined and batched workloads.
const THREADS: usize = 2;
/// Corners in `corner_sweep`.
const CORNERS: usize = 100;
/// Corners of `corner_sweep` re-run independently for the output checks
/// and the accuracy metric.
const SAMPLED_CORNERS: usize = 24;
/// Lane width `corner_sweep` must run at (the default lane tier).
const LANE_WIDTH: usize = 4;

/// Serial options ten times tighter than the defaults: the accuracy yardstick.
fn tight(sim: SimOptions) -> SimOptions {
    let reltol = sim.reltol * 0.1;
    let vntol = sim.vntol * 0.1;
    sim.with_reltol(reltol).with_vntol(vntol)
}

fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    if v.is_empty() {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (s.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

pub fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Bitwise fingerprint of a waveform: its time grid and every solution.
fn fingerprint(r: &TransientResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: f64| h = (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3);
    for (k, &t) in r.times().iter().enumerate() {
        eat(t);
        r.solution(k).iter().for_each(|&x| eat(x));
    }
    h
}

fn strictly_increasing(times: &[f64]) -> bool {
    times.windows(2).all(|w| w[0] < w[1])
}

/// An analysis result as the [`Checker`] takes it.
fn checked(r: &Result<Analysis, EngineError>) -> Result<&TransientResult, String> {
    r.as_ref().map(|a| &a.result).map_err(|e| e.to_string())
}

/// Accepts an analysis that is bit-identical to the first accepted one, or
/// else has a strictly increasing grid within tolerance of the reference.
struct Checker<'a> {
    reference: &'a TransientResult,
    anchor: Option<u64>,
}

impl<'a> Checker<'a> {
    fn new(reference: &'a TransientResult) -> Self {
        Checker { reference, anchor: None }
    }

    fn check(&mut self, out: &mut Outcome, what: &str, r: Result<&TransientResult, String>) {
        let r = match r {
            Ok(r) => r,
            Err(e) => return out.tally(false, || format!("{what}: {e}")),
        };
        let fp = fingerprint(r);
        if self.anchor == Some(fp) {
            return out.tally(true, String::new);
        }
        let increasing = strictly_increasing(r.times());
        let err = compare(self.reference, r).rms_rel();
        let ok = increasing && err <= TOL_RMS_REL;
        out.tally(ok, || format!("{what}: increasing grid {increasing}, rms_rel {err:.3e}"));
        if ok && self.anchor.is_none() {
            self.anchor = Some(fp);
        }
    }
}

/// One repetition of a timed loop.
#[derive(Debug, Clone, Copy)]
struct Rep {
    wall: f64,
    cpu: f64,
    first: f64,
}

/// Repeats `call` until `budget_s` of wall time has passed (at least
/// [`MIN_REPS`] times), timing each call's wall and whole-process CPU.
/// `call` returns its result and, for streaming calls, the offset of the
/// first result; `check` then inspects the result outside the timed window.
fn timed_reps<R>(
    budget_s: f64,
    mut call: impl FnMut(Instant) -> (R, Option<f64>),
    mut check: impl FnMut(R, &Rep),
) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < budget_s {
        let (r, rep) = time_one(&mut call);
        check(r, &rep);
        reps.push(rep);
    }
    reps
}

/// Times one call as [`timed_reps`] does.
fn time_one<R>(call: impl FnOnce(Instant) -> (R, Option<f64>)) -> (R, Rep) {
    let cpu0 = instrument::process_cpu_s();
    let t0 = Instant::now();
    let (r, first) = call(t0);
    let wall = t0.elapsed().as_secs_f64();
    let cpu = instrument::process_cpu_s() - cpu0;
    (r, Rep { wall, cpu, first: first.unwrap_or(wall) })
}

fn describe(name: &str, v: &[f64]) {
    let (q1, m, q3) = quartiles(v);
    println!("  {name:<16} median {m:.6}  q1 {q1:.6}  q3 {q3:.6}  n {}", v.len());
}

/// Medians of repeated set-up: (parse, compile, whole set-up) seconds.
struct Setup {
    parse_s: f64,
    compile_s: f64,
    setup_s: f64,
}

/// One set-up repetition: its product and its parse, compile and total
/// seconds.
type SetupRep<T> = Result<(T, f64, f64, f64), String>;

/// Times of repeated set-up. The first repetition makes what the analyses
/// use and is not counted. One more runs after each untraced analysis
/// repetition, outside its timed window, so the samples span the whole run
/// and a burst of host load at start-up cannot set `setup_s`.
#[derive(Default)]
struct SetupTimes {
    parse: Vec<f64>,
    compile: Vec<f64>,
    total: Vec<f64>,
}

impl SetupTimes {
    /// Runs one counted repetition; a failure is counted in `out`.
    fn sample<T>(&mut self, rep: &impl Fn() -> SetupRep<T>, out: &mut Outcome) {
        match rep() {
            Ok((_, p, c, s)) => {
                self.parse.push(p);
                self.compile.push(c);
                self.total.push(s);
            }
            Err(e) => out.tally(false, || format!("set-up: {e}")),
        }
    }

    fn medians(&self) -> Setup {
        describe("setup_s", &self.total);
        Setup {
            parse_s: median(&self.parse),
            compile_s: median(&self.compile),
            setup_s: median(&self.total),
        }
    }
}

/// Parse + `MnaSystem::compile`, the set-up of the single-analysis workloads.
fn parse_and_compile(text: &str) -> SetupRep<ParsedDeck> {
    let t0 = Instant::now();
    let deck = parse_netlist(text).map_err(|e| e.to_string())?;
    let parse_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    black_box(MnaSystem::compile(&deck.circuit).map_err(|e| e.to_string())?);
    let compile_s = t1.elapsed().as_secs_f64();
    Ok((deck, parse_s, compile_s, t0.elapsed().as_secs_f64()))
}

/// Calls `f` in batches long enough to time reliably; median microseconds
/// per call.
fn per_call_us(mut f: impl FnMut()) -> f64 {
    let mut batch = 1usize;
    loop {
        let t = Instant::now();
        (0..batch).for_each(|_| f());
        if t.elapsed().as_secs_f64() >= 2e-4 || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    let samples: Vec<f64> = (0..25)
        .map(|_| {
            let t = Instant::now();
            (0..batch).for_each(|_| f());
            t.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    median(&samples)
}

/// Layer numbers measured by calling layer entry points directly on the
/// workload's compiled system: the DC operating point, one full stamp at
/// that point, and LU refactor/solve of the stamped matrix.
fn replay_layers(ckt: &Circuit, metrics: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let sys = MnaSystem::compile(ckt).map_err(|e| e.to_string())?;
    let sim = SimOptions::default();
    let mut dcop = Vec::new();
    let mut x = Vec::new();
    for _ in 0..5 {
        let mut ws = sys.new_workspace();
        let mut cache = LinearCache::for_options(&sim);
        let mut stats = SimStats::new();
        let t = Instant::now();
        x = dc_operating_point(&sys, &mut ws, &mut cache, None, &sim, &mut stats)
            .map_err(|e| format!("dc operating point: {e}"))?;
        dcop.push(t.elapsed().as_secs_f64());
    }
    let caps = vec![0.0; sys.cap_state_count()];
    let input = StampInput {
        time: 0.0,
        coeffs: None,
        x_prev: &x,
        x_prev2: &x,
        cap_currents: &caps,
        gmin: sim.gmin,
        gshunt: 0.0,
        source_scale: 1.0,
        ic_mode: false,
    };
    let mut ws = sys.new_workspace();
    let stamp_us = per_call_us(|| {
        black_box(sys.stamp(&mut ws, &input, &x));
    });
    let a = ws.matrix.clone();
    let mut lu = SparseLu::factor(&a, &LuOptions::default()).map_err(|e| e.to_string())?;
    let refactor_us = per_call_us(|| lu.refactor(&a).expect("refactor of the factored matrix"));
    let n = lu.dim();
    let (mut sol, mut scratch) = (vec![0.0; n], vec![0.0; n]);
    let solve_us = per_call_us(|| {
        lu.solve_with_scratch(&ws.rhs, &mut sol, &mut scratch).expect("solve");
        black_box(&sol);
    });
    let lu_nnz = lu.nnz_l() + lu.nnz_u() + n;
    // Compulsory traffic of one refactor, computed from sizes: every entry
    // of A, L and U read or written once as an 8-byte value plus an 8-byte
    // index, and the pivots as 8-byte values.
    let bytes = 16 * (a.nnz() + lu.nnz_l() + lu.nnz_u()) + 8 * n;
    metrics.extend([
        ("engine.transient.dcop_s", median(&dcop)),
        ("engine.mna.stamp_us", stamp_us),
        ("sparse.refactor_us", refactor_us),
        ("sparse.solve_us", solve_us),
        ("sparse.lu_nnz", lu_nnz as f64),
        ("sparse.refactor_bytes_computed", bytes as f64),
    ]);
    Ok(())
}

/// Which engine a single-analysis workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// `run_transient`.
    Serial,
    /// `run_wavepipe(Scheme::Backward, THREADS)`.
    Backward,
}

/// What one analysis call returned, in the terms the metrics need.
struct Analysis {
    result: TransientResult,
    stats: SimStats,
    rounds: usize,
    lead: (usize, usize),
    spec: (usize, usize),
}

fn analyse(engine: Engine, deck: &ParsedDeck, sim: SimOptions) -> Result<Analysis, EngineError> {
    let tran: TranSpec = deck.tran.expect("workload netlists carry .tran");
    match engine {
        Engine::Serial => {
            let result = run_transient(&deck.circuit, tran.tstep, tran.tstop, &sim)?;
            let stats = *result.stats();
            Ok(Analysis { result, stats, rounds: 0, lead: (0, 0), spec: (0, 0) })
        }
        Engine::Backward => {
            let opts = WavePipeOptions::new(Scheme::Backward, THREADS).with_sim(sim);
            let r = run_wavepipe(&deck.circuit, tran.tstep, tran.tstop, &opts)?;
            Ok(Analysis {
                stats: r.total,
                rounds: r.rounds,
                lead: (r.lead_accepted, r.lead_rejected),
                spec: (r.speculation_accepted, r.speculation_rejected),
                result: r.result,
            })
        }
    }
}

/// Options of a traced analysis: the timing LU backend plus the span probe.
fn traced_sim() -> (SimOptions, Arc<instrument::LuClock>, Arc<SpanProbe>) {
    let (solver, clock) = TimedFactory::handle();
    let probe = Arc::new(SpanProbe::default());
    let sim = SimOptions::default().with_solver(solver).with_probe(ProbeHandle::new(probe.clone()));
    (sim, clock, probe)
}

fn print_path(lane_width: usize, workers: usize) {
    let sim = SimOptions::default();
    println!(
        "path: threads={THREADS} lane_width={lane_width} batch_workers={workers} \
         stamp_workers={} solver={:?} bypass={} chord={} recovery={}",
        sim.stamp_workers, sim.solver, sim.bypass, sim.chord_newton, sim.recovery
    );
}

/// Engine and LU layer values of one traced analysis. `cpu` is the call's
/// on-CPU time, the base of `engine.transient.other_s`; `None` where the
/// layer times are not measurable.
fn layer_split(
    s: &SimStats,
    lu: &LuTotals,
    cpu: Option<f64>,
    into: &mut BTreeMap<&'static str, Vec<f64>>,
) {
    let stamp_s = s.stamp_ns as f64 * 1e-9;
    let rejected = s.steps_rejected() as f64;
    let mut put = |k: &'static str, v: f64| into.entry(k).or_default().push(v);
    put("engine.mna.stamp_s", stamp_s);
    put("engine.mna.stamp_calls", s.newton_iterations as f64);
    put("engine.mna.device_evals", s.device_evals as f64);
    put(
        "engine.mna.bypass_ratio",
        ratio(s.bypass_hits as f64, (s.bypass_hits + s.device_evals) as f64),
    );
    put("sparse.factor_s", lu.factor_s);
    put("sparse.factor_calls", lu.factor_calls as f64);
    put("sparse.refactor_s", lu.refactor_s);
    put("sparse.refactor_calls", lu.refactor_calls as f64);
    put("sparse.solve_s", lu.solve_s);
    put("sparse.solve_calls", lu.solve_calls as f64);
    put("sparse.pivot_degraded", lu.pivot_degraded as f64);
    put("engine.newton.iterations", s.newton_iterations as f64);
    put("engine.newton.per_step", s.newton_per_step());
    put("engine.newton.reuse_ratio", ratio(s.jacobian_reuses as f64, s.newton_iterations as f64));
    put("engine.newton.companion_hits", s.companion_hits as f64);
    put("engine.transient.steps_accepted", s.steps_accepted as f64);
    put("engine.transient.reject_ratio", ratio(rejected, s.steps_accepted as f64 + rejected));
    put(
        "engine.transient.other_s",
        cpu.map_or(0.0, |cpu| cpu - stamp_s - lu.factor_s - lu.refactor_s - lu.solve_s),
    );
}

/// The median of a layer's values over the traced repetitions.
fn layer_median(layers: &BTreeMap<&'static str, Vec<f64>>, k: &str) -> f64 {
    layers.get(k).map_or(f64::NAN, |v| median(v))
}

fn medians(m: BTreeMap<&'static str, Vec<f64>>, into: &mut Vec<(&'static str, f64)>) {
    into.extend(m.into_iter().map(|(k, v)| (k, median(&v))));
}

pub fn digital_chain(args: &Args) -> Result<Outcome, String> {
    single_analysis(args, Engine::Serial, &netlist::digital_chain(args.seed))
}

pub fn grid_backward(args: &Args) -> Result<Outcome, String> {
    single_analysis(args, Engine::Backward, &netlist::power_grid(args.seed))
}

/// Prints the calibration and returns the run's relative host speed, the
/// factor that puts the end-to-end times at the reference host speed.
fn report_speed(cal: &Calibration) -> f64 {
    let speed = cal.relative_speed();
    println!(
        "  calibration      median round {:.6} s, relative speed {speed:.4} \
         (end-to-end times = the medians above x {speed:.4})",
        cal.median_round_s()
    );
    speed
}

/// Records the host's `nproc`, confines the run to one CPU if asked, and
/// measures the two-thread spin efficiency as the measured calls will see
/// it (so a confined run reads about 0.5).
fn host(confine: bool) -> f64 {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let confined = if confine { instrument::pin_to_current_cpu() } else { None };
    let spin = instrument::spin_efficiency();
    let cpu = confined.map_or("unconfined".to_string(), |c| format!("confined to cpu {c}"));
    println!(
        "host: nproc={nproc} {cpu} spin_efficiency={spin:.3} \
         (1.0 = two free cores, 0.5 = one)"
    );
    spin
}

/// `digital_chain` and `grid_backward`: one analysis call per repetition.
///
/// The run is confined to the CPU it starts on, so `wall_s` is one-core
/// time: the analysis's work plus, on `grid_backward`, its hand-offs. The
/// reference host's two vCPUs are shared with other tenants, and its second
/// core comes and goes (spin efficiency 0.5 to 1.0 between runs).
/// Unconfined, a pipelined call's wall followed that, not the program.
fn single_analysis(args: &Args, engine: Engine, text: &str) -> Result<Outcome, String> {
    let spin = host(true);
    let mut out = Outcome::default();
    let setup_rep = || parse_and_compile(text);
    let deck = setup_rep()?.0;
    let mut setup_times = SetupTimes::default();
    print_path(0, 1);
    let sim = SimOptions::default();
    // Untimed first call: warms caches and anchors the bitwise checks.
    let first = analyse(engine, &deck, sim.clone()).map_err(|e| format!("first analysis: {e}"))?;
    // Peak memory of set-up and one analysis, read before the benchmark's
    // own reference run. Later repetitions of the same analysis add only
    // allocator noise: worker threads are spawned per call, and whether
    // their malloc arenas overlap shifts the peak by up to 2 MB.
    let peak_rss_mb = instrument::peak_rss_mb();
    let reference = analyse(Engine::Serial, &deck, tight(sim.clone()))
        .map_err(|e| format!("tight serial reference: {e}"))?
        .result;
    let err_rms_rel = compare(&reference, &first.result).rms_rel();
    let mut checker = Checker::new(&reference);
    checker.check(&mut out, "first analysis", Ok(&first.result));
    drop(first);

    let mut cal = Calibration::new();
    if !args.trace {
        let reps = timed_reps(
            args.seconds,
            |_| (analyse(engine, &deck, sim.clone()), None),
            |r, _| {
                checker.check(&mut out, "analysis", checked(&r));
                setup_times.sample(&setup_rep, &mut out);
                cal.round();
            },
        );
        let setup = setup_times.medians();
        let wall: Vec<f64> = reps.iter().map(|r| r.wall).collect();
        let cpu: Vec<f64> = reps.iter().map(|r| r.cpu).collect();
        describe("wall_s", &wall);
        describe("cpu_s", &cpu);
        println!("  err_rms_rel      {err_rms_rel:.6e} (vs serial at reltol/10)");
        let speed = report_speed(&cal);
        out.metrics.extend([
            ("setup_s", setup.setup_s * speed),
            ("wall_s", median(&wall) * speed),
            ("cpu_s", median(&cpu) * speed),
            // The call returns its whole waveform at once.
            ("first_result_s", median(&wall) * speed),
            ("peak_rss_mb", peak_rss_mb),
        ]);
        return Ok(out);
    }

    // Traced run: one loop that follows each traced call with the same call
    // untraced and, when pipelined, with the serial engine on the same input
    // (untraced for CPU inflation, traced for its layer split), so that every
    // comparison between them sees the same host state.
    let mut untraced = Vec::new();
    let mut serial = Vec::new();
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut serial_split: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut spans = Vec::new();
    let mut serial_checker = Checker::new(&reference);
    let traced = timed_reps(
        args.seconds,
        |_| {
            let (sim, clock, probe) = traced_sim();
            // The calling thread coordinates a pipelined run.
            let cpu0 = instrument::thread_cpu_s();
            let r = analyse(engine, &deck, sim);
            ((r, clock, probe, instrument::thread_cpu_s() - cpu0), None)
        },
        |(r, clock, probe, coordinator), rep| {
            checker.check(&mut out, "traced analysis", checked(&r));
            if let Ok(a) = r {
                layer_split(&a.stats, &clock.totals(), Some(rep.cpu), &mut layers);
                let mut put = |k: &'static str, v: f64| layers.entry(k).or_default().push(v);
                put("core.rounds", a.rounds as f64);
                put("core.lead_accept_ratio", ratio(a.lead.0 as f64, (a.lead.0 + a.lead.1) as f64));
                put("core.spec_accept_ratio", ratio(a.spec.0 as f64, (a.spec.0 + a.spec.1) as f64));
                put("core.discarded_solves", (a.lead.1 + a.spec.1) as f64);
                spans.push((probe.rounds(), coordinator));
            }
            let (r, rep) = time_one(|_| (analyse(engine, &deck, sim.clone()), None));
            checker.check(&mut out, "untraced analysis", checked(&r));
            untraced.push(rep);
            if engine == Engine::Backward {
                let (r, rep) = time_one(|_| (analyse(Engine::Serial, &deck, sim.clone()), None));
                serial_checker.check(&mut out, "serial analysis", checked(&r));
                serial.push(rep);
                let (serial_sim, clock, _) = traced_sim();
                let r = analyse(Engine::Serial, &deck, serial_sim);
                serial_checker.check(&mut out, "traced serial analysis", checked(&r));
                if let Ok(a) = r {
                    let lu = clock.totals();
                    let mut put =
                        |k: &'static str, v: f64| serial_split.entry(k).or_default().push(v);
                    put("serial.stamp_s", a.stats.stamp_ns as f64 * 1e-9);
                    put("serial.refactor_solve_s", lu.refactor_s + lu.solve_s);
                }
            }
            setup_times.sample(&setup_rep, &mut out);
            cal.round();
        },
    );
    let setup = setup_times.medians();
    let wall_untraced = median(&untraced.iter().map(|r| r.wall).collect::<Vec<_>>());
    let cpu_untraced = median(&untraced.iter().map(|r| r.cpu).collect::<Vec<_>>());
    let cpu_traced = median(&traced.iter().map(|r| r.cpu).collect::<Vec<_>>());

    let mut metrics = vec![
        ("host.spin_efficiency", spin),
        ("host.relative_speed", report_speed(&cal)),
        ("verify.err_rms_rel", err_rms_rel),
        ("circuit.parse_s", setup.parse_s),
        ("engine.mna.compile_s", setup.compile_s),
        ("telemetry.trace_overhead_frac", cpu_traced / cpu_untraced - 1.0),
        ("batch.prep_s", 0.0),
        ("batch.instance_solve_s", 0.0),
        ("batch.lane_width", 0.0),
        ("batch.quarantined", 0.0),
        ("batch.lane_groups", 0.0),
        ("batch.lane_packed_solves", 0.0),
        ("batch.lane_ejections", 0.0),
    ];
    if engine == Engine::Serial {
        let put = |k: &str| layer_median(&layers, k);
        metrics.extend([
            ("serial.stamp_s", put("engine.mna.stamp_s")),
            ("serial.refactor_solve_s", put("sparse.refactor_s") + put("sparse.solve_s")),
            ("core.cpu_inflation", 0.0),
            ("core.overhead_cpu_s", 0.0),
            ("core.solve_busy_s", 0.0),
            ("core.critical_path_s", 0.0),
            ("core.round_overhead_s", 0.0),
            ("core.measured_cp_speedup", 0.0),
        ]);
    } else {
        let serial_wall = median(&serial.iter().map(|r| r.wall).collect::<Vec<_>>());
        let serial_cpu = median(&serial.iter().map(|r| r.cpu).collect::<Vec<_>>());
        let pick = |f: &dyn Fn(&(instrument::RoundSpans, f64)) -> f64| {
            median(&spans.iter().map(f).collect::<Vec<_>>())
        };
        // On-CPU critical path: each round's longest solve plus the
        // coordinating thread's own work, in rounds and outside them.
        let critical = pick(&|(s, coordinator)| {
            s.critical_path_s + s.round_overhead_s + coordinator - s.coordinator_in_rounds_s
        });
        medians(serial_split, &mut metrics);
        metrics.extend([
            ("core.cpu_inflation", cpu_untraced / serial_cpu),
            ("core.overhead_cpu_s", cpu_untraced - serial_cpu),
            ("core.solve_busy_s", pick(&|(s, _)| s.solve_busy_s)),
            ("core.critical_path_s", pick(&|(s, _)| s.critical_path_s)),
            ("core.round_overhead_s", pick(&|(s, _)| s.round_overhead_s)),
            ("core.measured_cp_speedup", serial_cpu / critical),
        ]);
        println!(
            "  serial on the same input: wall {serial_wall:.6} s, cpu {serial_cpu:.6} s; \
             backward untraced wall {wall_untraced:.6} s, cpu {cpu_untraced:.6} s"
        );
    }
    println!("  traced reps {}  untraced reps {}", traced.len(), untraced.len());
    medians(layers, &mut metrics);
    replay_layers(&deck.circuit, &mut metrics)?;
    out.metrics = metrics;
    Ok(out)
}

/// Reads the swept nominal values (per stage: NMOS KP, PMOS KP, load C).
fn sweep_nominals(ckt: &Circuit) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(SWEEP_STAGES * 3);
    for i in 0..SWEEP_STAGES {
        for name in [format!("mn{i}"), format!("mp{i}"), format!("cl{i}")] {
            out.push(match ckt.element(&name) {
                Some(Element::Mosfet { model, .. }) => model.kp,
                Some(Element::Capacitor { capacitance, .. }) => *capacitance,
                _ => return Err(format!("sweep chain lacks {name}")),
            });
        }
    }
    Ok(out)
}

/// The base circuit with one corner's values written in (the independent
/// twin of a batch instance).
fn patched(base: &Circuit, row: &[f64]) -> Circuit {
    let mut ckt = base.clone();
    for i in 0..SWEEP_STAGES {
        for (k, name) in [format!("mn{i}"), format!("mp{i}"), format!("cl{i}")].iter().enumerate() {
            match ckt.element_mut(name) {
                Some(Element::Mosfet { model, .. }) => model.kp = row[i * 3 + k],
                Some(Element::Capacitor { capacitance, .. }) => *capacitance = row[i * 3 + k],
                _ => unreachable!("names validated by sweep_nominals"),
            }
        }
    }
    ckt
}

type InstanceResult = Result<TransientResult, QuarantineReport>;
/// A whole `run_each` call: how it was dispatched and each instance's result.
type BatchResults = Result<(BatchDispatch, Vec<Option<InstanceResult>>), String>;

/// One `run_each` call, collecting results by instance index and noting
/// when the first one arrived.
fn run_batch(batch: &BatchSim, t0: Instant) -> (BatchResults, Option<f64>) {
    let mut slots: Vec<Option<InstanceResult>> =
        (0..batch.instance_count()).map(|_| None).collect();
    let mut first = None;
    let dispatch = batch.run_each(|i, r| {
        first.get_or_insert_with(|| t0.elapsed().as_secs_f64());
        slots[i] = Some(r);
    });
    (dispatch.map(|d| (d, slots)).map_err(|e| e.to_string()), first)
}

/// Counts every instance of a batch run: delivered, not quarantined, and
/// bitwise equal to the anchor run's instance.
fn check_batch(out: &mut Outcome, r: &BatchResults, anchor: &[u64]) {
    match r {
        Err(e) => out.tally(false, || format!("batch run: {e}")),
        Ok((_, slots)) => {
            for (i, slot) in slots.iter().enumerate() {
                let ok = matches!(slot, Some(Ok(res)) if fingerprint(res) == anchor[i]);
                out.tally(ok, || format!("corner {i}: missing, quarantined or changed"));
            }
        }
    }
}

/// `corner_sweep`: [`CORNERS`] Monte-Carlo corners of an 8-stage chain
/// through `BatchSim::run_each` on the default lane tier.
///
/// Not confined to one CPU: the batch workers never wait on each other, and
/// free to move they dodge a busy core. Confined, the spread of run medians
/// tripled (27% against 8%).
pub fn corner_sweep(args: &Args) -> Result<Outcome, String> {
    let spin = host(false);
    let mut out = Outcome::default();
    let text = netlist::sweep_chain(args.seed);
    let nominal = sweep_nominals(&parse_netlist(&text).map_err(|e| e.to_string())?.circuit)?;
    let mut rng = Rng::new(args.seed ^ 0xc0_4e25);
    let rows: Vec<Vec<f64>> =
        (0..CORNERS).map(|_| nominal.iter().map(|&v| rng.jit(v)).collect()).collect();

    let setup_rep = || -> SetupRep<(BatchSim, ParsedDeck)> {
        let t0 = Instant::now();
        let deck = parse_netlist(&text).map_err(|e| e.to_string())?;
        let parse_s = t0.elapsed().as_secs_f64();
        let tran = deck.tran.ok_or("sweep netlist lacks .tran")?;
        let mut batch = BatchSim::compile(&deck.circuit, tran.tstep, tran.tstop)
            .map_err(|e| e.to_string())?
            .with_threads(THREADS);
        for i in 0..SWEEP_STAGES {
            batch.param(&format!("mn{i}"), ParamKind::MosKp).map_err(|e| e.to_string())?;
            batch.param(&format!("mp{i}"), ParamKind::MosKp).map_err(|e| e.to_string())?;
            batch.param(&format!("cl{i}"), ParamKind::Capacitance).map_err(|e| e.to_string())?;
        }
        for row in &rows {
            batch.add_instance(row).map_err(|e| e.to_string())?;
        }
        let setup_s = t0.elapsed().as_secs_f64();
        // `BatchSim::compile` compiled once inside; time that layer alone,
        // outside the set-up total.
        let t1 = Instant::now();
        black_box(MnaSystem::compile(&deck.circuit).map_err(|e| e.to_string())?);
        Ok(((batch, deck), parse_s, t1.elapsed().as_secs_f64(), setup_s))
    };
    let (batch, deck) = setup_rep()?.0;
    let mut setup_times = SetupTimes::default();
    let tran = deck.tran.expect("checked in set-up");
    print_path(batch.lane_width_in_use(), batch.workers());
    let lane_ok = batch.lane_width_in_use() == LANE_WIDTH;
    out.tally(lane_ok, || {
        format!("lane width {} in use, want {LANE_WIDTH}", batch.lane_width_in_use())
    });

    // Untimed first run: anchors the bitwise checks of every later run.
    let (first, _) = run_batch(&batch, Instant::now());
    let (_, slots) = first.map_err(|e| format!("first batch run: {e}"))?;
    // As in `single_analysis`: set-up and one run, before the checks' own
    // reference runs.
    let peak_rss_mb = instrument::peak_rss_mb();
    let mut anchor = vec![0u64; CORNERS];
    let mut firsts: Vec<Option<TransientResult>> = Vec::with_capacity(CORNERS);
    for (i, slot) in slots.into_iter().enumerate() {
        let r = slot.and_then(Result::ok);
        out.tally(r.is_some(), || format!("corner {i} quarantined in the first run"));
        anchor[i] = r.as_ref().map_or(0, fingerprint);
        firsts.push(r);
    }

    // Sampled corners: an independent direct-LU run must land on exactly the
    // batch instance's time grid, and the instance must be within tolerance
    // of a tight-tolerance serial reference of the same corner.
    let mut errs = Vec::new();
    let mut order: Vec<usize> = (0..CORNERS).collect();
    for k in 0..SAMPLED_CORNERS {
        let j = k + (rng.next_u64() % (CORNERS - k) as u64) as usize;
        order.swap(k, j);
    }
    for &i in &order[..SAMPLED_CORNERS] {
        let Some(inst) = &firsts[i] else { continue };
        let ckt = patched(&deck.circuit, &rows[i]);
        let direct = SimOptions::default().with_solver(SolverHandle::direct());
        let same_grid = run_transient(&ckt, tran.tstep, tran.tstop, &direct)
            .is_ok_and(|r| r.times() == inst.times());
        out.tally(same_grid, || format!("corner {i}: independent run on another time grid"));
        match run_transient(&ckt, tran.tstep, tran.tstop, &tight(SimOptions::default())) {
            Ok(reference) => {
                let err = compare(&reference, inst).rms_rel();
                out.tally(err <= TOL_RMS_REL, || format!("corner {i}: rms_rel {err:.3e}"));
                errs.push(err);
            }
            Err(e) => out.tally(false, || format!("corner {i}: tight reference: {e}")),
        }
    }
    drop(firsts);
    let err_rms_rel = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
    println!("  err_rms_rel      {err_rms_rel:.6e} (mean of {} sampled corners)", errs.len());

    let mut cal = Calibration::new();
    if !args.trace {
        let reps = timed_reps(
            args.seconds,
            |t0| run_batch(&batch, t0),
            |r, _| {
                check_batch(&mut out, &r, &anchor);
                setup_times.sample(&setup_rep, &mut out);
                cal.round();
            },
        );
        let setup = setup_times.medians();
        let wall: Vec<f64> = reps.iter().map(|r| r.wall).collect();
        let cpu: Vec<f64> = reps.iter().map(|r| r.cpu).collect();
        let first: Vec<f64> = reps.iter().map(|r| r.first).collect();
        describe("wall_s", &wall);
        describe("cpu_s", &cpu);
        describe("first_result_s", &first);
        let speed = report_speed(&cal);
        out.metrics.extend([
            ("setup_s", setup.setup_s * speed),
            ("wall_s", median(&wall) * speed),
            ("cpu_s", median(&cpu) * speed),
            ("first_result_s", median(&first) * speed),
            ("peak_rss_mb", peak_rss_mb),
        ]);
        return Ok(out);
    }

    // Traced run. Probes disable the lane tier and the batch overrides the
    // solver handle, so the only instrument is a metrics registry, plus
    // arrival times and per-instance `SimStats`. Each traced run is followed
    // by an untraced one, so the two see the same host state.
    let mut untraced = Vec::new();
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let traced = timed_reps(
        args.seconds,
        |t0| {
            let reg = MetricsRegistry::shared();
            let traced = batch
                .clone()
                .with_sim(SimOptions::default().with_metrics(MetricsHandle::new(Arc::clone(&reg))));
            let (r, first) = run_batch(&traced, t0);
            ((r, reg), first)
        },
        |(r, reg), _| {
            check_batch(&mut out, &r, &anchor);
            if let Ok((dispatch, slots)) = &r {
                traced_layers(dispatch, slots, &reg, &mut layers, &mut out);
            }
            let (r, rep) = time_one(|t0| run_batch(&batch, t0));
            check_batch(&mut out, &r, &anchor);
            untraced.push(rep);
            setup_times.sample(&setup_rep, &mut out);
            cal.round();
        },
    );
    let setup = setup_times.medians();
    let cpu_untraced = median(&untraced.iter().map(|r| r.cpu).collect::<Vec<_>>());
    let cpu_traced = median(&traced.iter().map(|r| r.cpu).collect::<Vec<_>>());
    let mut metrics = vec![
        ("host.spin_efficiency", spin),
        ("host.relative_speed", report_speed(&cal)),
        ("verify.err_rms_rel", err_rms_rel),
        ("circuit.parse_s", setup.parse_s),
        ("engine.mna.compile_s", setup.compile_s),
        ("telemetry.trace_overhead_frac", cpu_traced / cpu_untraced - 1.0),
        ("serial.stamp_s", 0.0),
        ("serial.refactor_solve_s", 0.0),
        ("core.rounds", 0.0),
        ("core.lead_accept_ratio", 0.0),
        ("core.spec_accept_ratio", 0.0),
        ("core.discarded_solves", 0.0),
        ("core.cpu_inflation", 0.0),
        ("core.overhead_cpu_s", 0.0),
        ("core.solve_busy_s", 0.0),
        ("core.critical_path_s", 0.0),
        ("core.round_overhead_s", 0.0),
        ("core.measured_cp_speedup", 0.0),
    ];
    println!("  traced reps {}  untraced reps {}", traced.len(), untraced.len());
    medians(layers, &mut metrics);
    replay_layers(&deck.circuit, &mut metrics)?;
    out.metrics = metrics;
    Ok(out)
}

/// Layer values of one traced batch run: per-instance `SimStats`, the
/// dispatch, and the registry's lane-tier counters.
fn traced_layers(
    dispatch: &BatchDispatch,
    slots: &[Option<InstanceResult>],
    reg: &MetricsRegistry,
    layers: &mut BTreeMap<&'static str, Vec<f64>>,
    out: &mut Outcome,
) {
    out.tally(dispatch.lane_width == LANE_WIDTH, || {
        format!("traced run used lane width {}", dispatch.lane_width)
    });
    let mut total = SimStats::new();
    let mut group_wall = vec![0u128; CORNERS.div_ceil(dispatch.lane_width.max(1))];
    let mut quarantined = 0;
    for (i, slot) in slots.iter().enumerate() {
        match slot {
            Some(Ok(res)) => {
                total += *res.stats();
                // Lanes of one group all report the group's wall.
                let g = &mut group_wall[i / dispatch.lane_width.max(1)];
                *g = (*g).max(res.stats().wall_ns);
            }
            _ => quarantined += 1,
        }
    }
    let lu = LuTotals {
        factor_calls: (total.factorizations - total.refactorizations) as u64,
        refactor_calls: total.refactorizations as u64,
        solve_calls: total.solves as u64,
        ..LuTotals::default()
    };
    layer_split(&total, &lu, None, layers);
    let mut put = |k: &'static str, v: f64| layers.entry(k).or_default().push(v);
    put("batch.prep_s", dispatch.prep_ns as f64 * 1e-9);
    put("batch.instance_solve_s", group_wall.iter().sum::<u128>() as f64 * 1e-9);
    put("batch.lane_width", dispatch.lane_width as f64);
    put("batch.quarantined", quarantined as f64);
    put("batch.lane_groups", reg.get(Counter::LaneGroups) as f64);
    put("batch.lane_packed_solves", reg.get(Counter::LanePackedSolves) as f64);
    put("batch.lane_ejections", reg.get(Counter::LaneEjections) as f64);
}

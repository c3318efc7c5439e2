//! Variable-step transient analysis.
//!
//! The module is split the way WavePipe needs it:
//!
//! * [`HistoryWindow`] — the few most recent accepted points plus capacitor
//!   state: everything required to solve the *next* point. Cloneable, so
//!   concurrent WavePipe tasks can each take a consistent snapshot.
//! * [`PointSolver`] — solves one time point from a history window
//!   (companion stamping + Newton). Cloneable: one per thread.
//! * [`StepControl`] — the step policy: initial step, breakpoint snapping
//!   and restart, LTE accept/reject with the error-floor escape, Newton
//!   back-off into the recovery ladder. [`accept_point`] is the one commit
//!   path.
//! * [`run_transient`] — the serial reference loop. The lane tier
//!   ([`crate::lane`]) and WavePipe's round driver run the same
//!   `StepControl` and `accept_point`, so their accepted points satisfy
//!   identical accuracy tests.

use crate::dcop::dc_operating_point;
use crate::error::{EngineError, Result};
use crate::fault::FaultKind;
use crate::integrate::{IntegCoeffs, Method};
use crate::lte::lte_step_control;
use crate::mna::{MnaSystem, MnaWorkspace, StampInput};
use crate::newton::{newton_solve, LinearCache};
use crate::options::SimOptions;
use crate::parstamp::StampExecutor;
use crate::result::TransientResult;
use crate::stats::SimStats;
use std::sync::Arc;
use std::time::Instant;
use wavepipe_circuit::Circuit;
use wavepipe_telemetry::{Counter, EventKind, Family, Gauge, Series};

/// Number of past points retained for companions, prediction, and LTE.
const WINDOW: usize = 4;

/// Coefficients for updating capacitor-current *state* at an accepted point.
///
/// The natural trapezoidal state recursion `i_n = 2C/h (u_n - u_(n-1)) -
/// i_(n-1)` is unstable to solver noise (the alternating term compounds), so
/// states are instead estimated by a variable-step BDF2 divided-difference
/// derivative of the node voltages — O(h^2) accurate, hence consistent with
/// every second-order companion, and free of recursion.
pub(crate) fn state_coeffs(hw: &HistoryWindow, t_new: f64) -> IntegCoeffs {
    let h = t_new - hw.times[0];
    if hw.times.len() >= 2 && hw.points_since_restart >= 1 {
        let h_prev = hw.times[0] - hw.times[1];
        IntegCoeffs::new(Method::Gear2, h, h_prev)
    } else {
        IntegCoeffs::new(Method::BackwardEuler, h, h)
    }
}

/// The recent accepted-solution window: the complete state needed to take
/// the next step.
#[derive(Debug, Clone)]
pub struct HistoryWindow {
    /// Accepted times, newest first (at most [`WINDOW`]).
    times: Vec<f64>,
    /// Solutions parallel to `times`.
    xs: Vec<Vec<f64>>,
    /// Capacitor currents at `times[0]`.
    cap_currents: Vec<f64>,
    /// Accepted points since the last discontinuity (integration restart).
    points_since_restart: usize,
}

impl HistoryWindow {
    /// Starts a history at `t = 0` from the DC operating point.
    pub fn start(x0: Vec<f64>, n_cap_states: usize) -> Self {
        HistoryWindow {
            times: vec![0.0],
            xs: vec![x0],
            cap_currents: vec![0.0; n_cap_states],
            points_since_restart: 0,
        }
    }

    /// Current (latest accepted) time.
    pub fn t(&self) -> f64 {
        self.times[0]
    }

    /// Latest accepted solution.
    pub fn x(&self) -> &[f64] {
        &self.xs[0]
    }

    /// Times, newest first.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Solutions, newest first.
    pub fn solutions(&self) -> &[Vec<f64>] {
        &self.xs
    }

    /// Capacitor currents at the latest point.
    pub fn cap_currents(&self) -> &[f64] {
        &self.cap_currents
    }

    /// Accepted points since the last integration restart.
    pub fn points_since_restart(&self) -> usize {
        self.points_since_restart
    }

    /// The previous accepted step size, if two points exist.
    pub fn h_prev(&self) -> Option<f64> {
        (self.times.len() >= 2).then(|| self.times[0] - self.times[1])
    }

    /// Marks an integration restart (source slope discontinuity): the next
    /// step will use backward Euler and LTE restarts its window.
    pub fn mark_discontinuity(&mut self) {
        self.points_since_restart = 0;
    }

    /// The method actually usable for the next step, given the requested one
    /// and the available smooth history.
    pub fn effective_method(&self, requested: Method) -> Method {
        match requested {
            Method::BackwardEuler => Method::BackwardEuler,
            Method::Trapezoidal => {
                if self.points_since_restart < 1 {
                    Method::BackwardEuler
                } else {
                    Method::Trapezoidal
                }
            }
            Method::Gear2 => {
                if self.points_since_restart < 2 || self.times.len() < 2 {
                    Method::BackwardEuler
                } else {
                    Method::Gear2
                }
            }
        }
    }

    /// Polynomial (linear) prediction of the solution at `t_new`, used as the
    /// Newton initial guess — and by WavePipe's forward pipelining as the
    /// speculative history value.
    pub fn predict(&self, t_new: f64) -> Vec<f64> {
        if self.times.len() < 2 || self.points_since_restart == 0 {
            return self.xs[0].clone();
        }
        if self.times.len() >= 3 && self.points_since_restart >= 2 {
            // Quadratic Lagrange extrapolation through the last three points
            // (matches the second-order integration methods).
            let (t0, t1, t2) = (self.times[0], self.times[1], self.times[2]);
            let l0 = (t_new - t1) * (t_new - t2) / ((t0 - t1) * (t0 - t2));
            let l1 = (t_new - t0) * (t_new - t2) / ((t1 - t0) * (t1 - t2));
            let l2 = (t_new - t0) * (t_new - t1) / ((t2 - t0) * (t2 - t1));
            return self.xs[0]
                .iter()
                .zip(&self.xs[1])
                .zip(&self.xs[2])
                .map(|((&x0, &x1), &x2)| l0 * x0 + l1 * x1 + l2 * x2)
                .collect();
        }
        let dt = self.times[0] - self.times[1];
        let scale = (t_new - self.times[0]) / dt;
        self.xs[0].iter().zip(&self.xs[1]).map(|(&x0, &x1)| x0 + (x0 - x1) * scale).collect()
    }

    /// Accepts a solved point, rolling the window forward. The capacitor
    /// currents were computed by [`PointSolver::solve_point`] against the
    /// *same history the companion integration used* — important for
    /// WavePipe, where the committing window may already contain trailing
    /// points the solve never saw.
    pub fn accept(&mut self, sol: &PointSolution) {
        self.times.insert(0, sol.t);
        self.xs.insert(0, sol.x.clone());
        self.times.truncate(WINDOW);
        self.xs.truncate(WINDOW);
        self.cap_currents = sol.cap_currents.clone();
        self.points_since_restart += 1;
    }

    /// Number of history points usable for LTE (within the smooth region).
    pub fn usable_for_lte(&self) -> usize {
        (self.points_since_restart + 1).min(self.times.len())
    }

    /// Returns a copy of this window advanced by a *hypothetical* point —
    /// WavePipe's forward pipelining speculates on the next solution and
    /// builds the pipelined task's history from the prediction.
    ///
    /// Capacitor currents are updated through the same state-derivative
    /// formula an actual accept would use, so the speculative window is
    /// internally consistent.
    pub fn speculate(&self, sys: &MnaSystem, t_new: f64, x_new: Vec<f64>) -> HistoryWindow {
        let mut next = self.clone();
        let coeffs = state_coeffs(self, t_new);
        let x_prev2 = if self.xs.len() >= 2 { &self.xs[1] } else { &self.xs[0] };
        let caps =
            sys.cap_currents_after(&coeffs, &x_new, &self.xs[0], x_prev2, &self.cap_currents);
        next.times.insert(0, t_new);
        next.xs.insert(0, x_new);
        next.times.truncate(WINDOW);
        next.xs.truncate(WINDOW);
        next.cap_currents = caps;
        next.points_since_restart += 1;
        next
    }
}

/// A solved candidate time point.
#[derive(Debug, Clone)]
pub struct PointSolution {
    /// The time of the point.
    pub t: f64,
    /// The converged solution.
    pub x: Vec<f64>,
    /// Method actually used.
    pub method: Method,
    /// Discretisation coefficients used (needed to update capacitor state).
    pub coeffs: IntegCoeffs,
    /// Whether Newton converged.
    pub converged: bool,
    /// Newton iterations spent.
    pub iterations: usize,
    /// Capacitor currents at this point, computed against the history the
    /// companion integration actually used (empty if Newton failed).
    pub cap_currents: Vec<f64>,
    /// Work performed for this point alone.
    pub stats: SimStats,
}

/// Solves individual time points against a history window.
///
/// Owns the per-thread mutable state (matrix values, RHS, LU factors), while
/// the compiled [`MnaSystem`] is shared. Clone one per WavePipe thread.
///
/// With [`SimOptions::stamp_workers`] `>= 1` each solver also owns a
/// [`StampExecutor`] — a private worker set evaluating devices in parallel
/// during every stamp, with bit-identical results to the serial path.
#[derive(Debug)]
pub struct PointSolver {
    pub(crate) sys: Arc<MnaSystem>,
    pub(crate) opts: SimOptions,
    pub(crate) ws: MnaWorkspace,
    pub(crate) cache: LinearCache,
    pub(crate) exec: Option<StampExecutor>,
    /// Monotone per-solver solve counter — together with the fault handle's
    /// lane tag, the deterministic coordinate fault injection keys on.
    solve_seq: u64,
}

impl Clone for PointSolver {
    fn clone(&self) -> Self {
        // Worker threads are not shareable state: each clone gets its own
        // executor so WavePipe lanes never contend on one worker set.
        PointSolver {
            sys: Arc::clone(&self.sys),
            opts: self.opts.clone(),
            ws: self.ws.clone(),
            cache: self.cache.clone(),
            exec: self
                .exec
                .as_ref()
                .and_then(|e| StampExecutor::new(&self.sys, e.workers(), &self.opts.faults)),
            solve_seq: self.solve_seq,
        }
    }
}

impl PointSolver {
    /// Creates a solver for a compiled system.
    pub fn new(sys: Arc<MnaSystem>, opts: SimOptions) -> Self {
        let ws = sys.new_workspace();
        let exec = if opts.stamp_workers >= 1 {
            StampExecutor::new(&sys, opts.stamp_workers, &opts.faults)
        } else {
            None
        };
        let cache = LinearCache::for_options(&opts);
        PointSolver { sys, opts, ws, cache, exec, solve_seq: 0 }
    }

    /// The compiled system.
    pub fn system(&self) -> &MnaSystem {
        &self.sys
    }

    /// The options in effect.
    pub fn options(&self) -> &SimOptions {
        &self.opts
    }

    /// Computes the DC operating point (the `t = 0` state).
    ///
    /// # Errors
    ///
    /// See [`dc_operating_point`].
    pub fn dc_op(&mut self, stats: &mut SimStats) -> Result<Vec<f64>> {
        dc_operating_point(
            &self.sys,
            &mut self.ws,
            &mut self.cache,
            self.exec.as_mut(),
            &self.opts,
            stats,
        )
    }

    /// Computes the transient starting state: the DC operating point, or —
    /// when [`SimOptions::use_ic`] is set — a `UIC` solve that forces
    /// capacitors to their declared initial voltages (discharged when
    /// unspecified) and inductors to their initial currents.
    ///
    /// # Errors
    ///
    /// Propagates operating-point / Newton failures.
    pub fn initial_state(&mut self, stats: &mut SimStats) -> Result<Vec<f64>> {
        if !self.opts.use_ic {
            return self.dc_op(stats);
        }
        let n = self.sys.n_unknowns();
        let zeros = vec![0.0; n];
        let caps = vec![0.0; self.sys.cap_state_count()];
        let input = StampInput {
            time: 0.0,
            coeffs: None,
            x_prev: &zeros,
            x_prev2: &zeros,
            cap_currents: &caps,
            gmin: self.opts.gmin,
            gshunt: self.opts.gmin,
            source_scale: 1.0,
            ic_mode: true,
        };
        let out = newton_solve(
            &self.sys,
            &mut self.ws,
            &mut self.cache,
            self.exec.as_mut(),
            &input,
            &zeros,
            self.opts.max_dc_iters,
            &self.opts,
            stats,
        )?;
        if !out.converged {
            return Err(crate::error::EngineError::NoConvergence {
                time: 0.0,
                iterations: out.iterations,
                report: Box::new(crate::recovery::residual_report(&self.sys, &self.ws, &out.x)),
            });
        }
        // The IC stamp pattern differs numerically from the transient one;
        // drop the pivot order so the first real step re-factors cleanly.
        self.cache.invalidate();
        Ok(out.x)
    }

    /// Dismantles the solver into the workspace and linear cache a lane of
    /// the packed batch tier continues from after the DC solve (see
    /// [`crate::lane`]).
    pub(crate) fn into_lane_parts(self) -> (MnaWorkspace, LinearCache) {
        (self.ws, self.cache)
    }

    /// Solves the circuit at `t_new` from the history window `hw`.
    ///
    /// `x_guess` overrides the default predictor as the Newton start;
    /// `history_override` substitutes the previous-point solution (WavePipe
    /// forward pipelining passes the *predicted* previous point here).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Linear`] only for unrecoverable matrix
    /// failures; Newton non-convergence is reported via
    /// [`PointSolution::converged`].
    pub fn solve_point(
        &mut self,
        hw: &HistoryWindow,
        t_new: f64,
        x_guess: Option<&[f64]>,
        max_iters: usize,
    ) -> Result<PointSolution> {
        let start = Instant::now();
        let t0 = hw.t();
        assert!(t_new > t0, "time must advance: {t_new} <= {t0}");
        let h = t_new - t0;
        self.opts.probe.emit(t_new, EventKind::SolveStart { h });
        let method = hw.effective_method(self.opts.method);
        let h_prev = hw.h_prev().unwrap_or(h);
        let coeffs = IntegCoeffs::new(method, h, h_prev);
        // Deterministic fault injection, keyed on (lane, solve index). An
        // inert handle reduces this to one branch.
        let injected = {
            let seq = self.solve_seq;
            self.solve_seq = self.solve_seq.wrapping_add(1);
            self.opts.faults.solve_fault(seq)
        };
        match injected {
            Some(FaultKind::PanicWorker) => {
                panic!(
                    "injected fault: worker panic on lane {} at solve {}",
                    self.opts.faults.lane(),
                    self.solve_seq - 1
                );
            }
            Some(FaultKind::SlowSolve { millis }) => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
            }
            Some(FaultKind::ForceNonConvergence) => {
                // Report the point as unconverged no matter what Newton would
                // have done, leaving the caches untouched (a genuinely stale
                // cache is exactly what the recovery ladder's rollback rung
                // exists to clear). The step controller shrinks to the floor
                // and then enters the ladder; rescue solves are fault-exempt,
                // so the rescue always lands.
                return Ok(self.abandoned(hw, t_new, coeffs, max_iters, SimStats::new(), start));
            }
            Some(FaultKind::SingularMatrix) => {
                // Behave exactly like a genuinely singular companion matrix
                // (the `EngineError::Linear` branch below): unconverged
                // result, poisoned factorization dropped.
                self.cache.invalidate();
                return Ok(self.abandoned(hw, t_new, coeffs, max_iters, SimStats::new(), start));
            }
            _ => {}
        }
        let x_prev2 = if hw.xs.len() >= 2 { &hw.xs[1] } else { &hw.xs[0] };
        let input = StampInput {
            time: t_new,
            coeffs: Some(coeffs),
            x_prev: &hw.xs[0],
            x_prev2,
            cap_currents: &hw.cap_currents,
            gmin: self.opts.gmin,
            gshunt: 0.0,
            source_scale: 1.0,
            ic_mode: false,
        };
        let guess = match x_guess {
            Some(g) => g.to_vec(),
            None => hw.predict(t_new),
        };
        let mut stats = SimStats::new();
        let outcome = match newton_solve(
            &self.sys,
            &mut self.ws,
            &mut self.cache,
            self.exec.as_mut(),
            &input,
            &guess,
            max_iters,
            &self.opts,
            &mut stats,
        ) {
            Ok(o) => o,
            Err(EngineError::Linear(_)) => {
                // A singular companion matrix at this step size: report as
                // non-convergence so the controller backs off; drop the
                // (possibly poisoned) factorization.
                self.cache.invalidate();
                return Ok(self.abandoned(hw, t_new, coeffs, max_iters, stats, start));
            }
            Err(e) => return Err(e),
        };
        let mut outcome = outcome;
        if matches!(injected, Some(FaultKind::NanSolution)) && outcome.converged {
            // The solve itself succeeded; poison the answer so the commit
            // machinery's finiteness test has something real to catch.
            outcome.x.iter_mut().for_each(|v| *v = f64::NAN);
        }
        let cap_currents = if outcome.converged {
            let sc = state_coeffs(hw, t_new);
            self.sys.cap_currents_after(&sc, &outcome.x, &hw.xs[0], x_prev2, &hw.cap_currents)
        } else {
            // The cached LU was computed along an abandoned Newton path:
            // make chord reuse re-qualify through a fresh factorization.
            self.cache.note_rejection();
            Vec::new()
        };
        stats.wall_ns += start.elapsed().as_nanos();
        self.opts.probe.emit(
            t_new,
            EventKind::SolveEnd {
                iterations: outcome.iterations as u32,
                converged: outcome.converged,
            },
        );
        self.publish_solve_metrics(outcome.iterations, start);
        Ok(PointSolution {
            t: t_new,
            x: outcome.x,
            method,
            coeffs,
            converged: outcome.converged,
            iterations: outcome.iterations,
            cap_currents,
            stats,
        })
    }

    /// The result of a solve abandoned before Newton finished (an injected
    /// fault, a singular companion matrix): unconverged at the full
    /// iteration budget, holding the previous solution.
    #[cold]
    fn abandoned(
        &self,
        hw: &HistoryWindow,
        t_new: f64,
        coeffs: IntegCoeffs,
        max_iters: usize,
        mut stats: SimStats,
        start: Instant,
    ) -> PointSolution {
        stats.wall_ns += start.elapsed().as_nanos();
        self.opts
            .probe
            .emit(t_new, EventKind::SolveEnd { iterations: max_iters as u32, converged: false });
        self.publish_solve_metrics(max_iters, start);
        PointSolution {
            t: t_new,
            x: hw.xs[0].clone(),
            method: coeffs.method,
            coeffs,
            converged: false,
            iterations: max_iters,
            cap_currents: Vec::new(),
            stats,
        }
    }

    /// Mirrors a finished point-solve into the metrics registry: scalar and
    /// per-lane solve counts plus the iteration / wall-time series. The
    /// wall-time series is timing data — anything that promises byte
    /// stability reads only the counts. The body is `#[cold]`/out-of-line so
    /// the disabled path costs one branch without growing the solve path.
    fn publish_solve_metrics(&self, iterations: usize, start: Instant) {
        if self.opts.metrics.enabled() {
            publish_solve_metrics_cold(&self.opts.metrics, iterations, start);
        }
    }
}

/// Out-of-line body of [`PointSolver::publish_solve_metrics`].
#[cold]
#[inline(never)]
fn publish_solve_metrics_cold(
    m: &wavepipe_telemetry::MetricsHandle,
    iterations: usize,
    start: Instant,
) {
    m.inc(Counter::Solves);
    m.add_lane(Family::SolvesByLane, 1);
    m.observe(Series::NewtonItersPerSolve, iterations as f64);
    m.observe(Series::SolveMicros, start.elapsed().as_nanos() as f64 / 1e3);
}

/// Out-of-line publish of one accepted point: scalar and per-lane counts,
/// the step-size series, and the live `current_h` gauge (the committed
/// stride). `#[cold]` so the accept path stays small when no registry is
/// attached.
#[cold]
#[inline(never)]
fn publish_accept_metrics(m: &wavepipe_telemetry::MetricsHandle, h_used: f64, stride: f64) {
    m.inc(Counter::PointsAccepted);
    m.add_lane(Family::PointsByLane, 1);
    m.observe(Series::StepSize, h_used);
    m.set_gauge(Gauge::CurrentH, stride);
}

/// Commits an accepted point, the one accept path of every step loop: the
/// [`EventKind::PointAccepted`] event and the accept metrics (through
/// `opts.probe` / `opts.metrics`), the window roll, the waveform sample,
/// and [`SimStats::steps_accepted`].
pub fn accept_point(
    sol: &PointSolution,
    hw: &mut HistoryWindow,
    result: &mut TransientResult,
    stats: &mut SimStats,
    opts: &SimOptions,
) {
    opts.probe.emit(sol.t, EventKind::PointAccepted { h: sol.coeffs.h });
    if opts.metrics.enabled() {
        publish_accept_metrics(&opts.metrics, sol.coeffs.h, sol.t - hw.t());
    }
    hw.accept(sol);
    result.push(sol.t, &sol.x);
    stats.steps_accepted += 1;
}

/// What [`StepControl::judge`] made of a solved candidate point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// The point passes; the controller already holds `h_next` as its next
    /// proposal. `ratio` is the LTE error ratio, `None` when too little
    /// smooth history existed to test it.
    Accept {
        /// Proposed next step.
        h_next: f64,
        /// LTE error ratio (`<= 1`), if the test ran.
        ratio: Option<f64>,
    },
    /// The LTE test rejected the point; `h_retry` is its retry proposal.
    RejectLte {
        /// Retry step proposed by the LTE test.
        h_retry: f64,
    },
    /// Newton did not converge.
    Unconverged,
    /// Newton converged, but to a non-finite solution. The serial loop
    /// reports [`EngineError::NumericalBlowup`]; WavePipe treats it as a
    /// Newton rejection, since a worker's solution may be poisoned.
    NonFinite,
}

/// The transient step policy shared by every step loop — the serial loop,
/// the lane tier, and WavePipe's round driver: the analysis window, the
/// source breakpoints, the step bounds and the current step proposal, plus
/// the LTE-rejection streak behind the error-floor escape.
///
/// Callers own the history window and the solver; the controller decides
/// where the next point goes and what a solved point means for the step.
#[derive(Debug, Clone)]
pub struct StepControl {
    tstep: f64,
    tstop: f64,
    hmin: f64,
    hmax: f64,
    bps: Vec<f64>,
    next_bp: usize,
    /// The current step proposal: the next step from the latest history
    /// point, before [`StepControl::begin`] clamps it.
    pub h: f64,
    /// Consecutive LTE rejections at the same position: the signature of an
    /// h-independent error floor (see [`StepControl::reject_lte`]).
    lte_streak: usize,
}

impl StepControl {
    /// Validates the analysis window and sets up the policy for `sys`:
    /// breakpoints in `(0, tstop]`, the step bounds, and the initial step.
    ///
    /// # Errors
    ///
    /// [`EngineError::BadParameter`] for a non-positive or non-finite
    /// `tstop` or `tstep`.
    pub fn new(sys: &MnaSystem, tstep: f64, tstop: f64, opts: &SimOptions) -> Result<Self> {
        if !(tstop > 0.0 && tstop.is_finite()) {
            return Err(EngineError::BadParameter { name: "tstop", value: tstop });
        }
        if !(tstep > 0.0 && tstep.is_finite()) {
            return Err(EngineError::BadParameter { name: "tstep", value: tstep });
        }
        let hmin = opts.hmin(tstop);
        let hmax = opts.hmax(tstop);
        Ok(StepControl {
            tstep,
            tstop,
            hmin,
            hmax,
            bps: sys.breakpoints(tstop),
            next_bp: 0,
            h: tstep.min(hmax).min(tstop / 100.0).max(hmin),
            lte_streak: 0,
        })
    }

    /// The step floor.
    pub fn hmin(&self) -> f64 {
        self.hmin
    }

    /// The step ceiling.
    pub fn hmax(&self) -> f64 {
        self.hmax
    }

    /// `true` once the history at `t` has reached `tstop` (written as the
    /// negation of `t < tstop - hmin/2`, so a NaN time also ends the run).
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn done(&self, t: f64) -> bool {
        !(t < self.tstop - 0.5 * self.hmin)
    }

    /// Starts a step from `t`: clamps the proposal into `[hmin, hmax]` and
    /// returns it.
    ///
    /// # Errors
    ///
    /// [`EngineError::NumericalBlowup`] when the proposal is not finite.
    pub fn begin(&mut self, t: f64) -> Result<f64> {
        if !self.h.is_finite() {
            return Err(EngineError::NumericalBlowup { time: t });
        }
        self.h = self.h.clamp(self.hmin, self.hmax);
        Ok(self.h)
    }

    /// [`StepControl::begin`] plus [`StepControl::clip_targets`] for the
    /// one target `t + h`: the next time point and whether it sits on a
    /// breakpoint (or `tstop`).
    ///
    /// # Errors
    ///
    /// As [`StepControl::begin`].
    pub fn propose(&mut self, t: f64) -> Result<(f64, bool)> {
        let h = self.begin(t)?;
        let limit = self.horizon(t);
        Ok(if self.reaches(limit, t + h) { (limit, true) } else { (t + h, false) })
    }

    /// Clips an ascending target list past the history time `t` at the
    /// horizon — the next breakpoint not yet passed, or `tstop`: targets
    /// beyond it are dropped and the last kept target snaps onto it.
    /// Returns the clipped list and whether its last target is the horizon.
    pub fn clip_targets(&mut self, t: f64, raw: &[f64]) -> (Vec<f64>, bool) {
        let limit = self.horizon(t);
        let mut out = Vec::with_capacity(raw.len());
        for &target in raw {
            if self.reaches(limit, target) {
                out.push(limit);
                return (out, true);
            }
            out.push(target);
        }
        (out, false)
    }

    /// The horizon seen from history time `t`, skipping the breakpoints the
    /// history has already passed.
    fn horizon(&mut self, t: f64) -> f64 {
        while self.next_bp < self.bps.len() && self.bps[self.next_bp] <= t + 0.5 * self.hmin {
            self.next_bp += 1;
        }
        self.bps.get(self.next_bp).copied().unwrap_or(self.tstop).min(self.tstop)
    }

    /// Whether `target` is close enough to the horizon `limit` to snap onto it.
    fn reaches(&self, limit: f64, target: f64) -> bool {
        target >= limit - 0.5 * self.hmin
    }

    /// Judges a solved candidate against the history `hw` it would extend:
    /// Newton convergence, finiteness, then the LTE test with the stride
    /// the candidate actually used (`sol.coeffs.h` — a WavePipe lead
    /// integrates across several committed points). On accept the next
    /// proposal is already in place; a rejection changes nothing, so the
    /// caller decides whether it is the run's step
    /// ([`StepControl::reject_lte`], [`StepControl::reject_newton`]).
    pub fn judge(&mut self, hw: &HistoryWindow, sol: &PointSolution, opts: &SimOptions) -> Verdict {
        if !sol.converged {
            return Verdict::Unconverged;
        }
        if !wavepipe_sparse::vector::all_finite(&sol.x) {
            return Verdict::NonFinite;
        }
        let h_used = sol.coeffs.h;
        let needed = sol.method.order() + 1;
        if hw.usable_for_lte() < needed {
            self.h = h_used * opts.rmax;
            return Verdict::Accept { h_next: self.h, ratio: None };
        }
        let refs: Vec<&[f64]> = hw.solutions()[..needed].iter().map(|v| v.as_slice()).collect();
        let d =
            lte_step_control(sol.method, sol.t, &sol.x, h_used, &hw.times()[..needed], &refs, opts);
        if !d.accept && h_used > self.hmin * 1.01 {
            return Verdict::RejectLte { h_retry: d.h_new };
        }
        self.lte_streak = 0;
        self.h = d.h_new;
        Verdict::Accept { h_next: d.h_new, ratio: Some(d.ratio) }
    }

    /// Takes an LTE rejection of the run's step of stride `h_attempt`:
    /// counts it and retries at `h_retry` — unless the rejection is the
    /// third in a row, or came while crawling below `1e3 * hmin`. Both are
    /// signatures of an error floor the step cannot buy out of (trapezoidal
    /// ringing, solver-noise-dominated divided differences), so integration
    /// restarts with the damped order-1 method at the same step instead.
    pub fn reject_lte(
        &mut self,
        hw: &mut HistoryWindow,
        h_attempt: f64,
        h_retry: f64,
        stats: &mut SimStats,
        opts: &SimOptions,
    ) {
        stats.steps_rejected_lte += 1;
        opts.metrics.inc(Counter::LteRejects);
        self.lte_streak += 1;
        let crawling = h_attempt < self.hmin * 1e3;
        if self.lte_streak >= 3 || crawling {
            hw.mark_discontinuity();
            self.lte_streak = 0;
            self.h = h_attempt;
        } else {
            self.h = h_retry;
        }
    }

    /// Takes a Newton rejection of the run's step of stride `h_attempt`
    /// from history time `t`: counts it and shrinks the step by
    /// `opts.nr_shrink`. Returns `true` when the step fell below the floor
    /// and the recovery ladder should rescue the point.
    ///
    /// # Errors
    ///
    /// [`EngineError::TimestepTooSmall`] when the step fell below the floor
    /// with recovery disabled.
    pub fn reject_newton(
        &mut self,
        t: f64,
        h_attempt: f64,
        stats: &mut SimStats,
        opts: &SimOptions,
    ) -> Result<bool> {
        stats.steps_rejected_newton += 1;
        opts.metrics.inc(Counter::NewtonRejects);
        self.h = h_attempt * opts.nr_shrink;
        if self.h >= self.hmin {
            return Ok(false);
        }
        if !opts.recovery {
            return Err(EngineError::TimestepTooSmall { time: t, step: self.h, hmin: self.hmin });
        }
        Ok(true)
    }

    /// Restarts after a rescued point was committed: a rescue is a fully
    /// converged solution at (or below) the floor, so integration restarts
    /// cautiously from the floor.
    pub fn restart_after_rescue(&mut self, hw: &mut HistoryWindow) {
        hw.mark_discontinuity();
        self.lte_streak = 0;
        self.h = self.hmin;
    }

    /// Restarts after the history landed on the horizon target of
    /// [`StepControl::clip_targets`]: integration restarts past the corner
    /// and the step is capped at a quarter of `tstep` and of the gap to the
    /// next breakpoint (floored at `hmin`).
    pub fn land(&mut self, hw: &mut HistoryWindow) {
        self.next_bp += 1;
        hw.mark_discontinuity();
        let t = hw.t();
        let to_next = self.bps.get(self.next_bp).map_or(self.tstop - t, |&b| b - t);
        self.h = self.h.min(self.tstep * 0.25).min((to_next * 0.25).max(self.hmin));
    }
}

/// A transient run's result together with the error (if any) that ended it:
/// the fault-tolerant view of an analysis, where a mid-run failure keeps the
/// waveform prefix accepted before it.
#[derive(Debug, Clone)]
pub struct TransientOutcome {
    /// Every point accepted before the run ended (always holds at least the
    /// `t = 0` point).
    pub result: TransientResult,
    /// `None` for a clean run to `tstop`; otherwise the terminal error.
    pub error: Option<EngineError>,
}

impl TransientOutcome {
    /// Collapses to the classic all-or-nothing view: the full result on a
    /// clean run, the terminal error (partial waveform dropped) otherwise.
    ///
    /// # Errors
    ///
    /// Returns the terminal error of a partial run.
    pub fn into_result(self) -> Result<TransientResult> {
        match self.error {
            None => Ok(self.result),
            Some(e) => Err(e),
        }
    }
}

/// Runs a serial variable-step transient analysis of `circuit` from 0 to
/// `tstop`.
///
/// `tstep` is the suggested initial/reporting step (as in `.tran`), not a
/// fixed step: the controller adapts freely between `hmin` and `hmax`.
///
/// # Errors
///
/// * [`EngineError::BadParameter`] for non-positive `tstep`/`tstop`.
/// * [`EngineError::Circuit`] for invalid netlists.
/// * [`EngineError::NoConvergence`] if the DC operating point fails.
/// * [`EngineError::TimestepTooSmall`] if error control collapses the step.
/// * [`EngineError::DeadlineExceeded`] / [`EngineError::Cancelled`] when a
///   configured budget ends the run early (use
///   [`run_transient_recoverable`] to keep the partial waveform).
pub fn run_transient(
    circuit: &Circuit,
    tstep: f64,
    tstop: f64,
    opts: &SimOptions,
) -> Result<TransientResult> {
    run_transient_recoverable(circuit, tstep, tstop, opts)?.into_result()
}

/// [`run_transient`] on an already-compiled system (avoids recompilation
/// when the same circuit is simulated repeatedly).
///
/// # Errors
///
/// Same as [`run_transient`].
pub fn run_transient_compiled(
    sys: &Arc<MnaSystem>,
    tstep: f64,
    tstop: f64,
    opts: &SimOptions,
) -> Result<TransientResult> {
    run_transient_recoverable_compiled(sys, tstep, tstop, opts)?.into_result()
}

/// [`run_transient`], keeping the accepted waveform prefix when the run ends
/// early: a `TimestepTooSmall` at `t = 0.9 * tstop` (or an expired deadline)
/// returns 90% of the waveform plus the error instead of nothing.
///
/// # Errors
///
/// Only for failures *before* any stepping happens — bad parameters, an
/// invalid circuit, or an unconverged initial state. Every later failure is
/// reported through [`TransientOutcome::error`].
pub fn run_transient_recoverable(
    circuit: &Circuit,
    tstep: f64,
    tstop: f64,
    opts: &SimOptions,
) -> Result<TransientOutcome> {
    let sys = Arc::new(MnaSystem::compile(circuit)?);
    run_transient_recoverable_compiled(&sys, tstep, tstop, opts)
}

/// [`run_transient_recoverable`] on an already-compiled system.
///
/// # Errors
///
/// Same as [`run_transient_recoverable`].
pub fn run_transient_recoverable_compiled(
    sys: &Arc<MnaSystem>,
    tstep: f64,
    tstop: f64,
    opts: &SimOptions,
) -> Result<TransientOutcome> {
    let mut step = StepControl::new(sys, tstep, tstop, opts)?;
    let run_start = Instant::now();
    let mut stats = SimStats::new();
    let mut solver = PointSolver::new(Arc::clone(sys), opts.clone());
    let node_names: Vec<String> = (0..sys.n_nodes()).map(|i| nth_node_name(sys, i)).collect();
    let mut result = TransientResult::new(sys.n_unknowns(), node_names);
    result.set_branch_names(sys.branch_names().to_vec());

    // t = 0: DC operating point (or the UIC initial-condition solve).
    let x0 = solver.initial_state(&mut stats)?;
    result.push(0.0, &x0);
    let mut hw = HistoryWindow::start(x0, sys.cap_state_count());

    // The wall-clock budget starts now — after the initial solve, so even a
    // zero budget yields the `t = 0` point.
    opts.arm_deadline();

    // The stepping loop proper, with every mid-run failure funnelled into a
    // captured error so the accepted prefix survives.
    let loop_outcome = (|| -> Result<()> {
        while !step.done(hw.t()) {
            opts.check_budget(hw.t())?;
            let (t_new, hit) = step.propose(hw.t())?;
            let sol = solver.solve_point(&hw, t_new, None, opts.max_newton_iters)?;
            stats += sol.stats;
            match step.judge(&hw, &sol, opts) {
                Verdict::Accept { .. } => {
                    accept_point(&sol, &mut hw, &mut result, &mut stats, opts);
                    if hit {
                        step.land(&mut hw);
                    }
                }
                Verdict::RejectLte { h_retry } => {
                    step.reject_lte(&mut hw, sol.coeffs.h, h_retry, &mut stats, opts);
                }
                Verdict::NonFinite => return Err(EngineError::NumericalBlowup { time: t_new }),
                Verdict::Unconverged => {
                    if step.reject_newton(hw.t(), sol.coeffs.h, &mut stats, opts)? {
                        // The step collapsed below the floor: the recovery
                        // ladder's rescued point is a converged, finite
                        // true-system solution, accepted like any other.
                        let rescued = solver.rescue_point(
                            &hw,
                            sol.coeffs.h,
                            step.hmin(),
                            sol.iterations,
                            &mut stats,
                        )?;
                        accept_point(&rescued, &mut hw, &mut result, &mut stats, opts);
                        step.restart_after_rescue(&mut hw);
                    }
                }
            }
        }
        Ok(())
    })();

    stats.wall_ns = run_start.elapsed().as_nanos();
    result.set_stats(stats);
    Ok(TransientOutcome { result, error: loop_outcome.err() })
}

fn nth_node_name(sys: &MnaSystem, unknown: usize) -> String {
    sys.node_name_of(unknown).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavepipe_circuit::Waveform;

    fn rc_circuit(tau_r: f64, tau_c: f64) -> Circuit {
        let mut ckt = Circuit::new("rc step");
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource(
            "V1",
            a,
            Circuit::GROUND,
            Waveform::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0, 0.0),
        )
        .unwrap();
        ckt.add_resistor("R1", a, b, tau_r).unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, tau_c).unwrap();
        ckt
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        // tau = 1k * 1n = 1 us. Simulate 5 tau; compare against 1-exp(-t/tau).
        let ckt = rc_circuit(1e3, 1e-9);
        let opts = SimOptions::default();
        let res = run_transient(&ckt, 1e-8, 5e-6, &opts).unwrap();
        let b = res.unknown_of("b").unwrap();
        let tau = 1e-6;
        let mut worst = 0.0_f64;
        for &t in res.times() {
            if t < 5e-12 {
                continue;
            }
            let exact = 1.0 - (-t / tau).exp();
            worst = worst.max((res.sample(b, t) - exact).abs());
        }
        assert!(worst < 5e-3, "max error vs analytic = {worst}");
        assert!(res.stats().steps_accepted > 20);
    }

    #[test]
    fn all_methods_agree_on_rc() {
        let ckt = rc_circuit(1e3, 1e-9);
        let mut results = Vec::new();
        for m in [Method::BackwardEuler, Method::Trapezoidal, Method::Gear2] {
            let opts = SimOptions::default().with_method(m);
            results.push(run_transient(&ckt, 1e-8, 3e-6, &opts).unwrap());
        }
        let b = results[0].unknown_of("b").unwrap();
        for r in &results[1..] {
            let dev = results[0].max_deviation(r, b);
            assert!(dev < 2e-2, "method disagreement {dev}");
        }
    }

    #[test]
    fn step_grows_on_smooth_waveforms() {
        let ckt = rc_circuit(1e3, 1e-9);
        let res = run_transient(&ckt, 1e-9, 5e-6, &SimOptions::default()).unwrap();
        let hs = res.step_sizes();
        let early: f64 = hs[1];
        let late = hs[hs.len() - 2];
        assert!(late > 4.0 * early, "steps should grow: early {early:.2e}, late {late:.2e}");
    }

    #[test]
    fn breakpoints_are_hit_exactly() {
        let mut ckt = Circuit::new("pulse");
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource(
            "V1",
            a,
            Circuit::GROUND,
            Waveform::pulse(0.0, 1.0, 2e-6, 1e-7, 1e-7, 1e-6, 0.0),
        )
        .unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-10).unwrap();
        let res = run_transient(&ckt, 1e-8, 5e-6, &SimOptions::default()).unwrap();
        for bp in [2e-6, 2.1e-6, 3.1e-6, 3.2e-6] {
            assert!(
                res.times().iter().any(|&t| (t - bp).abs() < 1e-15),
                "breakpoint {bp:e} missed"
            );
        }
    }

    #[test]
    fn lc_oscillator_conserves_frequency() {
        // Series RLC with tiny R: ringing frequency ~ 1/(2 pi sqrt(LC)).
        let mut ckt = Circuit::new("rlc");
        let a = ckt.node("a");
        let m = ckt.node("m");
        let b = ckt.node("b");
        ckt.add_vsource(
            "V1",
            a,
            Circuit::GROUND,
            Waveform::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0, 0.0),
        )
        .unwrap();
        ckt.add_resistor("R1", a, m, 1.0).unwrap();
        ckt.add_inductor("L1", m, b, 1e-6).unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-9).unwrap();
        let opts = SimOptions { reltol: 1e-4, ..SimOptions::default() };
        let res = run_transient(&ckt, 1e-9, 2e-6, &opts).unwrap();
        let bidx = res.unknown_of("b").unwrap();
        // Count zero crossings of (v_b - 1): period = 2 pi sqrt(LC) ~ 198.7 ns.
        let trace = res.trace(bidx);
        let mut crossings = 0;
        for w in trace.windows(2) {
            if (w[0].1 - 1.0) * (w[1].1 - 1.0) < 0.0 {
                crossings += 1;
            }
        }
        // 2e-6 / 198.7e-9 ~ 10 periods ~ 20 crossings.
        assert!((crossings as i64 - 20).abs() <= 3, "crossings = {crossings}");
    }

    #[test]
    fn bad_parameters_rejected() {
        let ckt = rc_circuit(1e3, 1e-9);
        assert!(matches!(
            run_transient(&ckt, 0.0, 1e-6, &SimOptions::default()),
            Err(EngineError::BadParameter { name: "tstep", .. })
        ));
        assert!(matches!(
            run_transient(&ckt, 1e-9, -1.0, &SimOptions::default()),
            Err(EngineError::BadParameter { name: "tstop", .. })
        ));
    }

    #[test]
    fn history_window_effective_method() {
        let mut hw = HistoryWindow::start(vec![0.0], 0);
        assert_eq!(hw.effective_method(Method::Trapezoidal), Method::BackwardEuler);
        assert_eq!(hw.effective_method(Method::Gear2), Method::BackwardEuler);
        let sol = PointSolution {
            t: 1.0,
            x: vec![1.0],
            method: Method::BackwardEuler,
            coeffs: IntegCoeffs::new(Method::BackwardEuler, 1.0, 1.0),
            converged: true,
            iterations: 1,
            cap_currents: Vec::new(),
            stats: SimStats::new(),
        };
        // Accept without a real system: emulate by direct field updates.
        hw.times.insert(0, sol.t);
        hw.xs.insert(0, sol.x.clone());
        hw.points_since_restart += 1;
        assert_eq!(hw.effective_method(Method::Trapezoidal), Method::Trapezoidal);
        assert_eq!(hw.effective_method(Method::Gear2), Method::BackwardEuler);
        hw.mark_discontinuity();
        assert_eq!(hw.effective_method(Method::Trapezoidal), Method::BackwardEuler);
    }

    #[test]
    fn predictor_extrapolates_linearly() {
        let mut hw = HistoryWindow::start(vec![2.0], 0);
        hw.times.insert(0, 1.0);
        hw.xs.insert(0, vec![4.0]);
        hw.points_since_restart = 1;
        let p = hw.predict(2.0);
        assert!((p[0] - 6.0).abs() < 1e-12, "p = {}", p[0]);
    }

    const HMIN: f64 = 1e-16;

    /// A controller over `[0, 1 us]` with `tstep = 10 ns`, the given
    /// breakpoints (`tstop` last, as [`MnaSystem::breakpoints`] returns them)
    /// and the step proposal `h`.
    fn control(bps: &[f64], h: f64) -> StepControl {
        StepControl {
            tstep: 1e-8,
            tstop: 1e-6,
            hmin: HMIN,
            hmax: 2e-8,
            bps: bps.to_vec(),
            next_bp: 0,
            h,
            lte_streak: 0,
        }
    }

    /// A one-node history at `t` with `smooth` points since the last restart.
    fn history_at(t: f64, smooth: usize) -> HistoryWindow {
        let mut hw = HistoryWindow::start(vec![0.0], 0);
        hw.times[0] = t;
        hw.points_since_restart = smooth;
        hw
    }

    fn candidate(t: f64, x: f64, converged: bool) -> PointSolution {
        PointSolution {
            t,
            x: vec![x],
            method: Method::BackwardEuler,
            coeffs: IntegCoeffs::new(Method::BackwardEuler, 2e-9, 2e-9),
            converged,
            iterations: 3,
            cap_currents: Vec::new(),
            stats: SimStats::new(),
        }
    }

    #[test]
    fn step_control_seeds_breakpoints_and_the_initial_step() {
        let ckt = rc_circuit(1e3, 1e-9);
        let sys = MnaSystem::compile(&ckt).unwrap();
        let opts = SimOptions::default();
        let sc = StepControl::new(&sys, 1e-8, 5e-6, &opts).unwrap();
        assert_eq!(sc.bps.last(), Some(&5e-6), "tstop is the final breakpoint");
        assert_eq!(sc.h, 1e-8_f64.min(opts.hmax(5e-6)).min(5e-8).max(opts.hmin(5e-6)));
        assert!(matches!(
            StepControl::new(&sys, 1e-8, f64::INFINITY, &opts),
            Err(EngineError::BadParameter { name: "tstop", .. })
        ));
    }

    #[test]
    fn passed_breakpoints_are_skipped() {
        let mut sc = control(&[1e-7, 2e-7, 3e-7, 1e-6], 1e-8);
        let (targets, hit) = sc.clip_targets(2.5e-7, &[2.6e-7, 2.9e-7, 3.5e-7]);
        assert_eq!(targets, vec![2.6e-7, 2.9e-7, 3e-7], "snaps onto the first unpassed corner");
        assert!(hit);
        assert_eq!(sc.next_bp, 2);
        // A breakpoint the history sits on counts as passed.
        let (targets, hit) = sc.clip_targets(3e-7, &[3.1e-7]);
        assert_eq!((targets, hit), (vec![3.1e-7], false));
        assert_eq!(sc.next_bp, 3);
        // The one-target proposal clamps into [hmin, hmax] first.
        sc.h = 1.0;
        assert_eq!(sc.propose(9.9e-7).unwrap(), (1e-6, true));
        assert_eq!(sc.h, 2e-8);
    }

    #[test]
    fn breakpoint_landing_caps_the_next_step() {
        // min(h, tstep/4, gap/4): tstep binds (gap/4 = 25 ns > 2.5 ns).
        let mut sc = control(&[1e-7, 2e-7, 1e-6], 1e-8);
        let mut hw = history_at(1e-7, 3);
        sc.land(&mut hw);
        assert_eq!(sc.h, 2.5e-9);
        assert_eq!(hw.points_since_restart(), 0, "integration restarts past the corner");
        // The gap to the next breakpoint binds.
        let mut sc = control(&[1e-7, 1.04e-7, 1e-6], 1e-8);
        sc.land(&mut history_at(1e-7, 3));
        assert_eq!(sc.h, (1.04e-7 - 1e-7) * 0.25);
        // A gap below 4 hmin is floored at hmin.
        let mut sc = control(&[1e-7, 1e-7 + 1e-16, 1e-6], 1e-8);
        sc.land(&mut history_at(1e-7, 3));
        assert_eq!(sc.h, HMIN);
    }

    #[test]
    fn three_lte_rejections_in_a_row_retry_at_the_same_step() {
        let opts = SimOptions::default();
        let mut stats = SimStats::new();
        let mut sc = control(&[1e-6], 1e-8);
        let mut hw = history_at(1e-7, 3);
        sc.reject_lte(&mut hw, 8e-9, 4e-9, &mut stats, &opts);
        sc.reject_lte(&mut hw, 4e-9, 2e-9, &mut stats, &opts);
        assert_eq!(sc.h, 2e-9, "the first two rejections take the LTE retry");
        assert_eq!(hw.points_since_restart(), 3);
        sc.reject_lte(&mut hw, 2e-9, 1e-9, &mut stats, &opts);
        assert_eq!(sc.h, 2e-9, "the third retries at the same step");
        assert_eq!(hw.points_since_restart(), 0, "and marks a discontinuity");
        sc.reject_lte(&mut hw, 2e-9, 1e-9, &mut stats, &opts);
        assert_eq!(sc.h, 1e-9, "the streak starts over");
        assert_eq!(stats.steps_rejected_lte, 4);
    }

    #[test]
    fn crawling_lte_rejection_retries_at_the_same_step() {
        let opts = SimOptions::default();
        let mut stats = SimStats::new();
        let mut sc = control(&[1e-6], 1e-8);
        let mut hw = history_at(1e-7, 3);
        let crawl = 500.0 * HMIN;
        sc.reject_lte(&mut hw, crawl, 0.5 * crawl, &mut stats, &opts);
        assert_eq!(sc.h, crawl);
        assert_eq!(hw.points_since_restart(), 0);
    }

    #[test]
    fn newton_rejection_below_the_floor_asks_for_recovery() {
        let opts = SimOptions::default();
        let mut stats = SimStats::new();
        let mut sc = control(&[1e-6], 1e-8);
        assert!(!sc.reject_newton(1e-7, 1e-9, &mut stats, &opts).unwrap());
        assert_eq!(sc.h, 1e-9 * opts.nr_shrink);
        assert!(sc.reject_newton(1e-7, 2.0 * HMIN, &mut stats, &opts).unwrap());
        let strict = opts.clone().with_recovery(false);
        let err = sc.reject_newton(1e-7, 2.0 * HMIN, &mut stats, &strict).unwrap_err();
        assert!(matches!(
            err,
            EngineError::TimestepTooSmall { time, hmin, .. } if time == 1e-7 && hmin == HMIN
        ));
        assert_eq!(stats.steps_rejected_newton, 3);
        let mut hw = history_at(1e-7, 3);
        sc.restart_after_rescue(&mut hw);
        assert_eq!((sc.h, hw.points_since_restart()), (HMIN, 0));
    }

    #[test]
    fn non_finite_step_is_a_blowup() {
        let mut sc = control(&[1e-6], f64::NAN);
        assert!(
            matches!(sc.begin(3e-7), Err(EngineError::NumericalBlowup { time }) if time == 3e-7)
        );
        sc.h = f64::INFINITY;
        assert!(matches!(sc.propose(3e-7), Err(EngineError::NumericalBlowup { .. })));
    }

    #[test]
    fn judge_classifies_candidates() {
        let opts = SimOptions::default();
        let mut sc = control(&[1e-6], 1e-8);
        let hw = history_at(1e-7, 0);
        let t = 1e-7 + 2e-9;
        assert_eq!(sc.judge(&hw, &candidate(t, 1.0, false), &opts), Verdict::Unconverged);
        assert_eq!(sc.judge(&hw, &candidate(t, f64::NAN, true), &opts), Verdict::NonFinite);
        // Too little smooth history for the LTE test: accept and grow by rmax.
        let h_next = 2e-9 * opts.rmax;
        assert_eq!(
            sc.judge(&hw, &candidate(t, 1.0, true), &opts),
            Verdict::Accept { h_next, ratio: None }
        );
        assert_eq!(sc.h, h_next);
    }
}

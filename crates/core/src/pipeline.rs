//! Shared machinery for the pipelining schemes: the run driver (history,
//! the serial engine's own `StepControl` and commit path, and the pipeline's
//! lead-placement state) and the concurrent round executor.

use crate::options::{Scheme, WavePipeOptions};
use crate::report::WavePipeReport;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use wavepipe_circuit::Circuit;
use wavepipe_engine::{
    accept_point, EngineError, HistoryWindow, MnaSystem, PointSolution, PointSolver, Result,
    SimOptions, SimStats, StepControl, TransientResult, Verdict,
};
use wavepipe_telemetry::{Counter, DiscardReason, EventKind, Family, Gauge};

/// Static label for a scheme, for metric families (avoids a per-point
/// `to_string` allocation on the accept path).
pub(crate) fn scheme_label(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Serial => "serial",
        Scheme::Backward => "backward",
        Scheme::Forward => "forward",
        Scheme::Combined => "combined",
        Scheme::Adaptive => "adaptive",
    }
}

/// Renders a `catch_unwind` payload as a human-readable cause string.
pub(crate) fn panic_cause(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// One concurrent point-solve request.
pub(crate) struct Task {
    /// History window the solve integrates from (true or speculative).
    pub hw: HistoryWindow,
    /// Target time.
    pub t: f64,
    /// Optional Newton initial guess (defaults to the window's predictor).
    pub guess: Option<Vec<f64>>,
}

/// A solve request shipped to a pool worker.
struct Job {
    task: Task,
    max_iters: usize,
    /// Position in the round's result vector.
    slot: usize,
}

/// One pool lane: the job channel and thread handle, plus the remaining
/// respawn budget. `sender` is `None` while the worker is dead.
struct WorkerSlot {
    sender: Option<std::sync::mpsc::Sender<Job>>,
    handle: Option<std::thread::JoinHandle<()>>,
    respawns_left: usize,
}

/// A pool of persistent worker threads, each owning its own [`PointSolver`]
/// (matrix values, LU factors, junction state survive across rounds, so the
/// refactorization fast path stays warm). Compared to spawning scoped
/// threads per round, this removes thread-creation latency from every
/// round's wall time.
///
/// Fault tolerance: each worker runs its solves under `catch_unwind` and
/// *always* replies to a received job — a panic is reported as
/// [`EngineError::WorkerLost`] before the worker retires — so the master's
/// result collection can never hang on a dead lane. Lost workers are
/// respawned up to [`WavePipeOptions::worker_respawns`] times per slot;
/// past that budget the pool shrinks and the driver runs narrower rounds,
/// degrading ultimately to the serial single-lane schedule.
pub(crate) struct WorkerPool {
    slots: Vec<WorkerSlot>,
    results: std::sync::mpsc::Receiver<(usize, Result<PointSolution>)>,
    /// Kept so the result channel can never disconnect (workers hold clones)
    /// and so respawned workers can be handed a sender.
    result_tx: std::sync::mpsc::Sender<(usize, Result<PointSolution>)>,
    sys: Arc<MnaSystem>,
    lane_sim: SimOptions,
}

impl WorkerPool {
    /// Spawns `n` workers for the given compiled system, each with a respawn
    /// budget of `respawns`.
    fn new(sys: &Arc<MnaSystem>, sim: &SimOptions, n: usize, respawns: usize) -> Self {
        let (result_tx, results) = std::sync::mpsc::channel();
        let mut pool = WorkerPool {
            slots: Vec::with_capacity(n),
            results,
            result_tx,
            sys: Arc::clone(sys),
            lane_sim: sim.clone(),
        };
        for i in 0..n {
            let (tx, handle) = pool.spawn_worker(i);
            pool.slots.push(WorkerSlot {
                sender: Some(tx),
                handle: Some(handle),
                respawns_left: respawns,
            });
        }
        pool
    }

    /// Spawns the thread for pool slot `i` (fresh solver, lane `i + 1`).
    fn spawn_worker(
        &self,
        i: usize,
    ) -> (std::sync::mpsc::Sender<Job>, std::thread::JoinHandle<()>) {
        let (tx, rx) = std::sync::mpsc::channel::<Job>();
        let out = self.result_tx.clone();
        // Worker i solves the (i+1)-th task of every round; tag its probe
        // (and fault handle) with that lane so traces show the pipelining
        // overlap and injected faults can target individual lanes.
        let lane = i as u32 + 1;
        let mut worker_sim = self.lane_sim.clone();
        worker_sim.probe = self.lane_sim.probe.with_lane(lane);
        worker_sim.metrics = self.lane_sim.metrics.with_lane(lane);
        worker_sim.faults = self.lane_sim.faults.with_lane(lane);
        let mut solver = PointSolver::new(Arc::clone(&self.sys), worker_sim);
        let handle = std::thread::spawn(move || {
            while let Ok(job) = rx.recv() {
                // Contain panics (organic or injected): always reply, then
                // retire — the solver's internal state cannot be trusted
                // after an unwind through it.
                let solved = catch_unwind(AssertUnwindSafe(|| {
                    solver.solve_point(
                        &job.task.hw,
                        job.task.t,
                        job.task.guess.as_deref(),
                        job.max_iters,
                    )
                }));
                match solved {
                    Ok(r) => {
                        if out.send((job.slot, r)).is_err() {
                            break;
                        }
                    }
                    Err(payload) => {
                        let cause = panic_cause(payload);
                        let _ = out.send((job.slot, Err(EngineError::WorkerLost { lane, cause })));
                        break;
                    }
                }
            }
        });
        (tx, handle)
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    /// Number of workers currently accepting jobs.
    fn alive(&self) -> usize {
        self.slots.iter().filter(|s| s.sender.is_some()).count()
    }

    /// Respawns every dead slot that still has respawn budget. Returns how
    /// many workers were brought back.
    fn respawn_dead(&mut self) -> usize {
        let mut respawned = 0;
        for i in 0..self.slots.len() {
            if self.slots[i].sender.is_some() || self.slots[i].respawns_left == 0 {
                continue;
            }
            self.slots[i].respawns_left -= 1;
            // The retired thread exited after replying; reap it first.
            if let Some(h) = self.slots[i].handle.take() {
                let _ = h.join();
            }
            let (tx, handle) = self.spawn_worker(i);
            self.slots[i].sender = Some(tx);
            self.slots[i].handle = Some(handle);
            respawned += 1;
        }
        respawned
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channels lets every worker's recv() fail and the
        // thread exit; join to avoid leaking threads across runs. A panic
        // payload escaping a worker (outside the per-solve catch) is
        // surfaced rather than silently dropped.
        for s in &mut self.slots {
            s.sender = None;
        }
        for (i, s) in self.slots.iter_mut().enumerate() {
            if let Some(h) = s.handle.take() {
                if let Err(payload) = h.join() {
                    let lane = i as u32 + 1;
                    self.lane_sim.probe.with_lane(lane).emit(0.0, EventKind::WorkerLost { lane });
                    eprintln!(
                        "wavepipe: worker lane {lane} panicked outside a solve: {}",
                        panic_cause(payload)
                    );
                }
            }
        }
    }
}

/// The per-run driver: everything the scheme loops share.
pub(crate) struct Driver {
    pub sys: Arc<MnaSystem>,
    /// Solver used by the coordinating thread (round base points,
    /// speculative refinements).
    pub lead: PointSolver,
    pool: WorkerPool,
    pub wp: WavePipeOptions,
    /// The serial engine's step policy; its `h` is the base step proposal.
    pub step: StepControl,
    pub hw: HistoryWindow,
    /// LTE growth factor observed at the last accepted point (used by the
    /// adaptive backward-lead placement).
    pub last_growth: f64,
    /// LTE error ratio observed at the last accepted point (<= 1).
    pub last_ratio: f64,
    /// Exponential moving average of the lead-point accept rate; drives the
    /// self-tuning backward budget slack.
    pub lead_ema: f64,
    /// Hysteresis state: whether deep ladders / speculation are currently
    /// enabled (flips at lead-EMA 0.45 up / 0.25 down).
    deep_mode: bool,
    pub result: TransientResult,
    pub total: SimStats,
    pub critical_work: u64,
    pub critical_ns: u128,
    pub rounds: usize,
    pub lead_accepted: usize,
    pub lead_rejected: usize,
    pub spec_accepted: usize,
    pub spec_rejected: usize,
    /// Worker-loss events observed (a respawned-then-lost worker counts
    /// each time).
    pub workers_lost: usize,
    /// `FallbackSerial` has been emitted (the pool shrank to nothing).
    serial_fallback_emitted: bool,
    run_start: Instant,
}

impl Driver {
    /// Compiles the circuit, solves the operating point (counted on the
    /// critical path — it is inherently sequential), and prepares the run.
    pub fn new(circuit: &Circuit, tstep: f64, tstop: f64, wp: &WavePipeOptions) -> Result<Self> {
        let run_start = Instant::now();
        let sys = Arc::new(MnaSystem::compile(circuit)?);
        let step = StepControl::new(&sys, tstep, tstop, &wp.sim)?;
        let width = wp.width();
        // Each lane (lead + pool workers) gets the per-lane engine options,
        // so the thread budget splits lanes x stamp workers.
        let lane_sim = wp.lane_sim();
        let mut lead = PointSolver::new(Arc::clone(&sys), lane_sim.clone());
        let pool = WorkerPool::new(&sys, &lane_sim, width.saturating_sub(1), wp.worker_respawns);
        let node_names: Vec<String> = sys.node_names().to_vec();
        let mut result = TransientResult::new(sys.n_unknowns(), node_names);
        result.set_branch_names(sys.branch_names().to_vec());

        let mut dc_stats = SimStats::new();
        let dc_start = Instant::now();
        let x0 = lead.initial_state(&mut dc_stats)?;
        dc_stats.wall_ns = dc_start.elapsed().as_nanos();
        result.push(0.0, &x0);
        // Arm the deadline only now, after the DC solve, mirroring the serial
        // engine: a zero budget still yields the `t = 0` point.
        wp.sim.arm_deadline();
        let hw = HistoryWindow::start(x0, sys.cap_state_count());
        let critical_work = dc_stats.work_units();
        let critical_ns = dc_stats.wall_ns;

        Ok(Driver {
            sys,
            lead,
            pool,
            wp: wp.clone(),
            step,
            hw,
            last_growth: 1.0,
            last_ratio: 0.5,
            lead_ema: 0.5,
            deep_mode: true,
            result,
            total: dc_stats,
            critical_work,
            critical_ns,
            rounds: 0,
            lead_accepted: 0,
            lead_rejected: 0,
            spec_accepted: 0,
            spec_rejected: 0,
            workers_lost: 0,
            serial_fallback_emitted: false,
            run_start,
        })
    }

    /// Solves up to `1 + pool_size` tasks concurrently: task 0 on the
    /// coordinating thread, the rest on the persistent workers. Results are
    /// returned in task order; a task whose worker was lost (panic, dead
    /// channel) yields [`EngineError::WorkerLost`] in its slot instead of
    /// tearing the run down. Dead workers are respawned afterwards while
    /// their budget lasts.
    ///
    /// # Errors
    ///
    /// [`EngineError::Internal`] when more tasks are submitted than the pool
    /// has solver lanes (a scheme bug, not a simulation failure).
    pub fn solve_round(
        &mut self,
        tasks: Vec<Task>,
        max_iters: usize,
    ) -> Result<Vec<Result<PointSolution>>> {
        if tasks.len() > 1 + self.pool.len() {
            return Err(EngineError::Internal {
                context: format!(
                    "round of {} tasks exceeds {} solver lanes",
                    tasks.len(),
                    1 + self.pool.len()
                ),
            });
        }
        let n = tasks.len();
        let mut out: Vec<Option<Result<PointSolution>>> = (0..n).map(|_| None).collect();
        // Which pool slot each task slot went to, for marking dead workers
        // when their reply says they are gone.
        let mut slot_worker: Vec<Option<usize>> = vec![None; n];
        let mut iter = tasks.into_iter().enumerate();
        let first = iter.next();
        let mut dispatched = 0usize;
        let mut cursor = 0usize;
        for (slot, task) in iter {
            // Stamp the task's lane span at *dispatch*: the worker's own
            // SolveStart marks execution start, but the Chrome exporter keeps
            // the earliest start per lane, so traces show the round's tasks
            // in flight concurrently even when the host has fewer cores than
            // lanes (queue wait is part of the task's lifetime there).
            self.wp
                .sim
                .probe
                .with_lane(slot as u32)
                .emit(task.t, EventKind::SolveStart { h: task.t - task.hw.t() });
            let mut job = Job { task, max_iters, slot };
            let mut placed = false;
            while cursor < self.pool.slots.len() {
                let w = cursor;
                cursor += 1;
                let Some(tx) = self.pool.slots[w].sender.as_ref() else {
                    continue;
                };
                match tx.send(job) {
                    Ok(()) => {
                        slot_worker[slot] = Some(w);
                        dispatched += 1;
                        placed = true;
                        break;
                    }
                    Err(returned) => {
                        // Channel closed: the worker died since last round.
                        job = returned.0;
                        self.note_worker_lost(w, job.task.t);
                    }
                }
            }
            if !placed {
                out[slot] = Some(Err(EngineError::WorkerLost {
                    lane: slot as u32,
                    cause: "worker pool exhausted".to_string(),
                }));
            }
        }
        if let Some((slot, task)) = first {
            out[slot] = Some(self.lead_solve(&task.hw, task.t, task.guess.as_deref(), max_iters));
        }
        for _ in 0..dispatched {
            let received = self.pool.results.recv();
            match received {
                Ok((slot, r)) => {
                    if matches!(r, Err(EngineError::WorkerLost { .. })) {
                        if let Some(w) = slot_worker[slot] {
                            self.note_worker_lost(w, 0.0);
                        }
                    }
                    out[slot] = Some(r);
                }
                Err(_) => break, // cannot happen (pool holds a sender); stop waiting
            }
        }
        // Bring lost workers back while their respawn budget lasts, so a
        // transient fault costs one narrow round rather than the whole run.
        self.pool.respawn_dead();
        if self.pool.len() > 0 && self.pool.alive() == 0 && !self.serial_fallback_emitted {
            self.serial_fallback_emitted = true;
            self.wp.sim.probe.emit(self.hw.t(), EventKind::FallbackSerial);
            self.wp.sim.metrics.inc(Counter::SerialFallbacks);
        }
        Ok(out
            .into_iter()
            .map(|o| {
                o.unwrap_or_else(|| {
                    Err(EngineError::Internal {
                        context: "round task produced no result".to_string(),
                    })
                })
            })
            .collect())
    }

    /// Records one observed worker loss: marks the pool slot dead, counts
    /// it, and emits [`EventKind::WorkerLost`] for the lane.
    fn note_worker_lost(&mut self, w: usize, t: f64) {
        self.pool.slots[w].sender = None;
        self.workers_lost += 1;
        let lane = w as u32 + 1;
        self.wp.sim.probe.with_lane(lane).emit(t, EventKind::WorkerLost { lane });
        self.wp.sim.metrics.inc(Counter::WorkersLost);
    }

    /// Runs a solve on the coordinating thread's solver with panic isolation:
    /// an unwind out of the solver surfaces as [`EngineError::WorkerLost`]
    /// on lane 0 (terminal for the run — the lead solver's state cannot be
    /// trusted afterwards) instead of aborting the process.
    pub fn lead_solve(
        &mut self,
        hw: &HistoryWindow,
        t: f64,
        guess: Option<&[f64]>,
        max_iters: usize,
    ) -> Result<PointSolution> {
        match catch_unwind(AssertUnwindSafe(|| self.lead.solve_point(hw, t, guess, max_iters))) {
            Ok(r) => r,
            Err(payload) => Err(EngineError::WorkerLost { lane: 0, cause: panic_cause(payload) }),
        }
    }

    /// [`Driver::lead_solve`] against the driver's own (true) history —
    /// the case of speculative refinements, which always integrate from it.
    ///
    /// # Errors
    ///
    /// Engine solve failures, or [`EngineError::WorkerLost`] (lane 0) when
    /// the solve panicked.
    pub fn refine_solve(
        &mut self,
        t: f64,
        guess: &[f64],
        max_iters: usize,
    ) -> Result<PointSolution> {
        match catch_unwind(AssertUnwindSafe(|| {
            self.lead.solve_point(&self.hw, t, Some(guess), max_iters)
        })) {
            Ok(r) => r,
            Err(payload) => Err(EngineError::WorkerLost { lane: 0, cause: panic_cause(payload) }),
        }
    }

    /// Clamps a requested round width to what the pool can still serve:
    /// the coordinating lane plus the live workers. Shrinks to 1 (serial
    /// schedule) once every worker is gone.
    pub fn round_width(&self, requested: usize) -> usize {
        requested.min(1 + self.pool.alive()).max(1)
    }

    /// Checks the run's cancellation token / deadline at a round boundary.
    ///
    /// # Errors
    ///
    /// [`EngineError::Cancelled`] or [`EngineError::DeadlineExceeded`].
    pub fn check_budget(&self) -> Result<()> {
        self.wp.sim.check_budget(self.hw.t())
    }

    /// `true` once the simulation reached `tstop`.
    pub fn done(&self) -> bool {
        self.step.done(self.hw.t())
    }

    /// Judges a candidate with the serial engine's [`StepControl::judge`] and
    /// commits it when accepted. A non-finite converged candidate is
    /// returned as [`Verdict::NonFinite`]; the schemes treat it like an
    /// unconverged one, since a worker's solution may be poisoned.
    pub fn try_commit(&mut self, sol: &PointSolution) -> Verdict {
        let verdict = self.step.judge(&self.hw, sol, &self.wp.sim);
        if let Verdict::Accept { h_next, ratio } = verdict {
            (self.last_growth, self.last_ratio) = match ratio {
                Some(r) => ((h_next / sol.coeffs.h).max(0.1), r.max(1e-9)),
                None => (self.wp.sim.rmax, 1e-9),
            };
            self.accept(sol);
        }
        verdict
    }

    fn accept(&mut self, sol: &PointSolution) {
        accept_point(sol, &mut self.hw, &mut self.result, &mut self.total, &self.wp.sim);
        let m = &self.wp.sim.metrics;
        if m.enabled() {
            m.add_labeled(Family::PointsByScheme, scheme_label(self.wp.scheme), 1);
        }
    }

    /// Adds a round's concurrent task costs: everything into `total`, the
    /// maximum into the critical path.
    pub fn account_parallel(&mut self, task_stats: &[SimStats]) {
        let mut max_work = 0u64;
        let mut max_ns = 0u128;
        for s in task_stats {
            self.total += *s;
            max_work = max_work.max(s.work_units());
            max_ns = max_ns.max(s.wall_ns);
        }
        self.critical_work += max_work;
        self.critical_ns += max_ns;
        self.rounds += 1;
        let m = &self.wp.sim.metrics;
        if m.enabled() {
            m.inc(Counter::Rounds);
            m.add_labeled(Family::RoundsByScheme, scheme_label(self.wp.scheme), 1);
            m.set_gauge(Gauge::RoundWidth, task_stats.len() as f64);
        }
    }

    /// Adds inherently sequential work (speculation refinement, serial
    /// fix-up solves) to both totals and the critical path.
    pub fn account_sequential(&mut self, s: &SimStats) {
        self.total += *s;
        self.critical_work += s.work_units();
        self.critical_ns += s.wall_ns;
    }

    /// Lead-placement growth factor: aim the backward lead at the *LTE
    /// boundary* predicted by the last accepted point's error ratio (a step
    /// grown by `f` scales the ratio by `f^(order+1)`; target 0.9), rather
    /// than at the deliberately conservative base-step proposal. In rapid
    /// growth phases (ratio ~ 0) this saturates at `rmax`.
    pub fn lead_growth(&self) -> f64 {
        if !self.wp.bp_adaptive_lead {
            return self.wp.sim.rmax;
        }
        let order = self.wp.sim.method.order() as f64;
        (0.9 / self.last_ratio).powf(1.0 / (order + 1.0)).clamp(1.0, self.wp.sim.rmax)
    }

    /// Builds the backward target ladder from the current time: gaps start
    /// at the base step and stretch by [`Driver::lead_growth`], but any lead
    /// whose *total integration stride* would exceed the LTE-boundary budget
    /// is not launched at all — in error-bound phases it would fail its LTE
    /// test with certainty, and an un-launched task keeps the round's
    /// critical path at the base solve. In growth phases (tiny error ratio)
    /// the budget is huge and the full ladder width is used.
    pub fn backward_ladder(&self, width: usize) -> Vec<f64> {
        let growth = self.lead_growth();
        let order = self.wp.sim.method.order() as f64;
        // Total stride budget from the last accepted point. Not clamped to
        // rmax: the budget is about error, not about per-gap stretching.
        // The slack is self-tuning: on circuits where launched leads keep
        // failing (LTE-bound operation), a failed lead still stretches the
        // round's critical path — its solve is the most expensive concurrent
        // task — so the budget contracts toward "only near-certain leads";
        // where leads keep paying, the full configured slack applies.
        let budget = if self.wp.bp_adaptive_lead && self.wp.bp_budget_slack.is_finite() {
            let slack = 1.0 + (self.wp.bp_budget_slack - 1.0) * (self.lead_ema / 0.3).min(1.0);
            self.step.h * (0.95 / self.last_ratio).powf(1.0 / (order + 1.0)) * slack
        } else {
            f64::INFINITY
        };
        // Optional gating (ablation knobs, both off by default — measured
        // across the suite, launching leads even at low accept rates is a
        // net win): a growth-phase gate on the predicted stretch factor,
        // with periodic probing so a regime change re-enables leads.
        let leads_enabled = !self.wp.bp_adaptive_lead
            || self.lead_growth() >= self.wp.bp_growth_gate
            || self.rounds % 16 == 15;
        let width = if leads_enabled { width } else { 1 };
        // Ladder depth scales with how well leads have been paying: one
        // lottery lead is near-free on the critical path, but deep ladders
        // only earn their keep in sustained growth phases (hysteresis on
        // the lead-EMA avoids flapping at the threshold).
        let width =
            if self.wp.bp_adaptive_lead && !self.deep_mode() { width.min(2) } else { width };
        let mut targets = Vec::with_capacity(width);
        let t0 = self.hw.t();
        let mut t = t0;
        let mut gap = self.step.h;
        for i in 0..width {
            t += gap;
            if i > 0 && t - t0 > budget {
                break;
            }
            targets.push(t);
            gap = (gap * growth).min(self.step.hmax());
        }
        targets
    }

    /// Discards a backward lead its commit test rejected: counts it, feeds
    /// the accept-rate EMA, and emits [`EventKind::LeadDiscarded`].
    pub fn reject_lead(&mut self, t: f64, reason: DiscardReason) {
        self.lead_rejected += 1;
        self.note_lead(false);
        self.wp.sim.probe.emit(t, EventKind::LeadDiscarded { reason });
        self.wp.sim.metrics.inc(Counter::LeadDiscarded);
    }

    /// Records a lead-point outcome in the accept-rate EMA.
    pub fn note_lead(&mut self, accepted: bool) {
        const ALPHA: f64 = 0.08;
        let x = if accepted { 1.0 } else { 0.0 };
        self.lead_ema = (1.0 - ALPHA) * self.lead_ema + ALPHA * x;
        if self.lead_ema > 0.45 {
            self.deep_mode = true;
        } else if self.lead_ema < 0.25 {
            self.deep_mode = false;
        }
        let m = &self.wp.sim.metrics;
        if m.enabled() {
            m.set_gauge(Gauge::LeadAcceptEma, self.lead_ema);
            m.set_gauge(Gauge::DeepMode, if self.deep_mode { 1.0 } else { 0.0 });
        }
    }

    /// Whether sustained lead success currently justifies deep ladders and
    /// forward speculation past the lead.
    pub fn deep_mode(&self) -> bool {
        self.deep_mode
    }

    /// Newton failure on the base point: shrink and retry — and when the
    /// step has already collapsed to the floor, run the engine's convergence
    /// recovery ladder on the *lead* lane (speculation was already discarded
    /// by the caller; a rescued point commits through the same accept
    /// machinery and restarts integration exactly as the serial loop does,
    /// preserving waveform bit-identity with the serial recovery path).
    /// `failed_iters` is the iteration count of the failing base solve, for
    /// the failure report. Returns `true` when a rescued point was committed
    /// (so callers can count it in the round's committed total).
    ///
    /// # Errors
    ///
    /// * [`EngineError::TimestepTooSmall`] when the retry step would go
    ///   below `hmin` and recovery is disabled.
    /// * [`EngineError::NoConvergence`] when every recovery rung failed.
    /// * Budget errors propagating out of a rescue solve.
    pub fn newton_backoff(&mut self, h_attempt: f64, failed_iters: usize) -> Result<bool> {
        if !self.step.reject_newton(self.hw.t(), h_attempt, &mut self.total, &self.wp.sim)? {
            return Ok(false);
        }
        // The ladder is inherently sequential work on the lead lane.
        let mut rstats = SimStats::new();
        let rescued = self.lead.rescue_point(
            &self.hw,
            h_attempt,
            self.step.hmin(),
            failed_iters,
            &mut rstats,
        )?;
        self.account_sequential(&rstats);
        self.accept(&rescued);
        self.step.restart_after_rescue(&mut self.hw);
        Ok(true)
    }

    /// Packages the run into a report.
    pub fn finish(mut self, scheme: Scheme) -> WavePipeReport {
        self.total.wall_ns = self.run_start.elapsed().as_nanos();
        let mut result = self.result;
        result.set_stats(self.total);
        WavePipeReport {
            result,
            scheme,
            threads: self.wp.threads,
            lanes: self.wp.lanes(),
            stamp_workers: self.wp.stamp_workers,
            rounds: self.rounds,
            total: self.total,
            critical_work: self.critical_work,
            critical_ns: self.critical_ns,
            lead_accepted: self.lead_accepted,
            lead_rejected: self.lead_rejected,
            speculation_accepted: self.spec_accepted,
            speculation_rejected: self.spec_rejected,
            workers_lost: self.workers_lost,
            telemetry: self.wp.sim.probe.summary(),
        }
    }
}

/// Splits a round's per-slot results into the usable prefix of solutions,
/// accounting every completed solve's cost. A slot-0 error is structural
/// (the base solve is not speculative) and propagates; an error at slot
/// `i > 0` truncates the round there — every pool task is speculative, so
/// discarding it and everything after is always safe; the committed prefix
/// stays serial-identical. Returns the solutions and whether truncation
/// happened. Slots below `spec_from` emit [`EventKind::LeadDiscarded`],
/// the rest [`EventKind::SpeculationDiscarded`].
///
/// # Errors
///
/// The slot-0 error, when the round's base solve itself failed.
pub(crate) fn usable_prefix(
    drv: &mut Driver,
    sols: Vec<Result<PointSolution>>,
    spec_from: usize,
) -> Result<(Vec<PointSolution>, bool)> {
    let mut costs: Vec<SimStats> = Vec::with_capacity(sols.len());
    let mut solutions: Vec<PointSolution> = Vec::with_capacity(sols.len());
    let mut truncated = false;
    for (i, s) in sols.into_iter().enumerate() {
        match s {
            Ok(sol) => {
                costs.push(sol.stats);
                if truncated {
                    // Solved fine, but an earlier slot is missing and commits
                    // walk left to right — the chain is broken here.
                    emit_discard(drv, sol.t, i, spec_from, DiscardReason::ChainBroken);
                } else {
                    solutions.push(sol);
                }
            }
            Err(e) if i == 0 => return Err(e),
            Err(_) => {
                emit_discard(drv, drv.hw.t(), i, spec_from, DiscardReason::WorkerLost);
                truncated = true;
            }
        }
    }
    drv.account_parallel(&costs);
    Ok((solutions, truncated))
}

fn emit_discard(drv: &Driver, t: f64, slot: usize, spec_from: usize, reason: DiscardReason) {
    let kind = if slot >= spec_from {
        drv.wp.sim.metrics.inc(Counter::SpeculationDiscarded);
        EventKind::SpeculationDiscarded { reason }
    } else {
        drv.wp.sim.metrics.inc(Counter::LeadDiscarded);
        EventKind::LeadDiscarded { reason }
    };
    drv.wp.sim.probe.emit(t, kind);
}

/// The shared scheme loop: rounds until `tstop`, checking the deadline /
/// cancellation token at every round boundary and narrowing the round width
/// to what the worker pool can still serve. Returns the terminal error of a
/// partial run, or `None` when the run completed.
pub(crate) fn drive(
    drv: &mut Driver,
    width: usize,
    mut round: impl FnMut(&mut Driver, usize) -> Result<usize>,
) -> Option<EngineError> {
    while !drv.done() {
        if let Err(e) = drv.check_budget() {
            return Some(e);
        }
        let w = drv.round_width(width);
        if let Err(e) = round(drv, w) {
            return Some(e);
        }
    }
    None
}

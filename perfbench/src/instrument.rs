//! Measurement from outside the program: CPU clocks, peak RSS, a timing
//! [`SolverBackend`] installed through [`SolverHandle::new`], and a
//! [`Probe`] sink that turns round/solve events into critical-path numbers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;
use wavepipe::engine::{DirectLu, SolverBackend, SolverFactory, SolverHandle};
use wavepipe::sparse::{CscMatrix, SparseError, SparseLu};
use wavepipe::telemetry::{EventKind, Probe};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) and both clock ids are valid Linux constants; the
    // call writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// On-CPU seconds of the whole process: every thread, exited ones included.
pub fn process_cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// On-CPU seconds of the calling thread.
pub fn thread_cpu_s() -> f64 {
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Confines the calling thread, and every thread it spawns afterwards, to
/// the CPU it is running on now; returns that CPU, or `None` if the kernel
/// refused.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only returns a number.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // glibc's `cpu_set_t`: a 1024-bit mask.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, 128-byte buffer laid out as `cpu_set_t` and
    // its exact size is passed; pid 0 names the calling thread, and the
    // kernel only reads the mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Two-thread spin efficiency of this host: wall of one spinning thread
/// over wall of two spinning concurrently (1.0 = two free cores, 0.5 = one).
pub fn spin_efficiency() -> f64 {
    fn spin(iters: u64) -> u64 {
        let mut x = 0u64;
        for i in 0..iters {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        x
    }
    let iters = 20_000_000;
    let mut effs: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(spin(iters));
            let one = t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::thread::scope(|s| {
                let a = s.spawn(|| spin(iters));
                std::hint::black_box(spin(iters));
                std::hint::black_box(a.join().expect("spin thread panicked"));
            });
            one / t.elapsed().as_secs_f64()
        })
        .collect();
    effs.sort_by(f64::total_cmp);
    effs[1]
}

/// Accumulated time and calls of the three LU operations, shared by every
/// backend a [`TimedFactory`] makes (one per solver lane).
#[derive(Debug, Default)]
pub struct LuClock {
    factor_ns: AtomicU64,
    factor_calls: AtomicU64,
    refactor_ns: AtomicU64,
    refactor_calls: AtomicU64,
    solve_ns: AtomicU64,
    solve_calls: AtomicU64,
    pivot_degraded: AtomicU64,
}

/// Totals read from a [`LuClock`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LuTotals {
    pub factor_s: f64,
    pub factor_calls: u64,
    pub refactor_s: f64,
    pub refactor_calls: u64,
    pub solve_s: f64,
    pub solve_calls: u64,
    pub pivot_degraded: u64,
}

impl LuClock {
    fn charge(ns: &AtomicU64, calls: &AtomicU64, since: Instant) {
        // Statistics only: relaxed ordering publishes nothing else.
        ns.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        calls.fetch_add(1, Ordering::Relaxed);
    }

    pub fn totals(&self) -> LuTotals {
        let s = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 * 1e-9;
        let n = |a: &AtomicU64| a.load(Ordering::Relaxed);
        LuTotals {
            factor_s: s(&self.factor_ns),
            factor_calls: n(&self.factor_calls),
            refactor_s: s(&self.refactor_ns),
            refactor_calls: n(&self.refactor_calls),
            solve_s: s(&self.solve_ns),
            solve_calls: n(&self.solve_calls),
            pivot_degraded: n(&self.pivot_degraded),
        }
    }
}

/// Makes [`TimedLu`] backends that all charge one [`LuClock`].
#[derive(Debug)]
pub struct TimedFactory(Arc<LuClock>);

impl TimedFactory {
    /// A solver handle timing every LU call into a fresh clock.
    pub fn handle() -> (SolverHandle, Arc<LuClock>) {
        let clock = Arc::new(LuClock::default());
        (SolverHandle::new(Arc::new(TimedFactory(Arc::clone(&clock)))), clock)
    }
}

impl SolverFactory for TimedFactory {
    fn make(&self) -> Box<dyn SolverBackend> {
        Box::new(TimedLu { inner: DirectLu::new(), clock: Arc::clone(&self.0) })
    }
}

/// [`DirectLu`] with a stopwatch around each call; numerically identical.
#[derive(Debug, Clone)]
struct TimedLu {
    inner: DirectLu,
    clock: Arc<LuClock>,
}

impl SolverBackend for TimedLu {
    fn factor(&mut self, a: &CscMatrix) -> wavepipe::sparse::Result<()> {
        let t = Instant::now();
        let r = self.inner.factor(a);
        LuClock::charge(&self.clock.factor_ns, &self.clock.factor_calls, t);
        r
    }

    fn refactor(&mut self, a: &CscMatrix) -> wavepipe::sparse::Result<()> {
        let t = Instant::now();
        let r = self.inner.refactor(a);
        LuClock::charge(&self.clock.refactor_ns, &self.clock.refactor_calls, t);
        if matches!(r, Err(SparseError::PivotDegraded { .. })) {
            self.clock.pivot_degraded.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    fn solve(&self, b: &[f64], x: &mut [f64], scratch: &mut [f64]) -> wavepipe::sparse::Result<()> {
        let t = Instant::now();
        let r = self.inner.solve(b, x, scratch);
        LuClock::charge(&self.clock.solve_ns, &self.clock.solve_calls, t);
        r
    }

    fn factored(&self) -> bool {
        self.inner.factored()
    }

    fn invalidate(&mut self) {
        self.inner.invalidate();
    }

    fn clone_box(&self) -> Box<dyn SolverBackend> {
        Box::new(self.clone())
    }

    fn take_lu(&mut self) -> Option<SparseLu> {
        self.inner.take_lu()
    }
}

/// One recorded round/solve boundary.
#[derive(Debug, Clone, Copy)]
struct Mark {
    thread: ThreadId,
    lane: u32,
    cpu: f64,
    kind: MarkKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MarkKind {
    RoundStart,
    RoundEnd,
    SolveStart,
    SolveEnd,
}

/// Probe sink keeping only round and solve boundaries, each stamped with
/// the emitting thread's on-CPU time; every other event is dropped on
/// arrival.
#[derive(Debug, Default)]
pub struct SpanProbe {
    marks: Mutex<Vec<Mark>>,
}

/// Pipeline-layer numbers derived from a [`SpanProbe`], all on-CPU time so
/// that time-slicing on a host with fewer free cores than lanes does not
/// stretch them.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundSpans {
    /// Σ on-CPU time of every solve inside a round.
    pub solve_busy_s: f64,
    /// Σ over rounds of the longest solve.
    pub critical_path_s: f64,
    /// Σ over rounds of the coordinating thread's time outside its own
    /// solves: dispatch, commit, LTE and step control.
    pub round_overhead_s: f64,
    /// Σ over rounds of the coordinating thread's time, solves included.
    pub coordinator_in_rounds_s: f64,
}

impl Probe for SpanProbe {
    fn record(&self, lane: u32, _t_sim: f64, kind: EventKind) {
        let kind = match kind {
            EventKind::RoundStart { .. } => MarkKind::RoundStart,
            EventKind::RoundEnd { .. } => MarkKind::RoundEnd,
            EventKind::SolveStart { .. } => MarkKind::SolveStart,
            EventKind::SolveEnd { .. } => MarkKind::SolveEnd,
            _ => return,
        };
        let mark = Mark { thread: std::thread::current().id(), lane, cpu: thread_cpu_s(), kind };
        self.marks.lock().expect("span buffer poisoned").push(mark);
    }
}

impl SpanProbe {
    /// Folds the recorded marks into per-round critical-path numbers.
    ///
    /// A solve is the last `SolveStart` before a `SolveEnd` on the same
    /// thread and lane: the pipeline also stamps a `SolveStart` for a
    /// worker's lane at dispatch, on the coordinating thread, which never
    /// closes and is skipped here. Solves outside rounds (the DC point of a
    /// pipelined run, every solve of a serial run) are not counted.
    pub fn rounds(&self) -> RoundSpans {
        let marks = self.marks.lock().expect("span buffer poisoned");
        let mut out = RoundSpans::default();
        // The open round: its RoundStart, longest solve, and the
        // coordinating thread's own solve time.
        let mut round: Option<(Mark, f64, f64)> = None;
        let mut open: HashMap<(ThreadId, u32), Mark> = HashMap::new();
        for m in marks.iter() {
            match m.kind {
                MarkKind::RoundStart => {
                    round = Some((*m, 0.0, 0.0));
                    open.clear();
                }
                MarkKind::SolveStart => {
                    open.insert((m.thread, m.lane), *m);
                }
                MarkKind::SolveEnd => {
                    let Some(s) = open.remove(&(m.thread, m.lane)) else { continue };
                    let Some((start, longest, own)) = round.as_mut() else { continue };
                    let cpu = m.cpu - s.cpu;
                    out.solve_busy_s += cpu;
                    *longest = longest.max(cpu);
                    if m.thread == start.thread {
                        *own += cpu;
                    }
                }
                MarkKind::RoundEnd => {
                    let Some((start, longest, own)) = round.take() else { continue };
                    if m.thread != start.thread {
                        continue;
                    }
                    let coordinator = m.cpu - start.cpu;
                    out.critical_path_s += longest;
                    out.round_overhead_s += (coordinator - own).max(0.0);
                    out.coordinator_in_rounds_s += coordinator;
                }
            }
        }
        out
    }
}

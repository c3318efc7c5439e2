//! Bit-identity of colored parallel stamping against the serial path.
//!
//! The parallel stamp executor must produce *exactly* the same matrix
//! values, RHS, junction state, and limiting flag as [`MnaSystem::stamp`] —
//! not merely numerically close — at every worker count. These tests enforce
//! that at the single-stamp level (randomized iterates, property-based) and
//! at the whole-waveform level (full transient runs over the generator
//! suite).

use proptest::prelude::*;
use std::sync::Arc;
use wavepipe_circuit::generators;
use wavepipe_engine::{
    run_transient_compiled, FaultHandle, IntegCoeffs, Method, MetricsHandle, MnaSystem,
    ProbeHandle, SimOptions, SimStats, StampExecutor, StampInput,
};

/// Deterministic pseudo-random iterate: enough structure to push junctions
/// into different regions without platform-dependent RNG state.
fn iterate(n: usize, seed: f64) -> Vec<f64> {
    (0..n).map(|i| seed * (0.7 * i as f64 + seed).sin()).collect()
}

fn dc_input<'a>(zeros: &'a [f64], caps: &'a [f64], gshunt: f64) -> StampInput<'a> {
    StampInput {
        time: 0.0,
        coeffs: None,
        x_prev: zeros,
        x_prev2: zeros,
        cap_currents: caps,
        gmin: 1e-12,
        gshunt,
        source_scale: 1.0,
        ic_mode: false,
    }
}

/// Stamps a sequence of iterates serially and through an executor with the
/// device-bypass and companion caches enabled, asserting bitwise identity
/// after each stamp. The sequence deliberately exercises the caches: later
/// iterates repeat and then barely perturb an earlier one, so some stamps
/// replay every nonlinear device from cache and some replay a mix.
fn assert_stamps_bit_identical(b: &generators::Benchmark, seed: f64, gshunt: f64, workers: usize) {
    let sys = Arc::new(MnaSystem::compile(&b.circuit).expect("compile"));
    let n = sys.n_unknowns();
    let zeros = vec![0.0; n];
    let caps = vec![0.0; sys.cap_state_count()];
    let input = dc_input(&zeros, &caps, gshunt);
    // Pinned on (the CI caches-off leg flips the env defaults): bit-identity
    // must hold with bypass and companion replay active.
    let ctl = SimOptions::default().with_bypass(true).with_companion_cache(true).cache_ctl();

    let mut ws_ser = sys.new_workspace();
    let mut ws_par = sys.new_workspace();
    let Some(mut exec) = StampExecutor::new(&sys, workers, &FaultHandle::none()) else {
        return; // no devices: nothing to compare
    };
    let probe = ProbeHandle::none();
    let metrics = MetricsHandle::none();
    let mut stats = SimStats::new();

    let x0 = iterate(n, seed);
    let x1 = iterate(n, seed + 1.0);
    // Identical to x1: every valid nonlinear device bypasses.
    let x2 = x1.clone();
    // Mixed: even unknowns move within the bypass tolerance, odd ones far
    // outside it.
    let x3: Vec<f64> =
        x1.iter().enumerate().map(|(i, v)| v + if i % 2 == 0 { 1e-9 } else { 1e-2 }).collect();
    for (step, x) in [x0, x1, x2, x3].iter().enumerate() {
        let res_ser = sys.stamp_with(&mut ws_ser, &input, x, &ctl);
        let res_par = exec.stamp(&mut ws_par, &input, x, &ctl, &probe, &metrics, &mut stats);
        let ctx = format!("{} step {step} workers {workers}", b.name);
        assert_eq!(res_ser, res_par, "{ctx}: stamp result");
        assert_eq!(ws_ser.limited, ws_par.limited, "{ctx}: limited flag");
        for (i, (a, p)) in ws_ser.matrix.values().iter().zip(ws_par.matrix.values()).enumerate() {
            assert_eq!(a.to_bits(), p.to_bits(), "{ctx}: matrix value {i}: {a:e} vs {p:e}");
        }
        for (i, (a, p)) in ws_ser.rhs.iter().zip(&ws_par.rhs).enumerate() {
            assert_eq!(a.to_bits(), p.to_bits(), "{ctx}: rhs {i}: {a:e} vs {p:e}");
        }
        for (i, (a, p)) in ws_ser.junction_state.iter().zip(&ws_par.junction_state).enumerate() {
            assert_eq!(a.to_bits(), p.to_bits(), "{ctx}: junction {i}: {a:e} vs {p:e}");
        }
    }
}

/// Runs a full transient serially and with `workers` stamp workers and
/// asserts the accepted times and every solution vector are bit-identical.
fn assert_waveforms_bit_identical(b: &generators::Benchmark, workers: usize) {
    let sys = Arc::new(MnaSystem::compile(&b.circuit).expect("compile"));
    // Caches pinned on: degradation to serial must stay exact even while
    // bypass and chord reuse are active.
    let serial =
        SimOptions::default().with_stamp_workers(0).with_bypass(true).with_chord_newton(true);
    let par =
        SimOptions::default().with_stamp_workers(workers).with_bypass(true).with_chord_newton(true);
    let r0 = run_transient_compiled(&sys, b.tstep, b.tstop, &serial).expect("serial run");
    let rw = run_transient_compiled(&sys, b.tstep, b.tstop, &par).expect("parallel run");
    assert_eq!(r0.times(), rw.times(), "{} x{workers}: accepted times differ", b.name);
    for k in 0..r0.len() {
        for (i, (a, p)) in r0.solution(k).iter().zip(rw.solution(k)).enumerate() {
            assert_eq!(
                a.to_bits(),
                p.to_bits(),
                "{} x{workers}: point {k} unknown {i}: {a:e} vs {p:e}",
                b.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn stamps_bit_identical_across_suite(
        seed in -2.0f64..2.0,
        gshunt_idx in 0usize..3,
        workers in 1usize..=4,
    ) {
        let gshunt = [0.0f64, 1e-6, 1e-2][gshunt_idx];
        for b in generators::small_suite() {
            assert_stamps_bit_identical(&b, seed, gshunt, workers);
        }
    }

    #[test]
    fn transient_waveforms_bit_identical(
        bench in 0usize..16,
        workers in 1usize..=4,
    ) {
        let suite = generators::small_suite();
        let b = &suite[bench % suite.len()];
        assert_waveforms_bit_identical(b, workers);
    }
}

#[test]
fn every_generator_circuit_is_bit_identical_at_two_workers() {
    // Deterministic sweep of the full suite (the proptests sample it): the
    // canonical 2-worker configuration must be exact on every circuit.
    for b in generators::small_suite() {
        assert_waveforms_bit_identical(&b, 2);
    }
}

#[test]
fn executor_declines_zero_workers_and_empty_systems() {
    let b = generators::rc_ladder(3);
    let sys = Arc::new(MnaSystem::compile(&b.circuit).unwrap());
    assert!(StampExecutor::new(&sys, 0, &FaultHandle::none()).is_none());
    assert!(StampExecutor::new(&sys, 2, &FaultHandle::none()).is_some());
}

/// The executor's worker-loss fallback hands the rest of a Newton point to
/// the serial kernel mid-solve, so parallel and serial stamps can alternate
/// on one workspace within one time point, with the linear-RHS replay active
/// after the first iteration. Each stamp of such a mixed sequence must match,
/// bit for bit, a serial stamp that walks the linear devices every time.
#[test]
fn parallel_and_serial_stamps_alternate_within_a_point() {
    for b in generators::small_suite() {
        let sys = Arc::new(MnaSystem::compile(&b.circuit).expect("compile"));
        let n = sys.n_unknowns();
        let (xp, xp2) = (iterate(n, 0.4), iterate(n, 0.6));
        let caps = vec![1e-6; sys.cap_state_count()];
        let input = StampInput {
            time: 2e-9,
            coeffs: Some(IntegCoeffs::new(Method::Trapezoidal, 1e-10, 1e-10)),
            x_prev: &xp,
            x_prev2: &xp2,
            cap_currents: &caps,
            gmin: 1e-12,
            gshunt: 0.0,
            source_scale: 1.0,
            ic_mode: false,
        };
        let ctl = SimOptions::default().with_bypass(true).with_companion_cache(true).cache_ctl();
        let x1 = iterate(n, 1.3);
        let x1_mixed: Vec<f64> =
            x1.iter().enumerate().map(|(i, v)| v + if i % 2 == 0 { 1e-9 } else { 1e-2 }).collect();
        let iterates = [iterate(n, 1.0), x1.clone(), x1, x1_mixed, iterate(n, 1.7)];
        for parallel_first in [true, false] {
            let Some(mut exec) = StampExecutor::new(&sys, 2, &FaultHandle::none()) else {
                return; // no devices: nothing to compare
            };
            let (probe, metrics, mut stats) =
                (ProbeHandle::none(), MetricsHandle::none(), SimStats::new());
            let mut ws_ref = sys.new_workspace();
            let mut ws_mix = sys.new_workspace();
            for (it, x) in iterates.iter().enumerate() {
                let first = it == 0;
                let res_ref = sys.stamp_with(&mut ws_ref, &input, x, &ctl);
                let res_mix = if (it % 2 == 0) == parallel_first {
                    exec.stamp_iter(
                        &mut ws_mix,
                        &input,
                        x,
                        &ctl,
                        first,
                        &probe,
                        &metrics,
                        &mut stats,
                    )
                } else {
                    sys.stamp_iter(&mut ws_mix, &input, x, &ctl, first)
                };
                let ctx = format!("{} iteration {it} parallel_first {parallel_first}", b.name);
                assert_eq!(res_ref, res_mix, "{ctx}: stamp result");
                assert_eq!(ws_ref.limited, ws_mix.limited, "{ctx}: limited flag");
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(ws_ref.matrix.values()), bits(ws_mix.matrix.values()), "{ctx}");
                assert_eq!(bits(&ws_ref.rhs), bits(&ws_mix.rhs), "{ctx}: rhs");
                assert_eq!(bits(&ws_ref.junction_state), bits(&ws_mix.junction_state), "{ctx}");
            }
        }
    }
}

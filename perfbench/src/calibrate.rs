//! Host-speed calibration: a fixed round of benchmark-owned kernels, run
//! between the analysis repetitions, whose time tracks how fast the host is
//! running this process at the moment.
//!
//! The reference host's per-core speed drifts with its other tenants' load
//! over seconds to minutes. Raw medians of runs a few minutes apart then
//! differ by more than any change the benchmark must detect. The round
//! mixes the kinds of work the program does (integer chains, independent
//! integer work, dense and sparse floating point, branchy device-like
//! evaluation, small allocations), so a slowdown that hits the program hits
//! the round too. None of it calls the program, so a change to the program
//! cannot move it.

use crate::instrument::thread_cpu_s;
use crate::netlist::Rng;
use std::hint::black_box;

/// On-CPU seconds of one round at the reference host speed: about the
/// median round on a 2-vCPU Xeon at 2.1 GHz, where single runs measured
/// 0.025 s to 0.038 s. End-to-end times are reported scaled by this over
/// the run's median round, i.e. in seconds at that speed.
pub const REFERENCE_ROUND_S: f64 = 0.032;

/// Rows of the sparse triangular system.
const TRI_ROWS: usize = 20_000;
/// Off-diagonal entries per row.
const TRI_PER_ROW: usize = 8;
/// Order of the dense matrix.
const DENSE_N: usize = 48;
/// Devices in the evaluation loop.
const DEVICES: usize = 4_000;

/// The kernels' fixed inputs, built once.
pub struct Calibration {
    tri_ptr: Vec<usize>,
    tri_idx: Vec<u32>,
    tri_val: Vec<f64>,
    dense: Vec<f64>,
    vgs: Vec<f64>,
    vds: Vec<f64>,
    node: Vec<usize>,
    rounds: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Self {
        let mut rng = Rng::new(0xca11_b8a7e);
        let (mut tri_ptr, mut tri_idx, mut tri_val) = (vec![0], Vec::new(), Vec::new());
        for i in 1..=TRI_ROWS {
            for _ in 0..TRI_PER_ROW {
                tri_idx.push((rng.next_u64() % i as u64) as u32);
                tri_val.push(rng.unit() * 1e-3);
            }
            tri_ptr.push(tri_idx.len());
        }
        let n = DENSE_N;
        let dense =
            (0..n * n).map(|k| if k % (n + 1) == 0 { n as f64 } else { rng.unit() }).collect();
        Calibration {
            tri_ptr,
            tri_idx,
            tri_val,
            dense,
            vgs: (0..DEVICES).map(|_| rng.unit() * 3.3).collect(),
            vds: (0..DEVICES).map(|_| rng.unit() * 3.3).collect(),
            node: (0..DEVICES).map(|_| (rng.next_u64() % 997) as usize).collect(),
            rounds: Vec::new(),
        }
    }

    /// Runs and times one round on the calling thread.
    pub fn round(&mut self) {
        let t = thread_cpu_s();
        black_box(chain(4_000_000));
        black_box(independent(2_500_000));
        black_box(self.sparse_solve(12));
        black_box(self.dense_lu(300));
        black_box(self.devices(330));
        black_box(allocations(5_000));
        self.rounds.push(thread_cpu_s() - t);
    }

    /// Median seconds of the rounds run so far.
    pub fn median_round_s(&self) -> f64 {
        crate::workloads::median(&self.rounds)
    }

    /// This run's host speed relative to the reference: the factor that
    /// turns its seconds into seconds at the reference host speed.
    pub fn relative_speed(&self) -> f64 {
        REFERENCE_ROUND_S / self.median_round_s()
    }

    /// Forward substitution with a unit-diagonal random sparse lower
    /// triangle: indexed loads, floating point.
    fn sparse_solve(&self, sweeps: usize) -> f64 {
        let mut x = vec![1.0f64; TRI_ROWS + 1];
        for _ in 0..sweeps {
            for i in 1..=TRI_ROWS {
                let mut s = 1.0;
                for k in self.tri_ptr[i - 1]..self.tri_ptr[i] {
                    s -= self.tri_val[k] * x[self.tri_idx[k] as usize];
                }
                x[i] = s;
            }
        }
        x.iter().sum()
    }

    /// Unpivoted LU of a diagonally dominant dense matrix.
    fn dense_lu(&self, reps: usize) -> f64 {
        let n = DENSE_N;
        let mut acc = 0.0;
        for _ in 0..reps {
            let mut a = self.dense.clone();
            for k in 0..n {
                let p = a[k * n + k];
                for i in k + 1..n {
                    let l = a[i * n + k] / p;
                    a[i * n + k] = l;
                    for j in k + 1..n {
                        a[i * n + j] -= l * a[k * n + j];
                    }
                }
            }
            acc += a[n * n - 1];
        }
        acc
    }

    /// Square-law device evaluation with region branches, scattered into a
    /// conductance vector by node index.
    fn devices(&self, sweeps: usize) -> f64 {
        let mut g = vec![0.0f64; 1000];
        let mut acc = 0.0;
        for it in 0..sweeps {
            let scale = 1.0 + it as f64 * 1e-4;
            for k in 0..DEVICES {
                let (vov, vd) = (self.vgs[k] * scale - 0.7, self.vds[k]);
                let (id, gm) = if vov <= 0.0 {
                    (0.0, 0.0)
                } else if vd < vov {
                    (1e-4 * (vov * vd - 0.5 * vd * vd) * (1.0 + 0.02 * vd), 1e-4 * vd)
                } else {
                    (5e-5 * vov * vov * (1.0 + 0.02 * vd), 1e-4 * vov)
                };
                g[self.node[k]] += gm;
                g[self.node[k] + 1] -= id / (1.0 + vd.sqrt());
            }
            acc += g[it % 1000];
        }
        acc
    }
}

/// One dependent multiply-add chain.
fn chain(iters: u64) -> u64 {
    let mut x = 0u64;
    for i in 0..iters {
        x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
    }
    x
}

/// Four independent integer chains: instruction-level parallelism.
fn independent(iters: u64) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..iters {
        a = a.wrapping_mul(6364136223846793005).wrapping_add(i);
        b = b.wrapping_mul(2862933555777941757).wrapping_add(i);
        c = c.rotate_left(7) ^ a.wrapping_add(i);
        d = d.wrapping_add(b >> 3) ^ c;
    }
    a ^ b ^ c ^ d
}

/// Growing, cloning and dropping small vectors: the allocator's fast paths.
fn allocations(count: usize) -> usize {
    let mut rng = Rng::new(9);
    let mut total = 0;
    for _ in 0..count {
        let n = 8 + (rng.next_u64() % 600) as usize;
        let mut v: Vec<f64> = Vec::with_capacity(4);
        for k in 0..n {
            v.push(k as f64);
        }
        let w = v.clone();
        total += w.len() + v.len();
    }
    total
}

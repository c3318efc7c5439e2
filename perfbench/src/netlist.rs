//! Seeded SPICE netlist text for the three workloads.
//!
//! Topology is fixed per workload; only element values (R, C, W, L, KP) and
//! source phases are jittered by ±10%, so every seed exercises the same
//! code paths at nearly the same cost while the program still sees a fresh,
//! parsed input each time.

use std::fmt::Write as _;

/// Supply voltage of the digital workloads, volts.
const VDD: f64 = 3.3;

/// splitmix64: a tiny, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_0bad_cafe_f00d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `nominal` scaled by a factor uniform in `[0.9, 1.1)`.
    pub fn jit(&mut self, nominal: f64) -> f64 {
        nominal * (0.9 + 0.2 * self.unit())
    }
}

/// One MOSFET model card with jittered KP/W/L (digital-logic devices).
fn mos_card(out: &mut String, rng: &mut Rng, name: &str, pmos: bool) {
    let (kind, vto, kp, w) =
        if pmos { ("pmos", -0.7, 5e-5, 40e-6) } else { ("nmos", 0.7, 1e-4, 20e-6) };
    let _ = writeln!(
        out,
        ".model {name} {kind} (vto={vto} kp={:e} w={:e} l={:e} cgs=5e-15 cgd=5e-15 lambda=0.02)",
        rng.jit(kp),
        rng.jit(w),
        rng.jit(1e-6),
    );
}

/// A CMOS inverter `inp -> out` with its own jittered models and load.
fn inverter(out: &mut String, rng: &mut Rng, tag: usize, inp: &str, node: &str) {
    mos_card(out, rng, &format!("pm{tag}"), true);
    mos_card(out, rng, &format!("nm{tag}"), false);
    let _ = writeln!(out, "Mp{tag} {node} {inp} vdd pm{tag}");
    let _ = writeln!(out, "Mn{tag} {node} {inp} 0 nm{tag}");
    let _ = writeln!(out, "Cl{tag} {node} 0 {:e}", rng.jit(20e-15));
}

/// Supply plus the chain's input pulse with a jittered delay.
fn chain_sources(out: &mut String, rng: &mut Rng) {
    let _ = writeln!(out, "Vdd vdd 0 {VDD}");
    let _ = writeln!(out, "Vin in 0 PULSE(0 {VDD} {:e} 0.2n 0.2n 6n 14n)", rng.jit(1e-9));
}

/// `digital_chain`: 120 stages, every fourth a 2-input NAND with its second
/// input tied high (a series NMOS stack), the rest inverters.
pub fn digital_chain(seed: u64) -> String {
    const STAGES: usize = 120;
    let mut rng = Rng::new(seed);
    let mut out = format!("digital chain x{STAGES} seed {seed}\n");
    chain_sources(&mut out, &mut rng);
    let mut prev = "in".to_string();
    for i in 0..STAGES {
        let node = format!("s{i}");
        if i % 4 == 3 {
            mos_card(&mut out, &mut rng, &format!("pa{i}"), true);
            mos_card(&mut out, &mut rng, &format!("pb{i}"), true);
            mos_card(&mut out, &mut rng, &format!("na{i}"), false);
            mos_card(&mut out, &mut rng, &format!("nb{i}"), false);
            let _ = writeln!(out, "MpA{i} {node} {prev} vdd pa{i}");
            let _ = writeln!(out, "MpB{i} {node} vdd vdd pb{i}");
            let _ = writeln!(out, "MnA{i} {node} {prev} x{i} 0 na{i}");
            let _ = writeln!(out, "MnB{i} x{i} vdd 0 nb{i}");
            let _ = writeln!(out, "Cl{i} {node} 0 {:e}", rng.jit(20e-15));
        } else {
            inverter(&mut out, &mut rng, i, &prev, &node);
        }
        prev = node;
    }
    out.push_str(".tran 0.02n 30n\n.end\n");
    out
}

/// `grid_backward`: a 24x24 resistive power grid with node decoupling,
/// four supply pads, and pulsed loads with clamp diodes on a diagonal band.
pub fn power_grid(seed: u64) -> String {
    const N: usize = 24;
    let mut rng = Rng::new(seed);
    let mut out = format!("power grid {N}x{N} seed {seed}\n");
    out.push_str(".model dclamp d (is=1e-14 n=1 cj0=1e-13)\n");
    for r in 0..N {
        for c in 0..N {
            let _ = writeln!(out, "C{r}_{c} g{r}_{c} 0 {:e}", rng.jit(5e-13));
            if c + 1 < N {
                let _ = writeln!(out, "Rh{r}_{c} g{r}_{c} g{r}_{} {:e}", c + 1, rng.jit(1.0));
            }
            if r + 1 < N {
                let _ = writeln!(out, "Rv{r}_{c} g{r}_{c} g{}_{c} {:e}", r + 1, rng.jit(1.0));
            }
        }
    }
    for (k, (r, c)) in [(0, 0), (0, N - 1), (N - 1, 0), (N - 1, N - 1)].into_iter().enumerate() {
        let _ = writeln!(out, "Vdd{k} pad{k} 0 1.8");
        let _ = writeln!(out, "Rpad{k} pad{k} g{r}_{c} {:e}", rng.jit(0.1));
    }
    for (k, r) in (1..N - 1).enumerate() {
        let c = (r * (N - 2)) / N + 1;
        let phase = rng.jit(k as f64 * 1.3e-9 + 0.5e-9);
        let _ = writeln!(out, "Iload{k} g{r}_{c} 0 PULSE(0 0.02 {phase:e} 0.2n 0.2n 2n 8n)");
        let _ = writeln!(out, "Dclamp{k} 0 g{r}_{c} dclamp");
    }
    out.push_str(".tran 0.05n 24n\n.end\n");
    out
}

/// Stages of the `corner_sweep` base chain.
pub const SWEEP_STAGES: usize = 8;

/// `corner_sweep` base circuit: an 8-stage inverter chain.
pub fn sweep_chain(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut out = format!("inverter chain x{SWEEP_STAGES} seed {seed}\n");
    chain_sources(&mut out, &mut rng);
    let mut prev = "in".to_string();
    for i in 0..SWEEP_STAGES {
        let node = format!("s{i}");
        inverter(&mut out, &mut rng, i, &prev, &node);
        prev = node;
    }
    out.push_str(".tran 0.02n 30n\n.end\n");
    out
}

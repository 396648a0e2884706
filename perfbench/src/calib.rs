//! Host-speed calibration for the batch workloads.
//!
//! The benchmark's host is shared: other tenants' load changes how fast
//! the same code runs, by up to about 30% over seconds to minutes, and
//! the program's throughput-bound loops (emulator dispatch, cache
//! replay, compiler passes) feel it far more than a latency-bound spin
//! loop does. A pass therefore interleaves short *calibration slices*
//! between its ops: a fixed kernel of high-throughput integer work,
//! function-pointer dispatch over a predictable bytecode loop, and an
//! L2-resident sort, which is code outside the program under test and
//! never changes with it. Each op's time is scaled by
//! [`NOMINAL_SLICE_S`] over the mean time of the slices just before and
//! just after it, so it reads as seconds at the host speed at which a
//! slice takes its nominal time. A change to the program moves the
//! scaled times in full; a change in the host's speed moves the slices
//! as well and largely cancels.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// A slice's wall time at the reference host speed: about the median
/// slice time on the 2-vCPU Xeon host the benchmark was written on.
pub const NOMINAL_SLICE_S: f64 = 0.004;

/// Work between slices: a slice runs at the first op boundary after
/// this much time has passed since the previous one.
pub const INTERVAL: Duration = Duration::from_millis(30);

/// Iterations of the integer kernel per slice.
const ALU_ITERS: u64 = 600_000;
/// Bytecode steps per slice.
const DISPATCH_STEPS: usize = 700_000;
/// Elements sorted per slice.
const SORT_LEN: usize = 24_576;

/// Interleaves calibration slices with a pass's ops and scales the ops'
/// times by them.
pub struct Calibrator {
    on: bool,
    epoch: Instant,
    last: Instant,
    /// `(midpoint, duration)` of each slice, seconds since `epoch`.
    slices: Vec<(f64, f64)>,
    /// End of each op, seconds since `epoch`.
    op_ends: Vec<f64>,
    code: Vec<u8>,
    mem: Vec<u32>,
    sort_src: Vec<u32>,
}

impl Calibrator {
    /// A calibrator for one pass, which runs its first slice; with `on`
    /// false it runs none and scales nothing (traced passes, whose spans
    /// must cover their wall time).
    pub fn new(on: bool) -> Calibrator {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let now = Instant::now();
        let mut cal = Calibrator {
            on,
            epoch: now,
            last: now,
            slices: Vec::new(),
            op_ends: Vec::new(),
            code: (0..61u32).map(|i| ((i * 37 + 11) % 256) as u8).collect(),
            mem: (0..16_384u32).map(|i| i.wrapping_mul(7)).collect(),
            sort_src: (0..SORT_LEN).map(|_| next() as u32).collect(),
        };
        cal.slice();
        cal
    }

    /// Mark the end of an op, then run a slice if [`INTERVAL`] has
    /// passed since the last one. Call it once right after each op,
    /// outside its timing.
    pub fn tick(&mut self) {
        if !self.on {
            return;
        }
        self.op_ends.push(self.epoch.elapsed().as_secs_f64());
        if self.last.elapsed() >= INTERVAL {
            self.slice();
        }
    }

    fn slice(&mut self) {
        if !self.on {
            return;
        }
        let t = Instant::now();
        black_box(alu(black_box(ALU_ITERS)));
        black_box(dispatch(&self.code, &mut self.mem, DISPATCH_STEPS));
        let mut v = self.sort_src.clone();
        v.sort_unstable();
        black_box(&v);
        let now = Instant::now();
        let d = now.duration_since(t).as_secs_f64();
        let mid = t.duration_since(self.epoch).as_secs_f64() + d / 2.0;
        self.slices.push((mid, d));
        self.last = now;
    }

    /// Seconds spent in slices so far, to take out of the pass's wall.
    pub fn spent_s(&self) -> f64 {
        self.slices.iter().map(|s| s.1).sum()
    }

    /// Slices run so far.
    pub fn slices(&self) -> usize {
        self.slices.len()
    }

    /// Scale `lat`, the pass's op times in the order of the
    /// [`Calibrator::tick`] calls, each by nominal over the mean of its
    /// neighbouring slices. Returned unchanged when off or when the op
    /// count does not match the ticks.
    pub fn scale(&self, lat: &[f64]) -> Vec<f64> {
        if !self.on || self.slices.is_empty() || lat.len() != self.op_ends.len() {
            return lat.to_vec();
        }
        lat.iter()
            .zip(&self.op_ends)
            .map(|(&l, &end)| l * NOMINAL_SLICE_S / self.mean_around(end - l, end))
            .collect()
    }

    /// Mean duration of the last slice before `start`, any slices
    /// between `start` and `end`, and the first slice after `end`
    /// (slices are in time order). Closer slices track the host's speed
    /// during the op better than a wider window does.
    fn mean_around(&self, start: f64, end: f64) -> f64 {
        let lo = self.slices.partition_point(|s| s.0 < start);
        let hi = self.slices.partition_point(|s| s.0 <= end);
        let near = &self.slices[lo.saturating_sub(1)..(hi + 1).min(self.slices.len())];
        near.iter().map(|s| s.1).sum::<f64>() / near.len() as f64
    }
}

/// Four independent integer chains: throughput-bound.
fn alu(n: u64) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..n {
        a = a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        b = b.rotate_left(7) ^ i;
        c = c.wrapping_add(a >> 3);
        d ^= b.wrapping_add(c);
    }
    a ^ b ^ c ^ d
}

type Handler = fn(&mut [u32; 8], &mut [u32], usize);

fn h_add(r: &mut [u32; 8], _: &mut [u32], a: usize) {
    r[a] = r[a].wrapping_add(r[(a + 1) & 7]);
}
fn h_load(r: &mut [u32; 8], m: &mut [u32], a: usize) {
    r[a] = m[r[a] as usize & (m.len() - 1)];
}
fn h_store(r: &mut [u32; 8], m: &mut [u32], a: usize) {
    let i = r[(a + 2) & 7] as usize & (m.len() - 1);
    m[i] = r[a];
}
fn h_shl(r: &mut [u32; 8], _: &mut [u32], a: usize) {
    r[a] ^= r[a] << 5;
}
fn h_mul(r: &mut [u32; 8], _: &mut [u32], a: usize) {
    r[a] = r[a].rotate_left(7).wrapping_mul(0x9e37);
}
fn h_shr(r: &mut [u32; 8], _: &mut [u32], a: usize) {
    r[a] = r[a] >> 1 | 1;
}
fn h_sub(r: &mut [u32; 8], _: &mut [u32], a: usize) {
    r[a] = r[a].wrapping_sub(r[(a + 3) & 7]);
}
fn h_inc(r: &mut [u32; 8], _: &mut [u32], _: usize) {
    r[0] = r[0].wrapping_add(1);
}

static HANDLERS: [Handler; 8] = [h_add, h_load, h_store, h_shl, h_mul, h_shr, h_sub, h_inc];

/// Function-pointer dispatch over a short bytecode loop, like an
/// emulator's inner loop on a hot path.
fn dispatch(code: &[u8], mem: &mut [u32], steps: usize) -> u32 {
    let mut r = [1u32; 8];
    let mut pc = 0;
    for _ in 0..steps {
        let op = code[pc];
        HANDLERS[usize::from(op & 7)](&mut r, mem, usize::from(op >> 3) & 7);
        pc += 1;
        if pc == code.len() {
            pc = 0;
        }
    }
    r.iter().fold(0, |a, b| a ^ b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_are_scaled_by_their_neighbouring_slices() {
        let now = Instant::now();
        let cal = Calibrator {
            on: true,
            epoch: now,
            last: now,
            slices: vec![(0.1, 0.004), (0.2, 0.008), (2.0, 0.002)],
            op_ends: vec![0.15, 1.0, 2.05],
            code: Vec::new(),
            mem: Vec::new(),
            sort_src: Vec::new(),
        };
        // Ops over [0.10, 0.15] (slices at 0.1 and 0.2 around it),
        // [0.8, 1.0] (0.2 and 2.0) and [2.03, 2.05] (only 2.0 before it).
        let scaled = cal.scale(&[0.05, 0.2, 0.02]);
        let want = [
            0.05 * 0.004 / 0.006,
            0.2 * 0.004 / 0.005,
            0.02 * 0.004 / 0.002,
        ];
        for (s, w) in scaled.iter().zip(want) {
            assert!((s - w).abs() < 1e-12, "{scaled:?} vs {want:?}");
        }
        // An op count that does not match the ticks is left unscaled.
        assert_eq!(cal.scale(&[0.05, 0.2]), vec![0.05, 0.2]);
    }
}

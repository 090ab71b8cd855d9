//! The speed reference. The host this benchmark was tuned on has slow
//! phases (1.5–2.3× for seconds to minutes) that slow every op alike, so
//! wall times alone differ more between runs than any bound a change
//! could be held to. The loop therefore times this fixed kernel right
//! after every op and reports each op's time scaled to the speed at which
//! the kernel takes [`REFERENCE_MS`]: `wall × REFERENCE_MS / kernel`.
//!
//! The kernel is the benchmark's own code and touches nothing of the
//! program's: it allocates nothing after [`Kernel::new`] (so the heap the
//! program leaves behind does not change its speed). It sorts and hashes
//! over about 1.5 MiB, past the per-core caches: the slow phases are in
//! the memory system more than in the core, and pure register arithmetic
//! tracked them poorly.

use std::time::Instant;

/// Kernel time, in ms, that defines the reference speed (about what it
/// takes on a quiet 2.1 GHz Xeon vCPU).
pub const REFERENCE_MS: f64 = 5.0;

const KEYS: usize = 1 << 16;
const SLOTS: usize = 1 << 17;
const ROUNDS: usize = 2;

pub struct Kernel {
    keys: Vec<u64>,
    table: Vec<u64>,
}

impl Kernel {
    pub fn new() -> Kernel {
        Kernel {
            keys: vec![0; KEYS],
            table: vec![0; SLOTS],
        }
    }

    /// One fixed amount of work: fill the keys from a xorshift stream,
    /// sort them, and insert them into an open-addressing table, `ROUNDS`
    /// times. Returns a checksum so the work cannot be optimized away.
    fn work(&mut self) -> u64 {
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut sum = 0u64;
        let mask = SLOTS - 1;
        for _ in 0..ROUNDS {
            for k in self.keys.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *k = x;
            }
            self.keys.sort_unstable();
            self.table.fill(0);
            for &k in &self.keys {
                let mut h = (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as usize & mask;
                while self.table[h] != 0 {
                    h = (h + 1) & mask;
                }
                self.table[h] = k | 1;
            }
            sum = sum.wrapping_add(self.keys[KEYS / 2]);
        }
        sum
    }

    /// Wall time of one run of the kernel, in ms.
    pub fn time_ms(&mut self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(self.work());
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// `wall_ms` at the reference speed, given the kernel's time measured
/// next to it.
pub fn scaled(wall_ms: f64, kernel_ms: f64) -> f64 {
    wall_ms * REFERENCE_MS / kernel_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        let mut k = Kernel::new();
        assert_eq!(k.work(), k.work());
        assert!(k.time_ms() > 0.0);
    }

    #[test]
    fn scaling_is_relative_to_the_reference_speed() {
        assert_eq!(scaled(40.0, REFERENCE_MS), 40.0);
        // a phase that doubles the kernel's time halves the reported time
        assert_eq!(scaled(80.0, 2.0 * REFERENCE_MS), 40.0);
    }
}

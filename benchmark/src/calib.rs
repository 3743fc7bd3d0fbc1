//! `calib_s`: a fixed, std-only kernel timed with the same slice
//! composite as the workloads, so a slow phase of the machine can be
//! told from a slow program. It is printed as information; no result
//! is ever rescaled by it.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Slices per calibration run.
const CALIB_SLICES: usize = 16;

/// Pointer-chase table entries (4 MiB of `u32`: past the L2 cache).
const CHASE_LEN: usize = 1 << 20;
const CHASE_STEPS: usize = 100_000;
const MAP_OPS: u64 = 4_000;

/// The calibration kernel's fixed input.
pub struct Calib {
    next: Vec<u32>,
}

impl Default for Calib {
    fn default() -> Self {
        Self::new()
    }
}

impl Calib {
    /// Builds the pointer-chase permutation (one cycle through every
    /// entry, in an LCG-scrambled order).
    pub fn new() -> Calib {
        let mut order: Vec<u32> = (0..CHASE_LEN as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..order.len()).rev() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            order.swap(i, (x >> 33) as usize % (i + 1));
        }
        let mut next = vec![0u32; CHASE_LEN];
        for w in order.windows(2) {
            next[w[0] as usize] = w[1];
        }
        next[order[CHASE_LEN - 1] as usize] = order[0];
        Calib { next }
    }

    /// Runs the kernel once; returns host nanoseconds per slice. Every
    /// slice does the same work: a dependent-load chain, then insert,
    /// look up and remove keys in a `BTreeMap` and a `HashMap`.
    pub fn run(&self) -> Vec<u64> {
        let mut out = vec![0u64; CALIB_SLICES];
        let mut at = 0u32;
        for slot in &mut out {
            let t = Instant::now();
            for _ in 0..CHASE_STEPS {
                at = self.next[at as usize];
            }
            let mut tree = BTreeMap::new();
            let mut hash = HashMap::new();
            for i in 0..MAP_OPS {
                let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                tree.insert(k, i);
                hash.insert(k, i);
            }
            let mut hits = 0u64;
            for i in 0..MAP_OPS {
                let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                hits += tree.remove(&k).is_some() as u64 + hash.contains_key(&k) as u64;
            }
            black_box((at, hits));
            *slot = t.elapsed().as_nanos() as u64;
        }
        out
    }
}

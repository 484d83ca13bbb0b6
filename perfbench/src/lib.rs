//! # cais-perfbench
//!
//! One seeded, closed-loop benchmark of the platform's path from OSINT
//! feeds to shared, searchable intelligence. See `README.md` in this
//! directory for the workloads, metrics and output format.

#![forbid(unsafe_code)]

pub mod analyst;
mod bridge;
mod canon;
pub mod harness;
pub mod metrics;
pub mod osint;
pub mod partner;
mod stats;
pub mod trace;
mod wire;

use cais_common::serve::ServeConfig;

/// Worker threads of every serving core the benchmark starts: one, so
/// the loop thread plus the worker stay within two busy threads, and
/// the count never follows the host's core count.
pub const SERVE_WORKERS: usize = 1;

/// The serving-core configuration every workload uses.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: SERVE_WORKERS,
        ..ServeConfig::default()
    }
}

/// SplitMix64 of `seed` and a stream index: independent, reproducible
/// sub-seeds and per-step draws.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `k`-th pick from a pool of `len` items such that every block of
/// `len` consecutive picks visits each item once, in an order drawn
/// from `seed` and the block: the mix of items is exact in every run,
/// only their order varies.
pub fn cycle_pick(seed: u64, k: u64, len: usize) -> usize {
    let mut order: Vec<usize> = (0..len).collect();
    let block = mix(seed, k / len as u64);
    for i in (1..len).rev() {
        order.swap(i, (mix(block, i as u64) % (i as u64 + 1)) as usize);
    }
    order[(k % len as u64) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_pick_visits_every_item_once_per_block() {
        for seed in [0, 7, u64::MAX] {
            for block in 0..5u64 {
                let mut seen: Vec<usize> = (0..13)
                    .map(|i| cycle_pick(seed, block * 13 + i, 13))
                    .collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..13).collect::<Vec<_>>());
            }
        }
        assert_ne!(
            (0..13).map(|k| cycle_pick(1, k, 13)).collect::<Vec<_>>(),
            (0..13).map(|k| cycle_pick(2, k, 13)).collect::<Vec<_>>()
        );
    }
}

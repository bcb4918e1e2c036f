//! Host speed probe.
//!
//! On a shared 2-vCPU Xeon host the speed drifts by up to 2.4x over tens of
//! minutes and switches between regimes within seconds, so the same pass
//! can take 7 s in one run and 17 s in another. The
//! probe times a fixed kernel that does not depend on the program under
//! test (binary-heap churn feeding dependent reads of a 4 MiB table, like
//! an event queue driving scattered state) about every half second of a
//! run, outside every timed segment. The fastest probe of a run says how
//! fast the host was at its fastest during that run; the end-to-end times
//! are scaled by [`REFERENCE_S`] over it, the fastest-segment envelope
//! being likewise the run at its fastest.

use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// The kernel's time on a reference host, seconds: end-to-end times are
/// reported as if the host ran the kernel in this time. It is the kernel's
/// fastest time on a shared 2-vCPU Intel Xeon host.
pub const REFERENCE_S: f64 = 0.0055;

/// Least host time between two probes.
const INTERVAL: Duration = Duration::from_millis(500);
/// Entries kept in the kernel's heap.
const HEAP: usize = 1 << 14;
/// Entries in the kernel's table (4 MiB of `u32`).
const TABLE: usize = 1 << 20;
/// Pop-push rounds per probe.
const ROUNDS: usize = 1 << 16;

/// Times the kernel at most once per [`INTERVAL`] and keeps the fastest.
#[derive(Debug)]
pub struct SpeedProbe {
    table: Vec<u32>,
    last: Option<Instant>,
    fastest: f64,
    probes: u64,
}

impl Default for SpeedProbe {
    fn default() -> Self {
        SpeedProbe {
            table: vec![0; TABLE],
            last: None,
            fastest: f64::INFINITY,
            probes: 0,
        }
    }
}

impl SpeedProbe {
    /// Runs the kernel if [`INTERVAL`] has passed since the last probe and
    /// returns the interval it took.
    pub fn maybe_probe(&mut self) -> Option<(Instant, Instant)> {
        let from = Instant::now();
        if self.last.is_some_and(|t| from.duration_since(t) < INTERVAL) {
            return None;
        }
        kernel(&mut self.table);
        let to = Instant::now();
        self.fastest = self.fastest.min(to.duration_since(from).as_secs_f64());
        self.probes += 1;
        self.last = Some(to);
        Some((from, to))
    }

    /// The fastest probe so far, seconds (infinite before the first).
    pub fn fastest_s(&self) -> f64 {
        self.fastest
    }

    /// Probes run so far.
    pub fn probes(&self) -> u64 {
        self.probes
    }
}

fn kernel(table: &mut [u32]) {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap = BinaryHeap::with_capacity(HEAP);
    for _ in 0..HEAP {
        heap.push(next());
    }
    let mask = table.len() - 1;
    let mut idx = 0usize;
    for _ in 0..ROUNDS {
        let top = heap.pop().unwrap_or(0);
        idx = (idx ^ top as usize) & mask;
        table[idx] = table[idx].wrapping_add(1);
        heap.push(next() ^ u64::from(table[idx]));
    }
    std::hint::black_box(&heap);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_are_rate_limited_and_keep_the_fastest() {
        let mut p = SpeedProbe::default();
        assert!(p.maybe_probe().is_some());
        assert!(p.maybe_probe().is_none());
        assert_eq!(p.probes(), 1);
        assert!(p.fastest_s().is_finite() && p.fastest_s() > 0.0);
    }
}

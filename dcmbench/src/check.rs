//! The correctness gate.
//!
//! Each cell's simulated statistics (counters, completions, response-time
//! sums, actions, VM-seconds and dollars, exact bits) form its fingerprint.
//! Engine event counts, slab counters and planner evaluations are layer
//! metrics, not part of the fingerprint, so a change that removes events or
//! plan evaluations can pass. A cell fails the gate when:
//! * a request is unaccounted for after the drain
//!   (`submitted != completed + rejected + timed_out + failed`);
//! * its row differs from the committed artifact row it reproduces
//!   (`results/fleet.csv` at seed 20260807, `results/league.csv` at seed
//!   4242), over the columns that are simulated outputs;
//! * its fingerprint differs from one recorded for the same workload, seed
//!   and cell in `reference/fingerprints.tsv`;
//! * two passes of the same run disagree.

use dcm_ntier::system::SystemCounters;

use crate::workloads::{CellOutcome, Workload};

/// Exact simulated outputs of one cell, as named 64-bit words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint {
    words: Vec<(&'static str, u64)>,
}

impl Fingerprint {
    /// Adds an integer.
    pub fn u(&mut self, name: &'static str, v: u64) -> &mut Self {
        self.words.push((name, v));
        self
    }

    /// Adds the exact bits of a float.
    pub fn f(&mut self, name: &'static str, v: f64) -> &mut Self {
        self.u(name, v.to_bits())
    }

    /// Adds the exact bits of every float in `vs`.
    pub fn fs(&mut self, name: &'static str, vs: &[f64]) -> &mut Self {
        for &v in vs {
            self.f(name, v);
        }
        self
    }

    /// Adds a digest of an exported text artifact.
    pub fn text(&mut self, name: &'static str, s: &str) -> &mut Self {
        self.u(name, fnv1a(s.as_bytes()))
    }

    /// Adds the system conservation counters.
    pub fn counters(&mut self, c: &SystemCounters) -> &mut Self {
        self.u("submitted", c.submitted)
            .u("completed", c.completed)
            .u("rejected", c.rejected)
            .u("timed_out", c.timed_out)
            .u("failed", c.failed)
            .u("retried", c.retried)
    }

    /// One 64-bit digest of every word, names included.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.words.len() * 24);
        for (name, v) in &self.words {
            bytes.extend_from_slice(name.as_bytes());
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        fnv1a(&bytes)
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Seed at which `fleet` reproduces `results/fleet.csv`.
const FLEET_COMMITTED_SEED: u64 = 20_260_807;
/// Seed at which `control` reproduces the MPC rows of `results/league.csv`.
const LEAGUE_COMMITTED_SEED: u64 = 4242;

const FLEET_CSV: &str = include_str!("../../results/fleet.csv");
const LEAGUE_CSV: &str = include_str!("../../results/league.csv");
const FINGERPRINTS: &str = include_str!("../reference/fingerprints.tsv");

/// `results/fleet.csv` columns that are simulated outputs: users,
/// completions, throughput, throughput per server, mean and max response
/// time. Events, slab hit rate and pending events are layer counts.
const FLEET_COLUMNS: [usize; 7] = [0, 1, 3, 4, 5, 6, 7];
/// `results/league.csv` columns that are simulated outputs: every column
/// except `planner_evals` (a layer count of the planner).
const LEAGUE_COLUMNS: [usize; 9] = [0, 1, 2, 3, 4, 5, 6, 8, 9];

/// Where a cell's expected outputs came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// A committed `results/*.csv` row and a recorded fingerprint.
    Committed,
    /// A fingerprint recorded in `reference/fingerprints.tsv`.
    Recorded,
    /// No reference for this seed: conservation and pass identity only.
    None,
}

/// The verdict on one cell.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// What the cell was compared with.
    pub reference: Reference,
    /// Every failed check, empty when the cell passes.
    pub problems: Vec<String>,
}

/// Checks one cell of `workload` run with workload seed `seed`.
pub fn check_cell(workload: Workload, seed: u64, cell: &CellOutcome) -> Verdict {
    let mut problems = Vec::new();
    let c = cell.counts.sys;
    let settled = c.completed + c.rejected + c.timed_out + c.failed;
    if c.submitted != settled {
        problems.push(format!(
            "conservation: submitted {} != completed {} + rejected {} + timed_out {} + failed {}",
            c.submitted, c.completed, c.rejected, c.timed_out, c.failed
        ));
    }
    if c.submitted == 0 {
        problems.push("no request was submitted".to_string());
    }
    let mut reference = Reference::None;
    let committed = match workload {
        Workload::Fleet if seed == FLEET_COMMITTED_SEED => Some((FLEET_CSV, &FLEET_COLUMNS[..])),
        Workload::Control if seed == LEAGUE_COMMITTED_SEED => {
            Some((LEAGUE_CSV, &LEAGUE_COLUMNS[..]))
        }
        _ => None,
    };
    if let Some((csv, columns)) = committed {
        reference = Reference::Committed;
        let key = key_of(&cell.row, columns);
        let found = csv.lines().skip(1).any(|line| key_of(line, columns) == key);
        if !found {
            problems.push(format!(
                "row {:?} is not in the committed results",
                cell.row
            ));
        }
    }
    if let Some(expected) = recorded(workload, seed, &cell.label) {
        if reference == Reference::None {
            reference = Reference::Recorded;
        }
        let got = cell.fingerprint.digest();
        if got != expected {
            problems.push(format!(
                "fingerprint {got:016x} != recorded {expected:016x}"
            ));
        }
    }
    Verdict {
        reference,
        problems,
    }
}

fn key_of(row: &str, columns: &[usize]) -> Vec<String> {
    let fields: Vec<&str> = row.split(',').collect();
    columns
        .iter()
        .map(|&i| fields.get(i).copied().unwrap_or("").to_string())
        .collect()
}

/// The recorded digest for (`workload`, `seed`, `label`), if any.
fn recorded(workload: Workload, seed: u64, label: &str) -> Option<u64> {
    FINGERPRINTS
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            let hit = f.len() >= 4
                && f[0] == workload.name()
                && f[1].parse() == Ok(seed)
                && f[2] == label;
            if hit {
                u64::from_str_radix(f[3], 16).ok()
            } else {
                None
            }
        })
}

/// A line for `reference/fingerprints.tsv`.
pub fn reference_line(workload: Workload, seed: u64, cell: &CellOutcome) -> String {
    format!(
        "{}\t{}\t{}\t{:016x}\t{}",
        workload.name(),
        seed,
        cell.label,
        cell.fingerprint.digest(),
        cell.row
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_bit_and_name() {
        let mut a = Fingerprint::default();
        a.u("completed", 10).f("rt_sum", 1.5);
        let mut b = Fingerprint::default();
        b.u("completed", 10).f("rt_sum", 1.5 + f64::EPSILON);
        let mut c = Fingerprint::default();
        c.u("rejected", 10).f("rt_sum", 1.5);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.digest(), a.clone().digest());
    }

    #[test]
    fn committed_rows_are_keyed_without_layer_columns() {
        let line = "MPC,step,41210,68.663333,0.938322,25.000000,0.745901,2252,1.000000,46";
        let fewer_evals = "MPC,step,41210,68.663333,0.938322,25.000000,0.745901,1000,1.000000,46";
        assert_eq!(
            key_of(line, &LEAGUE_COLUMNS),
            key_of(fewer_evals, &LEAGUE_COLUMNS)
        );
        assert!(LEAGUE_CSV.lines().any(|l| l == line));
    }
}

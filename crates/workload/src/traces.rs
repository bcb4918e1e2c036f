//! Workload traces: target concurrent-user counts over time.
//!
//! The paper drives its Fig. 5 evaluation with the "Large Variation" trace
//! from Gandhi et al.'s AutoScale work. That trace file is not published
//! with the paper, so [`large_variation`] synthesizes a trace that
//! reproduces the three incident windows the evaluation narrates: a sharp
//! ramp around 50–90 s, a second surge around 220–260 s, and a
//! trough-then-flood around 520–560 s, over a ~700 s horizon. Traces can
//! also be loaded from simple CSV for externally supplied data.

use std::fmt;

use dcm_sim::time::SimTime;

/// A piecewise-constant target for the number of concurrent users.
///
/// # Examples
///
/// ```
/// use dcm_workload::traces::WorkloadTrace;
/// use dcm_sim::time::SimTime;
///
/// let trace = WorkloadTrace::from_points(vec![(0.0, 100), (60.0, 400)]).unwrap();
/// assert_eq!(trace.users_at(SimTime::from_secs(30)), 100);
/// assert_eq!(trace.users_at(SimTime::from_secs(90)), 400);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadTrace {
    // (time, target users), strictly increasing times, first at t=0.
    points: Vec<(SimTime, u32)>,
}

/// Error parsing or constructing a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// No points supplied.
    Empty,
    /// Timestamps must start at zero and strictly increase.
    UnorderedTimestamps {
        /// Index of the offending point.
        index: usize,
    },
    /// A CSV line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace has no points"),
            TraceError::UnorderedTimestamps { index } => {
                write!(
                    f,
                    "trace timestamps must start at 0 and increase (point {index})"
                )
            }
            TraceError::Parse { line } => write!(f, "malformed trace line {line}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl WorkloadTrace {
    /// Builds a trace from `(seconds, users)` points.
    ///
    /// # Errors
    ///
    /// [`TraceError::Empty`] or [`TraceError::UnorderedTimestamps`].
    pub fn from_points(points: Vec<(f64, u32)>) -> Result<Self, TraceError> {
        if points.is_empty() {
            return Err(TraceError::Empty);
        }
        if points[0].0 != 0.0 {
            return Err(TraceError::UnorderedTimestamps { index: 0 });
        }
        let mut converted = Vec::with_capacity(points.len());
        let mut last = -1.0f64;
        for (index, &(t, u)) in points.iter().enumerate() {
            if !t.is_finite() || t <= last {
                return Err(TraceError::UnorderedTimestamps { index });
            }
            last = t;
            converted.push((SimTime::from_secs_f64(t), u));
        }
        Ok(WorkloadTrace { points: converted })
    }

    /// Parses a `seconds,users` CSV (blank lines and `#` comments ignored).
    ///
    /// # Errors
    ///
    /// [`TraceError::Parse`] on malformed lines plus the construction
    /// errors of [`WorkloadTrace::from_points`].
    pub fn from_csv(text: &str) -> Result<Self, TraceError> {
        let mut points = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split(',');
            let t: f64 = parts
                .next()
                .and_then(|s| s.trim().parse().ok())
                .ok_or(TraceError::Parse { line: i + 1 })?;
            let u: u32 = parts
                .next()
                .and_then(|s| s.trim().parse().ok())
                .ok_or(TraceError::Parse { line: i + 1 })?;
            points.push((t, u));
        }
        Self::from_points(points)
    }

    /// Serializes to the CSV format accepted by [`WorkloadTrace::from_csv`].
    pub fn to_csv(&self) -> String {
        let mut out = String::from("# seconds,users\n");
        for &(t, u) in &self.points {
            out.push_str(&format!("{},{u}\n", t.as_secs_f64()));
        }
        out
    }

    /// The target user count in effect at `at`.
    pub fn users_at(&self, at: SimTime) -> u32 {
        match self.points.binary_search_by(|&(t, _)| t.cmp(&at)) {
            Ok(i) => self.points[i].1,
            Err(0) => self.points[0].1,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// The change points `(time, users)`.
    pub fn points(&self) -> &[(SimTime, u32)] {
        &self.points
    }

    /// Time of the last change point (the trace holds its final value
    /// afterwards).
    pub fn last_change(&self) -> SimTime {
        self.points.last().expect("trace is non-empty").0
    }

    /// Peak target across the trace.
    pub fn peak_users(&self) -> u32 {
        self.points
            .iter()
            .map(|&(_, u)| u)
            .max()
            .expect("non-empty")
    }

    /// Scales every target by `factor` (rounding), e.g. to stress the same
    /// shape at a different magnitude.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite or is negative.
    pub fn scaled(&self, factor: f64) -> WorkloadTrace {
        assert!(factor.is_finite() && factor >= 0.0, "invalid scale factor");
        WorkloadTrace {
            points: self
                .points
                .iter()
                .map(|&(t, u)| (t, (f64::from(u) * factor).round() as u32))
                .collect(),
        }
    }
}

/// The synthesized "Large Variation" trace (≈ 700 s): baseline load with
/// the three bursts the paper's Fig. 5 narrates.
///
/// User counts are calibrated for the RUBBoS think-time client (mean 3 s):
/// the baseline keeps a 1/1/1 system comfortable, the bursts demand two to
/// three servers in the bottleneck tiers.
pub fn large_variation() -> WorkloadTrace {
    WorkloadTrace::from_points(vec![
        // Gentle baseline.
        (0.0, 120),
        (30.0, 140),
        // Burst 1: sharp ramp at ~50 s, peak, decay by ~110 s.
        (50.0, 420),
        (70.0, 520),
        (90.0, 430),
        (110.0, 260),
        (140.0, 180),
        (170.0, 160),
        // Burst 2: bigger surge at ~220 s.
        (220.0, 620),
        (240.0, 700),
        (260.0, 560),
        (290.0, 340),
        (330.0, 220),
        (380.0, 180),
        // Long lull that tempts the controller to scale in.
        (430.0, 130),
        (470.0, 110),
        (500.0, 100),
        // Burst 3: flood right after the lull (the scale-in trap).
        (530.0, 640),
        (555.0, 580),
        (580.0, 360),
        (620.0, 220),
        (660.0, 150),
        (700.0, 140),
    ])
    .expect("built-in trace is valid")
}

/// A single step from `low` to `high` users at `at_secs` (classic
/// controller step-response probe).
pub fn step(low: u32, high: u32, at_secs: f64) -> WorkloadTrace {
    WorkloadTrace::from_points(vec![(0.0, low), (at_secs, high)]).expect("valid step trace")
}

/// A flash crowd: `base` users with one spike to `peak` lasting
/// `duration_secs` starting at `at_secs`.
pub fn flash_crowd(base: u32, peak: u32, at_secs: f64, duration_secs: f64) -> WorkloadTrace {
    WorkloadTrace::from_points(vec![
        (0.0, base),
        (at_secs, peak),
        (at_secs + duration_secs, base),
    ])
    .expect("valid flash-crowd trace")
}

/// A sampled sine oscillation between `low` and `high` with the given
/// period, sampled every `sample_secs` over `horizon_secs` (smooth diurnal
/// pattern).
pub fn sine(
    low: u32,
    high: u32,
    period_secs: f64,
    horizon_secs: f64,
    sample_secs: f64,
) -> WorkloadTrace {
    assert!(high >= low, "high must be >= low");
    assert!(
        period_secs > 0.0 && sample_secs > 0.0,
        "periods must be positive"
    );
    let mut points = Vec::new();
    let mut t = 0.0;
    let mid = f64::from(low + high) / 2.0;
    let amp = f64::from(high - low) / 2.0;
    while t <= horizon_secs {
        let phase = (t / period_secs) * std::f64::consts::TAU;
        let users = (mid + amp * phase.sin()).round() as u32;
        points.push((t, users));
        t += sample_secs;
    }
    WorkloadTrace::from_points(points).expect("valid sine trace")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_holds_between_points() {
        let trace = WorkloadTrace::from_points(vec![(0.0, 10), (5.0, 20), (9.0, 5)]).unwrap();
        assert_eq!(trace.users_at(SimTime::ZERO), 10);
        assert_eq!(trace.users_at(SimTime::from_secs_f64(4.9)), 10);
        assert_eq!(trace.users_at(SimTime::from_secs(5)), 20);
        assert_eq!(trace.users_at(SimTime::from_secs(100)), 5);
        assert_eq!(trace.peak_users(), 20);
        assert_eq!(trace.last_change(), SimTime::from_secs(9));
    }

    #[test]
    fn validation_rejects_bad_traces() {
        assert_eq!(WorkloadTrace::from_points(vec![]), Err(TraceError::Empty));
        assert_eq!(
            WorkloadTrace::from_points(vec![(1.0, 5)]),
            Err(TraceError::UnorderedTimestamps { index: 0 })
        );
        assert_eq!(
            WorkloadTrace::from_points(vec![(0.0, 5), (2.0, 6), (2.0, 7)]),
            Err(TraceError::UnorderedTimestamps { index: 2 })
        );
    }

    #[test]
    fn csv_roundtrip() {
        let trace = large_variation();
        let csv = trace.to_csv();
        let parsed = WorkloadTrace::from_csv(&csv).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn csv_parse_errors_carry_line_numbers() {
        let err = WorkloadTrace::from_csv("0,10\nbogus\n").unwrap_err();
        assert_eq!(err, TraceError::Parse { line: 2 });
        let ok = WorkloadTrace::from_csv("# comment\n\n0,10\n5,20\n").unwrap();
        assert_eq!(ok.points().len(), 2);
    }

    #[test]
    fn large_variation_has_three_bursts_and_trap() {
        let trace = large_variation();
        // Three distinct peaks above 500.
        let peaks: Vec<u32> = trace
            .points()
            .iter()
            .map(|&(_, u)| u)
            .filter(|&u| u >= 500)
            .collect();
        assert!(peaks.len() >= 3, "peaks {peaks:?}");
        // The lull before the third burst drops near baseline.
        let lull = trace.users_at(SimTime::from_secs(510));
        assert!(lull <= 120, "lull {lull}");
        let flood = trace.users_at(SimTime::from_secs(531));
        assert!(flood >= 600, "flood {flood}");
    }

    #[test]
    fn synthetic_shapes() {
        let s = step(10, 100, 30.0);
        assert_eq!(s.users_at(SimTime::from_secs(29)), 10);
        assert_eq!(s.users_at(SimTime::from_secs(31)), 100);

        let f = flash_crowd(50, 500, 60.0, 30.0);
        assert_eq!(f.users_at(SimTime::from_secs(59)), 50);
        assert_eq!(f.users_at(SimTime::from_secs(75)), 500);
        assert_eq!(f.users_at(SimTime::from_secs(91)), 50);

        let w = sine(100, 200, 60.0, 120.0, 5.0);
        assert!(w.peak_users() >= 195);
        assert!(w.points().iter().all(|&(_, u)| (100..=200).contains(&u)));
    }

    #[test]
    fn scaling_preserves_shape() {
        let trace = large_variation().scaled(0.5);
        assert_eq!(trace.users_at(SimTime::ZERO), 60);
        assert_eq!(trace.peak_users(), 350);
    }
}

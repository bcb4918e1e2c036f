//! Concurrency-dependent CPU scheduling.
//!
//! All bursts active on a server progress at the *same* speed
//! `1/f(N)` (work-seconds per second), where `f(N)` is the inflation factor
//! of the server's [`ServiceLaw`] at its current contention level `N`. That
//! uniformity admits an O(log n) implementation: keep a **work clock**
//! `W(t) = ∫ speed dt`; a burst with `w` work-seconds remaining completes
//! when the clock reaches `W_now + w`, so completions are just a min-heap on
//! target clock values. Changing contention only changes the clock's slope.
//!
//! With `N` saturated threads each carrying bursts of `S⁰` work, a burst
//! takes `S⁰·f(N) = S*(N)` wall seconds and completions occur at rate
//! `N/S*(N)` — exactly Eq. 6/7 of the paper.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dcm_sim::time::SimTime;

use crate::ids::RequestId;
use crate::law::ServiceLaw;

/// Totally ordered wrapper over non-NaN `f64` for heap keys.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("NaN rejected at insert")
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Burst<R> {
    target: OrdF64,
    seq: u64,
    req: R,
    work: OrdF64,
}

impl<R: Copy + Eq> PartialOrd for Burst<R> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<R: Copy + Eq> Ord for Burst<R> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.target, self.seq).cmp(&(other.target, other.seq))
    }
}

/// The CPU of one simulated server.
///
/// Generic over the burst owner token `R` (default [`RequestId`]); the flow
/// layer runs it over generation-checked `FlightId` slab handles.
///
/// # Examples
///
/// ```
/// use dcm_ntier::cpu::CpuScheduler;
/// use dcm_ntier::law::ServiceLaw;
/// use dcm_ntier::ids::RequestId;
/// use dcm_sim::time::SimTime;
///
/// let mut cpu = CpuScheduler::new(ServiceLaw::frictionless(0.01));
/// let t0 = SimTime::ZERO;
/// cpu.set_contention(t0, 1);
/// cpu.add_burst(t0, RequestId::new(1), 0.01);
/// let (at, req) = cpu.next_completion(t0).unwrap();
/// assert_eq!(req, RequestId::new(1));
/// assert!((at.as_secs_f64() - 0.01).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct CpuScheduler<R = RequestId> {
    law: ServiceLaw,
    work_clock: f64,
    last_update: SimTime,
    contention: u32,
    bursts: BinaryHeap<Reverse<Burst<R>>>,
    /// `law.progress_speed(max(contention, active bursts))`, refreshed
    /// whenever either input changes.
    speed: f64,
    seq: u64,
    busy_seconds: f64,
    completed_work: f64,
    max_active_bursts: usize,
}

/// Slack (in work-seconds) tolerated when deciding a burst is done, to
/// absorb floating-point drift between the scheduled completion event and
/// the work clock.
const WORK_EPSILON: f64 = 1e-9;

impl<R: Copy + Eq + std::fmt::Debug> CpuScheduler<R> {
    /// Creates an idle CPU governed by `law`.
    pub fn new(law: ServiceLaw) -> Self {
        CpuScheduler {
            law,
            work_clock: 0.0,
            last_update: SimTime::ZERO,
            contention: 0,
            bursts: BinaryHeap::new(),
            speed: law.progress_speed(0),
            seq: 0,
            busy_seconds: 0.0,
            completed_work: 0.0,
            max_active_bursts: 0,
        }
    }

    /// The governing law.
    pub fn law(&self) -> &ServiceLaw {
        &self.law
    }

    /// Number of bursts currently executing.
    pub fn active_bursts(&self) -> usize {
        self.bursts.len()
    }

    /// The contention level currently applied to the law.
    pub fn contention(&self) -> u32 {
        self.contention
    }

    /// Cumulative seconds during which at least one burst was active.
    pub fn busy_seconds(&self) -> f64 {
        self.busy_seconds
    }

    /// Cumulative work-seconds of completed bursts.
    pub fn completed_work(&self) -> f64 {
        self.completed_work
    }

    /// The largest number of bursts ever simultaneously active — the
    /// concurrency high-water mark bounding every speed the CPU has run at.
    pub fn max_active_bursts(&self) -> usize {
        self.max_active_bursts
    }

    /// [`CpuScheduler::busy_seconds`] projected through `now` without
    /// mutating the clock (read-only view for auditors).
    pub fn projected_busy_seconds(&self, now: SimTime) -> f64 {
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        if self.bursts.is_empty() {
            self.busy_seconds
        } else {
            self.busy_seconds + dt
        }
    }

    /// Total work-seconds *executed* through `now`: work credited to
    /// completed bursts plus the progress already made on bursts still on
    /// the CPU. Read-only (the clock is projected, not advanced).
    pub fn projected_executed_work(&self, now: SimTime) -> f64 {
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        let projected_clock = if self.bursts.is_empty() {
            self.work_clock
        } else {
            self.work_clock + dt * self.speed
        };
        let in_progress: f64 = self
            .bursts
            .iter()
            .map(|&Reverse(b)| {
                let remaining = (b.target.0 - projected_clock).max(0.0);
                (b.work.0 - remaining).max(0.0)
            })
            .sum();
        self.completed_work + in_progress
    }

    /// Recomputes the cached progress speed after a change to contention
    /// or to the set of active bursts.
    fn refresh_speed(&mut self) {
        // Contention never reads below the number of bursts actually on the
        // CPU — a server cannot be less contended than its running work.
        let n = self.contention.max(self.bursts.len() as u32);
        self.speed = self.law.progress_speed(n);
    }

    /// Advances the work clock to `now`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `now` precedes the last update.
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "cpu time ran backwards");
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        if dt > 0.0 {
            if !self.bursts.is_empty() {
                self.work_clock += dt * self.speed;
                self.busy_seconds += dt;
            }
            self.last_update = now;
        }
    }

    /// Updates the contention level (threads in use on the server),
    /// advancing the clock first so past progress is settled at the old
    /// speed.
    pub fn set_contention(&mut self, now: SimTime, n: u32) {
        self.advance(now);
        self.contention = n;
        self.refresh_speed();
    }

    /// Starts a burst of `work` work-seconds for `req`.
    ///
    /// # Panics
    ///
    /// Panics if `work` is negative or not finite.
    pub fn add_burst(&mut self, now: SimTime, req: R, work: f64) {
        assert!(
            work.is_finite() && work >= 0.0,
            "burst work must be finite and >= 0"
        );
        self.advance(now);
        let burst = Burst {
            target: OrdF64(self.work_clock + work),
            seq: self.seq,
            req,
            work: OrdF64(work),
        };
        self.seq += 1;
        self.bursts.push(Reverse(burst));
        self.refresh_speed();
        self.max_active_bursts = self.max_active_bursts.max(self.bursts.len());
    }

    /// When and for which request the next completion occurs, given no
    /// further changes; `None` when idle.
    pub fn next_completion(&self, now: SimTime) -> Option<(SimTime, R)> {
        let &Reverse(burst) = self.bursts.peek()?;
        // Project the clock forward from `now` (callers advance first).
        let pending_dt = now.saturating_since(self.last_update).as_secs_f64();
        let projected_clock = self.work_clock + pending_dt * self.speed;
        let remaining = (burst.target.0 - projected_clock).max(0.0);
        let dt = remaining / self.speed;
        Some((
            now + dcm_sim::time::SimDuration::from_secs_f64(dt),
            burst.req,
        ))
    }

    /// Pops the frontmost burst if it has completed by `now` (within a
    /// small work-epsilon of the work clock).
    pub fn pop_completed(&mut self, now: SimTime) -> Option<R> {
        self.advance(now);
        let &Reverse(burst) = self.bursts.peek()?;
        if burst.target.0 <= self.work_clock + WORK_EPSILON {
            self.bursts.pop();
            self.refresh_speed();
            self.completed_work += burst.work.0;
            Some(burst.req)
        } else {
            None
        }
    }

    /// Removes a specific request's burst (e.g. the request was aborted).
    /// Returns `true` if a burst was removed. O(n) rebuild — rare path.
    pub fn cancel_burst(&mut self, now: SimTime, req: R) -> bool {
        self.advance(now);
        let before = self.bursts.len();
        let retained: Vec<_> = self
            .bursts
            .drain()
            .filter(|&Reverse(b)| b.req != req)
            .collect();
        self.bursts = retained.into();
        self.refresh_speed();
        before != self.bursts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::law::reference;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn r(n: u64) -> RequestId {
        RequestId::new(n)
    }

    #[test]
    fn single_burst_completes_after_its_work() {
        let mut cpu = CpuScheduler::new(ServiceLaw::frictionless(1.0));
        cpu.set_contention(t(0.0), 1);
        cpu.add_burst(t(0.0), r(1), 0.5);
        let (at, req) = cpu.next_completion(t(0.0)).unwrap();
        assert_eq!(req, r(1));
        assert!((at.as_secs_f64() - 0.5).abs() < 1e-9);
        assert!(cpu.pop_completed(t(0.4)).is_none());
        assert_eq!(cpu.pop_completed(at), Some(r(1)));
        assert_eq!(cpu.active_bursts(), 0);
    }

    #[test]
    fn contention_inflates_wall_time_per_paper_law() {
        // Two saturated threads on the Tomcat law: each burst of S0 work
        // takes S*(2) wall seconds.
        let law = reference::tomcat();
        let s_star_2 = law.adjusted_service_time(2);
        let mut cpu = CpuScheduler::new(law);
        cpu.set_contention(t(0.0), 2);
        cpu.add_burst(t(0.0), r(1), law.s0());
        cpu.add_burst(t(0.0), r(2), law.s0());
        let (at, _) = cpu.next_completion(t(0.0)).unwrap();
        assert!(
            (at.as_secs_f64() - s_star_2).abs() < 1e-9,
            "expected {} got {}",
            s_star_2,
            at.as_secs_f64()
        );
    }

    #[test]
    fn saturated_throughput_matches_law() {
        // Keep N bursts active for a long stretch; completions per second
        // must approach N/S*(N).
        let law = reference::mysql();
        let n = 36u32;
        let mut cpu = CpuScheduler::new(law);
        cpu.set_contention(t(0.0), n);
        let mut next_id = 0u64;
        for _ in 0..n {
            cpu.add_burst(t(0.0), r(next_id), law.s0());
            next_id += 1;
        }
        let horizon = 10.0;
        let mut now = t(0.0);
        let mut completions = 0u64;
        while let Some((at, _)) = cpu.next_completion(now) {
            if at.as_secs_f64() > horizon {
                break;
            }
            now = at;
            let done = cpu.pop_completed(now).expect("due burst pops");
            let _ = done;
            completions += 1;
            cpu.add_burst(now, r(next_id), law.s0());
            next_id += 1;
        }
        let measured = completions as f64 / horizon;
        let expected = law.saturated_throughput(n);
        assert!(
            (measured - expected).abs() / expected < 0.02,
            "measured {measured} expected {expected}"
        );
    }

    #[test]
    fn speed_change_settles_progress_first() {
        let law = ServiceLaw::new(1.0, 0.5, 0.0); // f(1)=1, f(2)=1.5
        let mut cpu = CpuScheduler::new(law);
        cpu.set_contention(t(0.0), 1);
        cpu.add_burst(t(0.0), r(1), 1.0);
        // Run half the burst at speed 1 (0.5 work done by t=0.5).
        cpu.set_contention(t(0.5), 2);
        // Remaining 0.5 work at speed 1/1.5 → 0.75 s more.
        let (at, _) = cpu.next_completion(t(0.5)).unwrap();
        assert!(
            (at.as_secs_f64() - 1.25).abs() < 1e-9,
            "{}",
            at.as_secs_f64()
        );
    }

    #[test]
    fn fifo_among_equal_targets() {
        let mut cpu = CpuScheduler::new(ServiceLaw::frictionless(1.0));
        cpu.set_contention(t(0.0), 2);
        cpu.add_burst(t(0.0), r(1), 0.3);
        cpu.add_burst(t(0.0), r(2), 0.3);
        let done_at = cpu.next_completion(t(0.0)).unwrap().0;
        assert_eq!(cpu.pop_completed(done_at), Some(r(1)));
        assert_eq!(cpu.pop_completed(done_at), Some(r(2)));
    }

    #[test]
    fn busy_time_only_accumulates_under_load() {
        let mut cpu = CpuScheduler::new(ServiceLaw::frictionless(1.0));
        cpu.advance(t(1.0)); // idle
        assert_eq!(cpu.busy_seconds(), 0.0);
        cpu.set_contention(t(1.0), 1);
        cpu.add_burst(t(1.0), r(1), 0.5);
        cpu.advance(t(1.5));
        assert!((cpu.busy_seconds() - 0.5).abs() < 1e-9);
        cpu.pop_completed(t(1.5));
        cpu.advance(t(3.0)); // idle again
        assert!((cpu.busy_seconds() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cancel_burst_removes_request() {
        let mut cpu = CpuScheduler::new(ServiceLaw::frictionless(1.0));
        cpu.set_contention(t(0.0), 2);
        cpu.add_burst(t(0.0), r(1), 0.5);
        cpu.add_burst(t(0.0), r(2), 0.2);
        assert!(cpu.cancel_burst(t(0.1), r(2)));
        assert!(!cpu.cancel_burst(t(0.1), r(2)));
        let (_, req) = cpu.next_completion(t(0.1)).unwrap();
        assert_eq!(req, r(1));
    }

    #[test]
    fn zero_work_burst_completes_immediately() {
        let mut cpu = CpuScheduler::new(ServiceLaw::frictionless(1.0));
        cpu.set_contention(t(0.0), 1);
        cpu.add_burst(t(0.0), r(1), 0.0);
        assert_eq!(cpu.pop_completed(t(0.0)), Some(r(1)));
    }

    #[test]
    fn contention_floor_is_active_bursts() {
        // Even with contention set low, 10 active bursts imply N >= 10.
        let law = reference::tomcat();
        let mut cpu = CpuScheduler::new(law);
        cpu.set_contention(t(0.0), 1);
        for i in 0..10 {
            cpu.add_burst(t(0.0), r(i), law.s0());
        }
        let (at, _) = cpu.next_completion(t(0.0)).unwrap();
        assert!((at.as_secs_f64() - law.adjusted_service_time(10)).abs() < 1e-9);
    }
}

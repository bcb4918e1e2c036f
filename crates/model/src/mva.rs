//! Exact Mean Value Analysis for closed product-form networks.
//!
//! The oracle behind the DES conformance harness: a closed single-class
//! network of a think-time terminal (the machine-repairman client model)
//! plus an arbitrary mix of stations —
//!
//! * **delay** (infinite-server) stations: a frictionless simulated server
//!   whose thread pool never queues is exactly this (every burst progresses
//!   at full speed regardless of co-residents);
//! * **multi-server queueing** stations: a finite thread pool of `c`
//!   threads in front of a frictionless CPU serves like `M/M/c` (rate
//!   `min(n,c)/S`);
//! * **load-dependent** stations with an arbitrary completion-rate
//!   multiplier `r(n)` (rate `r(n)/S`), which is how the paper's
//!   concurrency law `S*(N)` enters: `n` busy threads on a lawful CPU
//!   complete at rate `min(n,c)·S⁰/S*(min(n,c))` per mean demand.
//!
//! The solver is the exact convolution algorithm (Buzen) with
//! load-dependent service factors: every quantity comes out of
//! normalization-constant ratios `G(N-1)/G(N)` and exact marginal
//! queue-length distributions `p_m(j | N) = f_m(j)·G^(m)(N-j)/G(N)` — no
//! Schweitzer/AMVA approximation anywhere. Convolution sums are
//! all-positive, so (unlike the Reiser–Lavenberg marginal-distribution
//! recursion, which loses mass to cancellation for wide multi-server
//! stations near saturation) the algorithm is numerically stable; each
//! working vector is max-normalized against overflow, and the scales
//! cancel in every reported ratio. For `k ≥ 2` bounded stations a solve
//! costs `3k − 4` full `O(N²)` convolutions (prefix, suffix and complement
//! products; none for `k ≤ 1`) plus two slots of the full-network
//! product, which is read only at `N−1` and `N`. Solves that share a
//! [`SolveCache`] also share factor vectors and partial products: the
//! MPC planner's candidates differ only in their last two stations and
//! pay two full convolutions each.
//!
//! [`asymptotic_bounds`] provides the classic operational bounds
//! `X(N) ≤ min(N/(Z+ΣD), min_m μ_m^max/V_m)` that any measurement must
//! respect regardless of distributional assumptions.

use std::collections::BTreeMap;

/// One service station of a closed network.
#[derive(Debug, Clone, PartialEq)]
pub enum Station {
    /// Infinite-server (pure delay) station: residence per visit is always
    /// `service_time`, no queueing ever.
    Delay {
        /// Visit ratio `V_m` per client request.
        visit_ratio: f64,
        /// Mean per-visit service time `S_m` (seconds).
        service_time: f64,
    },
    /// Multi-server FCFS/PS queueing station: completion rate `min(n,c)/S`
    /// with `n` jobs present.
    Queueing {
        /// Visit ratio `V_m` per client request.
        visit_ratio: f64,
        /// Mean per-visit service time `S_m` (seconds).
        service_time: f64,
        /// Parallel servers (threads) `c`.
        servers: u32,
    },
    /// General load-dependent station: completion rate `r(n)/S` with `n`
    /// jobs present, where `r(n) = rate[min(n, rate.len()) - 1]`.
    LoadDependent {
        /// Visit ratio `V_m` per client request.
        visit_ratio: f64,
        /// Mean per-visit service time `S_m` (seconds).
        service_time: f64,
        /// Rate multipliers `r(1), r(2), …`; the last entry extends to all
        /// larger populations.
        rate: Vec<f64>,
    },
}

impl Station {
    /// A multi-server queueing station for a server whose VM capacity
    /// multiplier rescales its CPU speed: a burst of `S` work-seconds on a
    /// capacity-`c` machine finishes in `S/c` wall seconds, so the station
    /// serves at effective time `service_time / capacity`. This is how
    /// heterogeneous VM types enter the oracle.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive and finite.
    pub fn queueing_with_capacity(
        visit_ratio: f64,
        service_time: f64,
        servers: u32,
        capacity: f64,
    ) -> Station {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive"
        );
        Station::Queueing {
            visit_ratio,
            service_time: service_time / capacity,
            servers,
        }
    }

    /// The station's visit ratio `V_m`.
    pub fn visit_ratio(&self) -> f64 {
        match self {
            Station::Delay { visit_ratio, .. }
            | Station::Queueing { visit_ratio, .. }
            | Station::LoadDependent { visit_ratio, .. } => *visit_ratio,
        }
    }

    /// The station's mean per-visit service time `S_m`.
    pub fn service_time(&self) -> f64 {
        match self {
            Station::Delay { service_time, .. }
            | Station::Queueing { service_time, .. }
            | Station::LoadDependent { service_time, .. } => *service_time,
        }
    }

    /// Service demand `D_m = V_m·S_m` per client request.
    pub fn demand(&self) -> f64 {
        self.visit_ratio() * self.service_time()
    }

    /// Completion rate (jobs/sec) with `n` jobs present; `None` for delay
    /// stations (whose "rate" is unbounded).
    fn rate_at(&self, n: u32) -> Option<f64> {
        if n == 0 {
            return Some(0.0);
        }
        match self {
            Station::Delay { .. } => None,
            Station::Queueing {
                service_time,
                servers,
                ..
            } => Some(f64::from(n.min((*servers).max(1))) / service_time),
            Station::LoadDependent {
                service_time, rate, ..
            } => {
                let idx = (n as usize).min(rate.len()) - 1;
                Some(rate[idx] / service_time)
            }
        }
    }

    /// The station's maximum sustainable completion rate, `sup_n μ(n)`;
    /// `None` (unbounded) for delay stations.
    pub fn max_rate(&self) -> Option<f64> {
        match self {
            Station::Delay { .. } => None,
            Station::Queueing {
                service_time,
                servers,
                ..
            } => Some(f64::from((*servers).max(1)) / service_time),
            Station::LoadDependent {
                service_time, rate, ..
            } => rate
                .iter()
                .copied()
                .fold(None, |acc: Option<f64>, r| {
                    Some(acc.map_or(r, |a| a.max(r)))
                })
                .map(|r| r / service_time),
        }
    }

    fn is_delay(&self) -> bool {
        matches!(self, Station::Delay { .. })
    }

    fn validate(&self) {
        let v = self.visit_ratio();
        let s = self.service_time();
        assert!(v.is_finite() && v >= 0.0, "visit ratio must be >= 0");
        assert!(s.is_finite() && s > 0.0, "service time must be positive");
        if let Station::LoadDependent { rate, .. } = self {
            assert!(!rate.is_empty(), "load-dependent rate table is empty");
            assert!(
                rate.iter().all(|r| r.is_finite() && *r > 0.0),
                "rate multipliers must be positive"
            );
        }
    }
}

/// A closed single-class network: a think-time terminal plus stations.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedNetwork {
    /// The service stations.
    pub stations: Vec<Station>,
    /// Mean think time `Z` at the terminal (seconds, `>= 0`).
    pub think_time: f64,
}

impl ClosedNetwork {
    /// Creates a network.
    ///
    /// # Panics
    ///
    /// Panics on an empty station list, a non-finite/negative think time,
    /// or any invalid station parameter.
    pub fn new(stations: Vec<Station>, think_time: f64) -> Self {
        assert!(!stations.is_empty(), "network needs at least one station");
        assert!(
            think_time.is_finite() && think_time >= 0.0,
            "think time must be >= 0"
        );
        for s in &stations {
            s.validate();
        }
        ClosedNetwork {
            stations,
            think_time,
        }
    }

    /// Total service demand `ΣD_m` per client request.
    pub fn total_demand(&self) -> f64 {
        self.stations.iter().map(Station::demand).sum()
    }

    /// Solves the network exactly for population `n` via the convolution
    /// algorithm. `n = 0` yields the degenerate all-zero solution.
    pub fn solve(&self, n: u32) -> MvaSolution {
        self.solve_with(n, &mut SolveCache::default())
    }

    /// [`solve`](Self::solve), sharing factor vectors and partial
    /// convolutions with every other solve through `cache`. The result is
    /// bit-identical to a solve with a fresh cache.
    pub fn solve_with(&self, n: u32, cache: &mut SolveCache) -> MvaSolution {
        let m = self.stations.len();
        if n == 0 {
            return MvaSolution {
                population: 0,
                throughput: 0.0,
                response_time: 0.0,
                station_residence: vec![0.0; m],
                station_queue: vec![0.0; m],
                station_utilization: vec![0.0; m],
            };
        }
        let cap = n as usize;

        // Everything runs in log space: within one factor or G vector the
        // dynamic range can span thousands of orders of magnitude, far
        // beyond f64. Sums stay all-positive (log-sum-exp), so there is no
        // cancellation anywhere.
        //
        // Service factors log f_m(j) = Σ_{i=1..j} ln(V_m/μ_m(i)) for every
        // bounded station; delay stations and the terminal fold into one
        // infinite-server factor log f_0(j) = j·ln(Z + Σ_delay D) − ln j!.
        let bounded: Vec<usize> = (0..m).filter(|&i| !self.stations[i].is_delay()).collect();
        let z_total: f64 = self.think_time
            + self
                .stations
                .iter()
                .filter(|s| s.is_delay())
                .map(|s| s.demand())
                .sum::<f64>();
        let is_factor = cache.think_factor(cap, z_total);
        let factors: Vec<usize> = bounded
            .iter()
            .map(|&i| cache.station_factor(cap, &self.stations[i]))
            .collect();

        // Prefix/suffix convolutions over [IS, bounded stations…] so each
        // station's complement network G^(m) is one extra convolution:
        // prefix[i] = IS ⊛ f_0 ⊛ … ⊛ f_(i-1) and suffix[i] = f_i ⊛ … ⊛
        // f_(k-1). The full network prefix[k] is read only at N-1 and N,
        // so only those two slots of it are computed; suffix[0] is never
        // read, and suffix[k-1] = f_(k-1) needs no convolution.
        let k = factors.len();
        let mut complements = Vec::with_capacity(k);
        let (g_prev, g_full) = match factors.split_last() {
            None => {
                let g = cache.vector(is_factor);
                (g[cap - 1], g[cap])
            }
            Some((&last, init)) => {
                let mut prefix = vec![is_factor];
                for &f in init {
                    let g = cache.convolve(*prefix.last().expect("non-empty"), f);
                    prefix.push(g);
                }
                let mut suffix = vec![last; k];
                for i in (1..k - 1).rev() {
                    suffix[i] = cache.convolve(factors[i], suffix[i + 1]);
                }
                // Complement of station i: IS ⊛ the other bounded stations
                // (for the last station that is prefix[k-1] itself).
                for i in 0..k - 1 {
                    complements.push(cache.convolve(prefix[i], suffix[i + 1]));
                }
                complements.push(prefix[k - 1]);
                let (a, b) = (cache.vector(prefix[k - 1]), cache.vector(last));
                (log_convolve_at(a, b, cap - 1), log_convolve_at(a, b, cap))
            }
        };

        // X(N) = G(N-1)/G(N).
        let throughput = (g_prev - g_full).exp();

        let mut station_queue = vec![0.0; m];
        for (bi, &i) in bounded.iter().enumerate() {
            let (factor, compl) = (cache.vector(factors[bi]), cache.vector(complements[bi]));
            // Exact marginal p(j|N) ∝ f_i(j)·G^(i)(N-j); normalizing over
            // j removes the shared scale at once.
            let lq: Vec<f64> = (0..=cap).map(|j| factor[j] + compl[cap - j]).collect();
            let mx = lq.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mut mass = 0.0;
            let mut weighted = 0.0;
            if mx > f64::NEG_INFINITY {
                for (j, &l) in lq.iter().enumerate() {
                    let q = (l - mx).exp();
                    mass += q;
                    weighted += j as f64 * q;
                }
            }
            station_queue[i] = if mass > 0.0 { weighted / mass } else { 0.0 };
        }
        let station_residence: Vec<f64> = self
            .stations
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if s.is_delay() {
                    s.demand()
                } else {
                    station_queue[i] / throughput
                }
            })
            .collect();
        for (i, s) in self.stations.iter().enumerate() {
            if s.is_delay() {
                station_queue[i] = throughput * s.demand();
            }
        }
        let station_utilization: Vec<f64> = self
            .stations
            .iter()
            .map(|s| match s.max_rate() {
                // Fraction of the station's peak completion rate in use.
                Some(peak) => throughput * s.visit_ratio() / peak,
                // Delay station: mean busy servers (unbounded capacity).
                None => throughput * s.demand(),
            })
            .collect();
        let response_time = station_residence.iter().sum();
        MvaSolution {
            population: n,
            throughput,
            response_time,
            station_residence,
            station_queue,
            station_utilization,
        }
    }

    /// Classic asymptotic operational bounds for population `n`.
    pub fn asymptotic_bounds(&self, n: u32) -> AsymptoticBounds {
        let d_total = self.total_demand();
        let light = f64::from(n) / (self.think_time + d_total);
        let cap = self
            .stations
            .iter()
            .filter_map(|s| {
                let peak = s.max_rate()?;
                let v = s.visit_ratio();
                (v > 0.0).then(|| peak / v)
            })
            .fold(f64::INFINITY, f64::min);
        let x_upper = light.min(cap);
        AsymptoticBounds {
            population: n,
            throughput_upper: x_upper,
            response_lower: d_total.max(f64::from(n) / cap - self.think_time),
        }
    }
}

/// Convolves two population-indexed log-space factor vectors (same
/// length) via log-sum-exp: `out[n] = ln Σ_j exp(a[j] + b[n-j])`. The
/// summands are all positive in linear space, so the operation is free of
/// cancellation; staying in logs makes it immune to overflow/underflow at
/// any population.
fn log_convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    (0..a.len()).map(|n| log_convolve_at(a, b, n)).collect()
}

/// Slot `n` of [`log_convolve`]`(a, b)`, computed on its own.
fn log_convolve_at(a: &[f64], b: &[f64], n: usize) -> f64 {
    let mx = (0..=n)
        .map(|j| a[j] + b[n - j])
        .fold(f64::NEG_INFINITY, f64::max);
    if mx > f64::NEG_INFINITY {
        let sum: f64 = (0..=n).map(|j| (a[j] + b[n - j] - mx).exp()).sum();
        mx + sum.ln()
    } else {
        f64::NEG_INFINITY
    }
}

/// Memo of the convolution tree shared by any number of
/// [`ClosedNetwork::solve_with`] calls.
///
/// Factor vectors are interned by the exact bits of what they are a
/// function of (the population, and the think time or the station's
/// parameters); a convolution is memoised by its two operand ids in
/// argument order. Every vector the cache hands out is therefore exactly
/// the one a fresh solve would compute, so sharing a cache never changes
/// a result. Solves of networks that share stations (the candidates of
/// one planning round) reuse each other's work. The cache only grows:
/// keep one per batch of related solves and drop it after.
#[derive(Debug, Default)]
pub struct SolveCache {
    /// Every interned or computed vector; an id indexes this list.
    vectors: Vec<Vec<f64>>,
    factors: BTreeMap<FactorKey, usize>,
    convolutions: BTreeMap<(usize, usize), usize>,
}

/// What a factor vector is a function of, by exact bits: the population
/// first, then the station parameters.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum FactorKey {
    /// Think time plus delay demand (the infinite-server factor).
    Think(usize, u64),
    /// Visit ratio, service time, servers.
    Queueing(usize, u64, u64, u32),
    /// Visit ratio, service time, rate multipliers.
    LoadDependent(usize, u64, u64, Vec<u64>),
}

impl SolveCache {
    fn vector(&self, id: usize) -> &[f64] {
        &self.vectors[id]
    }

    fn push(&mut self, v: Vec<f64>) -> usize {
        self.vectors.push(v);
        self.vectors.len() - 1
    }

    fn intern(&mut self, key: FactorKey, build: impl FnOnce() -> Vec<f64>) -> usize {
        if let Some(&id) = self.factors.get(&key) {
            return id;
        }
        let id = self.push(build());
        self.factors.insert(key, id);
        id
    }

    /// The infinite-server factor `log f_0(j) = j·ln z − ln j!`, `j ≤ cap`.
    fn think_factor(&mut self, cap: usize, z_total: f64) -> usize {
        self.intern(FactorKey::Think(cap, z_total.to_bits()), || {
            let mut lf = vec![0.0f64; cap + 1];
            for j in 1..=cap {
                lf[j] = if z_total > 0.0 {
                    lf[j - 1] + z_total.ln() - (j as f64).ln()
                } else {
                    f64::NEG_INFINITY
                };
            }
            lf
        })
    }

    /// A bounded station's factor `log f_m(j) = Σ_{i≤j} ln(V_m/μ_m(i))`.
    fn station_factor(&mut self, cap: usize, s: &Station) -> usize {
        let v = s.visit_ratio();
        let (v_bits, s_bits) = (v.to_bits(), s.service_time().to_bits());
        let key = match s {
            Station::Queueing { servers, .. } => FactorKey::Queueing(cap, v_bits, s_bits, *servers),
            Station::LoadDependent { rate, .. } => {
                let rate = rate.iter().map(|r| r.to_bits()).collect();
                FactorKey::LoadDependent(cap, v_bits, s_bits, rate)
            }
            Station::Delay { .. } => unreachable!("delay stations fold into the think factor"),
        };
        self.intern(key, || {
            let mut lf = vec![0.0f64; cap + 1];
            for j in 1..=cap {
                let mu = s.rate_at(j as u32).expect("non-delay station has a rate");
                lf[j] = if v > 0.0 {
                    lf[j - 1] + (v / mu).ln()
                } else {
                    f64::NEG_INFINITY
                };
            }
            lf
        })
    }

    /// The id of `log_convolve(a, b)`, computed once per operand pair.
    fn convolve(&mut self, a: usize, b: usize) -> usize {
        if let Some(&id) = self.convolutions.get(&(a, b)) {
            return id;
        }
        let id = self.push(log_convolve(&self.vectors[a], &self.vectors[b]));
        self.convolutions.insert((a, b), id);
        id
    }
}

/// The exact MVA solution at one population.
#[derive(Debug, Clone, PartialEq)]
pub struct MvaSolution {
    /// Client population `N`.
    pub population: u32,
    /// System throughput `X(N)` (requests/sec).
    pub throughput: f64,
    /// End-to-end response time `R(N) = Σ V_m·R_m` (seconds, excl. think).
    pub response_time: f64,
    /// Per-station residence per client request, `V_m·R_m` (seconds).
    pub station_residence: Vec<f64>,
    /// Per-station mean population `Q_m = X·V_m·R_m`.
    pub station_queue: Vec<f64>,
    /// Per-station utilization (fraction of peak rate; mean busy servers
    /// for delay stations).
    pub station_utilization: Vec<f64>,
}

/// Operational asymptotic bounds at one population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsymptoticBounds {
    /// Client population `N`.
    pub population: u32,
    /// `X(N) ≤ min(N/(Z+ΣD), min_m μ_m^max/V_m)`.
    pub throughput_upper: f64,
    /// `R(N) ≥ max(ΣD, N·V_b/μ_b^max − Z)`.
    pub response_lower: f64,
}

/// Builds the load-dependent rate table for a simulated server whose CPU
/// follows the paper's concurrency law: `n` jobs at the station occupy
/// `min(n, threads)` pool threads, each progressing at `S⁰/S*(min(n,threads))`
/// work-seconds per second, so the completion-rate multiplier is
/// `min(n,c) · S⁰ / S*(min(n,c))` (per mean demand `S⁰`-shaped work).
///
/// `s_star(m)` must return the adjusted service time `S*(m)` for `m ≥ 1`
/// concurrent threads (pass `ServiceLaw::adjusted_service_time`); `s0` is
/// the single-thread service time the per-visit demand is expressed in.
///
/// # Panics
///
/// Panics if `threads == 0`, `max_population == 0`, or the law returns a
/// non-positive adjusted time.
pub fn law_rate_table(
    s0: f64,
    threads: u32,
    max_population: u32,
    s_star: impl Fn(u32) -> f64,
) -> Vec<f64> {
    assert!(threads > 0, "threads must be positive");
    assert!(max_population > 0, "population must be positive");
    assert!(s0.is_finite() && s0 > 0.0, "s0 must be positive");
    (1..=max_population.max(threads))
        .map(|n| {
            let m = n.min(threads);
            let adj = s_star(m);
            assert!(adj.is_finite() && adj > 0.0, "S*({m}) must be positive");
            f64::from(m) * s0 / adj
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Direct birth–death steady state for a single station + terminal:
    /// states `j = 0..=n` jobs at the station, birth `λ(j) = (n-j)/Z`,
    /// death `μ(j)`. Returns (X, Q, R_station).
    fn birth_death(n: u32, z: f64, mu: impl Fn(u32) -> f64) -> (f64, f64, f64) {
        let n = n as usize;
        let mut pi = vec![1.0f64; n + 1];
        for j in 1..=n {
            let lam = (n - (j - 1)) as f64 / z;
            pi[j] = pi[j - 1] * lam / mu(j as u32);
        }
        let total: f64 = pi.iter().sum();
        for p in &mut pi {
            *p /= total;
        }
        let x: f64 = (1..=n).map(|j| pi[j] * mu(j as u32)).sum();
        let q: f64 = (1..=n).map(|j| pi[j] * j as f64).sum();
        (x, q, q / x)
    }

    #[test]
    fn population_one_sees_bare_demands() {
        let net = ClosedNetwork::new(
            vec![
                Station::Delay {
                    visit_ratio: 1.0,
                    service_time: 0.01,
                },
                Station::Queueing {
                    visit_ratio: 2.0,
                    service_time: 0.03,
                    servers: 4,
                },
            ],
            1.0,
        );
        let sol = net.solve(1);
        let d = 0.01 + 2.0 * 0.03;
        assert!((sol.response_time - d).abs() < 1e-12);
        assert!((sol.throughput - 1.0 / (1.0 + d)).abs() < 1e-12);
    }

    #[test]
    fn delay_only_network_is_linear_in_population() {
        let net = ClosedNetwork::new(
            vec![Station::Delay {
                visit_ratio: 3.0,
                service_time: 0.2,
            }],
            2.0,
        );
        for n in [1u32, 5, 40, 200] {
            let sol = net.solve(n);
            let expect = f64::from(n) / (2.0 + 0.6);
            assert!(
                (sol.throughput - expect).abs() / expect < 1e-12,
                "n={n}: {} vs {expect}",
                sol.throughput
            );
            assert!((sol.response_time - 0.6).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_birth_death_for_mm1_station() {
        let (s, z) = (0.05, 1.0);
        let net = ClosedNetwork::new(
            vec![Station::Queueing {
                visit_ratio: 1.0,
                service_time: s,
                servers: 1,
            }],
            z,
        );
        for n in [1u32, 4, 16, 50] {
            let sol = net.solve(n);
            let (x, q, r) = birth_death(n, z, |_| 1.0 / s);
            assert!(
                (sol.throughput - x).abs() / x < 1e-10,
                "n={n}: X {} vs {x}",
                sol.throughput
            );
            assert!((sol.station_queue[0] - q).abs() / q.max(1e-9) < 1e-9);
            assert!((sol.station_residence[0] - r).abs() / r < 1e-9);
        }
    }

    #[test]
    fn matches_birth_death_for_mmc_station() {
        let (s, z, c) = (0.08, 0.5, 4u32);
        let net = ClosedNetwork::new(
            vec![Station::Queueing {
                visit_ratio: 1.0,
                service_time: s,
                servers: c,
            }],
            z,
        );
        for n in [2u32, 8, 30] {
            let sol = net.solve(n);
            let (x, _, r) = birth_death(n, z, |j| f64::from(j.min(c)) / s);
            assert!(
                (sol.throughput - x).abs() / x < 1e-10,
                "n={n}: X {} vs {x}",
                sol.throughput
            );
            assert!((sol.station_residence[0] - r).abs() / r < 1e-9);
        }
    }

    #[test]
    fn matches_birth_death_for_law_rate_station() {
        // A concurrency-law station: S*(m) = s0 + α(m−1) + βm(m−1).
        let (s0, alpha, beta) = (0.03, 0.004, 2.0e-5);
        let s_star = |m: u32| {
            let m = f64::from(m.max(1));
            s0 + alpha * (m - 1.0) + beta * m * (m - 1.0)
        };
        let threads = 8;
        let n_max = 24u32;
        let rate = law_rate_table(s0, threads, n_max, s_star);
        let z = 0.4;
        let net = ClosedNetwork::new(
            vec![Station::LoadDependent {
                visit_ratio: 1.0,
                service_time: s0,
                rate: rate.clone(),
            }],
            z,
        );
        for n in [3u32, 10, 24] {
            let sol = net.solve(n);
            let (x, _, _) = birth_death(n, z, |j| {
                let m = j.min(threads);
                f64::from(m) / s_star(m)
            });
            assert!(
                (sol.throughput - x).abs() / x < 1e-10,
                "n={n}: X {} vs {x}",
                sol.throughput
            );
        }
    }

    #[test]
    fn multi_station_queues_sum_to_population_minus_terminal() {
        let net = ClosedNetwork::new(
            vec![
                Station::Delay {
                    visit_ratio: 1.0,
                    service_time: 0.02,
                },
                Station::Queueing {
                    visit_ratio: 1.0,
                    service_time: 0.05,
                    servers: 2,
                },
                Station::Queueing {
                    visit_ratio: 2.0,
                    service_time: 0.03,
                    servers: 1,
                },
            ],
            0.7,
        );
        for n in [1u32, 6, 20, 60] {
            let sol = net.solve(n);
            let at_stations: f64 = sol.station_queue.iter().sum();
            let thinking = sol.throughput * 0.7;
            assert!(
                (at_stations + thinking - f64::from(n)).abs() < 1e-6,
                "n={n}: {at_stations} + {thinking}"
            );
        }
    }

    #[test]
    fn throughput_monotone_and_bounded() {
        let net = ClosedNetwork::new(
            vec![
                Station::Delay {
                    visit_ratio: 1.0,
                    service_time: 0.01,
                },
                Station::Queueing {
                    visit_ratio: 1.0,
                    service_time: 0.04,
                    servers: 1,
                },
            ],
            1.0,
        );
        let mut last = 0.0;
        for n in 1..=120u32 {
            let sol = net.solve(n);
            let b = net.asymptotic_bounds(n);
            // Relative tolerance: log-space round trips leave ~1e-13
            // relative jitter on a saturated X (the price of being stable
            // at any station width — see tests/mva_stability.rs).
            assert!(
                sol.throughput >= last * (1.0 - 1e-10),
                "X must be monotone: {} after {last}",
                sol.throughput
            );
            assert!(
                sol.throughput <= b.throughput_upper + 1e-9,
                "n={n}: X {} exceeds bound {}",
                sol.throughput,
                b.throughput_upper
            );
            assert!(sol.response_time >= b.response_lower - 1e-9);
            last = sol.throughput;
        }
        // Saturated: the M/M/1 station caps X at 1/S = 25.
        assert!((net.solve(120).throughput - 25.0).abs() / 25.0 < 1e-3);
    }

    #[test]
    fn bounds_cap_is_min_over_stations() {
        let net = ClosedNetwork::new(
            vec![
                Station::Queueing {
                    visit_ratio: 1.0,
                    service_time: 0.02,
                    servers: 2, // cap 100/s
                },
                Station::Queueing {
                    visit_ratio: 2.0,
                    service_time: 0.03,
                    servers: 1, // cap 1/(2·0.03) ≈ 16.7/s
                },
            ],
            0.5,
        );
        let b = net.asymptotic_bounds(1000);
        assert!((b.throughput_upper - 1.0 / 0.06).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "service time must be positive")]
    fn rejects_zero_service_time() {
        let _ = ClosedNetwork::new(
            vec![Station::Delay {
                visit_ratio: 1.0,
                service_time: 0.0,
            }],
            1.0,
        );
    }

    #[test]
    fn capacity_rescaled_station_matches_faster_service() {
        // A capacity-2 M/M/1 is exactly an M/M/1 at half the service time.
        let fast = Station::queueing_with_capacity(1.0, 0.08, 1, 2.0);
        assert_eq!(
            fast,
            Station::Queueing {
                visit_ratio: 1.0,
                service_time: 0.04,
                servers: 1,
            }
        );
        let net = ClosedNetwork::new(vec![fast], 0.5);
        for n in [1u32, 6, 20] {
            let sol = net.solve(n);
            let (x, _, _) = birth_death(n, 0.5, |_| 1.0 / 0.04);
            assert!((sol.throughput - x).abs() / x < 1e-10, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Station::queueing_with_capacity(1.0, 0.08, 1, 0.0);
    }

    #[test]
    fn law_rate_table_frictionless_is_mmc() {
        let rate = law_rate_table(0.05, 3, 10, |_| 0.05);
        assert_eq!(rate.len(), 10);
        assert!((rate[0] - 1.0).abs() < 1e-12);
        assert!((rate[1] - 2.0).abs() < 1e-12);
        assert!((rate[2] - 3.0).abs() < 1e-12);
        assert!((rate[9] - 3.0).abs() < 1e-12, "caps at the pool size");
    }

    /// The solver as it stood before [`SolveCache`]: nine-convolution
    /// prefix/suffix/complement tree for three bounded stations, with
    /// identity convolutions and the unused `suffix[0]` included. Kept as
    /// the oracle the memoised tree must match bit for bit.
    fn reference_solve(net: &ClosedNetwork, n: u32) -> MvaSolution {
        fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
            let len = a.len();
            let mut out = vec![f64::NEG_INFINITY; len];
            for (n, slot) in out.iter_mut().enumerate() {
                let mx = (0..=n)
                    .map(|j| a[j] + b[n - j])
                    .fold(f64::NEG_INFINITY, f64::max);
                if mx > f64::NEG_INFINITY {
                    let sum: f64 = (0..=n).map(|j| (a[j] + b[n - j] - mx).exp()).sum();
                    *slot = mx + sum.ln();
                }
            }
            out
        }
        let m = net.stations.len();
        if n == 0 {
            return MvaSolution {
                population: 0,
                throughput: 0.0,
                response_time: 0.0,
                station_residence: vec![0.0; m],
                station_queue: vec![0.0; m],
                station_utilization: vec![0.0; m],
            };
        }
        let cap = n as usize;
        let bounded: Vec<usize> = (0..m).filter(|&i| !net.stations[i].is_delay()).collect();
        let z_total: f64 = net.think_time
            + net
                .stations
                .iter()
                .filter(|s| s.is_delay())
                .map(|s| s.demand())
                .sum::<f64>();
        let mut is_factor = vec![0.0f64; cap + 1];
        for j in 1..=cap {
            is_factor[j] = if z_total > 0.0 {
                is_factor[j - 1] + z_total.ln() - (j as f64).ln()
            } else {
                f64::NEG_INFINITY
            };
        }
        let factors: Vec<Vec<f64>> = bounded
            .iter()
            .map(|&i| {
                let s = &net.stations[i];
                let v = s.visit_ratio();
                let mut lf = vec![0.0f64; cap + 1];
                for j in 1..=cap {
                    let mu = s.rate_at(j as u32).expect("non-delay station has a rate");
                    lf[j] = if v > 0.0 {
                        lf[j - 1] + (v / mu).ln()
                    } else {
                        f64::NEG_INFINITY
                    };
                }
                lf
            })
            .collect();
        let k = bounded.len();
        let mut prefix: Vec<Vec<f64>> = vec![is_factor];
        for f in &factors {
            let g = convolve(prefix.last().expect("non-empty"), f);
            prefix.push(g);
        }
        let g_full = prefix.last().expect("non-empty").clone();
        let mut suffix: Vec<Vec<f64>> = vec![Vec::new(); k + 1];
        let mut acc = vec![f64::NEG_INFINITY; cap + 1];
        acc[0] = 0.0;
        suffix[k] = acc.clone();
        for i in (0..k).rev() {
            acc = convolve(&factors[i], &acc);
            suffix[i] = acc.clone();
        }
        let throughput = (g_full[cap - 1] - g_full[cap]).exp();
        let mut station_queue = vec![0.0; m];
        for (bi, &i) in bounded.iter().enumerate() {
            let compl = convolve(&prefix[bi], &suffix[bi + 1]);
            let lq: Vec<f64> = (0..=cap).map(|j| factors[bi][j] + compl[cap - j]).collect();
            let mx = lq.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mut mass = 0.0;
            let mut weighted = 0.0;
            if mx > f64::NEG_INFINITY {
                for (j, &l) in lq.iter().enumerate() {
                    let q = (l - mx).exp();
                    mass += q;
                    weighted += j as f64 * q;
                }
            }
            station_queue[i] = if mass > 0.0 { weighted / mass } else { 0.0 };
        }
        let station_residence: Vec<f64> = net
            .stations
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if s.is_delay() {
                    s.demand()
                } else {
                    station_queue[i] / throughput
                }
            })
            .collect();
        for (i, s) in net.stations.iter().enumerate() {
            if s.is_delay() {
                station_queue[i] = throughput * s.demand();
            }
        }
        let station_utilization: Vec<f64> = net
            .stations
            .iter()
            .map(|s| match s.max_rate() {
                Some(peak) => throughput * s.visit_ratio() / peak,
                None => throughput * s.demand(),
            })
            .collect();
        let response_time = station_residence.iter().sum();
        MvaSolution {
            population: n,
            throughput,
            response_time,
            station_residence,
            station_queue,
            station_utilization,
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn station() -> impl Strategy<Value = Station> {
        prop_oneof![
            (0.2f64..3.0, 0.001f64..0.5).prop_map(|(visit_ratio, service_time)| {
                Station::Delay {
                    visit_ratio,
                    service_time,
                }
            }),
            (prop_oneof![Just(0.0), 0.2f64..3.0], 0.001f64..0.5, 1u32..64).prop_map(
                |(visit_ratio, service_time, servers)| Station::Queueing {
                    visit_ratio,
                    service_time,
                    servers,
                }
            ),
            (
                0.2f64..3.0,
                0.001f64..0.5,
                prop::collection::vec(0.2f64..8.0, 1..12)
            )
                .prop_map(|(visit_ratio, service_time, rate)| Station::LoadDependent {
                    visit_ratio,
                    service_time,
                    rate,
                }),
        ]
    }

    /// `s` with one parameter changed: the case a cache key that missed
    /// that parameter would confuse with `s`.
    fn sibling(s: &Station) -> Station {
        let mut t = s.clone();
        match &mut t {
            Station::Delay { service_time, .. } => *service_time *= 2.0,
            Station::Queueing { servers, .. } => *servers += 1,
            Station::LoadDependent { rate, .. } => rate.push(rate[rate.len() - 1] * 1.5),
        }
        t
    }

    proptest! {
        /// Solves through one shared cache, in shuffled order, equal the
        /// reference solver bit for bit in every field. Networks draw their
        /// 1–4 stations from a small shared pool (each drawn station and a
        /// sibling) at two populations, so factors and partial products are
        /// reused across solves.
        #[test]
        fn shared_cache_solves_match_reference_bitwise(
            pool in prop::collection::vec(station(), 1..6),
            think in prop_oneof![Just(0.0), 0.1f64..3.0],
            picks in prop::collection::vec(
                (prop::collection::vec(0usize..10, 1..5), 0usize..2, any::<u64>()),
                1..6,
            ),
            populations in (1u32..401, 1u32..401),
        ) {
            let pool: Vec<Station> = pool.iter().flat_map(|s| [s.clone(), sibling(s)]).collect();
            let mut jobs: Vec<(u64, ClosedNetwork, u32)> = picks
                .iter()
                .map(|(stations, which, order)| {
                    let stations = stations.iter().map(|&i| pool[i % pool.len()].clone());
                    let n = if *which == 0 { populations.0 } else { populations.1 };
                    (*order, ClosedNetwork::new(stations.collect(), think), n)
                })
                .collect();
            // Every job twice, so some solves are whole-tree cache hits.
            jobs.extend(jobs.clone().into_iter().map(|(o, net, n)| (o.rotate_left(32), net, n)));
            jobs.sort_by_key(|job| job.0);
            let mut cache = SolveCache::default();
            for (_, net, n) in &jobs {
                let got = net.solve_with(*n, &mut cache);
                let want = reference_solve(net, *n);
                prop_assert_eq!(got.population, want.population);
                prop_assert_eq!(got.throughput.to_bits(), want.throughput.to_bits());
                prop_assert_eq!(got.response_time.to_bits(), want.response_time.to_bits());
                prop_assert_eq!(bits(&got.station_residence), bits(&want.station_residence));
                prop_assert_eq!(bits(&got.station_queue), bits(&want.station_queue));
                prop_assert_eq!(
                    bits(&got.station_utilization),
                    bits(&want.station_utilization)
                );
            }
        }
    }
}

//! Aggregating per-server monitor samples into per-tier control inputs.

use std::collections::BTreeMap;

use dcm_bus::Entry;
use dcm_ntier::metrics::ServerSample;

/// Per-tier summary of one control window.
#[derive(Debug, Clone, PartialEq)]
pub struct TierWindow {
    /// Tier index.
    pub tier: usize,
    /// Distinct servers that reported.
    pub servers: usize,
    /// Mean CPU utilization across servers (each server first averaged
    /// over its samples).
    pub mean_cpu_util: f64,
    /// Largest per-server mean CPU utilization (imbalance indicator).
    pub max_cpu_util: f64,
    /// Tier throughput: sum of per-server mean throughputs.
    pub total_throughput: f64,
    /// Mean per-server request-processing concurrency (active threads).
    pub mean_concurrency: f64,
    /// Mean thread-queue length at sample times (pressure indicator).
    pub mean_thread_queue: f64,
    /// Mean per-completion dwell time (seconds) across servers, when any
    /// server reported completions.
    pub mean_dwell: Option<f64>,
}

/// Groups a batch of bus entries by tier and summarizes each.
///
/// # Examples
///
/// ```
/// use dcm_core::aggregate::aggregate_by_tier;
///
/// let windows = aggregate_by_tier(&[]);
/// assert!(windows.is_empty());
/// ```
pub fn aggregate_by_tier(records: &[Entry<ServerSample>]) -> BTreeMap<usize, TierWindow> {
    // tier -> server -> accumulators
    #[derive(Default)]
    struct ServerAcc {
        n: usize,
        cpu: f64,
        throughput: f64,
        threads: f64,
        queue: f64,
        dwell_sum: f64,
        dwell_n: usize,
    }
    let mut tiers: BTreeMap<usize, BTreeMap<&str, ServerAcc>> = BTreeMap::new();
    for entry in records {
        let s = &entry.value;
        let acc = tiers
            .entry(s.tier)
            .or_default()
            .entry(s.server.as_str())
            .or_default();
        acc.n += 1;
        acc.cpu += s.cpu_util;
        acc.throughput += s.throughput;
        acc.threads += s.active_threads;
        acc.queue += s.thread_queue as f64;
        if let Some(dwell) = s.mean_dwell {
            acc.dwell_sum += dwell;
            acc.dwell_n += 1;
        }
    }
    tiers
        .into_iter()
        .map(|(tier, servers)| {
            let k = servers.len();
            let mut mean_cpu = 0.0;
            let mut max_cpu: f64 = 0.0;
            let mut throughput = 0.0;
            let mut threads = 0.0;
            let mut queue = 0.0;
            let mut dwell_sum = 0.0;
            let mut dwell_n = 0usize;
            for acc in servers.values() {
                let n = acc.n as f64;
                let server_cpu = acc.cpu / n;
                mean_cpu += server_cpu;
                max_cpu = max_cpu.max(server_cpu);
                throughput += acc.throughput / n;
                threads += acc.threads / n;
                queue += acc.queue / n;
                if acc.dwell_n > 0 {
                    dwell_sum += acc.dwell_sum / acc.dwell_n as f64;
                    dwell_n += 1;
                }
            }
            let kf = k as f64;
            (
                tier,
                TierWindow {
                    tier,
                    servers: k,
                    mean_cpu_util: mean_cpu / kf,
                    max_cpu_util: max_cpu,
                    total_throughput: throughput,
                    mean_concurrency: threads / kf,
                    mean_thread_queue: queue / kf,
                    mean_dwell: (dwell_n > 0).then(|| dwell_sum / dwell_n as f64),
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcm_sim::time::SimTime;

    fn sample(server: &str, tier: usize, cpu: f64, x: f64, threads: f64) -> ServerSample {
        ServerSample {
            server: server.into(),
            tier,
            window_start: SimTime::ZERO,
            window_end: SimTime::from_secs(1),
            cpu_util: cpu,
            busy_fraction: cpu,
            active_threads: threads,
            active_conns: None,
            completed: x as u64,
            throughput: x,
            mean_dwell: None,
            thread_pool_size: 100,
            conn_pool_size: None,
            thread_queue: 0,
            conn_queue: 0,
        }
    }

    fn entry(s: ServerSample) -> Entry<ServerSample> {
        Entry {
            offset: 0,
            timestamp_ms: 0,
            key: Some(s.server.clone()),
            value: s,
        }
    }

    #[test]
    fn aggregates_across_servers_and_windows() {
        let records = vec![
            entry(sample("app-1", 1, 0.6, 40.0, 10.0)),
            entry(sample("app-1", 1, 0.8, 60.0, 20.0)),
            entry(sample("app-2", 1, 0.2, 20.0, 4.0)),
            entry(sample("db-1", 2, 0.9, 100.0, 30.0)),
        ];
        let windows = aggregate_by_tier(&records);
        let app = &windows[&1];
        assert_eq!(app.servers, 2);
        // app-1 mean cpu 0.7, app-2 0.2 → tier mean 0.45, max 0.7.
        assert!((app.mean_cpu_util - 0.45).abs() < 1e-12);
        assert!((app.max_cpu_util - 0.7).abs() < 1e-12);
        // app-1 mean X 50 + app-2 20 → 70 total.
        assert!((app.total_throughput - 70.0).abs() < 1e-12);
        assert!((app.mean_concurrency - 9.5).abs() < 1e-12);

        let db = &windows[&2];
        assert_eq!(db.servers, 1);
        assert!((db.mean_cpu_util - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_input_yields_empty_map() {
        assert!(aggregate_by_tier(&[]).is_empty());
    }
}

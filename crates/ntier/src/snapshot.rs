//! Point-in-time system snapshots for debugging, logging, and result
//! archiving.

use std::fmt;

use dcm_sim::time::SimTime;

use crate::server::ServerState;
use crate::system::System;

/// One server's state at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSnapshot {
    /// Server name, e.g. `app-2`.
    pub name: String,
    /// Lifecycle state rendered as text (`starting`/`running`/...).
    pub state: String,
    /// Thread-pool occupancy `in_use/capacity`.
    pub threads: (u32, u32),
    /// Requests queued for a thread.
    pub thread_queue: usize,
    /// Connection-pool occupancy, if the server has one.
    pub conns: Option<(u32, u32)>,
    /// Requests queued for a connection.
    pub conn_queue: usize,
    /// Live CPU bursts.
    pub active_bursts: usize,
    /// Requests completed since launch.
    pub completed: u64,
}

/// One tier's state at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct TierSnapshot {
    /// Tier name from its spec.
    pub name: String,
    /// Member servers.
    pub servers: Vec<ServerSnapshot>,
}

/// A full system snapshot.
///
/// # Examples
///
/// ```
/// use dcm_ntier::snapshot::SystemSnapshot;
/// use dcm_ntier::topology::ThreeTierBuilder;
/// use dcm_sim::time::SimTime;
///
/// let (world, _engine) = ThreeTierBuilder::new().counts(1, 2, 1).build();
/// let snap = SystemSnapshot::capture(&world.system, SimTime::ZERO);
/// assert_eq!(snap.tiers.len(), 3);
/// assert_eq!(snap.tiers[1].servers.len(), 2);
/// println!("{snap}"); // human-readable topology dump
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSnapshot {
    /// Snapshot timestamp.
    pub at: SimTime,
    /// Tiers front to back.
    pub tiers: Vec<TierSnapshot>,
    /// Requests currently inside the system.
    pub in_flight: u64,
}

impl SystemSnapshot {
    /// Captures the current state (read-only; no measurement windows are
    /// disturbed).
    pub fn capture(system: &System, at: SimTime) -> Self {
        let tiers = (0..system.tier_count())
            .map(|m| {
                let tier = system.tier(m);
                let servers = tier
                    .members()
                    .iter()
                    .filter_map(|&sid| system.server(sid))
                    .map(|server| ServerSnapshot {
                        name: server.name().to_owned(),
                        state: match server.state() {
                            ServerState::Starting { .. } => "starting".into(),
                            ServerState::Running => "running".into(),
                            ServerState::Draining => "draining".into(),
                            ServerState::Stopped => "stopped".into(),
                        },
                        threads: (
                            server.thread_pool().in_use(),
                            server.thread_pool().capacity(),
                        ),
                        thread_queue: server.thread_pool().queued(),
                        conns: server
                            .conn_pool()
                            .map(|pool| (pool.in_use(), pool.capacity())),
                        conn_queue: server.conn_pool().map_or(0, |pool| pool.queued()),
                        active_bursts: server.cpu().active_bursts(),
                        completed: server.completed_total(),
                    })
                    .collect();
                TierSnapshot {
                    name: tier.spec().name.clone(),
                    servers,
                }
            })
            .collect();
        SystemSnapshot {
            at,
            tiers,
            in_flight: system.counters().in_flight(),
        }
    }

    /// Total servers across tiers.
    pub fn server_count(&self) -> usize {
        self.tiers.iter().map(|t| t.servers.len()).sum()
    }
}

impl fmt::Display for SystemSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "system @ {} — {} in flight", self.at, self.in_flight)?;
        for tier in &self.tiers {
            writeln!(f, "  [{}]", tier.name)?;
            for s in &tier.servers {
                write!(
                    f,
                    "    {:<10} {:<9} threads {}/{}",
                    s.name, s.state, s.threads.0, s.threads.1
                )?;
                if s.thread_queue > 0 {
                    write!(f, " (+{} queued)", s.thread_queue)?;
                }
                if let Some((in_use, cap)) = s.conns {
                    write!(f, "  conns {in_use}/{cap}")?;
                    if s.conn_queue > 0 {
                        write!(f, " (+{} queued)", s.conn_queue)?;
                    }
                }
                writeln!(f, "  bursts {}  done {}", s.active_bursts, s.completed)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow;
    use crate::request::{RequestProfile, StageDemand};
    use crate::topology::ThreeTierBuilder;

    #[test]
    fn snapshot_reflects_live_state() {
        let (mut world, mut engine) = ThreeTierBuilder::new().counts(1, 2, 1).build();
        for _ in 0..10 {
            flow::submit(
                &mut world,
                &mut engine,
                RequestProfile::new(
                    vec![
                        StageDemand::pre_only(0.001),
                        StageDemand::split(0.05),
                        StageDemand::pre_only(0.01),
                    ],
                    vec![1, 1, 2],
                    0,
                ),
                Box::new(|_, _, _| {}),
            );
        }
        // Mid-flight snapshot (well before the ~0.2 s request latency).
        engine.run_until(&mut world, dcm_sim::time::SimTime::from_secs_f64(0.05));
        let snap = SystemSnapshot::capture(&world.system, engine.now());
        assert_eq!(snap.tiers.len(), 3);
        assert_eq!(snap.server_count(), 4);
        assert!(snap.in_flight > 0);
        let text = snap.to_string();
        assert!(text.contains("[app]"));
        assert!(text.contains("running"));

        // Drained snapshot.
        engine.run(&mut world);
        let done = SystemSnapshot::capture(&world.system, engine.now());
        assert_eq!(done.in_flight, 0);
        assert!(done
            .tiers
            .iter()
            .flat_map(|t| &t.servers)
            .all(|s| s.threads.0 == 0 && s.active_bursts == 0));
    }

    #[test]
    fn snapshot_shows_lifecycle_states() {
        let (mut world, mut engine) = ThreeTierBuilder::new().counts(1, 2, 1).build();
        flow::provision_server(&mut world, &mut engine, 1).unwrap();
        flow::decommission_one(&mut world, &mut engine, 1).unwrap();
        let snap = SystemSnapshot::capture(&world.system, engine.now());
        let states: Vec<&str> = snap.tiers[1]
            .servers
            .iter()
            .map(|s| s.state.as_str())
            .collect();
        assert!(states.contains(&"starting"));
        assert!(states.contains(&"running"));
    }
}

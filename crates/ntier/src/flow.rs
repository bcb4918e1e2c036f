//! The event-driven request flow and the scaling/reconfiguration actions.
//!
//! Everything here is a free function over `(&mut World, &mut SimEngine)` —
//! the idiomatic shape for logic driven from engine event closures. The
//! request state machine follows the recursion described in
//! [`crate::request`]; scaling actions implement the raw operations the
//! DCM/EC2 controllers invoke (boot a VM, drain a VM, resize a pool at
//! runtime).

use std::fmt;

use dcm_sim::time::{SimDuration, SimTime};

use crate::balancer::BalancerPolicy;
use crate::ids::{FlightId, RequestId, ServerId, TierId};
use crate::request::{Completion, Frame, Outcome, Phase, RequestProfile};
use crate::server::ServerState;
use crate::system::{CompletionCallback, RequestInFlight};
use crate::world::{SimEngine, World};

/// Error from a scaling action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleError {
    /// The tier index does not exist.
    NoSuchTier {
        /// The offending index.
        tier: usize,
    },
    /// Refusing to remove the last routable server of a tier.
    LastServer {
        /// The tier that would be emptied.
        tier: usize,
    },
}

impl fmt::Display for ScaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScaleError::NoSuchTier { tier } => write!(f, "no such tier {tier}"),
            ScaleError::LastServer { tier } => {
                write!(f, "cannot remove the last routable server of tier {tier}")
            }
        }
    }
}

impl std::error::Error for ScaleError {}

// ---------------------------------------------------------------------------
// Request lifecycle
// ---------------------------------------------------------------------------

/// Submits a request with the given execution plan; `on_complete` fires when
/// it finishes or is rejected.
///
/// # Panics
///
/// Panics if the profile's tier count does not match the system's.
pub fn submit(
    world: &mut World,
    engine: &mut SimEngine,
    profile: RequestProfile,
    on_complete: CompletionCallback,
) -> RequestId {
    submit_inner(world, engine, profile, None, on_complete)
}

/// Like [`submit`], with a client deadline: if the request has not finished
/// within `deadline`, the client abandons it — every held thread,
/// connection, and CPU burst is released and the callback fires with
/// [`Outcome::TimedOut`].
///
/// # Panics
///
/// Panics if the profile's tier count does not match the system's.
pub fn submit_with_deadline(
    world: &mut World,
    engine: &mut SimEngine,
    profile: RequestProfile,
    deadline: SimDuration,
    on_complete: CompletionCallback,
) -> RequestId {
    submit_inner(world, engine, profile, Some(deadline), on_complete)
}

fn submit_inner(
    world: &mut World,
    engine: &mut SimEngine,
    profile: RequestProfile,
    deadline: Option<SimDuration>,
    on_complete: CompletionCallback,
) -> RequestId {
    assert_eq!(
        profile.tiers(),
        world.system.tier_count(),
        "profile must cover every tier"
    );
    let rid = world.system.next_request_id();
    world.system.counters.submitted += 1;
    let fid = world.system.requests.insert(RequestInFlight {
        id: rid,
        profile,
        frames: Vec::new(),
        submitted: engine.now(),
        on_complete: Some(on_complete),
        timeout_event: None,
        entry_attempts: 0,
        retry_event: None,
        visit_counts: Vec::new(),
    });
    if let Some(d) = deadline {
        let ev = engine.schedule_in(d, move |w: &mut World, e: &mut SimEngine| {
            abandon(w, e, fid);
        });
        world
            .system
            .requests
            .get_mut(fid)
            .expect("freshly inserted request")
            .timeout_event = Some(ev);
    }
    enter_tier(world, engine, fid, 0);
    rid
}

/// Client abandonment: unwind whatever the request holds and complete it
/// as timed out. A no-op if the request already finished (the slab handle's
/// generation check makes the stale timer closure inert).
fn abandon(world: &mut World, engine: &mut SimEngine, fid: FlightId) {
    if world.system.requests.get(fid).is_none() {
        return;
    }
    unwind(world, engine, fid, Outcome::TimedOut);
}

/// Routes the request behind `fid` into `tier`: picks a server, pushes a
/// frame, and contends
/// for a thread. When the tier momentarily has no routable server and the
/// system has an inter-tier retry policy, the request is parked and
/// re-attempted after an exponential backoff instead of being rejected —
/// this is what lets a crashed tier heal behind callers' backs while the
/// controller boots a replacement.
fn enter_tier(world: &mut World, engine: &mut SimEngine, fid: FlightId, tier: usize) {
    // Load-blind policies index the maintained routable cache directly; the
    // seed built a per-request `Vec<(ServerId, load)>` here, which at 1,000
    // servers/tier dominated the hot path. Both arms draw from the RNG (and
    // move the round-robin cursor) identically.
    let choice = match world.system.tier(tier).balancer().policy() {
        BalancerPolicy::LeastConnections => {
            let candidates = world.system.routable(tier);
            world
                .system
                .tier_mut(tier)
                .balancer_mut()
                .choose(&candidates, &mut world.rng)
        }
        _ => {
            let len = world.system.tier(tier).routable_members().len();
            world
                .system
                .tier_mut(tier)
                .balancer_mut()
                .choose_index(len, &mut world.rng)
                .map(|i| world.system.tier(tier).routable_members()[i])
        }
    };
    let Some(sid) = choice else {
        if let Some(policy) = world.system.inter_tier_retry {
            let attempts = world
                .system
                .requests
                .get(fid)
                .map_or(0, |r| r.entry_attempts);
            if attempts + 1 < policy.max_attempts {
                let backoff =
                    policy.base_backoff.as_secs_f64() * policy.multiplier.powi(attempts as i32);
                world.system.counters.retried += 1;
                let ev = engine.schedule_in(
                    SimDuration::from_secs_f64(backoff),
                    move |w: &mut World, e: &mut SimEngine| retry_entry(w, e, fid, tier),
                );
                let req = world
                    .system
                    .requests
                    .get_mut(fid)
                    .expect("parking a live request");
                req.entry_attempts = attempts + 1;
                req.retry_event = Some(ev);
                return;
            }
        }
        unwind_reject(world, engine, fid, tier);
        return;
    };
    let now = engine.now();
    let parent = {
        let req = world
            .system
            .requests
            .get_mut(fid)
            .expect("routing a live request");
        req.entry_attempts = 0;
        let parent = req.frames.last().map(|f| f.tier);
        // Stamp the frame with its global per-tier visit index (frames
        // pushed so far) — on a chain this equals the old parent
        // `calls_done` product fold (same-tier visits are sequential), and
        // it stays well defined on DAG topologies where the fold is not.
        let visit = u64::from(req.visit_counts[tier]);
        req.visit_counts[tier] += 1;
        req.frames.push(Frame::arriving(tier, sid, now, visit));
        parent
    };
    world.system.note_tier_entry(parent, tier);
    let granted = world
        .system
        .server_mut(sid)
        .expect("balancer returned live server")
        .acquire_thread(now, fid);
    resched_completion(world, engine, sid);
    if granted {
        thread_granted(world, engine, fid);
    }
}

/// A retry timer fired for a request parked on a capacity-less tier.
fn retry_entry(world: &mut World, engine: &mut SimEngine, fid: FlightId, tier: usize) {
    let Some(req) = world.system.requests.get_mut(fid) else {
        return; // Abandoned (e.g. client timeout) while parked.
    };
    req.retry_event = None;
    enter_tier(world, engine, fid, tier);
}

/// The top frame was granted its server thread: start the pre burst (or
/// fail immediately under an injected transient fault).
fn thread_granted(world: &mut World, engine: &mut SimEngine, fid: FlightId) {
    let now = engine.now();
    let (sid, tier, pre) = {
        let req = world
            .system
            .requests
            .get_mut(fid)
            .expect("granting thread to live request");
        let frame = req.frames.last_mut().expect("granted frame exists");
        let pre = req.profile.demand_for_visit(frame.tier, frame.visit).pre;
        frame.phase = Phase::PreBurst;
        frame.thread_since = now;
        (frame.server, frame.tier, pre)
    };
    // Transient per-request fault: drop the request at admission. The
    // frame is already in PreBurst with no burst started, so the normal
    // unwind releases the freshly granted thread (cancel_burst is a no-op).
    let p = world.system.transient_failure_prob;
    if p > 0.0 && world.rng.next_f64() < p {
        unwind(world, engine, fid, Outcome::Failed { at_tier: tier });
        return;
    }
    world
        .system
        .server_mut(sid)
        .expect("frame server exists")
        .start_burst(now, fid, pre);
    resched_completion(world, engine, sid);
}

/// Resumes a request that was parked in a pool queue and has now been handed
/// its permit.
fn resume_parked(world: &mut World, engine: &mut SimEngine, fid: FlightId) {
    let phase = world
        .system
        .requests
        .get(fid)
        .and_then(|r| r.frames.last())
        .map(|f| f.phase);
    match phase {
        Some(Phase::AwaitThread) => thread_granted(world, engine, fid),
        Some(Phase::AwaitConn) => conn_granted(world, engine, fid),
        other => panic!("resumed request {fid} in unexpected phase {other:?}"),
    }
}

/// Handles a server's CPU completion event: pops every due burst, advances
/// the owning requests, then re-arms the completion timer.
pub(crate) fn on_cpu_completion(world: &mut World, engine: &mut SimEngine, sid: ServerId) {
    loop {
        let now = engine.now();
        let Some(server) = world.system.server_mut(sid) else {
            return;
        };
        match server.cpu_mut().pop_completed(now) {
            Some(fid) => burst_finished(world, engine, fid),
            None => break,
        }
    }
    resched_completion(world, engine, sid);
}

/// A CPU burst belonging to `fid` finished.
fn burst_finished(world: &mut World, engine: &mut SimEngine, fid: FlightId) {
    let phase = world
        .system
        .requests
        .get(fid)
        .and_then(|r| r.frames.last())
        .map(|f| f.phase)
        .expect("burst owner is live with a frame");
    match phase {
        Phase::PreBurst => maybe_call(world, engine, fid),
        Phase::PostBurst => finish_frame(world, engine, fid),
        other => panic!("burst finished in non-burst phase {other:?}"),
    }
}

/// After the pre burst or a returned downstream call: issue the next
/// downstream call if any remain, otherwise run the post burst / finish.
fn maybe_call(world: &mut World, engine: &mut SimEngine, fid: FlightId) {
    let now = engine.now();
    enum Next {
        Call(ServerId),
        Post(ServerId, f64),
        Finish,
    }
    let next = {
        let req = world
            .system
            .requests
            .get_mut(fid)
            .expect("advancing live request");
        let frame = req.frames.last_mut().expect("frame exists");
        let total_calls = req.profile.total_calls_from(frame.tier);
        if frame.calls_done < total_calls {
            frame.phase = Phase::AwaitConn;
            Next::Call(frame.server)
        } else {
            let post = req.profile.demand_for_visit(frame.tier, frame.visit).post;
            if post > 0.0 {
                frame.phase = Phase::PostBurst;
                Next::Post(frame.server, post)
            } else {
                Next::Finish
            }
        }
    };
    match next {
        Next::Call(sid) => {
            let granted = world
                .system
                .server_mut(sid)
                .expect("frame server exists")
                .acquire_conn(now, fid);
            if granted {
                conn_granted(world, engine, fid);
            }
        }
        Next::Post(sid, post) => {
            world
                .system
                .server_mut(sid)
                .expect("frame server exists")
                .start_burst(now, fid, post);
            resched_completion(world, engine, sid);
        }
        Next::Finish => finish_frame(world, engine, fid),
    }
}

/// The top frame acquired its downstream connection: descend into the
/// child tier the profile's call graph routes this call to (always the
/// next tier on a chain; the edge target in call order on a DAG).
fn conn_granted(world: &mut World, engine: &mut SimEngine, fid: FlightId) {
    let (sid, child) = {
        let req = world
            .system
            .requests
            .get(fid)
            .expect("descending live request");
        let frame = req.frames.last().expect("frame exists");
        let child = req.profile.call_target(frame.tier, frame.calls_done);
        (frame.server, child)
    };
    // Only mark the permit when the server actually lends one (leaf servers
    // grant acquire_conn unconditionally without a pool).
    let has_pool = world
        .system
        .server(sid)
        .expect("frame server exists")
        .conn_pool()
        .is_some();
    let frame = world
        .system
        .requests
        .get_mut(fid)
        .expect("descending live request")
        .frames
        .last_mut()
        .expect("frame exists");
    frame.phase = Phase::InCall;
    frame.holds_conn = has_pool;
    enter_tier(world, engine, fid, child);
}

/// The top frame is done at its server: release the thread, reply upstream.
fn finish_frame(world: &mut World, engine: &mut SimEngine, fid: FlightId) {
    let now = engine.now();
    let (sid, dwell) = {
        let req = world
            .system
            .requests
            .get_mut(fid)
            .expect("finishing live request");
        let rid = req.id;
        let frame = req.frames.pop().expect("frame exists");
        world.system.record_span(crate::spans::Span {
            request: rid,
            tier: frame.tier,
            server: frame.server,
            arrived_at: frame.arrived_at,
            started_at: frame.thread_since,
            finished_at: now,
            status: crate::spans::SpanStatus::Completed,
        });
        (
            frame.server,
            now.saturating_since(frame.thread_since).as_secs_f64(),
        )
    };
    let waiter = world
        .system
        .server_mut(sid)
        .expect("frame server exists")
        .release_thread(now, dwell);
    resched_completion(world, engine, sid);
    if let Some(next) = waiter {
        resume_parked(world, engine, next);
    }
    maybe_finish_drain(world, engine, sid);

    let has_parent = world
        .system
        .requests
        .get(fid)
        .map(|r| !r.frames.is_empty())
        .expect("request still live");
    if !has_parent {
        complete(world, engine, fid, Outcome::Completed);
        return;
    }
    // Reply to the parent: return its connection, count the call.
    let (psid, held) = {
        let req = world
            .system
            .requests
            .get_mut(fid)
            .expect("request still live");
        let parent = req.frames.last_mut().expect("parent frame exists");
        parent.calls_done += 1;
        let held = parent.holds_conn;
        parent.holds_conn = false;
        (parent.server, held)
    };
    if held {
        let conn_waiter = world
            .system
            .server_mut(psid)
            .expect("parent server exists")
            .release_conn(now);
        if let Some(next) = conn_waiter {
            resume_parked(world, engine, next);
        }
    }
    maybe_call(world, engine, fid);
}

/// Finishes a request and fires its callback.
fn complete(world: &mut World, engine: &mut SimEngine, fid: FlightId, outcome: Outcome) {
    let now = engine.now();
    let mut req = world
        .system
        .requests
        .remove(fid)
        .expect("completing live request");
    match outcome {
        Outcome::Completed => world.system.counters.completed += 1,
        Outcome::Rejected { .. } => world.system.counters.rejected += 1,
        Outcome::TimedOut => world.system.counters.timed_out += 1,
        Outcome::Failed { .. } => world.system.counters.failed += 1,
    }
    if let Some(ev) = req.timeout_event.take() {
        engine.cancel(ev);
    }
    if let Some(ev) = req.retry_event.take() {
        engine.cancel(ev);
    }
    let completion = Completion {
        id: req.id,
        class: req.profile.class(),
        submitted: req.submitted,
        finished: now,
        outcome,
    };
    if let Some(cb) = req.on_complete.take() {
        cb(world, engine, completion);
    }
}

/// Rejection path: release every resource the request holds, bottom-up,
/// then complete with a rejected outcome.
fn unwind_reject(world: &mut World, engine: &mut SimEngine, fid: FlightId, at_tier: usize) {
    unwind(world, engine, fid, Outcome::Rejected { at_tier });
}

/// Releases every resource the request holds, innermost frame first, then
/// completes it with `outcome`.
///
/// Frames sitting on a *stopped* server (one that just crashed) release
/// nothing: its pools and CPU are being discarded wholesale, and handing a
/// permit to a waiter there would revive work on a dead machine. In normal
/// operation a server only stops once fully drained, so this branch is
/// reachable only through [`crash_server`].
fn unwind(world: &mut World, engine: &mut SimEngine, fid: FlightId, outcome: Outcome) {
    let now = engine.now();
    let status = crate::spans::SpanStatus::from_outcome(&outcome);
    let rid = world
        .system
        .requests
        .get(fid)
        .expect("unwinding live request")
        .id;
    while let Some(frame) = world
        .system
        .requests
        .get_mut(fid)
        .expect("unwinding live request")
        .frames
        .pop()
    {
        let sid = frame.server;
        let Some(server) = world.system.server_mut(sid) else {
            continue;
        };
        if server.is_stopped() {
            if frame.phase != Phase::AwaitThread {
                world.system.record_span(crate::spans::Span {
                    request: rid,
                    tier: frame.tier,
                    server: frame.server,
                    arrived_at: frame.arrived_at,
                    started_at: frame.thread_since,
                    finished_at: now,
                    status,
                });
            } else {
                world.system.note_abandoned_wait(frame.tier);
            }
            continue;
        }
        match frame.phase {
            Phase::AwaitThread => {
                server.cancel_thread_waiter(fid);
                world.system.note_abandoned_wait(frame.tier);
            }
            Phase::AwaitConn => {
                server.cancel_conn_waiter(fid);
                release_thread_during_unwind(world, engine, rid, sid, frame, now, status);
            }
            Phase::PreBurst | Phase::PostBurst => {
                server.cpu_mut().cancel_burst(now, fid);
                release_thread_during_unwind(world, engine, rid, sid, frame, now, status);
            }
            Phase::InCall => {
                if frame.holds_conn {
                    let conn_waiter = server.release_conn(now);
                    if let Some(next) = conn_waiter {
                        resume_parked(world, engine, next);
                    }
                }
                release_thread_during_unwind(world, engine, rid, sid, frame, now, status);
            }
        }
    }
    complete(world, engine, fid, outcome);
}

fn release_thread_during_unwind(
    world: &mut World,
    engine: &mut SimEngine,
    rid: RequestId,
    sid: ServerId,
    frame: Frame,
    now: SimTime,
    status: crate::spans::SpanStatus,
) {
    world.system.record_span(crate::spans::Span {
        request: rid,
        tier: frame.tier,
        server: frame.server,
        arrived_at: frame.arrived_at,
        started_at: frame.thread_since,
        finished_at: now,
        status,
    });
    let dwell = now.saturating_since(frame.thread_since).as_secs_f64();
    let waiter = world
        .system
        .server_mut(sid)
        .expect("unwind server exists")
        .release_thread(now, dwell);
    resched_completion(world, engine, sid);
    if let Some(next) = waiter {
        resume_parked(world, engine, next);
    }
    maybe_finish_drain(world, engine, sid);
}

/// Re-keys a server's CPU completion timer after any change to its CPU
/// state (new burst, contention change, pop): armed for the next
/// completion, disarmed when the CPU is idle. The timer is created on
/// first use and then moved in place, so a burst arrival or departure
/// costs one `arm` and no event allocation.
pub fn resched_completion(world: &mut World, engine: &mut SimEngine, sid: ServerId) {
    let now = engine.now();
    let Some(server) = world.system.server_mut(sid) else {
        return;
    };
    server.cpu_mut().advance(now);
    match server.cpu().next_completion(now) {
        Some((at, _)) => {
            let timer = *server
                .completion_timer
                .get_or_insert_with(|| engine.timer(move |w, e| on_cpu_completion(w, e, sid)));
            engine.arm(timer, at);
        }
        None => {
            if let Some(timer) = server.completion_timer {
                engine.disarm(timer);
            }
        }
    }
}

/// Stops and retires a draining server once idle.
fn maybe_finish_drain(world: &mut World, engine: &mut SimEngine, sid: ServerId) {
    let now = engine.now();
    let Some(server) = world.system.server_mut(sid) else {
        return;
    };
    if server.drained() {
        if let Some(timer) = server.completion_timer {
            engine.disarm(timer);
        }
        world.system.mark_server_stopped(sid, now);
        world.system.retire_server(sid, now);
    }
}

// ---------------------------------------------------------------------------
// Scaling actions (what the VM-agent executes)
// ---------------------------------------------------------------------------

/// Boots a new VM+server in `tier` with the tier's default soft resources;
/// it becomes routable after the tier's boot delay (the paper's 15-second
/// preparation period). Returns the new server's id.
///
/// # Errors
///
/// [`ScaleError::NoSuchTier`] for a bad index.
pub fn provision_server(
    world: &mut World,
    engine: &mut SimEngine,
    tier: usize,
) -> Result<ServerId, ScaleError> {
    if tier >= world.system.tier_count() {
        return Err(ScaleError::NoSuchTier { tier });
    }
    let now = engine.now();
    let ready_at = now + world.system.tier(tier).spec().boot_delay;
    let sid = world
        .system
        .add_server(TierId(tier), now, ServerState::Starting { ready_at });
    world.system.record_server_event(crate::spans::ServerEvent {
        at: now,
        server: sid,
        tier,
        kind: crate::spans::ServerEventKind::BootRequested { ready_at },
    });
    engine.schedule_at(ready_at, move |w, e| boot_complete(w, e, sid));
    Ok(sid)
}

fn boot_complete(world: &mut World, engine: &mut SimEngine, sid: ServerId) {
    let now = engine.now();
    let p = world.system.boot_failure_prob;
    let failed = p > 0.0 && world.rng.next_f64() < p;
    let Some(server) = world.system.server_mut(sid) else {
        return;
    };
    if !matches!(server.state(), ServerState::Starting { .. }) {
        return;
    }
    let tier = server.tier();
    if failed {
        world.system.mark_server_stopped(sid, now);
        world.system.retire_server(sid, now);
    } else {
        world.system.mark_server_running(sid);
    }
    world.system.record_server_event(crate::spans::ServerEvent {
        at: now,
        server: sid,
        tier,
        kind: if failed {
            crate::spans::ServerEventKind::BootFailed
        } else {
            crate::spans::ServerEventKind::BootCompleted
        },
    });
    let _ = engine;
}

/// Drains and removes one server from `tier` (most recently launched
/// routable first, matching cloud scale-in of the newest instance). The
/// server stops accepting requests immediately and shuts down once idle.
///
/// # Errors
///
/// [`ScaleError::NoSuchTier`] or [`ScaleError::LastServer`].
pub fn decommission_one(
    world: &mut World,
    engine: &mut SimEngine,
    tier: usize,
) -> Result<ServerId, ScaleError> {
    if tier >= world.system.tier_count() {
        return Err(ScaleError::NoSuchTier { tier });
    }
    let routable = world.system.tier(tier).routable_members();
    if routable.len() <= 1 {
        return Err(ScaleError::LastServer { tier });
    }
    let victim = *routable.last().expect("checked non-empty");
    world.system.mark_server_draining(victim);
    world.system.record_server_event(crate::spans::ServerEvent {
        at: engine.now(),
        server: victim,
        tier,
        kind: crate::spans::ServerEventKind::DrainStarted,
    });
    maybe_finish_drain(world, engine, victim);
    Ok(victim)
}

// ---------------------------------------------------------------------------
// Fault injection (what the chaos scheduler executes)
// ---------------------------------------------------------------------------

/// Kills a server instantly: every in-flight request with a frame on it
/// fails with [`Outcome::Failed`], its pools and pending CPU work are
/// discarded, and the balancer stops routing to it (health ejection falls
/// out of [`System::routable`](crate::system::System) filtering on
/// `Running`). A no-op on an already-stopped server.
///
/// Unlike [`decommission_one`] this does not drain: it models a VM dying
/// mid-flight. The tier's monitor stops sampling the server immediately,
/// so a tier losing its last member goes *silent* — exactly the controller
/// blind spot the silent-tier rule in `dcm-core` exists to cover.
pub fn crash_server(world: &mut World, engine: &mut SimEngine, sid: ServerId) {
    let now = engine.now();
    let Some(server) = world.system.server_mut(sid) else {
        return;
    };
    if server.is_stopped() {
        return;
    }
    let tier = server.tier();
    // Dead first: disarm the CPU timer and leave Running before anything
    // else observes the server, so no unwound waiter can restart work here.
    if let Some(timer) = server.completion_timer {
        engine.disarm(timer);
    }
    world.system.mark_server_stopped(sid, now);
    world.system.record_server_event(crate::spans::ServerEvent {
        at: now,
        server: sid,
        tier,
        kind: crate::spans::ServerEventKind::Crashed,
    });
    // Sort by the public monotonic id so unwind order matches submission
    // order (the iteration order of the pre-slab id-keyed map).
    let mut victims: Vec<(RequestId, FlightId)> = world
        .system
        .requests
        .iter()
        .filter(|(_, req)| req.frames.iter().any(|f| f.server == sid))
        .map(|(fid, req)| (req.id, fid))
        .collect();
    victims.sort_by_key(|&(rid, _)| rid);
    for (_, fid) in victims {
        // A victim may already have been completed reentrantly (e.g. a
        // resumed waiter failing transiently) by an earlier unwind; its
        // slot generation no longer matches then.
        if world.system.requests.get(fid).is_some() {
            unwind(world, engine, fid, Outcome::Failed { at_tier: tier });
        }
    }
    world.system.retire_server(sid, now);
}

/// Sets a server's straggler multiplier: future CPU bursts cost
/// `factor ×` their nominal work (1.0 restores full speed). Bursts already
/// on the CPU keep their original cost. A no-op on a stopped server.
pub fn set_server_slowdown(world: &mut World, engine: &mut SimEngine, sid: ServerId, factor: f64) {
    let tier = match world.system.server_mut(sid) {
        Some(server) if !server.is_stopped() => {
            server.set_slowdown(factor);
            server.tier()
        }
        _ => return,
    };
    world.system.record_server_event(crate::spans::ServerEvent {
        at: engine.now(),
        server: sid,
        tier,
        kind: crate::spans::ServerEventKind::SlowdownSet { factor },
    });
}

// ---------------------------------------------------------------------------
// Soft-resource actions (what the APP-agent executes)
// ---------------------------------------------------------------------------

/// Sets the thread-pool size of every non-stopped server in `tier`,
/// resuming any requests the resize admits.
///
/// # Errors
///
/// [`ScaleError::NoSuchTier`] for a bad index.
pub fn set_tier_thread_pools(
    world: &mut World,
    engine: &mut SimEngine,
    tier: usize,
    size: u32,
) -> Result<(), ScaleError> {
    if tier >= world.system.tier_count() {
        return Err(ScaleError::NoSuchTier { tier });
    }
    // Index loop: membership cannot change inside the resize calls, and an
    // index walk avoids cloning the member list per scaling action.
    let n = world.system.tier(tier).members().len();
    for i in 0..n {
        let sid = world.system.tier(tier).members()[i];
        set_server_thread_pool(world, engine, sid, size);
    }
    Ok(())
}

/// Sets the downstream connection-pool size of every non-stopped server in
/// `tier`, resuming any requests the resize admits.
///
/// # Errors
///
/// [`ScaleError::NoSuchTier`] for a bad index.
pub fn set_tier_conn_pools(
    world: &mut World,
    engine: &mut SimEngine,
    tier: usize,
    size: u32,
) -> Result<(), ScaleError> {
    if tier >= world.system.tier_count() {
        return Err(ScaleError::NoSuchTier { tier });
    }
    // Index loop for the same reason as `set_tier_thread_pools`.
    let n = world.system.tier(tier).members().len();
    for i in 0..n {
        let sid = world.system.tier(tier).members()[i];
        set_server_conn_pool(world, engine, sid, size);
    }
    Ok(())
}

/// Resizes one server's thread pool at runtime.
pub fn set_server_thread_pool(world: &mut World, engine: &mut SimEngine, sid: ServerId, size: u32) {
    let now = engine.now();
    let admitted = match world.system.server_mut(sid) {
        Some(server) if !server.is_stopped() => server.resize_thread_pool(now, size),
        _ => return,
    };
    resched_completion(world, engine, sid);
    for fid in admitted {
        resume_parked(world, engine, fid);
    }
}

/// Resizes one server's downstream connection pool at runtime.
pub fn set_server_conn_pool(world: &mut World, engine: &mut SimEngine, sid: ServerId, size: u32) {
    let now = engine.now();
    let admitted = match world.system.server_mut(sid) {
        Some(server) if !server.is_stopped() => server.resize_conn_pool(now, size),
        _ => return,
    };
    for fid in admitted {
        resume_parked(world, engine, fid);
    }
}

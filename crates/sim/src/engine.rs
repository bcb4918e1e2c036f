//! The discrete-event simulation engine.
//!
//! [`Engine`] owns the virtual clock and a priority queue of scheduled
//! actions. Actions are closures over a user-supplied *world* type `W` (the
//! mutable simulation state), which keeps this crate independent of what is
//! being simulated. Ties in time are broken by schedule order, so a run is a
//! pure function of (initial world, seed, schedule), which the reproduction
//! experiments rely on.
//!
//! # Events, slots and the action table
//!
//! Every event owns a *slot*. The queue itself holds only 24-byte `Copy`
//! keys `(time, seq, slot, generation)`; the boxed closure lives in a
//! per-slot action table, so queue operations move plain keys and never
//! touch an allocation.
//!
//! Cancellation uses generation-stamped slots rather than a hash set: each
//! [`EventId`] packs a slot index and the generation the slot had when the
//! event was scheduled. Cancelling (or executing) an event bumps the slot's
//! generation and drops its closure at once, so the queue entry left behind
//! is a bare key — a *tombstone* recognised by a single array compare when
//! it surfaces, pinning no allocation in the meantime.
//!
//! # Timers
//!
//! Some events move constantly: a server's next CPU completion shifts on
//! every burst arrival or departure, and a cohort's wake-up on every new
//! think time. For those, [`Engine::timer`] registers a closure once and
//! returns a [`TimerId`] that is re-keyed in place by [`Engine::arm`] and
//! [`Engine::disarm`] instead of being cancelled and rescheduled.
//!
//! A timer has at most one live queue entry. Re-keying is lazy:
//!
//! * arming at or after the queued entry's time leaves the entry where it
//!   is — it will surface no later than the timer is due;
//! * arming earlier bumps the timer slot's generation (tombstoning the old
//!   entry) and queues a fresh one;
//! * disarming only forgets the key; the entry is discarded when it
//!   surfaces.
//!
//! When a timer's entry surfaces with a key other than the timer's current
//! one, it runs nothing: the timer is re-queued under its current key, or,
//! if that key is already below every other queued key, it runs at once
//! (inside [`Engine::run_until`] only if the key is within the deadline).
//!
//! # Calendar queue
//!
//! The pending-event set is a calendar (bucketed) queue rather than a single
//! heap, so that `schedule`/`pop` stay O(1) amortized at fleet scale
//! (millions of pending timers) instead of O(log n):
//!
//! * **Ring**: a power-of-two array of buckets, each covering `2^shift`
//!   nanoseconds of virtual time. An event lands in bucket
//!   `(at >> shift) mod ring_len`; the ring covers the window of bucket
//!   indices `(active_idx, active_idx + ring_len)`.
//! * **Active set**: all events whose bucket index is `<= active_idx` sit in
//!   one small 4-ary min-heap ([`QuadHeap`]), ordered by exact
//!   `(time, seq)`. Pops come only from this heap. When it drains, the
//!   cursor advances bucket by bucket, spilling each ring bucket it passes
//!   into the heap.
//! * **Far list**: events beyond the ring window wait in an unsorted overflow
//!   list and are redistributed when the window slides into their range (or
//!   wholesale when the ring drains).
//!
//! The structure periodically rebuilds — growing/shrinking the ring with the
//! live count and re-deriving `shift` from the observed event-time span — so
//! bucket occupancy stays O(1) as densities change.
//!
//! **Determinism argument.** Pop order is *exactly* global `(time, seq)`
//! order, bit-identical to a single binary heap: every event in the active
//! set has bucket index `<= active_idx`, hence timestamp
//! `< (active_idx + 1) << shift`; every event in the ring or far list has
//! bucket index `> active_idx`, hence a timestamp at or past that boundary.
//! The minimum of the active set is therefore the global minimum, and keys
//! are unique because `seq` rises monotonically, so any exact priority queue
//! pops them in the same order. Bucket width, ring size, rebuild timing, and
//! spill order affect only *where* an event waits, never *when* it pops, so
//! committed artifacts are invariant under all calendar tuning.
//!
//! Timers keep that order. [`Engine::arm`] takes the next sequence number
//! exactly as [`Engine::schedule_at`] does and [`Engine::disarm`] takes
//! none, so a timer fires under the very `(time, seq)` key that
//! cancel-and-reschedule would have given its event, and every other event
//! keeps its key too. A lazily kept entry is never later than the timer's
//! current key (it was queued earlier with a smaller `seq`, at the same or
//! an earlier time), so it surfaces before the key is due and is re-keyed
//! in time. Stale and disarmed entries run no world code, never move the
//! clock, and never count in [`Engine::executed`] or [`Engine::pending`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use crate::heap::QuadHeap;
use crate::time::{SimDuration, SimTime};

/// Events executed across all engines in this process, accumulated when each
/// engine drops. Powers the events/second figures reported by `repro`.
static TOTAL_EXECUTED: AtomicU64 = AtomicU64::new(0);

/// Total events executed by all dropped engines since process start (or the
/// last [`reset_total_executed`]). Monotonic and thread-safe; an engine's
/// count is added when it is dropped, so long-lived engines are not included
/// until they finish.
pub fn total_executed() -> u64 {
    TOTAL_EXECUTED.load(AtomicOrdering::Relaxed)
}

/// Resets the process-wide executed-event counter and returns the value it
/// held, so callers can bracket a measurement window.
pub fn reset_total_executed() -> u64 {
    TOTAL_EXECUTED.swap(0, AtomicOrdering::Relaxed)
}

/// Opaque handle to a scheduled event, usable for cancellation (timeouts,
/// superseded retries). Packs `(generation << 32) | slot`; a handle is only
/// valid while its slot still carries the same generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    #[inline]
    fn new(slot: u32, gen: u32) -> Self {
        EventId(u64::from(gen) << 32 | u64::from(slot))
    }

    #[inline]
    fn slot(self) -> u32 {
        self.0 as u32
    }

    #[inline]
    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Handle to a re-armable timer created by [`Engine::timer`]. A timer lives
/// as long as its engine; it is armed and disarmed any number of times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u32);

/// A one-shot action scheduled to run against the world.
type Action<W> = Box<dyn FnOnce(&mut W, &mut Engine<W>)>;
/// A timer's action, run each time the timer fires.
type TimerAction<W> = Box<dyn FnMut(&mut W, &mut Engine<W>)>;

/// A queue entry. Field order makes the derived order `(at, seq)` first;
/// `seq` is unique per entry, so `slot` and `gen` never decide it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    /// Monotonic schedule order; FIFO tie-break among same-time events.
    seq: u64,
    slot: u32,
    gen: u32,
}

/// What a slot holds in the action table.
enum Slot<W> {
    /// Free for reuse, or a one-shot that has run or been cancelled.
    Vacant,
    /// A pending one-shot event.
    Once(Action<W>),
    /// A timer; timer slots are never freed.
    Timer(Timer<W>),
}

struct Timer<W> {
    /// `None` only while the action runs.
    action: Option<TimerAction<W>>,
    /// The `(time, seq)` the timer fires at; `None` while disarmed.
    armed: Option<(SimTime, u64)>,
    /// Time of the timer's live queue entry (the one stamped with the
    /// slot's current generation), if one is queued.
    queued: Option<SimTime>,
}

/// Smallest ring size; also the initial size.
const MIN_BUCKETS: usize = 64;
/// Largest ring size (2^20 buckets ≈ 24 MB of `Vec` headers).
const MAX_BUCKETS: usize = 1 << 20;
/// Largest bucket width exponent: 2^40 ns ≈ 18 minutes per bucket.
const MAX_SHIFT: u32 = 40;
/// Initial bucket width exponent: 2^20 ns ≈ 1 ms per bucket.
const INITIAL_SHIFT: u32 = 20;

/// The calendar queue described in the module docs. Stores [`Key`]s
/// (including tombstones for cancelled events and superseded timer
/// entries — the [`Engine`] filters those by generation on pop).
struct Calendar {
    /// Events with bucket index `<= active_idx`; the only pop source.
    active: QuadHeap<Key>,
    /// Buckets for the window `(active_idx, active_idx + ring.len())`.
    ring: Vec<Vec<Key>>,
    /// Entries currently stored across all ring buckets.
    ring_count: usize,
    /// Global bucket index (`at >> shift`) of the active window's edge.
    active_idx: u64,
    /// Bucket width is `1 << shift` nanoseconds.
    shift: u32,
    /// Events beyond the ring window, unsorted.
    far: Vec<Key>,
    /// Minimum timestamp (nanos) in `far`; `u64::MAX` when `far` is empty.
    far_min: u64,
    /// Total stored entries (including tombstones).
    entries: usize,
    /// Push/pop operations since the last rebuild; amortizes rebuild cost.
    ops_since_rebuild: usize,
}

impl Calendar {
    fn new() -> Self {
        Calendar {
            active: QuadHeap::new(),
            ring: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            ring_count: 0,
            active_idx: 0,
            shift: INITIAL_SHIFT,
            far: Vec::new(),
            far_min: u64::MAX,
            entries: 0,
            ops_since_rebuild: 0,
        }
    }

    /// True when `ev` was cancelled, executed, or superseded: its slot's
    /// current generation no longer matches. Dead entries are dropped
    /// whenever a structural operation touches them, so cancel-heavy
    /// workloads (timeout churn) cannot accumulate tombstones.
    #[inline]
    fn dead(ev: &Key, gens: &[u32]) -> bool {
        gens[ev.slot as usize] != ev.gen
    }

    /// Files an entry into active set, ring, or far list by bucket index.
    /// Placement never affects pop order (see module docs), only cost.
    fn place(&mut self, ev: Key) {
        let b = ev.at.as_nanos() >> self.shift;
        if b <= self.active_idx {
            self.active.push(ev);
        } else if b < self.active_idx.saturating_add(self.ring.len() as u64) {
            let idx = (b & (self.ring.len() as u64 - 1)) as usize;
            self.ring[idx].push(ev);
            self.ring_count += 1;
        } else {
            self.far_min = self.far_min.min(ev.at.as_nanos());
            self.far.push(ev);
        }
    }

    fn push(&mut self, ev: Key, gens: &[u32]) {
        self.entries += 1;
        self.ops_since_rebuild += 1;
        self.place(ev);
        let grow = self.entries > self.ring.len() * 4 && self.ring.len() < MAX_BUCKETS;
        let far_heavy = self.far.len() > 64 && self.far.len() * 2 > self.entries;
        if (grow || far_heavy) && self.ops_since_rebuild * 2 >= self.entries {
            self.rebuild(gens);
        }
    }

    /// The smallest stored key (live or not), or `None` when empty.
    fn peek(&mut self, gens: &[u32]) -> Option<Key> {
        self.ensure_active(gens);
        self.active.peek().copied()
    }

    /// Removes the smallest stored key; callers peek it first.
    fn pop(&mut self, gens: &[u32]) {
        self.ensure_active(gens);
        if self.active.pop().is_none() {
            return;
        }
        self.entries -= 1;
        self.ops_since_rebuild += 1;
        if self.entries * 8 < self.ring.len()
            && self.ring.len() > MIN_BUCKETS
            && self.ops_since_rebuild * 2 >= self.entries
        {
            self.rebuild(gens);
        }
    }

    /// Refills the active set from the ring/far list until it holds the
    /// global minimum (or the queue is confirmed empty).
    fn ensure_active(&mut self, gens: &[u32]) {
        while self.active.is_empty() {
            if self.ring_count == 0 {
                if self.far.is_empty() {
                    return;
                }
                self.retarget_far(gens);
                continue;
            }
            // Far events the sliding window is about to pass must re-enter
            // the ring before the cursor crosses their bucket.
            if self.far_due() {
                self.redistribute_far(gens);
                continue;
            }
            let mask = self.ring.len() as u64 - 1;
            loop {
                self.active_idx += 1;
                let idx = (self.active_idx & mask) as usize;
                if !self.ring[idx].is_empty() {
                    self.ring_count -= self.ring[idx].len();
                    while let Some(ev) = self.ring[idx].pop() {
                        if Self::dead(&ev, gens) {
                            self.entries -= 1;
                            continue;
                        }
                        self.active.push(ev);
                    }
                    if !self.active.is_empty() {
                        break;
                    }
                    // The bucket held only tombstones. Re-run the outer
                    // checks if the ring drained or far events became due
                    // (the cursor must never advance past the far
                    // minimum's bucket); otherwise keep advancing.
                    if self.ring_count == 0 || self.far_due() {
                        break;
                    }
                    continue;
                }
                if self.far_due() {
                    break; // handled at the top of the outer loop
                }
            }
        }
    }

    /// True when the far list's earliest event falls inside (or at the edge
    /// of) the bucket the cursor would advance to next.
    #[inline]
    fn far_due(&self) -> bool {
        !self.far.is_empty() && (self.far_min >> self.shift) <= self.active_idx.saturating_add(1)
    }

    /// Re-files every far event under the current geometry, dropping dead
    /// entries.
    fn redistribute_far(&mut self, gens: &[u32]) {
        let far = std::mem::take(&mut self.far);
        self.far_min = u64::MAX;
        for ev in far {
            if Self::dead(&ev, gens) {
                self.entries -= 1;
                continue;
            }
            self.place(ev);
        }
    }

    /// Ring and active set are empty: jump the window to the far minimum,
    /// re-deriving the bucket width from the far population's density.
    fn retarget_far(&mut self, gens: &[u32]) {
        debug_assert!(self.active.is_empty() && self.ring_count == 0);
        self.shift = tuned_shift(self.far.iter().map(|ev| ev.at.as_nanos()), self.ring.len());
        self.active_idx = self.far_min >> self.shift;
        self.redistribute_far(gens);
        self.ops_since_rebuild = 0;
    }

    /// Full rebuild: resize the ring to the live population, re-derive the
    /// bucket width, and re-file everything outside the active set. The
    /// active set keeps its contents — the new window edge is chosen so its
    /// invariant (`active` holds the global minimum) still holds.
    fn rebuild(&mut self, gens: &[u32]) {
        // Timestamp boundary below which every current active-set entry
        // lies; computed under the *old* geometry before retuning.
        let boundary = (u128::from(self.active_idx) + 1) << self.shift;
        let boundary = u64::try_from(boundary).unwrap_or(u64::MAX);

        // Dead entries are dropped rather than moved: a rebuild visits
        // every stored entry anyway, so cancelled events cost nothing
        // beyond the rebuild that finally discards them.
        let mut moved: Vec<Key> = Vec::with_capacity(self.ring_count + self.far.len());
        for bucket in &mut self.ring {
            for ev in bucket.drain(..) {
                if Self::dead(&ev, gens) {
                    self.entries -= 1;
                    continue;
                }
                moved.push(ev);
            }
        }
        for ev in self.far.drain(..) {
            if Self::dead(&ev, gens) {
                self.entries -= 1;
                continue;
            }
            moved.push(ev);
        }
        self.ring_count = 0;
        self.far_min = u64::MAX;

        let mut len = self.ring.len();
        while self.entries > len * 4 && len < MAX_BUCKETS {
            len *= 2;
        }
        while self.entries * 8 < len && len > MIN_BUCKETS {
            len /= 2;
        }
        if len != self.ring.len() {
            self.ring = (0..len).map(|_| Vec::new()).collect();
        }

        self.shift = tuned_shift(moved.iter().map(|ev| ev.at.as_nanos()), len);
        // Every moved event has `at >= boundary` (it had bucket index
        // `> active_idx` under the old geometry), so an edge at the bucket
        // of `boundary - 1` keeps all of them at or past the window edge.
        self.active_idx = boundary.saturating_sub(1) >> self.shift;
        for ev in moved {
            self.place(ev);
        }
        self.ops_since_rebuild = 0;
    }
}

/// Picks a bucket-width exponent so the given timestamps spread over roughly
/// one event per bucket, capped at half the ring. A distant outlier inflates
/// the width (degrading gracefully toward one big bucket — i.e. the plain
/// heap) rather than ever affecting pop order.
fn tuned_shift(times: impl Iterator<Item = u64>, ring_len: usize) -> u32 {
    let (mut n, mut min, mut max) = (0u64, u64::MAX, 0u64);
    for t in times {
        n += 1;
        min = min.min(t);
        max = max.max(t);
    }
    if n == 0 {
        return INITIAL_SHIFT;
    }
    let spread = n.min(ring_len as u64 / 2).max(1);
    let width = ((max - min) / spread).max(1);
    (63 - width.leading_zeros()).min(MAX_SHIFT)
}

/// Discrete-event engine over a world type `W`.
///
/// # Examples
///
/// ```
/// use dcm_sim::engine::Engine;
/// use dcm_sim::time::{SimDuration, SimTime};
///
/// let mut world = 0u32; // the "world" can be any state
/// let mut engine = Engine::new();
/// engine.schedule_in(SimDuration::from_secs(5), |w: &mut u32, _e| *w += 1);
/// engine.schedule_in(SimDuration::from_secs(1), |w: &mut u32, e| {
///     *w += 10;
///     // events may schedule further events
///     e.schedule_in(SimDuration::from_secs(1), |w: &mut u32, _e| *w += 100);
/// });
/// engine.run(&mut world);
/// assert_eq!(world, 111);
/// assert_eq!(engine.now(), SimTime::from_secs(5));
/// ```
///
/// A timer is registered once and re-armed as often as needed:
///
/// ```
/// use dcm_sim::engine::Engine;
/// use dcm_sim::time::SimTime;
///
/// let mut fired = Vec::new();
/// let mut engine: Engine<Vec<SimTime>> = Engine::new();
/// let timer = engine.timer(|w: &mut Vec<SimTime>, e| w.push(e.now()));
/// engine.arm(timer, SimTime::from_secs(3));
/// engine.arm(timer, SimTime::from_secs(7)); // moves it: fires once, at 7 s
/// assert_eq!(engine.pending(), 1);
/// engine.run(&mut fired);
/// assert_eq!(fired, vec![SimTime::from_secs(7)]);
/// assert_eq!(engine.executed(), 1);
/// ```
pub struct Engine<W> {
    now: SimTime,
    queue: Calendar,
    /// Current generation per slot. A one-shot id is live iff
    /// `gens[id.slot] == id.gen`; cancel and execute both bump the
    /// generation, as does arming a timer ahead of its queued entry.
    gens: Vec<u32>,
    /// The action table, parallel to `gens`.
    slots: Vec<Slot<W>>,
    /// Slots whose latest generation has been retired, ready for reuse.
    free: Vec<u32>,
    next_seq: u64,
    /// Live events: pending one-shots plus armed timers.
    live: usize,
    executed: u64,
}

impl<W> fmt::Debug for Engine<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.live)
            .field("executed", &self.executed)
            .finish()
    }
}

impl<W> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Drop for Engine<W> {
    fn drop(&mut self) {
        if self.executed > 0 {
            TOTAL_EXECUTED.fetch_add(self.executed, AtomicOrdering::Relaxed);
        }
    }
}

impl<W> Engine<W> {
    /// Creates an engine with the clock at [`SimTime::ZERO`] and no events.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: Calendar::new(),
            gens: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
            executed: 0,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far (timer firings included).
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of live pending events: one-shots not yet executed or
    /// cancelled, plus armed timers (each counted once, however many stale
    /// queue entries it has left behind).
    pub fn pending(&self) -> usize {
        self.live
    }

    /// Takes the next schedule sequence number.
    #[inline]
    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// A free slot index (reused or fresh), still marked [`Slot::Vacant`].
    fn alloc_slot(&mut self) -> u32 {
        match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len()).expect("more than 2^32 live events");
                self.gens.push(0);
                self.slots.push(Slot::Vacant);
                slot
            }
        }
    }

    /// Schedules `action` at absolute time `at`.
    ///
    /// An event scheduled at or before the current time still executes (next,
    /// in FIFO order among same-time events); the clock never runs backwards.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        action: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) -> EventId {
        let at = at.max(self.now);
        let seq = self.take_seq();
        let slot = self.alloc_slot();
        self.slots[slot as usize] = Slot::Once(Box::new(action));
        let gen = self.gens[slot as usize];
        self.live += 1;
        self.queue.push(Key { at, seq, slot, gen }, &self.gens);
        EventId::new(slot, gen)
    }

    /// Schedules `action` after a relative delay.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        action: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) -> EventId {
        self.schedule_at(self.now + delay, action)
    }

    /// Schedules `action` to run as the next same-time event.
    pub fn schedule_now(
        &mut self,
        action: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) -> EventId {
        self.schedule_at(self.now, action)
    }

    /// Cancels a pending event in O(1) and drops its closure. Returns
    /// `true` if the event had not yet run or been cancelled. The queue
    /// entry becomes a tombstone and is discarded whenever it surfaces.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let slot = id.slot() as usize;
        if self.gens.get(slot) != Some(&id.gen()) || !matches!(self.slots[slot], Slot::Once(_)) {
            return false;
        }
        self.slots[slot] = Slot::Vacant;
        self.retire(id.slot());
        self.live -= 1;
        true
    }

    /// Bumps a slot's generation (invalidating outstanding ids and queue
    /// entries stamped with the old one) and queues it for reuse.
    #[inline]
    fn retire(&mut self, slot: u32) {
        self.gens[slot as usize] = self.gens[slot as usize].wrapping_add(1);
        self.free.push(slot);
    }

    /// Registers a re-armable timer running `action` each time it fires.
    /// The timer starts disarmed; creating it takes no sequence number, so
    /// it moves no other event.
    pub fn timer(&mut self, action: impl FnMut(&mut W, &mut Engine<W>) + 'static) -> TimerId {
        let slot = self.alloc_slot();
        self.slots[slot as usize] = Slot::Timer(Timer {
            action: Some(Box::new(action)),
            armed: None,
            queued: None,
        });
        TimerId(slot)
    }

    fn timer_mut(&mut self, timer: TimerId) -> &mut Timer<W> {
        match &mut self.slots[timer.0 as usize] {
            Slot::Timer(t) => t,
            _ => panic!("{timer:?} is not a timer of this engine"),
        }
    }

    /// Arms `timer` to fire at `at` (clamped to now), replacing any earlier
    /// arming. Takes the next sequence number exactly as
    /// [`Engine::schedule_at`] does, so the timer fires where a freshly
    /// scheduled event would, FIFO after everything scheduled before.
    ///
    /// # Panics
    ///
    /// Panics if `timer` was not created by this engine.
    pub fn arm(&mut self, timer: TimerId, at: SimTime) {
        let at = at.max(self.now);
        let seq = self.take_seq();
        let slot = timer.0;
        let t = self.timer_mut(timer);
        let was_armed = t.armed.replace((at, seq)).is_some();
        let queue_new = match t.queued {
            // The queued entry surfaces first and re-keys then.
            Some(q) if q <= at => false,
            _ => {
                t.queued = Some(at);
                true
            }
        };
        if !was_armed {
            self.live += 1;
        }
        if queue_new {
            // Supersede whatever entry was queued for this timer.
            let gen = self.gens[slot as usize].wrapping_add(1);
            self.gens[slot as usize] = gen;
            self.queue.push(Key { at, seq, slot, gen }, &self.gens);
        }
    }

    /// Disarms `timer`. Returns `true` if it was armed. Takes no sequence
    /// number; a queued entry is left to be discarded when it surfaces.
    ///
    /// # Panics
    ///
    /// Panics if `timer` was not created by this engine.
    pub fn disarm(&mut self, timer: TimerId) -> bool {
        let was_armed = self.timer_mut(timer).armed.take().is_some();
        if was_armed {
            self.live -= 1;
        }
        was_armed
    }

    /// The time `timer` is armed for, or `None` while disarmed.
    ///
    /// # Panics
    ///
    /// Panics if `timer` was not created by this engine.
    pub fn armed_at(&self, timer: TimerId) -> Option<SimTime> {
        match &self.slots[timer.0 as usize] {
            Slot::Timer(t) => t.armed.map(|(at, _)| at),
            _ => panic!("{timer:?} is not a timer of this engine"),
        }
    }

    /// The key `head` stands for: `head` itself for a one-shot or a timer's
    /// current entry, the timer's current key for a stale timer entry, and
    /// `None` for a tombstone or a disarmed timer's entry.
    fn live_key(&self, head: Key) -> Option<Key> {
        if self.gens[head.slot as usize] != head.gen {
            return None;
        }
        match &self.slots[head.slot as usize] {
            Slot::Timer(t) => t.armed.map(|(at, seq)| Key { at, seq, ..head }),
            _ => Some(head),
        }
    }

    /// Pops the queue head `head`, clearing its timer's queued mark if it
    /// was that timer's live entry.
    fn pop_head(&mut self, head: Key) {
        self.queue.pop(&self.gens);
        if self.gens[head.slot as usize] == head.gen {
            if let Slot::Timer(t) = &mut self.slots[head.slot as usize] {
                t.queued = None;
            }
        }
    }

    /// Queues a timer's current key in place of its popped stale entry.
    fn requeue(&mut self, key: Key) {
        if let Slot::Timer(t) = &mut self.slots[key.slot as usize] {
            t.queued = Some(key.at);
        }
        self.queue.push(key, &self.gens);
    }

    /// Removes and returns the key of the next event if it is due at or
    /// before `deadline`, discarding tombstones and re-keying stale timer
    /// entries on the way. A re-keyed timer that is already below every
    /// other queued key is returned directly instead of being re-queued.
    fn next_due(&mut self, deadline: SimTime) -> Option<Key> {
        loop {
            let head = self.queue.peek(&self.gens)?;
            let Some(key) = self.live_key(head) else {
                self.pop_head(head);
                continue;
            };
            if key == head {
                if key.at > deadline {
                    return None;
                }
                self.pop_head(head);
                return Some(key);
            }
            // A stale timer entry: it runs nothing itself.
            self.pop_head(head);
            let first =
                key.at <= deadline && self.queue.peek(&self.gens).is_none_or(|next| key < next);
            if first {
                return Some(key);
            }
            self.requeue(key);
        }
    }

    /// Runs the event `key` (already removed from the queue), advancing the
    /// clock to it.
    fn fire(&mut self, key: Key, world: &mut W) {
        // Release-mode guard for the calendar's ordering contract: a
        // cursor advance past a not-yet-redistributed far minimum (the
        // all-tombstone-bucket purge path) would surface here as a pop
        // that travels backwards in time. One u64 compare per event —
        // cheap enough to keep on in release, where a silent reorder
        // would otherwise corrupt the simulation undetected.
        assert!(
            key.at >= self.now,
            "event queue ordering violated: popped t={:?} while clock at t={:?}",
            key.at,
            self.now
        );
        self.live -= 1;
        self.now = key.at;
        self.executed += 1;
        let slot = key.slot as usize;
        if let Slot::Timer(t) = &mut self.slots[slot] {
            t.armed = None;
            let mut action = t.action.take().expect("a timer never fires inside itself");
            action(world, self);
            self.timer_mut(TimerId(key.slot)).action = Some(action);
            return;
        }
        let Slot::Once(action) = std::mem::replace(&mut self.slots[slot], Slot::Vacant) else {
            unreachable!("live queue entries name occupied slots");
        };
        self.retire(key.slot);
        action(world, self);
    }

    /// Executes the next event, advancing the clock. Returns `false` when no
    /// events remain.
    pub fn step(&mut self, world: &mut W) -> bool {
        match self.next_due(SimTime::MAX) {
            Some(key) => {
                self.fire(key, world);
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
    }

    /// Runs until the clock would pass `deadline`; events at exactly
    /// `deadline` are executed. Pending later events remain queued and the
    /// clock is left at `deadline` (or at the last event if the queue
    /// drained early).
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) {
        while let Some(key) = self.next_due(deadline) {
            self.fire(key, world);
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// The timestamp of the next live event, if any. Discards tombstones
    /// and re-keys stale timer entries encountered at the front of the
    /// queue.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let head = self.queue.peek(&self.gens)?;
            match self.live_key(head) {
                Some(key) if key == head => return Some(key.at),
                Some(key) => {
                    self.pop_head(head);
                    self.requeue(key);
                }
                None => self.pop_head(head),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::cmp::Reverse;
    use std::collections::{BTreeSet, BinaryHeap};

    type W = Vec<u32>;

    fn push_at(engine: &mut Engine<W>, t: u64, tag: u32) -> EventId {
        engine.schedule_at(SimTime::from_secs(t), move |w: &mut W, _| w.push(tag))
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        push_at(&mut e, 3, 3);
        push_at(&mut e, 1, 1);
        push_at(&mut e, 2, 2);
        e.run(&mut w);
        assert_eq!(w, vec![1, 2, 3]);
        assert_eq!(e.executed(), 3);
    }

    #[test]
    fn ties_break_in_schedule_order() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        for tag in 0..10 {
            push_at(&mut e, 5, tag);
        }
        e.run(&mut w);
        assert_eq!(w, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        e.schedule_in(SimDuration::from_secs(1), |w: &mut W, e| {
            w.push(1);
            e.schedule_in(SimDuration::from_secs(1), |w: &mut W, _| w.push(2));
        });
        e.run(&mut w);
        assert_eq!(w, vec![1, 2]);
        assert_eq!(e.now(), SimTime::from_secs(2));
    }

    #[test]
    fn cancellation_suppresses_execution() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        let keep = push_at(&mut e, 1, 1);
        let drop_ = push_at(&mut e, 2, 2);
        push_at(&mut e, 3, 3);
        assert!(e.cancel(drop_));
        assert!(!e.cancel(drop_), "double-cancel reports false");
        assert!(!e.cancel(EventId(999)), "unknown id reports false");
        e.run(&mut w);
        assert_eq!(w, vec![1, 3]);
        let _ = keep;
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        push_at(&mut e, 1, 1);
        push_at(&mut e, 5, 5);
        push_at(&mut e, 10, 10);
        e.run_until(&mut w, SimTime::from_secs(5));
        assert_eq!(w, vec![1, 5]);
        assert_eq!(e.now(), SimTime::from_secs(5));
        assert_eq!(e.pending(), 1);
        // Idle gap: deadline beyond all events still advances the clock.
        e.run_until(&mut w, SimTime::from_secs(20));
        assert_eq!(w, vec![1, 5, 10]);
        assert_eq!(e.now(), SimTime::from_secs(20));
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_secs(5), |w: &mut W, e| {
            w.push(1);
            // "Past" event executes at now, not before.
            e.schedule_at(SimTime::from_secs(1), |w: &mut W, _| w.push(2));
        });
        e.run(&mut w);
        assert_eq!(w, vec![1, 2]);
        assert_eq!(e.now(), SimTime::from_secs(5));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut e: Engine<W> = Engine::new();
        let a = push_at(&mut e, 1, 1);
        push_at(&mut e, 2, 2);
        e.cancel(a);
        assert_eq!(e.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(e.pending(), 1);
    }

    #[test]
    fn empty_engine_steps_false() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        assert!(!e.step(&mut w));
        assert_eq!(e.peek_time(), None);
    }

    #[test]
    fn schedule_now_runs_before_later_events() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_secs(1), |w: &mut W, e| {
            w.push(1);
            e.schedule_now(|w: &mut W, _| w.push(2));
            e.schedule_in(SimDuration::from_nanos(1), |w: &mut W, _| w.push(3));
        });
        push_at(&mut e, 2, 4);
        e.run(&mut w);
        assert_eq!(w, vec![1, 2, 3, 4]);
    }

    #[test]
    fn reused_slot_does_not_resurrect_old_handle() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        let a = push_at(&mut e, 1, 1);
        assert!(e.cancel(a));
        // The freed slot is reused with a bumped generation; the stale
        // handle must not cancel the new event.
        let b = push_at(&mut e, 2, 2);
        assert!(!e.cancel(a), "stale handle must stay dead");
        assert_eq!(e.pending(), 1);
        e.run(&mut w);
        assert_eq!(w, vec![2]);
        let _ = b;
    }

    #[test]
    fn cancel_after_execution_reports_false() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        let a = push_at(&mut e, 1, 1);
        e.run(&mut w);
        assert!(!e.cancel(a), "executed event cannot be cancelled");
    }

    #[test]
    fn heavy_cancellation_keeps_counts_consistent() {
        let mut w: W = vec![];
        let mut e = Engine::new();
        let ids: Vec<EventId> = (0..1000).map(|i| push_at(&mut e, i, i as u32)).collect();
        for id in ids.iter().skip(1).step_by(2) {
            assert!(e.cancel(*id));
        }
        assert_eq!(e.pending(), 500);
        e.run(&mut w);
        assert_eq!(w.len(), 500);
        assert!(w.iter().all(|tag| tag % 2 == 0));
        assert_eq!(e.executed(), 500);
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn drop_accumulates_global_executed_counter() {
        let before = total_executed();
        let mut w: W = vec![];
        {
            let mut e = Engine::new();
            push_at(&mut e, 1, 1);
            push_at(&mut e, 2, 2);
            e.run(&mut w);
        }
        assert!(total_executed() >= before + 2);
    }

    #[test]
    fn wide_time_spread_triggers_calendar_retuning() {
        // Mix nanosecond-scale and hour-scale timestamps so pushes land in
        // the far list, rebuilds retune the bucket width, and pops still
        // come out in exact time order.
        let mut w: W = vec![];
        let mut e = Engine::new();
        let mut expect: Vec<(u64, u32)> = vec![];
        let mut sm = SplitMix64::new(7);
        for tag in 0..4000u32 {
            let at = match tag % 4 {
                0 => sm.next_u64() % 1_000,                     // ~ns
                1 => sm.next_u64() % 1_000_000_000,             // ~1s
                2 => 3_600_000_000_000 + sm.next_u64() % 1_000, // ~1h cluster
                _ => sm.next_u64() % 7_200_000_000_000,         // anywhere
            };
            e.schedule_at(SimTime::from_nanos(at), move |w: &mut W, _| w.push(tag));
            expect.push((at, tag));
        }
        expect.sort_by_key(|&(at, tag)| (at, tag)); // seq order == tag order here
        e.run(&mut w);
        assert_eq!(
            w,
            expect.iter().map(|&(_, tag)| tag).collect::<Vec<_>>(),
            "calendar queue must pop in exact (time, seq) order"
        );
    }

    /// Reference-model check: random schedule/cancel/pop interleavings
    /// against a plain `BinaryHeap` + cancelled-set model must pop in
    /// byte-identical `(time, seq)` order, across slot reuse and stale
    /// generations.
    #[test]
    fn random_interleavings_match_binary_heap_reference() {
        for seed in 0..12u64 {
            let mut sm = SplitMix64::new(0xCA1E_0000 + seed);
            let mut e: Engine<Vec<u64>> = Engine::new();
            let mut w: Vec<u64> = vec![];
            // Model: (at_nanos, seq, tag) min-heap plus cancelled seq set.
            let mut model: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
            let mut cancelled: BTreeSet<u64> = BTreeSet::new();
            let mut live: Vec<(EventId, u64)> = vec![]; // (handle, seq)
            let mut dead: Vec<EventId> = vec![]; // retired handles (stale gens)
            let mut next_seq = 0u64;
            let mut expected: Vec<u64> = vec![];

            for _ in 0..4000 {
                match sm.next_u64() % 100 {
                    // Schedule with a delay mixing zero, dense, and sparse
                    // scales so entries hit active heap, ring, and far list.
                    0..=54 => {
                        let delay = match sm.next_u64() % 5 {
                            0 => 0,
                            1 => sm.next_u64() % 1_000,
                            2 => sm.next_u64() % 1_000_000,
                            3 => sm.next_u64() % 1_000_000_000,
                            _ => sm.next_u64() % 600_000_000_000,
                        };
                        let at = e.now() + SimDuration::from_nanos(delay);
                        let seq = next_seq;
                        next_seq += 1;
                        let id = e.schedule_at(at, move |w: &mut Vec<u64>, _| w.push(seq));
                        model.push(Reverse((at.as_nanos(), seq, seq)));
                        live.push((id, seq));
                    }
                    // Cancel a random live event; both sides forget it.
                    55..=74 if !live.is_empty() => {
                        let i = (sm.next_u64() % live.len() as u64) as usize;
                        let (id, seq) = live.swap_remove(i);
                        assert!(e.cancel(id), "live handle must cancel");
                        cancelled.insert(seq);
                        dead.push(id);
                    }
                    // Stale handles (slot since reused or retired) stay dead.
                    75..=79 if !dead.is_empty() => {
                        let i = (sm.next_u64() % dead.len() as u64) as usize;
                        assert!(!e.cancel(dead[i]), "stale handle must stay dead");
                    }
                    // Pop a few events; record what the model expects.
                    _ => {
                        for _ in 0..=(sm.next_u64() % 3) {
                            let due = loop {
                                match model.pop() {
                                    None => break None,
                                    Some(Reverse((_, seq, tag))) => {
                                        if cancelled.remove(&seq) {
                                            continue;
                                        }
                                        break Some((seq, tag));
                                    }
                                }
                            };
                            match due {
                                None => assert!(!e.step(&mut w)),
                                Some((seq, tag)) => {
                                    assert!(e.step(&mut w));
                                    expected.push(tag);
                                    let i = live.iter().position(|&(_, s)| s == seq).unwrap();
                                    let (id, _) = live.swap_remove(i);
                                    dead.push(id);
                                }
                            }
                        }
                    }
                }
                assert_eq!(e.pending(), live.len(), "live count must track the model");
            }

            // Drain both sides completely.
            while let Some(Reverse((_, seq, tag))) = model.pop() {
                if cancelled.remove(&seq) {
                    continue;
                }
                expected.push(tag);
            }
            e.run(&mut w);
            assert_eq!(
                w, expected,
                "seed {seed}: pop order diverged from reference"
            );
            assert_eq!(e.pending(), 0);
        }
    }

    type Log = Vec<(u64, u64)>;

    fn log_timer(e: &mut Engine<Log>, tag: u64) -> TimerId {
        e.timer(move |w: &mut Log, e| w.push((e.now().as_nanos(), tag)))
    }

    #[test]
    fn timer_fires_once_at_its_latest_arming() {
        let mut w: Log = vec![];
        let mut e = Engine::new();
        let t = log_timer(&mut e, 9);
        assert_eq!(e.pending(), 0, "a new timer is disarmed");
        e.arm(t, SimTime::from_secs(3));
        e.arm(t, SimTime::from_secs(7));
        assert_eq!(e.pending(), 1, "an armed timer counts once");
        assert_eq!(e.armed_at(t), Some(SimTime::from_secs(7)));
        e.run(&mut w);
        assert_eq!(w, vec![(SimTime::from_secs(7).as_nanos(), 9)]);
        assert_eq!(e.executed(), 1, "the stale entry never counts");
        assert_eq!(e.armed_at(t), None);
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn arming_earlier_supersedes_the_queued_entry() {
        let mut w: Log = vec![];
        let mut e = Engine::new();
        let t = log_timer(&mut e, 1);
        e.arm(t, SimTime::from_secs(7));
        e.arm(t, SimTime::from_secs(3));
        e.run(&mut w);
        assert_eq!(w, vec![(SimTime::from_secs(3).as_nanos(), 1)]);
        assert_eq!(e.executed(), 1);
        assert_eq!(e.now(), SimTime::from_secs(3), "tombstones never move now");
    }

    #[test]
    fn disarmed_timer_runs_nothing_and_can_rearm() {
        let mut w: Log = vec![];
        let mut e = Engine::new();
        let t = log_timer(&mut e, 4);
        e.arm(t, SimTime::from_secs(2));
        assert!(e.disarm(t));
        assert!(!e.disarm(t), "double disarm reports false");
        assert_eq!(e.pending(), 0);
        e.run(&mut w);
        assert!(w.is_empty());
        assert_eq!(e.executed(), 0);
        assert_eq!(e.now(), SimTime::ZERO, "a disarmed entry never moves now");
        e.arm(t, SimTime::from_secs(5));
        e.run(&mut w);
        assert_eq!(w, vec![(SimTime::from_secs(5).as_nanos(), 4)]);
    }

    #[test]
    fn run_until_between_stale_entry_and_rekeyed_time() {
        let mut w: Log = vec![];
        let mut e = Engine::new();
        let t = log_timer(&mut e, 2);
        e.arm(t, SimTime::from_secs(3));
        e.arm(t, SimTime::from_secs(7));
        assert_eq!(e.peek_time(), Some(SimTime::from_secs(7)));
        e.run_until(&mut w, SimTime::from_secs(5));
        assert!(w.is_empty(), "nothing is due by the deadline");
        assert_eq!(e.now(), SimTime::from_secs(5));
        assert_eq!(e.pending(), 1);
        e.run_until(&mut w, SimTime::from_secs(7));
        assert_eq!(w, vec![(SimTime::from_secs(7).as_nanos(), 2)]);
        assert_eq!(e.executed(), 1);
    }

    #[test]
    fn timer_rearms_itself_from_its_action() {
        let mut w: Log = vec![];
        let mut e: Engine<Log> = Engine::new();
        let mut left = 3u64;
        let slot = std::rc::Rc::new(std::cell::Cell::new(None::<TimerId>));
        let me = std::rc::Rc::clone(&slot);
        let t = e.timer(move |w: &mut Log, e| {
            w.push((e.now().as_nanos(), left));
            if left > 0 {
                left -= 1;
                let t = me.get().expect("timer id stored before arming");
                e.arm(t, e.now() + SimDuration::from_secs(1));
            }
        });
        slot.set(Some(t));
        e.arm(t, SimTime::from_secs(1));
        e.run(&mut w);
        let secs: Vec<(u64, u64)> = w.iter().map(|&(at, n)| (at / 1_000_000_000, n)).collect();
        assert_eq!(secs, vec![(1, 3), (2, 2), (3, 1), (4, 0)]);
        assert_eq!(e.executed(), 4);
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn stale_event_ids_never_touch_a_timer_in_their_slot() {
        let mut e: Engine<Log> = Engine::new();
        let a = e.schedule_at(SimTime::from_secs(1), |_: &mut Log, _| {});
        assert!(e.cancel(a));
        // The timer takes the freed slot.
        let t = log_timer(&mut e, 0);
        e.arm(t, SimTime::from_secs(2));
        assert!(!e.cancel(a));
        assert_eq!(e.pending(), 1);
    }

    /// Reference-model check for timers: random interleavings of one-shot
    /// schedule/cancel, timer arm/disarm, `step`, `run_until` and
    /// `peek_time` against a plain `BinaryHeap` model in which `arm` is
    /// cancel + `schedule_at` and `disarm` is cancel. After every
    /// operation the fired log (time and tag), `executed()`, `pending()`
    /// and the clock must match the model. Times are coarse so that ties
    /// between timers and one-shots are frequent (which pins the sequence
    /// number `arm` takes), and timers are created mid-run so they reuse
    /// one-shot slots.
    #[test]
    fn timers_match_cancel_and_reschedule_reference() {
        const TIMER_TAG: u64 = 1 << 40;
        for seed in 0..16u64 {
            let mut sm = SplitMix64::new(0x7133_0000 + seed);
            let mut e: Engine<Log> = Engine::new();
            let mut w: Log = vec![];
            let mut model: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
            let mut cancelled: BTreeSet<u64> = BTreeSet::new();
            let mut once: Vec<(EventId, u64)> = vec![]; // live one-shots (handle, seq)
            let mut dead: Vec<EventId> = vec![];
            let mut timers: Vec<(TimerId, Option<u64>)> = vec![]; // (handle, armed seq)
            let mut next_seq = 0u64;
            let mut now = 0u64;
            let mut expected: Log = vec![];

            for op in 0..3000 {
                if op % 700 == 0 {
                    let tag = TIMER_TAG + timers.len() as u64;
                    timers.push((log_timer(&mut e, tag), None));
                }
                // Coarse times: multiples of 1 ms within 8 ms, sometimes 0.
                let pick_at = |sm: &mut SplitMix64, now: u64| -> u64 {
                    match sm.next_u64() % 4 {
                        0 => now,
                        1 => now.saturating_sub(1_000_000), // clamps to now
                        _ => (now / 1_000_000 + sm.next_u64() % 8) * 1_000_000,
                    }
                };
                match sm.next_u64() % 100 {
                    0..=24 => {
                        let raw = pick_at(&mut sm, now);
                        let at = raw.max(now);
                        let seq = next_seq;
                        next_seq += 1;
                        let id = e.schedule_at(SimTime::from_nanos(raw), move |w: &mut Log, e| {
                            w.push((e.now().as_nanos(), seq));
                        });
                        model.push(Reverse((at, seq, seq)));
                        once.push((id, seq));
                    }
                    25..=32 if !once.is_empty() => {
                        let i = (sm.next_u64() % once.len() as u64) as usize;
                        let (id, seq) = once.swap_remove(i);
                        assert!(e.cancel(id));
                        cancelled.insert(seq);
                        dead.push(id);
                    }
                    33..=35 if !dead.is_empty() => {
                        let i = (sm.next_u64() % dead.len() as u64) as usize;
                        assert!(!e.cancel(dead[i]), "stale handle must stay dead");
                    }
                    36..=64 => {
                        let i = (sm.next_u64() % timers.len() as u64) as usize;
                        let raw = pick_at(&mut sm, now);
                        let at = raw.max(now);
                        e.arm(timers[i].0, SimTime::from_nanos(raw));
                        if let Some(old) = timers[i].1 {
                            cancelled.insert(old);
                        }
                        let seq = next_seq;
                        next_seq += 1;
                        model.push(Reverse((at, seq, TIMER_TAG + i as u64)));
                        timers[i].1 = Some(seq);
                    }
                    65..=72 => {
                        let i = (sm.next_u64() % timers.len() as u64) as usize;
                        let was = timers[i].1.take();
                        if let Some(old) = was {
                            cancelled.insert(old);
                        }
                        assert_eq!(e.disarm(timers[i].0), was.is_some());
                    }
                    73..=76 => {
                        let next = loop {
                            match model.peek() {
                                Some(&Reverse((_, seq, _))) if cancelled.contains(&seq) => {
                                    cancelled.remove(&seq);
                                    model.pop();
                                }
                                Some(&Reverse((at, _, _))) => break Some(at),
                                None => break None,
                            }
                        };
                        assert_eq!(e.peek_time().map(SimTime::as_nanos), next);
                    }
                    // Step or run until a deadline; both sides pop the
                    // same live events.
                    _ => {
                        let deadline = if sm.next_u64().is_multiple_of(2) {
                            None
                        } else {
                            // Often just short of an armed timer's time,
                            // i.e. between its stale entry and its key.
                            let i = (sm.next_u64() % timers.len() as u64) as usize;
                            let armed = e.armed_at(timers[i].0).map(SimTime::as_nanos);
                            Some(match armed {
                                Some(at) if at > now && sm.next_u64().is_multiple_of(2) => at - 1,
                                _ => pick_at(&mut sm, now).max(now),
                            })
                        };
                        let steps = if deadline.is_some() {
                            u64::MAX
                        } else {
                            1 + sm.next_u64() % 3
                        };
                        let mut popped = 0;
                        while popped < steps {
                            let Some(&Reverse((at, seq, tag))) = model.peek() else {
                                break;
                            };
                            if cancelled.remove(&seq) {
                                model.pop();
                                continue;
                            }
                            if deadline.is_some_and(|d| at > d) {
                                break;
                            }
                            model.pop();
                            popped += 1;
                            expected.push((at, tag));
                            now = at;
                            if tag >= TIMER_TAG {
                                timers[(tag - TIMER_TAG) as usize].1 = None;
                            } else {
                                let i = once.iter().position(|&(_, s)| s == seq).unwrap();
                                dead.push(once.swap_remove(i).0);
                            }
                        }
                        match deadline {
                            Some(d) => {
                                e.run_until(&mut w, SimTime::from_nanos(d));
                                now = now.max(d);
                            }
                            None => {
                                for _ in 0..steps {
                                    e.step(&mut w);
                                }
                            }
                        }
                    }
                }
                let armed = timers.iter().filter(|t| t.1.is_some()).count();
                assert_eq!(w, expected, "seed {seed} op {op}: fired log diverged");
                assert_eq!(e.executed(), expected.len() as u64, "seed {seed} op {op}");
                assert_eq!(e.pending(), once.len() + armed, "seed {seed} op {op}");
                assert_eq!(e.now().as_nanos(), now, "seed {seed} op {op}: clock");
            }
            e.run(&mut w);
            while let Some(Reverse((at, seq, tag))) = model.pop() {
                if !cancelled.remove(&seq) {
                    expected.push((at, tag));
                }
            }
            assert_eq!(w, expected, "seed {seed}: drain diverged");
            assert_eq!(e.pending(), 0);
        }
    }
}

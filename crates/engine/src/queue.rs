//! The central event queue.
//!
//! A deterministic time-ordered queue over `(time, creator rank, creator
//! sequence)`. The key is **content-computable**: it is derived from
//! *which rank created the event and how many events that rank had
//! created before*, never from global insertion order. Two consequences:
//!
//! * ties are still broken deterministically (keys are unique: a rank's
//!   sequence numbers are monotone), so whole-simulation results stay
//!   bit-reproducible, and
//! * the same set of events pops in the same relative order no matter
//!   which queue instance they pass through — the property the sharded
//!   engine ([`crate::shard`]) relies on to merge per-shard streams
//!   byte-identically with the serial engine.
//!
//! # Layout: wavefront buckets, not a heap
//!
//! Lockstep collectives make the event population *wave-shaped*: many
//! events share each timestamp (up to one per rank of the current
//! wavefront), and events are consumed one whole timestamp at a time. A
//! comparison heap pays `O(log n)` sift work per event to maintain a
//! total order it never needs.
//!
//! How *many* timestamps are live at once (W) depends on how well the
//! ranks stay in step. Jitter-free collectives keep W in single digits,
//! but the app skeletons' per-rank compute jitter (and CE detours)
//! scatter the ranks, and W then tracks the rank count: the noise-free
//! 256-rank fig4 schedules peak at 261 (LAMMPS-lj) to ~1,200 (LULESH),
//! and the noise-free 8192-rank LAMMPS-lj run peaks at 8,234 live waves
//! and opens a new one for ~40% of its events.
//!
//! So the queue buckets events by timestamp, and indexes the buckets
//! with an ordered map:
//!
//! * **Waves** — a `BTreeMap` from each distinct *future* timestamp to
//!   its bucket. Finding a wave, creating one and removing the earliest
//!   all cost `O(log W)`; with W small the whole index is one B-tree
//!   leaf, searched linearly. A push then appends to its wave's bucket
//!   unordered in O(1); each bucket memoizes its minimum key so peeking
//!   never scans.
//! * **The active run** — when the earliest wave is first *popped from*,
//!   its bucket is sorted once by the `(crank, cseq)` tie-break (a
//!   contiguous `u64` sort, unique keys, so the order is deterministic)
//!   and pops become cursor increments.
//! * **The side heap** — events pushed *at* the active timestamp while
//!   it is being drained (a completing op readying a dependent at the
//!   same instant) go to a small binary min-heap that the pop path
//!   merges with the run head. It stays tiny: such events are consumed
//!   almost immediately by the dispatch loop's ordered merge.
//!
//! Pop order is exactly ascending `(time, crank, cseq)` — identical to
//! the heap this replaces, which `proptests` below and the engine's
//! equivalence suites verify. Pushing a timestamp *below* the active one
//! (impossible in engine use, where pushes are causal, but legal API)
//! takes a slow path that demotes the active run back to a wave.

use cesim_model::Time;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Content-computable tie-break key: the rank that created the event and
/// that rank's private event-creation counter. Combined with the
/// timestamp this identifies an event uniquely, independent of which
/// queue (or how many queues) it travels through.
///
/// `cseq` is 32-bit so the whole tie-break packs into a single `u64`
/// (`crank << 32 | cseq`); a rank would need to create 4 billion events
/// in one run to wrap, orders of magnitude beyond any schedule here
/// (overflow is checked in debug builds at the increment site).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EvKey {
    /// Rank on which the event was created (the rank whose processing
    /// pushed it; for the initial wavefront, the root op's own rank).
    pub crank: u32,
    /// That rank's monotone creation counter at push time.
    pub cseq: u32,
}

/// Pack the tie-break into an order-preserving `u64`.
#[inline(always)]
fn pack_key(key: EvKey) -> u64 {
    ((key.crank as u64) << 32) | key.cseq as u64
}

/// Inverse of [`pack_key`].
#[inline(always)]
fn unpack_key(k: u64) -> EvKey {
    EvKey {
        crank: (k >> 32) as u32,
        cseq: k as u32,
    }
}

/// One future timestamp's unordered event bucket (the timestamp itself
/// is the bucket's key in [`EventQueue::waves`]).
struct Wave<E> {
    /// Minimum packed key in `events`, memoized on push so
    /// [`EventQueue::peek_min`] is O(1) without sorting.
    min: u64,
    /// `(packed key, payload)` in arrival order; sorted only when this
    /// wave becomes the active run.
    events: Vec<(u64, E)>,
}

/// Deterministic time-ordered event queue (see module docs for the
/// wavefront-bucket layout).
pub struct EventQueue<E> {
    /// Future timestamps (ps) to their buckets, all strictly above
    /// `active_t` when a run is active. Never contains an empty bucket.
    waves: BTreeMap<u64, Wave<E>>,
    /// The timestamp currently being drained (valid when `active`).
    active_t: u64,
    active: bool,
    /// The active timestamp's events, sorted by packed key; consumed by
    /// advancing `cursor`.
    run: Vec<(u64, E)>,
    cursor: usize,
    /// Min-heap of events pushed at `active_t` after activation.
    side: Vec<(u64, E)>,
    /// Retired bucket backings, kept for reuse — steady-state replicas
    /// allocate nothing.
    spare: Vec<Vec<(u64, E)>>,
    len: usize,
    pushed: u64,
}

// `E: Copy` is deliberate: event payloads are small index-like values
// (the arena reduced them to `Copy` refs), which keeps bucket sorting
// and the side heap's hole-style sifts to single moves of 16-byte pairs.
impl<E: Copy> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue whose first wave — typically the seeded initial
    /// wavefront — can hold `cap` events without regrowing. The buffer
    /// then rotates through the active run, the wave buckets and the
    /// spare pool like any other; every bucket grows to its own
    /// high-water mark on use.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::default();
        q.reserve(cap);
        q
    }

    /// Schedule `event` at `time` under the tie-break `key`.
    ///
    /// Keys must be unique per queue — the caller derives them from
    /// per-rank creation counters, which guarantees it.
    #[inline]
    pub fn push(&mut self, time: Time, key: EvKey, event: E) {
        self.pushed += 1;
        self.len += 1;
        let t = time.as_ps();
        let k = pack_key(key);
        if self.active {
            if t == self.active_t {
                // Same-instant push while draining: the dispatch loop
                // will consume it almost immediately — keep it in the
                // small merge heap instead of disturbing any bucket.
                side_push(&mut self.side, (k, event));
                return;
            }
            if t < self.active_t {
                // Legal API, unreachable from the engine (pushes are
                // causal: never earlier than the time being dispatched).
                self.demote_active();
            }
        }
        self.wave_push(t, k, event);
    }

    /// File `(k, event)` under the wave for `t`, creating it if absent.
    /// The index holds one entry per distinct live future timestamp —
    /// about one per rank once jitter pulls the ranks apart (261 at 256
    /// ranks, 8,234 at 8192) — so the lookup and a new wave's insertion
    /// are both `O(log W)`.
    #[inline]
    fn wave_push(&mut self, t: u64, k: u64, event: E) {
        match self.waves.entry(t) {
            Entry::Occupied(mut o) => {
                let w = o.get_mut();
                w.min = w.min.min(k);
                w.events.push((k, event));
            }
            Entry::Vacant(v) => {
                let mut events = self.spare.pop().unwrap_or_default();
                events.push((k, event));
                v.insert(Wave { min: k, events });
            }
        }
    }

    /// Slow path: push below the active timestamp. Returns the active
    /// run (and side heap) to a wave bucket so the normal ordering
    /// machinery re-applies.
    #[cold]
    fn demote_active(&mut self) {
        let mut events = self.spare.pop().unwrap_or_default();
        events.extend_from_slice(&self.run[self.cursor..]);
        events.append(&mut self.side);
        self.run.clear();
        self.cursor = 0;
        self.active = false;
        if events.is_empty() {
            self.spare.push(events);
            return;
        }
        let min = events.iter().map(|&(k, _)| k).min().expect("non-empty");
        debug_assert!(self
            .waves
            .first_key_value()
            .is_none_or(|(&t, _)| t > self.active_t));
        self.waves.insert(self.active_t, Wave { min, events });
    }

    /// Make the earliest wave the active run: sort its bucket once by
    /// the packed tie-break (unique keys, so `sort_unstable` is
    /// deterministic) and drain it by cursor from then on.
    fn activate_next(&mut self) -> bool {
        debug_assert!(self.cursor == self.run.len() && self.side.is_empty());
        let Some((t, wave)) = self.waves.pop_first() else {
            return false;
        };
        let mut retired = std::mem::replace(&mut self.run, wave.events);
        retired.clear();
        self.spare.push(retired);
        self.run.sort_unstable_by_key(|&(k, _)| k);
        self.cursor = 0;
        self.active_t = t;
        self.active = true;
        true
    }

    /// Bulk-schedule `events` — the fast path for seeding the initial
    /// ready wavefront. Buckets make this plain appends; the per-wave
    /// sort on activation restores exactly the order one-at-a-time
    /// pushes would produce (pop order is fully determined by the key
    /// once keys are distinct).
    pub fn seed(&mut self, events: impl IntoIterator<Item = (Time, EvKey, E)>) {
        for (time, key, event) in events {
            self.push(time, key, event);
        }
    }

    /// Remove and return the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, EvKey, E)> {
        loop {
            let run_head = self.run.get(self.cursor);
            let (k, ev) = match (run_head, self.side.first()) {
                (Some(&r), Some(&s)) => {
                    if r.0 < s.0 {
                        self.cursor += 1;
                        r
                    } else {
                        side_pop(&mut self.side)
                    }
                }
                (Some(&r), None) => {
                    self.cursor += 1;
                    r
                }
                (None, Some(_)) => side_pop(&mut self.side),
                (None, None) => {
                    if !self.activate_next() {
                        return None;
                    }
                    continue;
                }
            };
            self.len -= 1;
            return Some((Time::from_ps(self.active_t), unpack_key(k), ev));
        }
    }

    /// Drain every event sharing the minimum timestamp into `out`
    /// (cleared first), in exactly the order repeated [`EventQueue::pop`]
    /// calls would yield them. Returns the number drained.
    ///
    /// The dispatch loop uses this to amortize per-event work across
    /// same-timestamp bursts (the common case: a whole wavefront of
    /// ranks acting at the identical instant). Buckets make it the
    /// natural operation: the active run *is* the batch.
    #[inline]
    pub fn pop_batch(&mut self, out: &mut Vec<(Time, EvKey, E)>) -> usize {
        out.clear();
        if self.cursor == self.run.len() && self.side.is_empty() && !self.activate_next() {
            return 0;
        }
        let t = Time::from_ps(self.active_t);
        if self.side.is_empty() {
            // Whole-run fast path: the sorted tail is the batch.
            out.extend(
                self.run[self.cursor..]
                    .iter()
                    .map(|&(k, ev)| (t, unpack_key(k), ev)),
            );
            self.cursor = self.run.len();
            self.len -= out.len();
        } else {
            // Rare: leftover same-instant pushes must merge in.
            while let Some((k, ev)) = self.pop_active() {
                out.push((t, unpack_key(k), ev));
                self.len -= 1;
            }
        }
        out.len()
    }

    /// Pop the next `(key, payload)` of the active timestamp only
    /// (`None` once the run and side heap are drained).
    #[inline]
    fn pop_active(&mut self) -> Option<(u64, E)> {
        match (self.run.get(self.cursor), self.side.first()) {
            (Some(&r), Some(&s)) => Some(if r.0 < s.0 {
                self.cursor += 1;
                r
            } else {
                side_pop(&mut self.side)
            }),
            (Some(&r), None) => {
                self.cursor += 1;
                Some(r)
            }
            (None, Some(_)) => Some(side_pop(&mut self.side)),
            (None, None) => None,
        }
    }

    /// Timestamp of the earliest event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        if self.cursor < self.run.len() || !self.side.is_empty() {
            return Some(Time::from_ps(self.active_t));
        }
        self.waves.first_key_value().map(|(&t, _)| Time::from_ps(t))
    }

    /// `(time, key)` of the earliest event without removing it.
    #[inline]
    pub fn peek_min(&self) -> Option<(Time, EvKey)> {
        let run_head = self.run.get(self.cursor).map(|&(k, _)| k);
        let side_head = self.side.first().map(|&(k, _)| k);
        let k = match (run_head, side_head) {
            (Some(r), Some(s)) => r.min(s),
            (Some(r), None) => r,
            (None, Some(s)) => s,
            (None, None) => {
                // Wave buckets are unsorted but memoize their minimum.
                let (&t, w) = self.waves.first_key_value()?;
                return Some((Time::from_ps(t), unpack_key(w.min)));
            }
        };
        Some((Time::from_ps(self.active_t), unpack_key(k)))
    }

    /// Remove all events, retaining the allocated buffers — a cleared
    /// queue behaves exactly like a fresh one without reallocating.
    pub fn clear(&mut self) {
        for (_, mut w) in std::mem::take(&mut self.waves) {
            w.events.clear();
            self.spare.push(w.events);
        }
        self.run.clear();
        self.side.clear();
        self.cursor = 0;
        self.active = false;
        self.len = 0;
        self.pushed = 0;
    }

    /// Make sure the next wave to be created can hold `additional`
    /// events without regrowing (no-op when the buffer it will take
    /// already can).
    ///
    /// Meant for sizing a fresh queue once. No buffer has a fixed role:
    /// activation swaps the active run's buffer with the front wave's
    /// bucket and retires the old one to the spare pool, from which new
    /// waves take theirs. So calling this on every reuse of a queue
    /// reserves a different pooled buffer each time, until all of them
    /// hold `additional`. Reused queues need no reservation — every
    /// buffer keeps its own high-water capacity.
    pub fn reserve(&mut self, additional: usize) {
        match self.spare.last_mut() {
            Some(buf) => buf.reserve(additional),
            None => self.spare.push(Vec::with_capacity(additional)),
        }
    }

    /// Events' worth of capacity held across every buffer — the active
    /// run, the side heap, the wave buckets and the spare pool.
    #[cfg(test)]
    pub(crate) fn reserved_capacity(&self) -> usize {
        self.run.capacity()
            + self.side.capacity()
            + self
                .waves
                .values()
                .map(|w| w.events.capacity())
                .sum::<usize>()
            + self.spare.iter().map(Vec::capacity).sum::<usize>()
    }

    /// Number of events currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events ever pushed (for statistics).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            waves: BTreeMap::new(),
            active_t: 0,
            active: false,
            run: Vec::new(),
            cursor: 0,
            side: Vec::new(),
            spare: Vec::new(),
            len: 0,
            pushed: 0,
        }
    }
}

/// Binary min-heap push for the side buffer (hole-based sift-up).
#[inline]
fn side_push<E: Copy>(heap: &mut Vec<(u64, E)>, entry: (u64, E)) {
    let mut i = heap.len();
    heap.push(entry);
    while i > 0 {
        let p = (i - 1) / 2;
        if heap[p].0 <= entry.0 {
            break;
        }
        heap[i] = heap[p];
        i = p;
    }
    heap[i] = entry;
}

/// Binary min-heap pop for the side buffer. Caller ensures non-empty.
#[inline]
fn side_pop<E: Copy>(heap: &mut Vec<(u64, E)>) -> (u64, E) {
    let top = heap[0];
    let last = heap.pop().expect("side heap non-empty");
    let n = heap.len();
    if n > 0 {
        let mut i = 0;
        loop {
            let mut c = 2 * i + 1;
            if c >= n {
                break;
            }
            if c + 1 < n && heap[c + 1].0 < heap[c].0 {
                c += 1;
            }
            if last.0 <= heap[c].0 {
                break;
            }
            heap[i] = heap[c];
            i = c;
        }
        heap[i] = last;
    }
    top
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(crank: u32, cseq: u32) -> EvKey {
        EvKey { crank, cseq }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(30), k(0, 0), "c");
        q.push(Time::from_ps(10), k(0, 1), "a");
        q.push(Time::from_ps(20), k(0, 2), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(Time::from_ps(10)));
        assert_eq!(q.peek_min(), Some((Time::from_ps(10), k(0, 1))));
        assert_eq!(q.pop(), Some((Time::from_ps(10), k(0, 1), "a")));
        assert_eq!(q.pop(), Some((Time::from_ps(20), k(0, 2), "b")));
        assert_eq!(q.pop(), Some((Time::from_ps(30), k(0, 0), "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.peek_min(), None);
        assert_eq!(q.total_pushed(), 3);
    }

    /// Same-time events pop ordered by `(crank, cseq)` — a stable FIFO
    /// per creating rank, ranks interleaved in rank order.
    #[test]
    fn ties_break_by_creator_key() {
        let mut q = EventQueue::new();
        // Insert deliberately scrambled.
        q.push(Time::from_ps(5), k(1, 0), (1u32, 0u64));
        q.push(Time::from_ps(5), k(0, 1), (0, 1));
        q.push(Time::from_ps(5), k(1, 7), (1, 7));
        q.push(Time::from_ps(5), k(0, 0), (0, 0));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, e)| e).collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 0), (1, 7)]);
    }

    /// The packed `u64` tie-break must order exactly like the
    /// `(crank, cseq)` pair, including at field boundaries.
    #[test]
    fn packed_key_orders_like_tuple() {
        let samples = [
            k(0, 0),
            k(0, 1),
            k(1, 0),
            k(1, u32::MAX),
            k(u32::MAX, 0),
            k(u32::MAX, u32::MAX),
        ];
        for &ka in &samples {
            for &kb in &samples {
                let tuple = ka.cmp(&kb);
                let packed = pack_key(ka).cmp(&pack_key(kb));
                assert_eq!(tuple, packed, "{ka:?} vs {kb:?}");
                assert_eq!(unpack_key(pack_key(ka)), ka);
            }
        }
    }

    /// The pop order of a fixed event set is independent of insertion
    /// order — the property the sharded engine's mailbox drain relies on
    /// (cross-shard events are inserted at window boundaries in whatever
    /// order shards drained, yet must pop identically to serial).
    #[test]
    fn pop_order_is_insertion_order_independent() {
        let events: Vec<(Time, EvKey, usize)> = (0..200usize)
            .map(|i| {
                let t = Time::from_ps((i as u64).wrapping_mul(7919) % 50);
                (t, k((i % 7) as u32, (i / 7) as u32), i)
            })
            .collect();
        let mut fwd = EventQueue::new();
        for &(t, key, e) in &events {
            fwd.push(t, key, e);
        }
        let mut rev = EventQueue::new();
        for &(t, key, e) in events.iter().rev() {
            rev.push(t, key, e);
        }
        loop {
            let (a, b) = (fwd.pop(), rev.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// The bulk-seed path must pop in exactly the order the
    /// push-one-at-a-time path would, including ties — many distinct
    /// times collide on purpose here.
    #[test]
    fn seed_matches_sequential_pushes() {
        let items: Vec<(Time, EvKey, usize)> = (0..500usize)
            .map(|i| {
                let t = Time::from_ps((i as u64).wrapping_mul(7919) % 50);
                (t, k((i % 3) as u32, (i / 3) as u32), i)
            })
            .collect();
        let mut pushed = EventQueue::new();
        for &(t, key, e) in &items {
            pushed.push(t, key, e);
        }
        let mut seeded = EventQueue::new();
        seeded.seed(items.iter().copied());
        assert_eq!(seeded.len(), pushed.len());
        assert_eq!(seeded.total_pushed(), pushed.total_pushed());
        while !pushed.is_empty() {
            assert_eq!(seeded.pop(), pushed.pop());
        }
        assert_eq!(seeded.pop(), None);
    }

    /// Seeding a non-empty queue merges with what is already there.
    #[test]
    fn seed_after_pushes_merges() {
        let mut mixed = EventQueue::new();
        mixed.push(Time::from_ps(5), k(0, 0), 0);
        mixed.push(Time::from_ps(5), k(0, 1), 1);
        mixed.seed([
            (Time::from_ps(5), k(1, 0), 2),
            (Time::from_ps(3), k(2, 0), 3),
        ]);
        let order: Vec<_> = std::iter::from_fn(|| mixed.pop())
            .map(|(_, _, e)| e)
            .collect();
        assert_eq!(order, vec![3, 0, 1, 2]);
    }

    /// `clear` leaves the queue indistinguishable from a fresh one.
    #[test]
    fn clear_behaves_like_fresh() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(1), k(0, 0), 100);
        q.push(Time::from_ps(1), k(0, 1), 200);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.total_pushed(), 0);
        q.push(Time::from_ps(9), k(0, 0), 300);
        q.push(Time::from_ps(9), k(0, 1), 400);
        assert_eq!(q.pop(), Some((Time::from_ps(9), k(0, 0), 300)));
        assert_eq!(q.pop(), Some((Time::from_ps(9), k(0, 1), 400)));
    }

    /// `with_capacity` sizes the buffer the first wave takes: filling
    /// that wave allocates nothing more.
    #[test]
    fn with_capacity_sizes_the_first_wave() {
        let mut q = EventQueue::with_capacity(100);
        for i in 0..100 {
            q.push(Time::from_ps(5), k(i % 7, i), i);
        }
        assert_eq!(q.reserved_capacity(), 100);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, e)| e).collect();
        let mut want: Vec<u32> = (0..100).collect();
        want.sort_by_key(|&i| (i % 7, i));
        assert_eq!(order, want);
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::with_capacity(4);
        q.push(Time::from_ps(10), k(0, 0), 1);
        q.push(Time::from_ps(5), k(0, 1), 0);
        assert_eq!(q.pop().unwrap().2, 0);
        q.push(Time::from_ps(7), k(0, 2), 2);
        assert_eq!(q.pop().unwrap().2, 2);
        assert_eq!(q.pop().unwrap().2, 1);
    }

    /// Pushing below the drained-but-active timestamp (the demotion slow
    /// path — unreachable from the engine, legal for the API).
    #[test]
    fn push_below_active_timestamp() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(10), k(0, 0), "b");
        q.push(Time::from_ps(20), k(0, 1), "d");
        assert_eq!(q.pop(), Some((Time::from_ps(10), k(0, 0), "b")));
        // 10 is now the active (exhausted) run; push both below it and
        // at it, then above it.
        q.push(Time::from_ps(5), k(0, 2), "a");
        q.push(Time::from_ps(10), k(0, 3), "c");
        assert_eq!(q.peek_min(), Some((Time::from_ps(5), k(0, 2))));
        assert_eq!(q.pop(), Some((Time::from_ps(5), k(0, 2), "a")));
        assert_eq!(q.pop(), Some((Time::from_ps(10), k(0, 3), "c")));
        assert_eq!(q.pop(), Some((Time::from_ps(20), k(0, 1), "d")));
        assert_eq!(q.pop(), None);
    }

    /// Demotion with the active run only partially consumed.
    #[test]
    fn push_below_partially_drained_run() {
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.push(Time::from_ps(10), k(0, i), i);
        }
        assert_eq!(q.pop(), Some((Time::from_ps(10), k(0, 0), 0)));
        // Same-instant push lands in the side heap, then an earlier
        // push demotes run + side together.
        q.push(Time::from_ps(10), k(1, 0), 100);
        q.push(Time::from_ps(3), k(0, 4), 99);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, e)| e).collect();
        assert_eq!(order, vec![99, 1, 2, 3, 100]);
    }

    /// `pop_batch` drains exactly the leading same-timestamp run, in
    /// pop order, and leaves the next timestamp intact.
    #[test]
    fn pop_batch_drains_one_timestamp() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(5), k(1, 0), "b");
        q.push(Time::from_ps(5), k(0, 0), "a");
        q.push(Time::from_ps(7), k(0, 1), "c");
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out), 2);
        assert_eq!(
            out,
            vec![
                (Time::from_ps(5), k(0, 0), "a"),
                (Time::from_ps(5), k(1, 0), "b"),
            ]
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_batch(&mut out), 1);
        assert_eq!(out, vec![(Time::from_ps(7), k(0, 1), "c")]);
        assert_eq!(q.pop_batch(&mut out), 0);
        assert!(out.is_empty());
    }

    /// `pop_batch` must include side-heap entries (same-instant pushes
    /// after partial drains) merged into key order.
    #[test]
    fn pop_batch_merges_side_heap() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(5), k(0, 0), 0);
        q.push(Time::from_ps(5), k(2, 0), 3);
        assert_eq!(q.pop(), Some((Time::from_ps(5), k(0, 0), 0)));
        // Land two more at the active instant: one ahead of the run
        // head, one behind it.
        q.push(Time::from_ps(5), k(1, 0), 2);
        q.push(Time::from_ps(5), k(0, 1), 1);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out), 3);
        let got: Vec<_> = out.iter().map(|&(_, _, e)| e).collect();
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(q.pop_batch(&mut out), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Same-timestamp events pop in stable FIFO order: per creating
        /// rank they come out in creation order, ties across ranks break
        /// by rank id, and none of it depends on the order events were
        /// pushed into the queue (or whether they arrived via `push` or
        /// the bulk `seed` path).
        #[test]
        fn same_time_pop_order_is_stable_fifo(
            // Few distinct timestamps + few ranks → dense tie collisions.
            items in proptest::collection::vec((0u64..4, 0u32..3), 1..64),
            shuffle in 0u64..=u64::MAX,
        ) {
            // Assign each event its creator's FIFO sequence number.
            let mut next_seq = [0u32; 3];
            let mut events: Vec<(Time, EvKey, usize)> = items
                .iter()
                .enumerate()
                .map(|(payload, &(t, crank))| {
                    let cseq = next_seq[crank as usize];
                    next_seq[crank as usize] += 1;
                    (Time::from_ps(t), EvKey { crank, cseq }, payload)
                })
                .collect();

            let mut expected = events.clone();
            expected.sort_by_key(|&(t, key, _)| (t, key));

            // Push in a shuffled order (deterministic xorshift walk).
            let mut order: Vec<usize> = (0..events.len()).collect();
            let mut s = shuffle | 1;
            for i in (1..order.len()).rev() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                order.swap(i, (s % (i as u64 + 1)) as usize);
            }

            let mut q = EventQueue::new();
            for &i in &order {
                let (t, key, p) = events[i];
                q.push(t, key, p);
            }
            let mut popped = Vec::new();
            while let Some(e) = q.pop() {
                popped.push(e);
            }
            prop_assert_eq!(&popped, &expected);

            // The bulk-seed path must agree with the push path exactly
            // (under yet another insertion order).
            for i in (1..events.len()).rev() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                events.swap(i, (s % (i as u64 + 1)) as usize);
            }
            let mut q2 = EventQueue::new();
            q2.seed(events);
            let mut popped2 = Vec::new();
            while let Some(e) = q2.pop() {
                popped2.push(e);
            }
            prop_assert_eq!(&popped2, &expected);
        }

        /// Flattening successive `pop_batch` calls yields exactly the
        /// sequence repeated `pop` would — including same-timestamp FIFO
        /// ties — and each batch covers one whole timestamp run.
        #[test]
        fn pop_batch_flattens_to_pop_sequence(
            items in proptest::collection::vec((0u64..4, 0u32..3), 1..64),
        ) {
            let mut next_seq = [0u32; 3];
            let events: Vec<(Time, EvKey, usize)> = items
                .iter()
                .enumerate()
                .map(|(payload, &(t, crank))| {
                    let cseq = next_seq[crank as usize];
                    next_seq[crank as usize] += 1;
                    (Time::from_ps(t), EvKey { crank, cseq }, payload)
                })
                .collect();

            let mut a = EventQueue::new();
            let mut b = EventQueue::new();
            for &(t, key, p) in &events {
                a.push(t, key, p);
                b.push(t, key, p);
            }

            let mut by_pop = Vec::new();
            while let Some(e) = a.pop() {
                by_pop.push(e);
            }

            let mut by_batch = Vec::new();
            let mut scratch = Vec::new();
            loop {
                let n = b.pop_batch(&mut scratch);
                prop_assert_eq!(n, scratch.len());
                if n == 0 {
                    break;
                }
                // A batch is exactly one timestamp run: uniform inside,
                // strictly earlier than whatever remains queued.
                let t0 = scratch[0].0;
                prop_assert!(scratch.iter().all(|&(t, _, _)| t == t0));
                if let Some(next) = b.peek_time() {
                    prop_assert!(next > t0);
                }
                by_batch.extend_from_slice(&scratch);
            }
            prop_assert_eq!(&by_batch, &by_pop);
        }

        /// Interleaved pushes and pops — including pushes at and below
        /// the timestamp currently being drained — always produce the
        /// globally sorted `(time, crank, cseq)` sequence. This walks
        /// the activation, side-heap, and demotion paths randomly.
        #[test]
        fn interleaved_ops_stay_sorted(
            script in proptest::collection::vec((0u64..6, 0u32..3, 0u8..2), 1..80),
        ) {
            let mut next_seq = [0u32; 3];
            let mut q = EventQueue::new();
            let mut live: Vec<(Time, EvKey, usize)> = Vec::new();
            for (i, &(t, crank, do_pop)) in script.iter().enumerate() {
                let do_pop = do_pop == 1;
                let cseq = next_seq[crank as usize];
                next_seq[crank as usize] += 1;
                let key = EvKey { crank, cseq };
                q.push(Time::from_ps(t), key, i);
                live.push((Time::from_ps(t), key, i));
                if do_pop {
                    let got = q.pop().expect("queue non-empty");
                    live.sort_by_key(|&(t, key, _)| (t, key));
                    let expect = live.remove(0);
                    prop_assert_eq!(got, expect);
                }
            }
            live.sort_by_key(|&(t, key, _)| (t, key));
            for expect in live {
                prop_assert_eq!(q.pop(), Some(expect));
            }
            prop_assert_eq!(q.pop(), None);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Thousands of live timestamps at once — the desynchronized
        /// regime of large jittered runs — pushed in random order and
        /// interleaved with `pop`, `pop_batch`, same-instant pushes and
        /// pushes below the active timestamp (demotion while the wave
        /// index is deep), always pop in exactly the order of a sorted
        /// reference.
        #[test]
        fn many_live_waves_stay_sorted(seed in 0u64..=u64::MAX) {
            let mut s = seed | 1;
            let mut rnd = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            let mut next_seq = [0u32; 64];
            let mut key = |r: u64| {
                let crank = (r % 64) as u32;
                let cseq = next_seq[crank as usize];
                next_seq[crank as usize] += 1;
                EvKey { crank, cseq }
            };
            let mut q = EventQueue::new();
            let mut reference = std::collections::BTreeMap::new();
            let mut payload = 0usize;
            let mut push = |q: &mut EventQueue<usize>, refm: &mut std::collections::BTreeMap<_, _>, t: u64, key: EvKey| {
                q.push(Time::from_ps(t), key, payload);
                refm.insert((t, key), payload);
                payload += 1;
            };
            // Build a deep index first: 6000 events over ~5000 distinct
            // timestamps, in random order.
            for _ in 0..6000 {
                let r = rnd();
                push(&mut q, &mut reference, 1000 + r % 10_000, key(r >> 32));
            }
            prop_assert!(q.waves.len() >= 4096, "only {} live waves", q.waves.len());
            let mut now = 0u64;
            let mut demoted_deep = false;
            let mut batch = Vec::new();
            for _ in 0..12_000 {
                let r = rnd();
                match r % 20 {
                    // Causal future pushes keep the index deep.
                    0..=10 => push(&mut q, &mut reference, now + 1 + (r >> 8) % 10_000, key(r >> 32)),
                    // Same-instant pushes land in the side heap.
                    11..=12 => push(&mut q, &mut reference, now, key(r >> 32)),
                    // Below the active timestamp: demotion.
                    13 => {
                        let t = now.saturating_sub(1 + (r >> 8) % 50);
                        demoted_deep |= q.active && t < q.active_t && q.waves.len() >= 1000;
                        push(&mut q, &mut reference, t, key(r >> 32));
                    }
                    14..=17 => {
                        let got = q.pop();
                        let want = reference.pop_first().map(|((t, k), p)| (Time::from_ps(t), k, p));
                        prop_assert_eq!(got, want);
                        if let Some((t, _, _)) = got {
                            now = t.as_ps();
                        }
                    }
                    _ => {
                        let n = q.pop_batch(&mut batch);
                        prop_assert_eq!(n, batch.len());
                        if let Some(&(t, _, _)) = batch.first() {
                            now = t.as_ps();
                            for &got in &batch {
                                let ((rt, rk), rp) = reference.pop_first().expect("reference non-empty");
                                prop_assert_eq!(got, (Time::from_ps(rt), rk, rp));
                            }
                            // The batch took the whole timestamp.
                            prop_assert!(reference.first_key_value().is_none_or(|(&(rt, _), _)| rt > now));
                        } else {
                            prop_assert!(reference.is_empty());
                        }
                    }
                }
                prop_assert_eq!(q.len(), reference.len());
                prop_assert_eq!(
                    q.peek_min(),
                    reference.first_key_value().map(|(&(t, k), _)| (Time::from_ps(t), k))
                );
            }
            prop_assert!(demoted_deep, "no demotion happened with a deep index");
            while let Some(got) = q.pop() {
                let ((t, k), p) = reference.pop_first().expect("reference non-empty");
                prop_assert_eq!(got, (Time::from_ps(t), k, p));
            }
            prop_assert!(reference.is_empty());
        }
    }
}

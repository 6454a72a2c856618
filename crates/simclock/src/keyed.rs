//! Shard-invariant event ordering and a slab-backed keyed queue.
//!
//! The serial [`EventQueue`](crate::EventQueue) breaks ties on *global push
//! order*, which is a total order but not a portable one: the interleaving
//! of pushes depends on how the simulation loop is driven, so two engines
//! that partition the event population differently (one queue vs. one queue
//! per shard) would assign different sequence numbers to the same logical
//! event. [`EventKey`] fixes that by making the tie-breaker a property of
//! the *event itself*:
//!
//! * `time` — the virtual instant the event fires;
//! * `lane` — who created it (`0` for external/system events such as
//!   injected jobs and fault-plan markers, `n + 1` for events created by
//!   node `n`);
//! * `seq` — the creator's own monotonically increasing creation counter.
//!
//! A node's handlers always run in the key order of the node's events, so
//! each node emits events in a deterministic order no matter how the event
//! population is sharded — which makes `(time, lane, seq)` identical across
//! shard counts, and the global sort by key a shard-count-invariant total
//! order. This is the merge rule the sharded engine in `emu::sim` relies
//! on: popping the minimum key across all shard queues replays exactly the
//! serial execution.
//!
//! [`KeyedQueue`] stores payloads in a slab (a `Vec` arena with a free
//! list) and keeps only `(EventKey, slot)` pairs in the binary heap, so
//! sift operations move 32-byte entries instead of whole events and slots
//! are recycled without returning memory to the allocator — the same
//! allocation diet a classic DES event arena provides.

use crate::time::SimTime;
use std::collections::BinaryHeap;

/// Lane reserved for events created outside any node: external injections
/// and build-time markers (e.g. fault-plan annotations). At equal times,
/// system events order before any node-created event.
pub const SYSTEM_LANE: u32 = 0;

/// Canonical, shard-count-invariant identity and ordering of one event:
/// ordered by `(time, lane, seq)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Virtual time the event fires.
    pub time: SimTime,
    /// Creator lane: [`SYSTEM_LANE`] or `node + 1`.
    pub lane: u32,
    /// The creator's per-lane creation counter.
    pub seq: u64,
}

impl EventKey {
    /// The key of an event created by node `node`.
    pub fn for_node(time: SimTime, node: u32, seq: u64) -> Self {
        EventKey {
            time,
            lane: node + 1,
            seq,
        }
    }

    /// The key of a system-lane event (injections, build-time markers).
    pub fn system(time: SimTime, seq: u64) -> Self {
        EventKey {
            time,
            lane: SYSTEM_LANE,
            seq,
        }
    }
}

/// Heap entry: ordering is by key alone (keys are unique per queue), kept
/// reversed so the `BinaryHeap` max-heap pops the smallest key first.
#[derive(PartialEq, Eq)]
struct Entry(EventKey, u32);

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.cmp(&self.0)
    }
}

/// A priority queue of events ordered by [`EventKey`], with payloads kept
/// in a slab arena so heap sifts never move them.
pub struct KeyedQueue<E> {
    heap: BinaryHeap<Entry>,
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    /// Most events ever pending at once (never reset by `pop`/`clear`):
    /// the queue-depth gauge the wall-clock engine profiler reads. Plain
    /// bookkeeping on the owner's thread — it cannot affect event order.
    high_water: usize,
}

impl<E> Default for KeyedQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> KeyedQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        KeyedQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            high_water: 0,
        }
    }

    /// An empty queue with pre-reserved capacity for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        KeyedQueue {
            heap: BinaryHeap::with_capacity(cap),
            slab: Vec::with_capacity(cap),
            free: Vec::new(),
            high_water: 0,
        }
    }

    /// Insert `event` under `key`. Keys must be unique (guaranteed by
    /// construction: every creator stamps a fresh `seq`).
    pub fn push(&mut self, key: EventKey, event: E) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = Some(event);
                s
            }
            None => {
                self.slab.push(Some(event));
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Entry(key, slot));
        if self.heap.len() > self.high_water {
            self.high_water = self.heap.len();
        }
    }

    /// Remove and return the minimum-key event.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        self.heap.pop().map(|Entry(key, slot)| {
            let ev = self.slab[slot as usize]
                .take()
                .expect("keyed queue slot empty");
            self.free.push(slot);
            (key, ev)
        })
    }

    /// The minimum pending key, if any.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|e| e.0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Most events ever pending at once over the queue's lifetime.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total payload slots the slab arena has ever allocated (its memory
    /// footprint in events; slots are recycled, never returned).
    pub fn slab_slots(&self) -> usize {
        self.slab.len()
    }

    /// Slab slots currently on the free list (allocated but unoccupied).
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Reserve space for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
        self.slab.reserve(additional);
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slab.clear();
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_order_is_time_lane_seq() {
        let t1 = SimTime(10);
        let t2 = SimTime(20);
        assert!(EventKey::system(t1, 99) < EventKey::for_node(t1, 0, 0));
        assert!(EventKey::for_node(t1, 0, 5) < EventKey::for_node(t1, 1, 0));
        assert!(EventKey::for_node(t1, 7, 0) < EventKey::for_node(t1, 7, 1));
        assert!(EventKey::for_node(t1, 999, 999) < EventKey::system(t2, 0));
    }

    #[test]
    fn pops_in_key_order() {
        let mut q = KeyedQueue::new();
        let keys = [
            EventKey::for_node(SimTime(5), 2, 0),
            EventKey::system(SimTime(5), 0),
            EventKey::for_node(SimTime(3), 9, 4),
            EventKey::for_node(SimTime(5), 2, 1),
            EventKey::for_node(SimTime(5), 0, 7),
        ];
        for (i, k) in keys.iter().enumerate() {
            q.push(*k, i);
        }
        let mut got = Vec::new();
        let mut last: Option<EventKey> = None;
        while let Some((k, v)) = q.pop() {
            if let Some(prev) = last {
                assert!(k > prev, "key order violated");
            }
            last = Some(k);
            got.push(v);
        }
        assert_eq!(got, vec![2, 1, 4, 0, 3]);
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut q = KeyedQueue::new();
        for round in 0..10u64 {
            for i in 0..100u64 {
                q.push(EventKey::for_node(SimTime(i), 0, round * 100 + i), i);
            }
            while q.pop().is_some() {}
            // After the first round the slab never grows again.
            assert!(q.slab.len() <= 100);
        }
    }

    #[test]
    fn gauges_track_depth_and_slab_occupancy() {
        let mut q = KeyedQueue::new();
        assert_eq!((q.high_water(), q.slab_slots(), q.free_slots()), (0, 0, 0));
        for i in 0..8u64 {
            q.push(EventKey::for_node(SimTime(i), 0, i), i);
        }
        assert_eq!(q.high_water(), 8);
        for _ in 0..5 {
            q.pop();
        }
        // Draining never lowers the high-water mark; freed slots are listed.
        assert_eq!(q.high_water(), 8);
        assert_eq!(q.slab_slots(), 8);
        assert_eq!(q.free_slots(), 5);
        q.push(EventKey::for_node(SimTime(99), 0, 99), 99);
        assert_eq!(q.high_water(), 8, "refill below peak keeps the mark");
        assert_eq!(q.free_slots(), 4, "push reuses a recycled slot");
        assert_eq!(q.slab_slots(), 8);
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = KeyedQueue::new();
        let mut seq = 0u64;
        let mut last: Option<EventKey> = None;
        for step in 0..50u64 {
            for d in 0..4 {
                q.push(EventKey::for_node(SimTime(step * 3 + d), 1, seq), ());
                seq += 1;
            }
            let (k, _) = q.pop().unwrap();
            if let Some(prev) = last {
                assert!(k > prev);
            }
            last = Some(k);
        }
        while let Some((k, _)) = q.pop() {
            assert!(k > last.unwrap());
            last = Some(k);
        }
        assert!(q.is_empty());
    }
}

//! Deterministic event queue.
//!
//! Events are ordered by timestamp; events scheduled for the same instant
//! pop in insertion (FIFO) order. That tie-break is what makes whole-machine
//! runs bit-for-bit reproducible regardless of hash seeds or allocation
//! order.
//!
//! Most event sources schedule in time order (a NIC's merge deadlines,
//! DMA completions, CPU steps, mesh slot drains), so the queue keeps a few
//! FIFO lanes beside a binary heap. A push joins the first lane whose last
//! entry is no later than it, in O(1); only a push earlier than every
//! lane's tail goes to the heap. The queue caches where its earliest entry
//! waits, so [`EventQueue::peek_time`] is a field read and a pop compares
//! the lane fronts with the heap top (DESIGN.md §5m).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// How many in-order lanes sit beside the heap. On the benchmark's
/// session workloads four lanes serve 87–89% of the mesh's pops and two
/// about half; one lane leaves `auto_stream` a heap 105k entries deep.
const LANES: usize = 4;

/// An entry's place in the pop order: its time, then its push order.
type Key = (SimTime, u64);

/// Where an entry waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Lane(usize),
    Heap,
}

/// A time-ordered priority queue of simulation events with FIFO
/// tie-breaking.
///
/// # Examples
///
/// ```
/// use shrimp_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_picos(10), "b");
/// q.push(SimTime::from_picos(10), "c");
/// q.push(SimTime::from_picos(5), "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, vec!["a", "b", "c"]);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The earliest entry's key and where it waits; `None` when empty.
    head: Option<(Key, Slot)>,
    /// FIFO lanes. A lane takes a push only when its last entry is no
    /// later, and sequence numbers only grow, so each lane is sorted by
    /// key.
    lanes: [VecDeque<Entry<E>>; LANES],
    /// Each lane's last time, `SimTime::ZERO` when the lane is empty (so
    /// an empty lane takes any time).
    backs: [SimTime; LANES],
    /// The pushes that were earlier than every lane's tail.
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> Key {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest time (then lowest
        // sequence number) pops first.
        other.key().cmp(&self.key())
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// Creates an empty queue whose heap has room for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            head: None,
            lanes: Default::default(),
            backs: [SimTime::ZERO; LANES],
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { time, seq, event };
        let slot = match self.backs.iter().position(|&back| back <= time) {
            Some(i) => {
                self.lanes[i].push_back(entry);
                self.backs[i] = time;
                Slot::Lane(i)
            }
            None => {
                self.heap.push(entry);
                Slot::Heap
            }
        };
        if self.head.is_none_or(|(head, _)| (time, seq) < head) {
            self.head = Some(((time, seq), slot));
        }
        self.debug_check();
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.debug_check();
        let (_, slot) = self.head?;
        let entry = match slot {
            Slot::Lane(i) => {
                let entry = self.lanes[i].pop_front().expect("the head's lane holds it");
                if self.lanes[i].is_empty() {
                    self.backs[i] = SimTime::ZERO;
                }
                entry
            }
            Slot::Heap => self.heap.pop().expect("the heap holds the head"),
        };
        self.head = self.scan();
        Some((entry.time, entry.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head.map(|((time, _), _)| time)
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    /// The earliest entry over the lane fronts and the heap top.
    fn scan(&self) -> Option<(Key, Slot)> {
        let mut head = self.heap.peek().map(|e| (e.key(), Slot::Heap));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(e) = lane.front() {
                if head.is_none_or(|(best, _)| e.key() < best) {
                    head = Some((e.key(), Slot::Lane(i)));
                }
            }
        }
        head
    }

    /// Debug builds check the cached head against a scan and each lane's
    /// back time against its last entry.
    fn debug_check(&self) {
        debug_assert_eq!(self.head, self.scan(), "cached queue head went stale");
        debug_assert!(
            self.lanes
                .iter()
                .zip(&self.backs)
                .all(|(lane, &back)| back == lane.back().map_or(SimTime::ZERO, |e| e.time)),
            "a lane's back time went stale"
        );
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ps: u64) -> SimTime {
        SimTime::from_picos(ps)
    }

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), 3);
        q.push(t(10), 1);
        q.push(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn interleaved_pushes_keep_fifo_within_instant() {
        let mut q = EventQueue::new();
        q.push(t(5), "a");
        q.push(t(1), "early");
        q.push(t(5), "b");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(t(42), ());
        assert_eq!(q.peek_time(), Some(t(42)));
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((t(42), ())));
    }

    /// Fills all four lanes with the tails 40, 30, 20, 15 and returns the
    /// queue; every later push below 15 goes to the heap.
    fn four_full_lanes() -> EventQueue<&'static str> {
        let mut q = EventQueue::new();
        for (time, name) in [(40, "l0"), (30, "l1"), (20, "l2"), (15, "l3")] {
            q.push(t(time), name);
        }
        assert_eq!(q.backs, [t(40), t(30), t(20), t(15)]);
        assert!(q.heap.is_empty());
        q
    }

    #[test]
    fn equal_times_across_a_lane_and_the_heap_pop_in_push_order() {
        let mut q = EventQueue::new();
        q.push(t(10), "lane 10");
        for (time, name) in [(8, "l1"), (6, "l2"), (4, "l3")] {
            q.push(t(time), name);
        }
        q.push(t(20), "l0 tail"); // the lanes' tails: 20, 8, 6, 4
        for (time, name) in [(15, "l1 tail"), (12, "l2 tail"), (11, "l3 tail")] {
            q.push(t(time), name);
        }
        q.push(t(10), "heap 10");
        assert_eq!(q.heap.len(), 1);
        assert_eq!(
            drain(&mut q),
            ["l3", "l2", "l1", "lane 10", "heap 10", "l3 tail", "l2 tail", "l1 tail", "l0 tail"]
        );
    }

    #[test]
    fn a_push_earlier_than_every_tail_goes_to_the_heap_and_pops_first() {
        let mut q = four_full_lanes();
        q.push(t(14), "early");
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.peek_time(), Some(t(14)));
        assert_eq!(drain(&mut q), ["early", "l3", "l2", "l1", "l0"]);
    }

    #[test]
    fn an_emptied_lane_takes_an_earlier_time() {
        let mut q = four_full_lanes();
        assert_eq!(q.pop(), Some((t(15), "l3")));
        assert_eq!(q.backs[3], SimTime::ZERO);
        q.push(t(1), "into l3");
        assert!(q.heap.is_empty());
        assert_eq!(q.backs[3], t(1));
        assert_eq!(q.peek_time(), Some(t(1)));
        assert_eq!(drain(&mut q), ["into l3", "l2", "l1", "l0"]);
    }

    #[test]
    fn nondecreasing_pushes_never_reach_the_heap() {
        let mut q = EventQueue::new();
        let mut popped = 0;
        for i in 0..10_000u64 {
            q.push(t(i / 3), i);
            if i % 4 == 3 {
                assert_eq!(q.pop().map(|(_, e)| e), Some(popped));
                popped += 1;
            }
        }
        assert!(q.heap.is_empty());
        assert_eq!(drain(&mut q), (popped..10_000).collect::<Vec<_>>());
    }
}

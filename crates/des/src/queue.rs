//! The event queue at the heart of the discrete-event engine.
//!
//! Events are ordered by timestamp; ties are broken by insertion sequence
//! number so that simultaneous events fire in the order they were scheduled.
//! That rule makes the whole simulation deterministic: there is exactly one
//! legal execution for a given seed.
//!
//! Two interchangeable scheduler backends implement that contract: a binary
//! heap (the reference) and a calendar queue (the ns-2 style bucketed
//! timing wheel that is the default). Both pop the exact same
//! `(time, seq)` sequence, so the choice is a pure performance knob —
//! property-tested for equivalence in `crate::properties`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::calendar::CalendarQueue;
use crate::time::SimTime;

/// Which future-event-list implementation an [`EventQueue`] runs on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SchedulerKind {
    /// Binary heap: O(log n) schedule/pop. The reference implementation.
    Heap,
    /// Calendar queue (bucketed timing wheel): amortized O(1) schedule/pop
    /// under simulation-like workloads. Bit-identical pop order to `Heap`.
    #[default]
    Calendar,
}

/// One scheduled occurrence as stored inside a backend: timestamp, global
/// insertion sequence, and the slot of its payload entry.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Item {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) slot: usize,
}

/// Heap wrapper ordering items min-first by `(time, seq)`.
struct HeapItem(Item);

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest first.
        other
            .0
            .at
            .cmp(&self.0.at)
            .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

enum Backend {
    Heap(BinaryHeap<HeapItem>),
    Calendar(CalendarQueue),
}

impl Backend {
    fn push(&mut self, item: Item) {
        match self {
            Backend::Heap(h) => h.push(HeapItem(item)),
            Backend::Calendar(c) => c.push(item),
        }
    }

    /// Remove and return the minimal `(at, seq)` item.
    fn take_min(&mut self) -> Option<Item> {
        match self {
            Backend::Heap(h) => h.pop().map(|h| h.0),
            Backend::Calendar(c) => c.take_min(),
        }
    }

    /// Undo a `take_min`: re-insert `item` and restore any cursor state to
    /// the caller's clock `now_ticks`.
    fn unpop(&mut self, item: Item, now_ticks: u64) {
        match self {
            Backend::Heap(h) => h.push(HeapItem(item)),
            Backend::Calendar(c) => c.unpop(item, now_ticks),
        }
    }

    fn len(&self) -> usize {
        match self {
            Backend::Heap(h) => h.len(),
            Backend::Calendar(c) => c.len(),
        }
    }

    fn iter(&self) -> Box<dyn Iterator<Item = &Item> + '_> {
        match self {
            Backend::Heap(h) => Box::new(h.iter().map(|hi| &hi.0)),
            Backend::Calendar(c) => Box::new(c.iter()),
        }
    }
}

/// A deterministic future-event list.
///
/// `E` is the simulation's event payload type. On the default
/// calendar-queue backend schedule and pop are amortized O(1). Popping
/// never returns an event earlier than the last popped time, so causality
/// is monotone. Every scheduled event fires: there is no cancellation, so
/// every stored item is live.
pub struct EventQueue<E> {
    backend: Backend,
    /// Payload slab indexed by `Item::slot`; `None` marks a free slot.
    entries: Vec<Option<E>>,
    free: Vec<usize>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at zero, on the default
    /// (calendar-queue) scheduler.
    pub fn new() -> Self {
        Self::with_scheduler(SchedulerKind::default())
    }

    /// Create an empty queue on an explicit scheduler backend. The choice
    /// affects performance only: pop sequences are bit-identical.
    pub fn with_scheduler(kind: SchedulerKind) -> Self {
        let backend = match kind {
            SchedulerKind::Heap => Backend::Heap(BinaryHeap::new()),
            SchedulerKind::Calendar => Backend::Calendar(CalendarQueue::new()),
        };
        EventQueue {
            backend,
            entries: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The backend this queue runs on.
    pub fn scheduler(&self) -> SchedulerKind {
        match self.backend {
            Backend::Heap(_) => SchedulerKind::Heap,
            Backend::Calendar(_) => SchedulerKind::Calendar,
        }
    }

    /// The current simulation time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever scheduled on this queue (the insertion-sequence
    /// high-water mark; includes popped events).
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// Panics if `at` is earlier than the current time (scheduling into the
    /// past would break causality).
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={:?} now={:?}",
            at,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.entries[slot] = Some(payload);
                slot
            }
            None => {
                self.entries.push(Some(payload));
                self.entries.len() - 1
            }
        };
        self.backend.push(Item { at, seq, slot });
    }

    /// Remove and return the earliest pending event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_before(SimTime::MAX)
    }

    /// Remove and return the earliest pending event *iff* its timestamp is
    /// `<= limit`; otherwise leave the queue untouched and return `None`.
    ///
    /// This is the horizon-bounded variant the simulation loop uses: one
    /// amortized O(1)/O(log n) operation instead of a peek-scan followed by
    /// a pop. The clock only advances when an event is actually returned.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let item = self.backend.take_min()?;
        if item.at > limit {
            self.backend.unpop(item, self.now.ticks());
            return None;
        }
        let payload = self.entries[item.slot]
            .take()
            .expect("stored item has a payload");
        self.free.push(item.slot);
        debug_assert!(item.at >= self.now, "event queue time went backwards");
        self.now = item.at;
        Some((item.at, payload))
    }

    /// Calendar-backend diagnostics (`[pops, window_visits, fallback_scans,
    /// rebuilds, width, buckets, items, slots]`, where `slots` is the item
    /// capacity the bucket buffers retain), `None` on the heap backend.
    #[doc(hidden)]
    pub fn calendar_stats(&self) -> Option<[u64; 8]> {
        match &self.backend {
            Backend::Heap(_) => None,
            Backend::Calendar(c) => Some(c.stats()),
        }
    }

    /// Timestamp of the earliest pending event, if any, without popping it.
    ///
    /// O(n): scans the backend without mutating. Use
    /// [`pop_before`](Self::pop_before) on hot paths.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.backend.iter().map(|item| item.at).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Every test runs against both backends; they must be interchangeable.
    fn on_both(test: impl Fn(EventQueue<&'static str>)) {
        test(EventQueue::with_scheduler(SchedulerKind::Heap));
        test(EventQueue::with_scheduler(SchedulerKind::Calendar));
    }

    #[test]
    fn default_scheduler_is_calendar() {
        let q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.scheduler(), SchedulerKind::Calendar);
    }

    #[test]
    fn pops_in_time_order() {
        on_both(|mut q| {
            q.schedule(t(3), "c");
            q.schedule(t(1), "a");
            q.schedule(t(2), "b");
            assert_eq!(q.pop(), Some((t(1), "a")));
            assert_eq!(q.pop(), Some((t(2), "b")));
            assert_eq!(q.pop(), Some((t(3), "c")));
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn ties_break_by_insertion_order() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut q = EventQueue::with_scheduler(kind);
            q.schedule(t(5), 1);
            q.schedule(t(5), 2);
            q.schedule(t(5), 3);
            assert_eq!(q.pop().unwrap().1, 1);
            assert_eq!(q.pop().unwrap().1, 2);
            assert_eq!(q.pop().unwrap().1, 3);
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        on_both(|mut q| {
            q.schedule(t(7), "x");
            assert_eq!(q.now(), SimTime::ZERO);
            q.pop();
            assert_eq!(q.now(), t(7));
        });
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(5), ());
        q.pop();
        q.schedule(t(4), ());
    }

    #[test]
    fn pop_before_respects_the_limit() {
        on_both(|mut q| {
            q.schedule(t(1), "a");
            q.schedule(t(5), "b");
            assert_eq!(q.pop_before(t(3)), Some((t(1), "a")));
            assert_eq!(q.pop_before(t(3)), None);
            assert_eq!(q.len(), 1, "over-limit event stays queued");
            assert_eq!(q.now(), t(1), "clock must not advance past the limit");
            assert_eq!(q.pop_before(t(5)), Some((t(5), "b")));
        });
    }

    #[test]
    fn schedule_behind_an_over_limit_event() {
        // Regression: pop_before must rewind the cursor when it re-inserts
        // an over-the-horizon event, or an earlier later-scheduled event
        // would be missed by the wheel sweep.
        on_both(|mut q| {
            q.schedule(t(1), "first");
            q.schedule(t(100), "far");
            assert_eq!(q.pop(), Some((t(1), "first"))); // now = 1s
            assert_eq!(q.pop_before(t(10)), None, "far event is over limit");
            q.schedule(t(2), "early");
            assert_eq!(q.pop(), Some((t(2), "early")));
            assert_eq!(q.pop(), Some((t(100), "far")));
        });
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut q = EventQueue::with_scheduler(kind);
            q.schedule(t(1), 1u32);
            let (now, v) = q.pop().unwrap();
            assert_eq!(v, 1);
            q.schedule(now + SimDuration::from_secs(1), 2);
            q.schedule(now + SimDuration::from_secs(3), 4);
            q.schedule(now + SimDuration::from_secs(2), 3);
            let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
            assert_eq!(order, vec![2, 3, 4]);
        }
    }

    #[test]
    fn large_volume_stays_sorted() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut rng = crate::rng::Rng::new(99);
            let mut q = EventQueue::with_scheduler(kind);
            for _ in 0..10_000 {
                let at = SimTime::from_ticks(rng.below(1_000_000));
                q.schedule(at, at);
            }
            let mut last = SimTime::ZERO;
            while let Some((at, payload)) = q.pop() {
                assert_eq!(at, payload);
                assert!(at >= last);
                last = at;
            }
        }
    }
}

//! The deterministic bounded-lag message queue.
//!
//! Cross-domain coherence traffic in the windowed engine rides this queue:
//! a message sent during an epoch is delivered at a fixed future simulated
//! cycle (the window horizon), and delivery order is a *total* order on
//! `(deliver_cycle, sender, seq)` where `seq` is a per-sender FIFO counter.
//! Because the key never involves wall-clock time or heap addresses, the
//! delivery sequence is a pure function of what each sender sent and in
//! which per-sender order — independent of how sends from different
//! senders interleaved in real time. That property is what makes the
//! sharded engine's results byte-identical at any shard count, and it is
//! property-tested below.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Total-order delivery key: `(deliver_cycle, sender, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    deliver: u64,
    sender: u32,
    seq: u64,
}

struct Entry<T> {
    key: Key,
    payload: T,
}

// Order entries by key alone so `T` needs no `Ord`.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want min-key-first.
        other.key.cmp(&self.key)
    }
}

/// A delayed-delivery queue with deterministic total ordering.
///
/// Senders are dense small integers (domain indices). Each `send` stamps
/// the message with the sender's next FIFO sequence number; `drain_until`
/// delivers every message whose delivery cycle has been reached, in
/// `(deliver_cycle, sender, seq)` order.
#[derive(Default)]
pub(crate) struct DelayedQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: Vec<u64>,
}

impl<T> DelayedQueue<T> {
    /// An empty queue for `senders` distinct sender ids.
    pub fn new(senders: usize) -> Self {
        DelayedQueue {
            heap: BinaryHeap::new(),
            next_seq: vec![0; senders],
        }
    }

    /// Messages currently in flight.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no messages are in flight.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Enqueue `payload` from `sender` for delivery at `deliver_cycle`.
    /// Returns the per-sender sequence number assigned.
    ///
    /// # Panics
    /// Panics if `sender` is out of range.
    pub fn send(&mut self, deliver_cycle: u64, sender: u32, payload: T) -> u64 {
        let seq = self.next_seq[sender as usize];
        self.next_seq[sender as usize] += 1;
        self.heap.push(Entry {
            key: Key {
                deliver: deliver_cycle,
                sender,
                seq,
            },
            payload,
        });
        seq
    }

    /// Deliver every message with `deliver_cycle <= cycle` to `f`, in
    /// `(deliver_cycle, sender, seq)` order. Returns how many were
    /// delivered.
    pub fn drain_until(&mut self, cycle: u64, mut f: impl FnMut(u64, u32, T)) -> u64 {
        let mut delivered = 0;
        while let Some(top) = self.heap.peek() {
            if top.key.deliver > cycle {
                break;
            }
            let e = self.heap.pop().expect("peeked entry");
            f(e.key.deliver, e.key.sender, e.payload);
            delivered += 1;
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn delivers_in_cycle_then_sender_then_seq_order() {
        let mut q = DelayedQueue::new(3);
        q.send(20, 2, "c");
        q.send(10, 1, "b1");
        q.send(10, 0, "a");
        q.send(10, 1, "b2");
        let mut out = Vec::new();
        let n = q.drain_until(20, |d, s, p| out.push((d, s, p)));
        assert_eq!(n, 4);
        assert_eq!(
            out,
            vec![(10, 0, "a"), (10, 1, "b1"), (10, 1, "b2"), (20, 2, "c")]
        );
    }

    #[test]
    fn drain_respects_the_delivery_horizon() {
        let mut q = DelayedQueue::new(1);
        q.send(5, 0, 'x');
        q.send(15, 0, 'y');
        let mut out = Vec::new();
        assert_eq!(q.drain_until(10, |_, _, p| out.push(p)), 1);
        assert_eq!(out, vec!['x']);
        assert_eq!(q.len(), 1);
        assert_eq!(q.drain_until(15, |_, _, p| out.push(p)), 1);
        assert_eq!(out, vec!['x', 'y']);
        assert!(q.is_empty());
    }

    #[test]
    fn per_sender_fifo_preserved_at_equal_cycles() {
        let mut q = DelayedQueue::new(2);
        for i in 0..50u32 {
            q.send(100, i % 2, i);
        }
        let mut per_sender: Vec<Vec<u32>> = vec![Vec::new(); 2];
        q.drain_until(100, |_, s, p| per_sender[s as usize].push(p));
        assert_eq!(per_sender[0], (0..50).step_by(2).collect::<Vec<_>>());
        assert_eq!(per_sender[1], (1..50).step_by(2).collect::<Vec<_>>());
    }

    proptest! {
        /// The satellite property: delivery order is a pure function of
        /// (deliver cycle, sender, per-sender seq). Two queues fed the
        /// same per-sender message streams under *different* cross-sender
        /// interleavings (modelling arbitrary real-time racing) deliver
        /// the exact same sequence.
        #[test]
        fn delivery_order_is_interleaving_invariant(
            streams in prop::collection::vec(
                prop::collection::vec(0u64..8, 0..20),
                1..5usize,
            ),
            shuffle_seed in any::<u64>(),
        ) {
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};

            // Per-sender streams of delivery cycles; payload identifies
            // (sender, position) so FIFO violations are visible.
            let feed = |order_rng: &mut SmallRng| {
                let mut q = DelayedQueue::new(streams.len());
                let mut cursors = vec![0usize; streams.len()];
                let mut remaining: usize = streams.iter().map(|s| s.len()).sum();
                while remaining > 0 {
                    // Pick a random sender that still has messages; send
                    // its next one. Per-sender order is preserved,
                    // cross-sender interleaving is random.
                    let s = loop {
                        let s = order_rng.gen_range(0..streams.len());
                        if cursors[s] < streams[s].len() {
                            break s;
                        }
                    };
                    let pos = cursors[s];
                    cursors[s] += 1;
                    remaining -= 1;
                    q.send(streams[s][pos], s as u32, (s, pos));
                }
                let mut out = Vec::new();
                q.drain_until(u64::MAX, |d, snd, p| out.push((d, snd, p)));
                out
            };

            let a = feed(&mut SmallRng::seed_from_u64(shuffle_seed));
            let b = feed(&mut SmallRng::seed_from_u64(shuffle_seed.wrapping_add(1)));
            prop_assert_eq!(&a, &b);

            // And within the delivered sequence, per-sender payloads are
            // FIFO at equal delivery cycles.
            for s in 0..streams.len() {
                let mut last: Option<(u64, usize)> = None;
                for &(d, _, (ps, pos)) in &a {
                    if ps != s {
                        continue;
                    }
                    if let Some((ld, lpos)) = last {
                        if ld == d {
                            prop_assert!(lpos < pos, "FIFO violated for sender {}", s);
                        }
                    }
                    last = Some((d, pos));
                }
            }
        }
    }
}

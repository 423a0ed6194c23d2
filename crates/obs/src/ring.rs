//! The bounded ring every observation buffer is built on.

use std::collections::VecDeque;

/// Bounded FIFO ring: the newest `capacity` items win and evictions are
/// counted, so recording never grows memory unpredictably and an export
/// can say how much of a run it covers (`len() + dropped()` items were
/// offered).
#[derive(Debug, Clone)]
pub struct BoundedRing<T> {
    ring: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Default for BoundedRing<T> {
    fn default() -> Self {
        BoundedRing::new(0)
    }
}

impl<T> BoundedRing<T> {
    /// Creates a ring retaining at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        BoundedRing {
            ring: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an item, evicting the oldest when full (at capacity 0
    /// the item itself is counted as dropped).
    pub fn push(&mut self, item: T) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(item);
    }

    /// The most items the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no items are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Items evicted (or refused at capacity 0).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates over retained items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.ring.iter()
    }

    /// Consumes the ring into a vector, oldest first.
    pub fn into_vec(self) -> Vec<T> {
        self.ring.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_retains_newest_and_counts_evictions() {
        let mut r = BoundedRing::new(3);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!((r.len(), r.dropped(), r.capacity()), (3, 2, 3));
        assert_eq!(r.into_vec(), vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut r = BoundedRing::new(0);
        r.push(1);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
    }
}

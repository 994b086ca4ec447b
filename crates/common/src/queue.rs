//! The simple queue abstraction from the Moira application library (§5.6.3).
//!
//! A growable ring-buffer FIFO, kept as part of the reproduced library
//! surface: nothing in the workspace queues through it today (the DCM
//! orders host updates by todo index, the server loop's pending replies
//! live in each channel's outbox); its only caller is the model-based
//! property test in `tests/prop.rs`.

/// A FIFO queue over a growable ring buffer.
#[derive(Debug, Clone)]
pub struct Queue<T> {
    items: std::collections::VecDeque<T>,
}

impl<T> Queue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Queue {
            items: std::collections::VecDeque::new(),
        }
    }

    /// Appends an element at the tail.
    pub fn enqueue(&mut self, item: T) {
        self.items.push_back(item);
    }

    /// Removes and returns the head element, if any.
    pub fn dequeue(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the head element without removing it.
    pub fn peek(&self) -> Option<&T> {
        self.items.front()
    }

    /// Number of queued elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Drains the queue in FIFO order.
    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        self.items.drain(..)
    }
}

impl<T> Default for Queue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FromIterator<T> for Queue<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Queue {
            items: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = Queue::new();
        q.enqueue(1);
        q.enqueue(2);
        q.enqueue(3);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = Queue::new();
        q.enqueue("a");
        assert_eq!(q.peek(), Some(&"a"));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_operations() {
        let mut q = Queue::new();
        q.enqueue(1);
        assert_eq!(q.dequeue(), Some(1));
        q.enqueue(2);
        q.enqueue(3);
        assert_eq!(q.dequeue(), Some(2));
        q.enqueue(4);
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), Some(4));
        assert!(q.is_empty());
    }

    #[test]
    fn from_iterator_and_drain() {
        let mut q: Queue<i32> = (0..5).collect();
        let drained: Vec<i32> = q.drain().collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }
}

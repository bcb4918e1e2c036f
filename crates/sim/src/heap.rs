//! A 4-ary min-heap over small `Copy` keys.
//!
//! [`QuadHeap`] is the priority queue behind the engine's active set and the
//! workload's cohort wake-up lists. Each node has four children instead of
//! two, so the tree is half as deep: a push climbs about `log4 n` levels
//! and a pop descends as many, comparing the (adjacent, usually same cache
//! line) children of one node per level. Keys are moved by value, which is
//! why `T: Copy`; the engine's keys are 24 bytes.
//!
//! Pop order is the ascending order of `T`. Equal keys come out in an
//! unspecified order, exactly as from [`std::collections::BinaryHeap`]; the
//! callers in this workspace only store keys that carry a unique sequence
//! number, so any exact priority queue pops them in the same order.

/// Children per node.
const ARITY: usize = 4;

/// A 4-ary min-heap: [`QuadHeap::pop`] returns the smallest key.
///
/// # Examples
///
/// ```
/// use dcm_sim::heap::QuadHeap;
///
/// let mut heap = QuadHeap::new();
/// for key in [5, 1, 4, 1, 3] {
///     heap.push(key);
/// }
/// assert_eq!(heap.peek(), Some(&1));
/// let order: Vec<i32> = std::iter::from_fn(|| heap.pop()).collect();
/// assert_eq!(order, vec![1, 1, 3, 4, 5]);
/// ```
#[derive(Debug, Default)]
pub struct QuadHeap<T> {
    data: Vec<T>,
}

impl<T: Ord + Copy> QuadHeap<T> {
    /// An empty heap.
    pub fn new() -> Self {
        QuadHeap { data: Vec::new() }
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the heap holds no keys.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The smallest key, if any.
    pub fn peek(&self) -> Option<&T> {
        self.data.first()
    }

    /// Adds a key.
    pub fn push(&mut self, key: T) {
        let mut hole = self.data.len();
        self.data.push(key);
        // Move larger ancestors down into the hole, then drop the key in.
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            let above = self.data[parent];
            if key >= above {
                break;
            }
            self.data[hole] = above;
            hole = parent;
        }
        self.data[hole] = key;
    }

    /// Removes and returns the smallest key.
    pub fn pop(&mut self) -> Option<T> {
        let last = self.data.pop()?;
        let Some(&top) = self.data.first() else {
            return Some(last);
        };
        // Sift `last` down from the root: at each level the smallest child
        // moves up into the hole while it is below `last`.
        let len = self.data.len();
        let mut hole = 0;
        loop {
            let first = hole * ARITY + 1;
            if first >= len {
                break;
            }
            let end = len.min(first + ARITY);
            let mut child = first;
            let mut least = self.data[first];
            for c in first + 1..end {
                let key = self.data[c];
                if key < least {
                    child = c;
                    least = key;
                }
            }
            if least >= last {
                break;
            }
            self.data[hole] = least;
            hole = child;
        }
        self.data[hole] = last;
        Some(top)
    }
}

//! A node's ready queue: its first four tasks stored in place.
//!
//! A block-distributed round seeds every node with a handful of roots
//! (four per node on the scale runs), so a queue that allocated on its
//! first push would cost each node one heap block of its own — at
//! 250 000 nodes more than the rest of the node's state together. This
//! queue keeps up to four tasks inside the node's kernel and moves
//! them to a `VecDeque` only when a fifth arrives. A spilled queue
//! stays spilled, keeping its capacity like a plain `VecDeque` does.

use std::collections::VecDeque;

use crate::TaskInstance;

/// Tasks a [`TaskQueue`] holds before it allocates.
const INLINE: usize = 4;

/// FIFO of ready tasks with a `VecDeque`'s semantics for the operations
/// the schedulers use: push at the back, pop at the front, index,
/// remove, and cutting the newest tasks off the back.
pub struct TaskQueue(Slots);

enum Slots {
    /// The first `len` entries of `buf` are the queue, oldest first.
    Inline {
        len: u8,
        buf: [TaskInstance; INLINE],
    },
    Spilled(VecDeque<TaskInstance>),
}

impl Default for TaskQueue {
    fn default() -> Self {
        TaskQueue(Slots::Inline {
            len: 0,
            buf: [TaskInstance { task: 0, origin: 0 }; INLINE],
        })
    }
}

impl TaskQueue {
    /// Number of queued tasks.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Slots::Inline { len, .. } => *len as usize,
            Slots::Spilled(d) => d.len(),
        }
    }

    /// `true` when no task is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queues `task` behind every other.
    #[inline]
    pub fn push_back(&mut self, task: TaskInstance) {
        match &mut self.0 {
            Slots::Inline { len, buf } if (*len as usize) < INLINE => {
                buf[*len as usize] = task;
                *len += 1;
            }
            Slots::Inline { buf, .. } => {
                let mut d = VecDeque::with_capacity(2 * INLINE);
                d.extend(*buf);
                d.push_back(task);
                self.0 = Slots::Spilled(d);
            }
            Slots::Spilled(d) => d.push_back(task),
        }
    }

    /// Takes the oldest task.
    #[inline]
    pub fn pop_front(&mut self) -> Option<TaskInstance> {
        match &mut self.0 {
            Slots::Inline { .. } => self.remove(0),
            Slots::Spilled(d) => d.pop_front(),
        }
    }

    /// Takes the task at `idx` (0 is the oldest), closing the gap; `None`
    /// when `idx` is past the end.
    pub fn remove(&mut self, idx: usize) -> Option<TaskInstance> {
        match &mut self.0 {
            Slots::Inline { len, buf } => {
                let n = *len as usize;
                if idx >= n {
                    return None;
                }
                let task = buf[idx];
                buf.copy_within(idx + 1..n, idx);
                *len -= 1;
                Some(task)
            }
            Slots::Spilled(d) => d.remove(idx),
        }
    }

    /// Cuts the `n` newest tasks off the back, newest first: freshly
    /// spawned work is the cheapest to move.
    ///
    /// # Panics
    /// Panics if fewer than `n` tasks are queued.
    pub fn take_newest(&mut self, n: usize) -> Vec<TaskInstance> {
        let from = self
            .len()
            .checked_sub(n)
            .expect("cannot take more tasks than are queued");
        match &mut self.0 {
            Slots::Inline { len, buf } => {
                let newest = buf[from..*len as usize].iter().rev().copied().collect();
                *len = from as u8;
                newest
            }
            Slots::Spilled(d) => d.drain(from..).rev().collect(),
        }
    }

    /// The queued tasks, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &TaskInstance> {
        let (front, back) = match &self.0 {
            Slots::Inline { len, buf } => (&buf[..*len as usize], &[][..]),
            Slots::Spilled(d) => d.as_slices(),
        };
        front.iter().chain(back)
    }
}

impl std::ops::Index<usize> for TaskQueue {
    type Output = TaskInstance;

    fn index(&self, idx: usize) -> &TaskInstance {
        match &self.0 {
            Slots::Inline { len, buf } => &buf[..*len as usize][idx],
            Slots::Spilled(d) => &d[idx],
        }
    }
}

impl Extend<TaskInstance> for TaskQueue {
    fn extend<I: IntoIterator<Item = TaskInstance>>(&mut self, tasks: I) {
        for task in tasks {
            self.push_back(task);
        }
    }
}

impl std::fmt::Debug for TaskQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn task(id: u32) -> TaskInstance {
        TaskInstance::new(id, id as usize % 7)
    }

    #[test]
    fn four_tasks_stay_inline_and_the_fifth_spills() {
        let mut q = TaskQueue::default();
        q.extend((0..4).map(task));
        assert!(matches!(q.0, Slots::Inline { len: 4, .. }));
        q.push_back(task(4));
        assert!(matches!(q.0, Slots::Spilled(_)));
        let order: Vec<u32> = q.iter().map(|t| t.task).collect();
        assert_eq!(order, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn the_queue_is_five_words() {
        assert_eq!(std::mem::size_of::<TaskQueue>(), 40);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any mix of pushes, pops, removes and newest-first cuts reads
        /// back as the same `VecDeque` would, on both sides of the
        /// spill: lengths, every index, and the iteration order.
        #[test]
        fn behaves_like_a_vecdeque(
            ops in collection::vec((0u8..10, 0u32..1_000, 0usize..8), 0..60)
        ) {
            let (mut q, mut r) = (TaskQueue::default(), VecDeque::new());
            for (op, id, at) in ops {
                match op {
                    0..=3 => {
                        q.push_back(task(id));
                        r.push_back(task(id));
                    }
                    4 => {
                        let batch: Vec<_> = (0..at as u32).map(|k| task(id + k)).collect();
                        q.extend(batch.iter().copied());
                        r.extend(batch);
                    }
                    5 | 6 => prop_assert_eq!(q.pop_front(), r.pop_front()),
                    7 => prop_assert_eq!(q.remove(at), r.remove(at)),
                    _ => {
                        let n = at.min(r.len());
                        let newest: Vec<_> = r.drain(r.len() - n..).rev().collect();
                        prop_assert_eq!(q.take_newest(n), newest);
                    }
                }
                prop_assert_eq!(q.len(), r.len());
                prop_assert_eq!(q.is_empty(), r.is_empty());
                for (i, t) in r.iter().enumerate() {
                    prop_assert_eq!(q[i], *t);
                }
                prop_assert!(q.iter().eq(r.iter()));
                prop_assert!(q.iter().rev().eq(r.iter().rev()));
            }
        }
    }
}

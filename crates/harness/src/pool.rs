//! The fan-out behind the worker pool.
//!
//! Cells are all known before the first worker starts (repetitions are
//! an independent seed sweep) and no cell ever enqueues new work, so the
//! scheduler is a shared cursor over `0..len`: each worker claims the
//! next unclaimed position until none are left. Results are slotted by
//! input index, never by who ran them, so the claim order is invisible
//! in every artifact.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A claim cursor over the positions `0..len`, shared by the workers.
pub struct Cursor {
    next: AtomicUsize,
    len: usize,
}

impl Cursor {
    /// A cursor over `0..len`.
    pub fn new(len: usize) -> Cursor {
        Cursor {
            next: AtomicUsize::new(0),
            len,
        }
    }

    /// Claims the next position; `None` once all `len` are claimed.
    pub fn next(&self) -> Option<usize> {
        // Relaxed: the counter publishes nothing but itself — inputs are
        // shared before the workers spawn, results go through their own
        // mutexes and the scope's join.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.len).then_some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    #[test]
    fn drains_every_item_exactly_once() {
        let q = Cursor::new(101);
        let seen = Mutex::new(BTreeSet::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while let Some(i) = q.next() {
                        assert!(seen.lock().unwrap().insert(i), "item {i} scheduled twice");
                    }
                });
            }
        });
        assert_eq!(seen.into_inner().unwrap(), (0..101).collect());
    }
}

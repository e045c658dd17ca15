//! Indexed min-(clock, id) scheduling: a lazy binary heap over core keys.
//!
//! Both the cooperative driver ([`crate::sim::SimState::schedule`]) and the
//! speculative commit walk repeatedly need "the unfinished core with the
//! minimum `(clock, id)`, plus the exact runner-up" — previously an
//! O(n_cores) scan per resumption, i.e. quadratic over a run. [`LazyMinHeap`]
//! makes it O(log n) amortized by exploiting a structural property of the
//! simulator: **a core's key almost only ever increases**. Clocks only
//! advance, cores only retire, and a spinner that parks (see
//! [`crate::spin`]) trades its clock for a later deadline or for no key at
//! all. The one exception — a write waking a parked spinner — is announced
//! through [`LazyMinHeap::lower`]. Every heap entry is therefore a *lower
//! bound* on its core's current key, and increases need no update calls:
//!
//! * Each core keeps exactly one entry `(clock, id)` in a hand-rolled array
//!   heap — possibly stale (too small), never too large — and `pos` maps
//!   each id to its entry's index.
//! * [`LazyMinHeap::clean`] repairs a stale entry *in place*: overwrite the
//!   key with the fresh one and sift down (one sift, where a pop+push pair
//!   on `std`'s `BinaryHeap` would cost two). Since a repaired entry's key
//!   is final for this call (keys don't change mid-call), each entry is
//!   repaired at most once and the loop terminates with a fresh minimum.
//! * A core without a key (retired, or parked with no deadline) has its
//!   entry overwritten with `(u64::MAX, KEYLESS | id)`, which sinks below
//!   every live key — a keyless entry on top therefore means its whole
//!   subtree is keyless.
//! * [`LazyMinHeap::lower`] writes a smaller key into a core's entry and
//!   sifts it up, restoring the lower-bound invariant after a decrease.
//! * The exact runner-up is the smaller of the root's two *cleaned*
//!   children: every stored key is a lower bound on its core's true key and
//!   at least its (fresh) ancestor child's stored key, so no deeper entry
//!   can beat the children once they are fresh. This keeps `min2` from ever
//!   moving the root at all.
//!
//! The caller supplies the current key through a `key_of(id) -> Option<u64>`
//! closure (`None` = no key), keeping this structure free of any borrow of
//! the core array itself.

/// The "no runner-up" horizon: greater than every entry, keyless ones
/// included.
const NO_RUNNER_UP: (u64, usize) = (u64::MAX, usize::MAX);

/// Tag bit of a keyless entry's id field: `(u64::MAX, KEYLESS | id)` sorts
/// after every live `(clock, id)` key (a live id is `< MAX_CORES`) while
/// still naming its core.
const KEYLESS: usize = 1 << (usize::BITS - 1);

/// Host-side scheduling-overhead counters (never part of the simulated
/// state; reported by the `scaling` exhibit).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedStats {
    /// Calls to [`crate::sim::SimState::schedule`] (one per cooperative
    /// resumption).
    pub schedule_calls: u64,
    /// Stale heap entries repaired (overwritten with a fresh key in place).
    pub stale_refreshes: u64,
}

/// Lazy min-heap over `(clock, id)` keys, one entry per core.
#[derive(Debug, Clone, Default)]
pub(crate) struct LazyMinHeap {
    heap: Vec<(u64, usize)>,
    /// Index of each core's entry in `heap`.
    pos: Vec<usize>,
    /// Stale-entry repairs performed (mirrored into [`SchedStats`]).
    pub(crate) stale_refreshes: u64,
}

impl LazyMinHeap {
    /// Heap seeded with `(0, id)` for every core — the simulator's initial
    /// clocks (already heap-ordered). Sound for any later state reached by
    /// increases/retirements.
    pub(crate) fn new(n_cores: usize) -> LazyMinHeap {
        LazyMinHeap {
            heap: (0..n_cores).map(|i| (0, i)).collect(),
            pos: (0..n_cores).collect(),
            stale_refreshes: 0,
        }
    }

    /// Swap entries `i` and `j`, keeping `pos` in step.
    #[inline]
    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i].1 & !KEYLESS] = i;
        self.pos[self.heap[j].1 & !KEYLESS] = j;
    }

    /// Restore the heap invariant below `i` after its key increased.
    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                return;
            }
            let r = l + 1;
            let c = if r < n && self.heap[r] < self.heap[l] {
                r
            } else {
                l
            };
            if self.heap[c] < self.heap[i] {
                self.swap(i, c);
                i = c;
            } else {
                return;
            }
        }
    }

    /// Restore the heap invariant above `i` after its key decreased.
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let p = (i - 1) / 2;
            if self.heap[i] < self.heap[p] {
                self.swap(i, p);
                i = p;
            } else {
                return;
            }
        }
    }

    /// Core `id`'s key dropped to `clock` (a parked spinner was woken):
    /// lower its entry if it no longer bounds the new key from below.
    pub(crate) fn lower(&mut self, id: usize, clock: u64) {
        let i = self.pos[id];
        if (clock, id) < self.heap[i] {
            self.heap[i] = (clock, id);
            self.sift_up(i);
        }
    }

    /// Repair position `i` until its entry is fresh; returns that entry, or
    /// `None` when the whole subtree under `i` is keyless.
    #[inline]
    fn clean(&mut self, i: usize, key_of: &impl Fn(usize) -> Option<u64>) -> Option<(u64, usize)> {
        loop {
            let (clock, id) = self.heap[i];
            if id & KEYLESS != 0 {
                return None;
            }
            match key_of(id) {
                None => {
                    self.heap[i] = (u64::MAX, KEYLESS | id);
                    self.sift_down(i);
                }
                Some(cur) if cur != clock => {
                    debug_assert!(cur > clock, "a key decrease must go through lower()");
                    self.heap[i] = (cur, id);
                    self.stale_refreshes += 1;
                    self.sift_down(i);
                }
                Some(_) => return Some((clock, id)),
            }
        }
    }

    /// The minimum live key plus the exact runner-up (the cooperative
    /// horizon), `(u64::MAX, usize::MAX)` when no runner-up exists. Ties
    /// order by id, including at clock `u64::MAX`, exactly like the linear
    /// reference scan.
    pub(crate) fn min2(
        &mut self,
        key_of: impl Fn(usize) -> Option<u64>,
    ) -> (Option<usize>, (u64, usize)) {
        if self.heap.is_empty() {
            return (None, NO_RUNNER_UP);
        }
        let Some(best) = self.clean(0, &key_of) else {
            return (None, NO_RUNNER_UP);
        };
        let mut second = NO_RUNNER_UP;
        for c in [1, 2] {
            if c < self.heap.len() {
                if let Some(k) = self.clean(c, &key_of) {
                    second = second.min(k);
                }
            }
        }
        (Some(best.1), second)
    }

    /// The minimum live key alone (the speculative commit walk's probe).
    pub(crate) fn min(&mut self, key_of: impl Fn(usize) -> Option<u64>) -> Option<(u64, usize)> {
        if self.heap.is_empty() {
            return None;
        }
        self.clean(0, &key_of)
    }

    /// Re-key every core and rebuild the heap in place (retaining the
    /// allocation; keyless cores get keyless entries). The speculative
    /// commit walk reseeds at every walk entry: *between* walks a cleared
    /// queue can drop a core's key back toward its committed clock, which
    /// would break the lower-bound invariant a persistent heap relies on.
    pub(crate) fn reseed(&mut self, n: usize, key_of: impl Fn(usize) -> Option<u64>) {
        self.heap.clear();
        self.heap.extend((0..n).map(|i| match key_of(i) {
            Some(k) => (k, i),
            None => (u64::MAX, KEYLESS | i),
        }));
        self.pos.clear();
        self.pos.extend(0..n);
        for i in (0..n / 2).rev() {
            self.sift_down(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_increasing_clocks_without_updates() {
        let mut h = LazyMinHeap::new(3);
        let clocks = [50u64, 10, 30];
        let key = |i: usize| Some(clocks[i]);
        assert_eq!(h.min2(key), (Some(1), (30, 2)));
        let clocks = [50u64, 60, 30];
        let key = |i: usize| Some(clocks[i]);
        assert_eq!(h.min2(key), (Some(2), (50, 0)));
        assert!(h.stale_refreshes > 0);
    }

    #[test]
    fn retired_cores_drop_out() {
        let mut h = LazyMinHeap::new(3);
        let clocks = [5u64, 40, 20];
        let key = |i: usize| if i == 0 { None } else { Some(clocks[i]) };
        assert_eq!(h.min2(key), (Some(2), (40, 1)));
        assert_eq!(h.min2(|_| None), (None, (u64::MAX, usize::MAX)));
    }

    #[test]
    fn ties_at_max_order_by_id() {
        let mut h = LazyMinHeap::new(3);
        let key = |_: usize| Some(u64::MAX);
        assert_eq!(h.min2(key), (Some(0), (u64::MAX, 1)));
    }

    #[test]
    fn single_live_core_has_open_horizon() {
        let mut h = LazyMinHeap::new(2);
        let key = |i: usize| if i == 1 { None } else { Some(123u64) };
        assert_eq!(h.min2(key), (Some(0), (u64::MAX, usize::MAX)));
    }

    #[test]
    fn lower_brings_a_keyless_core_back() {
        let mut h = LazyMinHeap::new(5);
        let mut clocks = [10u64, 20, 30, 40, 50];
        // Cores 0 and 1 go keyless (parked with no deadline); the runner-up
        // cleaning turns both entries into keyless sentinels.
        let key = |c: [u64; 5]| move |i: usize| (i > 1).then_some(c[i]);
        assert_eq!(h.min2(key(clocks)), (Some(2), (40, 3)));
        assert_eq!(h.min2(key(clocks)), (Some(2), (40, 3)));
        // A write wakes core 1 at clock 35: between cores 2 and 3.
        clocks[1] = 35;
        h.lower(1, 35);
        let key = |c: [u64; 5]| move |i: usize| (i > 0).then_some(c[i]);
        assert_eq!(h.min2(key(clocks)), (Some(2), (35, 1)));
        // Lowering to a key the entry already bounds is a no-op.
        h.lower(4, 60);
        clocks[2] = 70;
        assert_eq!(h.min2(key(clocks)), (Some(1), (40, 3)));
    }

    #[test]
    fn reseed_rebuilds_from_arbitrary_keys() {
        let mut h = LazyMinHeap::new(2);
        let clocks = [90u64, 80, 10, 70];
        h.reseed(4, |i| if i == 2 { None } else { Some(clocks[i]) });
        let key = |i: usize| if i == 2 { None } else { Some(clocks[i]) };
        assert_eq!(h.min2(key), (Some(3), (80, 1)));
    }
}

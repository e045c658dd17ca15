//! Set-associative presence tracking with LRU replacement.
//!
//! Used three ways: per-core L1 presence (latency + speculative capacity),
//! per-core L2 presence, and shared L3 presence. Only line indices are
//! tracked — data lives in the flat simulated memory; this structure decides
//! *hit level*, and for the L1, *when a transaction overflows* (a 9th
//! speculative line mapping to an 8-way set).

/// One set-associative cache level tracking line presence.
#[derive(Debug, Clone)]
pub struct CacheArray {
    sets: Vec<Vec<(u64, u64)>>, // (line, last-use stamp)
    ways: usize,
    stamp: u64,
}

impl CacheArray {
    pub fn new(n_sets: usize, ways: usize) -> Self {
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        CacheArray {
            sets: vec![Vec::with_capacity(ways); n_sets],
            ways,
            stamp: 0,
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets.len() - 1)
    }

    /// Is `line` present? (Does not update LRU.)
    pub fn contains(&self, line: u64) -> bool {
        self.sets[self.set_of(line)].iter().any(|&(l, _)| l == line)
    }

    /// Touch `line`: returns `true` on hit (LRU updated). On miss the line
    /// is *not* inserted; call [`Self::insert`].
    pub fn touch(&mut self, line: u64) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        let s = self.set_of(line);
        for e in &mut self.sets[s] {
            if e.0 == line {
                e.1 = stamp;
                return true;
            }
        }
        false
    }

    /// `n` consecutive hits on `line`, which must be present: the LRU
    /// state ends exactly as after `n` calls to [`Self::touch`] (a parked
    /// spinner's credited polls).
    pub(crate) fn touch_n(&mut self, line: u64, n: u64) {
        if n > 0 {
            self.stamp += n - 1;
            let hit = self.touch(line);
            debug_assert!(hit, "credited hits on an absent line");
        }
    }

    /// Insert `line`, evicting the LRU way if the set is full; `pinned`
    /// lines (a transaction's speculative footprint) are never chosen as
    /// victims. Returns `Err(())` if every way is pinned — a speculative
    /// capacity overflow. On success returns the evicted line, if any.
    #[allow(clippy::result_unit_err)]
    pub fn insert(
        &mut self,
        line: u64,
        is_pinned: impl Fn(u64) -> bool,
    ) -> Result<Option<u64>, ()> {
        self.stamp += 1;
        let stamp = self.stamp;
        let s = self.set_of(line);
        if let Some(e) = self.sets[s].iter_mut().find(|e| e.0 == line) {
            e.1 = stamp;
            return Ok(None);
        }
        if self.sets[s].len() < self.ways {
            self.sets[s].push((line, stamp));
            return Ok(None);
        }
        // Choose the least-recently-used unpinned way.
        let victim = self.sets[s]
            .iter()
            .enumerate()
            .filter(|(_, &(l, _))| !is_pinned(l))
            .min_by_key(|(_, &(_, t))| t)
            .map(|(i, _)| i);
        match victim {
            Some(i) => {
                let evicted = self.sets[s][i].0;
                self.sets[s][i] = (line, stamp);
                Ok(Some(evicted))
            }
            None => Err(()),
        }
    }

    /// Set index of `line` — exposed for the speculative scheduler's
    /// copy-on-write overlay, which clones single sets on demand.
    pub(crate) fn set_index(&self, line: u64) -> usize {
        self.set_of(line)
    }

    /// The `(line, stamp)` entries of set `s` (overlay seeding).
    pub(crate) fn set_entries(&self, s: usize) -> &[(u64, u64)] {
        &self.sets[s]
    }

    /// Associativity (overlay seeding).
    pub(crate) fn ways(&self) -> usize {
        self.ways
    }

    /// Current LRU stamp counter (overlay seeding).
    pub(crate) fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Remove a specific line (e.g., invalidation on cross-core write).
    pub fn remove(&mut self, line: u64) {
        let s = self.set_of(line);
        self.sets[s].retain(|&(l, _)| l != line);
    }

    /// Total lines currently present.
    pub fn len(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c = CacheArray::new(4, 2);
        assert!(!c.touch(10));
        c.insert(10, |_| false).unwrap();
        assert!(c.touch(10));
        assert!(c.contains(10));
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = CacheArray::new(1, 2); // one set, 2 ways
        c.insert(1, |_| false).unwrap();
        c.insert(2, |_| false).unwrap();
        c.touch(1); // 2 is now LRU
        let evicted = c.insert(3, |_| false).unwrap();
        assert_eq!(evicted, Some(2));
        assert!(c.contains(1) && c.contains(3) && !c.contains(2));
    }

    #[test]
    fn pinned_lines_survive() {
        let mut c = CacheArray::new(1, 2);
        c.insert(1, |_| false).unwrap();
        c.insert(2, |_| false).unwrap();
        let evicted = c.insert(3, |l| l == 1).unwrap();
        assert_eq!(evicted, Some(2)); // 1 pinned, so 2 evicted even if 1 is LRU
        assert!(c.contains(1));
    }

    #[test]
    fn all_pinned_overflows() {
        let mut c = CacheArray::new(1, 2);
        c.insert(1, |_| false).unwrap();
        c.insert(2, |_| false).unwrap();
        assert_eq!(c.insert(3, |_| true), Err(()));
    }

    #[test]
    fn set_mapping_isolates_sets() {
        let mut c = CacheArray::new(2, 1);
        c.insert(0, |_| false).unwrap(); // set 0
        c.insert(1, |_| false).unwrap(); // set 1
        assert!(c.contains(0) && c.contains(1));
        // Line 2 maps to set 0, evicting 0 but not 1.
        c.insert(2, |_| false).unwrap();
        assert!(!c.contains(0) && c.contains(1) && c.contains(2));
    }

    #[test]
    fn remove_deletes() {
        let mut c = CacheArray::new(4, 2);
        c.insert(5, |_| false).unwrap();
        c.remove(5);
        assert!(!c.contains(5));
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_refreshes_lru() {
        let mut c = CacheArray::new(1, 2);
        c.insert(1, |_| false).unwrap();
        c.insert(2, |_| false).unwrap();
        c.insert(1, |_| false).unwrap(); // refresh, no eviction
        assert_eq!(c.len(), 2);
        let evicted = c.insert(3, |_| false).unwrap();
        assert_eq!(evicted, Some(2));
    }
}

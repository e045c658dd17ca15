//! The paged line directory: per-line speculative ownership and cache
//! presence, the coherence state the conflict check and the latency model
//! read on every miss and store.
//!
//! Lines are grouped into pages of [`PAGE_LINES`] entries. A page is
//! allocated on the first mutable access to one of its lines; a read of a
//! line whose page was never written returns the empty entry. Building a
//! machine therefore costs one pointer per page instead of one entry per
//! line of simulated memory, and the resident directory is sized to the
//! lines a run actually touches.
//!
//! Each entry also carries `cached`, the exact set of cores holding the
//! line in their L1 or L2. [`crate::sim::SimState`] keeps it in step with
//! every cache fill, eviction and invalidation, so the cache-to-cache test
//! and write invalidation visit the sharers of a line instead of scanning
//! every core's caches. Both are pure lookups of state the caches already
//! hold, which is why simulated results are bit-identical to a scan.

use crate::addr::LINE_BYTES;
use crate::coreset::CoreSet;

/// Lines per directory page (6 KiB of entries per page).
const PAGE_LINES: usize = 64;

/// Speculative ownership of one line across cores. Under the eager
/// protocol at most one writer exists at a time; under the lazy protocol
/// multiple buffered writers may coexist until one commits. The member
/// masks are [`CoreSet`]s, so up to [`crate::MAX_CORES`] cores can hold a
/// line.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Owners {
    pub(crate) readers: CoreSet,
    pub(crate) writers: CoreSet,
}

impl Owners {
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.readers.is_empty() && self.writers.is_empty()
    }
}

/// One line's directory entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    /// Speculative readers and writers.
    pub(crate) owners: Owners,
    /// Cores holding the line in their L1 or L2: bit `c` is set exactly
    /// when `cores[c].l1 ∪ cores[c].l2` contains the line.
    pub(crate) cached: CoreSet,
}

/// What a read of a line on an unallocated page returns.
static EMPTY: Entry = Entry {
    owners: Owners {
        readers: CoreSet::EMPTY,
        writers: CoreSet::EMPTY,
    },
    cached: CoreSet::EMPTY,
};

type Page = [Entry; PAGE_LINES];

/// Per-line directory over `lines` lines of simulated memory.
pub(crate) struct LineDirectory {
    pages: Vec<Option<Box<Page>>>,
    lines: usize,
}

impl LineDirectory {
    /// An empty directory over `lines` lines; allocates no page.
    pub(crate) fn new(lines: usize) -> LineDirectory {
        LineDirectory {
            pages: (0..lines.div_ceil(PAGE_LINES)).map(|_| None).collect(),
            lines,
        }
    }

    /// Entry of `line`: the empty entry when its page was never written or
    /// the line lies past the end of memory. Never panics, so the
    /// speculative overlay can probe it with stale addresses.
    #[inline]
    pub(crate) fn get(&self, line: u64) -> &Entry {
        let i = line as usize;
        if i >= self.lines {
            return &EMPTY;
        }
        match &self.pages[i / PAGE_LINES] {
            Some(page) => &page[i % PAGE_LINES],
            None => &EMPTY,
        }
    }

    /// Mutable entry of `line`, allocating its page on first use.
    ///
    /// # Panics
    /// Panics on a line past the end of simulated memory, with the same
    /// message as an out-of-range word access.
    #[inline]
    pub(crate) fn get_mut(&mut self, line: u64) -> &mut Entry {
        let i = line as usize;
        assert!(
            i < self.lines,
            "simulated address {:#x} out of range",
            line * LINE_BYTES
        );
        let page = self.pages[i / PAGE_LINES].get_or_insert_with(|| Box::new([EMPTY; PAGE_LINES]));
        &mut page[i % PAGE_LINES]
    }

    /// Pages allocated so far.
    #[cfg(test)]
    pub(crate) fn pages_allocated(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// True when no line has a speculative owner.
    #[cfg(test)]
    pub(crate) fn owners_empty(&self) -> bool {
        self.pages
            .iter()
            .flatten()
            .all(|page| page.iter().all(|e| e.owners.is_empty()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_allocates_no_pages_and_reads_empty() {
        let d = LineDirectory::new(10 * PAGE_LINES + 3);
        assert_eq!(d.pages.len(), 11);
        assert_eq!(d.pages_allocated(), 0);
        assert!(d.get(5).cached.is_empty());
        assert!(
            d.get(u64::MAX).owners.is_empty(),
            "past the end reads empty"
        );
        assert_eq!(d.pages_allocated(), 0, "reads never allocate");
    }

    #[test]
    fn first_write_allocates_one_page() {
        let mut d = LineDirectory::new(4 * PAGE_LINES);
        d.get_mut(PAGE_LINES as u64 + 1).cached.insert(3);
        assert_eq!(d.pages_allocated(), 1);
        assert!(d.get(PAGE_LINES as u64 + 1).cached.contains(3));
        assert!(d.get(PAGE_LINES as u64).cached.is_empty());
        d.get_mut(PAGE_LINES as u64 + 2).owners.readers.insert(0);
        assert_eq!(d.pages_allocated(), 1, "same page reused");
        assert!(!d.owners_empty());
    }

    #[test]
    #[should_panic(expected = "simulated address 0x1000 out of range")]
    fn write_past_the_end_panics() {
        let mut d = LineDirectory::new(PAGE_LINES);
        d.get_mut(PAGE_LINES as u64);
    }
}

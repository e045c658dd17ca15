//! The simulator state: flat memory, per-core caches, HTM read/write sets,
//! eager requester-wins conflict resolution, and logical clocks.
//!
//! Everything here lives under the single machine mutex; methods are called
//! by [`crate::machine::Core`] only when it is the calling core's logical
//! turn, so the whole struct is free of internal synchronization.

use crate::addr::WORDS_PER_LINE;
use crate::addr::{line_of, word_index, Addr, LINE_BYTES, WORD_BYTES};
use crate::cache::CacheArray;
use crate::config::{FallbackPolicy, HtmProtocol, MachineConfig};
use crate::coreset::{CoreSet, MAX_CORES};
use crate::directory::{LineDirectory, Owners};
use crate::obs::{EventRing, ObsEvent, ObsKind};
use crate::sched::{LazyMinHeap, SchedStats};
use crate::spin::{Phase, Spin, SpinExit, SpinLoop, Step};
use crate::stats::CoreStats;

/// Why a transaction aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// Data conflict with another core (requester-wins: we were the victim).
    Conflict,
    /// Speculative footprint overflowed an L1 set's ways, or crossed a
    /// configured bounded-set limit (`max_read_lines`/`max_write_lines`).
    Capacity,
    /// Self-initiated abort (e.g., global-lock subscription at commit).
    Explicit,
    /// Commit-time hardware validation of the fallback lock word failed
    /// (the Dice-et-al-style fix under
    /// [`crate::config::FallbackPolicy::LazySubscriptionSafe`]): the lock
    /// was held at commit, so the transaction must not become visible.
    SubscriptionValidation,
}

/// What the hardware reports on abort — the paper's "%rbx" payload: the
/// conflicting data address and the low bits of the PC that *first* touched
/// that line in the aborted transaction (Section 4 / Section 6 simulator
/// modifications).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbortInfo {
    pub cause: AbortCause,
    /// Line address of the conflicting datum (0 for capacity/explicit).
    pub conf_addr: Addr,
    /// Truncated (12-bit) first-access PC tag for the conflicting line —
    /// what real hardware with the paper's PC-tag extension would deliver.
    pub conf_pc_tag: u16,
    /// Full first-access PC for the conflicting line. NOT architectural:
    /// used only for ground-truth accuracy measurement (Table 3) and by
    /// tests. Real policies must use `conf_pc_tag` or the software map.
    pub true_first_pc: u64,
}

impl AbortInfo {
    pub(crate) fn simple(cause: AbortCause) -> Self {
        AbortInfo {
            cause,
            conf_addr: 0,
            conf_pc_tag: 0,
            true_first_pc: 0,
        }
    }
}

/// Error type of transactional operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxError {
    Aborted(AbortInfo),
}

impl TxError {
    pub fn info(&self) -> AbortInfo {
        match self {
            TxError::Aborted(i) => *i,
        }
    }
}

/// One line in a transaction's speculative footprint: read/write
/// membership, plus the full PC of the instruction that first accessed it
/// (the hardware keeps only the low 12 bits; we keep the full value and
/// truncate on delivery, retaining ground truth).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TxLine {
    pub(crate) line: u64,
    pub(crate) written: bool,
    pub(crate) first_pc: u64,
}

/// Active-transaction state of one core.
///
/// Transactional footprints are tiny (bounded by the L1's speculative
/// capacity, typically a few dozen lines), so the read/write sets and the
/// lazy write buffer live in sorted vectors probed by binary search — no
/// hashing, no per-entry allocation, and the buffers are recycled across
/// transactions on the same core ([`TxState::reset`]).
#[derive(Debug, Default, Clone)]
pub(crate) struct TxState {
    pub(crate) ab_id: u32,
    pub(crate) start_clock: u64,
    /// Speculative lines touched, sorted by line index.
    pub(crate) lines: Vec<TxLine>,
    /// Undo log: (addr, previous value), applied in reverse on abort
    /// (eager protocol only).
    pub(crate) undo: Vec<(Addr, u64)>,
    /// Private write buffer, sorted by address, published at commit (lazy
    /// protocol only).
    pub(crate) write_buffer: Vec<(Addr, u64)>,
    /// Lines already rolled back by a remote requester.
    pub(crate) rolled_back: bool,
    /// Line-permission cache: a direct-mapped table over lines whose
    /// read (`perm_write[i] == false` suffices) or write ownership bits
    /// this attempt has already set, letting repeat accesses skip the
    /// owner-directory probe. Sound under requester-wins resolution: any
    /// remote access that would revoke a held permission dooms this core
    /// first, and a doomed core aborts (via `check_doomed`) before its next
    /// access — so a non-doomed attempt's cached permissions are always
    /// current. `u64::MAX` marks an empty slot; cleared by `reset` (every
    /// attempt starts cold) and defensively on `doom`.
    pub(crate) perm_lines: Vec<u64>,
    /// Write-permission bit per `perm_lines` slot.
    pub(crate) perm_write: Vec<bool>,
}

impl TxState {
    /// Clear for reuse by a fresh transaction, keeping the allocations.
    /// `perm_slots` is the (power-of-two or zero) permission-cache size.
    pub(crate) fn reset(&mut self, ab_id: u32, start_clock: u64, perm_slots: usize) {
        self.ab_id = ab_id;
        self.start_clock = start_clock;
        self.lines.clear();
        self.undo.clear();
        self.write_buffer.clear();
        self.rolled_back = false;
        if self.perm_lines.len() == perm_slots {
            self.perm_lines.fill(u64::MAX);
            self.perm_write.fill(false);
        } else {
            self.perm_lines = vec![u64::MAX; perm_slots];
            self.perm_write = vec![false; perm_slots];
        }
    }

    /// Does this attempt hold a cached permission for `line` (write
    /// permission if `write`)?
    #[inline]
    pub(crate) fn perm_has(&self, line: u64, write: bool) -> bool {
        if self.perm_lines.is_empty() {
            return false;
        }
        let i = (line as usize) & (self.perm_lines.len() - 1);
        self.perm_lines[i] == line && (!write || self.perm_write[i])
    }

    /// Cache a granted permission (upgrades read → write in place; a
    /// colliding line simply evicts the previous occupant).
    #[inline]
    pub(crate) fn perm_insert(&mut self, line: u64, write: bool) {
        if self.perm_lines.is_empty() {
            return;
        }
        let i = (line as usize) & (self.perm_lines.len() - 1);
        if self.perm_lines[i] == line {
            self.perm_write[i] |= write;
        } else {
            self.perm_lines[i] = line;
            self.perm_write[i] = write;
        }
    }

    pub(crate) fn perm_clear(&mut self) {
        self.perm_lines.fill(u64::MAX);
        self.perm_write.fill(false);
    }

    fn find(&self, line: u64) -> Result<usize, usize> {
        self.lines.binary_search_by_key(&line, |e| e.line)
    }

    pub(crate) fn spec_contains(&self, line: u64) -> bool {
        self.find(line).is_ok()
    }

    /// Record a speculative touch of `line`; `first_pc` is set only by the
    /// first access, matching the hardware's first-toucher PC tag.
    pub(crate) fn touch_line(&mut self, line: u64, pc: u64, write: bool) {
        match self.find(line) {
            Ok(i) => self.lines[i].written |= write,
            Err(i) => self.lines.insert(
                i,
                TxLine {
                    line,
                    written: write,
                    first_pc: pc,
                },
            ),
        }
    }

    /// Full first-access PC of `line` (0 when the line was never touched).
    pub(crate) fn first_pc_of(&self, line: u64) -> u64 {
        self.find(line).map_or(0, |i| self.lines[i].first_pc)
    }

    /// The lazily-buffered value of `addr`, if this transaction wrote it.
    pub(crate) fn buffered(&self, addr: Addr) -> Option<u64> {
        self.write_buffer
            .binary_search_by_key(&addr, |e| e.0)
            .ok()
            .map(|i| self.write_buffer[i].1)
    }

    /// Insert-or-update a lazily-buffered store.
    pub(crate) fn buffer_store(&mut self, addr: Addr, val: u64) {
        match self.write_buffer.binary_search_by_key(&addr, |e| e.0) {
            Ok(i) => self.write_buffer[i].1 = val,
            Err(i) => self.write_buffer.insert(i, (addr, val)),
        }
    }

    /// Distinct lines this attempt has written.
    pub(crate) fn written_lines(&self) -> usize {
        self.lines.iter().filter(|e| e.written).count()
    }
}

/// Bounded-set HTM check (Kafousis): would an access of `line` (write when
/// `write`) push the attempt past `max_read_lines` (distinct touched lines)
/// or `max_write_lines` (distinct written lines)? Zero-cost when both knobs
/// are 0, the default. An access to a line whose permission the attempt
/// already holds can never trip a bound (the line is already counted), which
/// is why the permission-cache fast paths legitimately skip this check.
/// Shared with the speculative overlay so predictions stay faithful.
pub(crate) fn bound_exceeded(cfg: &MachineConfig, tx: &TxState, line: u64, write: bool) -> bool {
    if cfg.max_read_lines == 0 && cfg.max_write_lines == 0 {
        return false;
    }
    let write_bound = |tx: &TxState| {
        write && cfg.max_write_lines != 0 && tx.written_lines() >= cfg.max_write_lines
    };
    match tx.find(line) {
        // Known line: only a read→write upgrade can add a written line.
        Ok(i) => !tx.lines[i].written && write_bound(tx),
        Err(_) => {
            (cfg.max_read_lines != 0 && tx.lines.len() >= cfg.max_read_lines) || write_bound(tx)
        }
    }
}

/// One recorded scheduling event (when `record_trace` is on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub clock: u64,
    pub kind: TraceKind,
}

/// What happened at a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    Begin(u32),
    Commit,
    Abort,
}

/// A pending remote-initiated abort: what the hardware delivers to the
/// victim ([`AbortInfo`]) plus the observability-only attribution of who
/// doomed it — the requester core and the 12-bit tag of the requesting
/// access's PC (0 for nontransactional requesters).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Doomed {
    pub(crate) info: AbortInfo,
    pub(crate) aborter: u32,
    pub(crate) aborter_pc_tag: u16,
}

/// Per-core simulator state.
pub(crate) struct CoreState {
    pub clock: u64,
    pub finished: bool,
    pub waiting: bool,
    pub(crate) l1: CacheArray,
    pub(crate) l2: CacheArray,
    pub(crate) tx: Option<TxState>,
    /// Recycled transaction state: buffers from the last finished
    /// transaction, reused by the next `tx_begin` to avoid reallocation.
    pub(crate) spare_tx: Option<TxState>,
    pub(crate) doomed: Option<Doomed>,
    pub stats: CoreStats,
    pub(crate) arena_next: Addr,
    pub(crate) arena_end: Addr,
    pub trace: Vec<TraceEvent>,
    pub events: EventRing,
    /// The spin loop this core is running, if any (cooperative and
    /// threaded drivers; the speculative driver keeps it in the program).
    pub(crate) spin: Option<SpinLoop>,
}

impl CoreState {
    /// The scheduler key of a parked core: the clock of its spin loop's
    /// timeout iteration, `None` when it can only be woken by a write.
    fn park_deadline(&self) -> Option<u64> {
        self.spin.as_ref().and_then(|s| s.park?.deadline)
    }
}

/// Everything under the machine mutex.
pub(crate) struct SimState {
    pub cfg: MachineConfig,
    pub(crate) mem: Vec<u64>,
    pub(crate) l3: CacheArray,
    pub cores: Vec<CoreState>,
    /// Paged line directory, indexed by line index (`addr / LINE_BYTES`):
    /// speculative owners for the conflict check, and the cores caching
    /// each line for the cache-to-cache test and write invalidation.
    pub(crate) dir: LineDirectory,
    pub(crate) heap_next: Addr,
    /// Derived from `cfg.perm_cache_lines`: direct-mapped permission-cache
    /// slot count (rounded up to a power of two; 0 = fast path disabled).
    pub(crate) perm_slots: usize,
    /// Cooperative-driver gate horizon: the minimum `(clock, id)` over
    /// unfinished cores *other than* the one currently resumed (set by
    /// [`SimState::schedule`]). While that core runs, no other core's
    /// clock can change, so its gates admit ops with one comparison
    /// against this pair instead of an `O(n_cores)` [`SimState::next_eligible`]
    /// scan. The threaded driver never reads it (its cores advance
    /// concurrently between gates, which would stale the cached pair).
    pub horizon: (u64, usize),
    /// Fallback lock word the hardware validates at commit under
    /// [`FallbackPolicy::LazySubscriptionSafe`] (the Dice-et-al-style
    /// fix): registered host-side by the runtime before threads start,
    /// `None` otherwise.
    pub(crate) commit_lock_addr: Option<Addr>,
    /// Indexed min-(clock, id) structure backing [`SimState::schedule`].
    /// Holds one (lazily repaired) entry per live core; sound because
    /// clocks only increase and cores only retire.
    pub(crate) sched: LazyMinHeap,
    /// Host-side scheduling-overhead counters (never simulated state).
    pub sched_stats: SchedStats,
    /// Cores parked in a steady spin loop (cooperative driver only). A
    /// parked core is not resumed; its heap key is its loop's deadline, or
    /// none. A write to its lock line catches it up and wakes it.
    pub(crate) parked: CoreSet,
}

/// First heap address — 0 stays an invalid ("null") address.
const HEAP_BASE: Addr = 4096;

impl SimState {
    pub fn new(cfg: MachineConfig) -> SimState {
        assert!(
            (1..=MAX_CORES).contains(&cfg.n_cores),
            "n_cores must be in 1..={MAX_CORES}, got {}",
            cfg.n_cores
        );
        assert!(
            cfg.mem_words > 0 && cfg.mem_words.is_multiple_of(WORDS_PER_LINE as usize),
            "mem_words must be a positive multiple of {WORDS_PER_LINE} (one cache line), got {}",
            cfg.mem_words
        );
        let cores = (0..cfg.n_cores)
            .map(|_| CoreState {
                clock: 0,
                finished: false,
                waiting: false,
                l1: CacheArray::new(cfg.l1_sets, cfg.l1_ways),
                l2: CacheArray::new(cfg.l2_sets, cfg.l2_ways),
                tx: None,
                spare_tx: None,
                doomed: None,
                stats: CoreStats::default(),
                arena_next: 0,
                arena_end: 0,
                trace: Vec::new(),
                events: EventRing::new(cfg.event_ring_capacity),
                spin: None,
            })
            .collect();
        SimState {
            mem: vec![0; cfg.mem_words],
            l3: CacheArray::new(cfg.l3_sets, cfg.l3_ways),
            cores,
            dir: LineDirectory::new(cfg.mem_words / WORDS_PER_LINE as usize),
            heap_next: HEAP_BASE,
            perm_slots: if cfg.perm_cache_lines == 0 {
                0
            } else {
                cfg.perm_cache_lines.next_power_of_two()
            },
            horizon: (u64::MAX, usize::MAX),
            commit_lock_addr: None,
            sched: LazyMinHeap::new(cfg.n_cores),
            sched_stats: SchedStats::default(),
            parked: CoreSet::EMPTY,
            cfg,
        }
    }

    /// The core whose turn it is: minimum clock among unfinished cores,
    /// ties by id. `None` when every core has finished.
    ///
    /// Retained as an O(n_cores) linear scan: the threaded driver calls it
    /// from arbitrary interleavings where the heap's monotonicity argument
    /// does not apply, and it serves as the reference implementation the
    /// indexed [`SimState::schedule`] is property-tested against.
    pub fn next_eligible(&self) -> Option<usize> {
        self.cores
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.finished)
            .min_by_key(|(i, c)| (c.clock, *i))
            .map(|(i, _)| i)
    }

    /// [`SimState::next_eligible`] plus the exact runner-up `(clock, id)`
    /// pair stored into [`SimState::horizon`]. The cooperative event loop
    /// calls this once per resumption; the chosen core's gates then stay
    /// eligible exactly while their own `(clock, id)` is `<=` the horizon.
    ///
    /// Backed by the lazy min-heap in [`SimState::sched`]: O(log n_cores)
    /// amortized per call instead of a linear scan, with identical
    /// (clock, id) ordering — ties by id, including at clock `u64::MAX`.
    ///
    /// A parked spinner is keyed by its loop's deadline (or not at all);
    /// when that deadline is the minimum, its steady polls up to the
    /// deadline are credited here and it resumes at its timeout iteration.
    /// `None` with cores still parked means no live core can ever write
    /// their lock lines (see [`SimState::deadlock_report`]).
    pub fn schedule(&mut self) -> Option<usize> {
        self.sched_stats.schedule_calls += 1;
        let cores = &self.cores;
        let parked = self.parked;
        let key_of = |i: usize| {
            let c = &cores[i];
            if c.finished {
                None
            } else if parked.contains(i) {
                c.park_deadline()
            } else {
                Some(c.clock)
            }
        };
        let (best, second) = self.sched.min2(key_of);
        self.sched_stats.stale_refreshes = self.sched.stale_refreshes;
        self.horizon = second;
        if let Some(n) = best.filter(|&n| self.parked.contains(n)) {
            let deadline = self.cores[n]
                .park_deadline()
                .expect("a keyed parked core has a deadline");
            self.unpark(n, deadline);
        }
        best
    }

    // ----- spin loops ---------------------------------------------------

    /// Issue the next sub-op of `tid`'s spin loop, starting `spin` when
    /// none is running. Returns the loop's exit once it ends. The compute
    /// cycles that precede the next sub-op (the wait quantum) are charged
    /// with this one's latency, so the core's clock is always the key of
    /// its next sub-op — the same key `compute` + gate would give it.
    pub(crate) fn spin_step(&mut self, tid: usize, spin: Spin) -> (Option<SpinExit>, u64) {
        let mut sl = self.cores[tid]
            .spin
            .take()
            .unwrap_or_else(|| SpinLoop::new(spin));
        let (r, lat) = apply_op(self, tid, &sl.op());
        match sl.advance(r) {
            Step::Next { pre } => {
                self.cores[tid].spin = Some(sl);
                (None, lat + pre)
            }
            Step::Done(exit) => (Some(exit), lat),
        }
    }

    /// Park `tid` if its spin loop stands at the top of a *steady*
    /// iteration: the lock line is in its L1 and outside its speculative
    /// footprint, and the poll would fail (the word is nonzero) without
    /// storing (an advisory lock's contended flag is already set). Every
    /// later iteration is then steady too until someone writes the line,
    /// which [`SimState::wake_parked`] intercepts.
    pub(crate) fn try_park(&mut self, tid: usize) -> bool {
        let core = &self.cores[tid];
        let Some(sl) = core.spin.as_ref().filter(|s| s.phase == Phase::Poll) else {
            return false;
        };
        let word = sl.spin.word;
        let line = line_of(word);
        let steady = core.l1.contains(line)
            && core.tx.as_ref().is_none_or(|t| !t.spec_contains(line))
            && self.read_word(word) != 0
            && (sl.polls_per_iter() == 1 || self.read_word(word + 8) != 0);
        let clock = core.clock;
        let l1_latency = self.cfg.l1_latency;
        let sl = self.cores[tid].spin.as_mut().expect("checked above");
        if steady && sl.park(clock, l1_latency) {
            self.parked.insert(tid);
            return true;
        }
        false
    }

    /// End `tid`'s park: credit the steady sub-ops it issued at clocks
    /// below `t` (clock, counters, L1 stamp, `waited`) and leave it at the
    /// next one.
    fn unpark(&mut self, tid: usize, t: u64) {
        let l1_latency = self.cfg.l1_latency;
        let core = &mut self.cores[tid];
        let sl = core.spin.as_mut().expect("a parked core runs a spin loop");
        let line = line_of(sl.spin.word);
        let c = sl.catch_up(t, l1_latency);
        core.clock = c.clock;
        core.stats.gated_ops += c.ops;
        core.stats.nt_mem_ops += c.polls;
        core.stats.lock_wait_cycles += c.waited;
        core.l1.touch_n(line, c.polls);
        self.parked.remove(tid);
    }

    /// Core `writer`'s current op is about to write `line` or drop other
    /// cores' copies of it: wake every spinner parked on the line, crediting
    /// the polls whose `(clock, id)` precedes the writer's, and lower their
    /// scheduler keys (and the running core's horizon) to their next
    /// sub-op. A parked spinner holds its line in L1, so only the line's
    /// sharers are candidates.
    fn wake_parked(&mut self, writer: usize, line: u64) {
        let wc = self.cores[writer].clock;
        let candidates = self.dir.get(line).cached.intersect(self.parked);
        for c in candidates.iter() {
            let spinning_here = self.cores[c]
                .spin
                .as_ref()
                .is_some_and(|s| line_of(s.spin.word) == line);
            if !spinning_here {
                continue;
            }
            self.unpark(c, wc.saturating_add((c < writer) as u64));
            let clock = self.cores[c].clock;
            self.sched.lower(c, clock);
            self.horizon = self.horizon.min((clock, c));
        }
    }

    /// The message for a run in which every live core is parked with no
    /// deadline: nothing can ever write their lock lines.
    pub(crate) fn deadlock_report(&self) -> String {
        let spinners: Vec<String> = self
            .parked
            .iter()
            .map(|c| {
                let word = self.cores[c].spin.as_ref().map_or(0, |s| s.spin.word);
                format!("core {c} on word {word:#x} (line {:#x})", line_of(word))
            })
            .collect();
        format!(
            "deadlock: every live core spins on a lock line no live core will write: {}",
            spinners.join(", ")
        )
    }

    // ----- memory & caches ----------------------------------------------

    /// Index of `addr`'s word in `mem`; panics on out-of-range addresses.
    fn word_slot(&self, addr: Addr) -> usize {
        let i = word_index(addr);
        assert!(
            i < self.mem.len(),
            "simulated address {addr:#x} out of range"
        );
        i
    }

    fn read_word(&self, addr: Addr) -> u64 {
        self.mem[self.word_slot(addr)]
    }

    /// Store `val` at `addr` as part of core `writer`'s current op. A
    /// spinner parked on the line is caught up first: its polls before the
    /// write's `(clock, id)` saw the old value.
    fn write_word(&mut self, writer: usize, addr: Addr, val: u64) {
        let i = self.word_slot(addr);
        if !self.parked.is_empty() {
            self.wake_parked(writer, line_of(addr));
        }
        self.mem[i] = val;
    }

    /// Speculative owners of `line` (panics on out-of-range addresses,
    /// matching `read_word`/`write_word`).
    fn owner_mut(&mut self, line: u64) -> &mut Owners {
        &mut self.dir.get_mut(line).owners
    }

    /// True when no line has a speculative owner (test aid).
    #[cfg(test)]
    fn owners_empty(&self) -> bool {
        self.dir.owners_empty()
    }

    /// Charge cache latency for `tid` touching `line`. If `speculative`,
    /// the line must be insertable into the L1 without evicting a pinned
    /// (speculative) way; failure is a capacity overflow. Keeps the line's
    /// `cached` set, and those of any evicted lines, exact.
    ///
    /// (The cache-to-cache and L3 arms charge the same latency on purpose —
    /// they differ in the `touch` side effect, so they must not be merged.)
    #[allow(clippy::if_same_then_else)]
    fn touch_caches(&mut self, tid: usize, line: u64, speculative: bool) -> Result<u64, ()> {
        let cfg_l1 = self.cfg.l1_latency;
        let cfg_l2 = self.cfg.l2_latency;
        let cfg_l3 = self.cfg.l3_latency;
        let cfg_mem = self.cfg.mem_latency;

        // L1 hit?
        if self.cores[tid].l1.touch(line) {
            return Ok(cfg_l1);
        }
        // Miss: find the source.
        let lat = if self.cores[tid].l2.touch(line) {
            cfg_l2
        } else if !self.dir.get(line).cached.without(tid).is_empty() {
            cfg_l3 // cache-to-cache transfer, charged at L3 cost
        } else if self.l3.touch(line) {
            cfg_l3
        } else {
            cfg_mem
        };
        // Fill path: L1 (respecting speculative pinning), L2, L3.
        let core = &mut self.cores[tid];
        let spec_pred = |l: u64| core.tx.as_ref().is_some_and(|t| t.spec_contains(l));
        let l1_victim = match core.l1.insert(line, spec_pred) {
            Ok(victim) => victim,
            Err(()) => {
                if speculative {
                    return Err(()); // capacity overflow
                }
                // Nontransactional access to a set full of speculative
                // lines: bypass the L1.
                None
            }
        };
        let l2_victim = core.l2.insert(line, |_| false).ok().flatten();
        let _ = self.l3.insert(line, |_| false);
        if core.l1.contains(line) || core.l2.contains(line) {
            self.dir.get_mut(line).cached.insert(tid);
        }
        // A line evicted from one private level stays cached while the
        // other level still holds it.
        for victim in [l1_victim, l2_victim].into_iter().flatten() {
            let core = &self.cores[tid];
            if !core.l1.contains(victim) && !core.l2.contains(victim) {
                self.dir.get_mut(victim).cached.remove(tid);
            }
        }
        Ok(lat)
    }

    /// Invalidate `line` in every core except `tid` (a write took exclusive
    /// ownership). Visits only the line's sharers.
    fn invalidate_others(&mut self, tid: usize, line: u64) {
        if !self.parked.is_empty() {
            self.wake_parked(tid, line);
        }
        let cached = &mut self.dir.get_mut(line).cached;
        let sharers = cached.without(tid);
        let keep = cached.contains(tid);
        *cached = CoreSet::EMPTY;
        if keep {
            cached.insert(tid);
        }
        for c in sharers.iter() {
            self.cores[c].l1.remove(line);
            self.cores[c].l2.remove(line);
        }
    }

    /// Drop `line` from `tid`'s L1 and L2 (a rolled-back speculative
    /// write leaves the core's copy stale).
    fn evict_own(&mut self, tid: usize, line: u64) {
        self.cores[tid].l1.remove(line);
        self.cores[tid].l2.remove(line);
        self.dir.get_mut(line).cached.remove(tid);
    }

    // ----- transactional machinery ---------------------------------------

    /// If a remote requester doomed us, consume the abort now, charging the
    /// abort-delivery cost (pipeline flush + handler dispatch + undo-log
    /// write-back, already performed by the requester on our behalf).
    fn check_doomed(&mut self, tid: usize) -> Result<(), TxError> {
        if let Some(d) = self.cores[tid].doomed.take() {
            let abort_cost = self.cfg.tx_abort_cost;
            let core = &mut self.cores[tid];
            core.clock += abort_cost;
            if let Some(tx) = core.tx.take() {
                debug_assert!(tx.rolled_back, "doomed tx must have been rolled back");
                core.stats.wasted_tx_cycles += core.clock.saturating_sub(tx.start_clock);
                core.spare_tx = Some(tx);
            }
            core.stats.conflict_aborts += 1;
            self.record(tid, TraceKind::Abort);
            self.note(
                tid,
                ObsKind::TxAbort {
                    cause: d.info.cause,
                    conf_addr: d.info.conf_addr,
                    victim_pc_tag: d.info.conf_pc_tag,
                    aborter_pc_tag: d.aborter_pc_tag,
                    aborter: d.aborter,
                },
            );
            return Err(TxError::Aborted(d.info));
        }
        Ok(())
    }

    /// Roll back `victim`'s transaction in place and mark it doomed with
    /// conflict info for `conf_addr`. Called by the *requester* under the
    /// simulator lock — the hardware analogue of the coherence message that
    /// kills the victim. `requester`/`req_pc` identify the winning access
    /// for conflict attribution (observability only; `req_pc` is 0 for
    /// nontransactional requesters).
    fn doom(&mut self, victim: usize, conf_addr: Addr, requester: usize, req_pc: u64) {
        let pc_mask = self.cfg.pc_tag_mask();
        let core = &mut self.cores[victim];
        let Some(tx) = core.tx.as_mut() else {
            return;
        };
        debug_assert!(!tx.rolled_back);
        // Undo eager writes, newest first; lazy victims simply discard
        // their private write buffer.
        let undo = std::mem::take(&mut tx.undo);
        tx.write_buffer.clear();
        let line = line_of(conf_addr);
        let first = tx.first_pc_of(line);
        let lines = std::mem::take(&mut tx.lines);
        tx.rolled_back = true;
        // The doomed attempt's cached permissions are void the instant its
        // ownership bits are released below. Strictly, no access can use
        // them anyway — the victim's next transactional op consumes the
        // doom in `check_doomed` before reaching the fast path — but
        // clearing here keeps the invariant local.
        tx.perm_clear();
        core.doomed = Some(Doomed {
            info: AbortInfo {
                cause: AbortCause::Conflict,
                conf_addr: crate::addr::line_addr(conf_addr),
                conf_pc_tag: (first & pc_mask) as u16,
                true_first_pc: first,
            },
            aborter: requester as u32,
            aborter_pc_tag: (req_pc & pc_mask) as u16,
        });
        for &(addr, old) in undo.iter().rev() {
            self.write_word(requester, addr, old);
        }
        // The victim's cached copies of its speculatively-written lines are
        // stale after rollback: invalidate them, so the retry pays refill
        // latency (a real component of abort cost on eager HTM).
        for e in lines.iter().filter(|e| e.written) {
            self.evict_own(victim, e.line);
        }
        self.release_ownership(victim, &lines);
        // Hand the buffers back to the doomed transaction so the core's
        // next attempt reuses their capacity.
        if let Some(tx) = self.cores[victim].tx.as_mut() {
            tx.undo = undo;
            tx.undo.clear();
            tx.lines = lines;
            tx.lines.clear();
        }
    }

    fn release_ownership(&mut self, tid: usize, lines: &[TxLine]) {
        for e in lines {
            let o = self.owner_mut(e.line);
            o.readers.remove(tid);
            o.writers.remove(tid);
        }
    }

    /// Abort every other core that holds `line` speculatively in a way that
    /// conflicts with an access of kind `is_write` by `tid`. `req_pc` is
    /// the requesting access's PC (0 when nontransactional), recorded for
    /// conflict attribution.
    fn resolve_conflicts(&mut self, tid: usize, addr: Addr, is_write: bool, req_pc: u64) {
        let line = line_of(addr);
        let o = self.dir.get(line).owners;
        let mut mask = o.writers;
        if is_write {
            mask = mask.union(o.readers);
        }
        mask.remove(tid);
        // Ascending-id victim walk — the doom order is part of the
        // bit-identical contract.
        for v in mask.iter() {
            self.doom(v, addr, tid, req_pc);
        }
    }

    fn record(&mut self, tid: usize, kind: TraceKind) {
        if self.cfg.record_trace {
            let clock = self.cores[tid].clock;
            self.cores[tid].trace.push(TraceEvent { clock, kind });
        }
    }

    /// Record an observability event for `tid` at its current clock.
    /// Piggybacks on operations that happen anyway (never a gated op of
    /// its own), so recording cannot perturb simulated time.
    fn note(&mut self, tid: usize, kind: ObsKind) {
        if self.cfg.record_events {
            let clock = self.cores[tid].clock;
            self.cores[tid].events.push(ObsEvent { clock, kind });
        }
    }

    /// Record an observability event for `tid` at an explicit clock —
    /// used by [`crate::machine::Core`] hooks whose logical time includes
    /// not-yet-folded pending cycles.
    pub fn note_at(&mut self, tid: usize, clock: u64, kind: ObsKind) {
        if self.cfg.record_events {
            self.cores[tid].events.push(ObsEvent { clock, kind });
        }
    }

    /// [`bound_exceeded`] against `tid`'s active transaction.
    fn set_bound_exceeded(&self, tid: usize, line: u64, write: bool) -> bool {
        let tx = self.cores[tid].tx.as_ref().expect("bound check outside tx");
        bound_exceeded(&self.cfg, tx, line, write)
    }

    /// Register the fallback lock word that commits validate under
    /// [`FallbackPolicy::LazySubscriptionSafe`]. Host-side (no cycles);
    /// called by the runtime during setup.
    pub fn register_commit_lock(&mut self, addr: Addr) {
        self.commit_lock_addr = Some(addr);
    }

    /// Begin a hardware transaction on `tid`.
    pub fn tx_begin(&mut self, tid: usize, ab_id: u32) -> u64 {
        self.record(tid, TraceKind::Begin(ab_id));
        self.note(tid, ObsKind::TxBegin { ab_id });
        let perm_slots = self.perm_slots;
        let core = &mut self.cores[tid];
        assert!(
            core.tx.is_none(),
            "nested hardware transaction on core {tid}"
        );
        // A doom left over from a transaction the runtime already gave up
        // on cannot exist: check_doomed consumed it. Defensive clear:
        core.doomed = None;
        let mut tx = core.spare_tx.take().unwrap_or_default();
        tx.reset(ab_id, core.clock, perm_slots);
        core.tx = Some(tx);
        self.cfg.tx_begin_cost
    }

    /// Is a transaction active (and not yet observed-doomed)?
    pub fn tx_active(&self, tid: usize) -> bool {
        self.cores[tid].tx.is_some()
    }

    /// The atomic-block id of the active transaction.
    pub fn tx_ab_id(&self, tid: usize) -> Option<u32> {
        self.cores[tid].tx.as_ref().map(|t| t.ab_id)
    }

    /// Transactional load.
    pub fn tx_load(&mut self, tid: usize, addr: Addr, pc: u64) -> (Result<u64, TxError>, u64) {
        if let Err(e) = self.check_doomed(tid) {
            return (Err(e), 0);
        }
        let line = line_of(addr);
        // Fast path: the attempt already holds (at least read) permission
        // for the line, so the conflict probe and directory/footprint
        // updates are provably no-ops — any remote access that could have
        // revoked the permission would have doomed us, and we just passed
        // `check_doomed`. The L1 is consulted with the side-effect-free
        // `contains` first, then touched exactly once, matching the slow
        // path's single LRU stamp on its L1-hit arm.
        let fast = {
            let core = &mut self.cores[tid];
            match core.tx.as_mut() {
                Some(tx) if tx.perm_has(line, false) && core.l1.contains(line) => {
                    debug_assert!(tx.spec_contains(line));
                    core.l1.touch(line);
                    core.stats.tx_mem_ops += 1;
                    Some(tx.buffered(addr))
                }
                _ => None,
            }
        };
        if let Some(buffered) = fast {
            debug_assert!(
                self.dir.get(line).owners.readers.contains(tid)
                    || self.dir.get(line).owners.writers.contains(tid),
                "cached permission without an ownership bit"
            );
            return (
                Ok(buffered.unwrap_or_else(|| self.read_word(addr))),
                self.cfg.l1_latency,
            );
        }
        assert!(self.tx_active(tid), "tx_load outside transaction");
        if self.set_bound_exceeded(tid, line, false) {
            return (Err(self.self_abort(tid, AbortCause::Capacity)), 0);
        }
        if self.cfg.protocol == HtmProtocol::Eager {
            // Eager: a read request aborts any remote speculative writer.
            self.resolve_conflicts(tid, addr, false, pc);
        }
        match self.touch_caches(tid, line, true) {
            Ok(lat) => {
                let core = &mut self.cores[tid];
                let tx = core.tx.as_mut().unwrap();
                tx.touch_line(line, pc, false);
                tx.perm_insert(line, false);
                core.stats.tx_mem_ops += 1;
                // Lazy: our own buffered write shadows memory.
                let buffered = tx.buffered(addr);
                self.owner_mut(line).readers.insert(tid);
                (Ok(buffered.unwrap_or_else(|| self.read_word(addr))), lat)
            }
            Err(()) => (Err(self.self_abort(tid, AbortCause::Capacity)), 0),
        }
    }

    /// Transactional store (eager versioning: in place, undo-logged).
    pub fn tx_store(
        &mut self,
        tid: usize,
        addr: Addr,
        val: u64,
        pc: u64,
    ) -> (Result<(), TxError>, u64) {
        if let Err(e) = self.check_doomed(tid) {
            return (Err(e), 0);
        }
        let eager = self.cfg.protocol == HtmProtocol::Eager;
        let line = line_of(addr);
        // Fast path: *write* permission already held (read permission is
        // not enough — remote readers may legitimately coexist with it,
        // and the slow path's conflict resolution must doom them). See
        // `tx_load` for the revocation-implies-doom argument.
        let fast = {
            let core = &mut self.cores[tid];
            match core.tx.as_mut() {
                Some(tx) if tx.perm_has(line, true) && core.l1.contains(line) => {
                    debug_assert!(tx.spec_contains(line));
                    core.l1.touch(line);
                    core.stats.tx_mem_ops += 1;
                    if !eager {
                        // Private buffer; published at commit.
                        tx.buffer_store(addr, val);
                    }
                    true
                }
                _ => false,
            }
        };
        if fast {
            debug_assert!(
                self.dir.get(line).owners.writers.contains(tid),
                "cached write permission without the writer bit"
            );
            if eager {
                // In place, undo-logged, exclusive — identical memory
                // effects, in the same order, as the slow path below.
                let old = self.read_word(addr);
                self.cores[tid].tx.as_mut().unwrap().undo.push((addr, old));
                self.write_word(tid, addr, val);
                self.invalidate_others(tid, line);
            }
            return (Ok(()), self.cfg.l1_latency);
        }
        assert!(self.tx_active(tid), "tx_store outside transaction");
        if self.set_bound_exceeded(tid, line, true) {
            return (Err(self.self_abort(tid, AbortCause::Capacity)), 0);
        }
        if eager {
            self.resolve_conflicts(tid, addr, true, pc);
        }
        match self.touch_caches(tid, line, true) {
            Ok(lat) => {
                let old = self.read_word(addr);
                let core = &mut self.cores[tid];
                let tx = core.tx.as_mut().unwrap();
                tx.touch_line(line, pc, true);
                tx.perm_insert(line, true);
                core.stats.tx_mem_ops += 1;
                self.owner_mut(line).writers.insert(tid);
                let tx = self.cores[tid].tx.as_mut().unwrap();
                if eager {
                    // In place, undo-logged, exclusive.
                    tx.undo.push((addr, old));
                    self.write_word(tid, addr, val);
                    self.invalidate_others(tid, line);
                } else {
                    // Private buffer; published at commit.
                    tx.buffer_store(addr, val);
                }
                (Ok(()), lat)
            }
            Err(()) => (Err(self.self_abort(tid, AbortCause::Capacity)), 0),
        }
    }

    /// Self-initiated abort (capacity, or explicit from the runtime).
    /// Rolls back, releases ownership, accounts the attempt as wasted.
    pub fn self_abort(&mut self, tid: usize, cause: AbortCause) -> TxError {
        let tx = self.cores[tid]
            .tx
            .take()
            .expect("self_abort without transaction");
        // Roll back before charging the abort cost, so the rollback's
        // writes carry the op's admission clock (`write_word`).
        if !tx.rolled_back {
            for &(addr, old) in tx.undo.iter().rev() {
                self.write_word(tid, addr, old);
            }
            for e in tx.lines.iter().filter(|e| e.written) {
                self.evict_own(tid, e.line);
            }
            self.release_ownership(tid, &tx.lines);
        }
        let abort_cost = self.cfg.tx_abort_cost;
        let core = &mut self.cores[tid];
        core.clock += abort_cost;
        core.stats.wasted_tx_cycles += core.clock.saturating_sub(tx.start_clock);
        match cause {
            AbortCause::Capacity => core.stats.capacity_aborts += 1,
            AbortCause::Explicit => core.stats.explicit_aborts += 1,
            AbortCause::SubscriptionValidation => core.stats.subscription_aborts += 1,
            AbortCause::Conflict => unreachable!("conflict aborts come from doom()"),
        }
        core.spare_tx = Some(tx);
        self.record(tid, TraceKind::Abort);
        self.note(
            tid,
            ObsKind::TxAbort {
                cause,
                conf_addr: 0,
                victim_pc_tag: 0,
                aborter_pc_tag: 0,
                aborter: tid as u32,
            },
        );
        TxError::Aborted(AbortInfo::simple(cause))
    }

    /// Commit the active transaction. Under the lazy protocol this is
    /// where conflicts are resolved: the committer wins, dooming every
    /// other transaction that read or wrote one of its written lines, then
    /// publishes its write buffer.
    pub fn tx_commit(&mut self, tid: usize) -> (Result<(), TxError>, u64) {
        if let Err(e) = self.check_doomed(tid) {
            return (Err(e), 0);
        }
        // Dice-et-al-style hardware fix for lazy subscription: commit
        // itself validates the registered fallback lock word, so a
        // transaction that raced an irrevocable section can never become
        // visible even though it skipped begin-time subscription. The probe
        // rides inside the commit microcode (no extra memory-op latency)
        // and never joins the read set.
        if self.cfg.fallback == FallbackPolicy::LazySubscriptionSafe {
            if let Some(lock) = self.commit_lock_addr {
                if self.read_word(lock) != 0 {
                    return (
                        Err(self.self_abort(tid, AbortCause::SubscriptionValidation)),
                        0,
                    );
                }
            }
        }
        let mut commit_cost = self.cfg.tx_commit_cost;
        if self.cfg.protocol == HtmProtocol::Lazy {
            // Take the transaction out so its footprint can drive dooms
            // and write-back without aliasing the simulator state.
            let tx = self.cores[tid]
                .tx
                .take()
                .expect("commit without transaction");
            for e in tx.lines.iter().filter(|e| e.written) {
                // Committer wins: doom every other reader/writer of the
                // line, attributed to the committer's first access to it.
                self.resolve_conflicts(tid, e.line * crate::addr::LINE_BYTES, true, e.first_pc);
            }
            commit_cost += tx.write_buffer.len() as u64; // write-back bandwidth
            for &(addr, val) in &tx.write_buffer {
                self.write_word(tid, addr, val);
            }
            for e in tx.lines.iter().filter(|e| e.written) {
                self.invalidate_others(tid, e.line);
            }
            self.cores[tid].tx = Some(tx);
        }
        let core = &mut self.cores[tid];
        let tx = core.tx.take().expect("commit without transaction");
        core.stats.commits += 1;
        core.stats.useful_tx_cycles += core.clock.saturating_sub(tx.start_clock) + commit_cost;
        self.release_ownership(tid, &tx.lines);
        self.cores[tid].spare_tx = Some(tx);
        self.record(tid, TraceKind::Commit);
        self.note(tid, ObsKind::TxCommit);
        (Ok(()), commit_cost)
    }

    // ----- nontransactional operations -----------------------------------

    /// Plain (non-speculative) load by a thread running outside any
    /// transaction — e.g. irrevocable mode. As a real coherence read it must
    /// not observe another core's uncommitted eager write, so it dooms
    /// speculative *writers* of the line (requester wins); unlike `nt_load`,
    /// which is reserved for runtime metadata that is never accessed
    /// transactionally.
    pub fn plain_load(&mut self, tid: usize, addr: Addr) -> (u64, u64) {
        if self.cfg.protocol == HtmProtocol::Eager {
            self.resolve_conflicts(tid, addr, false, 0);
        }
        // Lazy: uncommitted data never reaches memory, so a plain read is
        // always consistent without dooming anyone.
        self.nt_load(tid, addr)
    }

    /// Nontransactional load: sees current memory, never kills anyone,
    /// never joins the read set. Legal inside or outside a transaction.
    pub fn nt_load(&mut self, tid: usize, addr: Addr) -> (u64, u64) {
        let line = line_of(addr);
        let lat = self
            .touch_caches(tid, line, false)
            .expect("nontransactional fills cannot overflow");
        self.cores[tid].stats.nt_mem_ops += 1;
        (self.read_word(addr), lat)
    }

    /// Nontransactional (or plain non-speculative) store: immediately
    /// visible; as a real coherence write it aborts *other* cores holding
    /// the line speculatively. Must not target the executing core's own
    /// speculative lines (the runtime never does — advisory locks live in
    /// dedicated lines).
    pub fn nt_store(&mut self, tid: usize, addr: Addr, val: u64) -> u64 {
        let line = line_of(addr);
        debug_assert!(
            self.cores[tid]
                .tx
                .as_ref()
                .is_none_or(|t| !t.spec_contains(line)),
            "NT store to own speculative line {line:#x}"
        );
        self.resolve_conflicts(tid, addr, true, 0);
        let lat = self
            .touch_caches(tid, line, false)
            .expect("nontransactional fills cannot overflow");
        self.cores[tid].stats.nt_mem_ops += 1;
        self.write_word(tid, addr, val);
        self.invalidate_others(tid, line);
        lat
    }

    /// Nontransactional compare-and-swap; returns success. One memory
    /// operation's latency either way.
    pub fn nt_cas(&mut self, tid: usize, addr: Addr, old: u64, new: u64) -> (bool, u64) {
        let line = line_of(addr);
        let cur = self.read_word(addr);
        if cur == old {
            self.resolve_conflicts(tid, addr, true, 0);
            let lat = self.touch_caches(tid, line, false).unwrap();
            self.cores[tid].stats.nt_mem_ops += 1;
            self.write_word(tid, addr, new);
            self.invalidate_others(tid, line);
            (true, lat)
        } else {
            let lat = self.touch_caches(tid, line, false).unwrap();
            self.cores[tid].stats.nt_mem_ops += 1;
            (false, lat)
        }
    }

    // ----- allocation -----------------------------------------------------

    /// Bump-allocate from `tid`'s arena, refilling from the global heap.
    pub fn alloc(&mut self, tid: usize, words: u64, line_align: bool) -> (Addr, u64) {
        let bytes = words * WORD_BYTES;
        let chunk = (self.cfg.arena_chunk_words as u64) * WORD_BYTES;
        assert!(
            bytes <= chunk,
            "allocation of {words} words exceeds arena chunk"
        );
        let core = &mut self.cores[tid];
        let mut start = core.arena_next;
        if line_align {
            start = (start + LINE_BYTES - 1) & !(LINE_BYTES - 1);
        }
        if start + bytes > core.arena_end {
            // Refill: carve a fresh chunk from the global heap (line
            // aligned so arenas of different threads never share lines).
            let base = (self.heap_next + LINE_BYTES - 1) & !(LINE_BYTES - 1);
            assert!(
                (base + chunk) / WORD_BYTES <= self.mem.len() as u64,
                "simulated heap exhausted"
            );
            self.heap_next = base + chunk;
            let core = &mut self.cores[tid];
            core.arena_next = base;
            core.arena_end = base + chunk;
            start = base;
        }
        let core = &mut self.cores[tid];
        core.arena_next = start + bytes;
        let cost = 10 + self.cfg.alloc_cost_per_word * words;
        (start, cost)
    }

    /// Host-side allocation (setup code, zero simulated cycles).
    pub fn host_alloc(&mut self, words: u64, line_align: bool) -> Addr {
        let bytes = words * WORD_BYTES;
        let mut base = self.heap_next;
        if line_align {
            base = (base + LINE_BYTES - 1) & !(LINE_BYTES - 1);
        }
        assert!(
            (base + bytes) / WORD_BYTES <= self.mem.len() as u64,
            "simulated heap exhausted"
        );
        self.heap_next = base + bytes;
        base
    }

    /// Host-side read (no cycles, no coherence effects).
    pub fn host_load(&self, addr: Addr) -> u64 {
        self.read_word(addr)
    }

    /// Host-side write (no cycles, no coherence effects). Only sound while
    /// no simulated threads run.
    pub fn host_store(&mut self, addr: Addr, val: u64) {
        let i = self.word_slot(addr);
        self.mem[i] = val;
    }
}

// ----- gated-operation descriptors --------------------------------------

/// A gated shared-state operation, reified so it can be (a) executed
/// directly by the cooperative/threaded gate, (b) executed against a
/// speculative overlay by the [`crate::spec`] scheduler, and (c) re-executed
/// against the real state by that scheduler's serial commit walk. Having one
/// descriptor per operation guarantees all three paths run *the same* op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Begin { ab_id: u32 },
    Load { addr: Addr, pc: u64 },
    Store { addr: Addr, val: u64, pc: u64 },
    Commit,
    Abort,
    NtLoad { addr: Addr },
    PlainLoad { addr: Addr },
    NtStore { addr: Addr, val: u64 },
    NtCas { addr: Addr, old: u64, new: u64 },
    Alloc { words: u64, line_align: bool },
    LockWait { cycles: u64 },
    Backoff { cycles: u64 },
    Irrevocable { cycles: u64 },
}

/// Result of a gated operation — comparable, so the speculative scheduler
/// can validate a predicted result against the authoritative re-execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpResult {
    Unit,
    Val(u64),
    Flag(bool),
    TxUnit(Result<(), TxError>),
    TxVal(Result<u64, TxError>),
    TxErr(TxError),
}

/// Execute `op` for `tid` against the real simulator state, returning the
/// result and its latency. This is the single dispatch point used by every
/// scheduler's gate (and by the speculative commit walk), excluding only the
/// clock fold / `gated_ops` bookkeeping that the callers replicate.
pub(crate) fn apply_op(st: &mut SimState, tid: usize, op: &Op) -> (OpResult, u64) {
    match *op {
        Op::Begin { ab_id } => {
            let lat = st.tx_begin(tid, ab_id);
            (OpResult::Unit, lat)
        }
        Op::Load { addr, pc } => {
            let (r, lat) = st.tx_load(tid, addr, pc);
            (OpResult::TxVal(r), lat)
        }
        Op::Store { addr, val, pc } => {
            let (r, lat) = st.tx_store(tid, addr, val, pc);
            (OpResult::TxUnit(r), lat)
        }
        Op::Commit => {
            let (r, lat) = st.tx_commit(tid);
            (OpResult::TxUnit(r), lat)
        }
        Op::Abort => (OpResult::TxErr(st.self_abort(tid, AbortCause::Explicit)), 0),
        Op::NtLoad { addr } => {
            let (v, lat) = st.nt_load(tid, addr);
            (OpResult::Val(v), lat)
        }
        Op::PlainLoad { addr } => {
            let (v, lat) = st.plain_load(tid, addr);
            (OpResult::Val(v), lat)
        }
        Op::NtStore { addr, val } => {
            let lat = st.nt_store(tid, addr, val);
            (OpResult::Unit, lat)
        }
        Op::NtCas { addr, old, new } => {
            let (ok, lat) = st.nt_cas(tid, addr, old, new);
            (OpResult::Flag(ok), lat)
        }
        Op::Alloc { words, line_align } => {
            let (a, lat) = st.alloc(tid, words, line_align);
            (OpResult::Val(a), lat)
        }
        Op::LockWait { cycles } => {
            st.cores[tid].stats.lock_wait_cycles += cycles;
            (OpResult::Unit, 0)
        }
        Op::Backoff { cycles } => {
            st.cores[tid].stats.backoff_cycles += cycles;
            (OpResult::Unit, 0)
        }
        Op::Irrevocable { cycles } => {
            st.cores[tid].stats.irrevocable_cycles += cycles;
            st.cores[tid].stats.irrevocable_commits += 1;
            (OpResult::Unit, 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(n: usize) -> SimState {
        SimState::new(MachineConfig::cores(n).small())
    }

    #[test]
    fn schedule_picks_min_and_caches_runner_up() {
        let mut s = state(3);
        s.cores[0].clock = 50;
        s.cores[1].clock = 10;
        s.cores[2].clock = 30;
        assert_eq!(s.schedule(), Some(1));
        assert_eq!(s.horizon, (30, 2), "runner-up becomes the horizon");
    }

    #[test]
    fn schedule_skips_retired_cores() {
        // Core retirement: a finished core must neither run nor act as the
        // horizon, even when its clock is the global minimum.
        let mut s = state(3);
        s.cores[0].clock = 5;
        s.cores[0].finished = true;
        s.cores[1].clock = 40;
        s.cores[2].clock = 20;
        assert_eq!(s.schedule(), Some(2));
        assert_eq!(s.horizon, (40, 1));
        assert_eq!(s.next_eligible(), Some(2));
    }

    #[test]
    fn schedule_breaks_clock_ties_by_id_even_at_max() {
        // Saturated clocks: ties at u64::MAX must still order by core id,
        // and the horizon pair must remain strictly comparable.
        let mut s = state(3);
        for c in s.cores.iter_mut() {
            c.clock = u64::MAX;
        }
        assert_eq!(s.schedule(), Some(0));
        assert_eq!(s.horizon, (u64::MAX, 1));
        // The chosen core stays eligible: its key equals neither horizon
        // component's successor — (MAX, 0) <= (MAX, 1).
        assert!((s.cores[0].clock, 0) <= s.horizon);
    }

    #[test]
    fn schedule_single_live_core_gets_open_horizon() {
        // Single-live-core fast path: with no runner-up the horizon must be
        // the +infinity sentinel so the survivor's gates never suspend.
        let mut s = state(2);
        s.cores[1].finished = true;
        s.cores[0].clock = 123;
        assert_eq!(s.schedule(), Some(0));
        assert_eq!(s.horizon, (u64::MAX, usize::MAX));
        // Even a clock at the sentinel value stays eligible by id ordering.
        s.cores[0].clock = u64::MAX;
        assert_eq!(s.schedule(), Some(0));
        assert!((s.cores[0].clock, 0) <= s.horizon);
    }

    #[test]
    fn schedule_all_finished_is_none() {
        let mut s = state(2);
        s.cores[0].finished = true;
        s.cores[1].finished = true;
        assert_eq!(s.schedule(), None);
        assert_eq!(s.next_eligible(), None);
        assert_eq!(s.horizon, (u64::MAX, usize::MAX));
    }

    #[test]
    fn indexed_schedule_matches_linear_reference() {
        // Property test: under random clock advances (including jumps to
        // u64::MAX), retirements, spinners parking with and without a
        // deadline, and writes that wake them (the heap's key decreases),
        // the heap-backed `schedule()` must pick the identical (core,
        // horizon) pair as a linear-scan reference at every step. The
        // reference keys a parked core by its deadline, or leaves it out.
        use crate::spin::SpinUntil;
        use stagger_prng::Xoshiro256StarStar;
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xC0DE_2015);
        let l1 = MachineConfig::cores(1).l1_latency;
        let mut decreases = 0;
        for trial in 0..40u64 {
            let n = 1 + rng.below(80) as usize;
            let mut s = state(n);
            let word = s.host_alloc(8, true);
            let line = line_of(word);
            s.host_store(word, 1);
            s.host_store(word + 8, 1);
            for step in 0..200u64 {
                // Reference: one linear pass computing best + runner-up.
                let mut ref_best: Option<(u64, usize)> = None;
                let mut ref_second = (u64::MAX, usize::MAX);
                for (i, c) in s.cores.iter().enumerate() {
                    let key = if c.finished {
                        None
                    } else if s.parked.contains(i) {
                        c.park_deadline()
                    } else {
                        Some(c.clock)
                    };
                    let Some(clock) = key else { continue };
                    let k = (clock, i);
                    match ref_best {
                        None => ref_best = Some(k),
                        Some(b) if k < b => {
                            ref_second = b;
                            ref_best = Some(k);
                        }
                        Some(_) => {
                            if k < ref_second {
                                ref_second = k;
                            }
                        }
                    }
                }
                let got = s.schedule();
                assert_eq!(
                    got,
                    ref_best.map(|(_, i)| i),
                    "trial {trial} step {step}: scheduled core diverged"
                );
                assert_eq!(
                    s.horizon, ref_second,
                    "trial {trial} step {step}: horizon diverged"
                );
                if let Some((clock, i)) = ref_best {
                    assert!(!s.parked.contains(i), "a scheduled core is unparked");
                    assert_eq!(s.cores[i].clock, clock, "resumed at its deadline");
                    s.cores[i].spin = None;
                }
                if got.is_none() {
                    break;
                }
                // Mutate a few random cores.
                for _ in 0..1 + rng.below(3) {
                    let i = rng.below(n as u64) as usize;
                    if s.cores[i].finished {
                        continue;
                    }
                    if s.parked.contains(i) {
                        // A write by a random live core wakes every spinner
                        // parked on the line (only when it precedes their
                        // deadlines, as the driver guarantees).
                        let w = rng.below(n as u64) as usize;
                        let first_deadline = s
                            .parked
                            .iter()
                            .filter_map(|c| s.cores[c].park_deadline())
                            .min()
                            .unwrap_or(u64::MAX);
                        if !s.parked.contains(w)
                            && !s.cores[w].finished
                            && s.cores[w].clock < first_deadline
                        {
                            let before = s.parked;
                            s.wake_parked(w, line);
                            decreases += before.iter().count();
                            assert!(s.parked.is_empty());
                        }
                        continue;
                    }
                    match rng.below(14) {
                        0 => s.cores[i].finished = true,
                        1 => s.cores[i].clock = u64::MAX,
                        2 | 3 if s.cores[i].clock < u64::MAX / 2 => {
                            // Park on the shared line: an advisory acquire
                            // (deadline) or a global-lock acquire (none).
                            let until = if rng.below(2) == 0 {
                                SpinUntil::ClaimedWithin {
                                    me: 1,
                                    timeout: rng.below(2_000),
                                }
                            } else {
                                SpinUntil::Claimed { me: 1 }
                            };
                            let mut sl = SpinLoop::new(Spin {
                                word,
                                until,
                                quantum: 1 + rng.below(40),
                            });
                            if sl.park(s.cores[i].clock, l1) {
                                s.cores[i].l1.insert(line, |_| false).unwrap();
                                s.dir.get_mut(line).cached.insert(i);
                                s.cores[i].spin = Some(sl);
                                s.parked.insert(i);
                            }
                        }
                        _ => {
                            let c = &mut s.cores[i];
                            c.clock = c.clock.saturating_add(rng.below(100));
                        }
                    }
                }
            }
        }
        assert!(decreases > 100, "only {decreases} wakes exercised");
    }

    #[test]
    fn cores_past_32_conflict_correctly() {
        // The old u32 masks made `1 << tid` overflow beyond core 31; a
        // 33-core machine must now conflict-detect across that boundary in
        // both directions.
        let mut s = state(33);
        let a = s.host_alloc(8, true);
        s.tx_begin(32, 1);
        s.tx_store(32, a, 1, 0x400).0.unwrap();
        s.tx_begin(1, 1);
        s.tx_store(1, a, 2, 0x500).0.unwrap();
        assert!(s.tx_commit(32).0.is_err(), "core 32 must be doomable");
        s.tx_commit(1).0.unwrap();
        // And the reverse: a high-id requester dooms a low-id owner.
        s.tx_begin(0, 1);
        s.tx_store(0, a, 3, 0x600).0.unwrap();
        s.tx_begin(32, 2);
        s.tx_store(32, a, 4, 0x700).0.unwrap();
        assert!(s.tx_commit(0).0.is_err());
        s.tx_commit(32).0.unwrap();
        assert_eq!(s.host_load(a), 4);
        assert!(s.owners_empty());
    }

    #[test]
    fn doom_walk_is_ascending_across_words_at_256_cores() {
        // Readers spread across all four CoreSet words; a writer's
        // requester-wins walk must doom every one of them, in ascending id
        // order (checked indirectly: all are aborted, the writer commits).
        let mut s = state(256);
        let a = s.host_alloc(8, true);
        s.host_store(a, 7);
        let readers = [5usize, 70, 140, 255];
        for &t in &readers {
            s.tx_begin(t, 1);
            assert_eq!(s.tx_load(t, a, 0x100).0.unwrap(), 7);
        }
        s.tx_begin(9, 2);
        s.tx_store(9, a, 8, 0x200).0.unwrap();
        for &t in &readers {
            assert!(s.tx_commit(t).0.is_err(), "reader {t} must be doomed");
        }
        s.tx_commit(9).0.unwrap();
        assert_eq!(s.host_load(a), 8);
        assert!(s.owners_empty());
    }

    #[test]
    #[should_panic(expected = "n_cores")]
    fn more_than_max_cores_is_rejected() {
        // Through set_kv (the experiment-spec route), which bypasses the
        // `MachineConfig::cores` builder assert — SimState::new is the
        // backstop.
        let mut cfg = MachineConfig::cores(1).small();
        cfg.set_kv("n_cores", &(MAX_CORES + 1).to_string()).unwrap();
        let _ = SimState::new(cfg);
    }

    #[test]
    fn default_machine_allocates_no_directory_pages() {
        let s = SimState::new(MachineConfig::default());
        assert_eq!(s.dir.pages_allocated(), 0);
    }

    #[test]
    fn last_line_of_memory_is_usable() {
        let mut s = state(2);
        let last = (s.cfg.mem_words as u64 - WORDS_PER_LINE) * WORD_BYTES;
        s.nt_store(0, last + 56, 5);
        assert_eq!(s.nt_load(1, last + 56).0, 5);
        s.tx_begin(1, 1);
        s.tx_store(1, last, 6, 0x100).0.unwrap();
        s.tx_commit(1).0.unwrap();
        assert_eq!(s.host_load(last), 6);
        assert!(s.owners_empty());
    }

    // `small()` memory is 1 << 18 words = 0x200000 bytes: the first line
    // past the end starts at 0x200000.
    #[test]
    #[should_panic(expected = "simulated address 0x200000 out of range")]
    fn word_read_past_the_end_panics() {
        state(1).host_load(0x20_0000);
    }

    #[test]
    #[should_panic(expected = "simulated address 0x200000 out of range")]
    fn nt_access_past_the_end_panics_like_a_word_read() {
        state(1).nt_load(0, 0x20_0000);
    }

    #[test]
    #[should_panic(expected = "simulated address 0x200000 out of range")]
    fn tx_access_past_the_end_panics_like_a_word_read() {
        let mut s = state(1);
        s.tx_begin(0, 1);
        let _ = s.tx_load(0, 0x20_0000, 0x100);
    }

    #[test]
    #[should_panic(expected = "mem_words must be a positive multiple of 8")]
    fn partial_line_memory_is_rejected() {
        let mut cfg = MachineConfig::cores(1).small();
        cfg.mem_words += 3;
        let _ = SimState::new(cfg);
    }

    /// Checks the presence invariant on every line in `lines`: `cached` is
    /// exactly the set of cores holding the line in their L1 or L2.
    fn assert_presence_exact(s: &SimState, lines: &[u64], ctx: &str) {
        for &l in lines {
            let want: Vec<usize> = (0..s.cores.len())
                .filter(|&c| s.cores[c].l1.contains(l) || s.cores[c].l2.contains(l))
                .collect();
            let got: Vec<usize> = s.dir.get(l).cached.iter().collect();
            assert_eq!(got, want, "{ctx}: presence set of line {l:#x}");
        }
    }

    #[test]
    fn presence_set_tracks_private_caches_exactly() {
        // Seeded random mixes of transactional and nontransactional
        // operations on a tiny cache geometry (2-way L1 and 3-way L2 over
        // two sets each, 12 lines in play), so fills evict from both
        // levels, transactions overflow the L1 (capacity aborts), remote
        // requesters doom them, and nontransactional accesses into a set
        // full of speculative lines bypass the L1. 65 and 256 cores cover
        // the multi-word CoreSet path.
        use stagger_prng::Xoshiro256StarStar;
        const LINES: u64 = 12;
        let mut bypasses = 0u64;
        for (n, protocol) in [
            (1, HtmProtocol::Eager),
            (16, HtmProtocol::Eager),
            (16, HtmProtocol::Lazy),
            (65, HtmProtocol::Eager),
            (256, HtmProtocol::Eager),
            (256, HtmProtocol::Lazy),
        ] {
            let mut rng = Xoshiro256StarStar::seed_from_u64(0x9E5E_0000 + n as u64);
            let mut cfg = MachineConfig::cores(n).small();
            cfg.protocol = protocol;
            cfg.l1_sets = 2;
            cfg.l1_ways = 2;
            cfg.l2_sets = 2;
            cfg.l2_ways = 3;
            cfg.l3_sets = 2;
            cfg.l3_ways = 4;
            let mut s = SimState::new(cfg);
            let base = s.host_alloc(LINES * WORDS_PER_LINE, true);
            let lines: Vec<u64> = (0..LINES).map(|i| line_of(base) + i).collect();
            // Cores biased towards a few, so transactions grow long enough
            // to overflow and to be doomed by their neighbours.
            let active = n.min(6);
            for step in 0..6000 {
                let tid = if rng.below(4) == 0 {
                    rng.below(n as u64) as usize
                } else {
                    rng.below(active as u64) as usize
                };
                let addr = base + rng.below(LINES) * LINE_BYTES + rng.below(8) * WORD_BYTES;
                let line = line_of(addr);
                let in_tx = s.tx_active(tid);
                let own_spec = s.cores[tid]
                    .tx
                    .as_ref()
                    .is_some_and(|t| t.spec_contains(line));
                let ctx = format!("{n} cores {protocol:?} step {step} core {tid}");
                let mut ended = false;
                let nt_write_ok = !own_spec; // never NT-write an own speculative line
                match (in_tx, rng.below(10)) {
                    // Outside a transaction.
                    (false, 0..=3) => {
                        s.tx_begin(tid, 1);
                    }
                    (false, 4..=6) => {
                        s.nt_store(tid, addr, step);
                    }
                    (false, 8) => {
                        s.plain_load(tid, addr);
                    }
                    // Inside one.
                    (true, 0..=2) => ended = s.tx_load(tid, addr, 0x100).0.is_err(),
                    (true, 3..=4) => ended = s.tx_store(tid, addr, step, 0x104).0.is_err(),
                    (true, 5) => {
                        let _ = s.tx_commit(tid);
                        ended = true;
                    }
                    (true, 6) => {
                        let _ = s.self_abort(tid, AbortCause::Explicit);
                        ended = true;
                    }
                    (true, 8) if nt_write_ok => {
                        s.nt_store(tid, addr, step);
                    }
                    // Either.
                    (_, 9) if nt_write_ok => {
                        let old = s.host_load(addr);
                        s.nt_cas(tid, addr, old, step);
                    }
                    _ => {
                        let pinned_full = in_tx && !s.cores[tid].l1.contains(line);
                        s.nt_load(tid, addr);
                        if pinned_full && !s.cores[tid].l1.contains(line) {
                            bypasses += 1;
                        }
                    }
                }
                assert_presence_exact(&s, &lines, &ctx);
                if ended {
                    assert!(!s.tx_active(tid), "{ctx}: transaction still active");
                    for &l in &lines {
                        let o = s.dir.get(l).owners;
                        assert!(
                            !o.readers.contains(tid) && !o.writers.contains(tid),
                            "{ctx}: ended transaction still owns line {l:#x}"
                        );
                    }
                }
                if (0..n).all(|c| s.cores[c].tx.as_ref().is_none_or(|t| t.rolled_back)) {
                    assert!(
                        s.owners_empty(),
                        "{ctx}: owners left with no live transaction"
                    );
                }
            }
            // Drain every open transaction; the directory then holds no
            // owner at all.
            for tid in 0..n {
                if s.tx_active(tid) {
                    let _ = s.tx_commit(tid);
                }
            }
            assert!(
                s.owners_empty(),
                "{n} cores {protocol:?}: owners left at the end"
            );
            assert_presence_exact(&s, &lines, "drained");
            let st: Vec<_> = s.cores.iter().map(|c| c.stats.clone()).collect();
            if n > 1 {
                assert!(
                    st.iter().any(|c| c.conflict_aborts > 0),
                    "{n}: no remote doom"
                );
            }
            assert!(
                st.iter().any(|c| c.capacity_aborts > 0),
                "{n}: no capacity abort"
            );
        }
        assert!(bypasses > 0, "no nontransactional access bypassed the L1");
    }

    #[test]
    fn plain_read_write() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.nt_store(0, a, 42);
        let (v, _) = s.nt_load(1, a);
        assert_eq!(v, 42);
    }

    #[test]
    fn tx_commit_makes_writes_durable() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 7, 0x400).0.unwrap();
        s.tx_commit(0).0.unwrap();
        assert_eq!(s.host_load(a), 7);
        assert_eq!(s.cores[0].stats.commits, 1);
        assert!(s.owners_empty(), "ownership released on commit");
    }

    #[test]
    fn requester_wins_write_write() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.host_store(a, 1);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 10, 0x400).0.unwrap();
        // Core 1 writes the same line: core 0 is the victim.
        s.tx_begin(1, 1);
        s.tx_store(1, a, 20, 0x500).0.unwrap();
        // Core 0's eager write must have been rolled back before core 1
        // read/wrote: memory holds 20 (core 1's speculative value).
        assert_eq!(s.host_load(a), 20);
        // Core 0 observes doom at its next operation.
        let (r, _) = s.tx_commit(0);
        let info = r.unwrap_err().info();
        assert_eq!(info.cause, AbortCause::Conflict);
        assert_eq!(info.conf_addr, crate::addr::line_addr(a));
        assert_eq!(info.true_first_pc, 0x400);
        assert_eq!(info.conf_pc_tag, 0x400);
        assert_eq!(s.cores[0].stats.conflict_aborts, 1);
        // Core 1 commits fine.
        s.tx_commit(1).0.unwrap();
        assert_eq!(s.host_load(a), 20);
    }

    #[test]
    fn requester_wins_read_write() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.host_store(a, 5);
        s.tx_begin(0, 1);
        assert_eq!(s.tx_load(0, a, 0x100).0.unwrap(), 5);
        // A writer kills a reader.
        s.tx_begin(1, 1);
        s.tx_store(1, a, 6, 0x200).0.unwrap();
        assert!(s.tx_commit(0).0.is_err());
        s.tx_commit(1).0.unwrap();
        assert_eq!(s.host_load(a), 6);
    }

    #[test]
    fn readers_do_not_conflict() {
        let mut s = state(3);
        let a = s.host_alloc(8, true);
        s.host_store(a, 9);
        for t in 0..3 {
            s.tx_begin(t, 1);
            assert_eq!(s.tx_load(t, a, 0).0.unwrap(), 9);
        }
        for t in 0..3 {
            s.tx_commit(t).0.unwrap();
        }
    }

    #[test]
    fn bounded_read_set_aborts_with_capacity_cause() {
        let mut cfg = MachineConfig::cores(1).small();
        cfg.max_read_lines = 2;
        let mut s = SimState::new(cfg);
        let base = s.host_alloc(8 * 64, true);
        s.tx_begin(0, 1);
        s.tx_load(0, base, 0x100).0.unwrap();
        s.tx_load(0, base + LINE_BYTES, 0x104).0.unwrap();
        // Re-touching a counted line is free...
        s.tx_load(0, base, 0x108).0.unwrap();
        // ...but a third distinct line crosses the bound.
        let err = s.tx_load(0, base + 2 * LINE_BYTES, 0x10C).0.unwrap_err();
        assert_eq!(err.info().cause, AbortCause::Capacity);
        assert_eq!(s.cores[0].stats.capacity_aborts, 1);
        assert!(s.owners_empty());
    }

    #[test]
    fn bounded_write_set_counts_only_written_lines() {
        let mut cfg = MachineConfig::cores(1).small();
        cfg.max_write_lines = 1;
        let mut s = SimState::new(cfg);
        let base = s.host_alloc(8 * 64, true);
        s.tx_begin(0, 1);
        // Reads are unbounded here; one written line is fine.
        s.tx_load(0, base, 0x100).0.unwrap();
        s.tx_store(0, base + LINE_BYTES, 1, 0x104).0.unwrap();
        s.tx_store(0, base + LINE_BYTES + 8, 2, 0x108).0.unwrap();
        // Upgrading the read line to written would be a second written line.
        let err = s.tx_store(0, base, 3, 0x10C).0.unwrap_err();
        assert_eq!(err.info().cause, AbortCause::Capacity);
        assert_eq!(s.cores[0].stats.capacity_aborts, 1);
    }

    #[test]
    fn safe_lazy_subscription_validates_lock_at_commit() {
        let mut cfg = MachineConfig::cores(1).small();
        cfg.fallback = FallbackPolicy::LazySubscriptionSafe;
        let mut s = SimState::new(cfg);
        let lock = s.host_alloc(8, true);
        let a = s.host_alloc(8, true);
        s.register_commit_lock(lock);
        // Lock held at commit: the hardware validation aborts us.
        s.host_store(lock, 1);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 7, 0x100).0.unwrap();
        let err = s.tx_commit(0).0.unwrap_err();
        assert_eq!(err.info().cause, AbortCause::SubscriptionValidation);
        assert_eq!(s.cores[0].stats.subscription_aborts, 1);
        assert_eq!(s.host_load(a), 0, "aborted write rolled back");
        // Lock free: commit proceeds.
        s.host_store(lock, 0);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 7, 0x100).0.unwrap();
        s.tx_commit(0).0.unwrap();
        assert_eq!(s.host_load(a), 7);
        assert!(s.owners_empty());
    }

    #[test]
    fn reader_kills_writer() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.host_store(a, 1);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 2, 0).0.unwrap();
        s.tx_begin(1, 1);
        // Requester-wins: the *reader* requester aborts the writer and
        // reads the pre-transactional value.
        assert_eq!(s.tx_load(1, a, 0).0.unwrap(), 1);
        assert!(s.tx_commit(0).0.is_err());
        s.tx_commit(1).0.unwrap();
    }

    #[test]
    fn abort_rolls_back_multiple_writes_in_order() {
        let mut s = state(2);
        let a = s.host_alloc(16, true);
        s.host_store(a, 1);
        s.host_store(a + 8, 2);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 100, 0).0.unwrap();
        s.tx_store(0, a + 8, 200, 0).0.unwrap();
        s.tx_store(0, a, 300, 0).0.unwrap(); // second write to same addr
        s.tx_begin(1, 1);
        s.tx_store(1, a, 999, 0).0.unwrap();
        // Victim rolled back completely: a+8 restored to 2.
        assert_eq!(s.host_load(a + 8), 2);
        assert!(s.tx_commit(0).0.is_err());
        s.tx_commit(1).0.unwrap();
        assert_eq!(s.host_load(a), 999);
    }

    #[test]
    fn nt_store_aborts_speculative_owner() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.tx_begin(0, 1);
        s.tx_load(0, a, 0).0.unwrap();
        s.nt_store(1, a, 77);
        assert!(s.tx_commit(0).0.is_err());
        assert_eq!(s.host_load(a), 77);
    }

    #[test]
    fn plain_load_never_sees_uncommitted_data() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.host_store(a, 1);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 999, 0).0.unwrap(); // eager, in place
                                             // Irrevocable/plain reader must get the pre-transactional value and
                                             // doom the speculative writer.
        let (v, _) = s.plain_load(1, a);
        assert_eq!(v, 1);
        assert!(s.tx_commit(0).0.is_err());
    }

    #[test]
    fn nt_load_does_not_abort_anyone() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 3, 0).0.unwrap();
        let _ = s.nt_load(1, a);
        s.tx_commit(0).0.unwrap();
        assert_eq!(s.host_load(a), 3);
    }

    #[test]
    fn nt_cas_success_and_failure() {
        let mut s = state(1);
        let a = s.host_alloc(8, true);
        assert!(s.nt_cas(0, a, 0, 5).0);
        assert!(!s.nt_cas(0, a, 0, 9).0);
        assert_eq!(s.host_load(a), 5);
        assert!(s.nt_cas(0, a, 5, 9).0);
        assert_eq!(s.host_load(a), 9);
    }

    #[test]
    fn capacity_abort_on_set_overflow() {
        let mut s = state(1);
        // 9 distinct lines mapping to the same L1 set (set stride =
        // l1_sets lines).
        let stride = (s.cfg.l1_sets as u64) * LINE_BYTES;
        let base = s.host_alloc((s.cfg.l1_sets as u64) * 8 * 10, true);
        s.tx_begin(0, 1);
        let mut aborted = false;
        for i in 0..9u64 {
            let addr = base + i * stride;
            match s.tx_load(0, addr, 0).0 {
                Ok(_) => {}
                Err(e) => {
                    assert_eq!(e.info().cause, AbortCause::Capacity);
                    aborted = true;
                    break;
                }
            }
        }
        assert!(aborted, "9 same-set speculative lines must overflow 8 ways");
        assert_eq!(s.cores[0].stats.capacity_aborts, 1);
        assert!(!s.tx_active(0));
    }

    #[test]
    fn explicit_self_abort_rolls_back() {
        let mut s = state(1);
        let a = s.host_alloc(8, true);
        s.host_store(a, 4);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 40, 0).0.unwrap();
        let e = s.self_abort(0, AbortCause::Explicit);
        assert_eq!(e.info().cause, AbortCause::Explicit);
        assert_eq!(s.host_load(a), 4);
        assert_eq!(s.cores[0].stats.explicit_aborts, 1);
    }

    #[test]
    fn latency_hierarchy_orders() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        // Cold: memory latency.
        let (_, cold) = s.nt_load(0, a);
        assert_eq!(cold, s.cfg.mem_latency);
        // Hot: L1.
        let (_, hot) = s.nt_load(0, a);
        assert_eq!(hot, s.cfg.l1_latency);
        // Other core: cache-to-cache at L3 cost.
        let (_, remote) = s.nt_load(1, a);
        assert_eq!(remote, s.cfg.l3_latency);
    }

    #[test]
    fn write_invalidates_other_copies() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.nt_load(0, a);
        s.nt_load(1, a);
        // Core 1 writes; core 0's copy must be gone (next access is a
        // transfer, not an L1 hit).
        s.nt_store(1, a, 1);
        let (_, lat) = s.nt_load(0, a);
        assert!(lat > s.cfg.l1_latency);
    }

    #[test]
    fn alloc_distinct_and_aligned() {
        let mut s = state(2);
        let (a, _) = s.alloc(0, 4, true);
        let (b, _) = s.alloc(0, 4, true);
        let (c, _) = s.alloc(1, 4, true);
        assert_eq!(a % LINE_BYTES, 0);
        assert_eq!(b % LINE_BYTES, 0);
        assert_ne!(line_of(a), line_of(b));
        // Different threads allocate from different arenas.
        assert_ne!(line_of(a), line_of(c));
    }

    #[test]
    fn alloc_unaligned_packs_words() {
        let mut s = state(1);
        let (a, _) = s.alloc(0, 2, false);
        let (b, _) = s.alloc(0, 2, false);
        assert_eq!(b, a + 16);
    }

    #[test]
    fn conflicting_pc_is_first_access_not_current() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.tx_begin(0, 1);
        s.tx_load(0, a, 0x111).0.unwrap(); // first access at PC 0x111
        s.tx_store(0, a, 9, 0x222).0.unwrap(); // later store, same line
        s.tx_begin(1, 1);
        s.tx_store(1, a, 1, 0).0.unwrap();
        let (r, _) = s.tx_commit(0);
        let info = r.unwrap_err().info();
        assert_eq!(info.true_first_pc, 0x111, "PC tag set at first access only");
        s.tx_commit(1).0.unwrap();
    }

    #[test]
    fn pc_tag_truncated_to_12_bits() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.tx_begin(0, 1);
        s.tx_load(0, a, 0x40_1234).0.unwrap();
        s.tx_begin(1, 1);
        s.tx_store(1, a, 1, 0).0.unwrap();
        let (r, _) = s.tx_commit(0);
        let info = r.unwrap_err().info();
        assert_eq!(info.conf_pc_tag, 0x234);
        assert_eq!(info.true_first_pc, 0x40_1234);
        s.tx_commit(1).0.unwrap();
    }

    // ----- lazy protocol ---------------------------------------------------

    fn lazy_state(n: usize) -> SimState {
        SimState::new(MachineConfig::cores(n).small().lazy())
    }

    #[test]
    fn lazy_writes_stay_private_until_commit() {
        let mut s = lazy_state(2);
        let a = s.host_alloc(8, true);
        s.host_store(a, 5);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 99, 0x40).0.unwrap();
        // Memory still has the old value; another core's plain read sees it
        // and dooms no one.
        assert_eq!(s.plain_load(1, a).0, 5);
        // Our own transactional read sees the buffered value.
        assert_eq!(s.tx_load(0, a, 0x44).0.unwrap(), 99);
        s.tx_commit(0).0.unwrap();
        assert_eq!(s.host_load(a), 99);
    }

    #[test]
    fn lazy_committer_wins_over_reader() {
        let mut s = lazy_state(2);
        let a = s.host_alloc(8, true);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 7, 0x100).0.unwrap();
        s.tx_begin(1, 1);
        // Reader proceeds freely (no eager conflict)...
        assert_eq!(s.tx_load(1, a, 0x200).0.unwrap(), 0);
        // ...until the writer commits: committer wins.
        s.tx_commit(0).0.unwrap();
        let e = s.tx_commit(1).0.unwrap_err();
        assert_eq!(e.info().cause, AbortCause::Conflict);
        assert_eq!(e.info().true_first_pc, 0x200);
        assert_eq!(s.host_load(a), 7);
    }

    #[test]
    fn lazy_concurrent_writers_coexist_until_commit() {
        let mut s = lazy_state(3);
        let a = s.host_alloc(8, true);
        for t in 0..3 {
            s.tx_begin(t, 1);
            s.tx_store(t, a, 10 + t as u64, 0).0.unwrap();
        }
        // First committer wins; the others are doomed at their commits.
        s.tx_commit(0).0.unwrap();
        assert!(s.tx_commit(1).0.is_err());
        assert!(s.tx_commit(2).0.is_err());
        assert_eq!(s.host_load(a), 10);
    }

    #[test]
    fn lazy_abort_discards_buffer_without_rollback() {
        let mut s = lazy_state(1);
        let a = s.host_alloc(8, true);
        s.host_store(a, 3);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 42, 0).0.unwrap();
        let _ = s.self_abort(0, AbortCause::Explicit);
        assert_eq!(s.host_load(a), 3, "no eager write ever happened");
    }

    #[test]
    fn lazy_disjoint_writers_all_commit() {
        let mut s = lazy_state(2);
        let a = s.host_alloc(16, true);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 1, 0).0.unwrap();
        s.tx_begin(1, 1);
        s.tx_store(1, a + 64, 2, 0).0.unwrap();
        s.tx_commit(0).0.unwrap();
        s.tx_commit(1).0.unwrap();
    }

    #[test]
    fn next_eligible_min_clock_ties_by_id() {
        let mut s = state(3);
        s.cores[0].clock = 5;
        s.cores[1].clock = 3;
        s.cores[2].clock = 3;
        assert_eq!(s.next_eligible(), Some(1));
        s.cores[1].finished = true;
        assert_eq!(s.next_eligible(), Some(2));
        s.cores[2].finished = true;
        assert_eq!(s.next_eligible(), Some(0));
        s.cores[0].finished = true;
        assert_eq!(s.next_eligible(), None);
    }

    #[test]
    fn wasted_and_useful_cycle_accounting() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.tx_begin(0, 1);
        s.cores[0].clock += 100; // simulate work inside the attempt
        s.tx_store(0, a, 1, 0).0.unwrap();
        s.tx_begin(1, 1);
        s.tx_store(1, a, 2, 0).0.unwrap();
        s.cores[0].clock += 50; // doomed victim keeps running a bit
        assert!(s.tx_commit(0).0.is_err());
        // 100 + 50 cycles of attempt work plus the abort-delivery cost.
        assert_eq!(s.cores[0].stats.wasted_tx_cycles, 150 + s.cfg.tx_abort_cost);
        s.cores[1].clock += 30;
        s.tx_commit(1).0.unwrap();
        assert_eq!(s.cores[1].stats.useful_tx_cycles, 30 + s.cfg.tx_commit_cost);
    }

    #[test]
    fn perm_cache_repeat_accesses_hit_l1_latency() {
        let mut s = state(2);
        assert!(s.perm_slots > 0, "default config enables the fast path");
        let a = s.host_alloc(8, true);
        s.tx_begin(0, 1);
        // First store goes the slow way (owner-directory probe + fill).
        let (r, first_lat) = s.tx_store(0, a, 1, 0x400);
        r.unwrap();
        assert!(first_lat > s.cfg.l1_latency);
        // Repeats hold write permission: L1-latency fast path, same value
        // flow and footprint as the slow path.
        let (r, lat) = s.tx_store(0, a, 2, 0x400);
        r.unwrap();
        assert_eq!(lat, s.cfg.l1_latency);
        let (v, lat) = {
            let (r, lat) = s.tx_load(0, a, 0x404);
            (r.unwrap(), lat)
        };
        assert_eq!(v, 2);
        assert_eq!(lat, s.cfg.l1_latency);
        assert_eq!(s.cores[0].stats.tx_mem_ops, 3);
        s.tx_commit(0).0.unwrap();
        assert_eq!(s.host_load(a), 2);
        assert!(s.owners_empty());
    }

    #[test]
    fn perm_cache_conflicts_still_detected_after_fast_hits() {
        let mut s = state(2);
        let a = s.host_alloc(8, true);
        s.host_store(a, 5);
        s.tx_begin(0, 1);
        s.tx_store(0, a, 10, 0x400).0.unwrap();
        s.tx_store(0, a, 11, 0x400).0.unwrap(); // fast path
                                                // A remote writer must still doom core 0 exactly as before.
        s.tx_begin(1, 1);
        s.tx_store(1, a, 20, 0x500).0.unwrap();
        assert_eq!(s.host_load(a), 20, "core 0's writes rolled back");
        // The doomed core cannot sneak a fast-path access past the doom.
        let (r, _) = s.tx_load(0, a, 0x404);
        assert_eq!(r.unwrap_err().info().cause, AbortCause::Conflict);
        s.tx_commit(1).0.unwrap();
        // The permission cache died with the attempt: a fresh attempt by
        // core 0 probes the directory again and succeeds normally.
        s.tx_begin(0, 2);
        assert_eq!(s.tx_load(0, a, 0x408).0.unwrap(), 20);
        s.tx_commit(0).0.unwrap();
    }

    #[test]
    fn perm_cache_off_is_bit_identical() {
        // The same scripted contention schedule, with and without the
        // permission cache: every latency, stat and memory value matches.
        let run = |perm_lines: usize| {
            let mut s = SimState::new(MachineConfig::cores(2).small().perm_cache_lines(perm_lines));
            let a = s.host_alloc(16, true);
            let mut lats = Vec::new();
            s.tx_begin(0, 1);
            for i in 0..4 {
                let (r, lat) = s.tx_store(0, a, i, 0x400);
                r.unwrap();
                lats.push(lat);
                let (r, lat) = s.tx_load(0, a, 0x404);
                r.unwrap();
                lats.push(lat);
            }
            s.tx_begin(1, 2);
            let (r, lat) = s.tx_store(1, a, 99, 0x500);
            r.unwrap();
            lats.push(lat);
            assert!(s.tx_commit(0).0.is_err());
            s.tx_commit(1).0.unwrap();
            s.tx_begin(0, 1);
            let (r, lat) = s.tx_load(0, a, 0x408);
            lats.push(lat);
            assert_eq!(r.unwrap(), 99);
            s.tx_commit(0).0.unwrap();
            let stats: Vec<CoreStats> = s.cores.iter().map(|c| c.stats.clone()).collect();
            (lats, stats, s.host_load(a))
        };
        assert_eq!(run(0), run(32));
    }
}

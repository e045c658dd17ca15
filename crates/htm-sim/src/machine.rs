//! The machine façade: deterministic scheduling of simulated cores and the
//! per-core operation API.
//!
//! Each simulated core is a *resumable program*: an `async` body suspended
//! at every gated shared-state operation. A core's gate admits the
//! operation only when the core's logical clock is the global minimum over
//! unfinished cores (ties by core id), so ops execute in increasing
//! (clock, id) order and the simulated interleaving is a pure function of
//! the program and its seeds — bit-for-bit reproducible, like the paper's
//! MARSSx86 runs with threads pinned to cores.
//!
//! Three host-side drivers realize that order (see
//! [`Scheduler`](crate::config::Scheduler)):
//!
//! * **Cooperative** (default): a single host thread runs a plain event
//!   loop — pick the minimum-clock core, poll its program until it either
//!   finishes or stops being the minimum. No OS threads per core, no
//!   condvar handoffs; the per-op cost is one uncontended mutex
//!   acquisition, and a core that stays minimal executes arbitrarily many
//!   consecutive ops in one resumption. A core whose lock spin loop
//!   ([`Core::spin`]) reaches a steady iteration *parks* instead: it is not
//!   resumed again until a write to its lock line or its loop's timeout,
//!   and its polls in between are credited arithmetically (see
//!   [`crate::spin`]).
//! * **Threaded**: one OS thread per core; a core whose gate finds it
//!   ineligible parks on its condvar and is woken by the op that makes it
//!   the minimum. This was the original driver; it is kept for the
//!   cross-scheduler equivalence suite and pays a futex round-trip per
//!   handoff.
//! * **Speculative**: a Block-STM-style optimistic executor — host worker
//!   threads run cores' op quanta against private overlay views of the
//!   state, and a serial commit walk re-executes the queued ops against
//!   the real state in exactly the cooperative (clock, id) order,
//!   re-executing any core whose predictions diverged (see
//!   [`crate::spec`]). Requires resumable core *factories*
//!   ([`Machine::run_factories`]); with plain one-shot bodies it falls
//!   back to the cooperative driver.
//!
//! Because all drivers admit ops in exactly the same (clock, id) order,
//! simulated cycles, statistics, traces and obs events are bit-identical
//! between them.

use crate::addr::Addr;
use crate::config::{MachineConfig, Scheduler};
use crate::obs::{EventRing, ObsEvent, ObsKind};
use crate::sim::{apply_op, AbortCause, Op, OpResult, SimState, TraceEvent, TxError};
use crate::spec::{
    commit_walk, spec_poll, with_base, FutCell, NgKind, NgValue, SpecMode, SpecSlot, SpecView,
    TaskCtl, WalkStep,
};
use crate::spin::{Spin, SpinExit, SpinLoop, Step};
use crate::stats::{SimStats, SpecStats};
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};

struct Shared {
    state: Mutex<SimState>,
    cvs: Vec<Condvar>,
    /// Host-side counters of the speculative scheduler's last run (all
    /// zeros for the other drivers).
    spec: Mutex<SpecStats>,
}

impl Shared {
    /// Lock the simulator state. A panic on one simulated core poisons the
    /// mutex; recovering the guard keeps the remaining cores' teardown
    /// deterministic (the panic itself still propagates out of `run`).
    fn lock(&self) -> MutexGuard<'_, SimState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A suspended simulated-core program, resumable at every gated operation.
pub type CoreBody<'m> = Pin<Box<dyn Future<Output = ()> + Send + 'm>>;

/// Builds one core's program from its [`Core`] handle, consuming the
/// builder.
pub type CoreFn<'m> = Box<dyn FnOnce(Core<'m>) -> CoreBody<'m> + Send + 'm>;

/// Builds one core's program from its [`Core`] handle, *reusably* — the
/// speculative scheduler re-invokes the factory to re-execute a core whose
/// optimistic predictions were invalidated.
pub type CoreFactory<'m> = Box<dyn Fn(Core<'m>) -> CoreBody<'m> + Send + 'm>;

/// Box an async core body into the form [`Machine::run`] accepts:
/// `machine.run(vec![body(|mut c| async move { ... })])`.
pub fn body<'m, F, Fut>(f: F) -> CoreFn<'m>
where
    F: FnOnce(Core<'m>) -> Fut + Send + 'm,
    Fut: Future<Output = ()> + Send + 'm,
{
    Box::new(move |core| Box::pin(f(core)) as CoreBody<'m>)
}

/// Box a *re-invocable* async core body into the form
/// [`Machine::run_factories`] accepts. The closure must build a fresh,
/// deterministic program each call (clone captured state inside).
pub fn factory<'m, F, Fut>(f: F) -> CoreFactory<'m>
where
    F: Fn(Core<'m>) -> Fut + Send + 'm,
    Fut: Future<Output = ()> + Send + 'm,
{
    Box::new(move |core| Box::pin(f(core)) as CoreBody<'m>)
}

/// How a [`Core`]'s gates reach the simulator state.
enum Drive {
    /// Cooperative event loop: eligibility is one comparison against the
    /// cached [`SimState::horizon`] pair; no thread sleeps. A steady lock
    /// spinner parks ([`Core::spin`]) until a write to its line wakes it.
    Coop,
    /// Thread-per-core: ineligible gates park on a condvar and are woken by
    /// whichever op makes them the minimum.
    Threaded,
    /// Speculative: ops run against the per-core overlay slot (or, for a
    /// demoted core, directly against real state when the commit walk
    /// admits them).
    Spec(Arc<SpecSlot>),
}

/// A simulated multicore machine with HTM.
pub struct Machine {
    shared: Arc<Shared>,
    cfg: MachineConfig,
}

impl Machine {
    pub fn new(mut cfg: MachineConfig) -> Machine {
        // The environment variable is a fallback: an explicitly pinned
        // scheduler (a `--scheduler` flag or an experiment spec) wins.
        if !cfg.scheduler_pinned {
            if let Some(s) = std::env::var("HTM_SIM_SCHEDULER")
                .ok()
                .and_then(|v| Scheduler::parse(&v))
            {
                cfg.scheduler = s;
            }
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(SimState::new(cfg.clone())),
            cvs: (0..cfg.n_cores).map(|_| Condvar::new()).collect(),
            spec: Mutex::new(SpecStats::default()),
        });
        Machine { shared, cfg }
    }

    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Run one program per simulated core to completion; every simulated
    /// operation is deterministically ordered by logical time. May be
    /// called once per machine.
    ///
    /// One-shot bodies cannot be re-executed, so under
    /// [`Scheduler::Speculative`] this falls back to the (bit-identical)
    /// cooperative driver; use [`Machine::run_factories`] to opt into
    /// optimistic parallelism.
    pub fn run<'m>(&'m self, bodies: Vec<CoreFn<'m>>) {
        assert_eq!(
            bodies.len(),
            self.cfg.n_cores,
            "need exactly one body per core"
        );
        match self.cfg.scheduler {
            Scheduler::Cooperative | Scheduler::Speculative => self.run_cooperative(bodies),
            Scheduler::Threaded => self.run_threaded(bodies),
        }
    }

    /// Run one *re-invocable* program factory per core. Under
    /// [`Scheduler::Speculative`] cores execute optimistically in parallel
    /// on host worker threads (with bit-identical results); under the
    /// other schedulers this is equivalent to [`Machine::run`].
    pub fn run_factories<'m>(&'m self, factories: Vec<CoreFactory<'m>>) {
        assert_eq!(
            factories.len(),
            self.cfg.n_cores,
            "need exactly one factory per core"
        );
        match self.cfg.scheduler {
            Scheduler::Speculative => self.run_speculative(factories),
            Scheduler::Cooperative | Scheduler::Threaded => {
                let bodies = factories
                    .into_iter()
                    .map(|f| Box::new(move |c: Core<'m>| f(c)) as CoreFn<'m>)
                    .collect();
                self.run(bodies);
            }
        }
    }

    /// The default driver: a single-threaded event loop that resumes the
    /// minimum-clock core. A resumed program runs ops for as long as it
    /// remains the minimum and suspends (without any syscall) as soon as
    /// its gate finds another core eligible.
    fn run_cooperative<'m>(&'m self, bodies: Vec<CoreFn<'m>>) {
        let mut programs: Vec<Option<CoreBody<'m>>> = bodies
            .into_iter()
            .enumerate()
            .map(|(tid, mk)| {
                Some(mk(Core {
                    shared: &self.shared,
                    tid,
                    pending: 0,
                    last_clock: 0,
                    record: self.cfg.record_events,
                    drive: Drive::Coop,
                }))
            })
            .collect();
        let mut cx = Context::from_waker(Waker::noop());
        // `schedule` also caches the runner-up (clock, id) pair, against
        // which the resumed core's gates test eligibility without a scan.
        let mut next = self.shared.lock().schedule();
        while let Some(n) = next {
            let prog = programs[n].as_mut().expect("eligible core has a program");
            let ready = prog.as_mut().poll(&mut cx).is_ready();
            if ready {
                programs[n] = None;
            }
            let mut st = self.shared.lock();
            let parked = st.parked.contains(n);
            next = st.schedule();
            if !ready && !parked && next == Some(n) {
                // A gate never suspends while its core is eligible, so a
                // pending program that is still the minimum (and did not
                // just park) awaited some foreign future — which this
                // executor cannot wake.
                panic!("core {n} suspended while eligible: body awaited a non-gate future");
            }
        }
        let st = self.shared.lock();
        if !st.parked.is_empty() {
            // Every live core is parked with no deadline: no live core can
            // write their lock lines, and stepping them would spin forever.
            let msg = st.deadlock_report();
            drop(st);
            panic!("{msg}");
        }
    }

    /// The original driver: one OS thread per core. A pending program
    /// parks on its condvar until the gate of another core (or a finishing
    /// core) makes it the minimum and wakes it.
    fn run_threaded<'m>(&'m self, bodies: Vec<CoreFn<'m>>) {
        std::thread::scope(|s| {
            for (tid, mk) in bodies.into_iter().enumerate() {
                let shared = &*self.shared;
                let record = self.cfg.record_events;
                s.spawn(move || {
                    let mut prog = mk(Core {
                        shared,
                        tid,
                        pending: 0,
                        last_clock: 0,
                        record,
                        drive: Drive::Threaded,
                    });
                    let mut cx = Context::from_waker(Waker::noop());
                    while prog.as_mut().poll(&mut cx).is_pending() {
                        let mut st = shared.lock();
                        loop {
                            match st.next_eligible() {
                                Some(n) if n == tid => break,
                                Some(_) => {
                                    st.cores[tid].waiting = true;
                                    st =
                                        shared.cvs[tid].wait(st).unwrap_or_else(|e| e.into_inner());
                                    st.cores[tid].waiting = false;
                                }
                                None => unreachable!("running core cannot be finished"),
                            }
                        }
                    }
                });
            }
        });
    }

    /// The Block-STM-style optimistic driver (see [`crate::spec`] for the
    /// protocol). Round structure:
    ///
    /// 1. **Rebuild** — cores whose predictions were invalidated get a
    ///    fresh program from their factory; it deterministically replays
    ///    the committed-prefix log (no real-state access). A core that
    ///    mis-speculates repeatedly is demoted to *direct* execution.
    /// 2. **Speculate** — worker threads poll live cores' programs in
    ///    parallel; each gate executes against the core's private overlay
    ///    and queues an `(op, predicted result, latency)` record. The
    ///    driver holds the state lock for the whole phase, so workers read
    ///    a frozen base state.
    /// 3. **Commit** — a serial walk validates queue heads in global
    ///    min-(clock, id) order, re-executing each op against the real
    ///    state (the authoritative execution all results come from).
    ///    Direct cores are admitted one op at a time at their turn.
    fn run_speculative<'m>(&'m self, factories: Vec<CoreFactory<'m>>) {
        let n = self.cfg.n_cores;
        let q = self.cfg.spec_quantum.max(1);
        let workers = match self.cfg.host_threads {
            0 => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            t => t,
        }
        .clamp(1, n.max(1));
        /// Rebuilds after which a core stops speculating: each rebuild
        /// replays the whole committed prefix, so repeated mis-speculation
        /// on a long-running core would otherwise cost O(n²) replay work.
        const DEMOTE_LIMIT: u32 = 4;

        let slots: Vec<Arc<SpecSlot>> = (0..n).map(|i| Arc::new(SpecSlot::new(i))).collect();
        let record = self.cfg.record_events;
        let mk_core = |tid: usize| Core {
            shared: &self.shared,
            tid,
            pending: 0,
            last_clock: 0,
            record,
            drive: Drive::Spec(Arc::clone(&slots[tid])),
        };
        let futs: Vec<FutCell<'m>> = factories
            .iter()
            .enumerate()
            .map(|(tid, mk)| Mutex::new(Some(mk(mk_core(tid)))))
            .collect();
        let lock_fut = |tid: usize| futs[tid].lock().unwrap_or_else(|e| e.into_inner());
        let mut ctl: Vec<TaskCtl> = (0..n).map(|_| TaskCtl::default()).collect();
        let mut sstats = SpecStats::default();
        // Indexed min-(clock, id) structure for the commit walk; reseeded
        // at each walk entry, reusing the allocation across rounds.
        let mut walk_heap = crate::sched::LazyMinHeap::default();
        let mut cx = Context::from_waker(Waker::noop());

        loop {
            // ---- Phase 1: rebuild invalidated cores ----------------------
            for tid in 0..n {
                if !ctl[tid].needs_rebuild {
                    continue;
                }
                ctl[tid].needs_rebuild = false;
                ctl[tid].rebuilds += 1;
                sstats.rebuilds += 1;
                let demote = ctl[tid].rebuilds > DEMOTE_LIMIT;
                {
                    let mut s = slots[tid].lock();
                    s.mode = SpecMode::Poisoned;
                    s.view = None;
                    s.queue.clear();
                    s.budget = 0;
                    s.admitted = false;
                    s.panicked = false;
                    s.replay_pos = 0;
                    s.demote_on_replay_end = demote;
                    sstats.replayed_ops += s.log.len() as u64;
                }
                // Drop the stale program while the slot is Poisoned (its
                // Core's drop hook is then a no-op), then install a fresh
                // one and switch to replay.
                *lock_fut(tid) = None;
                slots[tid].lock().mode = SpecMode::Replaying;
                if demote {
                    ctl[tid].direct = true;
                    sstats.demoted_cores += 1;
                }
                *lock_fut(tid) = Some(factories[tid](mk_core(tid)));
                // Replay never suspends, so one poll consumes the whole
                // committed prefix. The base pointer is installed without
                // holding the state lock: a just-demoted program gates
                // directly against real state inside this same poll.
                let base_ptr: *const SimState = {
                    let g = self.shared.lock();
                    &*g as *const SimState
                };
                let ready = with_base(base_ptr, || {
                    let mut g = lock_fut(tid);
                    let fut = g.as_mut().expect("rebuilt core has a program");
                    fut.as_mut().poll(&mut cx).is_ready()
                });
                if ready {
                    *lock_fut(tid) = None;
                }
                {
                    let s = slots[tid].lock();
                    if s.panicked || s.replay_pos != s.log.len() {
                        panic!("core {tid} diverged during speculative replay");
                    }
                }
                if ready && ctl[tid].direct {
                    // A direct program that ran to completion retired
                    // itself against real state in its drop hook.
                    ctl[tid].done = true;
                }
            }
            if ctl.iter().all(|c| c.done) {
                break;
            }

            // ---- Phase 2: parallel speculation ---------------------------
            {
                let st = self.shared.lock();
                let mut live = Vec::with_capacity(n);
                for (tid, c) in ctl.iter().enumerate() {
                    if c.done || c.direct {
                        continue;
                    }
                    live.push(tid);
                    let mut s = slots[tid].lock();
                    if !matches!(s.mode, SpecMode::Speculating) {
                        continue;
                    }
                    if s.queue.len() >= 4 * q {
                        // Backpressure: far ahead of the walk already.
                        s.budget = 0;
                    } else {
                        if s.queue.is_empty() {
                            // All predictions committed: speculate onward
                            // from a fresh (current) snapshot.
                            s.view = Some(SpecView::snapshot(&st, tid));
                        }
                        s.budget = q;
                    }
                }
                sstats.rounds += 1;
                if workers <= 1 || live.len() <= 1 {
                    for &i in &live {
                        spec_poll(&st, &futs[i], &slots[i]);
                    }
                } else {
                    let next = std::sync::atomic::AtomicUsize::new(0);
                    let base: &SimState = &st;
                    let live = &live;
                    let futs = &futs;
                    let slots = &slots;
                    std::thread::scope(|scope| {
                        for _ in 0..workers.min(live.len()) {
                            scope.spawn(|| loop {
                                let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                let Some(&i) = live.get(k) else { break };
                                spec_poll(base, &futs[i], &slots[i]);
                            });
                        }
                    });
                }
                drop(st);
                // Post-phase triage: contain panics, detect foreign waits.
                for &i in &live {
                    let mut s = slots[i].lock();
                    if s.panicked {
                        s.panicked = false;
                        s.queue.clear();
                        s.view = None;
                        drop(s);
                        ctl[i].needs_rebuild = true;
                        continue;
                    }
                    if matches!(s.mode, SpecMode::Speculating)
                        && s.budget == q
                        && s.queue.is_empty()
                        && lock_fut(i).is_some()
                    {
                        // Had budget, produced nothing, didn't finish: the
                        // body awaited something that is not a gate.
                        panic!(
                            "core {i} suspended without gate progress: \
                             body awaited a non-gate future"
                        );
                    }
                }
            }

            // ---- Phase 3: serial validate-and-commit walk ----------------
            let mut st = self.shared.lock();
            loop {
                match commit_walk(&mut st, &slots, &mut ctl, &mut sstats, &mut walk_heap) {
                    WalkStep::RoundDone => break,
                    WalkStep::Direct(tid) => {
                        // It is globally this direct core's turn: admit one
                        // op and poll its program on the driver thread
                        // (dropping the guard — direct gates lock the real
                        // state themselves).
                        slots[tid].lock().admitted = true;
                        drop(st);
                        let ready = {
                            let mut g = lock_fut(tid);
                            match g.as_mut() {
                                Some(fut) => {
                                    let r = fut.as_mut().poll(&mut cx).is_ready();
                                    if r {
                                        *g = None;
                                    }
                                    r
                                }
                                None => true,
                            }
                        };
                        if ready {
                            ctl[tid].done = true;
                        } else if slots[tid].lock().admitted {
                            panic!(
                                "core {tid} suspended without gate progress: \
                                 body awaited a non-gate future"
                            );
                        }
                        st = self.shared.lock();
                    }
                }
            }
            drop(st);
        }

        for slot in &slots {
            let s = slot.lock();
            sstats.speculated_ops += s.speculated;
            sstats.direct_ops += s.direct_ops;
        }
        *self.shared.spec.lock().unwrap_or_else(|e| e.into_inner()) = sstats;
    }

    /// Convenience: run the same async body on every core (receives the
    /// core handle). The closure is shared, so values it moves into the
    /// body must be `Copy` (or clone inside). Being re-invocable, it runs
    /// with full optimistic parallelism under [`Scheduler::Speculative`].
    pub fn run_uniform<'m, F, Fut>(&'m self, f: F)
    where
        F: Fn(Core<'m>) -> Fut + Send + Sync + 'm,
        Fut: Future<Output = ()> + Send + 'm,
    {
        let f = Arc::new(f);
        let factories: Vec<CoreFactory<'m>> = (0..self.cfg.n_cores)
            .map(|_| {
                let f = Arc::clone(&f);
                Box::new(move |c: Core<'m>| Box::pin(f(c)) as CoreBody<'m>) as CoreFactory<'m>
            })
            .collect();
        self.run_factories(factories);
    }

    /// Statistics snapshot (meaningful after `run` returns). The per-core
    /// counters are fixed-size scalar structs, so a snapshot is cheap; the
    /// unbounded per-core data (traces) moves out via [`Machine::take_trace`].
    pub fn stats(&self) -> SimStats {
        let st = self.shared.lock();
        let cores = st
            .cores
            .iter()
            .map(|c| {
                let mut s = c.stats.clone();
                s.total_cycles = c.clock;
                s
            })
            .collect::<Vec<_>>();
        let exec_cycles = st.cores.iter().map(|c| c.clock).max().unwrap_or(0);
        SimStats { cores, exec_cycles }
    }

    /// Host-side counters of the speculative scheduler's last run: how well
    /// optimistic execution predicted the serial commit order. All zeros
    /// under the cooperative/threaded drivers (and for speculative `run`
    /// calls that fell back to cooperative). Never feeds back into
    /// simulated quantities.
    pub fn spec_stats(&self) -> SpecStats {
        *self.shared.spec.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Host-side scheduling-overhead counters: cooperative `schedule()`
    /// calls and lazy-heap stale-entry repairs. Like [`Machine::spec_stats`]
    /// these never feed back into simulated quantities (and are therefore
    /// not part of [`Machine::stats`], which cross-scheduler equivalence
    /// tests compare for equality).
    pub fn sched_stats(&self) -> crate::sched::SchedStats {
        self.shared.lock().sched_stats
    }

    /// Move out the per-core begin/commit/abort event traces (empty unless
    /// [`MachineConfig::record_trace`] was set). Consuming: a second call
    /// returns empty traces — the event vectors are unbounded, so they are
    /// taken rather than cloned.
    pub fn take_trace(&self) -> Vec<Vec<TraceEvent>> {
        let mut st = self.shared.lock();
        st.cores
            .iter_mut()
            .map(|c| std::mem::take(&mut c.trace))
            .collect()
    }

    /// Move out the per-core observability event streams, oldest first
    /// (empty unless [`MachineConfig::record_events`] was set). Consuming
    /// like [`Machine::take_trace`]: each core's ring is replaced with a
    /// fresh one of the same capacity.
    pub fn take_events(&self) -> Vec<Vec<ObsEvent>> {
        let mut st = self.shared.lock();
        st.cores
            .iter_mut()
            .map(|c| {
                let cap = c.events.capacity();
                std::mem::replace(&mut c.events, EventRing::new(cap)).into_vec()
            })
            .collect()
    }

    /// Observability events lost so far to the per-core ring bound
    /// ([`MachineConfig::event_ring_capacity`]), summed over cores — zero
    /// means [`Machine::take_events`] returns complete streams. Read it
    /// before `take_events`, which starts fresh rings.
    pub fn events_dropped(&self) -> u64 {
        self.shared
            .lock()
            .cores
            .iter()
            .map(|c| c.events.dropped())
            .sum()
    }

    /// Host-side allocation for setup (no simulated cycles).
    pub fn host_alloc(&self, words: u64, line_align: bool) -> Addr {
        self.shared.lock().host_alloc(words, line_align)
    }

    /// Host-side memory read (setup/validation only).
    pub fn host_load(&self, addr: Addr) -> u64 {
        self.shared.lock().host_load(addr)
    }

    /// Host-side memory write (setup only; unsound during `run`).
    pub fn host_store(&self, addr: Addr, val: u64) {
        self.shared.lock().host_store(addr, val)
    }

    /// Register the fallback lock word that hardware commits validate
    /// under [`crate::FallbackPolicy::LazySubscriptionSafe`] (the
    /// Dice-et-al-style fix). Host-side setup, no simulated cycles;
    /// called by the runtime before threads start.
    pub fn register_commit_lock(&self, addr: Addr) {
        self.shared.lock().register_commit_lock(addr)
    }
}

/// Handle through which one simulated core issues operations. Owned by the
/// core's program; dropping it (body completion or unwind) marks the core
/// finished so the remaining cores keep running deterministically.
pub struct Core<'m> {
    shared: &'m Shared,
    tid: usize,
    /// Locally accumulated compute cycles, folded into the logical clock at
    /// the next gated operation.
    pending: u64,
    /// Clock value observed at the last gate (plus pending = `now`).
    last_clock: u64,
    /// Cached [`MachineConfig::record_events`]: when false, [`Core::note`]
    /// is a single branch (no lock, no allocation).
    record: bool,
    /// Which driver this core runs under (see [`Drive`]).
    drive: Drive,
}

impl<'m> Core<'m> {
    /// This core's id.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Approximate current logical time (exact at gate boundaries).
    pub fn now(&self) -> u64 {
        self.last_clock + self.pending
    }

    /// Model `cycles` of local computation. Free of synchronization: the
    /// cycles are folded into the clock at the next shared operation.
    pub fn compute(&mut self, cycles: u64) {
        self.pending += cycles;
    }

    /// Advance this core's logical time to at least `cycle` (a no-op when
    /// the deadline already passed). Purely local like [`Core::compute`]
    /// — it only widens `pending` — so it is deterministic under every
    /// scheduler. This is how open-loop load generators park a core until
    /// its next request's arrival timestamp.
    pub fn idle_until(&mut self, cycle: u64) {
        let now = self.now();
        if cycle > now {
            self.pending += cycle - now;
        }
    }

    /// Is this core driven by the speculative scheduler? Decides, per op,
    /// between the monomorphized closure gate (fast path) and the
    /// [`Op`]-value gate the overlay machinery requires.
    fn is_spec(&self) -> bool {
        matches!(self.drive, Drive::Spec(_))
    }

    /// Perform `f` on the shared state at this core's logical turn; `f`
    /// returns `(result, latency)`. The fast path for the cooperative and
    /// threaded drivers: monomorphized per call site, so the op body
    /// inlines straight into the gate with no enum dispatch. Each poll
    /// folds pending compute cycles (idempotent — they reset to zero) and
    /// either runs the op, if this core is the minimum, or suspends after
    /// waking an eligible core asleep on its condvar (threaded driver only;
    /// cooperative cores never sleep, so no notification syscall is issued
    /// there).
    fn gate<'a, R, F>(&'a mut self, f: F) -> impl Future<Output = R> + Send + use<'a, 'm, R, F>
    where
        F: FnOnce(&mut SimState, usize) -> (R, u64) + Send + 'a,
    {
        self.gate_or_park::<false, R, F>(f)
    }

    /// [`Core::gate`], except that with `PARK` a cooperative core first
    /// tries to park its steady spin loop ([`SimState::try_park`]) and
    /// suspends without running the op if it did.
    fn gate_or_park<'a, const PARK: bool, R, F>(
        &'a mut self,
        f: F,
    ) -> impl Future<Output = R> + Send + use<'a, 'm, PARK, R, F>
    where
        F: FnOnce(&mut SimState, usize) -> (R, u64) + Send + 'a,
    {
        let mut f = Some(f);
        std::future::poll_fn(move |_cx| {
            let tid = self.tid;
            let mut st = self.shared.lock();
            st.cores[tid].clock += self.pending;
            self.pending = 0;
            match self.drive {
                Drive::Coop => {
                    if PARK && st.try_park(tid) {
                        return Poll::Pending;
                    }
                    // Only this core's clock can have moved since the event
                    // loop resumed it, so eligibility is one comparison
                    // against the cached runner-up (lowered by any spinner
                    // the resumed core wakes); no condvar sleeps, so there
                    // is nobody to notify on either side of the op.
                    if (st.cores[tid].clock, tid) > st.horizon {
                        return Poll::Pending;
                    }
                }
                Drive::Threaded => match st.next_eligible() {
                    Some(n) if n == tid => {}
                    Some(n) => {
                        // Our arrival may have shifted the minimum to a
                        // parked core — wake it before we suspend.
                        if st.cores[n].waiting {
                            self.shared.cvs[n].notify_one();
                        }
                        return Poll::Pending;
                    }
                    None => unreachable!("calling core cannot be finished"),
                },
                Drive::Spec(_) => unreachable!("speculative cores gate through gate_op"),
            }
            st.cores[tid].stats.gated_ops += 1;
            let (r, lat) = (f.take().expect("gate op polled after completion"))(&mut st, tid);
            st.cores[tid].clock += lat;
            self.last_clock = st.cores[tid].clock;
            if matches!(self.drive, Drive::Threaded) {
                if let Some(n) = st.next_eligible() {
                    if n != tid && st.cores[n].waiting {
                        self.shared.cvs[n].notify_one();
                    }
                }
            }
            Poll::Ready(r)
        })
    }

    /// Perform one gated operation under the speculative driver: it
    /// executes against this core's overlay slot (or directly against real
    /// state, once admitted by the commit walk, for demoted cores). The op
    /// travels as an [`Op`] value because the overlay must execute it, and
    /// the commit walk later re-executes it authoritatively.
    fn gate_op<'a>(&'a mut self, op: Op) -> impl Future<Output = OpResult> + Send + use<'a, 'm> {
        std::future::poll_fn(move |_cx| {
            let Drive::Spec(slot) = &self.drive else {
                unreachable!("gate_op is the speculative-drive gate")
            };
            let slot = Arc::clone(slot);
            match slot.gate(&mut self.pending, &mut self.last_clock, &op) {
                crate::spec::SpecGate::Ready(r) => Poll::Ready(r),
                crate::spec::SpecGate::Pending => Poll::Pending,
                crate::spec::SpecGate::Direct => self.direct_gate(&slot, &op),
            }
        })
    }

    /// Gate one op of a demoted (direct) core against the real state. The
    /// commit walk grants a one-shot `admitted` token when it is globally
    /// this core's turn; until then the gate folds compute cycles (making
    /// the core's (clock, id) key exact for the walk) and stays pending.
    fn direct_gate(&mut self, slot: &SpecSlot, op: &Op) -> Poll<OpResult> {
        let tid = self.tid;
        let mut st = self.shared.lock();
        st.cores[tid].clock += self.pending;
        self.pending = 0;
        let admitted = {
            let mut s = slot.lock();
            let a = s.admitted;
            if a {
                s.admitted = false;
                s.direct_ops += 1;
            }
            a
        };
        if !admitted {
            self.last_clock = st.cores[tid].clock;
            return Poll::Pending;
        }
        st.cores[tid].stats.gated_ops += 1;
        let (r, lat) = apply_op(&mut st, tid, op);
        st.cores[tid].clock += lat;
        self.last_clock = st.cores[tid].clock;
        Poll::Ready(r)
    }

    fn expect_unit(r: OpResult) {
        match r {
            OpResult::Unit => {}
            r => unreachable!("expected Unit result, got {r:?}"),
        }
    }

    // ----- transactional API ---------------------------------------------

    /// Begin a hardware transaction for atomic block `ab_id`.
    pub async fn tx_begin(&mut self, ab_id: u32) {
        if self.is_spec() {
            Self::expect_unit(self.gate_op(Op::Begin { ab_id }).await)
        } else {
            self.gate(|st, tid| ((), st.tx_begin(tid, ab_id))).await
        }
    }

    /// Transactional load at instruction address `pc`.
    pub async fn tx_load(&mut self, addr: Addr, pc: u64) -> Result<u64, TxError> {
        if self.is_spec() {
            match self.gate_op(Op::Load { addr, pc }).await {
                OpResult::TxVal(r) => r,
                r => unreachable!("expected TxVal result, got {r:?}"),
            }
        } else {
            self.gate(|st, tid| st.tx_load(tid, addr, pc)).await
        }
    }

    /// Transactional store at instruction address `pc`.
    pub async fn tx_store(&mut self, addr: Addr, val: u64, pc: u64) -> Result<(), TxError> {
        if self.is_spec() {
            match self.gate_op(Op::Store { addr, val, pc }).await {
                OpResult::TxUnit(r) => r,
                r => unreachable!("expected TxUnit result, got {r:?}"),
            }
        } else {
            self.gate(|st, tid| st.tx_store(tid, addr, val, pc)).await
        }
    }

    /// Attempt to commit.
    pub async fn tx_commit(&mut self) -> Result<(), TxError> {
        if self.is_spec() {
            match self.gate_op(Op::Commit).await {
                OpResult::TxUnit(r) => r,
                r => unreachable!("expected TxUnit result, got {r:?}"),
            }
        } else {
            self.gate(|st, tid| st.tx_commit(tid)).await
        }
    }

    /// Explicitly abort the active transaction (runtime-initiated).
    pub async fn tx_abort(&mut self) -> TxError {
        if self.is_spec() {
            match self.gate_op(Op::Abort).await {
                OpResult::TxErr(e) => e,
                r => unreachable!("expected TxErr result, got {r:?}"),
            }
        } else {
            self.gate(|st, tid| (st.self_abort(tid, AbortCause::Explicit), 0))
                .await
        }
    }

    /// Is a transaction currently active (not yet observed-doomed)?
    /// Reads only this core's own state, so it needs no gating (under the
    /// speculative driver it is answered from the overlay and validated at
    /// commit time).
    pub fn tx_active(&mut self) -> bool {
        let tid = self.tid;
        if let Drive::Spec(slot) = &self.drive {
            if !matches!(slot.lock().mode, SpecMode::Direct | SpecMode::Poisoned) {
                return match slot.nongated(NgKind::Active) {
                    NgValue::Active(b) => b,
                    v => unreachable!("expected Active answer, got {v:?}"),
                };
            }
        }
        self.shared.lock().tx_active(tid)
    }

    /// Atomic-block id of the active transaction, if any.
    pub fn tx_ab_id(&mut self) -> Option<u32> {
        let tid = self.tid;
        if let Drive::Spec(slot) = &self.drive {
            if !matches!(slot.lock().mode, SpecMode::Direct | SpecMode::Poisoned) {
                return match slot.nongated(NgKind::AbId) {
                    NgValue::AbId(id) => id,
                    v => unreachable!("expected AbId answer, got {v:?}"),
                };
            }
        }
        self.shared.lock().tx_ab_id(tid)
    }

    // ----- nontransactional API --------------------------------------------

    /// Nontransactional load (escapes isolation; never aborts anyone).
    pub async fn nt_load(&mut self, addr: Addr) -> u64 {
        if self.is_spec() {
            match self.gate_op(Op::NtLoad { addr }).await {
                OpResult::Val(v) => v,
                r => unreachable!("expected Val result, got {r:?}"),
            }
        } else {
            self.gate(|st, tid| st.nt_load(tid, addr)).await
        }
    }

    /// Plain non-speculative load (outside transactions / irrevocable
    /// mode): dooms speculative writers of the line so uncommitted data is
    /// never observed.
    pub async fn plain_load(&mut self, addr: Addr) -> u64 {
        if self.is_spec() {
            match self.gate_op(Op::PlainLoad { addr }).await {
                OpResult::Val(v) => v,
                r => unreachable!("expected Val result, got {r:?}"),
            }
        } else {
            self.gate(|st, tid| st.plain_load(tid, addr)).await
        }
    }

    /// Plain non-speculative store — identical coherence behaviour to
    /// [`Core::nt_store`] (dooms all speculative owners of the line).
    pub async fn plain_store(&mut self, addr: Addr, val: u64) {
        self.nt_store(addr, val).await
    }

    /// Nontransactional store (immediately visible; aborts conflicting
    /// speculative owners on other cores).
    pub async fn nt_store(&mut self, addr: Addr, val: u64) {
        if self.is_spec() {
            Self::expect_unit(self.gate_op(Op::NtStore { addr, val }).await)
        } else {
            self.gate(|st, tid| ((), st.nt_store(tid, addr, val))).await
        }
    }

    /// Nontransactional compare-and-swap.
    pub async fn nt_cas(&mut self, addr: Addr, old: u64, new: u64) -> bool {
        if self.is_spec() {
            match self.gate_op(Op::NtCas { addr, old, new }).await {
                OpResult::Flag(b) => b,
                r => unreachable!("expected Flag result, got {r:?}"),
            }
        } else {
            self.gate(|st, tid| st.nt_cas(tid, addr, old, new)).await
        }
    }

    /// Run a nontransactional spin loop on one lock word until it claims
    /// the word, finds it free, or times out (see [`crate::spin`]): the one
    /// polling primitive behind advisory locks, the global fallback lock
    /// and hybrid-TM stripes. Every poll is a gated op with the latency,
    /// counters and cache effects of the equivalent [`Core::nt_cas`],
    /// [`Core::nt_load`] or [`Core::nt_store`], and each failed poll is
    /// followed by `quantum` compute cycles and a gated op that adds them
    /// to the core's `lock_wait_cycles`. Under the cooperative driver,
    /// steady polls are credited while the core is parked instead of being
    /// resumed one by one.
    pub async fn spin(&mut self, spin: Spin) -> SpinExit {
        if self.is_spec() {
            let mut sl = SpinLoop::new(spin);
            loop {
                let r = self.gate_op(sl.op()).await;
                match sl.advance(r) {
                    Step::Next { pre } => self.compute(pre),
                    Step::Done(exit) => return exit,
                }
            }
        }
        loop {
            let step = self.gate_or_park::<true, _, _>(move |st, tid| st.spin_step(tid, spin));
            if let Some(exit) = step.await {
                return exit;
            }
        }
    }

    // ----- services ---------------------------------------------------------

    /// Allocate `words` from this core's arena.
    pub async fn alloc(&mut self, words: u64, line_align: bool) -> Addr {
        if self.is_spec() {
            match self.gate_op(Op::Alloc { words, line_align }).await {
                OpResult::Val(a) => a,
                r => unreachable!("expected Val result, got {r:?}"),
            }
        } else {
            self.gate(|st, tid| st.alloc(tid, words, line_align)).await
        }
    }

    /// Charge retry-backoff cycles.
    pub async fn charge_backoff(&mut self, cycles: u64) {
        self.compute(cycles);
        if self.is_spec() {
            Self::expect_unit(self.gate_op(Op::Backoff { cycles }).await)
        } else {
            self.gate(move |st, tid| {
                st.cores[tid].stats.backoff_cycles += cycles;
                ((), 0)
            })
            .await
        }
    }

    /// Record an irrevocable (global-lock) execution: `cycles` spent and
    /// one irrevocable commit.
    pub async fn record_irrevocable(&mut self, cycles: u64) {
        if self.is_spec() {
            Self::expect_unit(self.gate_op(Op::Irrevocable { cycles }).await)
        } else {
            self.gate(move |st, tid| {
                st.cores[tid].stats.irrevocable_cycles += cycles;
                st.cores[tid].stats.irrevocable_commits += 1;
                ((), 0)
            })
            .await
        }
    }

    /// Record an observability event at this core's current logical time
    /// ([`Core::now`], which includes pending compute cycles). NOT a gated
    /// op: it pushes to this core's own ring without advancing any clock or
    /// touching any counter, so recording cannot perturb the simulation —
    /// and with [`MachineConfig::record_events`] off it is a single branch.
    pub fn note(&mut self, kind: ObsKind) {
        if !self.record {
            return;
        }
        let tid = self.tid;
        let clock = self.now();
        if let Drive::Spec(slot) = &self.drive {
            // Speculating: queued with the overlay clock and emitted at
            // commit time in per-core order. Replaying: consumed against the
            // committed prefix (re-queued if it falls past it). Only a
            // Direct core falls through to emit against real state.
            if slot.note(clock, kind) {
                return;
            }
        }
        self.shared.lock().note_at(tid, clock, kind);
    }
}

impl Drop for Core<'_> {
    /// Retire the core: fold any pending compute cycles, mark it finished,
    /// and wake whichever core becomes the minimum. Running this on drop
    /// (rather than after a normal body return) also retires cores whose
    /// bodies unwound, so a panic on one core cannot park the rest forever.
    fn drop(&mut self) {
        let tid = self.tid;
        if let Drive::Spec(slot) = &self.drive {
            if slot.finish(self.pending) {
                // Queued as a Finish record (or dropped, for a poisoned or
                // mid-replay teardown); the commit walk retires the core.
                self.pending = 0;
                return;
            }
            // Direct cores (including one demoted by this very finish)
            // retire against real state, with nobody to wake.
            let mut st = self.shared.lock();
            st.cores[tid].clock += self.pending;
            self.pending = 0;
            st.cores[tid].finished = true;
            self.last_clock = st.cores[tid].clock;
            return;
        }
        let mut st = self.shared.lock();
        st.cores[tid].clock += self.pending;
        self.pending = 0;
        st.cores[tid].finished = true;
        self.last_clock = st.cores[tid].clock;
        if matches!(self.drive, Drive::Threaded) {
            if let Some(n) = st.next_eligible() {
                if st.cores[n].waiting {
                    self.shared.cvs[n].notify_one();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::AbortCause;

    /// Every test runs under all three drivers via this helper, so the
    /// suite exercises scheduler equivalence at the unit level too. (Tests
    /// that use `run` rather than `run_uniform` exercise the speculative
    /// machine's cooperative fallback, which must be equivalent too.)
    fn machines(n: usize) -> [Machine; 3] {
        let mut threaded = MachineConfig::cores(n).small();
        threaded.scheduler = Scheduler::Threaded;
        let mut speculative = MachineConfig::cores(n).small();
        speculative.scheduler = Scheduler::Speculative;
        [
            Machine::new(MachineConfig::cores(n).small()),
            Machine::new(threaded),
            Machine::new(speculative),
        ]
    }

    #[test]
    fn single_thread_counter() {
        for m in machines(1) {
            let a = m.host_alloc(8, true);
            m.run_uniform(move |mut c| async move {
                for _ in 0..10 {
                    c.tx_begin(0).await;
                    let v = c.tx_load(a, 0x400).await.unwrap();
                    c.tx_store(a, v + 1, 0x404).await.unwrap();
                    c.tx_commit().await.unwrap();
                }
            });
            assert_eq!(m.host_load(a), 10);
            let st = m.stats();
            assert_eq!(st.aggregate().commits, 10);
            assert_eq!(st.aggregate().aborts(), 0);
            assert!(st.exec_cycles > 0);
            // begin + load + store + commit, 10 iterations.
            assert_eq!(st.aggregate().gated_ops, 40);
        }
    }

    #[test]
    fn concurrent_counter_is_serializable() {
        // 4 cores × 50 increments with retry loops: the final value must be
        // exactly 200 — the fundamental HTM correctness property.
        for m in machines(4) {
            let a = m.host_alloc(8, true);
            m.run_uniform(move |mut c| async move {
                for _ in 0..50 {
                    loop {
                        c.tx_begin(0).await;
                        let r = match c.tx_load(a, 0x400).await {
                            Ok(v) => {
                                c.compute(20); // widen the conflict window
                                c.tx_store(a, v + 1, 0x404).await
                            }
                            Err(e) => Err(e),
                        };
                        let committed = match r {
                            Ok(()) => c.tx_commit().await.is_ok(),
                            Err(_) => false,
                        };
                        if committed {
                            break;
                        }
                    }
                }
            });
            assert_eq!(m.host_load(a), 200);
            let agg = m.stats().aggregate();
            assert_eq!(agg.commits, 200);
            assert!(agg.aborts() > 0, "contended counter must abort sometimes");
        }
    }

    fn contended_run(scheduler: Scheduler) -> (u64, u64, u64, Vec<u64>) {
        let mut cfg = MachineConfig::cores(4).small();
        cfg.scheduler = scheduler;
        let m = Machine::new(cfg);
        let a = m.host_alloc(8, true);
        m.run_uniform(move |mut c| async move {
            for i in 0..30u64 {
                loop {
                    c.tx_begin(0).await;
                    let r = match c.tx_load(a, 0x400).await {
                        Ok(v) => {
                            c.compute((c.tid() as u64) * 7 + i % 5);
                            c.tx_store(a, v + 1, 0x404).await
                        }
                        Err(e) => Err(e),
                    };
                    let committed = match r {
                        Ok(()) => c.tx_commit().await.is_ok(),
                        Err(_) => false,
                    };
                    if committed {
                        break;
                    }
                }
            }
        });
        let st = m.stats();
        (
            st.exec_cycles,
            st.aggregate().aborts(),
            st.aggregate().gated_ops,
            st.cores.iter().map(|c| c.total_cycles).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn determinism_across_runs_and_schedulers() {
        let a = contended_run(Scheduler::Cooperative);
        let b = contended_run(Scheduler::Cooperative);
        assert_eq!(a, b, "simulation must be bit-for-bit deterministic");
        let c = contended_run(Scheduler::Threaded);
        assert_eq!(a, c, "schedulers must produce identical simulations");
        let d = contended_run(Scheduler::Speculative);
        assert_eq!(a, d, "speculative execution must be invisible");
    }

    #[test]
    fn speculative_scheduler_reports_its_work() {
        let mut cfg = MachineConfig::cores(2).small();
        cfg.scheduler = Scheduler::Speculative;
        let m = Machine::new(cfg);
        let a = m.host_alloc(16, true);
        m.run_uniform(move |mut c| async move {
            let a = a + (c.tid() as u64) * 64;
            for _ in 0..20 {
                c.tx_begin(0).await;
                let v = c.tx_load(a, 0).await.unwrap();
                c.tx_store(a, v + 1, 0).await.unwrap();
                c.tx_commit().await.unwrap();
            }
        });
        let s = m.spec_stats();
        assert!(s.rounds > 0, "speculative driver must have run rounds");
        assert!(s.speculated_ops > 0);
        // Disjoint lines: every prediction must validate.
        assert_eq!(s.mismatches, 0);
        assert_eq!(s.committed_ops, s.speculated_ops);
        // And the simulation itself is unperturbed.
        assert_eq!(m.stats().aggregate().commits, 40);
    }

    #[test]
    fn speculative_mismatches_rebuild_and_converge() {
        // Same hot-counter workload as the equivalence test: cross-core
        // conflicts guarantee stale overlay predictions, exercising the
        // mismatch → rebuild → replay path.
        let mut cfg = MachineConfig::cores(4).small();
        cfg.scheduler = Scheduler::Speculative;
        let m = Machine::new(cfg);
        let a = m.host_alloc(8, true);
        m.run_uniform(move |mut c| async move {
            for _ in 0..25 {
                loop {
                    c.tx_begin(0).await;
                    let r = match c.tx_load(a, 0x400).await {
                        Ok(v) => {
                            c.compute(20);
                            c.tx_store(a, v + 1, 0x404).await
                        }
                        Err(e) => Err(e),
                    };
                    let committed = match r {
                        Ok(()) => c.tx_commit().await.is_ok(),
                        Err(_) => false,
                    };
                    if committed {
                        break;
                    }
                }
            }
        });
        assert_eq!(m.host_load(a), 100);
        let s = m.spec_stats();
        assert!(
            s.mismatches > 0 && s.rebuilds > 0,
            "hot counter must force mis-speculation (got {s:?})"
        );
    }

    #[test]
    fn disjoint_lines_never_conflict() {
        for m in machines(4) {
            let base = m.host_alloc(8 * 8 * 4, true);
            m.run_uniform(move |mut c| async move {
                let a = base + (c.tid() as u64) * 64;
                for _ in 0..25 {
                    c.tx_begin(0).await;
                    let v = c.tx_load(a, 0).await.unwrap();
                    c.tx_store(a, v + 1, 0).await.unwrap();
                    c.tx_commit().await.unwrap();
                }
            });
            let agg = m.stats().aggregate();
            assert_eq!(agg.commits, 100);
            assert_eq!(agg.aborts(), 0);
        }
    }

    #[test]
    fn parked_spinners_leave_identical_core_state() {
        // Three spinners wait on a word that core 0 holds for a long
        // stretch: under the cooperative driver they park, and the write
        // that releases them credits their polls. Clocks, counters and each
        // core's LRU stamp counters must match the drivers that step every
        // poll (the speculative machine's `run` steps through the
        // cooperative fallback, so it runs its factories here).
        let state = |m: &Machine| {
            let st = m.shared.lock();
            let cores: Vec<_> = st
                .cores
                .iter()
                .map(|c| (c.clock, c.l1.stamp(), c.l2.stamp()))
                .collect();
            (
                cores,
                st.cores.iter().map(|c| c.stats.clone()).collect::<Vec<_>>(),
            )
        };
        let mut runs = Vec::new();
        for m in machines(4) {
            let word = m.host_alloc(8, true);
            m.run_uniform(move |mut c| async move {
                let me = c.tid() as u64 + 1;
                if c.tid() == 0 {
                    assert!(c.nt_cas(word, 0, me).await);
                    c.compute(20_000);
                    c.nt_store(word, 0).await;
                    return;
                }
                c.compute(10 * me);
                let until = crate::spin::SpinUntil::Claimed { me };
                c.spin(Spin {
                    word,
                    until,
                    quantum: 30,
                })
                .await;
                c.compute(100);
                c.nt_store(word, 0).await;
            });
            assert_eq!(m.host_load(word), 0);
            runs.push((state(&m), m.stats()));
        }
        assert!(runs[0].1.aggregate().lock_wait_cycles > 20_000);
        assert_eq!(runs[0], runs[1], "cooperative vs threaded");
        assert_eq!(runs[0], runs[2], "cooperative vs speculative");
    }

    #[test]
    fn nt_cas_lock_mutual_exclusion() {
        // An advisory-lock-style spinlock built from NT CAS protects a
        // plain (nontransactional) counter.
        for m in machines(4) {
            let lock = m.host_alloc(8, true);
            let counter = m.host_alloc(8, true);
            m.run_uniform(move |mut c| async move {
                for _ in 0..25 {
                    while !c.nt_cas(lock, 0, (c.tid() + 1) as u64).await {
                        c.compute(20);
                    }
                    let v = c.nt_load(counter).await;
                    c.compute(5);
                    c.nt_store(counter, v + 1).await;
                    c.nt_store(lock, 0).await;
                }
            });
            assert_eq!(m.host_load(counter), 100);
        }
    }

    #[test]
    fn advisory_lock_inside_transaction() {
        // The paper's core mechanism: acquire an NT lock inside an active
        // transaction; serialized sections stop aborting each other.
        for m in machines(4) {
            let lock = m.host_alloc(8, true);
            let data = m.host_alloc(8, true);
            m.run_uniform(move |mut c| async move {
                for _ in 0..20 {
                    loop {
                        c.tx_begin(0).await;
                        // Advisory lock acquire via NT CAS, inside the txn;
                        // on timeout, proceed without the lock.
                        let me = (c.tid() + 1) as u64;
                        let until = crate::spin::SpinUntil::ClaimedWithin {
                            me,
                            timeout: 300_000,
                        };
                        c.spin(Spin {
                            word: lock,
                            until,
                            quantum: 30,
                        })
                        .await;
                        let r = match c.tx_load(data, 0x100).await {
                            Ok(v) => {
                                c.compute(30);
                                c.tx_store(data, v + 1, 0x104).await
                            }
                            Err(e) => Err(e),
                        };
                        let committed = match r {
                            Ok(()) => c.tx_commit().await.is_ok(),
                            Err(_) => false,
                        };
                        // Release even on abort, as the runtime does.
                        c.nt_store(lock, 0).await;
                        if committed {
                            break;
                        }
                    }
                }
            });
            assert_eq!(m.host_load(data), 80);
            let agg = m.stats().aggregate();
            assert_eq!(agg.commits, 80);
            // Staggered by the advisory lock: conflicts should be rare.
            assert!(
                agg.aborts() <= 8,
                "advisory lock should nearly eliminate aborts, got {}",
                agg.aborts()
            );
            assert!(agg.lock_wait_cycles > 0);
        }
    }

    #[test]
    fn explicit_abort_counts() {
        for m in machines(1) {
            let a = m.host_alloc(8, true);
            m.run_uniform(move |mut c| async move {
                assert_eq!(c.tx_ab_id(), None);
                c.tx_begin(0).await;
                assert_eq!(c.tx_ab_id(), Some(0));
                c.tx_store(a, 5, 0).await.unwrap();
                let e = c.tx_abort().await;
                assert_eq!(e.info().cause, AbortCause::Explicit);
            });
            assert_eq!(m.host_load(a), 0, "aborted write must roll back");
            assert_eq!(m.stats().aggregate().explicit_aborts, 1);
        }
    }

    #[test]
    fn alloc_in_threads_disjoint() {
        for m in machines(4) {
            let out = m.host_alloc(8 * 4, true);
            m.run_uniform(move |mut c| async move {
                let p = c.alloc(8, true).await;
                c.nt_store(p, c.tid() as u64 + 100).await;
                c.nt_store(out + (c.tid() as u64) * 8, p).await;
            });
            let mut ptrs: Vec<u64> = (0..4).map(|i| m.host_load(out + i * 8)).collect();
            ptrs.sort();
            ptrs.dedup();
            assert_eq!(ptrs.len(), 4, "allocations must not alias");
            for &p in ptrs.iter() {
                assert!(m.host_load(p) >= 100);
            }
        }
    }

    #[test]
    fn clocks_interleave_fairly() {
        // A core that does tiny ops and one that does huge computes: total
        // time is driven by the slow core, and the fast core should not be
        // starved (its ops happen "during" the slow core's computes).
        for m in machines(2) {
            let a = m.host_alloc(16, true);
            m.run(vec![
                body(move |mut c| async move {
                    for _ in 0..100 {
                        let now = c.now();
                        c.nt_store(a, now).await;
                    }
                }),
                body(move |mut c| async move {
                    for _ in 0..5 {
                        c.compute(10_000);
                        let now = c.now();
                        c.nt_store(a + 8, now).await;
                    }
                }),
            ]);
            let st = m.stats();
            assert!(st.cores[1].total_cycles >= 50_000);
            assert!(st.cores[0].total_cycles < st.cores[1].total_cycles);
        }
    }

    #[test]
    fn stats_snapshot_exec_cycles_is_max() {
        for m in machines(2) {
            m.run(vec![
                body(|mut c| async move { c.compute(100) }),
                body(|mut c| async move { c.compute(500) }),
            ]);
            let st = m.stats();
            assert_eq!(
                st.exec_cycles,
                st.cores.iter().map(|c| c.total_cycles).max().unwrap()
            );
            assert_eq!(st.exec_cycles, 500);
        }
    }

    #[test]
    fn env_var_is_a_fallback_for_unpinned_configs() {
        // Env mutation is process-global; a Machine::new racing this window
        // merely runs threaded, which is semantically equivalent.
        std::env::set_var("HTM_SIM_SCHEDULER", "threads");
        let m = Machine::new(MachineConfig::cores(1).small());
        // An explicitly pinned scheduler beats the environment variable.
        let pinned = Machine::new(
            MachineConfig::cores(1)
                .small()
                .scheduler(Scheduler::Cooperative),
        );
        std::env::remove_var("HTM_SIM_SCHEDULER");
        assert_eq!(m.config().scheduler, Scheduler::Threaded);
        assert_eq!(pinned.config().scheduler, Scheduler::Cooperative);
        let m = Machine::new(MachineConfig::cores(1).small());
        assert_eq!(m.config().scheduler, Scheduler::Cooperative);
    }
}

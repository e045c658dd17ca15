//! # htm-sim — a deterministic, cycle-approximate multicore HTM simulator
//!
//! Stands in for the paper's MARSSx86 + ASF simulated hardware (Table 2).
//! The model reproduces every hardware property the Staggered Transactions
//! mechanism interacts with:
//!
//! * **Cache-line-granularity conflict detection** — 64-byte lines; read and
//!   write sets are tracked per line in a private L1 model (8-way × 128
//!   sets), and a transaction whose footprint overflows a set's ways takes a
//!   *capacity* abort.
//! * **Eager requester-wins resolution** — a coherence request that hits
//!   another core's speculative line aborts the owner immediately (its undo
//!   log is rolled back under the simulator lock); the victim observes the
//!   abort at its next operation, carrying the conflicting data address and
//!   the 12-bit **conflicting-PC tag** of its own first access to that line
//!   (the hardware extension of paper Section 4).
//! * **Nontransactional loads, stores and CAS inside transactions** — they
//!   bypass the speculative sets; an NT store still aborts *other* cores'
//!   speculative lines (it is a real coherence write), while an NT load
//!   never kills anyone. Advisory locks are built exclusively from these.
//! * **A Table 2 latency model** — L1 2 cycles, L2 10, L3 30, memory 125
//!   (50 ns at 2.5 GHz), cache-to-cache transfer at L3 cost. Absolute
//!   numbers differ from MARSSx86's out-of-order pipeline, but the ratios
//!   that the paper's results are built on (speedup, wasted/useful cycles)
//!   are preserved in shape.
//!
//! ## Determinism
//!
//! Each simulated core is a resumable program (an `async` body), and every
//! shared-state operation is *gated*: a core may act only when its logical
//! clock is the minimum over all unfinished cores (ties broken by core
//! id). By default a single-threaded cooperative event loop resumes the
//! minimum-clock core — no OS threads or condvar handoffs per simulated
//! core; a thread-per-core driver with identical semantics is kept behind
//! [`config::Scheduler::Threaded`]. Given the same seeds, a run is
//! bit-for-bit reproducible regardless of host scheduling or driver — the
//! simulated analogue of the paper pinning worker threads to cores.

pub mod addr;
pub mod cache;
pub mod config;
pub mod coreset;
pub(crate) mod directory;
pub mod fx;
pub mod latency;
pub mod machine;
pub mod obs;
pub mod sched;
pub mod sim;
pub(crate) mod spec;
pub mod spin;
pub mod stats;
pub mod trace;

pub use addr::{line_addr, line_of, Addr, LINE_BYTES, WORDS_PER_LINE, WORD_BYTES};
pub use config::{FallbackPolicy, HtmProtocol, MachineConfig, Scheduler};
pub use coreset::MAX_CORES;
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use latency::{
    histogram_of, request_latencies, txn_latencies, LatencySummary, LogHistogram, RequestLatency,
};
pub use machine::{body, factory, Core, CoreBody, CoreFactory, CoreFn, Machine};
pub use obs::{
    AbortBreakdown, ConflictMatrix, EventRing, ObsEvent, ObsKind, WaitHistogram, WordWaits,
};
pub use sched::SchedStats;
pub use sim::{AbortCause, AbortInfo, TraceEvent, TraceKind, TxError};
pub use spin::{Spin, SpinExit, SpinUntil};
pub use stats::{CoreStats, SimStats, SpecStats};

//! Parked spinners are exact: the cooperative driver's arithmetic credit
//! of steady lock-spin polls must reproduce, bit for bit, what the threaded
//! and speculative drivers get by stepping every poll through a gate.
//!
//! Seeded programs mix advisory acquires (with timeouts short enough to
//! fire while a spinner is parked, some issued inside transactions),
//! global-lock acquires, `wait_until_free`, transactional traffic that
//! dooms spinners' transactions and subscribes to the global lock, and
//! holders of random length, on 2, 16 and 65 cores under both HTM
//! protocols. A sweep of holder lengths lands releases at every offset of
//! a spinner's iteration, including between its CAS and its flag load.
//! Statistics, obs events, per-core returns and the final lock and data
//! words must match across drivers; and the cooperative driver must resume
//! cores fewer times than the loops iterated, or the fast path never ran.

use htm_sim::{
    factory, Addr, CoreFactory, HtmProtocol, Machine, MachineConfig, ObsEvent, ObsKind, Scheduler,
    SimStats,
};
use stagger_core::{GlobalLock, LockTable};
use stagger_prng::Xoshiro256StarStar;
use std::sync::{Arc, Mutex};

/// Everything a run leaves behind that must not depend on the driver.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    stats: SimStats,
    events: Vec<Vec<ObsEvent>>,
    returns: Vec<u64>,
    words: Vec<u64>,
}

/// Shared addresses of one scenario.
#[derive(Clone, Copy)]
struct Layout {
    locks: LockTable,
    gl: GlobalLock,
    /// First of `DATA_LINES` transactional data lines.
    data: Addr,
}

const DATA_LINES: u64 = 6;
const LOCKS: usize = 4;

/// One core's seeded program: `rounds` random actions. Returns a digest of
/// what each action observed.
async fn program(mut c: htm_sim::Core<'_>, l: Layout, seed: u64, rounds: u32, q: u64) -> u64 {
    let tid = c.tid() as u64;
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ (tid + 1).wrapping_mul(0x9E37_79B9));
    let data = |i: u64| l.data + (i % DATA_LINES) * 64;
    let mut acc = 0u64;
    for _ in 0..rounds {
        let hold = rng.below(4_000);
        match rng.below(10) {
            // Advisory acquire, a third of them inside a transaction that
            // other cores' stores may doom while the spinner is parked.
            0..=3 => {
                let in_tx = rng.below(3) == 0;
                if in_tx {
                    c.tx_begin(1).await;
                    let _ = c.tx_load(data(rng.below(DATA_LINES)), 0x40).await;
                }
                let addr = data(rng.below(LOCKS as u64));
                match l.locks.acquire(&mut c, addr, rng.below(3_000), q).await {
                    Some(w) => {
                        acc = acc.wrapping_mul(31).wrapping_add(1);
                        c.compute(hold);
                        l.locks.release(&mut c, w).await;
                    }
                    None => acc = acc.wrapping_mul(31).wrapping_add(2),
                }
                if in_tx && c.tx_active() {
                    let ok = c.tx_commit().await.is_ok();
                    acc = acc.wrapping_mul(31).wrapping_add(ok as u64);
                }
            }
            // Irrevocable-style section under the global lock.
            4 => {
                l.gl.acquire(&mut c, q).await;
                c.compute(hold);
                c.nt_store(data(rng.below(DATA_LINES)), tid).await;
                l.gl.release(&mut c).await;
            }
            5 => l.gl.wait_until_free(&mut c, q).await,
            // A transaction that stores, then subscribes to the global
            // lock before commit; a held lock aborts it and waits.
            6 | 7 => {
                c.tx_begin(2).await;
                let a = data(rng.below(DATA_LINES));
                let r = match c.tx_load(a, 0x80).await {
                    Ok(v) => c.tx_store(a, v + 1, 0x84).await,
                    Err(e) => Err(e),
                };
                c.compute(rng.below(300));
                let sub = match r {
                    Ok(()) => c.tx_load(l.gl.addr(), 0x88).await,
                    Err(e) => Err(e),
                };
                match sub {
                    Ok(0) => {
                        let ok = c.tx_commit().await.is_ok();
                        acc = acc.wrapping_mul(31).wrapping_add(3 + ok as u64);
                    }
                    Ok(_) => {
                        let _ = c.tx_abort().await;
                        l.gl.wait_until_free(&mut c, q).await;
                    }
                    Err(_) => acc = acc.wrapping_mul(31).wrapping_add(5),
                }
            }
            _ => c.compute(rng.below(600)),
        }
    }
    acc
}

/// The wait quantum of scenario `seed`, the same on every core so that
/// the loops' iteration count is `lock_wait_cycles / quantum(seed)`.
fn quantum(seed: u64) -> u64 {
    10 + seed % 30
}

/// Run one scenario; also returns the driver's `schedule()` call count.
fn run(
    n: usize,
    protocol: HtmProtocol,
    scheduler: Scheduler,
    seed: u64,
    rounds: u32,
) -> (Outcome, u64) {
    let mut cfg = MachineConfig::cores(n)
        .small()
        .protocol(protocol)
        .record_events()
        .scheduler(scheduler);
    if scheduler == Scheduler::Speculative {
        cfg = cfg.host_threads(2);
    }
    let m = Machine::new(cfg);
    let l = Layout {
        locks: LockTable::new(&m, LOCKS),
        gl: GlobalLock::new(&m),
        data: m.host_alloc(DATA_LINES * 8, true),
    };
    let q = quantum(seed);
    let returns = Arc::new(Mutex::new(vec![0u64; n]));
    let factories: Vec<CoreFactory<'_>> = (0..n)
        .map(|_| {
            let returns = Arc::clone(&returns);
            factory(move |c| {
                let returns = Arc::clone(&returns);
                async move {
                    let tid = c.tid();
                    let r = program(c, l, seed, rounds, q).await;
                    returns.lock().unwrap()[tid] = r;
                }
            })
        })
        .collect();
    m.run_factories(factories);
    let mut words = vec![m.host_load(l.gl.addr())];
    for i in 0..DATA_LINES {
        let a = l.data + i * 64;
        let w = l.locks.lock_addr_for(a);
        words.extend([m.host_load(a), m.host_load(w), m.host_load(w + 8)]);
    }
    let returns = returns.lock().unwrap().clone();
    let out = Outcome {
        stats: m.stats(),
        events: m.take_events(),
        returns,
        words,
    };
    (out, m.sched_stats().schedule_calls)
}

fn timeouts(o: &Outcome) -> usize {
    o.events
        .iter()
        .flatten()
        .filter(|e| matches!(e.kind, ObsKind::LockTimeout { waited, .. } if waited > 0))
        .count()
}

#[test]
fn spin_parking_matches_step_path() {
    for (n, rounds) in [(2usize, 60u32), (16, 24), (65, 6)] {
        for protocol in [HtmProtocol::Eager, HtmProtocol::Lazy] {
            for seed in [1u64, 2] {
                let ctx = format!("{n} cores, {protocol:?}, seed {seed}");
                let (coop, sched_calls) = run(n, protocol, Scheduler::Cooperative, seed, rounds);
                let (threaded, _) = run(n, protocol, Scheduler::Threaded, seed, rounds);
                assert_eq!(coop, threaded, "cooperative vs threaded: {ctx}");
                let (spec, _) = run(n, protocol, Scheduler::Speculative, seed, rounds);
                assert_eq!(coop, spec, "cooperative vs speculative: {ctx}");
                assert!(timeouts(&coop) > 0, "no advisory timeout fired: {ctx}");
                let iterations = coop.stats.aggregate().lock_wait_cycles / quantum(seed);
                assert!(
                    sched_calls < iterations,
                    "{ctx}: {sched_calls} cooperative resumptions for {iterations} spin \
                     iterations — spinners were not parked"
                );
            }
        }
    }
    releases_at_every_offset_of_a_parked_iteration();
}

/// Two cores: one holds a lock for `hold` cycles while the other spins on
/// it. Sweeping `hold` over two whole spin periods moves the release
/// across every offset of the spinner's iteration — onto its CAS, between
/// its CAS and its flag load, onto the flag load and into its wait — for
/// both id orders, for the advisory lock and the global lock.
fn releases_at_every_offset_of_a_parked_iteration() {
    const Q: u64 = 30;
    let run = |scheduler: Scheduler, holder: usize, hold: u64, global: bool| {
        let m = Machine::new(
            MachineConfig::cores(2)
                .small()
                .record_events()
                .scheduler(scheduler),
        );
        let locks = LockTable::new(&m, 1);
        let gl = GlobalLock::new(&m);
        let bodies = (0..2)
            .map(|tid| {
                factory(move |mut c| async move {
                    if tid == holder {
                        let w = if global {
                            gl.acquire(&mut c, Q).await;
                            gl.addr()
                        } else {
                            locks.acquire(&mut c, 0, 1 << 30, Q).await.unwrap()
                        };
                        c.compute(hold);
                        if global {
                            gl.release(&mut c).await;
                        } else {
                            locks.release(&mut c, w).await;
                        }
                    } else {
                        // Start after the holder's claim.
                        c.compute(20);
                        if global {
                            gl.acquire(&mut c, Q).await;
                            gl.release(&mut c).await;
                        } else {
                            let w = locks.acquire(&mut c, 0, 1 << 30, Q).await.unwrap();
                            locks.release(&mut c, w).await;
                        }
                    }
                })
            })
            .collect();
        m.run_factories(bodies);
        let word = if global {
            gl.addr()
        } else {
            locks.lock_addr_for(0)
        };
        (
            m.stats(),
            m.take_events(),
            m.host_load(word),
            m.host_load(word + 8),
        )
    };
    for global in [false, true] {
        for holder in [0, 1] {
            for hold in 200..200 + 2 * (2 * 2 + Q) {
                let coop = run(Scheduler::Cooperative, holder, hold, global);
                let threaded = run(Scheduler::Threaded, holder, hold, global);
                assert_eq!(
                    coop, threaded,
                    "global {global}, holder {holder}, hold {hold}"
                );
            }
        }
    }
}

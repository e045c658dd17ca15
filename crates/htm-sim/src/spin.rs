//! Nontransactional spin loops on one lock word — the single polling
//! primitive behind advisory-lock acquisition, the global fallback lock
//! and the hybrid-TM stripe claim — and the arithmetic that lets the
//! cooperative driver *park* a spinner instead of resuming it per poll.
//!
//! A loop is a fixed sequence of gated sub-ops per iteration:
//!
//! 1. **poll** — `nt_cas(word, 0, me)` ([`SpinUntil::Claimed`],
//!    [`SpinUntil::ClaimedWithin`]) or `nt_load(word)` ([`SpinUntil::Free`]);
//!    success ends the loop;
//! 2. **flag** ([`SpinUntil::ClaimedWithin`] only) — `nt_load(word + 8)`,
//!    and if it reads 0, **mark** with `nt_store(word + 8, 1)`: the lock's
//!    contended flag, in the lock's own line; then the timeout check, which
//!    ends the loop once `waited >= timeout`;
//! 3. **wait** — `quantum` compute cycles, then the gated lock-wait charge
//!    (`lock_wait_cycles += quantum`); `waited += quantum`.
//!
//! [`SpinLoop`] holds that sequence once. The threaded and speculative
//! drivers step it one gate at a time; the cooperative driver steps it the
//! same way until an iteration is *steady* — the lock line is in the
//! spinner's L1, the poll would fail and the flag is already set — and then
//! parks the core (see [`crate::sim::SimState`]'s `try_park`). A steady
//! iteration touches nothing but the spinner's own clock, counters and L1
//! LRU stamp, so [`SpinLoop::catch_up`] can credit any number of them in
//! O(1) when a write to the line, or the loop's timeout, ends the park.

use crate::addr::Addr;
use crate::sim::{Op, OpResult};

/// What a spin loop waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpinUntil {
    /// `while !nt_cas(word, 0, me) { wait }` — claim the word (the global
    /// lock, a hybrid-TM stripe).
    Claimed { me: u64 },
    /// Claim the word, marking the line's contended flag after each failed
    /// poll, and give up once `timeout` wait cycles have been charged (the
    /// advisory lock's `AcquireLockFor`, paper Section 5.1).
    ClaimedWithin { me: u64, timeout: u64 },
    /// `while nt_load(word) != 0 { wait }` — wait until the word reads 0.
    Free,
}

/// One spin loop: the word it polls, what it waits for, and the lock-wait
/// cycles charged per failed poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spin {
    pub word: Addr,
    pub until: SpinUntil,
    pub quantum: u64,
}

/// How a spin loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpinExit {
    /// The [`SpinUntil::ClaimedWithin`] timeout fired; the word was not
    /// claimed.
    pub timed_out: bool,
    /// Lock-wait cycles charged by this loop.
    pub waited: u64,
}

/// The next sub-op of a loop's iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Poll,
    Flag,
    Mark,
    Wait,
}

/// What follows a sub-op.
pub(crate) enum Step {
    /// Another sub-op, after `pre` compute cycles (the wait quantum before
    /// the lock-wait charge, else 0).
    Next {
        pre: u64,
    },
    Done(SpinExit),
}

/// Where a parked loop stands: `base` is the clock of the parked
/// iteration's poll, `deadline` the clock at which its timeout iteration
/// must run for real (`None`: it only ends on a write).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Park {
    pub(crate) base: u64,
    pub(crate) deadline: Option<u64>,
}

/// Steady sub-ops credited by [`SpinLoop::catch_up`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Credit {
    /// Clock of the first sub-op not credited (its gate key).
    pub(crate) clock: u64,
    /// Gated sub-ops credited.
    pub(crate) ops: u64,
    /// Of those, memory polls (each one L1 hit on the lock line).
    pub(crate) polls: u64,
    /// Lock-wait cycles charged.
    pub(crate) waited: u64,
}

/// A spin loop's progress.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpinLoop {
    pub(crate) spin: Spin,
    pub(crate) phase: Phase,
    pub(crate) waited: u64,
    pub(crate) park: Option<Park>,
}

impl SpinLoop {
    pub(crate) fn new(spin: Spin) -> SpinLoop {
        SpinLoop {
            spin,
            phase: Phase::Poll,
            waited: 0,
            park: None,
        }
    }

    /// The contended-flag word of an advisory lock.
    fn flag(&self) -> Addr {
        self.spin.word + 8
    }

    /// The sub-op the loop issues next.
    pub(crate) fn op(&self) -> Op {
        let word = self.spin.word;
        match (self.phase, self.spin.until) {
            (Phase::Poll, SpinUntil::Free) => Op::NtLoad { addr: word },
            (Phase::Poll, SpinUntil::Claimed { me } | SpinUntil::ClaimedWithin { me, .. }) => {
                Op::NtCas {
                    addr: word,
                    old: 0,
                    new: me,
                }
            }
            (Phase::Flag, _) => Op::NtLoad { addr: self.flag() },
            (Phase::Mark, _) => Op::NtStore {
                addr: self.flag(),
                val: 1,
            },
            (Phase::Wait, _) => Op::LockWait {
                cycles: self.spin.quantum,
            },
        }
    }

    /// Consume the result of [`SpinLoop::op`] and move to the next sub-op.
    pub(crate) fn advance(&mut self, r: OpResult) -> Step {
        let q = self.spin.quantum;
        match (self.phase, r) {
            (Phase::Poll, OpResult::Flag(true) | OpResult::Val(0)) => Step::Done(SpinExit {
                timed_out: false,
                waited: self.waited,
            }),
            (Phase::Poll, OpResult::Flag(false)) if self.timeout().is_some() => {
                self.phase = Phase::Flag;
                Step::Next { pre: 0 }
            }
            (Phase::Poll, _) => {
                self.phase = Phase::Wait;
                Step::Next { pre: q }
            }
            (Phase::Flag, OpResult::Val(0)) => {
                self.phase = Phase::Mark;
                Step::Next { pre: 0 }
            }
            (Phase::Flag | Phase::Mark, _) => {
                if self.waited >= self.timeout().expect("flag phase without a timeout") {
                    return Step::Done(SpinExit {
                        timed_out: true,
                        waited: self.waited,
                    });
                }
                self.phase = Phase::Wait;
                Step::Next { pre: q }
            }
            (Phase::Wait, _) => {
                self.waited += q;
                self.phase = Phase::Poll;
                Step::Next { pre: 0 }
            }
        }
    }

    fn timeout(&self) -> Option<u64> {
        match self.spin.until {
            SpinUntil::ClaimedWithin { timeout, .. } => Some(timeout),
            _ => None,
        }
    }

    /// Memory polls per steady iteration: the poll, plus the flag load of
    /// an advisory acquire.
    pub(crate) fn polls_per_iter(&self) -> u64 {
        1 + self.timeout().is_some() as u64
    }

    /// Clock advance of one steady iteration, poll to poll: one L1 hit per
    /// memory poll plus the wait quantum.
    fn period(&self, l1_latency: u64) -> u64 {
        self.polls_per_iter() * l1_latency + self.spin.quantum
    }

    /// Park this loop at the top of an iteration whose poll runs at clock
    /// `base`, assuming every iteration from here on is steady. Returns
    /// `false` (and stays unparked) when parking cannot skip a single
    /// iteration: the clock would not advance, the timeout fires in this
    /// very iteration, or the deadline overflows the clock.
    pub(crate) fn park(&mut self, base: u64, l1_latency: u64) -> bool {
        debug_assert_eq!(self.phase, Phase::Poll);
        let p = self.period(l1_latency);
        if p == 0 {
            return false;
        }
        let deadline = match self.timeout() {
            None => None,
            Some(timeout) => {
                // The iteration whose check sees `waited >= timeout`.
                let left = timeout.saturating_sub(self.waited);
                if left == 0 {
                    return false;
                }
                let q = self.spin.quantum;
                if q == 0 {
                    None
                } else {
                    let iters = left.div_ceil(q);
                    match iters.checked_mul(p).and_then(|d| d.checked_add(base)) {
                        Some(d) => Some(d),
                        None => return false,
                    }
                }
            }
        };
        self.park = Some(Park { base, deadline });
        true
    }

    /// End the park: credit every steady sub-op issued at a clock below
    /// `t` and leave the loop at the first sub-op at or past it. A write
    /// by core `w` at clock `wc` passes `t = wc + (tid < w)`, so exactly
    /// the sub-ops whose `(clock, tid)` key precedes the write's are
    /// credited; the deadline passes `t = deadline`.
    ///
    /// Steady iteration `j` issues its polls at `base + j·p + i·l1`
    /// (`i < k` polls) and its lock-wait charge at `base + (j+1)·p`,
    /// where `p = k·l1 + quantum`. Below `d = t - base` lie `f =
    /// (d-1) / p` whole iterations and, of iteration `f`, the polls with
    /// `i·l1 < d - f·p` — at least one, and never its wait, whose clock
    /// `base + (f+1)·p` is not below `t`.
    pub(crate) fn catch_up(&mut self, t: u64, l1_latency: u64) -> Credit {
        let park = self
            .park
            .take()
            .expect("catch-up of a loop that is not parked");
        debug_assert!(park.deadline.is_none_or(|d| t <= d));
        if t <= park.base {
            return Credit {
                clock: park.base,
                ops: 0,
                polls: 0,
                waited: 0,
            };
        }
        let k = self.polls_per_iter();
        let q = self.spin.quantum;
        let p = self.period(l1_latency);
        let d = t - park.base;
        let f = (d - 1) / p;
        let r = d - f * p;
        let i = if l1_latency == 0 {
            k
        } else {
            k.min(r.div_ceil(l1_latency))
        };
        let waited = f * q;
        self.waited += waited;
        let clock = if i == k {
            self.phase = Phase::Wait;
            park.base + (f + 1) * p
        } else {
            self.phase = Phase::Flag;
            park.base + f * p + i * l1_latency
        };
        Credit {
            clock,
            ops: f * (k + 1) + i,
            polls: f * k + i,
            waited,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Step a steady loop sub-op by sub-op from `base`, recording the gate
    /// clock of each sub-op (the reference `catch_up` must agree with).
    fn steady_clocks(sl: &SpinLoop, base: u64, l1: u64, n: usize) -> Vec<(u64, Phase)> {
        let mut sl = *sl;
        let mut clock = base;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push((clock, sl.phase));
            let r = match sl.op() {
                Op::NtCas { .. } => OpResult::Flag(false),
                Op::NtLoad { .. } => OpResult::Val(7),
                Op::LockWait { .. } => OpResult::Unit,
                op => unreachable!("steady loops issue no {op:?}"),
            };
            let lat = if matches!(sl.phase, Phase::Wait) {
                0
            } else {
                l1
            };
            match sl.advance(r) {
                Step::Next { pre } => clock += lat + pre,
                Step::Done(_) => break,
            }
        }
        out
    }

    #[test]
    fn catch_up_credits_exactly_the_sub_ops_below_the_target() {
        for until in [
            SpinUntil::Claimed { me: 1 },
            SpinUntil::Free,
            SpinUntil::ClaimedWithin {
                me: 1,
                timeout: 1 << 40,
            },
        ] {
            for (l1, q) in [(2, 30), (0, 5), (3, 0), (2, 1)] {
                let spin = Spin {
                    word: 4096,
                    until,
                    quantum: q,
                };
                let base = 1000;
                let fresh = SpinLoop::new(spin);
                let clocks = steady_clocks(&fresh, base, l1, 400);
                for t in base - 2..base + 150 {
                    let mut sl = fresh;
                    assert!(sl.park(base, l1));
                    let c = sl.catch_up(t, l1);
                    let below = clocks.iter().filter(|(c, _)| *c < t).count() as u64;
                    let (next_clock, next_phase) = clocks[below as usize];
                    let ctx = format!("{until:?} l1={l1} q={q} t={t}");
                    assert_eq!(c.ops, below, "{ctx}");
                    assert_eq!(c.clock, next_clock, "{ctx}");
                    assert_eq!(sl.phase, next_phase, "{ctx}");
                    let waits = clocks[..below as usize]
                        .iter()
                        .filter(|(_, p)| *p == Phase::Wait)
                        .count() as u64;
                    assert_eq!(c.polls, below - waits, "{ctx}");
                    assert_eq!(c.waited, waits * q, "{ctx}");
                    assert_eq!(sl.waited, waits * q, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn deadline_is_the_timeout_iteration() {
        let spin = Spin {
            word: 4096,
            until: SpinUntil::ClaimedWithin {
                me: 1,
                timeout: 100,
            },
            quantum: 30,
        };
        let mut sl = SpinLoop::new(spin);
        sl.waited = 30;
        // Checks see waited 30, 60, 90, 120: the fourth iteration times
        // out; each iteration is 2 + 2 + 30 cycles.
        assert!(sl.park(500, 2));
        assert_eq!(sl.park.unwrap().deadline, Some(500 + 3 * 34));
        let c = sl.catch_up(500 + 3 * 34, 2);
        assert_eq!((c.clock, sl.phase, sl.waited), (602, Phase::Wait, 90));
        // A loop whose check already sees the timeout runs for real.
        let mut done = SpinLoop::new(spin);
        done.waited = 100;
        assert!(!done.park(0, 2));
        // No clock advance per iteration: never parked.
        let idle = Spin {
            word: 4096,
            until: SpinUntil::Free,
            quantum: 0,
        };
        assert!(!SpinLoop::new(idle).park(0, 0));
    }
}

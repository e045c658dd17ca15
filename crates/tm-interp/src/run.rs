//! Whole-run orchestration: spawn one executor per simulated core, run the
//! thread plans, aggregate statistics.

use crate::exec::{ExecStats, Executor};
use crate::prepared::Prepared;
use htm_sim::{Machine, SchedStats, SimStats, SpecStats};
use stagger_compiler::Compiled;
use stagger_core::{RtStats, RuntimeConfig, SharedRt};
use std::sync::Arc;
use std::sync::Mutex;
use tm_ir::FuncId;

/// What one simulated thread runs: a (normal) entry function and its
/// arguments — typically `thread_main(root, tid, n_ops, ...)`.
#[derive(Debug, Clone)]
pub struct ThreadPlan {
    pub func: FuncId,
    pub args: Vec<u64>,
}

/// Aggregated results of one run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Machine-level statistics (cycles, commits, aborts...).
    pub sim: SimStats,
    /// Runtime (policy/lock/accuracy) statistics summed over threads.
    pub rt: RtStats,
    /// Dynamic execution statistics summed over threads.
    pub exec: ExecStats,
    /// Per-thread return values of the entry functions.
    pub returns: Vec<u64>,
    /// Host-side speculative-scheduler counters (all zeros unless the
    /// machine ran under `Scheduler::Speculative`). Never affects any
    /// simulated quantity.
    pub spec: SpecStats,
    /// Host-side scheduling-overhead counters (indexed min-heap calls and
    /// lazy repairs). Never affects any simulated quantity.
    pub sched: SchedStats,
    /// Observability events lost to the per-core ring bound
    /// ([`Machine::events_dropped`]); nonzero means every stream derived
    /// from `take_events` is truncated.
    pub events_dropped: u64,
}

impl RunOutcome {
    /// Wall-clock proxy: the maximum core clock.
    pub fn exec_cycles(&self) -> u64 {
        self.sim.exec_cycles
    }
}

/// Run `plans` (one per core of `machine`) against `compiled` under the
/// given runtime configuration. Deterministic for fixed seeds: thread `t`
/// uses workload seed `base_seed + t`.
///
/// Flattens the module with [`Prepared::build`] on every call; harnesses
/// that run the same workload many times should build once and use
/// [`run_workload_prepared`].
pub fn run_workload(
    machine: &Machine,
    compiled: &Compiled,
    rt_cfg: &RuntimeConfig,
    plans: &[ThreadPlan],
    base_seed: u64,
) -> RunOutcome {
    let prepared = Arc::new(Prepared::build(compiled));
    run_workload_prepared(machine, compiled, &prepared, rt_cfg, plans, base_seed)
}

/// Like [`run_workload`], but reusing a pre-built [`Prepared`] flattening
/// of `compiled`. `prepared` MUST come from `Prepared::build` on the same
/// `Compiled` — the executor indexes one with PCs from the other.
pub fn run_workload_prepared(
    machine: &Machine,
    compiled: &Compiled,
    prepared: &Arc<Prepared>,
    rt_cfg: &RuntimeConfig,
    plans: &[ThreadPlan],
    base_seed: u64,
) -> RunOutcome {
    assert_eq!(
        plans.len(),
        machine.config().n_cores,
        "one thread plan per simulated core"
    );
    let shared = SharedRt::new(machine, rt_cfg);
    let results: Mutex<Vec<Option<(RtStats, ExecStats, u64)>>> =
        Mutex::new(vec![None; plans.len()]);

    // Factories, not one-shot bodies: the speculative scheduler re-invokes
    // a core's factory to re-execute it after a mis-speculation, so each
    // call must build a fresh, deterministic program (all inputs cloned
    // inside). A re-execution overwrites its `results` slot; the last
    // write always comes from the committed execution.
    let factories: Vec<_> = plans
        .iter()
        .enumerate()
        .map(|(tid, plan)| {
            let prepared = prepared.clone();
            let results = &results;
            let rt_cfg = rt_cfg.clone();
            let plan = plan.clone();
            htm_sim::factory(move |mut core| {
                let prepared = prepared.clone();
                let rt_cfg = rt_cfg.clone();
                let plan = plan.clone();
                async move {
                    let mut exec = Executor::new(
                        compiled,
                        prepared,
                        rt_cfg,
                        shared,
                        tid,
                        base_seed + tid as u64,
                    );
                    let ret = exec.call(&mut core, plan.func, &plan.args).await;
                    results.lock().unwrap()[tid] =
                        Some((exec.rt.stats.clone(), exec.stats.clone(), ret));
                }
            })
        })
        .collect();

    machine.run_factories(factories);

    let mut rt = RtStats::default();
    let mut exec = ExecStats::default();
    let mut returns = Vec::with_capacity(plans.len());
    for r in results.into_inner().unwrap() {
        let (r_rt, r_exec, ret) = r.expect("every thread must finish");
        rt.add(&r_rt);
        exec.add(&r_exec);
        returns.push(ret);
    }

    RunOutcome {
        sim: machine.stats(),
        rt,
        exec,
        returns,
        spec: machine.spec_stats(),
        sched: machine.sched_stats(),
        events_dropped: machine.events_dropped(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_sim::MachineConfig;
    use stagger_compiler::compile;
    use stagger_core::Mode;
    use tm_ir::{FuncBuilder, FuncKind, Module};

    /// tx_incr(counter): atomically increment with a conflict window.
    /// thread_main(counter, n): call tx_incr n times.
    fn counter_module() -> Module {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("tx_incr", 1, FuncKind::Atomic { ab_id: 0 });
        let p = b.param(0);
        let v = b.load(p, 0);
        b.compute(30); // widen the conflict window
        let v2 = b.addi(v, 1);
        b.store(v2, p, 0);
        b.ret(None);
        let tx = m.add_function(b.finish());

        let mut b = FuncBuilder::new("thread_main", 2, FuncKind::Normal);
        let (p, n) = (b.param(0), b.param(1));
        let i = b.const_(0);
        b.while_(
            |b| b.lt(i, n),
            |b| {
                b.call_void(tx, &[p]);
                let nx = b.addi(i, 1);
                b.assign(i, nx);
            },
        );
        b.ret(Some(i));
        m.add_function(b.finish());
        m
    }

    fn run_counter(mode: Mode, n_threads: usize, per_thread: u64) -> (u64, RunOutcome) {
        let m = counter_module();
        let c = compile(&m);
        let machine = Machine::new(MachineConfig::cores(n_threads).small());
        let counter = machine.host_alloc(8, true);
        let tm = c.module.expect("thread_main");
        let plans: Vec<ThreadPlan> = (0..n_threads)
            .map(|_| ThreadPlan {
                func: tm,
                args: vec![counter, per_thread],
            })
            .collect();
        let rt_cfg = RuntimeConfig::with_mode(mode);
        let out = run_workload(&machine, &c, &rt_cfg, &plans, 42);
        (machine.host_load(counter), out)
    }

    #[test]
    fn all_modes_produce_correct_counts() {
        for mode in Mode::ALL {
            let (val, out) = run_counter(mode, 4, 30);
            assert_eq!(val, 120, "{} must be serializable", mode.name());
            assert_eq!(
                out.exec.committed_txns + out.exec.irrevocable_txns,
                120,
                "{}",
                mode.name()
            );
            assert_eq!(out.returns, vec![30, 30, 30, 30]);
        }
    }

    #[test]
    fn staggered_reduces_aborts_on_hot_counter() {
        // 8 threads hammering one counter: hot enough that the policy's
        // frequency gate (decision 1) engages.
        let (_, base) = run_counter(Mode::Htm, 8, 60);
        let (_, stag) = run_counter(Mode::Staggered, 8, 60);
        let base_apc = base.sim.aborts_per_commit();
        let stag_apc = stag.sim.aborts_per_commit();
        assert!(base_apc > 0.5, "counter must contend, got {base_apc:.2}");
        assert!(
            stag_apc < base_apc * 0.6,
            "advisory locks must cut aborts: baseline {base_apc:.2}, staggered {stag_apc:.2}"
        );
        assert!(stag.rt.locks_acquired > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_counter(Mode::Staggered, 4, 25);
        let b = run_counter(Mode::Staggered, 4, 25);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.sim.exec_cycles, b.1.sim.exec_cycles);
        assert_eq!(a.1.exec.insts, b.1.exec.insts);
        assert_eq!(
            a.1.sim.aggregate().conflict_aborts,
            b.1.sim.aggregate().conflict_aborts
        );
    }

    /// Build and run the 9-lines-one-L1-set workload (always a capacity
    /// overflow) under `fallback`; returns the machine, the array base,
    /// the stride in words, and the outcome.
    fn run_capacity_overflow(
        fallback: htm_sim::FallbackPolicy,
    ) -> (Machine, u64, u64, RunOutcome, u32) {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("tx_big", 2, FuncKind::Atomic { ab_id: 0 });
        let (base, stride_lines) = (b.param(0), b.param(1));
        let i = b.const_(0);
        let n = b.const_(9);
        b.while_(
            |b| b.lt(i, n),
            |b| {
                let off = b.mul(i, stride_lines);
                let addr = b.gep(base, off, 0);
                let v = b.load(addr, 0);
                let v2 = b.addi(v, 1);
                b.store(v2, addr, 0);
                let nx = b.addi(i, 1);
                b.assign(i, nx);
            },
        );
        b.ret(None);
        let tx = m.add_function(b.finish());
        let mut b = FuncBuilder::new("main", 2, FuncKind::Normal);
        b.call_void(tx, &[b.param(0), b.param(1)]);
        b.ret(None);
        m.add_function(b.finish());

        let c = compile(&m);
        let machine = Machine::new(MachineConfig::cores(1).small().fallback(fallback));
        let cfg = machine.config().clone();
        // Stride of l1_sets lines => same set index every time.
        let stride_words = (cfg.l1_sets as u64) * 8;
        let base = machine.host_alloc(stride_words * 10, true);
        let main = c.module.expect("main");
        let rt_cfg = RuntimeConfig::with_mode(Mode::Staggered);
        let out = run_workload(
            &machine,
            &c,
            &rt_cfg,
            &[ThreadPlan {
                func: main,
                args: vec![base, stride_words],
            }],
            7,
        );
        let max_retries = rt_cfg.max_retries;
        (machine, base, stride_words, out, max_retries)
    }

    #[test]
    fn capacity_overflow_falls_back_to_irrevocable() {
        // A transaction touching 9 lines in the same L1 set overflows the
        // 8 ways every attempt; after max_retries it must complete
        // irrevocably.
        let (machine, base, stride_words, out, max_retries) =
            run_capacity_overflow(htm_sim::FallbackPolicy::Irrevocable);
        assert_eq!(out.exec.irrevocable_txns, 1);
        assert_eq!(out.exec.committed_txns, 0);
        let agg = out.sim.aggregate();
        assert_eq!(agg.capacity_aborts as u32, max_retries);
        assert_eq!(agg.irrevocable_commits, 1);
        // All 9 increments took effect exactly once.
        for i in 0..9u64 {
            assert_eq!(machine.host_load(base + i * stride_words * 8), 1);
        }
    }

    #[test]
    fn capacity_overflow_falls_back_to_hybrid_software_path() {
        // Same workload under the hybrid policy: after max_retries the
        // transaction must complete on the instrumented software path
        // (accounted as a fallback commit), with identical data results.
        let (machine, base, stride_words, out, max_retries) =
            run_capacity_overflow(htm_sim::FallbackPolicy::HybridStm);
        assert_eq!(out.exec.irrevocable_txns, 1, "one software-path commit");
        assert_eq!(out.exec.committed_txns, 0);
        let agg = out.sim.aggregate();
        assert_eq!(agg.capacity_aborts as u32, max_retries);
        assert_eq!(agg.irrevocable_commits, 1);
        for i in 0..9u64 {
            assert_eq!(machine.host_load(base + i * stride_words * 8), 1);
        }
    }

    #[test]
    fn new_fallback_policies_stay_serializable_under_contention() {
        use htm_sim::FallbackPolicy;
        for fb in [
            FallbackPolicy::HybridStm,
            FallbackPolicy::LazySubscriptionSafe,
        ] {
            let m = counter_module();
            let c = compile(&m);
            let machine = Machine::new(MachineConfig::cores(4).small().fallback(fb));
            let counter = machine.host_alloc(8, true);
            let tm = c.module.expect("thread_main");
            let plans: Vec<ThreadPlan> = (0..4)
                .map(|_| ThreadPlan {
                    func: tm,
                    args: vec![counter, 30],
                })
                .collect();
            let rt_cfg = RuntimeConfig::with_mode(Mode::Htm);
            let out = run_workload(&machine, &c, &rt_cfg, &plans, 42);
            assert_eq!(
                machine.host_load(counter),
                120,
                "{} must stay serializable",
                fb.name()
            );
            assert_eq!(
                out.exec.committed_txns + out.exec.irrevocable_txns,
                120,
                "{}",
                fb.name()
            );
        }
    }

    #[test]
    fn uops_and_anchors_per_txn_counted() {
        let (_, out) = run_counter(Mode::Staggered, 1, 10);
        assert_eq!(out.exec.committed_txns, 10);
        assert!(out.exec.uops_per_txn() > 2.0);
        // tx_incr has exactly one anchor (the load; the store is its
        // pioneer on the same node).
        assert!((out.exec.anchors_per_txn() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn baseline_htm_charges_no_alp_cost() {
        // Single-threaded: Staggered (inactive ALPs) must cost only a few
        // cycles more than the Htm baseline (Table 3: "<1%–5%").
        let (_, base) = run_counter(Mode::Htm, 1, 50);
        let (_, inst) = run_counter(Mode::Staggered, 1, 50);
        let b = base.sim.exec_cycles as f64;
        let i = inst.sim.exec_cycles as f64;
        assert!(i >= b, "instrumentation cannot be free");
        assert!(
            i / b < 1.10,
            "inactive ALP overhead must be small: {b} vs {i}"
        );
    }
}

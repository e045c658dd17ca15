//! Harness self-reporting: per-run host wall-clock and simulated
//! instruction throughput, an end-of-exhibit summary line, and an optional
//! machine-readable dump (`--json`) to `results/BENCH_<exhibit>.json`.
//!
//! The JSON is written by hand (no external dependencies — the build must
//! work offline); the schema is flat and stable:
//!
//! ```json
//! {
//!   "exhibit": "fig7", "jobs": 4, "threads": 16, "quick": true,
//!   "seed": 2015, "wall_secs": 12.3, "total_sim_insts": 45600000,
//!   "insts_per_sec": 3700000.0,
//!   "runs": [ { "workload": "genome", "mode": "htm", "threads": 16,
//!               "sim_cycles": 1, "sim_insts": 2, "gated_ops": 1,
//!               "spec_speculated": 0, "spec_committed": 0,
//!               "spec_mismatches": 0, "spec_rebuilds": 0,
//!               "sched_calls": 9, "sched_stale": 3, "events_dropped": 0,
//!               "host_secs": 0.5, "insts_per_sec": 4.0,
//!               "ns_per_inst": 250000000.0,
//!               "ns_per_gated_op": 500000000.0 }, ... ],
//!   "workers": [ { "worker": 0, "jobs_run": 3, "busy_secs": 1.2,
//!                  "utilization": 0.58 }, ... ]
//! }
//! ```
//!
//! `gated_ops` counts the shared-memory operations admitted through the
//! simulator's scheduler gate, including the lock-spin polls the
//! cooperative driver credits to a parked spinner without resuming it
//! (`sched_calls` counts only real resumptions); `ns_per_inst` and `ns_per_gated_op` are
//! host nanoseconds per simulated instruction and per gated op — all
//! scheduler-overhead observability, not paper metrics. Lock-heavy modes
//! run more gated ops per instruction, so `ns_per_gated_op` is the fairer
//! per-operation cost across modes. For runs made through
//! `PreparedWorkload::run_cfg` (all but `profile`, which keeps its
//! machine), `host_secs` spans machine construction through teardown.
//! `events_dropped` counts observability events lost to the per-core ring
//! bound: any latency digest of a run where it is nonzero is incomplete.
//! The `spec_*` counters are the speculative scheduler's
//! mis-speculation accounting (all zeros under the other schedulers), and
//! `workers` reports per-worker utilization of the harness job pool
//! (busy_secs over wall time) for runs routed through [`Report::pool`].

use crate::jobs::{run_jobs_timed, WorkerUtil};
use crate::{CommonOpts, Measured, RunSpec};
use htm_sim::{histogram_of, txn_latencies, LatencySummary, MachineConfig};
use stagger_core::{Mode, RuntimeConfig};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;
use workloads::{BenchResult, PreparedWorkload};

/// One simulator run, as the harness saw it.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: &'static str,
    pub mode: &'static str,
    pub threads: usize,
    pub sim_cycles: u64,
    pub sim_insts: u64,
    /// Shared-memory ops admitted through the scheduler gate.
    pub gated_ops: u64,
    /// Gated ops executed optimistically by the speculative scheduler
    /// (zero under the other schedulers), and how they fared.
    pub spec_speculated: u64,
    pub spec_committed: u64,
    pub spec_mismatches: u64,
    pub spec_rebuilds: u64,
    /// Indexed-scheduler overhead: `schedule()` calls and lazy heap
    /// repairs (host-side observability, not simulated quantities).
    pub sched_calls: u64,
    pub sched_stale: u64,
    /// Observability events lost to the per-core ring bound.
    pub events_dropped: u64,
    pub host_secs: f64,
    /// Latency percentile digest, present when the run recorded
    /// observability events (simulated cycles; request-level for the
    /// serving exhibits, transaction-level otherwise).
    pub latency: Option<LatencySummary>,
}

impl RunRecord {
    pub fn insts_per_sec(&self) -> f64 {
        if self.host_secs > 0.0 {
            self.sim_insts as f64 / self.host_secs
        } else {
            0.0
        }
    }

    /// Host nanoseconds spent per simulated instruction.
    pub fn ns_per_inst(&self) -> f64 {
        if self.sim_insts > 0 {
            self.host_secs * 1e9 / self.sim_insts as f64
        } else {
            0.0
        }
    }

    /// Host nanoseconds spent per gated shared-memory operation.
    pub fn ns_per_gated_op(&self) -> f64 {
        if self.gated_ops > 0 {
            self.host_secs * 1e9 / self.gated_ops as f64
        } else {
            0.0
        }
    }
}

/// Collects every run of one exhibit. Shareable across harness workers
/// (interior mutability); all run helpers record automatically.
pub struct Report {
    exhibit: String,
    opts: CommonOpts,
    started: Instant,
    records: Mutex<Vec<RunRecord>>,
    /// Job-pool utilization, merged by worker index across every
    /// [`Report::pool`] invocation.
    workers: Mutex<Vec<WorkerUtil>>,
}

impl Report {
    pub fn new(exhibit: &str, opts: &CommonOpts) -> Report {
        Report {
            exhibit: exhibit.to_string(),
            opts: opts.clone(),
            started: Instant::now(),
            records: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Run `jobs` through the harness pool at this exhibit's `--jobs`
    /// level, folding per-worker utilization into the report (the
    /// `workers` section of the JSON dump). Results come back in
    /// submission order, like [`crate::run_jobs`].
    pub fn pool<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let (out, utils) = run_jobs_timed(jobs, self.opts.jobs);
        let mut acc = self.workers.lock().unwrap();
        if acc.len() < utils.len() {
            acc.resize(utils.len(), WorkerUtil::default());
        }
        for (a, u) in acc.iter_mut().zip(&utils) {
            a.jobs_run += u.jobs_run;
            a.busy_secs += u.busy_secs;
        }
        drop(acc);
        out
    }

    /// Record a finished run (the run helpers below call this for you).
    /// Runs that carried observability events get a transaction-level
    /// latency digest for free; exhibits that know request arrivals
    /// (serve) use [`Report::record_with_latency`] instead.
    pub fn record(&self, r: &BenchResult) {
        let latency =
            (!r.events.is_empty()).then(|| histogram_of(&txn_latencies(&r.events)).summary());
        self.record_with(r, latency);
    }

    /// Record a finished run with an exhibit-supplied latency digest
    /// (e.g. request-level, derived against an arrival schedule).
    pub fn record_with_latency(&self, r: &BenchResult, latency: LatencySummary) {
        self.record_with(r, Some(latency));
    }

    fn record_with(&self, r: &BenchResult, latency: Option<LatencySummary>) {
        self.records.lock().unwrap().push(RunRecord {
            workload: r.name,
            mode: r.mode.name(),
            threads: r.n_threads,
            sim_cycles: r.cycles(),
            sim_insts: r.sim_insts(),
            gated_ops: r.gated_ops(),
            spec_speculated: r.out.spec.speculated_ops,
            spec_committed: r.out.spec.committed_ops,
            spec_mismatches: r.out.spec.mismatches,
            spec_rebuilds: r.out.spec.rebuilds,
            sched_calls: r.out.sched.schedule_calls,
            sched_stale: r.out.sched.stale_refreshes,
            events_dropped: r.out.events_dropped,
            host_secs: r.host_secs,
            latency,
        });
    }

    /// The [`RunSpec`] this report's exhibit would use for `p` at
    /// `threads` in `mode` — every run helper below routes through it,
    /// so one exhibit's configuration namings are uniform and carry the
    /// common flags (`--quick`, `--scheduler`, ...).
    pub fn spec(&self, p: &PreparedWorkload, mode: Mode, threads: usize, seed: u64) -> RunSpec {
        let mut spec = RunSpec::from_opts(&self.opts, p.name(), mode);
        spec.threads = threads;
        spec.seed = seed;
        spec
    }

    /// Run `p` at `threads` in `mode` and record it.
    pub fn run(&self, p: &PreparedWorkload, mode: Mode, threads: usize, seed: u64) -> BenchResult {
        let r = self.spec(p, mode, threads, seed).run(p);
        self.record(&r);
        r
    }

    /// Run with explicit machine/runtime configuration (ablations). An
    /// unpinned machine config picks up the exhibit's `--scheduler` flag.
    pub fn run_cfg(
        &self,
        p: &PreparedWorkload,
        seed: u64,
        mut machine_cfg: MachineConfig,
        rt_cfg: RuntimeConfig,
    ) -> BenchResult {
        if let Some(s) = self.opts.scheduler {
            if !machine_cfg.scheduler_pinned {
                machine_cfg = machine_cfg.scheduler(s);
            }
        }
        if machine_cfg.host_threads == 0 {
            machine_cfg.host_threads = self.opts.host_threads;
        }
        let r = p.run_cfg(seed, machine_cfg, rt_cfg);
        self.record(&r);
        r
    }

    /// Sequential (1-thread, baseline-HTM) reference run.
    pub fn run_sequential(&self, p: &PreparedWorkload, seed: u64) -> BenchResult {
        self.run(p, Mode::Htm, 1, seed)
    }

    /// Run and derive the paper's metrics (see [`crate::measure`]).
    pub fn measure(
        &self,
        p: &PreparedWorkload,
        mode: Mode,
        threads: usize,
        seed: u64,
        seq: &BenchResult,
        htm: Option<&BenchResult>,
    ) -> Measured {
        let r = self.spec(p, mode, threads, seed).run(p);
        let m = crate::measured_from(r, seq, htm);
        self.record(&m.result);
        m
    }

    /// Render the machine-readable report. Runs are sorted by
    /// (workload, mode, threads) so the dump is deterministic at any
    /// `--jobs` level.
    pub fn to_json(&self) -> String {
        let mut recs = self.records.lock().unwrap().clone();
        recs.sort_by(|a, b| (a.workload, a.mode, a.threads).cmp(&(b.workload, b.mode, b.threads)));
        let wall = self.started.elapsed().as_secs_f64();
        let total_insts: u64 = recs.iter().map(|r| r.sim_insts).sum();
        let ips = if wall > 0.0 {
            total_insts as f64 / wall
        } else {
            0.0
        };
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"exhibit\": {},\n", json_str(&self.exhibit)));
        s.push_str(&format!("  \"jobs\": {},\n", self.opts.jobs));
        s.push_str(&format!("  \"threads\": {},\n", self.opts.threads));
        s.push_str(&format!("  \"quick\": {},\n", self.opts.quick));
        s.push_str(&format!("  \"seed\": {},\n", self.opts.seed));
        s.push_str(&format!("  \"wall_secs\": {wall:.6},\n"));
        s.push_str(&format!("  \"total_sim_insts\": {total_insts},\n"));
        s.push_str(&format!("  \"insts_per_sec\": {ips:.1},\n"));
        s.push_str("  \"runs\": [\n");
        for (i, r) in recs.iter().enumerate() {
            // Percentile digest of the run's latency distribution, when
            // the run recorded observability events.
            let lat = match &r.latency {
                Some(l) => format!(
                    "\"lat_count\": {}, \"lat_p50\": {}, \"lat_p90\": {}, \
                     \"lat_p99\": {}, \"lat_p999\": {}, \"lat_max\": {}, \
                     \"lat_mean\": {}, ",
                    l.count,
                    l.p50,
                    l.p90,
                    l.p99,
                    l.p999,
                    l.max,
                    l.mean(),
                ),
                None => String::new(),
            };
            s.push_str(&format!(
                "    {{ \"workload\": {}, \"mode\": {}, \"threads\": {}, \
                 \"sim_cycles\": {}, \"sim_insts\": {}, \"gated_ops\": {}, \
                 \"spec_speculated\": {}, \"spec_committed\": {}, \
                 \"spec_mismatches\": {}, \"spec_rebuilds\": {}, \
                 \"sched_calls\": {}, \"sched_stale\": {}, \"events_dropped\": {}, {lat}\
                 \"host_secs\": {:.6}, \"insts_per_sec\": {:.1}, \
                 \"ns_per_inst\": {:.2}, \"ns_per_gated_op\": {:.2} }}{}\n",
                json_str(r.workload),
                json_str(r.mode),
                r.threads,
                r.sim_cycles,
                r.sim_insts,
                r.gated_ops,
                r.spec_speculated,
                r.spec_committed,
                r.spec_mismatches,
                r.spec_rebuilds,
                r.sched_calls,
                r.sched_stale,
                r.events_dropped,
                r.host_secs,
                r.insts_per_sec(),
                r.ns_per_inst(),
                r.ns_per_gated_op(),
                if i + 1 < recs.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n");
        let workers = self.workers.lock().unwrap().clone();
        s.push_str("  \"workers\": [\n");
        for (i, u) in workers.iter().enumerate() {
            let utilization = if wall > 0.0 { u.busy_secs / wall } else { 0.0 };
            s.push_str(&format!(
                "    {{ \"worker\": {i}, \"jobs_run\": {}, \"busy_secs\": {:.6}, \
                 \"utilization\": {:.4} }}{}\n",
                u.jobs_run,
                u.busy_secs,
                utilization,
                if i + 1 < workers.len() { "," } else { "" },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Print the throughput summary line; with `--json`, also dump
    /// `results/BENCH_<exhibit>.json`.
    pub fn finish(&self) {
        let recs = self.records.lock().unwrap();
        let n = recs.len();
        let total_insts: u64 = recs.iter().map(|r| r.sim_insts).sum();
        // `.max(0.0)` normalizes the empty-sum -0.0 so a zero-run report
        // prints "0.00" rather than "-0.00".
        let run_secs: f64 = recs.iter().map(|r| r.host_secs).sum::<f64>().max(0.0);
        let sched_calls: u64 = recs.iter().map(|r| r.sched_calls).sum();
        let sched_stale: u64 = recs.iter().map(|r| r.sched_stale).sum();
        let spec_ops: u64 = recs.iter().map(|r| r.spec_speculated).sum();
        let spec_committed: u64 = recs.iter().map(|r| r.spec_committed).sum();
        let spec_mismatches: u64 = recs.iter().map(|r| r.spec_mismatches).sum();
        let spec_rebuilds: u64 = recs.iter().map(|r| r.spec_rebuilds).sum();
        drop(recs);
        let wall = self.started.elapsed().as_secs_f64();
        let ips = if wall > 0.0 {
            total_insts as f64 / wall
        } else {
            0.0
        };
        println!();
        println!(
            "harness: {n} runs in {wall:.2} s wall ({run_secs:.2} s of simulation, \
             jobs={}), {} sim insts, {}/s",
            self.opts.jobs,
            human(total_insts as f64),
            human(ips)
        );
        // Scheduler-overhead counters, previously visible only in the
        // `--json` dump: indexed-scheduler work and (under the
        // speculative driver) mis-speculation accounting.
        if sched_calls > 0 {
            println!(
                "harness: sched {} schedule() calls, {} stale refreshes",
                human(sched_calls as f64),
                human(sched_stale as f64)
            );
        }
        if spec_ops > 0 {
            println!(
                "harness: spec {} ops speculated, {} committed, \
                 {spec_mismatches} mismatches, {spec_rebuilds} rebuilds",
                human(spec_ops as f64),
                human(spec_committed as f64)
            );
        }
        if self.opts.json {
            match self.write_json() {
                Ok(path) => println!("harness: wrote {}", path.display()),
                Err(e) => eprintln!("harness: could not write JSON report: {e}"),
            }
        }
    }

    fn write_json(&self) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("results");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.exhibit));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// JSON string literal with minimal escaping (names here are ASCII).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// 12345678 -> "12.3M" — for the human summary line only.
fn human(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}k", x / 1e3)
    } else {
        format!("{x:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_sorts() {
        let opts = CommonOpts::default_for_tests();
        let rep = Report::new("unit\"test", &opts);
        rep.records.lock().unwrap().push(RunRecord {
            workload: "zeta",
            mode: "htm",
            threads: 4,
            sim_cycles: 10,
            sim_insts: 20,
            gated_ops: 7,
            spec_speculated: 6,
            spec_committed: 5,
            spec_mismatches: 1,
            spec_rebuilds: 1,
            sched_calls: 9,
            sched_stale: 3,
            events_dropped: 4,
            host_secs: 2.0,
            latency: Some(LatencySummary {
                count: 4,
                p50: 100,
                p90: 200,
                p99: 300,
                p999: 300,
                max: 310,
                total: 800,
            }),
        });
        rep.records.lock().unwrap().push(RunRecord {
            workload: "alpha",
            mode: "htm",
            threads: 4,
            sim_cycles: 1,
            sim_insts: 2,
            gated_ops: 1,
            spec_speculated: 0,
            spec_committed: 0,
            spec_mismatches: 0,
            spec_rebuilds: 0,
            sched_calls: 0,
            sched_stale: 0,
            events_dropped: 0,
            host_secs: 0.5,
            latency: None,
        });
        let j = rep.to_json();
        assert!(j.contains("\"exhibit\": \"unit\\\"test\""));
        let a = j.find("alpha").unwrap();
        let z = j.find("zeta").unwrap();
        assert!(a < z, "runs sorted by workload name");
        assert!(j.contains("\"total_sim_insts\": 22"));
        // insts_per_sec per run: 20 / 2.0 = 10.0
        assert!(j.contains("\"insts_per_sec\": 10.0"));
        assert!(j.contains("\"gated_ops\": 7"));
        assert!(j.contains("\"spec_speculated\": 6"));
        assert!(j.contains("\"spec_mismatches\": 1"));
        assert!(j.contains("\"sched_calls\": 9"));
        assert!(j.contains("\"sched_stale\": 3"));
        assert!(j.contains("\"events_dropped\": 4"));
        // The latency digest appears only on the run that carried one.
        assert!(j.contains("\"lat_p999\": 300"));
        assert!(j.contains("\"lat_mean\": 200"));
        assert_eq!(j.matches("\"lat_count\"").count(), 1);
        // ns_per_inst for zeta: 2.0 s * 1e9 / 20 = 1e8
        assert!(j.contains("\"ns_per_inst\": 100000000.00"));
        // ns_per_gated_op for zeta: 2.0 s * 1e9 / 7
        assert!(j.contains("\"ns_per_gated_op\": 285714285.71"));
        assert!(j.contains("\"workers\": ["));
    }

    #[test]
    fn pool_folds_worker_utilization() {
        let mut opts = CommonOpts::default_for_tests();
        opts.jobs = 2;
        let rep = Report::new("pool", &opts);
        let out = rep.pool((0..6u32).map(|i| move || i * 2).collect::<Vec<_>>());
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10]);
        // A second pool merges into the same worker slots.
        let _ = rep.pool((0..4u32).map(|i| move || i).collect::<Vec<_>>());
        let workers = rep.workers.lock().unwrap();
        assert!(!workers.is_empty() && workers.len() <= 2);
        assert_eq!(workers.iter().map(|u| u.jobs_run).sum::<usize>(), 10);
    }

    #[test]
    fn human_scales() {
        assert_eq!(human(950.0), "950");
        assert_eq!(human(12_345.0), "12.3k");
        assert_eq!(human(12_345_678.0), "12.35M");
        assert_eq!(human(2.5e9), "2.50G");
    }
}

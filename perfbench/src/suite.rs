//! The benchmark's workloads, each a fixed set of cells, and one run of a
//! workload: prepare every program, run every cell, derive the metrics.
//!
//! A cell is one program run once in one mode on one core count, on a
//! freshly built machine. The crates are called directly, each call
//! wrapped in a span named after the layer that owns it.

use crate::calib::Calibration;
use crate::host;
use crate::trace::{Tracer, NO_CELL};
use htm_sim::{histogram_of, request_latencies, LatencySummary, Machine, MachineConfig};
use stagger_compiler::{compile, Compiled};
use stagger_core::{Mode, RuntimeConfig};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use tm_interp::{run_workload_prepared, Prepared, ThreadPlan};
use workloads::serve::Serve;
use workloads::Workload;

pub const WORKLOADS: [&str; 2] = ["paper-suite-16", "serve-flash-64"];

/// Serve: p99 latency budget, simulated cycles (100 us at 2.5 GHz).
pub const SLO_CYCLES: u64 = 250_000;
/// Serve: offered loads, as mean interarrival cycles per core.
const SERVE_LOADS: [u64; 4] = [48_000, 36_000, 24_000, 8_000];
/// Serve: requests per core at bench scale, twice the serve exhibits' 96.
/// With 192 requests and a schedule of its own for each load, the
/// simulated work varies less from seed to seed: over seeds 1-10 the
/// middle half of the gated-op counts spread 0.052 of their median, against
/// 0.126 with 96 requests and one schedule shared by the four loads.
const SERVE_REQUESTS_PER_CORE: u64 = 192;
/// Serve: the load whose Staggered latency percentiles are reported.
pub const SERVE_REPORT_LOAD: u64 = 36_000;

/// `Bench` is what the benchmark measures; `Tiny` shrinks every program
/// and core count so the benchmark's own test runs in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Bench,
    Tiny,
}

struct Program {
    w: Box<dyn Workload>,
    /// Serve only: the offered load (mean interarrival cycles per core)
    /// and each core's scheduled arrival times.
    serve: Option<(u64, Vec<Vec<u64>>)>,
}

struct Cell {
    prog: usize,
    mode: Mode,
    cores: usize,
}

struct Plan {
    programs: Vec<Program>,
    cells: Vec<Cell>,
    record_events: bool,
}

/// SplitMix64: derives the per-run seeds from the benchmark's seed.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Thread `t` of every cell runs with seed `thread_base(seed) + t`; the
/// top bit is clear so that sum cannot overflow.
fn thread_base(seed: u64) -> u64 {
    mix(seed) >> 1
}

fn plan(workload: &str, scale: Scale, seed: u64) -> Option<Plan> {
    let tiny = scale == Scale::Tiny;
    let closed = |w: Box<dyn Workload>| Program { w, serve: None };
    let plan = match workload {
        // Fig. 7: sequential HTM, then the four modes on 16 cores.
        "paper-suite-16" => {
            let cores = if tiny { 4 } else { 16 };
            let set = if tiny {
                workloads::quick_workloads()
            } else {
                workloads::all_workloads()
            };
            let programs: Vec<Program> = set.into_iter().map(closed).collect();
            let cells = (0..programs.len())
                .flat_map(|prog| {
                    [(Mode::Htm, 1)]
                        .into_iter()
                        .chain(Mode::ALL.map(|m| (m, cores)))
                        .map(move |(mode, cores)| Cell { prog, mode, cores })
                })
                .collect();
            Plan {
                programs,
                cells,
                record_events: false,
            }
        }
        "serve-flash-64" => {
            let cores = if tiny { 8 } else { 64 };
            let programs: Vec<Program> = SERVE_LOADS
                .iter()
                .map(|&ia| {
                    let mut s = Serve::parse_name(&format!("serve-flash-i{ia}"), tiny)
                        .expect("serve-flash-i<N> is a valid serve name");
                    s.schedule_seed = mix(seed ^ 0x5345_5256 ^ ia);
                    if !tiny {
                        s.requests_per_core = SERVE_REQUESTS_PER_CORE;
                    }
                    let arrivals = (0..cores)
                        .map(|c| s.schedule(c).iter().map(|r| r.arrival).collect())
                        .collect();
                    Program {
                        w: Box::new(s),
                        serve: Some((ia, arrivals)),
                    }
                })
                .collect();
            let cells = [Mode::Htm, Mode::Staggered]
                .into_iter()
                .flat_map(|mode| (0..programs.len()).map(move |prog| Cell { prog, mode, cores }))
                .collect();
            Plan {
                programs,
                cells,
                record_events: true,
            }
        }
        _ => return None,
    };
    Some(plan)
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

pub struct CellOut {
    pub label: String,
    pub ok: bool,
    pub digest: u64,
    prog: usize,
    mode: Mode,
    cores: usize,
    cycles: u64,
    aborts: u64,
    commits: u64,
    latency: Option<LatencySummary>,
}

/// Everything one run of a workload measured. `values` holds every scalar
/// by name; `cells` the per-cell outcome and digest of simulated counters.
pub struct RunOut {
    pub values: BTreeMap<String, f64>,
    pub cells: Vec<CellOut>,
}

/// Host seconds and counters summed over a run's calls and cells.
#[derive(Default)]
struct Acc {
    setup_s: f64,
    run_s: f64,
    counters: BTreeMap<&'static str, u64>,
}

impl Acc {
    fn count(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_insert(0) += v;
    }
}

struct Ctx<'a> {
    t: Tracer,
    acc: Acc,
    base_seed: u64,
    record_events: bool,
    traced: bool,
    programs: &'a [Program],
    compiled: Vec<(Compiled, Arc<Prepared>)>,
}

impl Ctx<'_> {
    fn run_cell(&mut self, id: u32, cell: &Cell) -> CellOut {
        let program = &self.programs[cell.prog];
        let w = program.w.as_ref();
        let (compiled, prepared) = &self.compiled[cell.prog];
        let label = format!("{} {} x{}", w.name(), cell.mode.name(), cell.cores);

        let mut cfg = MachineConfig::cores(cell.cores);
        if self.record_events {
            cfg = cfg.record_events();
        }
        let flt0 = self.traced.then(|| host::usage().minflt);
        let (machine, secs) = self.t.time("htm-sim.machine_new", id, || Machine::new(cfg));
        self.acc.setup_s += secs;
        if let Some(flt0) = flt0 {
            self.acc
                .count("machine_new_minflt", host::usage().minflt - flt0);
        }
        let (args, secs) = self
            .t
            .time("workloads.setup", id, || w.setup(&machine, cell.cores));
        self.acc.setup_s += secs;

        let entry = compiled.module.expect("thread_main");
        let plans: Vec<ThreadPlan> = args
            .iter()
            .map(|a| ThreadPlan {
                func: entry,
                args: a.clone(),
            })
            .collect();
        let rt = RuntimeConfig::with_mode(cell.mode);
        let base_seed = self.base_seed;
        let (out, secs) = self.t.time("tm-interp.run", id, || {
            run_workload_prepared(&machine, compiled, prepared, &rt, &plans, base_seed)
        });
        self.acc.run_s += secs;
        let (valid, _) = self.t.time("workloads.validate", id, || {
            w.validate(&machine, &args, &out)
        });
        let (events, _) = self
            .t
            .time("htm-sim.take_events", id, || machine.take_events());
        let mut error = valid.err();

        // Derived for every cell; without event recording the stream, and
        // so the latency set, is empty.
        let arrivals = program.serve.as_ref().map_or(&[][..], |(_, a)| &a[..]);
        let (summary, _) = self.t.time("htm-sim.latency", id, || {
            histogram_of(&request_latencies(&events, arrivals)).summary()
        });
        let expected: usize = arrivals.iter().map(Vec::len).sum();
        if summary.count < expected as u64 {
            error.get_or_insert(format!(
                "{} of {expected} requests have a latency: event stream incomplete",
                summary.count
            ));
        }
        let latency = program.serve.is_some().then_some(summary);
        self.acc.count(
            "obs_events",
            events.iter().map(|e| e.len() as u64).sum::<u64>(),
        );
        drop(events);
        self.t.time("htm-sim.machine_drop", id, || drop(machine));

        let agg = out.sim.aggregate();
        let a = &mut self.acc;
        a.count("insts", out.exec.insts);
        a.count("aborted_attempts", out.exec.aborted_attempts);
        a.count("irrevocable_txns", out.exec.irrevocable_txns);
        a.count("gated_ops", agg.gated_ops);
        a.count("sched_calls", out.sched.schedule_calls);
        a.count("sched_stale", out.sched.stale_refreshes);
        a.count("tx_mem_ops", agg.tx_mem_ops);
        a.count("nt_mem_ops", agg.nt_mem_ops);
        a.count("commits", agg.commits + agg.irrevocable_commits);
        a.count("aborts", agg.aborts());
        a.count("conflict_aborts", agg.conflict_aborts);
        a.count("wasted_tx_cycles", agg.wasted_tx_cycles);
        a.count("useful_tx_cycles", agg.useful_tx_cycles);
        a.count("lock_wait_cycles", agg.lock_wait_cycles);
        a.count("alps_executed", out.rt.alps_executed);
        a.count("locks_acquired", out.rt.locks_acquired);
        a.count("lock_timeouts", out.rt.lock_timeouts);
        a.count("anchors_identified", out.rt.anchor_identified);
        a.count("anchors_correct", out.rt.anchor_correct);

        // Simulated counters only: host-side ones (scheduler, gate) may
        // change under a host-only change that keeps the digest.
        let mut d = Digest::new();
        d.add(out.sim.exec_cycles);
        for c in &out.sim.cores {
            for v in [
                c.commits,
                c.conflict_aborts,
                c.capacity_aborts,
                c.explicit_aborts,
                c.subscription_aborts,
                c.irrevocable_commits,
                c.useful_tx_cycles,
                c.wasted_tx_cycles,
                c.lock_wait_cycles,
                c.backoff_cycles,
                c.irrevocable_cycles,
                c.total_cycles,
                c.tx_mem_ops,
                c.nt_mem_ops,
            ] {
                d.add(v);
            }
        }
        let e = &out.exec;
        for v in [
            e.insts,
            e.committed_txns,
            e.committed_insts,
            e.committed_anchors,
            e.aborted_attempts,
            e.irrevocable_txns,
        ] {
            d.add(v);
        }
        let r = &out.rt;
        for v in [
            r.contention_aborts,
            r.anchor_identified,
            r.anchor_correct,
            r.locks_acquired,
            r.lock_timeouts,
            r.act_precise,
            r.act_coarse,
            r.act_training,
            r.alps_executed,
        ] {
            d.add(v);
        }
        out.returns.iter().for_each(|&v| d.add(v));
        if let Some(s) = &latency {
            for v in [s.count, s.p50, s.p90, s.p99, s.p999, s.max, s.total] {
                d.add(v);
            }
        }

        if let Some(e) = &error {
            eprintln!("perfbench: cell {id} ({label}) failed: {e}");
        }
        CellOut {
            label,
            ok: error.is_none(),
            digest: d.0,
            prog: cell.prog,
            mode: cell.mode,
            cores: cell.cores,
            cycles: out.sim.exec_cycles,
            aborts: agg.aborts(),
            commits: agg.commits + agg.irrevocable_commits,
            latency,
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Per-layer metrics of one traced run: self seconds of each layer's
/// spans, and counters from the stats structs, each ratio beside its base.
fn per_layer(
    counters: &BTreeMap<&'static str, u64>,
    self_s: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, f64)> {
    let n = |k: &str| counters.get(k).copied().unwrap_or(0) as f64;
    let t = |k: &str| self_s.get(k).copied().unwrap_or(0.0);
    let run_ns = t("tm-interp.run") * 1e9;
    vec![
        ("tm-ir.build_module_s", t("tm-ir.build_module")),
        ("stagger-compiler.compile_s", t("stagger-compiler.compile")),
        ("tm-interp.prepare_s", t("tm-interp.prepare")),
        ("tm-interp.run_s", t("tm-interp.run")),
        ("tm-interp.insts", n("insts")),
        ("tm-interp.ns_per_inst", ratio(run_ns, n("insts"))),
        ("tm-interp.aborted_attempts", n("aborted_attempts")),
        ("tm-interp.irrevocable_txns", n("irrevocable_txns")),
        ("htm-sim.machine_new_s", t("htm-sim.machine_new")),
        ("htm-sim.machine_drop_s", t("htm-sim.machine_drop")),
        ("htm-sim.machine_new_minflt", n("machine_new_minflt")),
        ("htm-sim.take_events_s", t("htm-sim.take_events")),
        ("htm-sim.latency_s", t("htm-sim.latency")),
        ("htm-sim.obs_events", n("obs_events")),
        ("htm-sim.gated_ops", n("gated_ops")),
        ("htm-sim.ns_per_gated_op", ratio(run_ns, n("gated_ops"))),
        ("htm-sim.sched_calls", n("sched_calls")),
        (
            "htm-sim.sched_stale_ratio",
            ratio(n("sched_stale"), n("sched_calls")),
        ),
        ("htm-sim.tx_mem_ops", n("tx_mem_ops")),
        ("htm-sim.nt_mem_ops", n("nt_mem_ops")),
        ("htm-sim.commits", n("commits")),
        ("htm-sim.aborts", n("aborts")),
        (
            "htm-sim.commit_ratio",
            ratio(n("commits"), n("commits") + n("aborts")),
        ),
        ("htm-sim.conflict_aborts", n("conflict_aborts")),
        (
            "htm-sim.wasted_over_useful",
            ratio(n("wasted_tx_cycles"), n("useful_tx_cycles")),
        ),
        ("stagger-core.alps_executed", n("alps_executed")),
        ("stagger-core.locks_acquired", n("locks_acquired")),
        ("stagger-core.lock_timeouts", n("lock_timeouts")),
        ("stagger-core.lock_wait_cycles", n("lock_wait_cycles")),
        ("stagger-core.anchors_identified", n("anchors_identified")),
        (
            "stagger-core.anchor_accuracy",
            ratio(n("anchors_correct"), n("anchors_identified")),
        ),
        ("workloads.setup_s", t("workloads.setup")),
        ("workloads.validate_s", t("workloads.validate")),
        ("bench.harness_s", t("bench.run") + t("bench.cell")),
    ]
}

fn harmonic_mean(xs: &[f64]) -> f64 {
    xs.len() as f64 / xs.iter().map(|x| 1.0 / x).sum::<f64>()
}

/// Run `workload` once. `spans`, when given, turns tracing on and names
/// the file the spans are written to at the end.
pub fn run(
    workload: &str,
    scale: Scale,
    seed: u64,
    spans: Option<&std::path::Path>,
) -> Result<RunOut, String> {
    let plan = plan(workload, scale, seed).ok_or_else(|| format!("unknown workload {workload}"))?;
    // Untraced runs only: the points taken between cells are left out of
    // the run's wall time.
    let mut cal = spans.is_none().then(|| {
        let mut c = Calibration::new();
        c.point();
        c
    });
    let cal_spent = |cal: &Option<Calibration>| cal.as_ref().map_or(0.0, |c| c.spent_s);
    let cal_spent0 = cal_spent(&cal);
    let started = Instant::now();
    let mut ctx = Ctx {
        t: Tracer::new(spans.is_some()),
        acc: Acc::default(),
        base_seed: thread_base(seed),
        record_events: plan.record_events,
        traced: spans.is_some(),
        programs: &plan.programs,
        compiled: Vec::new(),
    };
    let root = ctx.t.enter("bench.run", NO_CELL);

    for p in &plan.programs {
        let (module, s1) = ctx
            .t
            .time("tm-ir.build_module", NO_CELL, || p.w.build_module());
        let (compiled, s2) = ctx
            .t
            .time("stagger-compiler.compile", NO_CELL, || compile(&module));
        let (prepared, s3) = ctx.t.time("tm-interp.prepare", NO_CELL, || {
            Arc::new(Prepared::build(&compiled))
        });
        ctx.acc.setup_s += s1 + s2 + s3;
        ctx.compiled.push((compiled, prepared));
    }

    let mut cells = Vec::with_capacity(plan.cells.len());
    for (id, cell) in plan.cells.iter().enumerate() {
        let id = id as u32;
        let open = ctx.t.enter("bench.cell", id);
        let depth = ctx.t.depth();
        let out = catch_unwind(AssertUnwindSafe(|| ctx.run_cell(id, cell)));
        let out = out.unwrap_or_else(|_| {
            ctx.t.unwind_to(depth);
            let w = plan.programs[cell.prog].w.name();
            let label = format!("{w} {} x{}", cell.mode.name(), cell.cores);
            eprintln!("perfbench: cell {id} ({label}) panicked");
            CellOut {
                label,
                ok: false,
                digest: 0,
                prog: cell.prog,
                mode: cell.mode,
                cores: cell.cores,
                cycles: 0,
                aborts: 0,
                commits: 0,
                latency: None,
            }
        });
        cells.push(out);
        let _ = ctx.t.exit(open);
        if let Some(c) = &mut cal {
            c.point_if_due();
        }
    }

    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    simulated_metrics(&plan, &cells, &mut v);
    let traced_wall = ctx.t.exit(root);
    let wall_s = started.elapsed().as_secs_f64() - (cal_spent(&cal) - cal_spent0);
    let usage = host::usage();

    let Acc {
        setup_s,
        run_s,
        counters,
    } = ctx.acc;
    let failed = cells.iter().filter(|c| !c.ok).count();
    let insts = counters.get("insts").copied().unwrap_or(0) as f64;
    v.insert("wall_s".into(), wall_s);
    v.insert("setup_raw_s".into(), setup_s);
    if let Some(mut c) = cal {
        c.point();
        v.insert("cal_loop_s".into(), c.mean_s());
        v.insert("norm_wall_s".into(), wall_s * c.scale());
        v.insert("setup_s".into(), setup_s * c.scale());
    }
    v.insert("run_s".into(), run_s);
    v.insert("sim_minsts_per_s".into(), ratio(insts, run_s) * 1e-6);
    v.insert("peak_rss_mib".into(), usage.maxrss_kib as f64 / 1024.0);
    v.insert("minor_faults".into(), usage.minflt as f64);
    v.insert("user_s".into(), usage.user_s);
    v.insert("sys_s".into(), usage.sys_s);
    v.insert("ok_frac".into(), 1.0 - failed as f64 / cells.len() as f64);
    if let Some(path) = spans {
        let self_s = ctx.t.self_times();
        for (name, x) in per_layer(&counters, &self_s) {
            v.insert(name.into(), x);
        }
        v.insert("bench.traced_wall_s".into(), traced_wall);
        ctx.t
            .write_jsonl(path)
            .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
    }
    Ok(RunOut { values: v, cells })
}

/// Speedup, abort rate and (serve) latency, all simulated quantities.
/// Metrics a workload has no data for are left out.
fn simulated_metrics(plan: &Plan, cells: &[CellOut], v: &mut BTreeMap<String, f64>) {
    let widest = cells.iter().map(|c| c.cores).max().unwrap_or(0);
    let find = |prog: usize, mode: Mode| {
        cells
            .iter()
            .find(|c| c.prog == prog && c.mode == mode && c.cores == widest && c.ok)
    };
    let mut speedups = Vec::new();
    let mut reductions = Vec::new();
    for prog in 0..plan.programs.len() {
        if let (Some(h), Some(s)) = (find(prog, Mode::Htm), find(prog, Mode::Staggered)) {
            speedups.push(h.cycles as f64 / s.cycles.max(1) as f64);
            if h.aborts > 0 {
                reductions.push(1.0 - s.aborts as f64 / h.aborts as f64);
            }
        }
    }
    if !speedups.is_empty() {
        v.insert("staggered_speedup".into(), harmonic_mean(&speedups));
    }
    if !reductions.is_empty() {
        let mean = reductions.iter().sum::<f64>() / reductions.len() as f64;
        v.insert("abort_reduction".into(), mean);
    }
    let (aborts, commits) = cells
        .iter()
        .fold((0, 0), |(a, c), x| (a + x.aborts, c + x.commits));
    if commits > 0 {
        v.insert("aborts_per_commit".into(), aborts as f64 / commits as f64);
    }

    // Serve: a failed cell (missing requests included) misses the SLO.
    let staggered_at = |ia: u64| {
        plan.programs
            .iter()
            .position(|p| p.serve.as_ref().is_some_and(|(l, _)| *l == ia))
            .and_then(|prog| find(prog, Mode::Staggered))
            .and_then(|c| c.latency)
    };
    if plan.record_events {
        if let Some(s) = staggered_at(SERVE_REPORT_LOAD) {
            v.insert("p50_cycles".into(), s.p50 as f64);
            v.insert("p99_cycles".into(), s.p99 as f64);
            v.insert("latency_samples".into(), s.count as f64);
        }
        let best = SERVE_LOADS
            .iter()
            .filter(|&&ia| staggered_at(ia).is_some_and(|s| s.p99 <= SLO_CYCLES))
            .min();
        v.insert(
            "slo_max_load".into(),
            best.map_or(0.0, |&ia| 1e6 / ia as f64),
        );
    }
}

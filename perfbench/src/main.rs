//! perfbench — the repository's benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs the named workload (see `suite::WORKLOADS`) repeatedly, each run in
//! a child process of its own and one after another, for about `S`
//! seconds. With `--trace 0` it prints the end-to-end metrics, medians over
//! the runs (`norm_wall_s`: the fastest run); with `--trace 1` it
//! alternates untraced and traced runs and prints the per-layer metrics
//! from the traced ones, plus the tracing overhead. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, where `attempted` and
//! `failed` count cells over all runs.
//!
//! Every cell must pass its workload's validation, and every run's
//! simulated counters (digested per cell) must be identical, or the result
//! reads `"correct": false`.

mod calib;
mod host;
mod suite;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use suite::Scale;

type Values = BTreeMap<String, f64>;

/// At most this many runs per invocation, however short they are.
const MAX_RUNS: usize = 40;

/// End-to-end metrics: name and unit. Host metrics are medians over the
/// untraced runs, except `norm_wall_s`, the fastest run: load from other
/// guests only ever slows a run down. Simulated ones are identical in
/// every run.
const END_TO_END: [(&str, &str); 6] = [
    ("norm_wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("minor_faults", "count"),
    ("ok_frac", "fraction"),
    ("staggered_speedup", "x"),
];

/// Simulated values: exact for a fixed seed, so every run must agree.
const SIMULATED: [&str; 7] = [
    "staggered_speedup",
    "abort_reduction",
    "aborts_per_commit",
    "p50_cycles",
    "p99_cycles",
    "latency_samples",
    "slo_max_load",
];

fn get(v: &Values, key: &str) -> f64 {
    v.get(key).copied().unwrap_or(0.0)
}

/// Per-layer metrics and units, as a traced run reports them (see
/// `suite::per_layer`), plus the tracing overhead.
const PER_LAYER: [(&str, &str); 36] = [
    ("tm-ir.build_module_s", "s"),
    ("stagger-compiler.compile_s", "s"),
    ("tm-interp.prepare_s", "s"),
    ("tm-interp.run_s", "s"),
    ("tm-interp.insts", "count"),
    ("tm-interp.ns_per_inst", "ns"),
    ("tm-interp.aborted_attempts", "count"),
    ("tm-interp.irrevocable_txns", "count"),
    ("htm-sim.machine_new_s", "s"),
    ("htm-sim.machine_drop_s", "s"),
    ("htm-sim.machine_new_minflt", "count"),
    ("htm-sim.take_events_s", "s"),
    ("htm-sim.latency_s", "s"),
    ("htm-sim.obs_events", "count"),
    ("htm-sim.gated_ops", "count"),
    ("htm-sim.ns_per_gated_op", "ns"),
    ("htm-sim.sched_calls", "count"),
    ("htm-sim.sched_stale_ratio", "ratio"),
    ("htm-sim.tx_mem_ops", "count"),
    ("htm-sim.nt_mem_ops", "count"),
    ("htm-sim.commits", "count"),
    ("htm-sim.aborts", "count"),
    ("htm-sim.commit_ratio", "ratio"),
    ("htm-sim.conflict_aborts", "count"),
    ("htm-sim.wasted_over_useful", "ratio"),
    ("stagger-core.alps_executed", "count"),
    ("stagger-core.locks_acquired", "count"),
    ("stagger-core.lock_timeouts", "count"),
    ("stagger-core.lock_wait_cycles", "cycles"),
    ("stagger-core.anchors_identified", "count"),
    ("stagger-core.anchor_accuracy", "ratio"),
    ("workloads.setup_s", "s"),
    ("workloads.validate_s", "s"),
    ("bench.harness_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead_s", "s"),
];

/// Paper reference (Fig. 7/8, 16 threads): harmonic-mean speedup of
/// Staggered over eager HTM, and mean abort reduction.
const PAPER_SPEEDUP: f64 = 1.24;
const PAPER_ABORT_REDUCTION: f64 = 0.64;

struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    /// Child mode: run the workload once and print raw values.
    once: bool,
    spans: Option<String>,
}

const USAGE: &str =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scale bench|tiny]\n\
                     workloads: paper-suite-16 serve-flash-64";

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        scale: Scale::Bench,
        once: false,
        spans: None,
    };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--once" {
            o.once = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number '{val}'"))
        };
        match flag.as_str() {
            "--workload" => o.workload = val.clone(),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            "--spans" => o.spans = Some(val.clone()),
            "--scale" => {
                o.scale = match val.as_str() {
                    "bench" => Scale::Bench,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("--scale: bad value '{val}'")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !suite::WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!("unknown workload '{}'", o.workload));
    }
    o.seed = seed.ok_or("--seed is required")?;
    o.trace = match trace {
        None | Some(0) => false,
        Some(1) => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    if !o.once {
        o.seconds = seconds.ok_or("--seconds is required")?;
    }
    Ok(o)
}

/// What the program runs by default, read from its configs' `Debug`
/// form so the benchmark names no knob a later change may delete.
struct Defaults {
    scheduler: String,
    interp: String,
    host_threads: usize,
}

fn debug_field(debug: &str, field: &str) -> Option<String> {
    let rest = &debug[debug.find(&format!("{field}: "))? + field.len() + 2..];
    let end = rest.find([',', ' ', '}']).unwrap_or(rest.len());
    Some(rest[..end].to_string())
}

fn defaults(widest: usize) -> Defaults {
    let machine = format!("{:?}", htm_sim::MachineConfig::cores(widest));
    let rt = format!(
        "{:?}",
        stagger_core::RuntimeConfig::with_mode(stagger_core::Mode::Staggered)
    );
    let scheduler = debug_field(&machine, "scheduler").unwrap_or_else(|| "(none)".into());
    let configured: usize = debug_field(&machine, "host_threads")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    // Host threads the default driver starts for the widest cell.
    let host_threads = match scheduler.as_str() {
        "Threaded" => widest,
        "Speculative" if configured == 0 => host::nproc(),
        "Speculative" => configured,
        _ => 1,
    };
    Defaults {
        scheduler,
        interp: debug_field(&rt, "interp").unwrap_or_else(|| "(none)".into()),
        host_threads,
    }
}

/// Refuse to measure anything but the program's defaults on at most
/// `nproc` host threads.
fn check_environment(workload: &str) -> Result<Defaults, String> {
    if std::env::var_os("HTM_SIM_SCHEDULER").is_some() {
        return Err(
            "HTM_SIM_SCHEDULER is set; it would replace the default scheduler. \
                    Unset it to run the benchmark."
                .into(),
        );
    }
    let widest = match workload {
        "paper-suite-16" => 16,
        _ => 64,
    };
    let d = defaults(widest);
    if d.host_threads > host::nproc() {
        return Err(format!(
            "the default scheduler {} would start {} host threads on {} CPUs",
            d.scheduler,
            d.host_threads,
            host::nproc()
        ));
    }
    Ok(d)
}

/// Child mode: one run, raw values on stdout.
fn run_once(o: &Opts) -> Result<(), String> {
    let spans = o.spans.as_ref().map(std::path::PathBuf::from);
    let out = suite::run(&o.workload, o.scale, o.seed, spans.as_deref())?;
    for (k, v) in &out.values {
        println!("value {k} {v}");
    }
    for (i, c) in out.cells.iter().enumerate() {
        println!("cell {i} {} {:016x} {}", u8::from(c.ok), c.digest, c.label);
    }
    Ok(())
}

struct Cell {
    ok: bool,
    digest: String,
    label: String,
}

struct Run {
    values: Values,
    cells: Vec<Cell>,
}

fn parse_run(stdout: &str) -> Result<Run, String> {
    let mut run = Run {
        values: Values::new(),
        cells: Vec::new(),
    };
    for line in stdout.lines() {
        let mut f = line.splitn(5, ' ');
        match f.next() {
            Some("value") => {
                let (k, v) = (f.next(), f.next().and_then(|v| v.parse().ok()));
                let (Some(k), Some(v)) = (k, v) else {
                    return Err(format!("bad line from run: {line}"));
                };
                run.values.insert(k.to_string(), v);
            }
            Some("cell") => {
                let (_, ok, digest, label) = (f.next(), f.next(), f.next(), f.next());
                run.cells.push(Cell {
                    ok: ok == Some("1"),
                    digest: digest.unwrap_or("").to_string(),
                    label: label.unwrap_or("").to_string(),
                });
            }
            _ => {}
        }
    }
    if run.cells.is_empty() {
        return Err("a run reported no cells".into());
    }
    Ok(run)
}

fn spans_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into());
    std::path::PathBuf::from(target).join("perfbench-spans")
}

fn child(o: &Opts, traced: bool, index: usize) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    let scale = if o.scale == Scale::Tiny {
        "tiny"
    } else {
        "bench"
    };
    cmd.args(["--once", "--workload", &o.workload, "--scale", scale]);
    cmd.args(["--seed", &o.seed.to_string()]);
    if traced {
        let path = spans_dir().join(format!("{}-seed{}-run{index}.jsonl", o.workload, o.seed));
        cmd.arg("--spans").arg(path);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("a run exited with {}", out.status));
    }
    parse_run(&String::from_utf8_lossy(&out.stdout))
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn median_of(runs: &[Run], f: impl Fn(&Values) -> f64) -> f64 {
    median(runs.iter().map(|r| f(&r.values)).collect())
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let defaults = match check_environment(&o.workload) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if o.once {
        run_once(&o)
    } else {
        measure(&o, &defaults)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn measure(o: &Opts, d: &Defaults) -> Result<(), String> {
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        o.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace)
    );
    println!(
        "host: {} CPUs; scheduler {} and interpreter {} (program defaults), {} host thread(s)",
        host::nproc(),
        d.scheduler,
        d.interp,
        d.host_threads
    );

    // Runs one after another until the next would overrun the budget.
    let budget = Duration::from_secs(o.seconds);
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        let trace_next = o.trace && traced.len() < plain.len();
        let index = plain.len() + traced.len();
        let run = child(o, trace_next, index)?;
        if trace_next {
            traced.push(run);
        } else {
            plain.push(run);
        }
        let done = plain.len() + traced.len();
        let enough = !o.trace || !traced.is_empty();
        let next_ends = started.elapsed() + started.elapsed() / done as u32;
        if enough && (next_ends > budget || done >= MAX_RUNS) {
            break;
        }
    }
    let all: Vec<&Run> = plain.iter().chain(&traced).collect();
    println!(
        "runs: {} untraced, {} traced, each a child process, {:.1} s in all",
        plain.len(),
        traced.len(),
        started.elapsed().as_secs_f64()
    );

    // Correctness: every cell valid, simulated results identical in
    // every run.
    let attempted: usize = all.iter().map(|r| r.cells.len()).sum();
    let failed: usize = all
        .iter()
        .map(|r| r.cells.iter().filter(|c| !c.ok).count())
        .sum();
    let first = all[0];
    let mut problems = Vec::new();
    for (i, r) in all.iter().enumerate().skip(1) {
        let digests = |r: &Run| r.cells.iter().map(|c| c.digest.clone()).collect::<Vec<_>>();
        if digests(r) != digests(first) {
            problems.push(format!("run {i}: cell digests differ from run 0"));
        }
        for k in SIMULATED {
            if r.values.get(k) != first.values.get(k) {
                problems.push(format!("run {i}: {k} differs from run 0"));
            }
        }
    }
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} cells failed"));
    }
    for p in &problems {
        println!("INCORRECT: {p}");
    }

    for (i, c) in first.cells.iter().enumerate() {
        println!(
            "cell {i:>3} {:<34} {} digest {}",
            c.label,
            if c.ok { "ok    " } else { "FAILED" },
            c.digest
        );
    }
    let mut all_cells = 0xcbf2_9ce4_8422_2325u64;
    for c in &first.cells {
        for b in c.digest.bytes() {
            all_cells = (all_cells ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    println!("digest of all cells: {all_cells:016x}");

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !o.trace {
        for (name, unit) in END_TO_END {
            let value = if SIMULATED.contains(&name) {
                first.values.get(name).copied()
            } else if name == "norm_wall_s" {
                let each = plain.iter().map(|r| get(&r.values, name));
                Some(each.fold(f64::INFINITY, f64::min))
            } else {
                Some(median_of(&plain, |v| get(v, name)))
            };
            let value = value.ok_or_else(|| format!("no value for {name}"))?;
            println!("{name:<20} {value:>16.6} {unit}");
            metrics.push((name, value, unit));
        }
        println!(
            "failed_frac          {:>16.6} ({failed} of {attempted} cells)",
            failed as f64 / attempted as f64
        );
        // Printed only: across seeds these spread too widely to gate on
        // (see perfbench/README.md).
        println!(
            "sim_minsts_per_s     {:>16.6} Minst/s (median)",
            median_of(&plain, |v| get(v, "sim_minsts_per_s"))
        );
        println!(
            "aborts_per_commit    {:>16.6} (simulated, all cells)",
            get(&first.values, "aborts_per_commit")
        );
        if let Some(n) = first.values.get("latency_samples") {
            let slo = get(&first.values, "slo_max_load");
            println!(
                "p50_cycles           {:>16} (simulated; Staggered at interarrival {} cycles/core)\n\
                 p99_cycles           {:>16} ({} of {n} requests beyond it)\n\
                 slo_max_load         {slo:>16.6} req/Mcyc/core (highest load with Staggered p99 <= {} cycles)",
                get(&first.values, "p50_cycles"),
                suite::SERVE_REPORT_LOAD,
                get(&first.values, "p99_cycles"),
                n - (n * 0.99).ceil(),
                suite::SLO_CYCLES
            );
        }
        println!(
            "wall_s               {:>16.6} s (median; unscaled, calibration points left out)\n\
             setup_raw_s          {:>16.6} s (median; unscaled)\n\
             cal_loop_s           {:>16.6} s (median; the calibration loop, {} s on the reference host)",
            median_of(&plain, |v| get(v, "wall_s")),
            median_of(&plain, |v| get(v, "setup_raw_s")),
            median_of(&plain, |v| get(v, "cal_loop_s")),
            calib::REF_S
        );
        for k in ["user_s", "sys_s", "run_s"] {
            println!(
                "{k:<20} {:>16.6} s (median)",
                median_of(&plain, |v| get(v, k))
            );
        }
        for k in ["wall_s", "norm_wall_s"] {
            let each: Vec<String> = plain
                .iter()
                .map(|r| format!("{:.3}", get(&r.values, k)))
                .collect();
            println!("{k} of each run: {}", each.join(" "));
        }
        if o.workload == "paper-suite-16" {
            let s = get(&first.values, "staggered_speedup");
            let a = get(&first.values, "abort_reduction");
            println!(
                "paper reference: staggered_speedup {s:.4}x vs {PAPER_SPEEDUP}x (rel. err {:+.1}%); \
                 abort reduction {a:.4} vs {PAPER_ABORT_REDUCTION} (rel. err {:+.1}%); \
                 the model has no other validation",
                (s / PAPER_SPEEDUP - 1.0) * 100.0,
                (a / PAPER_ABORT_REDUCTION - 1.0) * 100.0
            );
        }
    } else {
        for (name, unit) in PER_LAYER {
            let value = if name == "bench.trace_overhead_s" {
                median_of(&traced, |v| get(v, "bench.traced_wall_s"))
                    - median_of(&plain, |v| get(v, "wall_s"))
            } else {
                median_of(&traced, |v| get(v, name))
            };
            println!("{name:<34} {value:>16.6} {unit}");
            metrics.push((name, value, unit));
        }
        println!("spans written to {}", spans_dir().display());
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        body.join(", ")
    );
    Ok(())
}

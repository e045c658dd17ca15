//! Shared scaffolding for the exhibit binaries.
//!
//! Every exhibit used to open the same way by copy-paste: build a
//! [`Report`], print a banner with the `--quick` suffix, print a column
//! header and its rule, resolve workload names against the registry (each
//! spelling its own "unknown workload" exit), compile the set through the
//! job pool, and — for the event-recording exhibits — hand-roll a
//! `MachineConfig` that re-applied the common `--scheduler` /
//! `--host-threads` pins. The copies drifted: `profile` forgot
//! `--host-threads`, and none of them picked up new common knobs (the
//! `--fallback` policy pin) without editing five binaries.
//!
//! [`Exhibit`] owns that scaffolding once. A new exhibit binary is the
//! interesting part only: construct, `banner`, `header`, resolve/prepare,
//! run through [`Exhibit::report`]'s helpers, `finish`.

use crate::{CommonOpts, Report};
use htm_sim::MachineConfig;
use workloads::{BenchResult, PreparedWorkload, Workload};

/// One exhibit binary's common plumbing: its [`Report`], the parsed
/// common flags, and the banner/header/workload-resolution helpers the
/// bins used to duplicate.
pub struct Exhibit {
    name: String,
    opts: CommonOpts,
    report: Report,
}

impl Exhibit {
    /// `name` is the exhibit stem: the `--json` dump goes to
    /// `results/BENCH_<name>.json`, and resolution errors print as
    /// `<name>: ...`.
    pub fn new(name: &str, opts: &CommonOpts) -> Exhibit {
        Exhibit {
            name: name.to_string(),
            opts: opts.clone(),
            report: Report::new(name, opts),
        }
    }

    /// The common flags this exhibit was invoked with.
    pub fn opts(&self) -> &CommonOpts {
        &self.opts
    }

    /// The exhibit's report; all run/record helpers live there.
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// Print the exhibit banner, appending " (quick)" under `--quick`.
    pub fn banner(&self, text: &str) {
        println!("{text}{}", if self.opts.quick { " (quick)" } else { "" });
    }

    /// Print a column header followed by its underline rule.
    pub fn header(&self, header: &str) {
        println!("{header}");
        crate::rule(header);
    }

    /// Resolve one workload by name at the exhibit's `--quick` scale, or
    /// exit(2) listing the registry.
    pub fn workload(&self, name: &str) -> Box<dyn Workload> {
        workloads::workload_by_name(name, self.opts.quick).unwrap_or_else(|| {
            eprintln!("{}: unknown workload '{name}'", self.name);
            eprintln!("available: {}", workloads::workload_names().join(" "));
            std::process::exit(2);
        })
    }

    /// Resolve a list of workload names (see [`Exhibit::workload`]).
    pub fn workload_list(&self, names: &[&str]) -> Vec<Box<dyn Workload>> {
        names.iter().map(|n| self.workload(n)).collect()
    }

    /// The full built-in benchmark set at the exhibit's scale.
    pub fn workload_set(&self) -> Vec<Box<dyn Workload>> {
        crate::workload_set(self.opts.quick)
    }

    /// Compile + flatten workloads through the report's job pool, each
    /// exactly once; the result is index-aligned with `set`.
    pub fn prepare<'w>(&self, set: &'w [Box<dyn Workload>]) -> Vec<PreparedWorkload<'w>> {
        self.report.pool(
            set.iter()
                .map(|w| move || PreparedWorkload::new(w.as_ref()))
                .collect(),
        )
    }

    /// An event-recording machine configuration at `cores`, honoring the
    /// common `--scheduler`, `--host-threads` and `--fallback` pins — for
    /// exhibits that drive `run_cfg` themselves because they consume the
    /// observability event stream.
    pub fn recording_machine(&self, cores: usize) -> MachineConfig {
        let mut cfg = MachineConfig::cores(cores).record_events();
        if let Some(s) = self.opts.scheduler {
            cfg = cfg.scheduler(s);
        }
        cfg.host_threads = self.opts.host_threads;
        if let Some(fb) = self.opts.fallback {
            cfg = cfg.fallback(fb);
        }
        cfg
    }

    /// Exit with status 1 when any of `runs` lost observability events to
    /// the per-core ring bound: everything derived from a truncated stream
    /// (latency percentiles, attribution) would be silently wrong.
    pub fn require_complete_events(&self, runs: &[BenchResult]) {
        if let Some(msg) = dropped_events(runs) {
            eprintln!("{}: {msg}", self.name);
            std::process::exit(1);
        }
    }

    /// Print the report's end-of-exhibit summary (and the `--json` dump).
    pub fn finish(&self) {
        self.report.finish();
    }
}

/// Which of `runs` lost observability events to the per-core ring bound,
/// as one message; `None` when every event stream is complete.
pub fn dropped_events(runs: &[BenchResult]) -> Option<String> {
    let lossy: Vec<String> = runs
        .iter()
        .filter(|r| r.out.events_dropped > 0)
        .map(|r| {
            format!(
                "{} [{} x{}] dropped {}",
                r.name,
                r.mode.name(),
                r.n_threads,
                r.out.events_dropped
            )
        })
        .collect();
    (!lossy.is_empty()).then(|| {
        format!(
            "observability events were dropped, so derived latencies would be incomplete: {}",
            lossy.join("; ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stagger_core::{Mode, RuntimeConfig};

    #[test]
    fn a_tiny_event_ring_is_reported_as_dropped_events() {
        let w = workloads::workload_by_name("serve-flash-i8000", true).expect("registered");
        let p = PreparedWorkload::new(w.as_ref());
        let run = |capacity: usize| {
            let mut cfg = MachineConfig::cores(2).small().record_events();
            cfg.event_ring_capacity = capacity;
            p.run_cfg(1, cfg, RuntimeConfig::with_mode(Mode::Staggered))
        };
        let complete = run(1 << 20);
        assert_eq!(complete.out.events_dropped, 0);
        assert!(dropped_events(std::slice::from_ref(&complete)).is_none());
        let cut = run(4);
        let kept: usize = cut.events.iter().map(|s| s.len()).sum();
        assert_eq!(kept, 2 * 4, "each core keeps its newest 4 events");
        let total: usize = complete.events.iter().map(|s| s.len()).sum();
        assert_eq!(cut.out.events_dropped, (total - kept) as u64);
        let msg = dropped_events(&[complete, cut]).expect("a truncated run is reported");
        assert!(
            msg.contains("serve-flash-i8000 [Staggered x2] dropped"),
            "{msg}"
        );
    }
}

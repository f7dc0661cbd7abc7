//! The repository benchmark.
//!
//! Three workloads drive the crates through their public APIs from one
//! process: `droplet` (single-rank PM-octree droplet ejection, crashed and
//! restored after its last step), `service` (the Zipf-skewed multi-tenant
//! `StateService` mix) and `cluster` (one 8-rank strong-scaling point).
//! The untraced run times the program's own entry points
//! (`Simulation::step`, `StateService::submit`, `ClusterSim::step`). The
//! traced run times the benchmark's own calls into each layer on both
//! clocks — the wall clock ([`std::time::Instant`]) and the emulator's
//! virtual clock (`elapsed_ns()` / `arena.clock`) — and reads the counters
//! the crates already keep at the same call boundaries. It adds no tracing
//! inside the program; every other traced repetition switches on the
//! program's existing `obsv` tracer ([`Run`]).
//!
//! Every workload reports the same end-to-end metrics ([`E2E`]); a traced
//! run reports every per-layer metric ([`LAYER`]). A layer a workload does
//! not exercise reports zero next to a zero base count (`*.calls`,
//! `pm_rt.submits`, `cluster.steps`, ...), while a zero base on a layer the
//! workload does exercise fails the run instead of printing a 0/0 ratio.

pub mod cluster;
pub mod droplet;
pub mod service;
pub mod stats;

use std::collections::BTreeMap;
use std::time::Instant;

/// One metric of the benchmark's fixed vocabulary.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Repeats bit for bit for the same seed and any worker count: a
    /// virtual-clock time, a count, or a ratio of those.
    pub exact: bool,
}

const fn wall(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, exact: false }
}

const fn exact(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, exact: true }
}

/// End-to-end metrics, reported by every workload from an untraced run.
/// A "work item" is one leaf advanced by one time step (`droplet`,
/// `cluster`) or one service command (`service`); a "step" is a time step
/// or, for `service`, one batch commit. `work_per_s` and the durable
/// latencies are taken from the fastest time of each step, batch or
/// command over the run's repetitions (see [`drive`]); `peak_rss_mb` is
/// the process's peak after [`Opts::min_reps`] repetitions; `write_amp`
/// divides the bytes committed to the media by the application bytes made
/// durable (leaf payloads, accepted put payloads).
pub const E2E: &[Def] = &[
    wall("setup_s", "s"),
    wall("peak_rss_mb", "MB"),
    wall("work_per_s", "1/s"),
    exact("virt_work_per_s", "1/s"),
    exact("media_bytes_per_step", "B"),
    exact("write_amp", "ratio"),
    wall("durable_p50_us", "us"),
    wall("durable_p99_us", "us"),
];

/// Per-layer metrics, reported by every workload from a traced run.
pub const LAYER: &[Def] = &[
    exact("amr.calls", "count"),
    wall("amr.adapt_ms", "ms"),
    exact("amr.adapt_virt_ms", "ms"),
    wall("amr.adapt_wall_per_virt", "ratio"),
    exact("amr.refined", "count"),
    exact("amr.coarsened", "count"),
    wall("amr.balance_ms", "ms"),
    exact("amr.balance_virt_ms", "ms"),
    wall("amr.balance_wall_per_virt", "ratio"),
    exact("amr.balance_refines", "count"),
    exact("solver.calls", "count"),
    wall("solver.sweep_ms", "ms"),
    exact("solver.sweep_virt_ms", "ms"),
    wall("solver.sweep_wall_per_virt", "ratio"),
    exact("pm_octree.persists", "count"),
    wall("pm_octree.persist_ms", "ms"),
    exact("pm_octree.persist_virt_ms", "ms"),
    wall("pm_octree.persist_wall_per_virt", "ratio"),
    exact("persist.merge_virt_ms", "ms"),
    exact("persist.flush_virt_ms", "ms"),
    exact("gc.sweep_virt_ms", "ms"),
    exact("replica.ship_virt_ms", "ms"),
    exact("transform.virt_ms", "ms"),
    exact("pm_octree.merges", "count"),
    exact("pm_octree.evictions", "count"),
    exact("pm_octree.transforms", "count"),
    exact("pm_octree.overlap_ratio", "ratio"),
    exact("pm_octree.restores", "count"),
    wall("pm_octree.restore_ms", "ms"),
    exact("pm_octree.restore_virt_ms", "ms"),
    wall("pm_octree.verify_ms", "ms"),
    wall("bench.span_coverage", "ratio"),
    exact("nvbm.read_lines", "count"),
    exact("nvbm.write_lines", "count"),
    exact("nvbm.write_fraction", "ratio"),
    exact("nvbm.dirty_samples", "count"),
    exact("nvbm.dirty_lines_max", "count"),
    exact("trav.root_descents", "count"),
    exact("trav.index_hits", "count"),
    exact("trav.index_hit_ratio", "ratio"),
    exact("trav.index_rebuilds", "count"),
    exact("wear.bytes_committed", "B"),
    exact("wear.flatness", "ratio"),
    exact("wear.relocations", "count"),
    exact("wear.relocated_share", "ratio"),
    exact("pm_rt.submits", "count"),
    exact("pm_rt.flushes", "count"),
    wall("pm_rt.stage_us", "us"),
    wall("pm_rt.flush_p50_ms", "ms"),
    wall("pm_rt.flush_p99_ms", "ms"),
    exact("pm_rt.flush_virt_p50_us", "us"),
    exact("pm_rt.flush_virt_p99_us", "us"),
    wall("pm_rt.flush_wall_per_virt", "ratio"),
    wall("pm_rt.snapshot_us", "us"),
    wall("pm_rt.collect_us", "us"),
    exact("pm_rt.commits", "count"),
    exact("pm_rt.bytes_per_commit", "B"),
    exact("pm_rt.quota_rejections", "count"),
    exact("cluster.steps", "count"),
    wall("cluster.step_ms", "ms"),
    exact("cluster.refine_virt_ms", "ms"),
    exact("cluster.balance_virt_ms", "ms"),
    exact("cluster.partition_virt_ms", "ms"),
    exact("cluster.solve_virt_ms", "ms"),
    exact("cluster.persist_virt_ms", "ms"),
    exact("cluster.migrated", "count"),
    wall("rayon.speedup", "ratio"),
    wall("obsv.overhead", "ms"),
];

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: &[&str] = &["droplet", "service", "cluster"];

/// How one invocation runs.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Wall seconds to keep repeating the workload for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced run
    /// (end-to-end metrics).
    pub trace: bool,
    /// Smoke-sized inputs (self-tests) instead of the benchmark's sizes.
    pub smoke: bool,
    /// Pool workers for the measured repetitions.
    pub workers: usize,
}

impl Opts {
    /// Fewest repetitions, however long they take.
    pub fn min_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Extra set-ups an untraced run times before its repetitions.
    pub fn extra_setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            8
        }
    }

    /// Keep repeating while fewer than [`Opts::min_reps`] ran or `seconds`
    /// have not yet passed since `start`.
    pub fn more(&self, done: usize, start: Instant) -> bool {
        done < self.min_reps() || start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Pool workers the benchmark uses by default: one per core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Outcome of one workload invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Of those, operations whose output check failed.
    pub failed: u64,
    /// One line per failed check (the first few).
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The input size, for people reading the output.
    pub size: String,
    /// Figures printed for people under their workload-specific names
    /// (`cell_steps_per_s`, `recover_s`, ...), with units; not part of the
    /// result line.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Fingerprint of the workload's final state (the droplet mesh, the
    /// service contents, the cluster element series).
    pub fingerprint: u64,
}

impl Report {
    /// Record an operation and its check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Set a metric.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }

    /// Set every per-layer metric not set yet to zero: the layer was not
    /// driven by this workload, as its zero base count shows.
    pub fn zero_unused_layers(&mut self) {
        for d in LAYER {
            self.metrics.entry(d.name).or_insert(0.0);
        }
    }
}

/// How one repetition drives the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Run {
    /// End to end: the program's own entry points, `obsv` tracer off.
    Plain,
    /// Per layer: the benchmark's spans around each layer call, tracer
    /// off. Wall spans and counters come from these repetitions.
    Spans,
    /// Per layer, as [`Run::Spans`] with the program's `obsv` tracer on:
    /// the source of the journal's virtual self-times and of
    /// `obsv.overhead`.
    Journal,
}

/// What [`drive`] reads from every repetition.
pub trait Repetition {
    /// Wall seconds of the repetition's set-up.
    fn setup_s(&self) -> f64;
    /// Wall seconds of the measured loop (the steps, the command window).
    fn loop_s(&self) -> f64;
    /// Fingerprint of the final state (the droplet mesh, the service
    /// contents, the cluster element series).
    fn fingerprint(&self) -> u64;
    /// Fold `other`, a repetition of the same work, into `self`: each
    /// timed unit (a step, a batch, a command's durable latency, the
    /// restore) keeps the faster of its two wall times.
    fn keep_fastest(&mut self, other: Self);
}

/// One workload, as [`drive`] runs it.
pub trait Workload {
    /// One repetition's measurements.
    type Rep: Repetition;
    /// What a set-up builds; dropped outside the timed span.
    type Built;
    /// Name, as `--workload` takes it.
    const NAME: &'static str;
    /// One set-up on its own, for the extra `setup_s` samples.
    fn set_up(&self) -> Self::Built;
    /// One repetition: set up, run, check every output into `report`.
    ///
    /// # Errors
    ///
    /// A measurement that cannot be reported honestly.
    fn rep(&self, run: Run, report: &mut Report) -> Result<Self::Rep, String>;
    /// The input size, for people reading the output.
    fn describe(&self, first: &Self::Rep) -> String;
    /// End-to-end metrics (all but `setup_s` and `peak_rss_mb`) from the
    /// [`Run::Plain`] repetitions folded by [`Repetition::keep_fastest`].
    ///
    /// # Errors
    ///
    /// A zero base (see [`stats::ratio`]).
    fn end_to_end(&self, fastest: &Self::Rep, r: &mut Report) -> Result<(), String>;
    /// Per-layer metrics (all but `obsv.overhead` and the layers the
    /// workload does not drive) from interleaved [`Run::Spans`] and
    /// [`Run::Journal`] repetitions.
    ///
    /// # Errors
    ///
    /// A zero base on a layer the workload drives.
    fn layers(
        &self,
        base: &[Self::Rep],
        traced: &[Self::Rep],
        r: &mut Report,
    ) -> Result<(), String>;
}

/// Repeat `w` for the run's time and aggregate its repetitions.
///
/// An untraced run times [`Opts::extra_setups`] bare set-ups, then repeats
/// [`Run::Plain`] and reports from the fastest time of each step, batch or
/// command over the repetitions; a traced run alternates [`Run::Spans`] and
/// [`Run::Journal`], so a slow spell of the machine lands on both.
///
/// # Errors
///
/// A measurement that cannot be reported honestly (see [`run`]).
pub fn drive<W: Workload>(w: &W, opts: &Opts, mut report: Report) -> Result<Report, String> {
    rayon::set_num_threads(opts.workers);
    let start = Instant::now();
    if opts.trace {
        let (mut base, mut traced) = (Vec::new(), Vec::new());
        while opts.more(traced.len(), start) {
            base.push(w.rep(Run::Spans, &mut report)?);
            traced.push(w.rep(Run::Journal, &mut report)?);
        }
        w.layers(&base, &traced, &mut report)?;
        let loops = |reps: &[W::Rep]| reps.iter().map(Repetition::loop_s).collect::<Vec<_>>();
        report.set("obsv.overhead", stats::overhead_ms(&loops(&base), &loops(&traced)));
        report.zero_unused_layers();
        report.size = w.describe(&base[0]);
        report.fingerprint = base[0].fingerprint();
    } else {
        let mut setups = stats::time_setups(opts.extra_setups(), || w.set_up());
        // Other tenants of the host slow its caches and memory down in
        // spells of a second to tens of seconds, and contention only ever
        // adds time. So every step, batch or command is timed in every
        // repetition and reported at its fastest, and `setup_s` is the
        // lower quartile of the set-ups; every repetition's outputs were
        // checked all the same.
        let mut fastest: Option<W::Rep> = None;
        let (mut reps, mut peak_rss_mb) = (0, 0.0);
        while opts.more(reps, start) {
            let r = w.rep(Run::Plain, &mut report)?;
            eprintln!(
                "{} rep {reps}: setup {:.3} s, measured {:.3} s, peak RSS {:.1} MB",
                W::NAME,
                r.setup_s(),
                r.loop_s(),
                stats::peak_rss_mb()?
            );
            setups.push(r.setup_s());
            reps += 1;
            // The heap's high-water mark creeps up with every repetition,
            // and a slower machine runs fewer: the peak is read after a
            // fixed number of them.
            if reps == opts.min_reps() {
                peak_rss_mb = stats::peak_rss_mb()?;
            }
            match &mut fastest {
                None => fastest = Some(r),
                Some(f) => {
                    let (a, b) = (f.fingerprint(), r.fingerprint());
                    report.check(a == b, || {
                        format!("{} rep {reps}: final state {b:#x}, first was {a:#x}", W::NAME)
                    });
                    f.keep_fastest(r);
                }
            }
        }
        let fastest = fastest.expect("at least one repetition");
        w.end_to_end(&fastest, &mut report)?;
        report.set("setup_s", stats::percentile(&setups, 0.25));
        report.set("peak_rss_mb", peak_rss_mb);
        report.size = w.describe(&fastest);
        report.fingerprint = fastest.fingerprint();
    }
    Ok(report)
}

/// Run `workload`.
///
/// # Errors
///
/// An unknown workload, or a measurement that cannot be reported
/// honestly (a 0/0 ratio or an all-zero percentile pair on a layer the
/// workload drives).
pub fn run(workload: &str, opts: &Opts) -> Result<Report, String> {
    match workload {
        "droplet" => droplet::run(opts),
        "service" => service::run(opts),
        "cluster" => cluster::run(opts),
        other => Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    }
}

/// The metric set a run must print.
pub fn expected(trace: bool) -> &'static [Def] {
    if trace {
        LAYER
    } else {
        E2E
    }
}

/// Render the result line: exactly the metrics of `defs`, each finite.
///
/// # Errors
///
/// A metric of `defs` missing from the report, an extra one, or a
/// non-finite value.
pub fn result_json(r: &Report, defs: &[Def]) -> Result<String, String> {
    if r.metrics.len() != defs.len() {
        let extra: Vec<_> =
            r.metrics.keys().filter(|k| !defs.iter().any(|d| d.name == **k)).collect();
        return Err(format!("report has metrics outside the benchmark's list: {extra:?}"));
    }
    let mut parts = Vec::with_capacity(defs.len());
    for d in defs {
        let v = *r.metrics.get(d.name).ok_or_else(|| format!("metric {} not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", d.name));
        }
        parts.push(format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        parts.join(", ")
    ))
}

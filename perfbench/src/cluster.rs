//! `cluster`: one strong-scaling point — eight PM-octree ranks on 48 MiB
//! devices stepped bulk-synchronously with `ClusterSim::step`, which runs
//! the ranks on the worker pool and adds partition and global balance.
//!
//! Every run also steps the same input once on a single worker: the
//! element series must not depend on the worker count. The seed shifts
//! the start time by up to a tenth of a step.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use pmoctree_cluster::{ClusterSim, Scheme};
use pmoctree_solver::SimConfig;

use crate::stats::{self, median, Counters};
use crate::{Opts, Repetition, Report, Run};

/// Problem size.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Ranks.
    pub procs: usize,
    /// Finest refinement level.
    pub max_level: u8,
    /// Timed steps per repetition.
    pub steps: usize,
    /// NVBM device bytes per rank.
    pub arena_bytes: usize,
}

/// Benchmark size: the fig8 strong-scaling point at P = 8 (about 23k
/// elements, roughly 3k per rank).
pub const FULL: Size = Size { procs: 8, max_level: 7, steps: 10, arena_bytes: 48 << 20 };

/// Self-test size.
pub const SMOKE: Size = Size { procs: 4, max_level: 5, steps: 3, arena_bytes: 8 << 20 };

/// Simulation config for `seed`.
fn config(size: &Size, seed: u64) -> SimConfig {
    let base = SimConfig::default();
    let shift = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64;
    SimConfig {
        steps: size.steps,
        max_level: size.max_level,
        base_level: 2,
        t0: base.t0 + 0.1 * base.dt * shift,
        ..base
    }
}

/// One repetition: build the cluster, step it.
#[derive(Debug, Default)]
struct Rep {
    setup_s: f64,
    step_wall: Vec<f64>,
    elements: Vec<usize>,
    migrated: Vec<usize>,
    /// Virtual seconds of all steps (summed `ClusterStep::total_s`).
    virt_s: f64,
    /// Virtual seconds per phase: refine, balance, partition, solve,
    /// persist.
    phase_s: [f64; 5],
    counters: Counters,
    flatness: f64,
}

fn counters(c: &ClusterSim) -> Counters {
    c.ranks
        .iter()
        .map(|r| Counters::of(&r.backend.mem_stats()))
        .fold(Counters::default(), |a, b| a + b)
}

fn rep(size: &Size, seed: u64, workers: usize, traced: bool) -> Rep {
    rayon::set_num_threads(workers);
    let mut r = Rep::default();
    let t = Instant::now();
    let mut c =
        ClusterSim::new(Scheme::pm_default(), size.procs, config(size, seed), size.arena_bytes);
    r.setup_s = t.elapsed().as_secs_f64();
    if traced {
        c.enable_tracing();
    }
    let c0 = counters(&c);
    for s in 0..size.steps {
        let w = Instant::now();
        let st = c.step(s);
        r.step_wall.push(w.elapsed().as_secs_f64());
        r.elements.push(st.elements);
        r.migrated.push(st.migrated);
        r.virt_s += st.total_s();
        let phases = [st.refine_s, st.balance_s, st.partition_s, st.solve_s, st.persist_s];
        for (acc, p) in r.phase_s.iter_mut().zip(phases) {
            *acc += p;
        }
    }
    r.counters = counters(&c) - c0;
    r.flatness = c.ranks.iter().map(|r| r.backend.mem_stats().wear_flatness()).fold(0.0, f64::max);
    r
}

impl Repetition for Rep {
    fn setup_s(&self) -> f64 {
        self.setup_s
    }

    fn loop_s(&self) -> f64 {
        self.step_wall.iter().sum()
    }

    fn fingerprint(&self) -> u64 {
        let mut h = std::hash::DefaultHasher::new();
        (&self.elements, &self.migrated).hash(&mut h);
        h.finish()
    }

    fn keep_fastest(&mut self, other: Self) {
        stats::keep_faster(&mut self.step_wall, &other.step_wall);
    }
}

/// Check `got` against the single-worker reference, one check per step.
fn check(reference: &Rep, got: &Rep, workers: usize, report: &mut Report) {
    for (s, (a, b)) in reference.elements.iter().zip(&got.elements).enumerate() {
        report.check(a == b, || {
            format!("cluster step {s}: {b} elements at {workers} workers, {a} at 1")
        });
    }
}

/// The workload at one size and seed, with its single-worker reference.
struct Cluster {
    size: Size,
    seed: u64,
    workers: usize,
    single: Rep,
}

impl crate::Workload for Cluster {
    type Rep = Rep;
    type Built = ClusterSim;
    const NAME: &'static str = "cluster";

    fn set_up(&self) -> ClusterSim {
        let size = &self.size;
        ClusterSim::new(Scheme::pm_default(), size.procs, config(size, self.seed), size.arena_bytes)
    }

    fn rep(&self, run: Run, report: &mut Report) -> Result<Rep, String> {
        let t = rep(&self.size, self.seed, self.workers, run == Run::Journal);
        check(&self.single, &t, self.workers, report);
        Ok(t)
    }

    fn describe(&self, _first: &Rep) -> String {
        let size = &self.size;
        format!(
            "{} ranks, {} steps to level {}, {} elements at the last, {} MiB per rank",
            size.procs,
            size.steps,
            size.max_level,
            self.single.elements.last().copied().unwrap_or(0),
            size.arena_bytes >> 20
        )
    }

    fn end_to_end(&self, p: &Rep, r: &mut Report) -> Result<(), String> {
        let stepped = stats::Stepped {
            wall: &p.step_wall,
            leaves: &p.elements,
            virt_s: p.virt_s,
            committed: p.counters.committed,
        };
        stats::stepped_end_to_end(&stepped, r)?;
        r.named = vec![
            ("cell_steps_per_s", r.metrics["work_per_s"], "elements/s"),
            ("virt_exec_s", p.virt_s, "virtual s"),
        ];
        Ok(())
    }

    /// Everything from the untraced `base`: the workload reads nothing from
    /// the `obsv` journal.
    fn layers(&self, base: &[Rep], _traced: &[Rep], r: &mut Report) -> Result<(), String> {
        let first = &base[0];
        let walls: Vec<f64> = base.iter().flat_map(|p| p.step_wall.iter().copied()).collect();
        r.set("cluster.steps", first.step_wall.len() as f64);
        r.set("cluster.step_ms", median(&walls) * 1e3);
        for (name, s) in [
            "cluster.refine_virt_ms",
            "cluster.balance_virt_ms",
            "cluster.partition_virt_ms",
            "cluster.solve_virt_ms",
            "cluster.persist_virt_ms",
        ]
        .into_iter()
        .zip(first.phase_s)
        {
            r.set(name, s * 1e3);
        }
        r.set("cluster.migrated", first.migrated.iter().sum::<usize>() as f64);
        let single = median(&self.single.step_wall);
        r.set("rayon.speedup", stats::ratio(single, median(&walls), true, "rayon")?);
        first.counters.report(r, true)?;
        r.set("wear.flatness", first.flatness);
        Ok(())
    }
}

/// Run the workload.
///
/// # Errors
///
/// A measurement that cannot be reported honestly (see [`crate::run`]).
pub fn run(opts: &Opts) -> Result<Report, String> {
    let size = if opts.smoke { SMOKE } else { FULL };
    let single = rep(&size, opts.seed, 1, false);
    let cluster = Cluster { size, seed: opts.seed, workers: opts.workers, single };
    crate::drive(&cluster, opts, Report::default())
}

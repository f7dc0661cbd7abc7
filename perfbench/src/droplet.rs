//! `droplet`: single-rank PM-octree droplet ejection with the paper's full
//! mechanism set (dynamic transformation, feature sampling, replicas,
//! flight recorder), crashed with lost dirty lines after its last step and
//! restored.
//!
//! The end-to-end run times `Simulation::step` itself. The traced run
//! drives the same step call by call — `adapt`, the active-band
//! `for_each_leaf` + `balance_subset`, the solver sweeps, `end_of_step` —
//! in the order `Simulation::step` uses, so each layer gets its own wall
//! and virtual span. The seed moves the nozzle axis.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use pm_octree::{check_invariants, PmConfig, PmOctree};
use pmoctree_amr::{adapt, balance_subset, Cell, OctreeBackend, PmBackend};
use pmoctree_nvbm::{CrashMode, DeviceModel, NvbmArena, Tracer};
use pmoctree_solver::{
    advect, estimate_work, refinement_feature, relax_pressure, solver_feature, DropletEjection,
    DropletParams, InterfaceCriterion, SimConfig, Simulation,
};

use crate::stats::{self, median, Counters, Dirty, Phase};
use crate::{Opts, Repetition, Report, Run};

/// Problem size.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Finest refinement level.
    pub max_level: u8,
    /// Timed steps per repetition.
    pub steps: usize,
    /// NVBM device bytes.
    pub arena_bytes: usize,
}

/// Benchmark size: the experiments' single-rank droplet scale (about 29k
/// leaves on a 48 MiB device).
pub const FULL: Size = Size { max_level: 7, steps: 20, arena_bytes: 48 << 20 };

/// Self-test size.
pub const SMOKE: Size = Size { max_level: 5, steps: 4, arena_bytes: 16 << 20 };

/// Nozzle axis for `seed`: within one finest cell of the domain centre,
/// so every seed meshes a different but equally sized jet.
pub fn axis(seed: u64) -> [f64; 2] {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };
    [0.49 + 0.02 * next(), 0.49 + 0.02 * next()]
}

/// One repetition: set up, run the timed steps, crash, restore, verify.
#[derive(Debug, Default)]
struct Rep {
    setup_s: f64,
    /// Wall seconds of each step, benchmark bookkeeping included.
    step_wall: Vec<f64>,
    /// Leaves at the end of each step.
    step_leaves: Vec<usize>,
    /// Virtual ns of the timed steps, as the program accounts them.
    virt_ns: u64,
    adapt: Phase,
    balance: Phase,
    sweep: Phase,
    persist: Phase,
    refined: u64,
    coarsened: u64,
    balance_refines: u64,
    merges: u64,
    evictions: u64,
    transforms: u64,
    overlap_sum: f64,
    counters: Counters,
    dirty: Dirty,
    flatness: f64,
    restore: Phase,
    verify_s: f64,
    /// Virtual self time per `obsv` span name (traced repetitions).
    self_ns: std::collections::BTreeMap<&'static str, u64>,
    fingerprint: u64,
}

impl Rep {
    fn coverage(&self) -> f64 {
        let spans =
            self.adapt.wall_s + self.balance.wall_s + self.sweep.wall_s + self.persist.wall_s;
        spans / self.loop_s()
    }
}

impl Repetition for Rep {
    fn setup_s(&self) -> f64 {
        self.setup_s
    }

    fn loop_s(&self) -> f64 {
        self.step_wall.iter().sum()
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn keep_fastest(&mut self, other: Self) {
        stats::keep_faster(&mut self.step_wall, &other.step_wall);
        self.restore.wall_s = self.restore.wall_s.min(other.restore.wall_s);
    }
}

fn simulation(size: &Size, seed: u64) -> Simulation {
    let cfg = SimConfig {
        steps: size.steps,
        max_level: size.max_level,
        base_level: 2,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(cfg);
    sim.interface =
        DropletEjection::new(DropletParams { axis: axis(seed), ..DropletParams::default() });
    sim
}

fn pm_config() -> PmConfig {
    PmConfig::builder().dynamic_transform(true).replicas(true).build().expect("valid config")
}

/// A PM-octree on a fresh device with the droplet's feature functions.
fn backend(size: &Size, sim: &Simulation) -> PmBackend {
    let arena = NvbmArena::new(size.arena_bytes, DeviceModel::default());
    let mut b = PmBackend::new(PmOctree::create(arena, pm_config()));
    b.tree.add_feature(refinement_feature(sim.interface, sim.time.clone(), sim.cfg.band_cells));
    b.tree.add_feature(solver_feature());
    b
}

fn rep(size: &Size, seed: u64, run: Run, report: &mut Report) -> Result<Rep, String> {
    let mut r = Rep::default();
    let sim = simulation(size, seed);
    let cfg = sim.cfg;

    let t = Instant::now();
    let mut b = backend(size, &sim);
    if run == Run::Journal {
        b.set_tracer(Tracer::enabled(0));
    }
    sim.construct(&mut b);
    r.setup_s = t.elapsed().as_secs_f64();
    b.tracer().clear();

    let c0 = Counters::of(&b.tree.store.arena.stats);
    let e0 = b.tree.events.clone();
    for s in 0..cfg.steps {
        let outer = Instant::now();
        let persists = b.tree.events.persists;
        let leaves = if run == Run::Plain {
            let st = sim.step(&mut b, s);
            r.virt_ns += st.total_ns();
            st.leaves
        } else {
            step_by_layer(&sim, &mut b, s, &mut r)
        };
        r.step_wall.push(outer.elapsed().as_secs_f64());
        r.step_leaves.push(leaves);
        r.overlap_sum += b.tree.events.overlap_ratio();
        report.check(leaves > 0 && b.tree.events.persists == persists + 1, || {
            format!("droplet step {s}: {leaves} leaves, persist did not complete")
        });
    }
    r.counters = Counters::of(&b.tree.store.arena.stats) - c0;
    r.flatness = b.tree.store.arena.stats.wear_flatness();
    let e1 = &b.tree.events;
    (r.merges, r.evictions, r.transforms) =
        (e1.merges - e0.merges, e1.evictions - e0.evictions, e1.transforms - e0.transforms);
    if run == Run::Journal {
        r.self_ns = stats::self_times(&b.tracer().events())?;
    }
    if run != Run::Plain {
        let coverage = r.coverage();
        report.check(coverage >= 0.95, || {
            format!("droplet: layer spans cover {:.1}% of the step wall time", coverage * 100.0)
        });
    }

    // Power cut after the last persist: the unflushed lines are lost and
    // the restored tree must be exactly the last persisted version.
    let persisted = b.leaf_count();
    let clock = b.tree.store.arena.clock.clone();
    b.tree.store.arena.crash(CrashMode::LoseDirty);
    let spare = NvbmArena::new(1 << 16, DeviceModel::default());
    let mut arena = std::mem::replace(&mut b.tree.store.arena, spare);
    drop(b);
    arena.tracer = Tracer::default();
    let restored = r.restore.time(|| clock.now_ns(), || PmOctree::restore(arena, pm_config()));
    let outcome = restored.and_then(|mut tree| {
        let t = Instant::now();
        let verified = check_invariants(&mut tree);
        r.verify_s = t.elapsed().as_secs_f64();
        verified.map(|_| tree)
    });
    match outcome {
        Ok(mut tree) => {
            let n = tree.leaf_count();
            report.check(n == persisted, || {
                format!("droplet restore: {n} leaves, {persisted} were persisted")
            });
            let mut h = std::hash::DefaultHasher::new();
            tree.leaf_keys_sorted().hash(&mut h);
            r.fingerprint = h.finish();
        }
        Err(e) => report.check(false, || format!("droplet restore: {e}")),
    }
    Ok(r)
}

/// One `Simulation::step`, driven call by call with a wall and virtual
/// span around each layer and the dirty-line count sampled between them.
/// Returns the leaves at the end of the step.
fn step_by_layer(sim: &Simulation, b: &mut PmBackend, s: usize, r: &mut Rep) -> usize {
    let cfg = sim.cfg;
    let clock = b.tree.store.arena.clock.clone();
    let now = || clock.now_ns();
    let t = cfg.t0 + cfg.dt * (s as f64 + 1.0);
    sim.time.set(t);
    let crit = InterfaceCriterion {
        interface: sim.interface,
        time: sim.time.clone(),
        band_cells: cfg.band_cells,
        max_level: cfg.max_level,
    };
    let v0 = now();
    let a = r.adapt.time(now, || adapt(b, &crit));
    r.refined += a.refined as u64;
    r.coarsened += a.coarsened as u64;
    r.dirty.sample(b.tree.store.arena.dirty_lines());
    r.balance_refines += r.balance.time(now, || {
        let mut active = Vec::new();
        b.for_each_leaf(&mut |k, d: &Cell| {
            if d[0].abs() < 8.0 * k.extent() {
                active.push(k);
            }
        });
        balance_subset(b, &active)
    }) as u64;
    r.dirty.sample(b.tree.store.arena.dirty_lines());
    r.sweep.time(now, || {
        advect(b, &sim.interface, t);
        relax_pressure(b, cfg.relax_iters);
        estimate_work(b);
    });
    r.dirty.sample(b.tree.store.arena.dirty_lines());
    r.persist.time(now, || b.end_of_step(s + 1));
    r.dirty.sample(b.tree.store.arena.dirty_lines());
    r.virt_ns += now() - v0;
    b.leaf_count()
}

/// The workload at one size and seed.
struct Droplet {
    size: Size,
    seed: u64,
}

impl crate::Workload for Droplet {
    type Rep = Rep;
    type Built = PmBackend;
    const NAME: &'static str = "droplet";

    fn set_up(&self) -> PmBackend {
        let sim = simulation(&self.size, self.seed);
        let mut b = backend(&self.size, &sim);
        sim.construct(&mut b);
        b
    }

    fn rep(&self, run: Run, report: &mut Report) -> Result<Rep, String> {
        rep(&self.size, self.seed, run, report)
    }

    fn describe(&self, first: &Rep) -> String {
        let leaves = first.step_leaves.last().copied().unwrap_or(0);
        format!(
            "{} steps to level {}, {leaves} leaves at the last, {} MiB device",
            self.size.steps,
            self.size.max_level,
            self.size.arena_bytes >> 20
        )
    }

    fn end_to_end(&self, p: &Rep, r: &mut Report) -> Result<(), String> {
        let virt_s = p.virt_ns as f64 * 1e-9;
        let stepped = stats::Stepped {
            wall: &p.step_wall,
            leaves: &p.step_leaves,
            virt_s,
            committed: p.counters.committed,
        };
        stats::stepped_end_to_end(&stepped, r)?;
        r.named = vec![
            ("cell_steps_per_s", r.metrics["work_per_s"], "leaves/s"),
            ("virt_exec_s", virt_s, "virtual s"),
            ("recover_s", p.restore.wall_s, "s"),
            ("recover_virt_ms", p.restore.virt_ms(), "virtual ms"),
        ];
        Ok(())
    }

    /// Wall spans, counters and samples from the untraced `base`; only the
    /// journal's virtual self-times from `traced`.
    fn layers(&self, base: &[Rep], traced: &[Rep], r: &mut Report) -> Result<(), String> {
        let first = &base[0];
        let med = |f: &dyn Fn(&Rep) -> f64| median(&base.iter().map(f).collect::<Vec<_>>());
        let journal = &traced[0].self_ns;
        let self_ms = |name: &str| journal.get(name).copied().unwrap_or(0) as f64 * 1e-6;
        let per_virt = |phase: fn(&Rep) -> &Phase, what| {
            let virt_s = phase(first).virt_ns as f64 * 1e-9;
            stats::ratio(med(&|p| phase(p).wall_s), virt_s, true, what)
        };
        r.set("amr.calls", first.adapt.calls as f64);
        r.set("amr.adapt_ms", med(&|p| p.adapt.wall_ms()));
        r.set("amr.adapt_virt_ms", first.adapt.virt_ms());
        r.set("amr.adapt_wall_per_virt", per_virt(|p| &p.adapt, "amr.adapt")?);
        r.set("amr.refined", first.refined as f64);
        r.set("amr.coarsened", first.coarsened as f64);
        r.set("amr.balance_ms", med(&|p| p.balance.wall_ms()));
        r.set("amr.balance_virt_ms", first.balance.virt_ms());
        r.set("amr.balance_wall_per_virt", per_virt(|p| &p.balance, "amr.balance")?);
        r.set("amr.balance_refines", first.balance_refines as f64);
        r.set("solver.calls", first.sweep.calls as f64);
        r.set("solver.sweep_ms", med(&|p| p.sweep.wall_ms()));
        r.set("solver.sweep_virt_ms", first.sweep.virt_ms());
        r.set("solver.sweep_wall_per_virt", per_virt(|p| &p.sweep, "solver.sweep")?);
        r.set("pm_octree.persists", first.persist.calls as f64);
        r.set("pm_octree.persist_ms", med(&|p| p.persist.wall_ms()));
        r.set("pm_octree.persist_virt_ms", first.persist.virt_ms());
        r.set("pm_octree.persist_wall_per_virt", per_virt(|p| &p.persist, "persist")?);
        r.set("persist.merge_virt_ms", self_ms("persist::merge"));
        r.set("persist.flush_virt_ms", self_ms("persist::flush"));
        r.set("gc.sweep_virt_ms", self_ms("gc::sweep"));
        r.set("replica.ship_virt_ms", self_ms("replica::ship"));
        r.set("transform.virt_ms", self_ms("transform"));
        r.set("pm_octree.merges", first.merges as f64);
        r.set("pm_octree.evictions", first.evictions as f64);
        r.set("pm_octree.transforms", first.transforms as f64);
        let persists = first.persist.calls as f64;
        let overlap = stats::ratio(first.overlap_sum, persists, true, "overlap")?;
        r.set("pm_octree.overlap_ratio", overlap);
        r.set("pm_octree.restores", first.restore.calls as f64);
        r.set("pm_octree.restore_ms", med(&|p| p.restore.wall_ms()));
        r.set("pm_octree.restore_virt_ms", first.restore.virt_ms());
        r.set("pm_octree.verify_ms", med(&|p| p.verify_s * 1e3));
        r.set("bench.span_coverage", med(&Rep::coverage));
        first.counters.report(r, true)?;
        first.dirty.report(r);
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
    crate::drive(&Droplet { size, seed: opts.seed }, opts, Report::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's call-by-call step does exactly the work of
    /// `Simulation::step`: same leaves, same virtual time per phase, and
    /// the end-to-end repetition, which calls `Simulation::step`, agrees.
    #[test]
    fn steps_match_simulation_step() {
        let mut report = Report::default();
        let r = rep(&SMOKE, 3, Run::Spans, &mut report).expect("measurable");
        let plain = rep(&SMOKE, 3, Run::Plain, &mut report).expect("measurable");
        assert_eq!(report.failed, 0, "{:?}", report.failures);
        let sim = simulation(&SMOKE, 3);
        let mut b = backend(&SMOKE, &sim);
        let reference = sim.run(&mut b);
        let leaves: Vec<usize> = reference.steps.iter().map(|s| s.leaves).collect();
        assert_eq!(r.step_leaves, leaves);
        assert_eq!(plain.step_leaves, leaves);
        let sum =
            |f: fn(&pmoctree_solver::StepBreakdown) -> u64| reference.steps.iter().map(f).sum();
        assert_eq!(r.adapt.virt_ns, sum(|s| s.refine_ns));
        assert_eq!(r.balance.virt_ns, sum(|s| s.balance_ns));
        assert_eq!(r.sweep.virt_ns, sum(|s| s.solve_ns));
        assert_eq!(r.persist.virt_ns, sum(|s| s.persist_ns));
        assert_eq!(r.virt_ns, sum(|s| s.total_ns()));
        assert_eq!(plain.virt_ns, r.virt_ns);
        assert_eq!(plain.fingerprint, r.fingerprint);
    }
}

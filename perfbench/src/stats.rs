//! Aggregation helpers shared by the workloads. Every ratio and
//! percentile goes through a helper that refuses to turn an empty base
//! into a number on a layer the workload drives.

use std::collections::BTreeMap;
use std::time::Instant;

use pmoctree_nvbm::obsv::attribution::{build_tree, SpanNode};
use pmoctree_nvbm::{Event, MemStats};

/// Median of `v` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// On an empty slice: every caller aggregates at least one repetition.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile `p` (0..=1) of `v`; 0 for no samples.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// `num / den`. A zero base is an error when the workload `drives` the
/// layer being measured, and reads 0 (next to its zero base count) when
/// it does not.
///
/// # Errors
///
/// `den == 0` while `drives`.
pub fn ratio(num: f64, den: f64, drives: bool, what: &str) -> Result<f64, String> {
    if den != 0.0 {
        Ok(num / den)
    } else if drives {
        Err(format!("{what}: 0/0 (no base) on a layer this workload drives"))
    } else {
        Ok(0.0)
    }
}

/// Median and 99th percentile of `v`.
///
/// # Errors
///
/// Both zero (or no samples) while `drives`: a percentile pair of zeros
/// says nothing was measured.
pub fn p50_p99(v: &[f64], drives: bool, what: &str) -> Result<(f64, f64), String> {
    let pair = (percentile(v, 0.50), percentile(v, 0.99));
    if drives && pair.1 == 0.0 {
        return Err(format!("{what}: all-zero percentile pair over {} samples", v.len()));
    }
    Ok(pair)
}

/// A time-stepped mesh workload's steps at their fastest over the run's
/// repetitions, as its end-to-end metrics see them.
pub struct Stepped<'a> {
    /// Wall seconds of each step.
    pub wall: &'a [f64],
    /// Leaves (elements) at the end of each step.
    pub leaves: &'a [usize],
    /// Virtual seconds of all steps.
    pub virt_s: f64,
    /// Bytes committed to the media over all steps.
    pub committed: u64,
}

/// End-to-end metrics of a time-stepped mesh workload. Work is one leaf
/// advanced by one step, its payload one `CellData`; a step's durable
/// latency is its wall time.
///
/// # Errors
///
/// No steps, no virtual time or nothing committed.
pub fn stepped_end_to_end(p: &Stepped, r: &mut crate::Report) -> Result<(), String> {
    let work = p.leaves.iter().sum::<usize>() as f64;
    let (wall_s, committed) = (p.wall.iter().sum::<f64>(), p.committed as f64);
    let profile: Vec<f64> = p.wall.iter().map(|s| s * 1e6).collect();
    let (p50, p99) = p50_p99(&profile, true, "step time")?;
    let payload = work * std::mem::size_of::<pm_octree::CellData>() as f64;
    r.set("work_per_s", ratio(work, wall_s, true, "step time")?);
    r.set("virt_work_per_s", ratio(work, p.virt_s, true, "virtual time")?);
    let steps = p.wall.len() as f64;
    r.set("media_bytes_per_step", ratio(committed, steps, true, "steps")?);
    r.set("write_amp", ratio(committed, payload, true, "payload")?);
    r.set("durable_p50_us", p50);
    r.set("durable_p99_us", p99);
    Ok(())
}

/// Keep, step by step, the faster of two wall times of the same steps.
pub fn keep_faster(wall: &mut [f64], other: &[f64]) {
    for (w, o) in wall.iter_mut().zip(other) {
        *w = w.min(*o);
    }
}

/// Time `n` extra set-ups (construction only; the drop is not timed), so
/// `setup_s` is a median over more samples than there are repetitions.
pub fn time_setups<T>(n: usize, mut setup: impl FnMut() -> T) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            let built = setup();
            let s = t.elapsed().as_secs_f64();
            drop(built);
            s
        })
        .collect()
}

/// Tracing overhead in ms: the median over interleaved pairs of the
/// traced minus the untraced wall seconds. Interleaving keeps a slow
/// spell of the machine from landing on one side only.
pub fn overhead_ms(untraced: &[f64], traced: &[f64]) -> f64 {
    let d: Vec<f64> = traced.iter().zip(untraced).map(|(t, u)| t - u).collect();
    median(&d) * 1e3
}

/// Peak resident set size of this process (`VmHWM`), in MB.
///
/// # Errors
///
/// The kernel's status file is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Wall and virtual time spent in one layer, summed over its calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phase {
    /// Calls timed.
    pub calls: u64,
    /// Wall seconds.
    pub wall_s: f64,
    /// Virtual nanoseconds.
    pub virt_ns: u64,
}

impl Phase {
    /// Time `f` on the wall clock and on the virtual clock `now`.
    pub fn time<R>(&mut self, now: impl Fn() -> u64, f: impl FnOnce() -> R) -> R {
        let (v0, w0) = (now(), Instant::now());
        let r = f();
        self.wall_s += w0.elapsed().as_secs_f64();
        self.virt_ns += now() - v0;
        self.calls += 1;
        r
    }

    /// Wall milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.wall_s * 1e3
    }

    /// Virtual milliseconds.
    pub fn virt_ms(&self) -> f64 {
        self.virt_ns as f64 * 1e-6
    }
}

/// NVBM line traffic, traversal and wear counters of one device (or the
/// sum over a cluster's devices).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// NVBM cachelines read.
    pub read_lines: u64,
    /// NVBM cachelines written.
    pub write_lines: u64,
    /// Octant lookups that walked from the root.
    pub root_descents: u64,
    /// Octant lookups served by the leaf index.
    pub index_hits: u64,
    /// Leaf-index rebuilds.
    pub index_rebuilds: u64,
    /// Bytes committed to the media.
    pub committed: u64,
    /// Wear-leveling relocations.
    pub relocations: u64,
    /// Bytes moved by wear-leveling relocations.
    pub relocated: u64,
}

impl Counters {
    /// Read the counters of one device.
    pub fn of(s: &MemStats) -> Self {
        Counters {
            read_lines: s.nvbm.read_lines,
            write_lines: s.nvbm.write_lines,
            root_descents: s.trav.root_descents,
            index_hits: s.trav.index_hits,
            index_rebuilds: s.trav.index_rebuilds,
            committed: s.bytes_by_region().iter().sum(),
            relocations: s.relocations(),
            relocated: s.relocated_bytes(),
        }
    }

    /// Report the `nvbm.*`, `trav.*` and `wear.*` metrics (all but
    /// `nvbm.dirty_lines_max` and `wear.flatness`). `octree` says whether
    /// the workload locates octants, which makes a traversal base of zero
    /// an error.
    ///
    /// # Errors
    ///
    /// A zero base on a counter the workload drives.
    pub fn report(&self, r: &mut crate::Report, octree: bool) -> Result<(), String> {
        let lines = (self.read_lines + self.write_lines) as f64;
        let lookups = (self.root_descents + self.index_hits) as f64;
        r.set("nvbm.read_lines", self.read_lines as f64);
        r.set("nvbm.write_lines", self.write_lines as f64);
        r.set("nvbm.write_fraction", ratio(self.write_lines as f64, lines, true, "nvbm")?);
        r.set("trav.root_descents", self.root_descents as f64);
        r.set("trav.index_hits", self.index_hits as f64);
        r.set("trav.index_hit_ratio", ratio(self.index_hits as f64, lookups, octree, "trav")?);
        r.set("trav.index_rebuilds", self.index_rebuilds as f64);
        r.set("wear.bytes_committed", self.committed as f64);
        r.set("wear.relocations", self.relocations as f64);
        let share = ratio(self.relocated as f64, self.committed as f64, true, "wear")?;
        r.set("wear.relocated_share", share);
        Ok(())
    }
}

impl std::ops::Add for Counters {
    type Output = Counters;

    fn add(self, o: Counters) -> Counters {
        Counters {
            read_lines: self.read_lines + o.read_lines,
            write_lines: self.write_lines + o.write_lines,
            root_descents: self.root_descents + o.root_descents,
            index_hits: self.index_hits + o.index_hits,
            index_rebuilds: self.index_rebuilds + o.index_rebuilds,
            committed: self.committed + o.committed,
            relocations: self.relocations + o.relocations,
            relocated: self.relocated + o.relocated,
        }
    }
}

impl std::ops::Sub for Counters {
    type Output = Counters;

    fn sub(self, o: Counters) -> Counters {
        Counters {
            read_lines: self.read_lines - o.read_lines,
            write_lines: self.write_lines - o.write_lines,
            root_descents: self.root_descents - o.root_descents,
            index_hits: self.index_hits - o.index_hits,
            index_rebuilds: self.index_rebuilds - o.index_rebuilds,
            committed: self.committed - o.committed,
            relocations: self.relocations - o.relocations,
            relocated: self.relocated - o.relocated,
        }
    }
}

/// The device's dirty-line count sampled at the benchmark's call
/// boundaries.
#[derive(Clone, Copy, Debug, Default)]
pub struct Dirty {
    /// Samples taken.
    pub samples: u64,
    /// Largest count seen.
    pub max: usize,
}

impl Dirty {
    /// Record one sample.
    pub fn sample(&mut self, lines: usize) {
        self.samples += 1;
        self.max = self.max.max(lines);
    }

    /// Report `nvbm.dirty_lines_max` next to its base,
    /// `nvbm.dirty_samples`.
    pub fn report(&self, r: &mut crate::Report) {
        r.set("nvbm.dirty_samples", self.samples as f64);
        r.set("nvbm.dirty_lines_max", self.max as f64);
    }
}

/// Virtual self time (span duration minus its child spans) per span name
/// over a journal of the program's own `obsv` spans.
///
/// # Errors
///
/// The journal does not nest (begin/end imbalance or time running
/// backwards).
pub fn self_times(events: &[Event]) -> Result<BTreeMap<&'static str, u64>, String> {
    fn walk(nodes: &[SpanNode], acc: &mut BTreeMap<&'static str, u64>) {
        for n in nodes {
            let children: u64 = n.children.iter().map(SpanNode::dur_ns).sum();
            *acc.entry(n.name).or_default() += n.dur_ns().saturating_sub(children);
            walk(&n.children, acc);
        }
    }
    let mut acc = BTreeMap::new();
    walk(&build_tree(events)?, &mut acc);
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_medians() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn empty_bases_fail_only_where_driven() {
        assert!(ratio(0.0, 0.0, true, "x").is_err());
        assert_eq!(ratio(0.0, 0.0, false, "x"), Ok(0.0));
        assert!(p50_p99(&[0.0, 0.0], true, "x").is_err());
        assert!(p50_p99(&[], true, "x").is_err());
        assert_eq!(p50_p99(&[], false, "x"), Ok((0.0, 0.0)));
    }
}

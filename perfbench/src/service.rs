//! `service`: the Zipf s=1.0 multi-tenant `StateService` mix — 256
//! tenants, 96 B puts, one query in 16, an oversized burst every 256th
//! command that the quota must reject, batches of 256, pinned-snapshot
//! rereads, on a 16 MiB device.
//!
//! A closed loop with one client: each command is submitted after the
//! previous `submit` returned, and a batch flushes when it fills. A shadow
//! model checks every reply: a query returns the last accepted put (or
//! nothing), every regular put is accepted, every burst is refused with
//! `QuotaExceeded`, and every pinned snapshot rereads byte-identical.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use pm_rt::{PmError, ServiceCmd, ServiceConfig, ServiceReply, StateService};
use pmoctree_nvbm::{DeviceModel, NvbmArena, Tracer};

use crate::stats::{self, median, Counters, Dirty};
use crate::{Opts, Repetition, Report, Run};

/// Problem size.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Registered tenants.
    pub tenants: usize,
    /// Commands per batch (one root-table swap each).
    pub batch: usize,
    /// Roots per tenant the puts and queries cycle over.
    pub roots: usize,
    /// Bytes of a regular put.
    pub payload: usize,
    /// Per-tenant byte quota.
    pub quota: u64,
    /// NVBM device bytes.
    pub arena_bytes: usize,
    /// Commands per repetition (a whole number of batches).
    pub ops: usize,
    /// Commands between snapshot pins.
    pub check_interval: usize,
    /// Commands a pinned snapshot stays live before its reread.
    pub check_span: usize,
}

/// Benchmark size: `repro service` at full scale, in repetitions of 200
/// batches.
pub const FULL: Size = Size {
    tenants: 256,
    batch: 256,
    roots: 4,
    payload: 96,
    quota: 4 << 10,
    arena_bytes: 16 << 20,
    ops: 200 * 256,
    check_interval: 10_000,
    check_span: 2_000,
};

/// Self-test size.
pub const SMOKE: Size = Size {
    tenants: 120,
    batch: 64,
    ops: 40 * 64,
    arena_bytes: 8 << 20,
    check_interval: 1_000,
    check_span: 300,
    ..FULL
};

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Cumulative Zipf(1.0) distribution over `n` tenant ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|rank| {
            acc += 1.0 / rank as f64;
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn tenant(i: usize) -> String {
    format!("tenant{i:04}")
}

/// A submitted command awaiting its batch's replies.
enum Sent {
    Put { slot: usize, bytes: Vec<u8> },
    Burst,
    Query { slot: usize },
}

/// One repetition: set up a fresh service, run the command window.
#[derive(Debug, Default)]
struct Rep {
    setup_s: f64,
    /// Wall seconds of each batch: from the end of the previous batch to
    /// the end of the loop iteration whose `submit` flushed this one,
    /// command generation and snapshot checks included.
    batch_s: Vec<f64>,
    /// Wall µs from each command's `submit` until the return of the
    /// `submit` whose flush made it durable ([`Run::Plain`] only).
    durable_us: Vec<f64>,
    /// Virtual ns of the command window.
    virt_ns: u64,
    ops: u64,
    /// Median wall µs of submits that only queued.
    stage_us: f64,
    /// Wall ms / virtual µs of submits that flushed a batch.
    flush_ms: Vec<f64>,
    flush_virt_us: Vec<f64>,
    flush_wall_s: f64,
    flush_virt_ns: u64,
    snapshot_us: Vec<f64>,
    collect_us: Vec<f64>,
    accepted_bytes: u64,
    commits: u64,
    rt_bytes: u64,
    quota_rejections: u64,
    counters: Counters,
    dirty: Dirty,
    flatness: f64,
    fingerprint: u64,
}

fn setup(size: &Size, traced: bool) -> Result<(NvbmArena, StateService), PmError> {
    let mut arena = NvbmArena::new(size.arena_bytes, DeviceModel::default());
    if traced {
        arena.tracer = Tracer::enabled(0);
    }
    let cfg = ServiceConfig::builder()
        .max_tenants(size.tenants)
        .default_quota(size.quota)
        .batch_capacity(size.batch)
        .build()?;
    let mut svc = StateService::create(&mut arena, cfg)?;
    for i in 0..size.tenants {
        svc.submit(&mut arena, ServiceCmd::Create { tenant: tenant(i), quota: None })?;
    }
    let registered = svc.flush_batch(&mut arena)?;
    if let Some(Err(e)) = registered.replies.into_iter().find(Result::is_err) {
        return Err(e);
    }
    Ok((arena, svc))
}

/// A pinned snapshot of `tenant` and the bytes it held when pinned.
type Pinned = (pm_rt::Snapshot, Vec<(String, Option<Vec<u8>>)>);

fn pin(svc: &StateService, arena: &mut NvbmArena, tenant: &str) -> Result<Pinned, PmError> {
    let snap = svc.snapshot(arena, tenant)?;
    let names: Vec<String> = snap.names().map(str::to_string).collect();
    let seen = names
        .into_iter()
        .map(|n| snap.get_bytes(arena, &n).map(|v| (n, v)))
        .collect::<Result<_, _>>()?;
    Ok((snap, seen))
}

impl Repetition for Rep {
    fn setup_s(&self) -> f64 {
        self.setup_s
    }

    fn loop_s(&self) -> f64 {
        self.batch_s.iter().sum()
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn keep_fastest(&mut self, other: Self) {
        stats::keep_faster(&mut self.batch_s, &other.batch_s);
        stats::keep_faster(&mut self.durable_us, &other.durable_us);
    }
}

fn rep(size: &Size, seed: u64, run: Run, report: &mut Report) -> Result<Rep, String> {
    let mut r = Rep::default();
    let t = Instant::now();
    let traced = run == Run::Journal;
    let (mut arena, mut svc) = setup(size, traced).map_err(|e| format!("service setup: {e}"))?;
    r.setup_s = t.elapsed().as_secs_f64();

    let cdf = zipf_cdf(size.tenants);
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut shadow: Vec<Option<Vec<u8>>> = vec![None; size.tenants * size.roots];
    let mut sent: Vec<(Sent, Instant)> = Vec::with_capacity(size.batch);
    let hot = tenant(0);
    let mut pinned: Option<(Pinned, usize)> = None;
    let mut stage_us = Vec::with_capacity(size.ops);

    let c0 = Counters::of(&arena.stats);
    let s0 = svc.stats().clone();
    let v0 = arena.clock.now_ns();
    let mut batch_start = Instant::now();
    for op in 0..size.ops {
        let t = cdf.partition_point(|&c| c < rng.next_f64()).min(size.tenants - 1);
        let root = rng.next_u64() as usize % size.roots;
        let slot = t * size.roots + root;
        let (cmd, what) = if op % 256 == 255 {
            let bytes = vec![0xFF; 2 * size.quota as usize];
            (ServiceCmd::Put { tenant: tenant(t), root: format!("r{root}"), bytes }, Sent::Burst)
        } else if op % 16 == 7 {
            (
                ServiceCmd::Query { tenant: tenant(t), root: format!("r{root}") },
                Sent::Query { slot },
            )
        } else {
            let mut bytes = vec![0u8; size.payload];
            for c in bytes.chunks_mut(8) {
                c.copy_from_slice(&rng.next_u64().to_le_bytes()[..c.len()]);
            }
            let what = Sent::Put { slot, bytes: bytes.clone() };
            (ServiceCmd::Put { tenant: tenant(t), root: format!("r{root}"), bytes }, what)
        };

        let v = arena.clock.now_ns();
        let w = Instant::now();
        let submitted = svc.submit(&mut arena, cmd);
        let done = Instant::now();
        sent.push((what, w));
        r.dirty.sample(arena.dirty_lines());
        let mut flushed = false;
        match submitted {
            Ok(None) => stage_us.push((done - w).as_secs_f64() * 1e6),
            Ok(Some(batch)) => {
                let dw = (done - w).as_secs_f64();
                let dv = arena.clock.now_ns() - v;
                r.flush_ms.push(dw * 1e3);
                r.flush_virt_us.push(dv as f64 * 1e-3);
                r.flush_wall_s += dw;
                r.flush_virt_ns += dv;
                if batch.replies.len() != sent.len() {
                    report.check(false, || {
                        format!(
                            "service: {} replies for {} commands",
                            batch.replies.len(),
                            sent.len()
                        )
                    });
                }
                for ((what, at), reply) in sent.drain(..).zip(batch.replies) {
                    if run == Run::Plain {
                        r.durable_us.push((done - at).as_secs_f64() * 1e6);
                    }
                    check_reply(what, reply, &mut shadow, &mut r.accepted_bytes, report, op);
                }
                flushed = true;
            }
            Err(e) => report.check(false, || format!("service op {op}: submit failed: {e}")),
        }

        // Snapshot isolation: pin the hottest tenant, let skewed writes and
        // several batch commits land on top, then reread. A pin the window
        // would end before rereading is not taken.
        if pinned.is_none() && op % size.check_interval == 0 && op + size.check_span < size.ops {
            let w = Instant::now();
            match pin(&svc, &mut arena, &hot) {
                Ok(p) => {
                    r.snapshot_us.push(w.elapsed().as_secs_f64() * 1e6);
                    pinned = Some((p, op + size.check_span));
                }
                Err(e) => report.check(false, || format!("service op {op}: pin failed: {e}")),
            }
        } else if pinned.as_ref().is_some_and(|p| op >= p.1) {
            let ((snap, seen), _) = pinned.take().expect("a pinned snapshot");
            let w = Instant::now();
            let same =
                seen.iter().all(|(n, v)| snap.get_bytes(&mut arena, n).ok().as_ref() == Some(v));
            *r.snapshot_us.last_mut().expect("pinned") += w.elapsed().as_secs_f64() * 1e6;
            report.check(same, || format!("service op {op}: pinned snapshot changed under writes"));
            drop(snap);
            let w = Instant::now();
            svc.collect(&mut arena);
            r.collect_us.push(w.elapsed().as_secs_f64() * 1e6);
        }
        if flushed {
            let end = Instant::now();
            r.batch_s.push((end - batch_start).as_secs_f64());
            batch_start = end;
        }
    }
    r.stage_us = stats::p50_p99(&stage_us, true, "pm_rt stage")?.0;
    r.virt_ns = arena.clock.now_ns() - v0;
    r.ops = size.ops as u64;
    let s1 = svc.stats();
    (r.commits, r.rt_bytes, r.quota_rejections) = (
        s1.commits - s0.commits,
        s1.bytes_written - s0.bytes_written,
        s1.quota_rejections - s0.quota_rejections,
    );
    r.counters = Counters::of(&arena.stats) - c0;
    r.flatness = arena.stats.wear_flatness();
    report.check(sent.is_empty(), || format!("service: {} commands never flushed", sent.len()));
    let mut h = std::hash::DefaultHasher::new();
    shadow.hash(&mut h);
    r.fingerprint = h.finish();
    Ok(r)
}

fn check_reply(
    what: Sent,
    reply: Result<ServiceReply, PmError>,
    shadow: &mut [Option<Vec<u8>>],
    accepted: &mut u64,
    report: &mut Report,
    op: usize,
) {
    match (what, reply) {
        (Sent::Put { slot, bytes }, Ok(ServiceReply::Put)) => {
            *accepted += bytes.len() as u64;
            shadow[slot] = Some(bytes);
            report.check(true, String::new);
        }
        (Sent::Burst, Err(PmError::QuotaExceeded(_))) => report.check(true, String::new),
        (Sent::Query { slot }, Ok(ServiceReply::Value(v))) => {
            report.check(v == shadow[slot], || {
                format!("service batch at op {op}: stale query reply")
            });
        }
        (_, reply) => report.check(false, || format!("service batch at op {op}: reply {reply:?}")),
    }
}

/// The workload at one size and seed.
struct Service {
    size: Size,
    seed: u64,
}

impl crate::Workload for Service {
    type Rep = Rep;
    /// Timing only: a failing set-up surfaces in the repetitions.
    type Built = Result<(NvbmArena, StateService), PmError>;
    const NAME: &'static str = "service";

    fn set_up(&self) -> Self::Built {
        setup(&self.size, false)
    }

    fn rep(&self, run: Run, report: &mut Report) -> Result<Rep, String> {
        rep(&self.size, self.seed, run, report)
    }

    fn describe(&self, _first: &Rep) -> String {
        format!(
            "{} tenants, {} commands per repetition in batches of {}, {} MiB device",
            self.size.tenants,
            self.size.ops,
            self.size.batch,
            self.size.arena_bytes >> 20
        )
    }

    fn end_to_end(&self, p: &Rep, r: &mut Report) -> Result<(), String> {
        let (ops, virt_s) = (p.ops as f64, p.virt_ns as f64 * 1e-9);
        let committed = p.counters.committed as f64;
        let (durable_p50, durable_p99) = stats::p50_p99(&p.durable_us, true, "durable latency")?;
        r.set("work_per_s", stats::ratio(ops, p.loop_s(), true, "command window")?);
        r.set("virt_work_per_s", stats::ratio(ops, virt_s, true, "virt")?);
        let per_commit = stats::ratio(committed, p.commits as f64, true, "media")?;
        r.set("media_bytes_per_step", per_commit);
        let accepted = p.accepted_bytes as f64;
        r.set("write_amp", stats::ratio(committed, accepted, true, "write_amp")?);
        r.set("durable_p50_us", durable_p50);
        r.set("durable_p99_us", durable_p99);
        r.named = vec![
            ("ops_per_s", r.metrics["work_per_s"], "cmds/s"),
            ("virt_ops_per_s", r.metrics["virt_work_per_s"], "cmds/virtual s"),
        ];
        Ok(())
    }

    /// Everything from the untraced `base`: the workload reads nothing from
    /// the `obsv` journal.
    fn layers(&self, base: &[Rep], _traced: &[Rep], r: &mut Report) -> Result<(), String> {
        let first = &base[0];
        let pool = |f: &dyn Fn(&Rep) -> &Vec<f64>| -> Vec<f64> {
            base.iter().flat_map(|p| f(p).iter().copied()).collect()
        };
        let (flush_p50, flush_p99) = stats::p50_p99(&pool(&|p| &p.flush_ms), true, "pm_rt flush")?;
        let (virt_p50, virt_p99) = stats::p50_p99(&first.flush_virt_us, true, "pm_rt flush virt")?;
        let (snapshot, _) = stats::p50_p99(&pool(&|p| &p.snapshot_us), true, "pm_rt snapshot")?;
        let (collect, _) = stats::p50_p99(&pool(&|p| &p.collect_us), true, "pm_rt collect")?;
        let flush_wall: f64 = base.iter().map(|p| p.flush_wall_s).sum();
        let flush_virt = base.iter().map(|p| p.flush_virt_ns).sum::<u64>() as f64 * 1e-9;
        r.set("pm_rt.submits", first.ops as f64);
        r.set("pm_rt.flushes", first.flush_ms.len() as f64);
        r.set("pm_rt.stage_us", median(&base.iter().map(|p| p.stage_us).collect::<Vec<_>>()));
        r.set("pm_rt.flush_p50_ms", flush_p50);
        r.set("pm_rt.flush_p99_ms", flush_p99);
        r.set("pm_rt.flush_virt_p50_us", virt_p50);
        r.set("pm_rt.flush_virt_p99_us", virt_p99);
        r.set("pm_rt.flush_wall_per_virt", stats::ratio(flush_wall, flush_virt, true, "flush")?);
        r.set("pm_rt.snapshot_us", snapshot);
        r.set("pm_rt.collect_us", collect);
        r.set("pm_rt.commits", first.commits as f64);
        let per_commit =
            stats::ratio(first.rt_bytes as f64, first.commits as f64, true, "commits")?;
        r.set("pm_rt.bytes_per_commit", per_commit);
        r.set("pm_rt.quota_rejections", first.quota_rejections as f64);
        first.counters.report(r, false)?;
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
    crate::drive(&Service { size, seed: opts.seed }, opts, Report::default())
}

//! Persistent-region allocator.
//!
//! Carves an [`NvbmArena`](crate::arena::NvbmArena)'s space (above the
//! device header) into cacheline-multiple blocks. The free lists live in
//! volatile memory: after a crash they are *rebuilt* from the set of live
//! octants discovered by PM-octree's mark phase ([`PmemAllocator::rebuild`]),
//! which is exactly how the paper avoids logging allocator metadata.
//!
//! Deferred reuse matches §3.2: freed regions "will not be released and can
//! be reused for inserting new octants" — a `free` immediately recycles the
//! block without touching the media at all (deletion writes nothing).

use std::collections::{BTreeMap, VecDeque};

use crate::arena::{POffset, HEADER_SIZE};
use crate::model::CACHELINE;

/// Round a size up to a whole number of cachelines.
#[inline]
pub fn size_class(size: usize) -> usize {
    size.div_ceil(CACHELINE) * CACHELINE
}

/// Free-block reuse order — the endurance lever for a device with
/// 10^6–10^8 writes/bit (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReusePolicy {
    /// LIFO: reuse the most-recently-freed block. Best locality (the
    /// block's lines are likely still in the dirty cache) but
    /// concentrates writes on few blocks.
    #[default]
    Lifo,
    /// FIFO rotation: reuse the least-recently-freed block, cycling
    /// through all freed space — a simple wear-leveling discipline that
    /// spreads writes across the device.
    WearAware,
}

/// Volatile free-list allocator over a persistent arena.
#[derive(Debug, Clone)]
pub struct PmemAllocator {
    capacity: u64,
    bump: u64,
    /// Exclusive ceiling for bump growth: the byte where someone else's
    /// territory begins (the `pm-rt` heap grows down from the arena top).
    /// The owner refreshes this from the arena's live rt floor before
    /// allocating, so a near-full device fails the allocation instead of
    /// silently overwriting committed runtime state.
    limit: u64,
    /// size-class → queue of free block offsets.
    free: BTreeMap<usize, VecDeque<u64>>,
    /// Bytes currently handed out (for utilization thresholds).
    live_bytes: u64,
    policy: ReusePolicy,
}

impl PmemAllocator {
    /// Allocator over an arena of `capacity` bytes, starting fresh
    /// (everything above the header is free). LIFO reuse.
    pub fn new(capacity: usize) -> Self {
        Self::with_policy(capacity, ReusePolicy::Lifo)
    }

    /// Allocator with an explicit reuse policy.
    pub fn with_policy(capacity: usize, policy: ReusePolicy) -> Self {
        PmemAllocator {
            capacity: capacity as u64,
            bump: HEADER_SIZE,
            limit: capacity as u64,
            free: BTreeMap::new(),
            live_bytes: 0,
            policy,
        }
    }

    /// Lower the bump ceiling to `limit` (clamped to the capacity): bytes
    /// at or above it belong to the downward-growing `pm-rt` heap.
    pub fn set_limit(&mut self, limit: u64) {
        self.limit = limit.min(self.capacity);
    }

    /// The bump ceiling in force.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// The reuse policy in force.
    pub fn policy(&self) -> ReusePolicy {
        self.policy
    }

    /// Change the reuse policy (takes effect for subsequent allocations).
    pub fn set_policy(&mut self, policy: ReusePolicy) {
        self.policy = policy;
    }

    /// Allocate `size` bytes (rounded up to cachelines). Returns `None`
    /// when the device is full.
    pub fn alloc(&mut self, size: usize) -> Option<POffset> {
        let cls = size_class(size.max(1));
        if let Some(list) = self.free.get_mut(&cls) {
            let reused = match self.policy {
                ReusePolicy::Lifo => list.pop_back(),
                ReusePolicy::WearAware => list.pop_front(),
            };
            if let Some(off) = reused {
                self.live_bytes += cls as u64;
                return Some(POffset(off));
            }
        }
        if self.bump + cls as u64 > self.limit {
            return None;
        }
        let off = self.bump;
        self.bump += cls as u64;
        self.live_bytes += cls as u64;
        Some(POffset(off))
    }

    /// Return a block to its size-class free list. `size` must be the
    /// original requested size (or its class).
    pub fn free(&mut self, p: POffset, size: usize) {
        debug_assert!(!p.is_null(), "freeing null");
        let cls = size_class(size.max(1));
        self.free.entry(cls).or_default().push_back(p.0);
        self.live_bytes = self.live_bytes.saturating_sub(cls as u64);
    }

    /// Sort every size-class free list coldest-first by measured block
    /// wear, so [`ReusePolicy::WearAware`]'s front-of-list reuse lands on
    /// the least-worn blocks instead of merely rotating FIFO. `wear_of`
    /// maps a byte offset to its block's effective wear (pass
    /// [`MemStats::block_wear`](crate::MemStats::block_wear)). The sort is
    /// stable, so equally-cold blocks keep their FIFO rotation order.
    /// O(n log n) over the free set — call from GC sweeps, not per alloc.
    pub fn steer_cold(&mut self, wear_of: impl Fn(u64) -> u32) {
        for list in self.free.values_mut() {
            let mut v: Vec<u64> = list.drain(..).collect();
            v.sort_by_key(|&off| wear_of(off));
            list.extend(v);
        }
    }

    /// Bytes currently allocated.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Fraction of the device currently free — the paper's
    /// `threshold_NVBM` check ("track the percentage of available NVBM
    /// space") compares against this.
    pub fn available_fraction(&self) -> f64 {
        let usable = self.capacity - HEADER_SIZE;
        1.0 - self.live_bytes.min(usable) as f64 / usable as f64
    }

    /// Bump pointer (persist via the arena header at persist points).
    pub fn bump(&self) -> u64 {
        self.bump
    }

    /// Every block currently on a free list, as `(offset, size_class)`
    /// pairs. Recovery invariant checking uses this to prove no reachable
    /// octant sits on the free list.
    pub fn free_blocks(&self) -> Vec<(POffset, usize)> {
        let mut out = Vec::new();
        for (&cls, list) in &self.free {
            out.extend(list.iter().map(|&off| (POffset(off), cls)));
        }
        out.sort_unstable();
        out
    }

    /// Rebuild the allocator after a crash from the live set discovered by
    /// GC's mark phase: `live` is an iterator of `(offset, size)` pairs of
    /// reachable blocks; everything else below `bump_hint` becomes free.
    ///
    /// All live blocks must have been allocated at cacheline-class sizes,
    /// which holds for every allocation this type ever hands out.
    pub fn rebuild(
        capacity: usize,
        bump_hint: u64,
        live: impl IntoIterator<Item = (POffset, usize)>,
    ) -> Self {
        let mut blocks: Vec<(u64, usize)> =
            live.into_iter().map(|(p, s)| (p.0, size_class(s.max(1)))).collect();
        blocks.sort_unstable();
        let mut a = PmemAllocator::new(capacity);
        a.bump = bump_hint.max(HEADER_SIZE);
        let mut cursor = HEADER_SIZE;
        for &(off, cls) in &blocks {
            debug_assert!(off >= cursor, "overlapping live blocks in rebuild");
            // The gap [cursor, off) is dead space: free it in class-sized
            // chunks (largest class that fits, greedily).
            Self::free_gap(&mut a.free, cursor, off);
            a.live_bytes += cls as u64;
            cursor = off + cls as u64;
        }
        Self::free_gap(&mut a.free, cursor, a.bump);
        a
    }

    fn free_gap(free: &mut BTreeMap<usize, VecDeque<u64>>, mut lo: u64, hi: u64) {
        // Chop the gap into power-of-two-ish multiples of CACHELINE so the
        // chunks land in commonly requested classes. Simple scheme: walk in
        // 128-byte blocks (the octant class), then mop up a 64-byte tail.
        const OCTANT_CLASS: u64 = 2 * CACHELINE as u64;
        while lo + OCTANT_CLASS <= hi {
            free.entry(OCTANT_CLASS as usize).or_default().push_back(lo);
            lo += OCTANT_CLASS;
        }
        while lo + CACHELINE as u64 <= hi {
            free.entry(CACHELINE).or_default().push_back(lo);
            lo += CACHELINE as u64;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn alloc_rounds_to_cacheline() {
        let mut a = PmemAllocator::new(1 << 20);
        let p1 = a.alloc(1).unwrap();
        let p2 = a.alloc(1).unwrap();
        assert_eq!(p2.0 - p1.0, 64);
        assert_eq!(a.live_bytes(), 128);
    }

    #[test]
    fn free_then_alloc_reuses_block() {
        let mut a = PmemAllocator::new(1 << 20);
        let p = a.alloc(128).unwrap();
        a.free(p, 128);
        let q = a.alloc(100).unwrap(); // same class (128)
        assert_eq!(p, q);
    }

    #[test]
    fn distinct_classes_do_not_mix() {
        let mut a = PmemAllocator::new(1 << 20);
        let p = a.alloc(64).unwrap();
        a.free(p, 64);
        let q = a.alloc(128).unwrap();
        assert_ne!(p, q, "128B alloc must not reuse a 64B block");
    }

    #[test]
    fn limit_caps_bump_growth() {
        let mut a = PmemAllocator::new(1 << 20);
        a.set_limit(HEADER_SIZE + 128);
        let p = a.alloc(128).unwrap();
        assert!(a.alloc(128).is_none(), "bump must not cross the limit");
        // Free-list reuse below the limit is unaffected.
        a.free(p, 128);
        assert_eq!(a.alloc(128), Some(p));
        // Raising the limit re-enables bump growth.
        a.set_limit(HEADER_SIZE + 256);
        assert!(a.alloc(128).is_some());
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = PmemAllocator::new(HEADER_SIZE as usize + 256);
        assert!(a.alloc(128).is_some());
        assert!(a.alloc(128).is_some());
        assert!(a.alloc(128).is_none());
    }

    #[test]
    fn available_fraction_tracks_usage() {
        let mut a = PmemAllocator::new(HEADER_SIZE as usize + 1024);
        assert!((a.available_fraction() - 1.0).abs() < 1e-12);
        let _ = a.alloc(512).unwrap();
        assert!((a.available_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rebuild_reconstructs_free_space() {
        let mut a = PmemAllocator::new(1 << 16);
        let blocks: Vec<_> = (0..8).map(|_| a.alloc(128).unwrap()).collect();
        // Keep blocks 0, 2, 4, 6 live; crash; rebuild.
        let live: Vec<_> = blocks.iter().step_by(2).map(|&p| (p, 128)).collect();
        let mut b = PmemAllocator::rebuild(1 << 16, a.bump(), live.clone());
        assert_eq!(b.live_bytes(), 4 * 128);
        // The 4 dead blocks are reusable before the bump pointer moves.
        let bump_before = b.bump();
        for _ in 0..4 {
            let p = b.alloc(128).unwrap();
            assert!(p.0 < bump_before, "should reuse freed block, got {p:?}");
            assert!(!live.iter().any(|&(l, _)| l == p), "handed out a live block");
        }
    }

    #[test]
    fn wear_aware_rotates_reuse() {
        let mut lifo = PmemAllocator::with_policy(1 << 20, ReusePolicy::Lifo);
        let mut wear = PmemAllocator::with_policy(1 << 20, ReusePolicy::WearAware);
        for a in [&mut lifo, &mut wear] {
            let blocks: Vec<_> = (0..8).map(|_| a.alloc(128).unwrap()).collect();
            for &b in &blocks {
                a.free(b, 128);
            }
        }
        // LIFO hands back the last-freed block; wear-aware the first.
        let l = lifo.alloc(128).unwrap();
        let w = wear.alloc(128).unwrap();
        assert!(l.0 > w.0, "lifo {l:?} vs wear-aware {w:?}");
        // Wear-aware cycles: consecutive alloc/free pairs touch distinct
        // blocks until the queue wraps.
        let mut seen = std::collections::HashSet::new();
        wear.free(w, 128);
        for _ in 0..8 {
            let p = wear.alloc(128).unwrap();
            seen.insert(p);
            wear.free(p, 128);
        }
        assert_eq!(seen.len(), 8, "rotation must visit all freed blocks");
        // LIFO hammers one block in the same pattern.
        let mut seen_l = std::collections::HashSet::new();
        lifo.free(l, 128);
        for _ in 0..8 {
            let p = lifo.alloc(128).unwrap();
            seen_l.insert(p);
            lifo.free(p, 128);
        }
        assert_eq!(seen_l.len(), 1);
    }

    #[test]
    fn steer_cold_reorders_reuse_coldest_first() {
        let mut a = PmemAllocator::with_policy(1 << 20, ReusePolicy::WearAware);
        let blocks: Vec<_> = (0..6).map(|_| a.alloc(128).unwrap()).collect();
        for &b in &blocks {
            a.free(b, 128);
        }
        // Synthetic wear: earlier (lower-offset) blocks are the hottest,
        // i.e. exactly the ones FIFO rotation would reuse first.
        let hottest = blocks[0];
        a.steer_cold(|off| u32::MAX - (off / 64) as u32);
        let order: Vec<_> = (0..6).map(|_| a.alloc(128).unwrap()).collect();
        let mut coldest_first = blocks.clone();
        coldest_first.reverse();
        assert_eq!(order, coldest_first, "reuse must visit coldest blocks first");
        assert_eq!(*order.last().unwrap(), hottest, "hottest block reused last");
        // Stable on ties: uniform wear degrades to the FIFO rotation.
        for &b in &order {
            a.free(b, 128);
        }
        a.steer_cold(|_| 7);
        let tied: Vec<_> = (0..6).map(|_| a.alloc(128).unwrap()).collect();
        assert_eq!(tied, coldest_first, "tied wear keeps FIFO order");
    }

    #[test]
    fn rebuild_empty_live_set_frees_all() {
        let mut a = PmemAllocator::rebuild(1 << 16, 4096, std::iter::empty());
        assert_eq!(a.live_bytes(), 0);
        // Everything below the hint is in free lists.
        let p = a.alloc(128).unwrap();
        assert!(p.0 < 4096);
    }
}

//! A set-associative write-back cache with LRU replacement.
//!
//! Used for the 1 MB / 8-way L2 of Table 1 and (with one way) the
//! direct-mapped 64 MB 3D DRAM cache of Table 2. The model is functional —
//! hit/miss/eviction behaviour and statistics — because that is all the
//! refresh study needs: the cache determines *which* addresses reach the
//! DRAM behind it and *when* dirty lines come back.

use crate::stats::CacheStats;

/// Response to one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheResponse {
    /// True when the line was present.
    pub hit: bool,
    /// Line-aligned address of a dirty victim that must be written back.
    pub writeback: Option<u64>,
    /// Line-aligned address that must be fetched from the next level
    /// (present exactly when `hit` is false).
    pub fill: Option<u64>,
}

/// Per-line state, one packed word per line: `0` is an invalid line, and
/// any other value is `(tag + 1) << 1 | dirty`. The store starts one byte
/// wide and is widened once, the first time a tag does not fit; widening
/// keeps every word's value, so the encoding is the same in both.
#[derive(Debug, Clone)]
enum Lines {
    Narrow(Vec<u8>),
    Wide(Vec<u64>),
}

/// A packed line word as stored in [`Lines`].
trait Word: Copy {
    fn get(self) -> u64;
    fn put(word: u64) -> Self;
}

impl Word for u8 {
    #[inline]
    fn get(self) -> u64 {
        u64::from(self)
    }
    #[inline]
    fn put(word: u64) -> Self {
        word as u8
    }
}

impl Word for u64 {
    #[inline]
    fn get(self) -> u64 {
        self
    }
    #[inline]
    fn put(word: u64) -> Self {
        word
    }
}

/// A set-associative write-back, write-allocate cache with LRU replacement.
///
/// # Examples
///
/// ```
/// use smartrefresh_cache::SetAssocCache;
///
/// // Table 1 L2: 1 MB, 8-way, 64 B lines.
/// let mut l2 = SetAssocCache::new(1 << 20, 8, 64);
/// let first = l2.access(0x1000, false);
/// assert!(!first.hit);
/// assert_eq!(first.fill, Some(0x1000));
/// assert!(l2.access(0x1000, false).hit);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: u64,
    ways: usize,
    line_bytes: u64,
    /// `(line_shift, set_shift)` when the line size and set count are both
    /// powers of two (every shipped config): set/tag extraction by
    /// shift/mask instead of 64-bit div/mod on the per-access path.
    shifts: Option<(u8, u8)>,
    /// `lines[set * ways + way]`.
    lines: Lines,
    /// Per-line LRU stamp; larger = more recent. Empty when direct-mapped,
    /// where there is no replacement choice.
    stamps: Vec<u64>,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates a cache of `capacity_bytes` with `ways` ways and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if the shape is degenerate (zero sizes, capacity not divisible
    /// into sets, non-power-of-two line size, or a way smaller than four
    /// bytes, whose tags could not be packed with a valid and dirty bit).
    pub fn new(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        assert!(
            capacity_bytes > 0 && ways > 0 && line_bytes > 0,
            "zero-sized cache"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines.is_multiple_of(ways as u64) && lines > 0,
            "capacity must divide into an integral number of sets"
        );
        let sets = lines / ways as u64;
        assert!(lines > 1, "cache must hold at least two lines");
        // tag = addr / (sets * line_bytes) < 2^62, so `(tag + 1) << 1 | 1`
        // fits in a u64.
        assert!(
            sets * line_bytes >= 4,
            "each way must span at least 4 bytes"
        );
        let n = lines as usize;
        let shifts = if sets.is_power_of_two() {
            Some((
                line_bytes.trailing_zeros() as u8,
                sets.trailing_zeros() as u8,
            ))
        } else {
            None
        };
        SetAssocCache {
            sets,
            ways,
            line_bytes,
            shifts,
            lines: Lines::Narrow(vec![0; n]),
            stamps: if ways > 1 { vec![0; n] } else { Vec::new() },
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.sets * self.ways as u64 * self.line_bytes
    }

    /// Access statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    pub(crate) fn set_of(&self, addr: u64) -> u64 {
        if let Some((line, set)) = self.shifts {
            return (addr >> line) & ((1 << set) - 1);
        }
        (addr / self.line_bytes) % self.sets
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    fn rebuild_addr(&self, tag: u64, set: u64) -> u64 {
        (tag * self.sets + set) * self.line_bytes
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        if let Some((line, set)) = self.shifts {
            return (addr >> line) >> set;
        }
        (addr / self.line_bytes) / self.sets
    }

    /// The packed word of a clean line holding `addr`'s tag.
    #[inline]
    fn clean_word(&self, addr: u64) -> u64 {
        (self.tag_of(addr) + 1) << 1
    }

    /// Performs one access, allocating on miss (write-allocate) and
    /// returning any dirty victim.
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheResponse {
        self.clock += 1;
        let set = self.set_of(addr);
        let clean = self.clean_word(addr);
        if let Lines::Narrow(narrow) = &self.lines {
            if clean | 1 > u64::from(u8::MAX) {
                self.lines = Lines::Wide(narrow.iter().map(|&w| u64::from(w)).collect());
            }
        }
        let base = set as usize * self.ways;
        let slots = base..base + self.ways;
        let stamps = if self.stamps.is_empty() {
            &mut []
        } else {
            &mut self.stamps[slots.clone()]
        };
        let evicted = match &mut self.lines {
            Lines::Narrow(v) => access_set(&mut v[slots], stamps, self.clock, clean, is_write),
            Lines::Wide(v) => access_set(&mut v[slots], stamps, self.clock, clean, is_write),
        };
        let Some(old) = evicted else {
            self.stats.record(true, is_write, false);
            return CacheResponse {
                hit: true,
                writeback: None,
                fill: None,
            };
        };
        let writeback = (old & 1 == 1).then(|| self.rebuild_addr((old >> 1) - 1, set));
        self.stats.record(false, is_write, writeback.is_some());
        CacheResponse {
            hit: false,
            writeback,
            fill: Some(self.line_addr(addr)),
        }
    }

    /// True when the line containing `addr` is currently cached (no state
    /// change, no statistics).
    pub fn probe(&self, addr: u64) -> bool {
        let base = self.set_of(addr) as usize * self.ways;
        let clean = self.clean_word(addr);
        let slots = base..base + self.ways;
        match &self.lines {
            Lines::Narrow(v) => v[slots].iter().any(|w| w.get() & !1 == clean),
            Lines::Wide(v) => v[slots].iter().any(|w| w.get() & !1 == clean),
        }
    }
}

/// Looks up the clean word `clean` in one set's `lines`, updating dirty
/// bits and the set's LRU `stamps` (empty when direct-mapped). Returns
/// `None` on a hit, or the word the miss evicted (`0` for an invalid way).
/// The store must be wide enough for `clean | 1`.
#[inline]
fn access_set<W: Word>(
    lines: &mut [W],
    stamps: &mut [u64],
    clock: u64,
    clean: u64,
    is_write: bool,
) -> Option<u64> {
    let fresh = clean | u64::from(is_write);
    // Direct-mapped: no stamps and no replacement choice.
    if stamps.is_empty() {
        let old = lines[0].get();
        if old & !1 == clean {
            lines[0] = W::put(old | fresh);
            return None;
        }
        lines[0] = W::put(fresh);
        return Some(old);
    }
    if let Some(way) = lines.iter().position(|w| w.get() & !1 == clean) {
        stamps[way] = clock;
        lines[way] = W::put(lines[way].get() | fresh);
        return None;
    }
    // Miss: the first invalid way, else the LRU way.
    let victim = lines
        .iter()
        .position(|w| w.get() == 0)
        .unwrap_or_else(|| (0..lines.len()).min_by_key(|&way| stamps[way]).unwrap_or(0));
    let old = lines[victim].get();
    lines[victim] = W::put(fresh);
    stamps[victim] = clock;
    Some(old)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mapped_conflict_evicts() {
        // 2 sets of 1 way, 64 B lines -> capacity 128 B.
        let mut c = SetAssocCache::new(128, 1, 64);
        assert!(!c.access(0, false).hit);
        assert!(!c.access(128, false).hit, "same set, different tag");
        assert!(!c.access(0, false).hit, "original was evicted");
    }

    #[test]
    fn lru_keeps_recently_used() {
        // One set, 2 ways.
        let mut c = SetAssocCache::new(128, 2, 64);
        c.access(0, false); // A
        c.access(128, false); // B
        c.access(0, false); // touch A -> B is LRU
        let r = c.access(256, false); // C evicts B
        assert!(!r.hit);
        assert!(c.probe(0), "A still resident");
        assert!(!c.probe(128), "B evicted");
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = SetAssocCache::new(128, 1, 64);
        c.access(64, true); // write to set 1
        let r = c.access(64 + 128, false); // conflict in set 1
        assert_eq!(r.writeback, Some(64));
        assert_eq!(r.fill, Some(64 + 128));
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = SetAssocCache::new(128, 1, 64);
        c.access(0, false);
        let r = c.access(128, false);
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn writeback_address_reconstruction_roundtrips() {
        let mut c = SetAssocCache::new(1 << 20, 8, 64);
        let addr = 0xdead_b000u64;
        c.access(addr, true);
        // Evict by filling the same set with 8 conflicting tags.
        let mut wbs = Vec::new();
        for k in 1..=8u64 {
            let conflicting = addr + k * c.sets() * c.line_bytes();
            if let Some(wb) = c.access(conflicting, false).writeback {
                wbs.push(wb);
            }
        }
        assert!(wbs.contains(&(addr & !63)), "writebacks {wbs:?}");
    }

    #[test]
    fn stats_count_hits_misses_writebacks() {
        let mut c = SetAssocCache::new(128, 1, 64);
        c.access(0, false);
        c.access(0, false);
        c.access(128, true);
        c.access(0, false); // evicts dirty 128
        let s = c.stats();
        assert_eq!(s.accesses, 4);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        assert_eq!(s.writebacks, 1);
    }

    #[test]
    fn table_configs_shape() {
        let l2 = SetAssocCache::new(1 << 20, 8, 64);
        assert_eq!(l2.sets(), 2048);
        assert_eq!(l2.capacity_bytes(), 1 << 20);
        let l3 = SetAssocCache::new(64 << 20, 1, 64);
        assert_eq!(l3.sets(), 1 << 20);
    }

    #[test]
    fn store_starts_narrow_and_widens_once() {
        let mut c = SetAssocCache::new(128, 1, 64);
        assert!(c.stamps.is_empty(), "direct-mapped keeps no LRU stamps");
        c.access(126 * 128, true); // tag 126: the widest that fits a byte
        assert!(matches!(c.lines, Lines::Narrow(_)));
        let r = c.access(127 * 128, false);
        assert!(matches!(c.lines, Lines::Wide(_)));
        assert_eq!(r.writeback, Some(126 * 128), "dirty narrow line survives");
        assert!(c.probe(127 * 128));
    }

    #[test]
    #[should_panic(expected = "at least 4 bytes")]
    fn tiny_ways_rejected() {
        SetAssocCache::new(4, 2, 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_line_rejected() {
        SetAssocCache::new(128, 1, 48);
    }
}

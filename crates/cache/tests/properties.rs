//! Property tests of the cache substrate against a reference model, with
//! access streams drawn from the in-repo seeded [`Rng`].

use std::collections::HashMap;

use smartrefresh_cache::{CacheStats, SetAssocCache, StackedDramCache};
use smartrefresh_dram::rng::Rng;

/// A trivially-correct reference cache: per-set vectors ordered by recency.
struct ModelCache {
    sets: u64,
    ways: usize,
    line: u64,
    /// set -> most-recent-first list of (tag, dirty).
    state: HashMap<u64, Vec<(u64, bool)>>,
    stats: CacheStats,
}

impl ModelCache {
    fn new(capacity: u64, ways: usize, line: u64) -> Self {
        ModelCache {
            sets: capacity / line / ways as u64,
            ways,
            line,
            state: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Returns (hit, writeback address), counting it into `stats`.
    fn access(&mut self, addr: u64, is_write: bool) -> (bool, Option<u64>) {
        let (hit, wb) = self.lookup(addr, is_write);
        self.stats.accesses += 1;
        self.stats.hits += u64::from(hit);
        self.stats.misses += u64::from(!hit);
        self.stats.writes += u64::from(is_write);
        self.stats.writebacks += u64::from(wb.is_some());
        (hit, wb)
    }

    fn lookup(&mut self, addr: u64, is_write: bool) -> (bool, Option<u64>) {
        let set = (addr / self.line) % self.sets;
        let tag = (addr / self.line) / self.sets;
        let list = self.state.entry(set).or_default();
        if let Some(pos) = list.iter().position(|&(t, _)| t == tag) {
            let (t, d) = list.remove(pos);
            list.insert(0, (t, d || is_write));
            return (true, None);
        }
        let mut wb = None;
        if list.len() == self.ways {
            let (vt, vd) = list.pop().expect("full set");
            if vd {
                wb = Some((vt * self.sets + set) * self.line);
            }
        }
        list.insert(0, (tag, is_write));
        (false, wb)
    }
}

/// The LRU set-associative cache agrees with the reference model on
/// every access outcome and every writeback, for arbitrary streams.
#[test]
fn cache_matches_reference_model() {
    let mut rng = Rng::seed_from_u64(0xcac4_0001);
    for &ways in &[1usize, 2, 4, 8, 16] {
        for _ in 0..8 {
            let stream: Vec<(u64, bool)> = (0..rng.gen_range(1usize..400))
                .map(|_| {
                    let block = rng.gen_range(0u64..2048);
                    // An arbitrary offset within the line.
                    (block * 64 + block % 64, rng.gen_bool(0.5))
                })
                .collect();
            check_against_model(64 * 16, ways, 64, &stream);
        }
    }
}

/// probe() never disturbs state: interleaving probes changes nothing.
#[test]
fn probe_is_pure() {
    let mut rng = Rng::seed_from_u64(0xcac4_0002);
    for _ in 0..16 {
        let mut a = SetAssocCache::new(1024, 2, 64);
        let mut b = SetAssocCache::new(1024, 2, 64);
        let n = rng.gen_range(1usize..100);
        for _ in 0..n {
            let block = rng.gen_range(0u64..256);
            b.probe(block * 64);
            b.probe((block + 7) * 64);
            let ra = a.access(block * 64, false);
            let rb = b.access(block * 64, false);
            assert_eq!(ra.hit, rb.hit);
        }
    }
}

/// The stacked cache's slot mapping is stable and within capacity, and a
/// hit to the same line always lands on the same stacked address.
#[test]
fn stacked_slots_are_stable() {
    let mut rng = Rng::seed_from_u64(0xcac4_0003);
    for _ in 0..16 {
        let mut l3 = StackedDramCache::new(1 << 20);
        let n = rng.gen_range(1usize..100);
        for _ in 0..n {
            let addr = rng.next_u64();
            let t1 = l3.access(addr, false);
            let t2 = l3.access(addr, false);
            assert!(t1.stacked_addr < 1 << 20);
            assert_eq!(t1.stacked_addr, t2.stacked_addr);
            assert_eq!(t2.memory_fill, None, "second access must hit");
        }
    }
}

/// Cache statistics are internally consistent.
#[test]
fn stats_add_up() {
    let mut rng = Rng::seed_from_u64(0xcac4_0004);
    for _ in 0..16 {
        let mut c = SetAssocCache::new(2048, 4, 64);
        let n = rng.gen_range(1usize..200);
        for _ in 0..n {
            let block = rng.gen_range(0u64..512);
            c.access(block * 64, rng.gen_bool(0.5));
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, s.accesses);
        assert!(s.writebacks <= s.misses, "writebacks only on misses");
    }
}

/// Replays `stream` through a cache of the given shape and the reference
/// model, asserting they agree on every response and on the final
/// statistics. Returns the writebacks the stream produced, each with the
/// index of the access that caused it.
fn check_against_model(
    capacity: u64,
    ways: usize,
    line: u64,
    stream: &[(u64, bool)],
) -> Vec<(usize, u64)> {
    let mut dut = SetAssocCache::new(capacity, ways, line);
    let mut model = ModelCache::new(capacity, ways, line);
    let mut writebacks = Vec::new();
    for (k, &(addr, is_write)) in stream.iter().enumerate() {
        let got = dut.access(addr, is_write);
        let (hit, wb) = model.access(addr, is_write);
        assert_eq!(got.hit, hit, "hit mismatch at {addr:#x} ({ways} ways)");
        assert_eq!(got.writeback, wb, "writeback mismatch at {addr:#x}");
        assert_eq!(got.fill, (!hit).then_some(addr & !(line - 1)));
        assert!(dut.probe(addr), "an accessed line is resident");
        writebacks.extend(wb.map(|wb| (k, wb)));
    }
    assert_eq!(*dut.stats(), model.stats);
    writebacks
}

/// Tags that outgrow the one-byte line store partway through a stream
/// (after dirty lines with small tags exist) leave every outcome
/// unchanged, and the dirty lines stored before the store widened write
/// back to their own addresses.
#[test]
fn tags_outgrowing_the_narrow_store_keep_every_outcome() {
    let mut rng = Rng::seed_from_u64(0xcac4_0005);
    // (capacity, ways): power-of-two and non-power-of-two set counts.
    for &(capacity, ways) in &[(64 * 16, 1usize), (64 * 16, 4), (64 * 12, 4), (64 * 24, 1)] {
        let sets = capacity / 64 / ways as u64;
        for _ in 0..8 {
            // Phase 1: small tags only (below 127), half of them writes.
            let mut stream: Vec<(u64, bool)> = (0..rng.gen_range(50usize..300))
                .map(|_| (rng.gen_range(0u64..sets * 100) * 64, rng.gen_bool(0.5)))
                .collect();
            let dirty_small: Vec<u64> = stream
                .iter()
                .filter(|&&(_, w)| w)
                .map(|&(a, _)| a)
                .collect();
            let phase1 = stream.len();
            // Phase 2: mostly huge tags, some small ones, so both kinds
            // of line conflict once the store has widened.
            for _ in 0..rng.gen_range(50usize..300) {
                let addr = if rng.gen_bool(0.7) {
                    rng.next_u64()
                } else {
                    rng.gen_range(0u64..sets * 100) * 64
                };
                stream.push((addr, rng.gen_bool(0.5)));
            }
            // The first tag past 126 widens the store.
            let widened_at = (phase1..stream.len())
                .find(|&k| stream[k].0 / 64 / sets > 126)
                .expect("phase 2 has a huge tag");
            let writebacks = check_against_model(capacity, ways, 64, &stream);
            let written: Vec<u64> = stream
                .iter()
                .filter(|&&(_, w)| w)
                .map(|&(a, _)| a & !63)
                .collect();
            for (_, wb) in &writebacks {
                assert!(written.contains(wb), "writeback {wb:#x} was never written");
            }
            assert!(
                writebacks
                    .iter()
                    .any(|&(k, wb)| k > widened_at && dirty_small.contains(&wb)),
                "no line dirtied before widening was written back after it"
            );
        }
    }
}

/// Direct-mapped streams packed onto a few sets conflict constantly; every
/// dirty eviction writes back the victim's own address.
#[test]
fn direct_mapped_conflicts_write_back_dirty_victims() {
    let mut rng = Rng::seed_from_u64(0xcac4_0006);
    let capacity = 64 * 1024;
    for _ in 0..16 {
        // Four hot sets, each shared by eight tags (some beyond 126).
        let stream: Vec<(u64, bool)> = (0..rng.gen_range(200usize..600))
            .map(|_| {
                let set = rng.gen_range(0u64..4) * 97;
                let tag = [0u64, 1, 2, 5, 126, 127, 1000, 1 << 40][rng.gen_range(0usize..8)];
                (
                    tag * capacity + set * 64 + rng.gen_range(0u64..64),
                    rng.gen_bool(0.4),
                )
            })
            .collect();
        let writebacks = check_against_model(capacity, 1, 64, &stream);
        assert!(!writebacks.is_empty(), "stream must evict dirty lines");
    }
}

/// `StackedDramCache` agrees field by field with the reference model: the
/// stacked slot, the stacked-side write, the main-memory fill and
/// writeback, and the statistics.
#[test]
fn stacked_cache_matches_reference_model() {
    let mut rng = Rng::seed_from_u64(0xcac4_0007);
    // A power-of-two capacity (shift/mask path) and one of 48 lines.
    for &capacity in &[64u64 * 64, 64 * 48] {
        for _ in 0..8 {
            let mut dut = StackedDramCache::new(capacity);
            let mut model = ModelCache::new(capacity, 1, 64);
            let n = rng.gen_range(100usize..600);
            for k in 0..n {
                let addr = if k > n / 2 && rng.gen_bool(0.3) {
                    rng.next_u64()
                } else {
                    rng.gen_range(0u64..capacity * 8)
                };
                let is_write = rng.gen_bool(0.5);
                let got = dut.access(addr, is_write);
                let (hit, wb) = model.access(addr, is_write);
                let line = addr & !63;
                assert_eq!(got.stacked_addr, line % capacity, "slot at {addr:#x}");
                assert_eq!(got.stacked_addr, dut.slot_of(addr));
                assert_eq!(got.stacked_is_write, is_write || !hit);
                assert_eq!(got.memory_fill, (!hit).then_some(line));
                assert_eq!(got.memory_writeback, wb, "writeback at {addr:#x}");
            }
            assert_eq!(*dut.stats(), model.stats);
            assert_eq!(dut.tag_lookups(), n as u64);
        }
    }
}

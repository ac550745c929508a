//! Property tests of the DRAM substrate invariants, driven by the in-repo
//! seeded [`Rng`] so every run is deterministic and hermetic.

use smartrefresh_dram::rng::Rng;
use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::{
    DramDevice, Geometry, RetentionProfile, RetentionTracker, RowAddr, TimingParams,
};

fn sample_geometry(rng: &mut Rng) -> Geometry {
    let ranks = rng.gen_range(1u32..3);
    let banks = rng.gen_range(1u32..9);
    let rows = rng.gen_range(1u32..65);
    let cols = rng.gen_range(1u32..33);
    Geometry::new(ranks, banks, rows, cols, 64)
}

/// decode() always produces in-range components.
#[test]
fn decode_stays_in_range() {
    let mut rng = Rng::seed_from_u64(0xd4a0_0001);
    for _ in 0..64 {
        let g = sample_geometry(&mut rng);
        for _ in 0..16 {
            let addr = rng.next_u64();
            let d = g.decode(addr);
            assert!(d.row_addr.rank < g.ranks());
            assert!(d.row_addr.bank < g.banks());
            assert!(d.row_addr.row < g.rows());
            assert!(d.column < g.columns());
        }
    }
}

/// flatten/unflatten is a bijection over the whole module.
#[test]
fn flatten_roundtrips() {
    let mut rng = Rng::seed_from_u64(0xd4a0_0002);
    for _ in 0..32 {
        let g = sample_geometry(&mut rng);
        for i in 0..g.total_rows() {
            let ra = g.unflatten(i);
            assert_eq!(g.flatten(ra), i);
        }
    }
}

/// Every address below capacity decodes to the row block that contains
/// it: re-encoding the row block and column reproduces the aligned
/// address.
#[test]
fn decode_is_consistent_with_row_blocks() {
    let mut rng = Rng::seed_from_u64(0xd4a0_0003);
    for _ in 0..64 {
        let g = sample_geometry(&mut rng);
        let blocks = rng.gen_range(0u64..4096);
        let addr = (blocks % (g.capacity_bytes() / g.column_bytes())) * g.column_bytes();
        let d = g.decode(addr);
        // Rebuild: the flat sequence of (column, bank, rank, row) units.
        let col_unit = g.column_bytes();
        let rebuilt = (((u64::from(d.row_addr.row) * u64::from(g.ranks())
            + u64::from(d.row_addr.rank))
            * u64::from(g.banks())
            + u64::from(d.row_addr.bank))
            * u64::from(g.columns())
            + u64::from(d.column))
            * col_unit;
        assert_eq!(rebuilt, addr);
    }
}

/// The retention tracker flags exactly the rows whose deadline passed.
#[test]
fn retention_violations_are_exact() {
    let mut rng = Rng::seed_from_u64(0xd4a0_0004);
    for _ in 0..32 {
        let rows = rng.gen_range(1u32..33);
        let restore_ms: Vec<u64> = (0..rows).map(|_| rng.gen_range(0u64..100)).collect();
        let check_ms = rng.gen_range(0u64..200);
        let g = Geometry::new(1, 1, rows, 4, 64);
        let mut dev = DramDevice::new(
            g,
            TimingParams::ddr2_667().with_retention(Duration::from_ms(64)),
        );
        // Refresh each row at its chosen time (sequentially legal ordering
        // is irrelevant to the tracker; drive it directly).
        let mut times: Vec<(u32, u64)> = restore_ms
            .iter()
            .enumerate()
            .map(|(i, &t)| (i as u32, t))
            .collect();
        times.sort_by_key(|&(_, t)| t);
        for (row, t) in times {
            // Issue a refresh at time t (banks are serial, 70 ns each; the
            // ms-scale gaps dominate so ordering is legal).
            let at = Instant::ZERO + Duration::from_ms(t) + Duration::from_ns(u64::from(row) * 100);
            let _ = dev.refresh_ras_only(
                RowAddr {
                    rank: 0,
                    bank: 0,
                    row,
                },
                at,
            );
        }
        let now = Instant::ZERO + Duration::from_ms(check_ms);
        let violations = dev.retention().violations(now);
        for (i, &t) in restore_ms.iter().enumerate() {
            let restored = dev.retention().last_restore(i as u64);
            let stale = now.saturating_since(restored) > Duration::from_ms(64);
            assert_eq!(
                violations.contains(&(i as u64)),
                stale,
                "row {i} restored at {restored} checked at {check_ms}ms (orig {t}ms)"
            );
        }
    }
}

/// With a retention profile applied, strong rows tolerate proportionally
/// longer staleness before being flagged.
#[test]
fn profile_scales_deadlines() {
    let mut rng = Rng::seed_from_u64(0xd4a0_0005);
    for _ in 0..24 {
        let seed = rng.next_u64();
        let g = Geometry::new(1, 2, 16, 4, 64);
        let mut dev = DramDevice::new(
            g,
            TimingParams::ddr2_667().with_retention(Duration::from_ms(8)),
        );
        let profile = RetentionProfile::rapid_like(g.total_rows(), seed);
        dev.apply_retention_profile(&profile);
        // At 9 ms (just past base retention), exactly the multiplier-0 rows
        // violate.
        let now = Instant::ZERO + Duration::from_ms(9);
        let violations = dev.retention().violations(now);
        for i in 0..g.total_rows() {
            let weak = profile.multiplier_log2(i) == 0;
            assert_eq!(violations.contains(&i), weak, "seed {seed} row {i}");
        }
    }
}

/// Bank busy horizons are monotone: a command never makes a bank ready
/// earlier than it already was.
#[test]
fn busy_horizons_monotone() {
    let mut rng = Rng::seed_from_u64(0xd4a0_0006);
    for _ in 0..24 {
        let g = Geometry::new(1, 4, 16, 8, 64);
        let mut dev = DramDevice::new(g, TimingParams::ddr2_667());
        let mut horizon = Instant::ZERO;
        let mut now = Instant::ZERO;
        let ops = rng.gen_range(1usize..64);
        for _ in 0..ops {
            let bank = rng.gen_range(0u32..4);
            let row = rng.gen_range(0u32..16);
            let gap_ns = rng.gen_range(0u64..1000);
            now += Duration::from_ns(gap_ns + 1);
            let addr = RowAddr { rank: 0, bank, row };
            // Try a refresh; ignore rejections (busy bank).
            if dev.refresh_ras_only(addr, now).is_ok() {
                let b = dev.bank(0, bank).busy_until();
                assert!(b >= horizon.min(b));
                horizon = horizon.max(b);
            }
        }
    }
}

/// The linear scan the earliest-deadline index replaced: the row with the
/// smallest `(last_restore + row_deadline, row)`.
fn earliest_deadline_by_scan(t: &RetentionTracker) -> Option<u64> {
    (0..t.len() as u64).min_by_key(|&r| (t.last_restore(r) + t.row_deadline(r), r))
}

/// Drives one tracker through `steps` seeded operations — in-order and
/// out-of-order restores, tightened and loosened row deadlines, uniform
/// scaling and whole profiles — and checks the index's winner against the
/// scan after every one. Restore times fall on a coarse grid so equal
/// deadlines (ties) are common.
fn check_index_against_scan(g: &Geometry, seed: u64, steps: usize) {
    let mut rng = Rng::seed_from_u64(seed);
    let base = Duration::from_ms(64);
    let mut t = RetentionTracker::new(g, base);
    let rows = t.len() as u64;
    let grid = Duration::from_us(250);
    let mut now = Instant::ZERO;
    assert_eq!(t.earliest_deadline(), earliest_deadline_by_scan(&t));
    for step in 0..steps {
        let row = rng.gen_range(0..rows);
        match rng.gen_range(0u32..100) {
            0..=59 => {
                now += grid * rng.gen_range(0u64..4);
                t.restore(row, now);
            }
            60..=69 => {
                // Back in time: out of order (and ignored by the tracker)
                // whenever the row was restored since.
                let back = grid * rng.gen_range(1u64..8);
                t.restore(
                    row,
                    Instant::from_ps(now.as_ps().saturating_sub(back.as_ps())),
                );
            }
            70..=79 => {
                let tighter = Duration::from_ps((t.row_deadline(row).as_ps() / 4).max(1));
                t.set_row_deadline(row, tighter);
            }
            80..=89 => {
                let looser = base * rng.gen_range(1u64..5);
                t.set_row_deadline(row, looser);
            }
            90..=94 => {
                // Keep deadlines within a factor of the base either way.
                let factor = if t.retention() > base { 0.5 } else { 2.0 };
                t.scale_deadlines(factor);
            }
            _ => {
                let profile = RetentionProfile::rapid_like(rows, seed ^ step as u64);
                t.apply_profile(&profile);
            }
        }
        assert_eq!(
            t.earliest_deadline(),
            earliest_deadline_by_scan(&t),
            "seed {seed:#x}, step {step}, {rows} rows"
        );
    }
}

/// The earliest-deadline index names the same row as a linear scan after
/// every operation, on 1, 3 and 1024 rows and on random shapes.
#[test]
fn earliest_deadline_index_matches_linear_scan() {
    check_index_against_scan(&Geometry::new(1, 1, 1, 1, 64), 0xd4a0_0101, 500);
    check_index_against_scan(&Geometry::new(1, 3, 1, 1, 64), 0xd4a0_0102, 2_000);
    check_index_against_scan(&Geometry::new(2, 4, 128, 4, 64), 0xd4a0_0103, 4_000);
    let mut rng = Rng::seed_from_u64(0xd4a0_0104);
    for i in 0..16 {
        let g = sample_geometry(&mut rng);
        check_index_against_scan(&g, 0xd4a0_0200 + i, 500);
    }
}

/// With every deadline equal the lowest row wins, and restoring rows in
/// ascending order hands the lead to the next row each time, then back
/// to row 0 once a full sweep has restored every row at the same instant.
#[test]
fn earliest_deadline_ties_go_to_the_lowest_row() {
    let g = Geometry::new(2, 4, 128, 4, 64);
    let mut t = RetentionTracker::new(&g, Duration::from_ms(64));
    let sweep = Instant::ZERO + Duration::from_ms(10);
    for row in 0..t.len() as u64 {
        assert_eq!(t.earliest_deadline(), Some(row));
        t.restore(row, sweep);
    }
    assert_eq!(t.earliest_deadline(), Some(0));
}

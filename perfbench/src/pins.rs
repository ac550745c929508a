//! Result digests pinned for the default seed. A pass on that seed whose
//! digest differs has changed what the program computes, and fails.

/// The figures' seed; the default of `--seed`.
pub const DEFAULT_SEED: u64 = 0x5eed;

/// (workload, digest on [`DEFAULT_SEED`]).
const PINNED: &[(&str, u64)] = &[
    ("conv2gb", 0xfaa7_662b_1b1a_9761),
    ("stacked32", 0xf9a0_8712_bc55_0211),
    ("resilience-fleet", 0x2b45_ec87_64cd_ba86),
    ("campaigns", 0xe170_6790_fcfc_1d88),
];

/// The pinned digest for `workload` on `seed`, if there is one.
pub fn pinned(workload: &str, seed: u64) -> Option<u64> {
    if seed != DEFAULT_SEED {
        return None;
    }
    PINNED.iter().find(|(w, _)| *w == workload).map(|(_, d)| *d)
}

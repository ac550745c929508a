//! Regression pin for the 3D stacked path: one benchmark through the
//! 64 MB direct-mapped DRAM cache at 32 ms retention, in the regime where
//! Smart Refresh actually skips refreshes. The digests cover every
//! measured field, so any change to what the stacked cache forwards to the
//! device (or to the controller behind it) moves them.

use smartrefresh_core::SmartRefreshConfig;
use smartrefresh_dram::configs::stacked_3d_64mb;
use smartrefresh_dram::time::Duration;
use smartrefresh_energy::DramPowerParams;
use smartrefresh_sim::{digest_run, run_experiment, ExperimentConfig, PolicyKind, RunResult};
use smartrefresh_workloads::catalog::find;

fn run(policy: PolicyKind) -> RunResult {
    let mut cfg = ExperimentConfig::stacked(
        stacked_3d_64mb(Duration::from_ms(32)),
        DramPowerParams::stacked_3d_64mb(),
        policy,
    )
    .scaled(0.5);
    cfg.reference = Duration::from_ms(64);
    let spec = find("fasta").expect("fasta is in the catalog").stacked;
    run_experiment(&cfg, &spec).expect("stacked run must not error")
}

/// CBR and Smart Refresh on the stacked cache reproduce their pinned
/// digests, keep every row within retention, and Smart Refresh engages:
/// it issues refreshes, but fewer than CBR's fixed sweep (188,828 against
/// 196,608 on the default seed).
#[test]
fn stacked_fasta_is_pinned_and_smart_refresh_engages() {
    let cbr = run(PolicyKind::CbrDistributed);
    let smart = run(PolicyKind::Smart(SmartRefreshConfig::paper_defaults()));
    assert!(cbr.integrity_ok, "CBR lost data");
    assert!(smart.integrity_ok, "Smart Refresh lost data");
    let (c, s) = (cbr.ctrl.refreshes_issued, smart.ctrl.refreshes_issued);
    assert!(
        s > 0 && s < c,
        "Smart Refresh must engage: {s} refreshes vs CBR's {c}"
    );
    assert_eq!(digest_run(&cbr), 0xb6d9_a968_ec79_6eb0, "CBR digest moved");
    assert_eq!(
        digest_run(&smart),
        0x8c93_17e0_0bd9_9f71,
        "Smart digest moved"
    );
}

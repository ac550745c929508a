//! Pins one disturbance cell of the benchmark's fleet grid, and proves the
//! resilience engines it claims to run actually fired: the patrol scrubber
//! walked its rows and the RFM defense issued commands.

use smartrefresh_orchestrator::{FaultTag, GridSpec, ModuleKind, PolicyTag};
use smartrefresh_sim::digest_run;

/// gcc on the Mini module under Smart Refresh, with SECDED, covering patrol
/// scrub, the hammer injector and RFM armed (seed 0x5eed, scale 16).
#[test]
fn disturbance_cell_is_pinned_and_engaged() {
    let grid = GridSpec {
        workloads: vec!["gcc".into()],
        modules: vec![ModuleKind::Mini],
        policies: vec![PolicyTag::Smart],
        faults: vec![FaultTag::Disturbance],
        seeds: vec![24301],
        scale_bits: 16f64.to_bits(),
    };
    let r = grid.run_cell(0).expect("cell runs");
    assert_eq!(digest_run(&r), 0x1cd0_0b3e_9bc9_bee8);
    assert!(r.integrity_ok, "retention guarantee lost");
    assert_eq!(r.ops.scrubs, 98_304, "patrol scrubs");
    assert_eq!(r.ctrl.rfm_commands, 534, "RFM commands");
}

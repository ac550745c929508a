//! Shared helpers for the benchmark harness.
//!
//! The `benches/` directory holds two kinds of targets:
//!
//! * `micro` — a plain timing harness (`harness = false`, no external
//!   framework) over the hot components: counter array, stagger walk,
//!   pending queue, DRAM command layer, workload generation and the
//!   controller access path;
//! * `fig*` / `abl_*` — `harness = false` binaries that regenerate each
//!   table/figure of the paper or run an ablation, printing paper-vs-measured
//!   tables. `SMARTREFRESH_SCALE` (default 1.0) scales the simulated spans.

use smartrefresh_sim::figures::{Evaluation, FigureId};
use smartrefresh_sim::report::render_figure;

/// Runs one figure end-to-end and prints it. Used by every `fig*` bench.
///
/// # Errors
///
/// Propagates the simulation's [`SimError`](smartrefresh_ctrl::SimError)
/// when the figure cannot be produced.
pub fn run_figure(id: FigureId) -> Result<(), smartrefresh_ctrl::SimError> {
    let mut eval = Evaluation::from_env();
    let fig = eval.figure(id)?;
    println!("{}", render_figure(&fig));
    Ok(())
}

/// Standard mini-module used by ablation benches: large enough to show the
/// effects, small enough to run in seconds.
pub fn mini_module() -> smartrefresh_dram::ModuleConfig {
    use smartrefresh_dram::time::Duration;
    smartrefresh_dram::ModuleConfig {
        name: "bench-mini",
        geometry: smartrefresh_dram::Geometry::new(1, 4, 1024, 32, 64),
        timing: smartrefresh_dram::TimingParams::ddr2_667().with_retention(Duration::from_ms(16)),
    }
}

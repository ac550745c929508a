//! The `resilience-fleet` workload: an orchestrated `GridSpec` with every
//! optional engine armed on its disturbance cells (SECDED with covering
//! scrub, the hammer injector, RFM), run by the supervised worker pool
//! with a checkpoint written after every epoch.
//!
//! The same grid on one seed is the orchestrator probe the other
//! workloads' traced runs use.

use std::path::{Path, PathBuf};

use smartrefresh_core::write_atomic;
use smartrefresh_ctrl::{EccConfig, ScrubConfig};
use smartrefresh_dram::time::Duration;
use smartrefresh_orchestrator::{
    run_fleet, CellState, FaultTag, FleetCheckpoint, GridSpec, ModuleKind, OrchestratorConfig,
    PolicyTag, CHECKPOINT_FILE,
};
use smartrefresh_sim::digest::digest_run;
use smartrefresh_sim::rfm::standard_defense;
use smartrefresh_sim::{DisturbanceConfig, ExperimentConfig, Topology};
use smartrefresh_workloads::{find, WorkloadSpec};

use crate::metrics::{median, Metrics};
use crate::outcome::Outcome;
use crate::replay::{self, differential, generate, sim_ms, timed, traced_run, Counts, LayerAcc};

/// Span scale of every cell (the miniature modules retain 8 ms, so one
/// cell simulates 64 ms × this).
pub const SCALE: f64 = 16.0;

/// Worker threads of the pool.
pub const WORKERS: usize = 2;

/// Checkpoint writes timed for `orchestrator.checkpoint_ms`.
const CHECKPOINT_REPS: usize = 5;

/// The grid, each cell's configuration, and where checkpoints go.
pub struct Setup {
    grid: GridSpec,
    cells: Vec<(ExperimentConfig, WorkloadSpec)>,
    dir: PathBuf,
}

/// The grid over `seeds` consecutive seeds from `seed`: {gcc, radix} ×
/// {Mini, Mini3d} × {Cbr, Smart} × {Clean, Disturbance} × seeds.
///
/// # Errors
///
/// An invalid grid, or an unwritable checkpoint directory.
pub fn setup(seed: u64, seeds: u64, dir: &Path) -> Result<Setup, String> {
    let grid = GridSpec {
        workloads: vec!["gcc".into(), "radix".into()],
        modules: vec![ModuleKind::Mini, ModuleKind::Mini3d],
        policies: vec![PolicyTag::Cbr, PolicyTag::Smart],
        faults: vec![FaultTag::Clean, FaultTag::Disturbance],
        seeds: (0..seeds).map(|i| seed.wrapping_add(i)).collect(),
        scale_bits: SCALE.to_bits(),
    };
    grid.validate().map_err(|e| e.to_string())?;
    let cells = (0..grid.cell_count())
        .map(|i| cell_config(&grid, i).ok_or("grid names a workload missing from the catalog"))
        .collect::<Result<Vec<_>, _>>()?;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(Setup {
        grid,
        cells,
        dir: dir.to_path_buf(),
    })
}

/// The configuration and stream spec `GridSpec::run_cell` builds for a
/// cell.
fn cell_config(grid: &GridSpec, index: u64) -> Option<(ExperimentConfig, WorkloadSpec)> {
    let cell = grid.cell(index);
    let entry = find(&cell.workload)?;
    let (module, power, topology) = cell.module.instantiate();
    let policy = cell.policy.kind(cell.seed);
    let mut cfg = match topology {
        Topology::Conventional => ExperimentConfig::conventional(module, power, policy),
        Topology::Stacked => ExperimentConfig::stacked(module, power, policy),
    }
    .scaled(grid.scale());
    cfg.seed = cell.seed;
    cfg.reference = Duration::from_ms(64);
    if cell.fault == FaultTag::Disturbance {
        cfg.ecc = Some(EccConfig::new(cell.seed).with_scrub(ScrubConfig::covering(
            cfg.module.timing.retention,
            cfg.module.geometry.total_rows(),
        )));
        cfg.disturbance = Some(DisturbanceConfig::campaign_default());
        cfg.rfm = Some(standard_defense());
    }
    let spec = match topology {
        Topology::Conventional => entry.conventional,
        Topology::Stacked => entry.stacked,
    };
    Some((cfg, spec))
}

/// Runs the grid through the worker pool; returns the judged outcome,
/// the final checkpoint and the pool's wall time in ns.
fn pool_pass(s: &Setup) -> (Outcome, FleetCheckpoint, f64) {
    let mut out = Outcome::default();
    let mut ckpt = FleetCheckpoint::fresh(s.grid.clone(), None);
    let cfg = OrchestratorConfig {
        workers: WORKERS,
        cells_per_epoch: 8,
        ..OrchestratorConfig::default()
    };
    let (ns, res) = timed(|| run_fleet(&mut ckpt, &cfg, Some(&s.dir), |_| {}));
    let cells = s.grid.cell_count();
    out.attempted = cells;
    match res {
        Ok(true) => {}
        Ok(false) => out.fail(cells, "fleet halted before finishing".into()),
        Err(e) => out.fail(cells, format!("fleet: {e}")),
    }
    let mut latency_ns = Vec::new();
    for (i, state) in ckpt.cells.iter().enumerate() {
        out.sim_ms += sim_ms(&s.cells[i].0);
        match state {
            CellState::Done(o) if o.integrity_ok => {
                if s.grid.cell(i as u64).policy == PolicyTag::Smart {
                    latency_ns.push(o.avg_latency_ns);
                }
            }
            CellState::Done(_) => out.fail(1, format!("cell {i}: retention integrity violated")),
            _ => out.fail(1, format!("cell {i}: did not complete")),
        }
    }
    out.digest = ckpt.fleet_digest();
    let mean = latency_ns.iter().sum::<f64>() / latency_ns.len().max(1) as f64;
    out.report = vec![("demand_lat_mean_ns", mean, "ns")];
    (out, ckpt, ns)
}

/// Runs one untraced pass.
pub fn pass(s: &Setup) -> Outcome {
    pool_pass(s).0
}

/// Runs one traced pass: the pool pass, then every cell serially through
/// `GridSpec::run_cell` (whose digests must match the pool's), then the
/// checkpoint write on its own. With `layers`, every clean stream also
/// goes through [`differential`] and every disturbance cell through
/// [`traced_run`], filling the workloads, cache, ctrl, core, dram and
/// energy metrics.
pub fn traced(s: &Setup, m: &mut Metrics, layers: bool) -> Outcome {
    let (mut out, ckpt, pool_ns) = pool_pass(s);
    let grid = &s.grid;
    let mut serial_ns = 0.0;
    let (mut clean_ms, mut dist_ms) = (Vec::new(), Vec::new());
    let mut results = Vec::new();
    let mut dist_rfm = 0u64;
    for i in 0..grid.cell_count() {
        let cell = grid.cell(i);
        let (ns, res) = timed(|| grid.run_cell(i));
        serial_ns += ns;
        let r = match res {
            Ok(r) => r,
            Err(e) => {
                out.fail(1, format!("cell {i}: {e}"));
                results.push(None);
                continue;
            }
        };
        let pooled = match &ckpt.cells[i as usize] {
            CellState::Done(o) => Some(o.digest),
            _ => None,
        };
        if pooled != Some(digest_run(&r)) {
            out.fail(
                1,
                format!("cell {i}: serial result differs from the pool's"),
            );
        }
        out.engines.add_run(&r);
        if cell.fault == FaultTag::Disturbance {
            dist_ms.push(ns / 1e6);
            dist_rfm += r.ctrl.rfm_commands;
            if r.ctrl.scrubs_issued == 0 {
                out.fail(1, format!("cell {i}: the patrol scrubber never ran"));
            }
        } else {
            clean_ms.push(ns / 1e6);
        }
        results.push(Some(r));
    }
    if dist_rfm == 0 {
        out.fail(1, "no RFM command over the disturbance cells".into());
    }
    m.set("orchestrator.cell_ms_clean", median(&clean_ms));
    m.set("orchestrator.cell_ms_dist", median(&dist_ms));
    m.set(
        "orchestrator.pool_eff",
        serial_ns / (WORKERS as f64 * pool_ns),
    );
    let file = s.dir.join(CHECKPOINT_FILE);
    let mut ckpt_ms = Vec::new();
    for _ in 0..CHECKPOINT_REPS {
        let (ns, res) = timed(|| write_atomic(&file, &ckpt.to_bytes()));
        if let Err(e) = res {
            out.fail(1, format!("checkpoint write: {e}"));
        }
        ckpt_ms.push(ns / 1e6);
    }
    m.set("orchestrator.checkpoint_ms", median(&ckpt_ms));
    if layers {
        layer_replays(s, &results, m, &mut out);
    }
    out
}

/// Replays the cells layer by layer; see [`traced`].
fn layer_replays(
    s: &Setup,
    results: &[Option<smartrefresh_sim::RunResult>],
    m: &mut Metrics,
    out: &mut Outcome,
) {
    let grid = &s.grid;
    let mut acc = LayerAcc::default();
    let mut probed = false;
    for i in 0..grid.cell_count() {
        let cell = grid.cell(i);
        let (cfg, spec) = &s.cells[i as usize];
        let expect = results[i as usize].as_ref().map(Counts::of);
        if cell.fault == FaultTag::Disturbance {
            let events = generate(cfg, spec);
            match traced_run(cfg, &events) {
                Ok(t) => {
                    out.engines.flips += t.flips;
                    if Some(t.counts) != expect {
                        out.fail(1, format!("cell {i}: traced counts differ from run_cell"));
                    }
                }
                Err(e) => out.fail(1, format!("cell {i}: traced replay: {e}")),
            }
            continue;
        }
        // Clean streams: the CBR cell carries the stream; its Smart twin
        // is the same cell index with the policy axis advanced.
        if cell.policy != PolicyTag::Cbr {
            continue;
        }
        let twin = i + grid.seeds.len() as u64 * grid.faults.len() as u64;
        let smart_cfg = &s.cells[twin as usize].0;
        match differential(cfg, smart_cfg, spec) {
            Ok((d, events)) => {
                let twin_expect = results[twin as usize].as_ref().map(Counts::of);
                if !d.counts_match()
                    || expect != Some(Counts::of(&d.cbr.1))
                    || twin_expect != Some(Counts::of(&d.smart.1))
                {
                    out.fail(2, format!("cells {i}/{twin}: traced counts differ"));
                }
                acc.add(&d);
                if !probed {
                    probed = true;
                    match replay::dram_probe(cfg, &events) {
                        Ok(ns) => m.set("dram.ns_per_act_rd_pre", ns),
                        Err(e) => out.fail(1, format!("device probe: {e}")),
                    }
                }
            }
            Err(e) => out.fail(2, format!("cells {i}/{twin}: {e}")),
        }
    }
    acc.emit(m);
}

//! Metric names, units and the result line.
//!
//! The names and units below are the ones `BENCHMARK.json` declares; a
//! run prints exactly the end-to-end set untraced and exactly the
//! per-layer set traced.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_ms_per_s", "ms/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_ns_per_event", "ns"),
    ("workloads.events", "count"),
    ("cache.ns_per_access", "ns"),
    ("cache.accesses", "count"),
    ("cache.hit_rate", "ratio"),
    ("ctrl.access_ns", "ns"),
    ("ctrl.access_calls", "count"),
    ("ctrl.row_hit_frac", "ratio"),
    ("ctrl.demand_ns_per_tx", "ns"),
    ("ctrl.advance_ns_per_call", "ns"),
    ("ctrl.glue_ns_per_wakeup", "ns"),
    ("ctrl.cbr_ns_per_refresh", "ns"),
    ("ctrl.smart_ns_per_tick", "ns"),
    ("ctrl.scrubs", "count"),
    ("ctrl.rfm_commands", "count"),
    ("ctrl.darp_deferred", "count"),
    ("ecc.ce_corrected", "count"),
    ("ecc.ue_detected", "count"),
    ("faults.flips", "count"),
    ("core.policy_advance_ns_per_tick", "ns"),
    ("core.policy_ticks", "count"),
    ("core.hook_ns_per_call", "ns"),
    ("core.hook_calls", "count"),
    ("core.sram_reads", "count"),
    ("core.sram_writes", "count"),
    ("core.refreshes_issued", "count"),
    ("core.refresh_skip_frac", "ratio"),
    ("core.queue_high_water", "count"),
    ("dram.commands", "count"),
    ("dram.refreshes", "count"),
    ("dram.ns_per_act_rd_pre", "ns"),
    ("energy.price_ns_per_run", "ns"),
    ("sim.experiment_self_frac", "ratio"),
    ("sim.trace_overhead_frac", "ratio"),
    ("sim.campaign_faults_ms", "ms"),
    ("sim.campaign_scrub_ms", "ms"),
    ("sim.campaign_powerdown_ms", "ms"),
    ("sim.campaign_coschedule_ms", "ms"),
    ("sim.campaign_rfm_ms", "ms"),
    ("sim.campaign_hotchannel_ms", "ms"),
    ("sim.scheduler_forced_closures", "count"),
    ("sim.hotchannel_closures", "count"),
    ("orchestrator.cell_ms_clean", "ms"),
    ("orchestrator.cell_ms_dist", "ms"),
    ("orchestrator.pool_eff", "ratio"),
    ("orchestrator.checkpoint_ms", "ms"),
    ("host.spin_ms", "ms"),
    ("host.spin_eff_2t", "ratio"),
    ("host.chase_ms", "ms"),
];

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `name`; the name must be declared in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Renders the `metrics` object for `table`, or names the first metric
    /// that was not recorded or is not finite.
    pub fn render(&self, table: &[(&str, &str)]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = self
                .get(name)
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        Ok(out)
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

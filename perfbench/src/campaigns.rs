//! The `campaigns` workload: the six system campaigns over a run of
//! consecutive seeds — the only workload that runs
//! `MultiChannelSystem`, the `MaintenanceScheduler` with its timing
//! wheel, DARP/SARP and CKE power-down. The two campaigns that can shard
//! their setups run on one thread, like the rest of the pass.

use std::time::Instant as WallClock;

use smartrefresh_sim::digest::Digest64;
use smartrefresh_sim::report::{
    render_campaign, render_coschedule, render_hotchannel, render_powerdown_campaign, render_rfm,
    render_scrub_campaign,
};
use smartrefresh_sim::{
    run_campaign, run_coschedule_campaign_threaded, run_hot_channel_campaign_threaded,
    run_powerdown_campaign, run_rfm_campaign, run_scrub_campaign, CampaignConfig, CoscheduleConfig,
    HotChannelConfig, RfmCampaignConfig,
};

use crate::metrics::Metrics;
use crate::outcome::Outcome;

/// The campaigns in run order, named as in `sim.campaign_<name>_ms`.
const NAMES: [&str; 6] = [
    "faults",
    "scrub",
    "powerdown",
    "coschedule",
    "rfm",
    "hotchannel",
];

/// `sim.campaign_<name>_ms`, in [`NAMES`] order.
const METRICS: [&str; 6] = [
    "sim.campaign_faults_ms",
    "sim.campaign_scrub_ms",
    "sim.campaign_powerdown_ms",
    "sim.campaign_coschedule_ms",
    "sim.campaign_rfm_ms",
    "sim.campaign_hotchannel_ms",
];

/// The campaign configurations of one seed.
struct Configs {
    seed: u64,
    campaign: CampaignConfig,
    coschedule: CoscheduleConfig,
    rfm: RfmCampaignConfig,
    hot: HotChannelConfig,
}

/// Configurations for every seed of one pass.
pub struct Setup {
    seeds: Vec<Configs>,
}

/// `seeds` consecutive seeds from `seed`.
pub fn setup(seed: u64, seeds: u64) -> Setup {
    let seeds = (0..seeds)
        .map(|i| {
            let seed = seed.wrapping_add(i);
            Configs {
                seed,
                campaign: CampaignConfig::quick(seed),
                coschedule: CoscheduleConfig::quick(seed),
                rfm: RfmCampaignConfig::quick(seed),
                hot: HotChannelConfig::quick(seed),
            }
        })
        .collect();
    Setup { seeds }
}

/// What one campaign returned: verdict, rendered report, simulated ms,
/// and the engine that failed to engage, if any.
struct Ran {
    holds: bool,
    report: String,
    sim_ms: f64,
    idle_engine: Option<&'static str>,
}

/// Runs campaign `which` on one seed's configurations, adding its engine
/// counts to `out`.
fn run_one(which: usize, c: &Configs, out: &mut Outcome) -> Result<Ran, String> {
    let ms =
        |d: smartrefresh_dram::time::Duration, runs: usize| d.as_secs_f64() * 1e3 * runs as f64;
    let e = &mut out.engines;
    let ran = match which {
        0 => {
            let cfg = &c.campaign;
            let r = run_campaign(cfg).map_err(|e| e.to_string())?;
            for o in &r.outcomes {
                e.flips += o.faults.rows_bit_flipped + o.faults.disturbance_bits_flipped;
            }
            Ran {
                holds: r.all_hold(),
                report: render_campaign(&r),
                sim_ms: ms(cfg.horizon, r.outcomes.len()),
                idle_engine: None,
            }
        }
        1 => {
            let cfg = &c.campaign;
            let r = run_scrub_campaign(cfg).map_err(|e| e.to_string())?;
            let mut scrubs = 0;
            for o in &r.outcomes {
                scrubs += o.scrubs_issued + o.forced_scrubs;
                e.ce_corrected += o.ce_corrected;
                e.ue_detected += o.ue_detected;
            }
            e.scrubs += scrubs;
            // Every scenario plus the paired with/without-scrub savings runs.
            Ran {
                holds: r.all_hold(),
                report: render_scrub_campaign(&r),
                sim_ms: ms(cfg.horizon, r.outcomes.len() + 2),
                idle_engine: (scrubs == 0).then_some("scrub campaign issued no scrubs"),
            }
        }
        2 => {
            let cfg = &c.campaign;
            let r = run_powerdown_campaign(cfg).map_err(|e| e.to_string())?;
            // Three policies plus two runs per idle-sweep point.
            Ran {
                holds: r.all_hold(),
                report: render_powerdown_campaign(&r),
                sim_ms: ms(cfg.horizon, r.outcomes.len() + 2 * r.sweep.len()),
                idle_engine: None,
            }
        }
        3 => {
            let cfg = &c.coschedule;
            let r = run_coschedule_campaign_threaded(cfg, 1).map_err(|e| e.to_string())?;
            let runs = [
                &r.uncoordinated_clean,
                &r.coscheduled_clean,
                &r.uncoordinated_storm,
                &r.coscheduled_storm,
            ];
            for o in runs {
                e.scrubs += o.scrubs.iter().sum::<u64>() + o.forced_scrubs;
                e.ce_corrected += o.ce_corrected;
                e.ue_detected += o.ue_detected;
                e.forced_closures += o.forced_closures;
            }
            Ran {
                holds: r.all_hold(),
                report: render_coschedule(&r),
                sim_ms: ms(
                    cfg.module.timing.retention * u64::from(cfg.epochs),
                    runs.len(),
                ),
                idle_engine: None,
            }
        }
        4 => {
            let cfg = &c.rfm;
            let r = run_rfm_campaign(cfg).map_err(|e| e.to_string())?;
            let runs = [&r.undefended, &r.defended, &r.exhaustion];
            for o in runs {
                e.rfm_commands += o.rfm_commands;
                e.ce_corrected += o.ce_corrected;
                e.ue_detected += o.ue_detected;
                e.flips += o.bits_flipped;
            }
            Ran {
                holds: r.all_hold(),
                report: render_rfm(&r),
                sim_ms: ms(cfg.horizon, runs.len()),
                idle_engine: (r.defended.rfm_commands == 0).then_some("defended run issued no RFM"),
            }
        }
        _ => {
            let r = run_hot_channel_campaign_threaded(&c.hot, 1).map_err(|e| e.to_string())?;
            for o in [&r.baseline, &r.darp] {
                e.scrubs += o.scrubs.iter().sum::<u64>();
                e.darp_deferred += o.darp.deferred;
                e.hot_closures += o.closures;
            }
            Ran {
                holds: r.darp_wins(),
                report: render_hotchannel(&r),
                sim_ms: ms(r.horizon, 2),
                idle_engine: (r.darp.darp.deferred == 0).then_some("DARP deferred no refresh"),
            }
        }
    };
    Ok(ran)
}

/// Runs one pass; with `m`, records each campaign's mean time per seed
/// and the closure counts.
pub fn pass(s: &Setup, m: Option<&mut Metrics>) -> Outcome {
    let mut out = Outcome::default();
    let mut d = Digest64::new();
    let mut ns = [0f64; 6];
    for c in &s.seeds {
        let seed = c.seed;
        for (which, name) in NAMES.iter().enumerate() {
            out.attempted += 1;
            let start = WallClock::now();
            let ran = run_one(which, c, &mut out);
            ns[which] += start.elapsed().as_nanos() as f64;
            match ran {
                Ok(r) => {
                    out.sim_ms += r.sim_ms;
                    d.update_str(&r.report);
                    if !r.holds {
                        out.fail(1, format!("{name} seed {seed}: campaign verdict failed"));
                    } else if let Some(why) = r.idle_engine {
                        out.fail(1, format!("{name} seed {seed}: {why}"));
                    }
                }
                Err(e) => {
                    d.update_str(&e);
                    out.fail(1, format!("{name} seed {seed}: {e}"));
                }
            }
        }
    }
    out.digest = d.finish();
    if let Some(m) = m {
        for (metric, total) in METRICS.iter().zip(ns) {
            m.set(metric, total / 1e6 / s.seeds.len().max(1) as f64);
        }
        m.set(
            "sim.scheduler_forced_closures",
            out.engines.forced_closures as f64,
        );
        m.set("sim.hotchannel_closures", out.engines.hot_closures as f64);
    }
    out
}

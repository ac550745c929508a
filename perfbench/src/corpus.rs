//! The corpus workloads, `conv2gb` and `stacked32`: figure-corpus slices
//! run the way `figures.rs` runs them, one benchmark at a time on one
//! thread, each entry's stream generated once and consumed by CBR and
//! then Smart Refresh, at a scale where the figures land near the
//! reference. Each pass is gated on fidelity to
//! `docs/figures_reference_output.txt`.

use std::collections::BTreeMap;

use smartrefresh_core::SmartRefreshConfig;
use smartrefresh_dram::configs::{conventional_2gb, stacked_3d_64mb};
use smartrefresh_dram::time::Duration;
use smartrefresh_energy::DramPowerParams;
use smartrefresh_sim::digest::{digest_run, Digest64};
use smartrefresh_sim::experiment::run_experiment_with_events;
use smartrefresh_sim::{ExperimentConfig, PolicyKind, RunResult};
use smartrefresh_workloads::catalog::catalog;
use smartrefresh_workloads::WorkloadSpec;

use crate::metrics::Metrics;
use crate::outcome::Outcome;
use crate::replay::{self, differential, generate, sim_ms, LayerAcc};

/// Span scale of both corpus workloads: the smallest at which the
/// refresh-rate and refresh-savings GMEANs of both slices sit inside the
/// bands below (scale 0.3 and 0.4 do not: the counters are still in
/// their start-up transient).
pub const SCALE: f64 = 0.5;

/// Largest accepted |Smart refresh-rate GMEAN error|, percent of the
/// reference GMEAN over the same benchmarks.
pub const RATE_BAND_PCT: f64 = 5.0;

/// Largest accepted |refresh-savings GMEAN error|, percentage points.
pub const SAVINGS_BAND_PTS: f64 = 3.0;

/// Which slice of the figure corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slice {
    /// The six BioBench entries on the 2 GB module (Figs 6–8).
    Conv2Gb,
    /// All 32 entries on the 64 MB stack at 32 ms (Figs 15–17).
    Stacked32,
}

/// Reference GMEANs over the slice's benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    rate: f64,
    refresh_savings: f64,
    total_savings: f64,
}

/// Everything a corpus pass needs, built ahead of it.
pub struct Setup {
    slice: Slice,
    specs: Vec<WorkloadSpec>,
    cbr: ExperimentConfig,
    smart: ExperimentConfig,
    reference: Reference,
}

/// Per-figure, per-benchmark values of the reference output; savings as
/// fractions.
type RefTable = BTreeMap<String, BTreeMap<String, f64>>;

/// Parses `docs/figures_reference_output.txt`.
fn parse_reference(text: &str) -> Result<RefTable, String> {
    let mut table = RefTable::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("=== ") {
            let fig = rest.split(':').next().unwrap_or_default().to_owned();
            table.entry(fig.clone()).or_default();
            current = Some(fig);
            continue;
        }
        let Some(fig) = &current else { continue };
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.len() < 3 || ["benchmark", "Baseline:", "GMEAN:"].contains(&tokens[0]) {
            continue;
        }
        let raw = tokens[tokens.len() - 1];
        let value = match raw.strip_suffix('%') {
            Some(pct) => pct.parse::<f64>().map(|v| v / 100.0),
            None => raw.parse::<f64>(),
        }
        .map_err(|_| format!("reference {fig}: unreadable value `{raw}`"))?;
        table
            .entry(fig.clone())
            .or_default()
            .insert(tokens[0].to_owned(), value);
    }
    Ok(table)
}

/// Geometric mean as the figures take it (values floored at 1e-9).
pub fn gmean(values: &[f64]) -> f64 {
    let n = values.len().max(1) as f64;
    (values.iter().map(|v| v.max(1e-9).ln()).sum::<f64>() / n).exp()
}

fn reference_gmean(table: &RefTable, fig: &str, names: &[&str]) -> Result<f64, String> {
    let rows = table
        .get(fig)
        .ok_or_else(|| format!("reference output has no {fig}"))?;
    let values = names
        .iter()
        .map(|n| {
            rows.get(*n)
                .copied()
                .ok_or_else(|| format!("reference {fig} has no row for {n}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(gmean(&values))
}

/// Builds the slice's configurations and reads its reference GMEANs.
///
/// # Errors
///
/// An unreadable or incomplete reference file.
pub fn setup(slice: Slice, seed: u64, reference_text: &str) -> Result<Setup, String> {
    let entries = catalog();
    let (specs, mut cbr, figs): (Vec<WorkloadSpec>, ExperimentConfig, [&str; 3]) = match slice {
        Slice::Conv2Gb => (
            entries
                .iter()
                .take(6)
                .map(|e| e.conventional.clone())
                .collect(),
            ExperimentConfig::conventional(
                conventional_2gb(),
                DramPowerParams::ddr2_2gb(),
                PolicyKind::CbrDistributed,
            ),
            ["Fig06", "Fig07", "Fig08"],
        ),
        Slice::Stacked32 => (
            entries.iter().map(|e| e.stacked.clone()).collect(),
            ExperimentConfig::stacked(
                stacked_3d_64mb(Duration::from_ms(32)),
                DramPowerParams::stacked_3d_64mb(),
                PolicyKind::CbrDistributed,
            ),
            ["Fig15", "Fig16", "Fig17"],
        ),
    };
    cbr = cbr.scaled(SCALE);
    cbr.seed = seed;
    cbr.reference = Duration::from_ms(64);
    let mut smart = cbr.clone();
    smart.policy = PolicyKind::Smart(SmartRefreshConfig::paper_defaults());
    let table = parse_reference(reference_text)?;
    let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
    let reference = Reference {
        rate: reference_gmean(&table, figs[0], &names)?,
        refresh_savings: reference_gmean(&table, figs[1], &names)?,
        total_savings: reference_gmean(&table, figs[2], &names)?,
    };
    Ok(Setup {
        slice,
        specs,
        cbr,
        smart,
        reference,
    })
}

/// CBR and Smart Refresh results for one benchmark.
struct Pair {
    cbr: RunResult,
    smart: RunResult,
}

/// Runs one untraced pass.
pub fn pass(s: &Setup) -> Outcome {
    let mut pairs = Vec::with_capacity(s.specs.len());
    let mut out = Outcome::default();
    for spec in &s.specs {
        let events = generate(&s.cbr, spec);
        let run =
            |cfg| run_experiment_with_events(cfg, events.iter().copied(), spec.name, spec.apki);
        match (run(&s.cbr), run(&s.smart)) {
            (Ok(cbr), Ok(smart)) => pairs.push(Pair { cbr, smart }),
            (a, b) => {
                out.attempted += 2;
                let why = a.err().or(b.err()).map(|e| e.to_string());
                out.fail(2, format!("{}: {}", spec.name, why.unwrap_or_default()));
            }
        }
    }
    judge(s, &pairs, &mut out);
    out
}

/// Runs one traced pass: each stream through [`differential`], plus the
/// standalone device and (for `conv2gb`) cache probes on the first.
pub fn traced(s: &Setup, m: &mut Metrics) -> Outcome {
    let mut pairs = Vec::with_capacity(s.specs.len());
    let mut out = Outcome::default();
    let mut acc = LayerAcc::default();
    for (i, spec) in s.specs.iter().enumerate() {
        match differential(&s.cbr, &s.smart, spec) {
            Ok((d, events)) => {
                if !d.counts_match() {
                    out.fail(
                        2,
                        format!("{}: traced counts differ from untraced", spec.name),
                    );
                }
                if !(d.traced_cbr.integrity_ok && d.traced_smart.integrity_ok) {
                    out.fail(2, format!("{}: traced replay lost integrity", spec.name));
                }
                out.engines.flips += d.traced_cbr.flips + d.traced_smart.flips;
                acc.add(&d);
                if i == 0 {
                    probes(s, &events, m, &mut out);
                }
                pairs.push(Pair {
                    cbr: d.cbr.1,
                    smart: d.smart.1,
                });
            }
            Err(e) => {
                out.attempted += 2;
                out.fail(2, format!("{}: {e}", spec.name));
            }
        }
    }
    acc.emit(m);
    judge(s, &pairs, &mut out);
    out
}

fn probes(
    s: &Setup,
    events: &[smartrefresh_workloads::TraceEvent],
    m: &mut Metrics,
    out: &mut Outcome,
) {
    match replay::dram_probe(&s.cbr, events) {
        Ok(ns) => m.set("dram.ns_per_act_rd_pre", ns),
        Err(e) => out.fail(1, format!("device probe: {e}")),
    }
    if s.slice == Slice::Conv2Gb {
        // No cache on this path: probe the 64 MB stacked cache standalone
        // with the same stream.
        let (ns, n, hit) = replay::cache_probe(64 << 20, events);
        m.set("cache.ns_per_access", ns);
        m.set("cache.accesses", n as f64);
        m.set("cache.hit_rate", hit);
    }
}

/// Checks a pass's results: integrity, engagement and fidelity; folds the
/// digest; reports the fidelity errors and demand latency.
fn judge(s: &Setup, pairs: &[Pair], out: &mut Outcome) {
    let mut d = Digest64::new();
    let (mut cbr_refreshes, mut smart_refreshes) = (0u64, 0u64);
    let (mut latency_ps, mut transactions) = (0f64, 0u64);
    let (mut rates, mut refresh_sav, mut total_sav) = (Vec::new(), Vec::new(), Vec::new());
    for p in pairs {
        out.attempted += 2;
        out.sim_ms += 2.0 * sim_ms(&s.cbr);
        d.update_u64(digest_run(&p.cbr));
        d.update_u64(digest_run(&p.smart));
        out.engines.add_run(&p.cbr);
        out.engines.add_run(&p.smart);
        if !(p.cbr.integrity_ok && p.smart.integrity_ok) {
            out.fail(
                2,
                format!("{}: retention integrity violated", p.cbr.workload),
            );
        }
        if p.smart.ops.total_refreshes() == 0 {
            out.fail(
                1,
                format!("{}: Smart Refresh issued no refreshes", p.cbr.workload),
            );
        }
        cbr_refreshes += p.cbr.ops.total_refreshes();
        smart_refreshes += p.smart.ops.total_refreshes();
        latency_ps += p.smart.ctrl.total_latency.as_ps() as f64;
        transactions += p.smart.ctrl.transactions;
        rates.push(p.smart.refreshes_per_sec);
        refresh_sav.push(p.smart.energy.refresh_savings_vs(&p.cbr.energy));
        total_sav.push(p.smart.energy.total_savings_vs(&p.cbr.energy));
    }
    out.digest = d.finish();
    if smart_refreshes >= cbr_refreshes {
        out.fail(
            out.attempted,
            "Smart Refresh skipped no refreshes over the pass".into(),
        );
    }
    let r = &s.reference;
    let rate_err = (gmean(&rates) / r.rate - 1.0) * 100.0;
    let refresh_err = (gmean(&refresh_sav) - r.refresh_savings) * 100.0;
    let total_err = (gmean(&total_sav) - r.total_savings) * 100.0;
    if pairs.len() == s.specs.len()
        && (rate_err.abs() > RATE_BAND_PCT || refresh_err.abs() > SAVINGS_BAND_PTS)
    {
        out.fail(
            out.attempted - out.failed,
            format!(
                "fidelity gate missed: refresh rate {rate_err:+.2}% (band ±{RATE_BAND_PCT}%), \
                 refresh savings {refresh_err:+.2} pts (band ±{SAVINGS_BAND_PTS} pts)"
            ),
        );
    }
    out.report = vec![
        ("refresh_rate_err_pct", rate_err.abs(), "%"),
        ("refresh_savings_err_pts", refresh_err.abs(), "pts"),
        ("total_savings_err_pts", total_err.abs(), "pts"),
        (
            "demand_lat_mean_ns",
            latency_ps / transactions.max(1) as f64 / 1e3,
            "ns",
        ),
    ];
}

//! Layer-by-layer replays of one pre-generated stream.
//!
//! [`differential`] runs a stream the way the figure corpus does
//! (`run_experiment_with_events`, untraced) under `NoRefresh`, CBR and
//! Smart Refresh, then replays CBR and Smart Refresh through
//! [`traced_run`]: a benchmark-side copy of the experiment loop that calls
//! the program's public layers — `StackedDramCache::access`,
//! `MemoryController::{advance_to, access}` and the policy behind a
//! [`TracedPolicy`] — inside sampled spans. The traced replay must
//! reproduce the untraced run's deterministic counts exactly.
//! [`LayerAcc`] folds replays into the per-layer metrics.

use std::hint::black_box;
use std::time::Instant as WallClock;

use smartrefresh_cache::StackedDramCache;
use smartrefresh_core::{CbrDistributed, RefreshPolicy, SmartRefresh};
use smartrefresh_ctrl::{ControllerStats, MemTransaction, MemoryController, SimError};
use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::{DramDevice, OpStats};
use smartrefresh_energy::SramArrayModel;
use smartrefresh_faults::{FaultInjector, FaultSite};
use smartrefresh_sim::experiment::run_experiment_with_events;
use smartrefresh_sim::{ExperimentConfig, PolicyKind, RunResult, Topology};
use smartrefresh_workloads::{AccessGenerator, TraceEvent, WorkloadSpec};

use crate::metrics::Metrics;
use crate::trace::{PolicySpans, Span};

/// Pricing calls per timed batch: one pricing is well under a
/// microsecond, so it is timed in batches.
const PRICE_REPS: u32 = 64;

/// Events replayed through the standalone device probe, at most.
const DRAM_PROBE_EVENTS: usize = 400_000;

/// Wall time of `f` in nanoseconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = WallClock::now();
    let out = f();
    (start.elapsed().as_nanos() as f64, out)
}

/// Simulated span (warm-up plus measurement) of one experiment, in ms.
pub fn sim_ms(cfg: &ExperimentConfig) -> f64 {
    (cfg.warmup + cfg.measure).as_secs_f64() * 1e3
}

/// Generates the stream an experiment consumes, cut at its horizon —
/// the same stream `figures.rs` and `GridSpec::run_cell` feed the
/// controller.
pub fn generate(cfg: &ExperimentConfig, spec: &WorkloadSpec) -> Vec<TraceEvent> {
    let geometry = cfg.workload_geometry.unwrap_or(cfg.module.geometry);
    let horizon = Instant::ZERO + cfg.warmup + cfg.measure;
    AccessGenerator::new(spec, geometry, cfg.reference, 0, cfg.seed)
        .take_while(|e| e.time <= horizon)
        .collect()
}

/// The deterministic counts a traced replay must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Demand transactions.
    pub transactions: u64,
    /// Refresh operations.
    pub refreshes: u64,
    /// Counter SRAM reads.
    pub sram_reads: u64,
    /// Counter SRAM writes.
    pub sram_writes: u64,
    /// Device commands of every kind.
    pub commands: u64,
}

/// Every device command in `ops`.
pub fn commands(ops: &OpStats) -> u64 {
    ops.activates
        + ops.reads
        + ops.writes
        + ops.precharges
        + ops.total_refreshes()
        + ops.scrubs
        + ops.rfm_refreshes
}

impl Counts {
    /// The counts of an untraced run.
    pub fn of(r: &RunResult) -> Counts {
        Counts {
            transactions: r.ctrl.transactions,
            refreshes: r.ops.total_refreshes(),
            sram_reads: r.sram_ops.0,
            sram_writes: r.sram_ops.1,
            commands: commands(&r.ops),
        }
    }
}

/// Spans the experiment loop records around the controller and cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopSpans {
    /// `StackedDramCache::access` (stacked topology only).
    pub cache: Span,
    /// `MemoryController::advance_to`.
    pub advance_to: Span,
    /// `MemoryController::access`, called once the controller is already
    /// at the arrival time.
    pub access: Span,
}

/// Outcome of one traced replay.
#[derive(Debug, Clone, Copy)]
pub struct TracedRun {
    /// Counts over the measurement span.
    pub counts: Counts,
    /// Retention integrity at the horizon.
    pub integrity_ok: bool,
    /// Loop spans.
    pub spans: LoopSpans,
    /// Policy spans.
    pub policy: PolicySpans,
    /// Hits of the stacked cache (stacked topology only).
    pub cache_hits: u64,
    /// Bits flipped by the disturbance injector over the whole run.
    pub flips: u64,
    /// Nanoseconds to price the run's energy once.
    pub price_ns: f64,
    /// Wall time of the replay, excluding pricing.
    pub wall_ns: f64,
}

/// Replays `events` under `cfg` through the traced experiment loop.
///
/// # Errors
///
/// Propagates controller errors; rejects policies other than CBR and
/// Smart Refresh.
pub fn traced_run(cfg: &ExperimentConfig, events: &[TraceEvent]) -> Result<TracedRun, SimError> {
    let g = cfg.module.geometry;
    let r = cfg.module.timing.retention;
    match cfg.policy {
        PolicyKind::CbrDistributed => run_typed(cfg, events, CbrDistributed::new(g, r), 3),
        PolicyKind::Smart(s) => run_typed(cfg, events, SmartRefresh::new(g, r, s), s.counter_bits),
        _ => Err(SimError::Config {
            what: "the traced loop replays CBR and Smart Refresh only",
        }),
    }
}

/// State captured at the end of warm-up.
struct Snapshot {
    ops: OpStats,
    ctrl: ControllerStats,
    sram: (u64, u64),
    open: Duration,
}

fn snapshot<P: RefreshPolicy>(mc: &MemoryController<P>, at: Instant) -> Snapshot {
    let t = mc.policy().sram_traffic();
    Snapshot {
        ops: *mc.device().stats(),
        ctrl: *mc.stats(),
        sram: (t.reads, t.writes),
        open: mc.device().total_open_time(at),
    }
}

fn run_typed<P: RefreshPolicy>(
    cfg: &ExperimentConfig,
    events: &[TraceEvent],
    policy: P,
    counter_bits: u32,
) -> Result<TracedRun, SimError> {
    let start = WallClock::now();
    let module = &cfg.module;
    let device = DramDevice::new(module.geometry, module.timing);
    let mut mc = MemoryController::new(device, crate::trace::TracedPolicy::new(policy))
        .with_page_policy(cfg.page_policy)
        .with_counter_power(cfg.counter_power);
    if let Some(ecc) = cfg.ecc {
        mc = mc.with_ecc(ecc);
    }
    if let Some(d) = cfg.disturbance {
        mc = mc.with_fault_injector(FaultInjector::new().with_disturbance(
            FaultSite::ANY,
            d.act_threshold,
            d.flips_per_crossing,
            cfg.seed,
        ));
    }
    if let Some(rfm) = cfg.rfm {
        mc = mc.with_rfm(rfm)?;
    }
    let mut l3 = match cfg.topology {
        Topology::Conventional => None,
        Topology::Stacked => Some(StackedDramCache::new(module.geometry.capacity_bytes())),
    };
    let warm_end = Instant::ZERO + cfg.warmup;
    let horizon = warm_end + cfg.measure;
    let mut spans = LoopSpans::default();
    let mut warm: Option<Snapshot> = None;
    for event in events {
        if event.time > horizon {
            break;
        }
        if warm.is_none() && event.time > warm_end {
            spans.advance_to.time(|| mc.advance_to(warm_end))?;
            warm = Some(snapshot(&mc, warm_end));
        }
        let (addr, is_write) = match &mut l3 {
            None => (event.addr, event.is_write),
            Some(cache) => {
                let t = spans
                    .cache
                    .time(|| cache.access(event.addr, event.is_write));
                (t.stacked_addr, t.stacked_is_write)
            }
        };
        spans.advance_to.time(|| mc.advance_to(event.time))?;
        spans.access.time(|| {
            mc.access(MemTransaction {
                addr,
                is_write,
                arrival: event.time,
            })
        })?;
    }
    let warm = match warm {
        Some(w) => w,
        None => {
            spans.advance_to.time(|| mc.advance_to(warm_end))?;
            snapshot(&mc, warm_end)
        }
    };
    spans.advance_to.time(|| mc.advance_to(horizon))?;

    let ops = mc.device().stats().delta_since(&warm.ops);
    let ctrl = mc.stats().delta_since(&warm.ctrl);
    let traffic = mc.policy().sram_traffic();
    let sram = (traffic.reads - warm.sram.0, traffic.writes - warm.sram.1);
    let open_time = mc.device().total_open_time(horizon) - warm.open;
    let integrity_ok = mc.device().check_integrity(horizon).is_ok();
    let flips = mc
        .fault_injector()
        .map_or(0, |f| f.stats().disturbance_bits_flipped);
    let cache_hits = l3.as_ref().map_or(0, |c| c.stats().hits);
    let wall_ns = start.elapsed().as_nanos() as f64;

    // The pricing calls `run_experiment_with_events` makes for one run.
    let counters = SramArrayModel::artisan_90nm(&module.geometry, counter_bits);
    let row_bits = 32 - (module.geometry.rows() - 1).leading_zeros();
    let (batch_ns, _) = timed(|| {
        for _ in 0..PRICE_REPS {
            let dram = cfg.power.energy_with_powerdown(
                black_box(&ops),
                cfg.measure,
                open_time,
                ctrl.bus_charged_refreshes,
                ctrl.powerdown_time.min(cfg.measure),
            );
            black_box(dram.is_ok());
            black_box(counters.energy(black_box(sram.0), sram.1));
            black_box(
                cfg.bus
                    .energy(row_bits, black_box(ctrl.bus_charged_refreshes)),
            );
        }
    });

    Ok(TracedRun {
        counts: Counts {
            transactions: ctrl.transactions,
            refreshes: ops.total_refreshes(),
            sram_reads: sram.0,
            sram_writes: sram.1,
            commands: commands(&ops),
        },
        integrity_ok,
        spans,
        policy: mc.policy().spans,
        cache_hits,
        flips,
        price_ns: batch_ns / f64::from(PRICE_REPS),
        wall_ns,
    })
}

/// Replays the stream's row sequence on a standalone `DramDevice`, one
/// ACT, RD/WR, PRE triple per event; returns ns per triple.
///
/// # Errors
///
/// A device timing violation, as text.
pub fn dram_probe(cfg: &ExperimentConfig, events: &[TraceEvent]) -> Result<f64, String> {
    let g = cfg.module.geometry;
    let mut dev = DramDevice::new(g, cfg.module.timing);
    let mut now = Instant::ZERO;
    let events = &events[..events.len().min(DRAM_PROBE_EVENTS)];
    let (ns, res) = timed(|| -> Result<(), String> {
        for e in events {
            let d = g.decode(e.addr);
            let a = d.row_addr;
            now = now.max(dev.earliest_activate(a.rank));
            let act = dev.activate(a, now).map_err(|e| e.to_string())?;
            let col = if e.is_write {
                dev.write(a, d.column, act.bank_ready_at)
            } else {
                dev.read(a, d.column, act.bank_ready_at)
            };
            col.map_err(|e| e.to_string())?;
            let pre_at = dev.bank(a.rank, a.bank).earliest_precharge();
            now = dev
                .precharge(a.rank, a.bank, pre_at)
                .map_err(|e| e.to_string())?
                .bank_ready_at;
        }
        Ok(())
    });
    res?;
    black_box(dev.stats());
    Ok(ns / events.len().max(1) as f64)
}

/// Times `StackedDramCache::access` over a stream, standalone; returns
/// (ns per access, accesses, hit rate).
pub fn cache_probe(capacity_bytes: u64, events: &[TraceEvent]) -> (f64, u64, f64) {
    let mut cache = StackedDramCache::new(capacity_bytes);
    let (ns, _) = timed(|| {
        for e in events {
            black_box(cache.access(e.addr, e.is_write));
        }
    });
    let s = *cache.stats();
    (ns / s.accesses.max(1) as f64, s.accesses, s.hit_rate())
}

/// One stream run untraced under `NoRefresh`, CBR and Smart Refresh,
/// then replayed traced under CBR and Smart Refresh.
pub struct Differential {
    /// Wall time of generating the stream.
    pub gen_ns: f64,
    /// Events generated.
    pub events: u64,
    /// Untraced `NoRefresh` run and its wall time.
    pub none: (f64, RunResult),
    /// Untraced CBR run and its wall time.
    pub cbr: (f64, RunResult),
    /// Untraced Smart Refresh run and its wall time.
    pub smart: (f64, RunResult),
    /// Traced CBR replay.
    pub traced_cbr: TracedRun,
    /// Traced Smart Refresh replay.
    pub traced_smart: TracedRun,
}

impl Differential {
    /// Whether both traced replays reproduced their untraced counts.
    pub fn counts_match(&self) -> bool {
        self.traced_cbr.counts == Counts::of(&self.cbr.1)
            && self.traced_smart.counts == Counts::of(&self.smart.1)
    }
}

/// Runs [`Differential`] on one stream. `cbr` and `smart` differ only in
/// their policy.
///
/// # Errors
///
/// Propagates controller errors.
pub fn differential(
    cbr: &ExperimentConfig,
    smart: &ExperimentConfig,
    spec: &WorkloadSpec,
) -> Result<(Differential, Vec<TraceEvent>), SimError> {
    let (gen_ns, events) = timed(|| generate(cbr, spec));
    let untraced = |cfg: &ExperimentConfig| -> Result<(f64, RunResult), SimError> {
        let (ns, r) =
            timed(|| run_experiment_with_events(cfg, events.iter().copied(), spec.name, spec.apki));
        Ok((ns, r?))
    };
    let mut none_cfg = cbr.clone();
    none_cfg.policy = PolicyKind::NoRefresh;
    let none = untraced(&none_cfg)?;
    let cbr_run = untraced(cbr)?;
    let smart_run = untraced(smart)?;
    let traced_cbr = traced_run(cbr, &events)?;
    let traced_smart = traced_run(smart, &events)?;
    Ok((
        Differential {
            gen_ns,
            events: events.len() as u64,
            none,
            cbr: cbr_run,
            smart: smart_run,
            traced_cbr,
            traced_smart,
        },
        events,
    ))
}

/// Sums over differentials, folded into the per-layer metrics.
#[derive(Debug, Default)]
pub struct LayerAcc {
    gen_ns: f64,
    events: u64,
    none_ns: f64,
    none_tx: u64,
    cbr_ns: f64,
    cbr_refreshes: u64,
    smart_ns: f64,
    smart_refreshes: u64,
    traced_ns: f64,
    smart_traced_ns: f64,
    loops: LoopSpans,
    policy: PolicySpans,
    cache_hits: u64,
    row_hits: u64,
    transactions: u64,
    sram: (u64, u64),
    queue_high_water: usize,
    commands: u64,
    refreshes: u64,
    price_ns: f64,
    runs: u64,
}

impl LayerAcc {
    /// Folds one differential in. Controller and policy spans come from
    /// the Smart Refresh replay; commands and refreshes from both
    /// untraced runs.
    pub fn add(&mut self, d: &Differential) {
        self.gen_ns += d.gen_ns;
        self.events += d.events;
        self.none_ns += d.none.0;
        self.none_tx += d.none.1.ctrl.transactions;
        self.cbr_ns += d.cbr.0;
        self.cbr_refreshes += d.cbr.1.ops.total_refreshes();
        self.smart_ns += d.smart.0;
        self.smart_refreshes += d.smart.1.ops.total_refreshes();
        self.traced_ns += d.traced_cbr.wall_ns + d.traced_smart.wall_ns;
        self.smart_traced_ns += d.traced_smart.wall_ns;
        let s = &d.traced_smart;
        self.loops.cache.add(&s.spans.cache);
        self.loops.advance_to.add(&s.spans.advance_to);
        self.loops.access.add(&s.spans.access);
        self.policy.add(&s.policy);
        self.cache_hits += s.cache_hits;
        for r in [&d.cbr.1, &d.smart.1] {
            self.row_hits += r.ctrl.row_hits;
            self.transactions += r.ctrl.transactions;
            self.commands += commands(&r.ops);
            self.refreshes += r.ops.total_refreshes();
        }
        self.sram.0 += d.smart.1.sram_ops.0;
        self.sram.1 += d.smart.1.sram_ops.1;
        self.queue_high_water = self.queue_high_water.max(d.smart.1.queue_high_water);
        self.price_ns += d.traced_cbr.price_ns + d.traced_smart.price_ns;
        self.runs += 2;
    }

    /// Writes the workloads, cache (when traced), ctrl, core, dram-count,
    /// energy and sim-overhead metrics.
    pub fn emit(&self, m: &mut Metrics) {
        let per = |num: f64, den: u64| num / den.max(1) as f64;
        m.set("workloads.gen_ns_per_event", per(self.gen_ns, self.events));
        m.set("workloads.events", self.events as f64);
        if self.loops.cache.calls > 0 {
            m.set("cache.ns_per_access", self.loops.cache.ns_per_call());
            m.set("cache.accesses", self.loops.cache.calls as f64);
            m.set(
                "cache.hit_rate",
                per(self.cache_hits as f64, self.loops.cache.calls),
            );
        }
        let access = &self.loops.access;
        m.set("ctrl.access_ns", access.ns_per_call());
        m.set("ctrl.access_calls", access.calls as f64);
        m.set(
            "ctrl.row_hit_frac",
            per(self.row_hits as f64, self.transactions),
        );
        m.set("ctrl.demand_ns_per_tx", per(self.none_ns, self.none_tx));
        let adv = &self.loops.advance_to;
        let ticks = self.policy.advance.calls;
        m.set("ctrl.advance_ns_per_call", adv.ns_per_call());
        m.set(
            "ctrl.glue_ns_per_wakeup",
            per(adv.total_ns() - self.policy.advance.total_ns(), ticks),
        );
        m.set(
            "ctrl.cbr_ns_per_refresh",
            per(self.cbr_ns - self.none_ns, self.cbr_refreshes),
        );
        m.set(
            "ctrl.smart_ns_per_tick",
            per(self.smart_ns - self.none_ns, ticks),
        );
        m.set(
            "core.policy_advance_ns_per_tick",
            self.policy.advance.ns_per_call(),
        );
        m.set("core.policy_ticks", ticks as f64);
        m.set("core.hook_ns_per_call", self.policy.hooks.ns_per_call());
        m.set("core.hook_calls", self.policy.hooks.calls as f64);
        m.set("core.sram_reads", self.sram.0 as f64);
        m.set("core.sram_writes", self.sram.1 as f64);
        m.set("core.refreshes_issued", self.smart_refreshes as f64);
        m.set(
            "core.refresh_skip_frac",
            1.0 - per(self.smart_refreshes as f64, self.cbr_refreshes),
        );
        m.set("core.queue_high_water", self.queue_high_water as f64);
        m.set("dram.commands", self.commands as f64);
        m.set("dram.refreshes", self.refreshes as f64);
        m.set("energy.price_ns_per_run", per(self.price_ns, self.runs));
        // Self time of the experiment loop: traced Smart replays minus
        // the cache and controller spans inside them.
        let inside = self.loops.cache.total_ns() + adv.total_ns() + access.total_ns();
        m.set(
            "sim.experiment_self_frac",
            1.0 - inside / self.smart_traced_ns.max(1.0),
        );
        let untraced = self.gen_ns + self.cbr_ns + self.smart_ns;
        m.set(
            "sim.trace_overhead_frac",
            (self.gen_ns + self.traced_ns) / untraced.max(1.0) - 1.0,
        );
    }
}

//! What a pass reports: operations attempted and failed, simulated time,
//! the result digest, and the engine engagement counts.

use smartrefresh_sim::RunResult;

use crate::metrics::Metrics;

/// One pass of a workload, judged.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: experiment runs, fleet cells or campaign
    /// scenarios.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Simulated DRAM time covered, in ms.
    pub sim_ms: f64,
    /// Digest over the pass's results, in order.
    pub digest: u64,
    /// Why operations failed.
    pub problems: Vec<String>,
    /// Workload-specific figures printed beside the metrics: (name,
    /// value, unit).
    pub report: Vec<(&'static str, f64, &'static str)>,
    /// Engine engagement over the pass.
    pub engines: Engines,
}

impl Outcome {
    /// Marks `n` operations failed for `why`.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.problems.push(why);
    }

    /// Fails the whole pass if its digest differs from `pinned`.
    pub fn check_pin(&mut self, pinned: Option<u64>) {
        if let Some(p) = pinned {
            if p != self.digest {
                let why = format!(
                    "result digest {:#018x} differs from the pinned {p:#018x}",
                    self.digest
                );
                self.fail(self.attempted - self.failed, why);
            }
        }
    }
}

/// Counts of the optional engines at work.
#[derive(Debug, Default, Clone, Copy)]
pub struct Engines {
    /// Patrol scrubs.
    pub scrubs: u64,
    /// RFM commands.
    pub rfm_commands: u64,
    /// Refreshes deferred by DARP.
    pub darp_deferred: u64,
    /// Corrected ECC errors.
    pub ce_corrected: u64,
    /// Uncorrectable ECC errors.
    pub ue_detected: u64,
    /// Bits flipped by injected faults.
    pub flips: u64,
    /// Scrubs the maintenance scheduler forced through an open page.
    pub forced_closures: u64,
    /// Open pages closed by refreshes or scrubs on the hot channel.
    pub hot_closures: u64,
}

impl Engines {
    /// Adds a run's controller counts.
    pub fn add_run(&mut self, r: &RunResult) {
        self.scrubs += r.ctrl.scrubs_issued + r.ctrl.forced_scrubs;
        self.rfm_commands += r.ctrl.rfm_commands;
        self.ce_corrected += r.ctrl.ce_corrected;
        self.ue_detected += r.ctrl.ue_detected;
    }

    /// Adds another set of counts.
    pub fn add(&mut self, o: &Engines) {
        self.scrubs += o.scrubs;
        self.rfm_commands += o.rfm_commands;
        self.darp_deferred += o.darp_deferred;
        self.ce_corrected += o.ce_corrected;
        self.ue_detected += o.ue_detected;
        self.flips += o.flips;
        self.forced_closures += o.forced_closures;
        self.hot_closures += o.hot_closures;
    }

    /// Records the `ctrl`, `ecc` and `faults` engine counts.
    pub fn emit(&self, m: &mut Metrics) {
        m.set("ctrl.scrubs", self.scrubs as f64);
        m.set("ctrl.rfm_commands", self.rfm_commands as f64);
        m.set("ctrl.darp_deferred", self.darp_deferred as f64);
        m.set("ecc.ce_corrected", self.ce_corrected as f64);
        m.set("ecc.ue_detected", self.ue_detected as f64);
        m.set("faults.flips", self.flips as f64);
    }
}

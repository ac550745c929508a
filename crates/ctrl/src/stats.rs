//! Controller-side statistics: row-buffer outcomes and access latency.

use smartrefresh_dram::time::Duration;

/// Row-buffer outcome of one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowBufferOutcome {
    /// The target row was already open.
    Hit,
    /// The bank was precharged; an activate was needed.
    Miss,
    /// A different row was open; precharge + activate were needed.
    Conflict,
}

/// Statistics accumulated by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControllerStats {
    /// Demand transactions completed.
    pub transactions: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (bank was precharged).
    pub row_misses: u64,
    /// Row-buffer conflicts (another row was open).
    pub row_conflicts: u64,
    /// Sum of per-transaction latencies (completion − arrival).
    pub total_latency: Duration,
    /// Worst single-transaction latency.
    pub max_latency: Duration,
    /// Refresh commands dispatched to the device.
    pub refreshes_issued: u64,
    /// Refreshes that drove an explicit row address over the external bus
    /// (charged bus energy by the energy model).
    pub bus_charged_refreshes: u64,
    /// Refreshes suppressed by an installed fault injector (never issued to
    /// the device; the retention tracker is expected to flag the row).
    pub refreshes_dropped: u64,
    /// Refreshes postponed by an installed fault injector.
    pub refreshes_delayed: u64,
    /// Accumulated time the module could sit in precharge power-down: idle
    /// gaps between commands, net of entry/exit overheads. The energy model
    /// bills these at the power-down rate instead of full standby.
    pub powerdown_time: Duration,
    /// CKE-low windows credited (each one `note_command` idle-gap credit).
    pub powerdown_windows: u64,
    /// Time the counter SRAM was kept powered through CKE-low windows
    /// (`CounterPowerPolicy::Persistent` only); the energy model bills it
    /// at the configured retention power.
    pub counter_retention_time: Duration,
    /// Counter entries force-zeroed on power-down wake
    /// (`CounterPowerPolicy::ConservativeReset` only).
    pub counters_reset_on_wake: u64,
    /// Checkpoint/restore round trips performed, one per credited window
    /// (`CounterPowerPolicy::Snapshot` only).
    pub counter_snapshots: u64,
    /// Counter entries checkpointed and restored across all snapshots;
    /// the energy model bills them at the per-entry snapshot cost.
    pub counter_snapshot_entries: u64,
    /// Patrol scrubs issued from the deadline-order walk.
    pub scrubs_issued: u64,
    /// Scrubs forced out of deadline order by a watchdog violation.
    pub forced_scrubs: u64,
    /// Corrected (single-bit) ECC errors: detected, repaired, written back.
    pub ce_corrected: u64,
    /// Uncorrectable (multi-bit) ECC errors detected, one per poisoned row.
    pub ue_detected: u64,
    /// RFM commands issued (elective RAAIMT crossings plus mandatory
    /// RAAMMT back-pressure relief).
    pub rfm_commands: u64,
    /// Victim rows refreshed by RFM commands (several per command).
    pub rfm_row_refreshes: u64,
    /// ACTs stalled behind a mandatory RFM because the bank's RAA counter
    /// sat at RAAMMT.
    pub rfm_backpressure_stalls: u64,
}

impl ControllerStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mean transaction latency; zero when no transactions completed.
    pub fn avg_latency(&self) -> Duration {
        if self.transactions == 0 {
            Duration::ZERO
        } else {
            self.total_latency.div_by(self.transactions)
        }
    }

    /// Row-buffer hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.transactions == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.transactions as f64
        }
    }

    /// Difference of two snapshots (`self` later minus `earlier`), used to
    /// exclude warm-up periods from measurements.
    ///
    /// `max_latency` is taken from the later snapshot (a maximum cannot be
    /// meaningfully subtracted), so it is the worst latency of the whole
    /// run, the `earlier` span included. It is not narrowed to the span
    /// here because the experiment runner's result digest hashes it:
    /// resetting the statistics at the warm-up boundary instead would move
    /// every pinned digest.
    pub fn delta_since(&self, earlier: &ControllerStats) -> ControllerStats {
        ControllerStats {
            transactions: self.transactions - earlier.transactions,
            row_hits: self.row_hits - earlier.row_hits,
            row_misses: self.row_misses - earlier.row_misses,
            row_conflicts: self.row_conflicts - earlier.row_conflicts,
            total_latency: self.total_latency - earlier.total_latency,
            max_latency: self.max_latency,
            refreshes_issued: self.refreshes_issued - earlier.refreshes_issued,
            bus_charged_refreshes: self.bus_charged_refreshes - earlier.bus_charged_refreshes,
            refreshes_dropped: self.refreshes_dropped - earlier.refreshes_dropped,
            refreshes_delayed: self.refreshes_delayed - earlier.refreshes_delayed,
            powerdown_time: self.powerdown_time - earlier.powerdown_time,
            powerdown_windows: self.powerdown_windows - earlier.powerdown_windows,
            counter_retention_time: self.counter_retention_time - earlier.counter_retention_time,
            counters_reset_on_wake: self.counters_reset_on_wake - earlier.counters_reset_on_wake,
            counter_snapshots: self.counter_snapshots - earlier.counter_snapshots,
            counter_snapshot_entries: self.counter_snapshot_entries
                - earlier.counter_snapshot_entries,
            scrubs_issued: self.scrubs_issued - earlier.scrubs_issued,
            forced_scrubs: self.forced_scrubs - earlier.forced_scrubs,
            ce_corrected: self.ce_corrected - earlier.ce_corrected,
            ue_detected: self.ue_detected - earlier.ue_detected,
            rfm_commands: self.rfm_commands - earlier.rfm_commands,
            rfm_row_refreshes: self.rfm_row_refreshes - earlier.rfm_row_refreshes,
            rfm_backpressure_stalls: self.rfm_backpressure_stalls - earlier.rfm_backpressure_stalls,
        }
    }

    /// Records one transaction outcome.
    pub(crate) fn record(&mut self, outcome: RowBufferOutcome, latency: Duration) {
        self.transactions += 1;
        match outcome {
            RowBufferOutcome::Hit => self.row_hits += 1,
            RowBufferOutcome::Miss => self.row_misses += 1,
            RowBufferOutcome::Conflict => self.row_conflicts += 1,
        }
        self.total_latency += latency;
        self.max_latency = self.max_latency.max(latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_and_rates() {
        let mut s = ControllerStats::new();
        s.record(RowBufferOutcome::Hit, Duration::from_ns(20));
        s.record(RowBufferOutcome::Miss, Duration::from_ns(40));
        assert_eq!(s.transactions, 2);
        assert_eq!(s.avg_latency(), Duration::from_ns(30));
        assert_eq!(s.max_latency, Duration::from_ns(40));
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = ControllerStats::new();
        assert_eq!(s.avg_latency(), Duration::ZERO);
        assert_eq!(s.hit_rate(), 0.0);
    }
}

//! Sampled spans around calls into the program's layers, and the traced
//! `RefreshPolicy` wrapper.
//!
//! A host clock read costs tens of nanoseconds, against roughly a hundred
//! for a Smart Refresh tick, so timing every call would distort the layers
//! it measures. Each span therefore counts every call exactly and reads
//! the clock around one call in [`SAMPLE_EVERY`]; the layer's busy time
//! is the sampled mean scaled by the exact count. The pair of clock reads
//! is calibrated once ([`clock_overhead_ns`]) and subtracted from every
//! sample.

use std::sync::OnceLock;
use std::time::Instant as WallClock;

use smartrefresh_core::{
    DegradationEvent, DegradeCause, RefreshAction, RefreshPolicy, SramTraffic,
};
use smartrefresh_dram::time::Instant;
use smartrefresh_dram::RowAddr;

/// One call in this many is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// Whether call number `n` is timed: a multiplicative hash of the count,
/// so about one call in [`SAMPLE_EVERY`] is picked, deterministically,
/// but never in step with a periodic call pattern (row hooks alternate
/// close/open, which a plain `n % 16` would sample on one side only).
fn sampled(n: u64) -> bool {
    n.wrapping_mul(0x9e37_79b9_7f4a_7c15) < u64::MAX / SAMPLE_EVERY
}

/// Cost of the two clock reads around an empty span, in nanoseconds.
pub fn clock_overhead_ns() -> f64 {
    static OVERHEAD: OnceLock<f64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut samples: Vec<u64> = (0..2001)
            .map(|_| {
                let t = WallClock::now();
                std::hint::black_box(());
                t.elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2] as f64
    })
}

/// Exact call count plus a sampled duration for one layer boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Every call through the boundary.
    pub calls: u64,
    /// Calls whose duration was sampled.
    pub sampled: u64,
    /// Summed duration of the sampled calls, net of clock overhead.
    pub sampled_ns: f64,
}

impl Span {
    /// Runs `f`, counting the call and timing it if it is sampled.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.calls += 1;
        if !sampled(self.calls) {
            return f();
        }
        let start = WallClock::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as f64 - clock_overhead_ns();
        self.sampled += 1;
        self.sampled_ns += ns.max(0.0);
        out
    }

    /// Mean sampled nanoseconds per call (0 with no samples).
    pub fn ns_per_call(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.sampled_ns / self.sampled as f64
        }
    }

    /// Estimated busy time over every call, in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.ns_per_call() * self.calls as f64
    }

    /// Accumulates another span into this one.
    pub fn add(&mut self, other: &Span) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }
}

/// Spans recorded by [`TracedPolicy`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicySpans {
    /// `advance` — one call per policy wakeup (tick).
    pub advance: Span,
    /// `on_row_opened`, `on_row_closed` and `on_row_scrubbed`.
    pub hooks: Span,
}

impl PolicySpans {
    /// Accumulates another set of spans.
    pub fn add(&mut self, other: &PolicySpans) {
        self.advance.add(&other.advance);
        self.hooks.add(&other.hooks);
    }
}

/// A `RefreshPolicy` that forwards every trait method — the defaulted
/// ones included, so no default silently replaces the inner policy's
/// behaviour — and samples spans around the tick and the row hooks.
pub struct TracedPolicy<P> {
    inner: P,
    /// Spans recorded so far.
    pub spans: PolicySpans,
}

impl<P: RefreshPolicy> TracedPolicy<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        TracedPolicy {
            inner,
            spans: PolicySpans::default(),
        }
    }
}

impl<P: RefreshPolicy> RefreshPolicy for TracedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_row_opened(&mut self, row: RowAddr, now: Instant) {
        let inner = &mut self.inner;
        self.spans.hooks.time(|| inner.on_row_opened(row, now));
    }

    fn on_row_closed(&mut self, row: RowAddr, now: Instant) {
        let inner = &mut self.inner;
        self.spans.hooks.time(|| inner.on_row_closed(row, now));
    }

    fn on_row_scrubbed(&mut self, row: RowAddr, now: Instant) {
        let inner = &mut self.inner;
        self.spans.hooks.time(|| inner.on_row_scrubbed(row, now));
    }

    fn next_wakeup(&self) -> Option<Instant> {
        self.inner.next_wakeup()
    }

    fn advance(&mut self, now: Instant) {
        let inner = &mut self.inner;
        self.spans.advance.time(|| inner.advance(now));
    }

    fn pop_pending(&mut self) -> Option<RefreshAction> {
        self.inner.pop_pending()
    }

    fn pending_len(&self) -> usize {
        self.inner.pending_len()
    }

    fn sram_traffic(&self) -> SramTraffic {
        self.inner.sram_traffic()
    }

    fn queue_high_water(&self) -> usize {
        self.inner.queue_high_water()
    }

    fn in_fallback(&self) -> bool {
        self.inner.in_fallback()
    }

    fn degrade(&mut self, cause: DegradeCause, now: Instant) {
        self.inner.degrade(cause, now);
    }

    fn degradation_events(&self) -> &[DegradationEvent] {
        self.inner.degradation_events()
    }

    fn on_powerdown_wake(&mut self, now: Instant, reset_counters: bool) -> u64 {
        self.inner.on_powerdown_wake(now, reset_counters)
    }
}

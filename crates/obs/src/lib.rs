//! Observability core for the Moira reproduction.
//!
//! The paper's server "logs all transactions which modify the database"
//! and the DCM's whole value is knowing when extractions ran and whether
//! pushes converged. This crate is the measurement substrate those claims
//! (and every later performance gate) rest on: atomic counters and gauges,
//! log-bucketed latency histograms with merge and quantile estimation, a
//! [`Registry`] of named instruments, and RAII stage [`Span`]s.
//!
//! Design constraints, in order:
//!
//! - **The hot path takes no lock.** Instrument handles ([`Counter`],
//!   [`Gauge`], [`Histo`]) are `Arc`s onto atomic cells; recording is a
//!   handful of relaxed atomic RMWs. The registry's name maps are behind a
//!   `Mutex`, but only instrument *creation* and *snapshotting* touch them
//!   — callers cache handles at construction time.
//! - **No off switch.** Every instrument always records; there is no
//!   unmeasured configuration for a reading to come from.
//! - **A clock seam.** Spans and wait timers read nanoseconds through the
//!   registry's [`ClockSource`]; the deployment simulator swaps in the
//!   shared [`VClock`] so stage durations report *simulated* time.
//!
//! Instrument names are dotted families, lowest-cardinality prefix first
//! (`server.*`, `db.lock.*`, `db.plan.*`, `dcm.*`). The DCM's push
//! records the `dcm.transfer.{patch,full}_{members,bytes}` split — the
//! standing evidence that stragglers converge by line patch, not whole
//! archive.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use moira_common::clock::VClock;
use parking_lot::Mutex;

/// Number of histogram buckets: one for zero plus one per power of two of
/// a `u64` value.
pub const BUCKETS: usize = 65;

/// Bucket index of a recorded value: 0 holds exact zeros, bucket `i >= 1`
/// holds values in `[2^(i-1), 2^i - 1]`.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket (the quantile representative before
/// clamping to the observed min/max).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Where instruments read nanoseconds from.
///
/// `Wall` measures real elapsed time from a per-registry epoch; `Virtual`
/// reads the shared simulation clock, so a span around code that calls
/// `VClock::advance` reports the simulated duration.
#[derive(Clone)]
pub enum ClockSource {
    /// Real time, as nanoseconds since the registry was created.
    Wall {
        /// The registry's birth instant.
        epoch: Instant,
    },
    /// Simulated time: `VClock` unix seconds scaled to nanoseconds.
    Virtual(VClock),
}

impl ClockSource {
    /// Current time in nanoseconds on this source's axis.
    pub fn now_nanos(&self) -> u64 {
        match self {
            ClockSource::Wall { epoch } => epoch.elapsed().as_nanos() as u64,
            ClockSource::Virtual(clock) => clock.now().max(0) as u64 * 1_000_000_000,
        }
    }
}

/// The shared atomic core of a histogram.
struct HistCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistCore {
    fn new() -> HistCore {
        HistCore {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a histogram, with merge and quantile estimation.
#[derive(Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    buckets: [u64; BUCKETS],
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl HistSnapshot {
    /// An empty snapshot (the identity element of [`HistSnapshot::merge`]).
    pub fn empty() -> HistSnapshot {
        HistSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Folds `other` into `self`: bucket-wise addition, min of mins, max of
    /// maxes. Commutative and associative up to the quantile estimate's
    /// bucket resolution — exactly, in fact, since the merged state is a
    /// pure function of the multiset union.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        // Sums wrap, matching the atomic `fetch_add` on the live core.
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) of the recorded values.
    ///
    /// The estimate is the inclusive upper bound of the bucket containing
    /// the rank-`ceil(q * count)` value, clamped to the observed
    /// `[min, max]`. That makes the estimate monotone in `q` and guarantees
    /// it brackets the true value to within one power of two. Returns 0 on
    /// an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

impl fmt::Debug for HistSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HistSnapshot")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .finish()
    }
}

/// A monotonically increasing counter handle. Cloning shares the cell.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A signed up/down gauge handle. Cloning shares the cell.
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.cell.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A histogram handle. Cloning shares the core.
#[derive(Clone)]
pub struct Histo {
    core: Arc<HistCore>,
}

impl Histo {
    /// Records one value.
    pub fn record(&self, v: u64) {
        self.core.record(v);
    }

    /// An immutable copy of the current state.
    pub fn snapshot(&self) -> HistSnapshot {
        self.core.snapshot()
    }
}

/// An in-flight stage measurement: created by [`Registry::span`], records
/// the elapsed clock-source nanoseconds into its histogram when finished
/// or dropped.
pub struct Span {
    histo: Histo,
    clock: ClockSource,
    start: u64,
    armed: bool,
}

impl Span {
    /// Stops the span now, recording its duration.
    pub fn finish(mut self) {
        self.record_once();
    }

    /// Abandons the span without recording anything.
    pub fn cancel(mut self) {
        self.armed = false;
    }

    fn record_once(&mut self) {
        if self.armed {
            self.armed = false;
            let end = self.clock.now_nanos();
            self.histo.record(end.saturating_sub(self.start));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record_once();
    }
}

struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistCore>>>,
    clock: Mutex<ClockSource>,
}

/// A registry of named instruments. Cloning shares the registry; handles
/// returned for the same name share their cells, so any holder of the
/// registry observes every holder's recordings.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// An empty registry on the wall clock.
    pub fn new() -> Registry {
        Registry {
            inner: Arc::new(Inner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                clock: Mutex::new(ClockSource::Wall {
                    epoch: Instant::now(),
                }),
            }),
        }
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.inner.counters.lock();
        let cell = counters
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone();
        Counter { cell }
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut gauges = self.inner.gauges.lock();
        let cell = gauges
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(AtomicI64::new(0)))
            .clone();
        Gauge { cell }
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histo {
        let mut histograms = self.inner.histograms.lock();
        let core = histograms
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(HistCore::new()))
            .clone();
        Histo { core }
    }

    /// Starts a stage span recording into the histogram named `name`.
    pub fn span(&self, name: &str) -> Span {
        let clock = self.clock_source();
        Span {
            histo: self.histogram(name),
            start: clock.now_nanos(),
            clock,
            armed: true,
        }
    }

    /// The current clock source (a cheap clone; `Virtual` shares the
    /// underlying `VClock`).
    pub fn clock_source(&self) -> ClockSource {
        self.inner.clock.lock().clone()
    }

    /// Current time in nanoseconds on the registry's clock axis.
    pub fn now_nanos(&self) -> u64 {
        self.clock_source().now_nanos()
    }

    /// Routes spans and wait timers through the shared simulation clock.
    pub fn set_virtual_clock(&self, vclock: VClock) {
        *self.inner.clock.lock() = ClockSource::Virtual(vclock);
    }

    /// A point-in-time copy of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .iter()
            .map(|(name, core)| (name.clone(), core.snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Deliberately lock-free: Debug-printing a LockManager mid-poll
        // must never contend with instrument creation.
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

/// A point-in-time copy of a [`Registry`]'s instruments.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram copies by name.
    pub histograms: BTreeMap<String, HistSnapshot>,
}

impl Snapshot {
    /// The named counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's value (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms.get(name)
    }

    /// Flattens the snapshot to `(statistic, value)` rows in deterministic
    /// order: counters, then gauges, then per-histogram derived statistics
    /// (`.count`, `.p50_ns`, `.p99_ns`, `.mean_ns`, `.max_ns`).
    pub fn rows(&self) -> Vec<(String, String)> {
        let mut rows = Vec::new();
        for (name, value) in &self.counters {
            rows.push((name.clone(), value.to_string()));
        }
        for (name, value) in &self.gauges {
            rows.push((name.clone(), value.to_string()));
        }
        for (name, h) in &self.histograms {
            rows.push((format!("{name}.count"), h.count.to_string()));
            rows.push((format!("{name}.p50_ns"), h.p50().to_string()));
            rows.push((format!("{name}.p99_ns"), h.p99().to_string()));
            rows.push((format!("{name}.mean_ns"), h.mean().to_string()));
            rows.push((format!("{name}.max_ns"), h.max.to_string()));
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 1..64 {
            // The upper bound lives in its own bucket.
            assert_eq!(bucket_of(bucket_upper(i)), i);
        }
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name shares the cell.
        assert_eq!(r.counter("c").get(), 5);
        let g = r.gauge("g");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
        let snap = r.snapshot();
        assert_eq!(snap.counter("c"), 5);
        assert_eq!(snap.gauge("g"), 5);
        assert_eq!(snap.counter("absent"), 0);
    }

    #[test]
    fn quantiles_on_known_data() {
        let r = Registry::new();
        let h = r.histogram("h");
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.mean(), 50);
        // Exact values are bucketed; the estimate brackets the truth to a
        // power of two and stays within [min, max].
        let p50 = s.p50();
        assert!((50..=100).contains(&p50), "p50={p50}");
        let p99 = s.p99();
        assert!((99..=100).contains(&p99), "p99={p99}");
        assert!(s.quantile(0.0) >= s.min);
        assert_eq!(s.quantile(1.0), 100);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let s = HistSnapshot::empty();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0);
    }

    #[test]
    fn merge_is_union() {
        let r = Registry::new();
        let a = r.histogram("a");
        let b = r.histogram("b");
        a.record(3);
        a.record(100);
        b.record(7);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.min, 3);
        assert_eq!(m.max, 100);
        assert_eq!(m.sum, 110);
    }

    #[test]
    fn span_measures_virtual_time() {
        let clock = VClock::new();
        let r = Registry::new();
        r.set_virtual_clock(clock.clone());
        {
            let _span = r.span("stage");
            clock.advance(7);
        }
        let s = r.snapshot();
        let h = s.histogram("stage").expect("span recorded");
        assert_eq!(h.count, 1);
        assert_eq!(h.max, 7_000_000_000);
        // A cancelled span records nothing.
        let span = r.span("stage");
        clock.advance(1);
        span.cancel();
        assert_eq!(r.histogram("stage").snapshot().count, 1);
    }

    #[test]
    fn registry_clones_share_instruments() {
        let r = Registry::new();
        let r2 = r.clone();
        r.counter("x").inc();
        assert_eq!(r2.counter("x").get(), 1);
    }
}

//! A process-wide data collector, modeled on Vertica's Data Collector
//! (the monitoring layer behind its `dc_*` system tables).
//!
//! Three kinds of telemetry:
//!
//! * **Events** ([`Event`]) — structured records (an [`EventKind`],
//!   fixed fields, a monotonic timestamp and sequence number) kept in
//!   sharded in-memory ring buffers. Each thread writes to its own
//!   shard, so hot paths never contend on one lock; a snapshot drains
//!   all shards and re-sorts by sequence number.
//! * **Counters** — named monotonic `u64`s (`rows loaded`, `task
//!   retries`, ...), updated with a single atomic add.
//! * **Timers** — named log2-bucketed histograms of span durations,
//!   recorded via [`Collector::record_time`].
//! * **Histograms** ([`Histo`]) — named log-linear value histograms
//!   with exact-rank quantile extraction at ~1.6% bucket resolution
//!   (and *exactly* for values below [`HISTO_LINEAR_MAX`]), recorded
//!   via [`Collector::record_histo`]. Finished trace spans also feed a
//!   histogram named after the span, so P50/P95/P99 per span name come
//!   for free.
//! * **Traces** ([`trace`]) — span trees with explicit by-value
//!   context ([`TraceCtx`]), started with [`Collector::trace_start`]
//!   and grown with [`Collector::span_start`] /
//!   [`Collector::span_finish`].
//!
//! The process-wide instance is [`global()`]; isolated instances
//! ([`Collector::new`]) exist for tests. Collection can be switched
//! off at runtime ([`Collector::set_enabled`]): every recording entry
//! point checks one relaxed atomic load and returns before building
//! the record, so disabled instrumentation costs a branch.
//!
//! The database surfaces a snapshot of the global collector as the
//! `dc_events` / `dc_counters` system tables, making observability
//! SQL-queryable exactly as in the paper's database.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

pub mod names;
pub mod trace;

pub use trace::{SpanId, SpanRecord, TraceCtx, TraceId};

/// Number of event shards; writers pick one per thread.
const SHARDS: usize = 16;

/// Ring capacity per shard. Oldest events are dropped (and counted)
/// once a shard fills, bounding memory for long processes.
const SHARD_CAP: usize = 16_384;

/// The event taxonomy, spanning the three instrumented layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    // Compute-engine scheduler.
    TaskLaunch,
    TaskFinish,
    TaskRetry,
    TaskSpeculative,
    JobKill,
    JobFinish,
    // Database.
    TxnBegin,
    TxnCommit,
    TxnAbort,
    EpochAdvance,
    CopyLoad,
    PoolAdmit,
    SessionOpen,
    SessionClose,
    /// A node kill/restore or an injected fault firing (chaos layer).
    FaultInject,
    // Connector.
    S2vPhase,
    V2sPiece,
    MdScore,
    /// A hedged read launched its buddy-node attempt.
    Hedge,
    /// A per-node circuit breaker changed state (opened, half-opened,
    /// or closed).
    BreakerTrip,
}

impl EventKind {
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::TaskLaunch => "task_launch",
            EventKind::TaskFinish => "task_finish",
            EventKind::TaskRetry => "task_retry",
            EventKind::TaskSpeculative => "task_speculative",
            EventKind::JobKill => "job_kill",
            EventKind::JobFinish => "job_finish",
            EventKind::TxnBegin => "txn_begin",
            EventKind::TxnCommit => "txn_commit",
            EventKind::TxnAbort => "txn_abort",
            EventKind::EpochAdvance => "epoch_advance",
            EventKind::CopyLoad => "copy_load",
            EventKind::PoolAdmit => "pool_admit",
            EventKind::SessionOpen => "session_open",
            EventKind::SessionClose => "session_close",
            EventKind::FaultInject => "fault_inject",
            EventKind::S2vPhase => "s2v_phase",
            EventKind::V2sPiece => "v2s_piece",
            EventKind::MdScore => "md_score",
            EventKind::Hedge => "hedge",
            EventKind::BreakerTrip => "breaker_trip",
        }
    }
}

/// One structured record in the event log.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Global sequence number; total order across shards.
    pub seq: u64,
    /// Microseconds since the collector was created.
    pub ts_us: u64,
    /// Span duration in microseconds (0 for instantaneous events).
    pub dur_us: u64,
    pub kind: EventKind,
    /// Job name or id the event belongs to, when known.
    pub job: Option<String>,
    /// Task / partition index, when known.
    pub task: Option<u64>,
    /// Node index (database or compute, per layer), when known.
    pub node: Option<u64>,
    /// Row count the event accounts for.
    pub rows: u64,
    /// Byte volume the event accounts for.
    pub bytes: u64,
    /// Free-form detail (phase name, pool name, reject reason, ...).
    pub detail: String,
}

/// Aggregated statistics for one named timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimerStats {
    pub count: u64,
    pub sum_us: u64,
    pub min_us: u64,
    pub max_us: u64,
    /// Approximate percentiles from log2 buckets (upper bound of the
    /// bucket holding the percentile).
    pub p50_us: u64,
    pub p99_us: u64,
}

#[derive(Debug)]
struct Timer {
    count: u64,
    sum_us: u64,
    min_us: u64,
    max_us: u64,
    /// `buckets[i]` counts durations with `dur_us < 2^i` (first
    /// matching bucket).
    buckets: [u64; 64],
}

impl Default for Timer {
    fn default() -> Timer {
        Timer {
            count: 0,
            sum_us: 0,
            min_us: 0,
            max_us: 0,
            buckets: [0; 64],
        }
    }
}

impl Timer {
    fn record(&mut self, dur_us: u64) {
        self.count += 1;
        self.sum_us += dur_us;
        if self.count == 1 || dur_us < self.min_us {
            self.min_us = dur_us;
        }
        if dur_us > self.max_us {
            self.max_us = dur_us;
        }
        let bucket = (64 - dur_us.leading_zeros()).min(63) as usize;
        self.buckets[bucket] += 1;
    }

    fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                // Upper bound of bucket i, clamped to the observed max.
                let bound = if i >= 63 { u64::MAX } else { (1u64 << i) - 1 };
                return bound.min(self.max_us).max(self.min_us);
            }
        }
        self.max_us
    }

    fn stats(&self) -> TimerStats {
        TimerStats {
            count: self.count,
            sum_us: self.sum_us,
            min_us: self.min_us,
            max_us: self.max_us,
            p50_us: self.percentile(0.50),
            p99_us: self.percentile(0.99),
        }
    }
}

/// Values below this record into their own unit-wide bucket, so
/// quantiles of small values are exact, not bucket-rounded.
pub const HISTO_LINEAR_MAX: u64 = 64;

/// Sub-buckets per power-of-two octave above the linear range: the
/// bucket width is `2^(msb-6)`, bounding relative error at 1/64.
const HISTO_SUB: u64 = 64;

/// 64 linear buckets + 64 sub-buckets for each octave 2^6 ..= 2^63.
const HISTO_BUCKETS: usize = (HISTO_LINEAR_MAX + (63 - 6 + 1) * HISTO_SUB) as usize;

/// Aggregated statistics for one histogram, quantiles included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistoStats {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

/// A fixed-bucket log-linear histogram (the `Metric::Histo` shape):
/// values below [`HISTO_LINEAR_MAX`] get exact unit buckets; above
/// that, each power-of-two octave splits into 64 sub-buckets, so a
/// quantile is off by at most 1/64 of the value. [`Histo::quantile`]
/// does exact *rank* selection — it returns the inclusive upper bound
/// of the bucket holding the `ceil(q·n)`-th smallest sample, clamped
/// to the observed `[min, max]` — so for small values it reproduces
/// the sorted-reference answer exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Histo {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Box<[u64]>,
}

impl Default for Histo {
    fn default() -> Histo {
        Histo {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![0; HISTO_BUCKETS].into_boxed_slice(),
        }
    }
}

/// Bucket index holding `value`.
pub fn histo_bucket_index(value: u64) -> usize {
    if value < HISTO_LINEAR_MAX {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as u64; // >= 6
    let offset = (value >> (msb - 6)) - HISTO_SUB; // 0..64 within the octave
    (HISTO_LINEAR_MAX + (msb - 6) * HISTO_SUB + offset) as usize
}

/// Smallest value mapping to bucket `index`.
pub fn histo_bucket_floor(index: usize) -> u64 {
    let index = index as u64;
    if index < HISTO_LINEAR_MAX {
        return index;
    }
    let octave = (index - HISTO_LINEAR_MAX) / HISTO_SUB;
    let pos = (index - HISTO_LINEAR_MAX) % HISTO_SUB;
    (((HISTO_SUB + pos) as u128) << octave) as u64
}

/// Largest value mapping to bucket `index` — what [`Histo::quantile`]
/// reports (before clamping), and what a reference computation should
/// round a sorted sample up to.
pub fn histo_bucket_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < HISTO_LINEAR_MAX {
        return index;
    }
    let octave = (index - HISTO_LINEAR_MAX) / HISTO_SUB;
    let pos = (index - HISTO_LINEAR_MAX) % HISTO_SUB;
    ((((HISTO_SUB + pos + 1) as u128) << octave) - 1) as u64
}

impl Histo {
    pub fn new() -> Histo {
        Histo::default()
    }

    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        if self.count == 1 || value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        self.buckets[histo_bucket_index(value)] += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn min(&self) -> u64 {
        self.min
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact-rank quantile at bucket resolution: the upper bound of
    /// the bucket holding the `ceil(q·count)`-th smallest sample,
    /// clamped to the observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return histo_bucket_bound(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    pub fn stats(&self) -> HistoStats {
        HistoStats {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }

    /// The distribution recorded between `earlier` and `self`
    /// (bucket-wise subtraction) — what one experiment contributed.
    /// `min`/`max` of the delta are reconstructed from the surviving
    /// buckets, so they carry bucket resolution rather than being
    /// sample-exact.
    pub fn since(&self, earlier: &Histo) -> Histo {
        let mut out = Histo {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            ..Histo::default()
        };
        for (i, (now, before)) in self.buckets.iter().zip(earlier.buckets.iter()).enumerate() {
            let delta = now.saturating_sub(*before);
            out.buckets[i] = delta;
            if delta > 0 {
                let floor = histo_bucket_floor(i).max(self.min);
                let bound = histo_bucket_bound(i).min(self.max);
                if out.max == 0 || floor < out.min {
                    out.min = floor;
                }
                if bound > out.max {
                    out.max = bound;
                }
            }
        }
        if out.count == 0 {
            out.min = 0;
            out.max = 0;
        }
        out
    }
}

/// A point-in-time copy of everything the collector holds.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All retained events, in sequence order.
    pub events: Vec<Event>,
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Timer name → aggregated stats.
    pub timers: BTreeMap<String, TimerStats>,
    /// Histogram name → full histogram (so deltas via [`Histo::since`]
    /// can still extract quantiles).
    pub histos: BTreeMap<String, Histo>,
    /// Events discarded because a shard's ring filled.
    pub dropped_events: u64,
    /// Spans discarded because a trace hit its span cap (or its trace
    /// was already evicted).
    pub dropped_spans: u64,
}

impl Snapshot {
    /// Counter increments between `earlier` and `self` — what an
    /// experiment consumed, independent of whatever ran before it.
    pub fn counters_since(&self, earlier: &Snapshot) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .map(|(name, v)| {
                let before = earlier.counters.get(name).copied().unwrap_or(0);
                (name.clone(), v.saturating_sub(before))
            })
            .filter(|(_, delta)| *delta > 0)
            .collect()
    }

    /// Events of one kind, in order.
    pub fn events_of(&self, kind: EventKind) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.kind == kind)
    }
}

/// The data collector. See the crate docs for the model.
pub struct Collector {
    enabled: AtomicBool,
    start: Instant,
    seq: AtomicU64,
    shards: Vec<Mutex<std::collections::VecDeque<Event>>>,
    dropped: AtomicU64,
    counters: RwLock<HashMap<&'static str, Arc<AtomicU64>>>,
    timers: RwLock<HashMap<&'static str, Arc<Mutex<Timer>>>>,
    histos: RwLock<HashMap<&'static str, Arc<Mutex<Histo>>>>,
    traces: Mutex<trace::TraceStore>,
    next_shard: AtomicUsize,
}

/// `Registry` is the collector's public face for snapshot consumers
/// (benches snapshot "the registry"); it is the same type.
pub type Registry = Collector;

impl Default for Collector {
    fn default() -> Collector {
        Collector::new()
    }
}

impl Collector {
    pub fn new() -> Collector {
        Collector {
            enabled: AtomicBool::new(true),
            start: Instant::now(),
            seq: AtomicU64::new(0),
            shards: (0..SHARDS)
                .map(|_| Mutex::new(std::collections::VecDeque::new()))
                .collect(),
            dropped: AtomicU64::new(0),
            counters: RwLock::new(HashMap::new()),
            timers: RwLock::new(HashMap::new()),
            histos: RwLock::new(HashMap::new()),
            traces: Mutex::new(trace::TraceStore::default()),
            next_shard: AtomicUsize::new(0),
        }
    }

    /// Runtime toggle. Disabled collectors drop every record at the
    /// entry point, before field closures run.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn shard_index(&self) -> usize {
        thread_local! {
            static SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
        }
        SHARD.with(|s| {
            if s.get() == usize::MAX {
                s.set(self.next_shard.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            s.get()
        })
    }

    /// Record one event. `fill` runs only when collection is enabled,
    /// so argument formatting costs nothing when it is off.
    pub fn emit(&self, kind: EventKind, fill: impl FnOnce(&mut Event)) {
        if !self.is_enabled() {
            return;
        }
        let mut event = Event {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            ts_us: self.start.elapsed().as_micros() as u64,
            dur_us: 0,
            kind,
            job: None,
            task: None,
            node: None,
            rows: 0,
            bytes: 0,
            detail: String::new(),
        };
        fill(&mut event);
        let mut shard = self.shards[self.shard_index()].lock();
        if shard.len() >= SHARD_CAP {
            shard.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        shard.push_back(event);
    }

    fn counter(&self, name: &'static str) -> Arc<AtomicU64> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .entry(name)
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Add `delta` to a named counter.
    pub fn add(&self, name: &'static str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        self.counter(name).fetch_add(delta, Ordering::Relaxed);
    }

    /// Add 1 to a named counter.
    pub fn incr(&self, name: &'static str) {
        self.add(name, 1);
    }

    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .read()
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Record one span duration into a named timer histogram.
    pub fn record_time(&self, name: &'static str, dur: Duration) {
        if !self.is_enabled() {
            return;
        }
        let timer = {
            let read = self.timers.read();
            match read.get(name) {
                Some(t) => Arc::clone(t),
                None => {
                    drop(read);
                    Arc::clone(
                        self.timers
                            .write()
                            .entry(name)
                            .or_insert_with(|| Arc::new(Mutex::new(Timer::default()))),
                    )
                }
            }
        };
        timer.lock().record(dur.as_micros() as u64);
    }

    /// Record one value into a named log-linear histogram.
    pub fn record_histo(&self, name: &'static str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        let histo = {
            let read = self.histos.read();
            match read.get(name) {
                Some(h) => Arc::clone(h),
                None => {
                    drop(read);
                    Arc::clone(
                        self.histos
                            .write()
                            .entry(name)
                            .or_insert_with(|| Arc::new(Mutex::new(Histo::default()))),
                    )
                }
            }
        };
        histo.lock().record(value);
    }

    /// A point-in-time copy of one named histogram, if it exists.
    pub fn histo(&self, name: &str) -> Option<Histo> {
        self.histos.read().get(name).map(|h| h.lock().clone())
    }

    /// Start a new trace rooted at a span called `name`. Returns
    /// [`TraceCtx::NONE`] when collection is disabled, which turns all
    /// downstream span operations into no-ops.
    pub fn trace_start(&self, name: &'static str) -> TraceCtx {
        if !self.is_enabled() {
            return TraceCtx::NONE;
        }
        let now = self.start.elapsed().as_micros() as u64;
        self.traces.lock().start_trace(name, now)
    }

    /// Start a child span of `parent`. A `NONE` parent (untraced call
    /// path, or disabled collection at trace start) yields `NONE`.
    pub fn span_start(&self, name: &'static str, parent: TraceCtx) -> TraceCtx {
        if parent.is_none() || !self.is_enabled() {
            return TraceCtx::NONE;
        }
        let now = self.start.elapsed().as_micros() as u64;
        self.traces.lock().start_span(name, parent, now)
    }

    /// Finish the span `ctx` points at, stamping its end time and
    /// letting `fill` set tags (node, rows, failed, ...). The span's
    /// duration also lands in the histogram named after the span, so
    /// every span name has P50/P95/P99 without separate bookkeeping.
    pub fn span_finish(&self, ctx: TraceCtx, fill: impl FnOnce(&mut SpanRecord)) {
        if ctx.is_none() || !self.is_enabled() {
            return;
        }
        let now = self.start.elapsed().as_micros() as u64;
        let finished = self.traces.lock().finish_span(ctx, now, fill);
        if let Some((name, dur_us)) = finished {
            self.record_histo(name, dur_us);
        }
    }

    /// All retained spans of one trace, in span-id order.
    pub fn trace_spans(&self, trace: TraceId) -> Vec<SpanRecord> {
        self.traces.lock().spans_of(trace)
    }

    /// All retained spans across traces, grouped by trace in creation
    /// order (the `dc_spans` feed).
    pub fn all_spans(&self) -> Vec<SpanRecord> {
        self.traces.lock().all_spans()
    }

    /// Ids of retained traces, in creation order.
    pub fn trace_ids(&self) -> Vec<TraceId> {
        self.traces.lock().trace_ids()
    }

    /// Copy out events, counters, and timers.
    pub fn snapshot(&self) -> Snapshot {
        let mut events: Vec<Event> = Vec::new();
        for shard in &self.shards {
            events.extend(shard.lock().iter().cloned());
        }
        events.sort_by_key(|e| e.seq);
        let counters = self
            .counters
            .read()
            .iter()
            .map(|(name, v)| (name.to_string(), v.load(Ordering::Relaxed)))
            .collect();
        let timers = self
            .timers
            .read()
            .iter()
            .map(|(name, t)| (name.to_string(), t.lock().stats()))
            .collect();
        let histos = self
            .histos
            .read()
            .iter()
            .map(|(name, h)| (name.to_string(), h.lock().clone()))
            .collect();
        Snapshot {
            events,
            counters,
            timers,
            histos,
            dropped_events: self.dropped.load(Ordering::Relaxed),
            dropped_spans: self.traces.lock().dropped_spans,
        }
    }

    /// Discard all retained events, counters, timers, histograms, and
    /// traces.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
        self.counters.write().clear();
        self.timers.write().clear();
        self.histos.write().clear();
        self.traces.lock().clear();
        self.dropped.store(0, Ordering::Relaxed);
    }
}

/// The process-wide collector instance all layers record into.
///
/// Lock-order-witness findings are *not* pushed in here: the witness
/// hooks run while a freshly acquired guard is still held, so bumping
/// a collector counter from them could re-enter the collector's own
/// locks and self-deadlock. `dc_counters` folds the `lockwitness.*`
/// rows in at scan time instead (see `mppdb::system`).
pub fn global() -> &'static Collector {
    static GLOBAL: OnceLock<Collector> = OnceLock::new();
    GLOBAL.get_or_init(Collector::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn events_are_sequenced_and_carry_fields() {
        let c = Collector::new();
        c.emit(EventKind::TaskLaunch, |e| {
            e.job = Some("j1".into());
            e.task = Some(3);
        });
        c.emit(EventKind::TaskFinish, |e| {
            e.job = Some("j1".into());
            e.rows = 10;
            e.bytes = 100;
        });
        let snap = c.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].kind, EventKind::TaskLaunch);
        assert_eq!(snap.events[0].task, Some(3));
        assert!(snap.events[0].seq < snap.events[1].seq);
        assert!(snap.events[0].ts_us <= snap.events[1].ts_us);
        assert_eq!(snap.events[1].rows, 10);
        assert_eq!(snap.events_of(EventKind::TaskFinish).count(), 1);
    }

    #[test]
    fn counters_accumulate_and_delta() {
        let c = Collector::new();
        c.add("x.rows", 5);
        let before = c.snapshot();
        c.add("x.rows", 7);
        c.incr("x.jobs");
        let after = c.snapshot();
        assert_eq!(after.counters["x.rows"], 12);
        let delta = after.counters_since(&before);
        assert_eq!(delta["x.rows"], 7);
        assert_eq!(delta["x.jobs"], 1);
    }

    #[test]
    fn timers_track_distribution() {
        let c = Collector::new();
        for us in [10u64, 20, 30, 40, 5000] {
            c.record_time("t", Duration::from_micros(us));
        }
        let stats = c.snapshot().timers["t"];
        assert_eq!(stats.count, 5);
        assert_eq!(stats.sum_us, 5100);
        assert_eq!(stats.min_us, 10);
        assert_eq!(stats.max_us, 5000);
        assert!(stats.p50_us >= 10 && stats.p50_us < 5000, "{stats:?}");
        assert!(stats.p99_us >= stats.p50_us);
        assert!(stats.p99_us <= 5000);
    }

    #[test]
    fn disabled_collector_records_nothing_and_skips_closures() {
        let c = Collector::new();
        c.set_enabled(false);
        let ran = AtomicU32::new(0);
        c.emit(EventKind::TxnBegin, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        c.add("n", 3);
        c.record_time("t", Duration::from_micros(9));
        assert_eq!(ran.load(Ordering::Relaxed), 0, "fill closure must not run");
        let snap = c.snapshot();
        assert!(snap.events.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.timers.is_empty());
        c.set_enabled(true);
        c.incr("n");
        assert_eq!(c.counter_value("n"), 1);
    }

    #[test]
    fn ring_buffer_drops_oldest_beyond_capacity() {
        let c = Collector::new();
        for _ in 0..(SHARD_CAP + 10) {
            c.emit(EventKind::TxnBegin, |_| {});
        }
        let snap = c.snapshot();
        assert_eq!(snap.events.len(), SHARD_CAP);
        assert_eq!(snap.dropped_events, 10);
        // The survivors are the newest events.
        assert_eq!(snap.events[0].seq, 10);
    }

    #[test]
    fn concurrent_writers_land_in_one_total_order() {
        let c = Arc::new(Collector::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        c.emit(EventKind::CopyLoad, |e| {
                            e.node = Some(t);
                            e.rows = i;
                        });
                        c.add("rows", 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = c.snapshot();
        assert_eq!(snap.events.len(), 8 * 500);
        assert_eq!(snap.counters["rows"], 8 * 500);
        assert!(snap.events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn clear_resets_everything() {
        let c = Collector::new();
        c.emit(EventKind::TxnBegin, |_| {});
        c.add("n", 2);
        c.record_time("t", Duration::from_micros(1));
        let ctx = c.trace_start("root");
        c.span_finish(ctx, |_| {});
        c.record_histo("h", 9);
        c.clear();
        let snap = c.snapshot();
        assert!(snap.events.is_empty() && snap.counters.is_empty() && snap.timers.is_empty());
        assert!(snap.histos.is_empty());
        assert!(c.all_spans().is_empty());
    }

    /// Quantiles are *exact* against a sorted reference for values in
    /// the linear range, and exact-at-bucket-resolution above it: the
    /// histogram answer equals the bucket upper bound of the sorted
    /// sample at rank `ceil(q·n)`, clamped to the observed extrema.
    #[test]
    fn histo_quantiles_match_sorted_reference() {
        let mut sorted: Vec<u64> = (1..=50).collect(); // all < HISTO_LINEAR_MAX
        let mut h = Histo::new();
        for &v in &sorted {
            h.record(v);
        }
        sorted.sort_unstable();
        for q in [0.01, 0.25, 0.50, 0.75, 0.95, 0.99, 1.0] {
            let rank = ((sorted.len() as f64) * q).ceil().max(1.0) as usize;
            assert_eq!(h.quantile(q), sorted[rank - 1], "q={q}");
        }

        // A long-tailed distribution crossing octaves: the reference
        // maps each sorted sample through the public bucket mapping.
        let values: Vec<u64> = (0..500u64).map(|i| (i * i * 37) % 90_000).collect();
        let mut h = Histo::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.50, 0.95, 0.99] {
            let rank = ((sorted.len() as f64) * q).ceil().max(1.0) as usize;
            let expect = histo_bucket_bound(histo_bucket_index(sorted[rank - 1]))
                .min(h.max())
                .max(h.min());
            assert_eq!(h.quantile(q), expect, "q={q}");
            // Bucket resolution: within 1/64 of the true rank value.
            let truth = sorted[rank - 1];
            assert!(h.quantile(q) >= truth, "q={q}");
            assert!(h.quantile(q) <= truth + truth / 64 + 1, "q={q}");
        }
        assert_eq!(h.stats().count, 500);
    }

    #[test]
    fn histo_bucket_mapping_is_monotone_and_consistent() {
        for v in (0..4096u64).chain([1 << 20, (1 << 40) + 12345, u64::MAX]) {
            let i = histo_bucket_index(v);
            assert!(histo_bucket_floor(i) <= v, "floor({i}) > {v}");
            assert!(histo_bucket_bound(i) >= v, "bound({i}) < {v}");
        }
        for i in 1..HISTO_BUCKETS {
            assert_eq!(
                histo_bucket_floor(i),
                histo_bucket_bound(i - 1).wrapping_add(1),
                "gap/overlap at bucket {i}"
            );
        }
    }

    #[test]
    fn histo_since_subtracts_and_keeps_quantiles() {
        let mut h = Histo::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let before = h.clone();
        for v in [40u64, 50, 60, 61, 62] {
            h.record(v);
        }
        let delta = h.since(&before);
        assert_eq!(delta.count(), 5);
        assert_eq!(delta.min(), 40);
        assert_eq!(delta.max(), 62);
        assert_eq!(delta.quantile(0.5), 60); // rank 3 of [40,50,60,61,62]
        assert_eq!(delta.quantile(1.0), 62);
    }

    #[test]
    fn spans_build_a_tree_and_feed_histograms() {
        let c = Collector::new();
        let root = c.trace_start("job");
        let child = c.span_start("phase", root);
        let grand = c.span_start("attempt", child);
        c.span_finish(grand, |s| {
            s.node = Some(2);
            s.attempt = 1;
            s.failed = true;
        });
        c.span_finish(child, |s| s.rows = 7);
        c.span_finish(root, |_| {});
        let spans = c.trace_spans(root.trace);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "job");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(root.span));
        assert_eq!(spans[2].parent, Some(child.span));
        assert!(spans[2].failed);
        assert_eq!(spans[1].rows, 7);
        assert!(spans.iter().all(|s| s.end_us.is_some()));
        assert!(trace::validate(&spans).is_empty());
        // Every finished span landed in a same-named histogram.
        let snap = c.snapshot();
        for name in ["job", "phase", "attempt"] {
            assert_eq!(snap.histos[name].count(), 1, "{name}");
        }
        assert_eq!(c.trace_ids(), vec![root.trace]);
    }

    /// The disabled-mode no-op discipline extends to tracing: a
    /// disabled collector hands out `NONE` contexts, runs no fill
    /// closures, stores no spans, and records no histograms.
    #[test]
    fn disabled_tracing_is_a_no_op() {
        let c = Collector::new();
        c.set_enabled(false);
        let ran = AtomicU32::new(0);
        let root = c.trace_start("job");
        assert!(root.is_none());
        let child = c.span_start("phase", root);
        assert!(child.is_none());
        c.span_finish(child, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        c.record_histo("h", 5);
        assert_eq!(ran.load(Ordering::Relaxed), 0, "fill must not run");
        let snap = c.snapshot();
        assert!(c.all_spans().is_empty());
        assert!(snap.histos.is_empty());
        assert_eq!(snap.dropped_spans, 0);
        // Spans started while enabled but finished while disabled stay
        // unclosed rather than recording.
        c.set_enabled(true);
        let root = c.trace_start("job");
        c.set_enabled(false);
        c.span_finish(root, |_| {});
        let spans = c.trace_spans(root.trace);
        assert_eq!(spans[0].end_us, None);
    }

    #[test]
    fn span_cap_drops_and_counts() {
        let c = Collector::new();
        let root = c.trace_start("job");
        let mut dropped = 0;
        for _ in 0..9000 {
            let ctx = c.span_start("s", root);
            if ctx.is_none() {
                dropped += 1;
            } else {
                c.span_finish(ctx, |_| {});
            }
        }
        assert!(dropped > 0);
        assert_eq!(c.snapshot().dropped_spans, dropped);
        // Children of a dropped span are no-ops, not errors.
        let ctx = c.span_start("s", TraceCtx::NONE);
        assert!(ctx.is_none());
    }
}

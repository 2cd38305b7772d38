//! The run loop's instrument: times each operation a workload issues,
//! counts attempts and failures, and — in a traced run — switches the
//! program's `obs` collector on for alternate blocks of units.
//!
//! A *unit* is the smallest repeated piece of a workload (one round of
//! a round-based workload, one micro-batch of the stream). In a traced
//! run units alternate in blocks of [`TRACE_BLOCK`] between untraced
//! and traced, so the two halves see the same mix of work even where
//! the program itself has a short period (a mergeout every fourth
//! Overwrite, for example); the collector is only ever on while a
//! traced operation runs, which keeps result checks and set-up out of
//! the counters.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::check::Check;
use crate::{alloc, procfs};

/// Samples and totals of one kind of operation.
#[derive(Debug, Default, Clone)]
pub struct OpStats {
    /// Latency of every recorded operation, ms.
    pub samples_ms: Vec<f64>,
    /// Latency of the recorded operations that ran with `obs` off, ms.
    pub untraced_ms: Vec<f64>,
    /// Rows the recorded operations moved or covered.
    pub rows: u64,
    /// Recorded operations that ran traced.
    pub traced: u64,
    /// `scan.rows_examined` accumulated by the traced operations.
    pub traced_rows_examined: u64,
    /// Rows the traced operations returned to the client.
    pub traced_returned: u64,
}

/// Process cost of the untraced operations of a traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProcessCost {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub rows: u64,
}

#[derive(Debug)]
pub struct Meter {
    trace: bool,
    recording: bool,
    unit: u64,
    unit_traced: bool,
    unit_ms: f64,
    last_traced: Option<&'static str>,
    pub ops: BTreeMap<&'static str, OpStats>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the report.
    pub failures: Vec<String>,
    pub traced_unit_ms: Vec<f64>,
    pub untraced_unit_ms: Vec<f64>,
    /// High-water mark of live heap during each recorded unit, MiB.
    pub unit_peak_heap_mb: Vec<f64>,
    pub untraced_cost: ProcessCost,
}

const MAX_FAILURE_NOTES: usize = 8;

/// Consecutive units traced (or untraced) together in a traced run.
pub const TRACE_BLOCK: u64 = 4;

impl Meter {
    /// `trace`: alternate untraced and traced units.
    pub fn new(trace: bool) -> Meter {
        Meter {
            trace,
            recording: true,
            unit: 0,
            unit_traced: false,
            unit_ms: 0.0,
            last_traced: None,
            ops: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            traced_unit_ms: Vec::new(),
            untraced_unit_ms: Vec::new(),
            unit_peak_heap_mb: Vec::new(),
            untraced_cost: ProcessCost::default(),
        }
    }

    /// While off (warm-up), operations run and are checked but no
    /// sample is kept and no unit is traced.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    pub fn traced_units(&self) -> u64 {
        self.traced_unit_ms.len() as u64
    }

    pub fn begin_unit(&mut self) {
        self.unit_traced = self.trace && self.recording && (self.unit / TRACE_BLOCK) % 2 == 1;
        self.unit_ms = 0.0;
        alloc::reset_peak();
    }

    pub fn end_unit(&mut self) {
        if self.recording {
            if self.unit_traced {
                self.traced_unit_ms.push(self.unit_ms);
            } else {
                self.untraced_unit_ms.push(self.unit_ms);
            }
            self.unit_peak_heap_mb
                .push(alloc::peak_live_bytes() as f64 / (1024.0 * 1024.0));
            self.unit += 1;
        }
        self.unit_traced = false;
    }

    /// Run one timed operation covering `rows` rows. An error counts as
    /// a failed operation and yields `None`.
    pub fn op<R, E: std::fmt::Display>(
        &mut self,
        kind: &'static str,
        rows: u64,
        f: impl FnOnce() -> Result<R, E>,
    ) -> Option<R> {
        self.attempted += 1;
        let traced = self.unit_traced;
        let costed = self.trace && self.recording && !traced;
        let (cpu0, alloc0) = if costed {
            (procfs::cpu_seconds(), alloc::totals())
        } else {
            (0.0, (0, 0))
        };
        let examined0 = obs::global().counter_value("scan.rows_examined");
        obs::global().set_enabled(traced);
        let t0 = Instant::now();
        let result = f();
        let elapsed = t0.elapsed();
        obs::global().set_enabled(false);
        let ms = elapsed.as_secs_f64() * 1e3;
        if costed {
            let (allocs, bytes) = alloc::totals();
            let cost = &mut self.untraced_cost;
            cost.wall_s += elapsed.as_secs_f64();
            cost.cpu_s += procfs::cpu_seconds() - cpu0;
            cost.allocs += allocs - alloc0.0;
            cost.alloc_bytes += bytes - alloc0.1;
            cost.rows += rows;
        }
        self.last_traced = (self.recording && traced).then_some(kind);
        if self.recording {
            self.unit_ms += ms;
            let stats = self.ops.entry(kind).or_default();
            stats.samples_ms.push(ms);
            stats.rows += rows;
            if traced {
                stats.traced += 1;
                stats.traced_rows_examined +=
                    obs::global().counter_value("scan.rows_examined") - examined0;
            } else {
                stats.untraced_ms.push(ms);
            }
        }
        match result {
            Ok(r) => Some(r),
            Err(e) => {
                self.fail(format!("{kind}: {e}"));
                None
            }
        }
    }

    /// Note the rows the last operation returned to the client (kept
    /// for traced operations only).
    pub fn returned(&mut self, rows: u64) {
        if let Some(stats) = self.last_traced.and_then(|k| self.ops.get_mut(k)) {
            stats.traced_returned += rows;
        }
    }

    /// Record the outcome of a result check for an operation that
    /// already counted as attempted.
    pub fn verify(&mut self, check: Check) {
        if let Err(reason) = check {
            self.fail(reason);
        }
    }

    /// Count a check of work outside any timed operation (for example
    /// the end-of-cycle row count) as its own attempted operation.
    pub fn verify_extra(&mut self, check: Check) {
        self.attempted += 1;
        self.verify(check);
    }

    fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_NOTES {
            self.failures.push(reason);
        }
    }

    pub fn samples(&self, kind: &str) -> &[f64] {
        self.ops
            .get(kind)
            .map(|s| s.samples_ms.as_slice())
            .unwrap_or(&[])
    }
}

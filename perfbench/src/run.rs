//! One benchmark run: set up (several times), warm up, drive the
//! workload's closed loop for the requested time, then report.

use std::time::Instant;

use crate::bed::{nproc, Scale};
use crate::layers;
use crate::meter::Meter;
use crate::stats::{median, percentile, Summary};
use crate::workloads::WorkloadName;
use crate::{procfs, Metric};

/// Every end-to-end metric, with its unit. An untraced run prints
/// exactly these. `primary` and `secondary` name each workload's two
/// operation kinds (see [`crate::workloads::Workload::kinds`]).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("primary_ms_p50", "ms"),
    ("secondary_ms_p50", "ms"),
    ("rows_per_s", "rows/s"),
    ("peak_heap_mb", "MB"),
    ("ok_ops_share", "ratio"),
];

/// Set-up repeats until it has run at least [`MIN_SETUP_REPS`] times
/// and for at least this long (or [`MAX_SETUP_REPS`] times), so cheap
/// set-ups get enough repetitions for a steady median; `setup_s` is
/// their median.
pub const SETUP_BUDGET_S: f64 = 1.0;
pub const MIN_SETUP_REPS: usize = 3;
pub const MAX_SETUP_REPS: usize = 25;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: WorkloadName,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failure reasons (the first few).
    pub failures: Vec<String>,
    /// One-line JSON report: provenance, every operation's latency
    /// summary and the workload's metrics under their own names.
    pub report: String,
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let collector = obs::global();
    collector.set_enabled(false);

    let mut setup_s: Vec<f64> = Vec::new();
    let mut built = None;
    while setup_s.len() < MIN_SETUP_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < MAX_SETUP_REPS)
    {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(cfg.workload.setup(cfg.seed, &cfg.scale));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = built.expect("at least one set-up ran");

    let mut meter = Meter::new(cfg.trace);
    meter.set_recording(false);
    workload.warmup(&mut meter);
    meter.set_recording(true);

    let before = cfg.trace.then(|| collector.snapshot());
    let t0 = Instant::now();
    let mut rounds = 0usize;
    loop {
        workload.round(&mut meter);
        rounds += 1;
        let timed_out = t0.elapsed().as_secs_f64() >= cfg.seconds;
        let whole_block = rounds.is_multiple_of(workload.rounds_per_block());
        let both_halves =
            !cfg.trace || (meter.traced_units() > 0 && !meter.untraced_unit_ms.is_empty());
        if timed_out && whole_block && both_halves {
            break;
        }
    }
    let loop_s = t0.elapsed().as_secs_f64();
    let peak_heap_mb = median(&meter.unit_peak_heap_mb).unwrap_or(0.0);

    let (primary, secondary) = workload.kinds();
    // Rows over the summed wall time of the operations that moved them,
    // so periodic slow operations (a mergeout every few saves) count.
    let (mut rows, mut ms) = (0u64, 0.0);
    for kind in workload.throughput_kinds() {
        if let Some(s) = meter.ops.get(kind) {
            rows += s.rows;
            ms += s.samples_ms.iter().sum::<f64>();
        }
    }
    let rows_per_s = if ms > 0.0 {
        rows as f64 / (ms / 1e3)
    } else {
        0.0
    };
    let ok_share = 1.0 - meter.failed as f64 / meter.attempted.max(1) as f64;
    let setup_median = median(&setup_s).unwrap_or(0.0);

    let metrics = if cfg.trace {
        let after = collector.snapshot();
        let before = before.expect("traced runs snapshot first");
        layers::per_layer(
            &*workload, &mut meter, &before, &after, cfg.seed, &cfg.scale,
        )
    } else {
        let e2e = [
            setup_median,
            median(meter.samples(primary)).unwrap_or(0.0),
            median(meter.samples(secondary)).unwrap_or(0.0),
            rows_per_s,
            peak_heap_mb,
            ok_share,
        ];
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    };

    let named = named_metrics(
        cfg.workload,
        &meter,
        setup_median,
        rows_per_s,
        ok_share,
        peak_heap_mb,
    );
    let report = report_line(cfg, &meter, rounds, loop_s, &setup_s, &named, &metrics);
    // The traced run's probes check results too, so count after them.
    Outcome {
        correct: meter.failed == 0,
        attempted: meter.attempted.max(1),
        failed: meter.failed,
        metrics,
        failures: meter.failures.clone(),
        report,
    }
}

/// A value reported under the name the workload's users know it by.
struct Named {
    name: &'static str,
    value: f64,
    unit: &'static str,
    n: usize,
}

fn named_metrics(
    workload: WorkloadName,
    meter: &Meter,
    setup_s: f64,
    rows_per_s: f64,
    ok_share: f64,
    peak_heap_mb: f64,
) -> Vec<Named> {
    let p50 = |name, kind| {
        let s = meter.samples(kind);
        Named {
            name,
            value: median(s).unwrap_or(0.0),
            unit: "ms",
            n: s.len(),
        }
    };
    let rate = |name| Named {
        name,
        value: rows_per_s,
        unit: "rows/s",
        n: 1,
    };
    let mut out = match workload {
        WorkloadName::S2vBulk => vec![
            p50("s2v_overwrite_ms_p50", "overwrite"),
            p50("s2v_append_ms_p50", "append"),
            rate("s2v_rows_per_s"),
        ],
        WorkloadName::V2sScan => vec![
            p50("v2s_load_ms_p50", "load"),
            p50("v2s_pushdown_ms_p50", "pushdown"),
        ],
        WorkloadName::SqlAnalytics => vec![
            p50("sql_agg_ms_p50", "sql_agg"),
            p50("md_score_ms_p50", "md_score"),
        ],
        WorkloadName::StreamTrickle => {
            let commits = meter.samples("commit");
            let mut v = vec![p50("stream_commit_ms_p50", "commit")];
            // p90 only where ten samples lie beyond it.
            if commits.len() >= 100 {
                v.push(Named {
                    name: "stream_commit_ms_p90",
                    value: percentile(commits, 90.0).unwrap_or(0.0),
                    unit: "ms",
                    n: commits.len(),
                });
            }
            v.push(p50("stream_probe_ms_p50", "probe"));
            v.push(rate("stream_rows_per_s"));
            v
        }
    };
    out.push(Named {
        name: "setup_s",
        value: setup_s,
        unit: "s",
        n: 1,
    });
    out.push(Named {
        name: "failed_ops_share",
        value: 1.0 - ok_share,
        unit: "ratio",
        n: 1,
    });
    out.push(Named {
        name: "peak_rss_mb",
        value: procfs::peak_rss_mb(),
        unit: "MB",
        n: 1,
    });
    out.push(Named {
        name: "peak_heap_mb",
        value: peak_heap_mb,
        unit: "MB",
        n: 1,
    });
    out
}

/// The commit checked out in the working directory, read from its
/// `.git`; "unknown" when the directory is not a git checkout.
fn git_rev() -> String {
    let git = std::path::Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| r.to_string()),
        None => head.to_string(),
    }
}

/// A finite JSON number (non-finite values print as 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn report_line(
    cfg: &RunConfig,
    meter: &Meter,
    rounds: usize,
    loop_s: f64,
    setup_s: &[f64],
    named: &[Named],
    metrics: &[Metric],
) -> String {
    let provenance = format!(
        "{{\"git_rev\": {}, \"nproc\": {}, \"profile\": {}, \"seed\": {}, \"workload\": {}, \
         \"rounds\": {rounds}, \"units\": {}, \"loop_s\": {}, \"setup_reps\": {}, \
         \"obs_enabled\": {}, \"label\": \"measured\"}}",
        string(&git_rev()),
        nproc(),
        string(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        cfg.seed,
        string(cfg.workload.as_str()),
        meter.traced_unit_ms.len() + meter.untraced_unit_ms.len(),
        num(loop_s),
        setup_s.len(),
        cfg.trace,
    );
    let ops: Vec<String> = meter
        .ops
        .iter()
        .map(|(kind, s)| {
            let sum = Summary::of(&s.samples_ms);
            let tail = match sum.tail {
                Some((p, v)) => format!("\"tail_pct\": {}, \"tail_ms\": {}", num(p), num(v)),
                None => "\"tail_pct\": null, \"tail_ms\": null".into(),
            };
            format!(
                "{}: {{\"n\": {}, \"p50_ms\": {}, {tail}, \"rows\": {}}}",
                string(kind),
                sum.n,
                num(sum.p50),
                s.rows
            )
        })
        .collect();
    let named: Vec<String> = named
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"n\": {}, \"label\": \"measured\"}}",
                string(m.name),
                num(m.value),
                string(m.unit),
                m.n
            )
        })
        .collect();
    let failures: Vec<String> = meter.failures.iter().map(|f| string(f)).collect();
    format!(
        "{{\"report\": \"perfbench\", \"provenance\": {provenance}, \"ops\": {{{}}}, \
         \"named\": {{{}}}, \"setup_s\": [{}], \"failures\": [{}], \"metrics\": {}}}",
        ops.join(", "),
        named.join(", "),
        setup_s
            .iter()
            .map(|s| num(*s))
            .collect::<Vec<_>>()
            .join(", "),
        failures.join(", "),
        metrics_json(metrics)
    )
}

/// The contract's last line.
pub fn result_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    )
}

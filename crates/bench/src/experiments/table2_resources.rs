//! Table 2 — per-node resource usage during V2S at 4 vs 32 partitions.
//!
//! Paper (first 300 s of the Fig. 6 runs, one database node): with 4
//! partitions CPU settles at ~5% and the outbound network at ~38 MBps
//! (one connection per node, stream-capped); with 32 partitions CPU
//! ~20% and the network saturated at ~120 MBps.

use crate::datasets::{self, specs};
use crate::experiments::{run_v2s_load, seed_table, LAB_D1_ROWS};
use crate::fabric::TestBed;
use crate::model::{simulate, SimParams};
use crate::report::ReportRow;

/// Steady-state summary of one run's node-0 trace.
#[derive(Debug, Clone, Copy)]
pub struct NodeUsage {
    pub cpu_percent: f64,
    pub network_mbps: f64,
}

/// Median over the steady portion of the first 300 seconds.
fn steady(series: &[f64]) -> f64 {
    let window: Vec<f64> = series
        .iter()
        .copied()
        .take(300)
        .skip(series.len().min(300) / 5)
        .collect();
    if window.is_empty() {
        return 0.0;
    }
    let mut sorted = window;
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

pub fn run() -> (Vec<ReportRow>, Vec<(usize, NodeUsage)>) {
    let bed = TestBed::new(4, 8);
    let (schema, rows) = datasets::d1(LAB_D1_ROWS, 100, 42);
    seed_table(&bed, schema, rows, "table2");
    let spec = specs::d1_100m(LAB_D1_ROWS as u64);

    let mut report = Vec::new();
    let mut usages = Vec::new();
    for (partitions, paper_cpu, paper_net) in [(4usize, 5.0, 38.0), (32, 20.0, 120.0)] {
        let events = run_v2s_load(&bed, "table2", partitions);
        let out = simulate(&events, &SimParams::new(4, 8, spec.scale()));
        let node0_net = out
            .result
            .trace
            .throughput_series(out.topology.db_ext_out[0]);
        let node0_cpu: Vec<f64> = (0..out.result.trace.bin_count(out.topology.db_cpu[0]))
            .map(|b| out.result.trace.utilization(out.topology.db_cpu[0], b) * 100.0)
            .collect();
        let usage = NodeUsage {
            cpu_percent: steady(&node0_cpu),
            network_mbps: steady(&node0_net) / 1e6,
        };
        report.push(
            ReportRow::new(
                format!("{partitions:>2} partitions: node CPU"),
                Some(paper_cpu),
                usage.cpu_percent,
            )
            .with_unit("%"),
        );
        report.push(
            ReportRow::new(
                format!("{partitions:>2} partitions: node net out"),
                Some(paper_net),
                usage.network_mbps,
            )
            .with_unit("MBps"),
        );
        usages.push((partitions, usage));
    }
    (report, usages)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_matches_table_2() {
        let _serial = crate::experiments::serial::hold();
        let (_, usages) = run();
        let (_, low) = usages[0];
        let (_, high) = usages[1];
        // 4 partitions: one ~38-40 MBps stream, light CPU.
        assert!(
            (30.0..50.0).contains(&low.network_mbps),
            "net@4 {}",
            low.network_mbps
        );
        assert!(
            (2.0..10.0).contains(&low.cpu_percent),
            "cpu@4 {}",
            low.cpu_percent
        );
        // 32 partitions: the NIC saturates, CPU climbs toward ~20%.
        assert!(
            (105.0..126.0).contains(&high.network_mbps),
            "net@32 {}",
            high.network_mbps
        );
        assert!(
            (12.0..30.0).contains(&high.cpu_percent),
            "cpu@32 {}",
            high.cpu_percent
        );
    }
}

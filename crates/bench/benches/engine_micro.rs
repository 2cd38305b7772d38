//! Criterion micro-benchmarks of the substrates: segmentation hashing,
//! storage scans, the SQL layer, and the max-min allocator.

use common::agg::{AggCall, AggFunc, AggRequest};
use common::hash::segmentation_hash;
use common::{row, Value};
use criterion::{criterion_group, criterion_main, Criterion};
use mppdb::{Cluster, ClusterConfig, QuerySpec};
use netsim::flow::max_min_rates;
use netsim::{FlowSpec, Topology};

fn bench_hash(c: &mut Criterion) {
    let values: Vec<Value> = (0..100).map(|i| Value::Float64(i as f64 / 7.0)).collect();
    c.bench_function("segmentation_hash_100_floats", |b| {
        b.iter(|| segmentation_hash(&values))
    });
}

fn bench_scan(c: &mut Criterion) {
    let cluster = Cluster::new(ClusterConfig::default());
    {
        let mut s = cluster.connect(0).unwrap();
        s.execute("CREATE TABLE t (id INT, x FLOAT, name VARCHAR)")
            .unwrap();
        let rows: Vec<common::Row> = (0..20_000)
            .map(|i| row![i as i64, i as f64, format!("name{}", i % 100)])
            .collect();
        s.insert("t", rows).unwrap();
        cluster.moveout_all();
    }
    c.bench_function("scan_20k_rows_full", |b| {
        let mut s = cluster.connect(1).unwrap();
        b.iter(|| {
            let r = s.query(&QuerySpec::scan("t")).unwrap();
            assert_eq!(r.rows.len(), 20_000);
        })
    });
    c.bench_function("scan_20k_rows_filtered_count", |b| {
        let mut s = cluster.connect(1).unwrap();
        let spec = QuerySpec::scan("t")
            .filter(common::Expr::col("id").lt(common::Expr::lit(1000i64)))
            .count();
        b.iter(|| {
            let r = s.query(&spec).unwrap();
            assert_eq!(r.count, 1000);
        })
    });
    c.bench_function("sql_aggregate_20k_rows", |b| {
        let mut s = cluster.connect(2).unwrap();
        b.iter(|| {
            let r = s
                .execute("SELECT name, COUNT(*), AVG(x) FROM t GROUP BY name")
                .unwrap()
                .rows()
                .unwrap();
            assert_eq!(r.rows.len(), 100);
        })
    });

    // The same filtered GROUP BY through SQL and through `QuerySpec`:
    // SQL lowers onto the aggregate scan, so the pair should converge.
    c.bench_function("sql_vs_queryspec/sql", |b| {
        let mut s = cluster.connect(2).unwrap();
        b.iter(|| {
            let r = s
                .execute("SELECT name, COUNT(*), SUM(x) FROM t WHERE id < 5000 GROUP BY name")
                .unwrap()
                .rows()
                .unwrap();
            assert_eq!(r.rows.len(), 100);
        })
    });
    c.bench_function("sql_vs_queryspec/queryspec", |b| {
        let mut s = cluster.connect(2).unwrap();
        let spec = QuerySpec::scan("t")
            .filter(common::Expr::col("id").lt(common::Expr::lit(5000i64)))
            .aggregate(AggRequest::new(
                &["name"],
                vec![AggCall::count_star(), AggCall::new(AggFunc::Sum, "x")],
            ));
        b.iter(|| {
            let r = s.query(&spec).unwrap();
            assert_eq!(r.rows.len(), 100);
        })
    });
}

fn bench_max_min(c: &mut Criterion) {
    let mut topo = Topology::new();
    let links: Vec<_> = (0..40)
        .map(|i| topo.add_resource(format!("l{i}"), 125e6))
        .collect();
    let flows: Vec<FlowSpec> = (0..256)
        .map(|i| {
            FlowSpec::new(1e9)
                .on(links[i % 40], 1.0)
                .on(links[(i * 7 + 3) % 40], 1.0)
                .capped(40e6)
        })
        .collect();
    let refs: Vec<&FlowSpec> = flows.iter().collect();
    c.bench_function("max_min_rates_256_flows_40_links", |b| {
        b.iter(|| max_min_rates(&topo, &refs))
    });
}

criterion_group!(benches, bench_hash, bench_scan, bench_max_min);
criterion_main!(benches);

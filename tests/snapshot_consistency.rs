//! Epoch-pinned snapshot consistency under live concurrent writers —
//! the paper's Sec. 3.1.2 guarantee and the ablation DESIGN.md calls
//! out (pinned vs unpinned reads).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use vertica_spark_fabric::prelude::*;

/// Writers insert whole batches of a fixed size transactionally; any
/// consistent snapshot therefore holds a multiple of the batch size.
const BATCH: usize = 50;

#[test]
fn v2s_sees_whole_batches_despite_concurrent_commits() {
    let db = Cluster::new(ClusterConfig::default());
    let ctx = SparkContext::new(SparkConf {
        nodes: 4,
        cores_per_node: 4,
        max_task_attempts: 4,
        thread_cap: 8,
        ..SparkConf::default()
    });
    DefaultSource::register(&ctx, db.clone());
    {
        let mut s = db.connect(0).unwrap();
        s.execute("CREATE TABLE live (id INT, batch INT)").unwrap();
        s.insert("live", (0..BATCH).map(|i| row![i as i64, 0i64]).collect())
            .unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let writer_db = Arc::clone(&db);
    let writer_stop = Arc::clone(&stop);
    let writer = std::thread::spawn(move || {
        let mut s = writer_db.connect(1).unwrap();
        let mut batch = 1i64;
        while !writer_stop.load(Ordering::Acquire) {
            let rows: Vec<Row> = (0..BATCH)
                .map(|i| row![(batch * BATCH as i64) + i as i64, batch])
                .collect();
            s.insert("live", rows).unwrap();
            batch += 1;
        }
        batch
    });

    // Loads racing the writer: each must see a whole number of batches.
    for round in 0..20 {
        let loaded = ctx
            .read()
            .format(DEFAULT_SOURCE)
            .option("table", "live")
            .option("numPartitions", 8)
            .load()
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(
            loaded.len() % BATCH,
            0,
            "round {round}: saw {} rows — a torn batch",
            loaded.len()
        );
        // And within the snapshot, batches are complete.
        let mut per_batch = std::collections::HashMap::new();
        for r in &loaded {
            *per_batch
                .entry(r.get(1).as_i64().unwrap())
                .or_insert(0usize) += 1;
        }
        for (batch, count) in per_batch {
            assert_eq!(count, BATCH, "round {round}: batch {batch} torn");
        }
    }
    stop.store(true, Ordering::Release);
    let batches = writer.join().unwrap();
    assert!(batches > 1, "the writer actually ran");
}

#[test]
fn pinned_epoch_is_stable_across_the_whole_load() {
    // The relation pins its epoch at open; mutations between open and
    // scan are invisible (contrast with the JDBC baseline's unpinned
    // reads, demonstrated in the baselines test suite).
    let db = Cluster::new(ClusterConfig::default());
    let ctx = SparkContext::new(SparkConf::default());
    DefaultSource::register(&ctx, db.clone());
    {
        let mut s = db.connect(0).unwrap();
        s.execute("CREATE TABLE pinned (id INT)").unwrap();
        s.insert("pinned", (0..200).map(|i| row![i as i64]).collect())
            .unwrap();
    }
    let relation = ctx
        .read()
        .format(DEFAULT_SOURCE)
        .option("table", "pinned")
        .option("numPartitions", 8)
        .load()
        .unwrap();
    {
        let mut s = db.connect(2).unwrap();
        s.execute("DELETE FROM pinned WHERE id < 100").unwrap();
    }
    // Count and collect agree with the pinned snapshot, not the mutated
    // table.
    assert_eq!(relation.count().unwrap(), 200);
    assert_eq!(relation.collect().unwrap().len(), 200);
    // A new relation sees the new epoch.
    let fresh = ctx
        .read()
        .format(DEFAULT_SOURCE)
        .option("table", "pinned")
        .load()
        .unwrap();
    assert_eq!(fresh.count().unwrap(), 100);
}

/// `(count, sum of ids, sum of values)` — a row checksum that SQL can
/// compute too.
fn digest<'a>(rows: impl IntoIterator<Item = &'a Row>) -> (i64, i64, i64) {
    rows.into_iter().fold((0, 0, 0), |(n, ids, vals), r| {
        (
            n + 1,
            ids + r.get(0).as_i64().unwrap(),
            vals + r.get(1).as_i64().unwrap(),
        )
    })
}

fn sql_digest(s: &mut Session, epoch: u64) -> (i64, i64, i64) {
    let r = s
        .execute(&format!(
            "AT EPOCH {epoch} SELECT COUNT(*), SUM(id), SUM(v) FROM saved"
        ))
        .unwrap()
        .rows()
        .unwrap();
    let get = |i: usize| r.rows[0].get(i).as_i64().unwrap();
    (get(0), get(1), get(2))
}

#[test]
fn relations_pinned_before_a_save_keep_the_old_snapshot() {
    let schema = Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)]);
    let rows = |ids: std::ops::Range<i64>| -> Vec<Row> { ids.map(|i| row![i, i % 7]).collect() };
    for mode in [SaveMode::Overwrite, SaveMode::Append] {
        let db = Cluster::new(ClusterConfig::default());
        let ctx = SparkContext::new(SparkConf::default());
        DefaultSource::register(&ctx, db.clone());
        let save = |data: Vec<Row>, mode: SaveMode| {
            ctx.create_dataframe(data, schema.clone(), 4)
                .unwrap()
                .write()
                .format(DEFAULT_SOURCE)
                .option("table", "saved")
                .mode(mode)
                .save()
                .unwrap();
        };
        let open = || {
            ctx.read()
                .format(DEFAULT_SOURCE)
                .option("table", "saved")
                .option("numPartitions", 4)
                .load()
                .unwrap()
        };
        save(rows(0..300), SaveMode::Overwrite);
        let old_epoch = db.current_epoch();
        let pinned = open();

        save(rows(1000..1200), mode);
        let new_epoch = db.current_epoch();
        let fresh = open();

        let old = digest(&rows(0..300));
        let new = match mode {
            SaveMode::Append => digest(
                &rows(0..300)
                    .into_iter()
                    .chain(rows(1000..1200))
                    .collect::<Vec<_>>(),
            ),
            _ => digest(&rows(1000..1200)),
        };
        assert_eq!(pinned.count().unwrap(), old.0 as u64, "{mode:?}");
        assert_eq!(digest(&pinned.collect().unwrap()), old, "{mode:?}: pinned");
        assert_eq!(fresh.count().unwrap(), new.0 as u64, "{mode:?}");
        assert_eq!(digest(&fresh.collect().unwrap()), new, "{mode:?}: fresh");
        let mut s = db.connect(1).unwrap();
        assert_eq!(sql_digest(&mut s, old_epoch), old, "{mode:?}: AT EPOCH old");
        assert_eq!(sql_digest(&mut s, new_epoch), new, "{mode:?}: AT EPOCH new");
    }
}

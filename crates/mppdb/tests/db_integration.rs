//! End-to-end database tests: SQL, epoch snapshots, views with joins
//! and aggregates, k-safety failover, and the conditional-update
//! pattern S2V builds on.

use std::sync::Arc;

use common::{row, Value};
use mppdb::{Cluster, ClusterConfig, DbError, QuerySpec};

fn cluster() -> Arc<Cluster> {
    Cluster::new(ClusterConfig::default())
}

#[test]
fn sql_end_to_end() {
    let c = cluster();
    let mut s = c.connect(0).unwrap();
    s.execute(
        "CREATE TABLE users (id INT NOT NULL, name VARCHAR, score FLOAT) \
         SEGMENTED BY HASH(id) ALL NODES",
    )
    .unwrap();
    s.execute("INSERT INTO users VALUES (1, 'alice', 9.5), (2, 'bob', 7.25), (3, 'carol', 8.0)")
        .unwrap();

    let r = s
        .execute("SELECT name FROM users WHERE score > 7.5 LIMIT 10")
        .unwrap()
        .rows()
        .unwrap();
    let mut names: Vec<String> = r
        .rows
        .iter()
        .map(|row| row.get(0).as_str().unwrap().to_string())
        .collect();
    names.sort();
    assert_eq!(names, vec!["alice", "carol"]);

    let r = s
        .execute("SELECT COUNT(*) FROM users")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(3));

    s.execute("UPDATE users SET score = score + 1 WHERE name = 'bob'")
        .unwrap();
    let r = s
        .execute("SELECT score FROM users WHERE name = 'bob'")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Float64(8.25));

    let n = s
        .execute("DELETE FROM users WHERE id = 1")
        .unwrap()
        .affected()
        .unwrap();
    assert_eq!(n, 1);
    let r = s
        .execute("SELECT COUNT(*) FROM users")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(2));
}

#[test]
fn epoch_snapshots_are_stable_under_updates() {
    let c = cluster();
    let mut s = c.connect(1).unwrap();
    s.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 1.0), (2, 2.0)")
        .unwrap();
    let e1 = c.current_epoch();

    s.execute("INSERT INTO t VALUES (3, 3.0)").unwrap();
    s.execute("DELETE FROM t WHERE id = 1").unwrap();
    let e2 = c.current_epoch();
    assert!(e2 > e1);

    // AT EPOCH e1 sees the original two rows.
    let r = s
        .execute(&format!("AT EPOCH {e1} SELECT COUNT(*) FROM t"))
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(2));

    // Latest sees two rows as well (one added, one deleted), but not
    // the same ones.
    let r = s
        .execute("AT EPOCH LATEST SELECT id FROM t")
        .unwrap()
        .rows()
        .unwrap();
    let mut ids: Vec<i64> = r.rows.iter().map(|x| x.get(0).as_i64().unwrap()).collect();
    ids.sort();
    assert_eq!(ids, vec![2, 3]);

    // A future epoch is an error.
    let err = s
        .execute(&format!("AT EPOCH {} SELECT * FROM t", e2 + 10))
        .unwrap_err();
    assert!(matches!(err, DbError::BadEpoch { .. }));
}

#[test]
fn views_push_joins_and_aggregates_below_the_client() {
    let c = cluster();
    let mut s = c.connect(0).unwrap();
    s.execute("CREATE TABLE orders (oid INT, uid INT, amount FLOAT)")
        .unwrap();
    s.execute("CREATE TABLE users (uid INT, name VARCHAR)")
        .unwrap();
    s.execute("INSERT INTO users VALUES (1, 'alice'), (2, 'bob')")
        .unwrap();
    s.execute("INSERT INTO orders VALUES (10, 1, 5.0), (11, 1, 7.0), (12, 2, 1.5)")
        .unwrap();
    s.execute(
        "CREATE VIEW user_totals AS SELECT u.name AS name, SUM(o.amount) AS total \
         FROM orders o JOIN users u ON o.uid = u.uid GROUP BY u.name",
    )
    .unwrap();

    // Through SQL.
    let r = s
        .execute("SELECT name, total FROM user_totals WHERE total > 2")
        .unwrap()
        .rows()
        .unwrap();
    let mut pairs: Vec<(String, f64)> = r
        .rows
        .iter()
        .map(|row| {
            (
                row.get(0).as_str().unwrap().to_string(),
                row.get(1).as_f64().unwrap(),
            )
        })
        .collect();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(pairs, vec![("alice".to_string(), 12.0)]);

    // Through the programmatic API with a synthetic row range — the
    // V2S view-loading path.
    let all = s.query(&QuerySpec::scan("user_totals")).unwrap();
    assert_eq!(all.rows.len(), 2);
    let first = s
        .query(&QuerySpec::scan("user_totals").with_row_range(0, 1))
        .unwrap();
    let second = s
        .query(&QuerySpec::scan("user_totals").with_row_range(1, 2))
        .unwrap();
    assert_eq!(first.rows.len() + second.rows.len(), 2);
    assert_ne!(first.rows[0], second.rows[0]);
}

#[test]
fn k_safety_failover_serves_all_segments() {
    let c = Cluster::new(ClusterConfig {
        k_safety: 1,
        ..ClusterConfig::default()
    });
    let mut s = c.connect(0).unwrap();
    s.execute("CREATE TABLE t (id INT, v FLOAT) SEGMENTED BY HASH(id) ALL NODES")
        .unwrap();
    let rows: Vec<common::Row> = (0..400).map(|i| row![i as i64, i as f64]).collect();
    s.insert("t", rows).unwrap();

    let before = s.query(&QuerySpec::scan("t").count()).unwrap();
    assert_eq!(before.count, 400);

    // Down a node that is not the session's; its segment fails over to
    // the buddy.
    c.set_node_down(2);
    let after = s.query(&QuerySpec::scan("t").count()).unwrap();
    assert_eq!(after.count, 400, "buddy replica must serve segment 2");

    // With k=0 the same scenario errors.
    let c0 = cluster();
    let mut s0 = c0.connect(0).unwrap();
    s0.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
    s0.insert("t", (0..50).map(|i| row![i as i64, 0.0f64]).collect())
        .unwrap();
    c0.set_node_down(2);
    let err = s0.query(&QuerySpec::scan("t").count()).unwrap_err();
    assert!(matches!(err, DbError::DataUnavailable { segment: 2 }));
}

#[test]
fn conditional_update_race_elects_exactly_one_winner() {
    // The S2V phase-3 pattern: many transactions race to claim a slot
    // with "read, check empty, write, commit"; table locks must admit
    // exactly one.
    let c = cluster();
    {
        let mut s = c.connect(0).unwrap();
        s.execute("CREATE TABLE last_committer (winner INT) UNSEGMENTED ALL NODES")
            .unwrap();
    }
    let winners = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for contender in 0..8i64 {
            let c = Arc::clone(&c);
            let winners = &winners;
            scope.spawn(move || {
                let node = (contender as usize) % c.node_count();
                let mut s = c.connect(node).unwrap();
                s.begin().unwrap();
                let r = s
                    .execute("SELECT COUNT(*) FROM last_committer")
                    .unwrap()
                    .rows()
                    .unwrap();
                let empty = r.rows[0].get(0) == &Value::Int64(0);
                if empty {
                    s.execute(&format!("INSERT INTO last_committer VALUES ({contender})"))
                        .unwrap();
                    s.commit().unwrap();
                    winners.lock().unwrap().push(contender);
                } else {
                    s.rollback().unwrap();
                }
            });
        }
    });
    assert_eq!(winners.lock().unwrap().len(), 1, "exactly one winner");
    let mut s = c.connect(0).unwrap();
    let r = s
        .execute("SELECT COUNT(*) FROM last_committer")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(1));
}

#[test]
fn dropped_session_aborts_open_transaction() {
    let c = cluster();
    {
        let mut s = c.connect(0).unwrap();
        s.execute("CREATE TABLE t (id INT)").unwrap();
    }
    {
        let mut s = c.connect(0).unwrap();
        s.begin().unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        // Session dropped mid-transaction: the task died.
    }
    let mut s = c.connect(1).unwrap();
    let r = s.execute("SELECT COUNT(*) FROM t").unwrap().rows().unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(0));
}

#[test]
fn snapshot_reads_do_not_block_on_writers() {
    let c = cluster();
    let mut writer = c.connect(0).unwrap();
    writer.execute("CREATE TABLE t (id INT)").unwrap();
    writer.execute("INSERT INTO t VALUES (1)").unwrap();

    writer.begin().unwrap();
    writer.execute("INSERT INTO t VALUES (2)").unwrap();
    // While the writer holds the lock, an auto-commit reader proceeds
    // and sees only committed data.
    let mut reader = c.connect(1).unwrap();
    let r = reader
        .execute("SELECT COUNT(*) FROM t")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(1));
    writer.commit().unwrap();
    let r = reader
        .execute("SELECT COUNT(*) FROM t")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(2));
}

#[test]
fn unsegmented_tables_replicate_and_serve_locally() {
    let c = cluster();
    let mut s = c.connect(0).unwrap();
    s.execute("CREATE TABLE dim (id INT, label VARCHAR) UNSEGMENTED ALL NODES")
        .unwrap();
    s.execute("INSERT INTO dim VALUES (1, 'x'), (2, 'y'), (3, 'z')")
        .unwrap();
    // Every node serves the same data with identical stable order.
    let mut orders = Vec::new();
    for node in 0..c.node_count() {
        let mut sn = c.connect(node).unwrap();
        let r = sn.query(&QuerySpec::scan("dim")).unwrap();
        orders.push(r.rows);
    }
    for o in &orders[1..] {
        assert_eq!(o, &orders[0]);
    }
    // Synthetic row ranges split without overlap.
    let mut sn = c.connect(2).unwrap();
    let a = sn
        .query(&QuerySpec::scan("dim").with_row_range(0, 2))
        .unwrap();
    let b = sn
        .query(&QuerySpec::scan("dim").with_row_range(2, 3))
        .unwrap();
    assert_eq!(a.rows.len(), 2);
    assert_eq!(b.rows.len(), 1);
}

#[test]
fn udf_callable_from_sql() {
    struct Doubler;
    impl mppdb::ScalarUdf for Doubler {
        fn name(&self) -> &str {
            "double_it"
        }
        fn eval(&self, args: &[Value], params: &mppdb::udf::UdfParams) -> mppdb::DbResult<Value> {
            let factor = match params.get("factor") {
                Some(v) => v.as_f64().map_err(|e| DbError::Udf(e.to_string()))?,
                None => 2.0,
            };
            let x = args[0].as_f64().map_err(|e| DbError::Udf(e.to_string()))?;
            Ok(Value::Float64(x * factor))
        }
    }
    let c = cluster();
    c.register_udf(Arc::new(Doubler));
    let mut s = c.connect(0).unwrap();
    s.execute("CREATE TABLE t (x FLOAT)").unwrap();
    s.execute("INSERT INTO t VALUES (1.5)").unwrap();
    let r = s
        .execute("SELECT double_it(x USING PARAMETERS factor=4) FROM t")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Float64(6.0));
}

#[test]
fn order_by_and_insert_select() {
    let c = cluster();
    let mut s = c.connect(0).unwrap();
    s.execute("CREATE TABLE scores (name VARCHAR, pts INT)")
        .unwrap();
    s.execute("INSERT INTO scores VALUES ('carol', 7), ('alice', 9), ('bob', NULL), ('dave', 9)")
        .unwrap();

    // ORDER BY column with direction; NULLs last ascending.
    let r = s
        .execute("SELECT name, pts FROM scores ORDER BY pts ASC, name")
        .unwrap()
        .rows()
        .unwrap();
    let names: Vec<&str> = r.rows.iter().map(|x| x.get(0).as_str().unwrap()).collect();
    assert_eq!(names, vec!["carol", "alice", "dave", "bob"]);

    // ORDER BY position, descending, with LIMIT after ordering.
    let r = s
        .execute("SELECT name, pts FROM scores ORDER BY 2 DESC LIMIT 2")
        .unwrap()
        .rows()
        .unwrap();
    let names: Vec<&str> = r.rows.iter().map(|x| x.get(0).as_str().unwrap()).collect();
    assert_eq!(names, vec!["alice", "dave"]);

    // ORDER BY an aggregate output through its alias.
    s.execute("INSERT INTO scores VALUES ('alice', 1)").unwrap();
    let r = s
        .execute(
            "SELECT name, SUM(pts) AS total FROM scores GROUP BY name \
             ORDER BY total DESC, name",
        )
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(r.rows[0].get(0).as_str().unwrap(), "alice"); // 10
    assert_eq!(r.rows[1].get(0).as_str().unwrap(), "dave"); // 9

    // INSERT INTO ... SELECT.
    s.execute("CREATE TABLE winners (name VARCHAR, pts INT)")
        .unwrap();
    let n = s
        .execute("INSERT INTO winners SELECT name, pts FROM scores WHERE pts >= 9")
        .unwrap()
        .affected()
        .unwrap();
    assert_eq!(n, 2, "alice(9) and dave(9); alice(1) and NULLs excluded");
    let r = s
        .execute("SELECT COUNT(*) FROM winners")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(2));

    // Schema incompatibility is rejected.
    assert!(s
        .execute("INSERT INTO winners SELECT pts FROM scores")
        .is_err());
    // Bad ORDER BY targets error.
    assert!(s.execute("SELECT name FROM scores ORDER BY nope").is_err());
    assert!(s.execute("SELECT name FROM scores ORDER BY 5").is_err());
}

#[test]
fn system_tables_expose_the_catalog() {
    let c = cluster();
    let mut s = c.connect(0).unwrap();
    s.execute("CREATE TABLE seg (id INT, x FLOAT) SEGMENTED BY HASH(id) ALL NODES")
        .unwrap();
    s.execute("CREATE TEMP TABLE tmp (a INT) UNSEGMENTED ALL NODES")
        .unwrap();

    // v_segments: one row per node, covering the ring in hex.
    let segs = s
        .execute("SELECT * FROM v_segments")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(segs.rows.len(), c.node_count());
    assert_eq!(segs.rows[0].get(2).as_str().unwrap(), "0000000000000000");

    // v_tables reflects segmentation and temp-ness; works with WHERE
    // and ORDER BY like any relation.
    let tables = s
        .execute("SELECT table_name, segmented, is_temp FROM v_tables ORDER BY table_name")
        .unwrap()
        .rows()
        .unwrap();
    let names: Vec<&str> = tables
        .rows
        .iter()
        .map(|r| r.get(0).as_str().unwrap())
        .collect();
    assert_eq!(names, vec!["seg", "tmp"]);
    assert_eq!(tables.rows[0].get(1), &Value::Boolean(true));
    assert_eq!(tables.rows[1].get(1), &Value::Boolean(false));
    assert_eq!(tables.rows[1].get(2), &Value::Boolean(true));

    // v_nodes tracks liveness and the open session count (≥ ours).
    c.set_node_down(3);
    let nodes = s
        .execute("SELECT node FROM v_nodes WHERE is_up = FALSE")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(nodes.rows.len(), 1);
    assert_eq!(nodes.rows[0].get(0), &Value::Int64(3));
    c.set_node_up(3);
    let mine = s
        .execute("SELECT open_sessions FROM v_nodes WHERE node = 0")
        .unwrap()
        .rows()
        .unwrap();
    assert!(mine.rows[0].get(0).as_i64().unwrap() >= 1);

    // Programmatic access with pushdown-style specs also works.
    let count = s
        .query(&QuerySpec::scan("v_segments").count())
        .unwrap()
        .count;
    assert_eq!(count as usize, c.node_count());
}

#[test]
fn explain_describes_the_plan() {
    let c = cluster();
    let mut s = c.connect(0).unwrap();
    s.execute("CREATE TABLE facts (id INT, x FLOAT) SEGMENTED BY HASH(id) ALL NODES")
        .unwrap();
    s.execute("INSERT INTO facts VALUES (1, 1.0)").unwrap();

    fn plan(s: &mut mppdb::Session, sql: &str) -> String {
        let r = s.execute(sql).unwrap().rows().unwrap();
        r.rows
            .iter()
            .map(|row| row.get(0).as_str().unwrap().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    // Pushdown-eligible scan.
    let p = plan(&mut s, "EXPLAIN SELECT id FROM facts WHERE x > 0.5 LIMIT 3");
    assert!(p.contains("locality-aware"), "{p}");
    assert!(p.contains("segment 0 on node 0"), "{p}");
    assert!(p.contains("[pushed down to storage]"), "{p}");
    assert!(p.contains("limit: 3"), "{p}");

    // Aggregate + order: executor-side.
    let p = plan(
        &mut s,
        "EXPLAIN SELECT id, COUNT(*) FROM facts GROUP BY id ORDER BY id",
    );
    assert!(p.contains("aggregate: 1 group key(s)"), "{p}");
    assert!(p.contains("sort: 1 key(s)"), "{p}");

    // A filtered aggregate on a base table lowers onto the scan.
    let p = plan(
        &mut s,
        "EXPLAIN SELECT id, SUM(x) FROM facts WHERE x > 0.5 GROUP BY id",
    );
    assert!(
        p.contains("aggregate: 1 group key(s) [pushed down to storage]"),
        "{p}"
    );
    assert!(
        p.contains("filter: (x > 0.5) [pushed down to storage]"),
        "{p}"
    );

    // A join stays on the row path.
    let p = plan(
        &mut s,
        "EXPLAIN SELECT a.id, COUNT(*) FROM facts a JOIN facts b ON a.id = b.id \
         WHERE a.x > 0.5 GROUP BY a.id",
    );
    assert!(p.contains("aggregate: 1 group key(s) [row path]"), "{p}");
    assert!(!p.contains("[pushed down to storage]"), "{p}");

    // Epoch pin shows up.
    let e = c.current_epoch();
    let p = plan(&mut s, &format!("EXPLAIN AT EPOCH {e} SELECT * FROM facts"));
    assert!(p.contains(&format!("epoch: {e}")), "{p}");

    // Unsegmented + system tables.
    s.execute("CREATE TABLE dim (a INT) UNSEGMENTED ALL NODES")
        .unwrap();
    let p = plan(&mut s, "EXPLAIN SELECT * FROM dim");
    assert!(p.contains("local replica"), "{p}");
    let p = plan(&mut s, "EXPLAIN SELECT * FROM v_segments");
    assert!(p.contains("system table"), "{p}");

    // EXPLAIN of non-SELECT is a syntax error.
    assert!(s.execute("EXPLAIN DELETE FROM facts").is_err());
}

#[test]
fn tuple_mover_runs_automatically_past_the_wos_threshold() {
    let c = Cluster::new(ClusterConfig {
        moveout_threshold: 100,
        ..ClusterConfig::default()
    });
    let mut s = c.connect(0).unwrap();
    s.execute("CREATE TABLE wosy (id INT, tag VARCHAR)")
        .unwrap();
    // A small commit stays in the WOS...
    s.insert("wosy", (0..50).map(|i| row![i as i64, "x"]).collect())
        .unwrap();
    let stats = c.table_stats("wosy").unwrap();
    assert!(stats.iter().any(|st| st.wos_rows > 0));
    assert_eq!(stats.iter().map(|st| st.ros_rows).sum::<usize>(), 0);
    // ...while a large one triggers moveout on commit.
    s.insert("wosy", (50..2_000).map(|i| row![i as i64, "x"]).collect())
        .unwrap();
    let stats = c.table_stats("wosy").unwrap();
    assert_eq!(stats.iter().map(|st| st.wos_rows).sum::<usize>(), 0);
    assert_eq!(stats.iter().map(|st| st.ros_rows).sum::<usize>(), 2_000);
}

#[test]
fn ros_encodings_compress_low_cardinality_columns() {
    let c = cluster();
    let mut s = c.connect(0).unwrap();
    s.execute("CREATE TABLE enc (id INT, category VARCHAR)")
        .unwrap();
    // Repetitive category strings: dictionary/RLE territory.
    let rows: Vec<common::Row> = (0..4_000)
        .map(|i| row![i as i64, format!("category-{}", i % 3)])
        .collect();
    s.insert("enc", rows).unwrap();
    c.moveout_all();
    let stats = c.table_stats("enc").unwrap();
    let raw: usize = stats.iter().map(|st| st.ros_raw_bytes).sum();
    let encoded: usize = stats.iter().map(|st| st.ros_encoded_bytes).sum();
    assert!(raw > 0);
    assert!(
        encoded * 2 < raw,
        "expected >2x compression: raw {raw}, encoded {encoded}"
    );
}

// ----- metadata-only publish (the S2V final commit) -------------------

fn id_rows(ids: std::ops::Range<i64>) -> Vec<common::Row> {
    ids.map(|i| row![i, i as f64]).collect()
}

/// A target and a same-shaped staging table, each holding ROS
/// containers; staging also keeps a tail of WOS rows.
fn publish_pair(
    c: &Arc<Cluster>,
    target_ids: std::ops::Range<i64>,
    staging_ids: std::ops::Range<i64>,
    staging_wos_ids: std::ops::Range<i64>,
) -> mppdb::Session {
    let mut s = c.connect(0).unwrap();
    for t in ["pub_target", "pub_staging"] {
        s.execute(&format!(
            "CREATE TABLE {t} (id INT, x FLOAT) SEGMENTED BY HASH(id) ALL NODES"
        ))
        .unwrap();
    }
    s.insert("pub_target", id_rows(target_ids)).unwrap();
    s.insert("pub_staging", id_rows(staging_ids)).unwrap();
    c.moveout_all();
    s.insert("pub_staging", id_rows(staging_wos_ids)).unwrap();
    s
}

fn sorted_ids(s: &mut mppdb::Session, table: &str, epoch: Option<u64>) -> Vec<i64> {
    let mut spec = QuerySpec::scan(table);
    if let Some(e) = epoch {
        spec = spec.at_epoch(e);
    }
    let mut ids: Vec<i64> = s
        .query(&spec)
        .unwrap()
        .rows
        .iter()
        .map(|r| r.get(0).as_i64().unwrap())
        .collect();
    ids.sort_unstable();
    ids
}

/// Everything a reader or the storage layer can observe of a table:
/// per-node storage statistics (encoded bytes included), per-container
/// zone maps, and the rows in scan order.
fn table_image(c: &Arc<Cluster>, table: &str) -> String {
    let mut s = c.connect(0).unwrap();
    let containers: Vec<common::Row> = s
        .query(&QuerySpec::scan("dc_column_stats"))
        .unwrap()
        .rows
        .into_iter()
        .filter(|r| r.get(1).as_str().ok() == Some(table))
        .collect();
    let rows = s.query(&QuerySpec::scan(table)).unwrap().rows;
    format!(
        "{:?}\n{containers:?}\n{rows:?}",
        c.table_stats(table).unwrap()
    )
}

#[test]
fn publish_abort_leaves_both_tables_intact_and_a_retry_publishes_once() {
    let c = cluster();
    let mut s = publish_pair(&c, 0..300, 1000..1400, 1400..1450);
    let before = (
        table_image(&c, "pub_target"),
        table_image(&c, "pub_staging"),
    );

    // Rollback discards the recorded publish.
    s.begin().unwrap();
    s.publish("pub_staging", "pub_target", true).unwrap();
    s.rollback().unwrap();
    assert_eq!(
        (
            table_image(&c, "pub_target"),
            table_image(&c, "pub_staging")
        ),
        before
    );
    // So does a session that dies with the transaction open.
    {
        let mut dying = c.connect(1).unwrap();
        dying.begin().unwrap();
        dying.publish("pub_staging", "pub_target", false).unwrap();
    }
    assert_eq!(
        (
            table_image(&c, "pub_target"),
            table_image(&c, "pub_staging")
        ),
        before
    );

    // The retry lands staging exactly once, at its commit epoch.
    let old_epoch = c.current_epoch();
    s.begin().unwrap();
    s.publish("pub_staging", "pub_target", true).unwrap();
    s.commit().unwrap();
    let published: Vec<i64> = (1000..1450).collect();
    assert_eq!(sorted_ids(&mut s, "pub_target", None), published);
    assert!(sorted_ids(&mut s, "pub_staging", None).is_empty());
    assert_eq!(
        sorted_ids(&mut s, "pub_target", Some(old_epoch)),
        (0..300).collect::<Vec<i64>>(),
        "readers pinned before the publish keep the old target"
    );
    // Replaying the publish finds staging empty and changes nothing.
    s.publish("pub_staging", "pub_target", false).unwrap();
    assert_eq!(sorted_ids(&mut s, "pub_target", None), published);
}

#[test]
fn publish_rejects_mismatched_tables_with_typed_errors() {
    let c = cluster();
    let mut s = c.connect(0).unwrap();
    for ddl in [
        "CREATE TABLE pv_target (id INT, x FLOAT) SEGMENTED BY HASH(id) ALL NODES",
        "CREATE TABLE pv_staging (id INT, x FLOAT) SEGMENTED BY HASH(id) ALL NODES",
        "CREATE TABLE pv_narrow (id INT) SEGMENTED BY HASH(id) ALL NODES",
        "CREATE TABLE pv_typed (id INT, x VARCHAR) SEGMENTED BY HASH(id) ALL NODES",
        "CREATE TABLE pv_by_x (id INT, x FLOAT) SEGMENTED BY HASH(x) ALL NODES",
        "CREATE TABLE pv_unseg (id INT, x FLOAT) UNSEGMENTED ALL NODES",
    ] {
        s.execute(ddl).unwrap();
    }
    s.insert("pv_target", id_rows(0..50)).unwrap();
    s.insert("pv_staging", id_rows(100..150)).unwrap();

    for staging in ["pv_narrow", "pv_typed", "pv_by_x", "pv_unseg"] {
        for replace in [true, false] {
            let err = s.publish(staging, "pv_target", replace).unwrap_err();
            assert!(
                matches!(err, DbError::Data(common::Error::SchemaMismatch(_))),
                "{staging}: {err}"
            );
        }
    }
    let err = s.publish("pv_target", "pv_target", true).unwrap_err();
    assert!(matches!(err, DbError::Execution(_)), "{err}");
    let err = s.publish("pv_missing", "pv_target", true).unwrap_err();
    assert!(matches!(err, DbError::UnknownTable(_)), "{err}");

    // k=0: a down member holds the only copy of its segment.
    c.kill_node(2);
    assert_eq!(
        s.publish("pv_staging", "pv_target", false),
        Err(DbError::NodeUnavailable(2))
    );
    c.restore_node(2);

    // Nothing moved, and the session is still good for a valid publish.
    assert_eq!(sorted_ids(&mut s, "pv_target", None).len(), 50);
    s.publish("pv_staging", "pv_target", false).unwrap();
    assert_eq!(sorted_ids(&mut s, "pv_target", None).len(), 100);
}

#[test]
fn publish_on_a_k_safe_cluster_reads_identically_from_every_replica() {
    let c = Cluster::new(ClusterConfig {
        k_safety: 1,
        ..ClusterConfig::default()
    });
    let mut s = publish_pair(&c, 0..200, 500..900, 900..950);
    let pinned = c.current_epoch();
    s.publish("pub_staging", "pub_target", true).unwrap();
    drop(s);
    let old: Vec<i64> = (0..200).collect();
    let new: Vec<i64> = (500..950).collect();

    // Downing each node in turn forces its segments onto their other
    // replica; a second pass reads the replicas recovery rebuilt.
    for pass in ["after the publish", "after kill and restore"] {
        for victim in 0..4 {
            c.kill_node(victim);
            let mut r = c.connect((victim + 1) % 4).unwrap();
            assert_eq!(
                sorted_ids(&mut r, "pub_target", None),
                new,
                "{pass}: node {victim} down"
            );
            assert_eq!(
                sorted_ids(&mut r, "pub_target", Some(pinned)),
                old,
                "{pass}: node {victim} down, pinned read"
            );
            drop(r);
            c.restore_node(victim);
        }
    }
}

#[test]
fn append_publish_keeps_the_targets_zone_map_skipping() {
    let c = cluster();
    let mut s = c.connect(0).unwrap();
    for t in ["zm_target", "zm_staging"] {
        s.execute(&format!(
            "CREATE TABLE {t} (id INT, x FLOAT) SEGMENTED BY HASH(id) ALL NODES"
        ))
        .unwrap();
    }
    s.insert("zm_target", id_rows(0..2_000)).unwrap();
    c.moveout_all();
    s.insert("zm_staging", id_rows(10_000..12_000)).unwrap();
    c.moveout_all();
    let containers = |c: &Arc<Cluster>| -> usize {
        c.table_stats("zm_target")
            .unwrap()
            .iter()
            .map(|st| st.ros_containers)
            .sum()
    };
    let before_publish = containers(&c);
    s.publish("zm_staging", "zm_target", false).unwrap();
    assert_eq!(
        containers(&c),
        2 * before_publish,
        "staging containers move in whole"
    );

    // One predicate rules out the target's own containers, the other
    // the moved ones; both must be skipped on zone maps alone.
    for pred in [
        common::Expr::col("id").gt_eq(common::Expr::lit(11_000i64)),
        common::Expr::col("id").lt(common::Expr::lit(1_000i64)),
    ] {
        let spec = QuerySpec::scan("zm_target").filter(pred).count();
        let before = obs::global().snapshot();
        let skipped = s.query(&spec).unwrap();
        let delta = obs::global().snapshot().counters_since(&before);
        assert_eq!(skipped.count, 1_000);
        assert_eq!(s.query(&spec.without_skipping()).unwrap().count, 1_000);
        assert!(
            delta.get("scan.containers_skipped").copied().unwrap_or(0) > 0,
            "containers keep their zone maps across the publish: {delta:?}"
        );
    }
}

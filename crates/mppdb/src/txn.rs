//! Transactions: ids, table locks, and commit bookkeeping.
//!
//! Writers use two-phase locking with two modes, mirroring how MPP
//! engines let bulk loads proceed concurrently:
//!
//! * **Shared** — insert/COPY paths; any number of transactions may
//!   hold it simultaneously (each stages its own pending rows, so
//!   concurrent loads cannot conflict).
//! * **Exclusive** — update/delete and reads-inside-transactions; a
//!   single holder, blocking shared holders too.
//!
//! Auto-commit *reads* never take locks — they are pure epoch
//! snapshots. This split is exactly what the connector relies on: all
//! S2V tasks bulk-load the staging table in parallel (shared), their
//! tiny check-and-set updates on the protocol tables serialize
//! (exclusive), and V2S's parallel snapshot reads never block.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::error::{DbError, DbResult};

/// Lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    Shared,
    Exclusive,
}

/// State of one open transaction (owned by a session).
#[derive(Debug)]
pub struct TxnHandle {
    pub id: u64,
    /// Tables this transaction wrote or read under lock; their stores
    /// are stamped at commit.
    pub touched: HashSet<String>,
    /// Tables this transaction holds locks on.
    pub locked: HashSet<String>,
    /// Publishes to apply at commit, in call order; abort drops them.
    pub publishes: Vec<PublishIntent>,
}

impl TxnHandle {
    pub fn new(id: u64) -> TxnHandle {
        TxnHandle {
            id,
            touched: HashSet::new(),
            locked: HashSet::new(),
            publishes: Vec::new(),
        }
    }
}

/// A metadata-only publish of `staging` into `target`, recorded by
/// `Session::publish` and applied under the commit lock at the commit
/// epoch (see `Cluster::commit_txn`).
#[derive(Debug)]
pub struct PublishIntent {
    pub staging: String,
    pub target: String,
    /// Overwrite: the target's committed rows are deleted at the
    /// commit epoch. Otherwise staging is appended.
    pub replace: bool,
}

#[derive(Debug, Default)]
struct LockState {
    exclusive: Option<u64>,
    shared: HashSet<u64>,
}

/// Table lock manager with wait timeouts (deadlock resolution by
/// timeout, as many databases do).
#[derive(Debug, Default)]
pub struct LockManager {
    tables: Mutex<HashMap<String, LockState>>,
    released: Condvar,
}

impl LockManager {
    pub fn new() -> LockManager {
        LockManager::default()
    }

    /// Acquire `table`'s lock for `txn` in the given mode. Re-entrant;
    /// a shared holder may upgrade to exclusive once it is the sole
    /// holder.
    pub fn acquire(
        &self,
        txn: u64,
        table: &str,
        mode: LockMode,
        timeout: Duration,
    ) -> DbResult<()> {
        let mut tables = self.tables.lock();
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let state = tables.entry(table.to_string()).or_default();
            let granted = match mode {
                LockMode::Shared => match state.exclusive {
                    None => {
                        state.shared.insert(txn);
                        true
                    }
                    Some(owner) if owner == txn => true,
                    Some(_) => false,
                },
                LockMode::Exclusive => {
                    let other_shared = state.shared.iter().any(|&holder| holder != txn);
                    match state.exclusive {
                        Some(owner) if owner == txn => true,
                        None if !other_shared => {
                            state.exclusive = Some(txn);
                            state.shared.remove(&txn);
                            true
                        }
                        _ => false,
                    }
                }
            };
            if granted {
                return Ok(());
            }
            if self.released.wait_until(&mut tables, deadline).timed_out() {
                return Err(DbError::LockTimeout {
                    table: table.to_string(),
                });
            }
        }
    }

    /// Release every lock held by `txn`.
    pub fn release_all(&self, txn: u64) {
        let mut tables = self.tables.lock();
        tables.retain(|_, state| {
            if state.exclusive == Some(txn) {
                state.exclusive = None;
            }
            state.shared.remove(&txn);
            state.exclusive.is_some() || !state.shared.is_empty()
        });
        self.released.notify_all();
    }

    /// Current exclusive owner of a table's lock (diagnostics/tests).
    pub fn exclusive_owner(&self, table: &str) -> Option<u64> {
        self.tables
            .lock()
            .get(table)
            .and_then(|state| state.exclusive)
    }

    /// Number of shared holders (diagnostics/tests).
    pub fn shared_holders(&self, table: &str) -> usize {
        self.tables
            .lock()
            .get(table)
            .map(|state| state.shared.len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const T: Duration = Duration::from_millis(20);

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new();
        lm.acquire(1, "t", LockMode::Shared, T).unwrap();
        lm.acquire(2, "t", LockMode::Shared, T).unwrap();
        lm.acquire(3, "t", LockMode::Shared, T).unwrap();
        assert_eq!(lm.shared_holders("t"), 3);
        assert_eq!(lm.exclusive_owner("t"), None);
    }

    #[test]
    fn exclusive_blocks_everyone() {
        let lm = LockManager::new();
        lm.acquire(1, "t", LockMode::Exclusive, T).unwrap();
        assert!(lm.acquire(2, "t", LockMode::Shared, T).is_err());
        assert!(lm.acquire(2, "t", LockMode::Exclusive, T).is_err());
        // Re-entrant for the owner, in both modes.
        lm.acquire(1, "t", LockMode::Exclusive, T).unwrap();
        lm.acquire(1, "t", LockMode::Shared, T).unwrap();
    }

    #[test]
    fn shared_blocks_exclusive_until_released() {
        let lm = LockManager::new();
        lm.acquire(1, "t", LockMode::Shared, T).unwrap();
        assert!(lm.acquire(2, "t", LockMode::Exclusive, T).is_err());
        lm.release_all(1);
        lm.acquire(2, "t", LockMode::Exclusive, T).unwrap();
    }

    #[test]
    fn sole_shared_holder_upgrades() {
        let lm = LockManager::new();
        lm.acquire(1, "t", LockMode::Shared, T).unwrap();
        lm.acquire(1, "t", LockMode::Exclusive, T).unwrap();
        assert_eq!(lm.exclusive_owner("t"), Some(1));
        assert!(lm.acquire(2, "t", LockMode::Shared, T).is_err());
    }

    #[test]
    fn contended_upgrade_times_out() {
        let lm = LockManager::new();
        lm.acquire(1, "t", LockMode::Shared, T).unwrap();
        lm.acquire(2, "t", LockMode::Shared, T).unwrap();
        let err = lm.acquire(1, "t", LockMode::Exclusive, T).unwrap_err();
        assert!(matches!(err, DbError::LockTimeout { .. }));
    }

    #[test]
    fn release_wakes_waiter() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(1, "t", LockMode::Exclusive, T).unwrap();
        let lm2 = Arc::clone(&lm);
        let waiter = std::thread::spawn(move || {
            lm2.acquire(2, "t", LockMode::Exclusive, Duration::from_secs(5))
        });
        std::thread::sleep(Duration::from_millis(10));
        lm.release_all(1);
        waiter.join().unwrap().unwrap();
        assert_eq!(lm.exclusive_owner("t"), Some(2));
    }

    #[test]
    fn release_all_only_releases_own_locks() {
        let lm = LockManager::new();
        lm.acquire(1, "a", LockMode::Exclusive, T).unwrap();
        lm.acquire(2, "b", LockMode::Shared, T).unwrap();
        lm.release_all(1);
        assert_eq!(lm.exclusive_owner("a"), None);
        assert_eq!(lm.shared_holders("b"), 1);
    }

    #[test]
    fn many_threads_serialize_on_exclusive() {
        let lm = Arc::new(LockManager::new());
        let counter = Arc::new(Mutex::new(0u64));
        std::thread::scope(|s| {
            for txn in 0..16u64 {
                let lm = Arc::clone(&lm);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    lm.acquire(txn, "t", LockMode::Exclusive, Duration::from_secs(10))
                        .unwrap();
                    *counter.lock() += 1;
                    lm.release_all(txn);
                });
            }
        });
        assert_eq!(*counter.lock(), 16);
    }
}

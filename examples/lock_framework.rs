//! The hierarchical parent–child lock outside VFIO.
//!
//! §4.2.1 argues the lock decomposition framework "can be promoted to
//! other scenarios rather than just being used in the VFIO devset". This
//! example uses it for a connection pool: per-connection operations
//! (child) run in parallel; pool-wide maintenance (parent) is exclusive.
//! The work inside each critical section is simulated time on a virtual
//! clock, so the printed durations are exact.
//!
//! ```sh
//! cargo run --release --example lock_framework
//! ```

use fastiov_repro::simtime::{self, Clock};
use fastiov_repro::vfio::{ChildLock, LockPolicy, ParentChildLock};
use std::sync::Arc;
use std::time::Duration;

#[derive(Default)]
struct PoolStats {
    maintenance_runs: u64,
}

#[derive(Default)]
struct Connection {
    requests: u64,
}

fn run(policy: LockPolicy, conns: usize, requests: u64) -> Duration {
    let clock = Clock::new_virtual(1.0);
    let pool = Arc::new(ParentChildLock::new(policy, PoolStats::default()));
    let connections: Arc<Vec<ChildLock<Connection>>> = Arc::new(
        (0..conns)
            .map(|_| ChildLock::new(Connection::default()))
            .collect(),
    );

    let mut handles = Vec::new();
    for i in 0..conns {
        let (c, pool, connections) = (clock.clone(), Arc::clone(&pool), Arc::clone(&connections));
        handles.push(simtime::spawn(&clock, format!("conn-{i}"), move || {
            for _ in 0..requests {
                // Child operation: serve a request on connection i.
                let mut conn = pool.lock_child(&connections[i]);
                conn.requests += 1;
                // A little work inside the critical section.
                c.sleep(Duration::from_micros(50));
            }
        }));
    }
    // Periodic pool-wide maintenance (parent operations).
    {
        let (c, pool) = (clock.clone(), Arc::clone(&pool));
        handles.push(simtime::spawn(&clock, "maintenance", move || {
            for _ in 0..5 {
                c.sleep(Duration::from_millis(2));
                let mut stats = pool.lock_parent();
                stats.maintenance_runs += 1;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total: u64 = connections
        .iter()
        .map(|c| pool.lock_child(c).requests)
        .sum();
    assert_eq!(total, conns as u64 * requests, "no lost updates");
    assert_eq!(pool.lock_parent().maintenance_runs, 5);
    clock.now().since_origin()
}

fn main() {
    let conns = 8;
    let requests = 200;
    let coarse = run(LockPolicy::Coarse, conns, requests);
    let hierarchical = run(LockPolicy::Hierarchical, conns, requests);
    println!("{conns} connections × {requests} requests each, with concurrent maintenance:");
    println!("  coarse (one mutex):         {coarse:?}");
    println!("  hierarchical (rwlock+mutex): {hierarchical:?}");
    println!(
        "  speedup: {:.1}x",
        coarse.as_secs_f64() / hierarchical.as_secs_f64()
    );
}

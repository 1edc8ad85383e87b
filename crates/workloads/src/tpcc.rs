//! TPC-C as a lock-request generator (§6.1 of the paper).
//!
//! The paper uses TPC-C the way DSLR does: each transaction contributes
//! the set of row locks it would take under two-phase locking, and the
//! two contention settings differ only in warehouse count ("ten
//! warehouses per node" = low contention, "one warehouse per node" =
//! high contention). We generate the same structure:
//!
//! | Txn         | Mix | Locks                                              |
//! |-------------|-----|----------------------------------------------------|
//! | NewOrder    | 45% | warehouse S, district X, customer S, 5–15 stock X, order X |
//! | Payment     | 43% | warehouse X, district X, customer X (15% remote)   |
//! | OrderStatus | 4%  | customer S, order S                                |
//! | Delivery    | 4%  | district X, order X, customer X                    |
//! | StockLevel  | 4%  | district S, 20 stock S                             |
//!
//! Think times reflect in-memory execution (µs scale). Lock IDs are laid
//! out in disjoint regions of the 32-bit lock space (see [`ids`]); lock
//! sets are sorted by the client, so acquisition is deadlock-free.

use netlock_core::prelude::LockStats;
use netlock_core::txn::{LockNeed, Transaction, TxnSource};
use netlock_proto::{LockMode, Priority, TenantId};
use netlock_sim::{SimDuration, SimRng};

/// Lock-id layout for TPC-C entities.
pub mod ids {
    use netlock_proto::LockId;

    /// Warehouses occupy `[0, 10_000)`.
    pub fn warehouse(w: u32) -> LockId {
        debug_assert!(w < 10_000);
        LockId(w)
    }

    /// Districts occupy `[10_000, 110_000)`.
    pub fn district(w: u32, d: u32) -> LockId {
        debug_assert!(d < 10);
        LockId(10_000 + w * 10 + d)
    }

    /// Customers occupy `[1_000_000, 31_000_000)` (3000 per district).
    pub fn customer(w: u32, d: u32, c: u32) -> LockId {
        debug_assert!(c < 3_000);
        LockId(1_000_000 + (w * 10 + d) * 3_000 + c)
    }

    /// Stock rows occupy `[100_000_000, ...)` (100_000 per warehouse).
    pub fn stock(w: u32, i: u32) -> LockId {
        debug_assert!(i < 100_000);
        LockId(100_000_000 + w * 100_000 + i)
    }

    /// Order rows occupy `[2_000_000_000, ...)`, cycling per district.
    pub fn order(w: u32, d: u32, seq: u64) -> LockId {
        LockId(2_000_000_000 + ((w * 10 + d) * 10_000) + (seq % 10_000) as u32)
    }
}

/// Items in the catalog (stock rows per warehouse).
const ITEMS: u32 = 100_000;
/// Stock-lock coarsening: items per stock lock. §4.5's remedy for
/// uniform distributions — "we combine multiple locks into one
/// coarse-grained lock to increase the memory utilization". 10 000
/// turns each warehouse's 100K stock rows into 10 lock buckets the
/// switch can host with a few thousand slots (the paper's Fig. 14
/// saturation point).
const STOCK_GRANULARITY: u32 = 10_000;

/// TPC-C generator configuration.
#[derive(Clone, Debug)]
pub struct TpccConfig {
    /// Number of warehouses shared by all clients. The paper's settings:
    /// 10 per client machine (low contention), 1 per client machine
    /// (high contention).
    pub warehouses: u32,
    /// First warehouse id. Multi-tenant experiments give each tenant a
    /// disjoint `[warehouse_base, warehouse_base + warehouses)` range —
    /// tenants share the lock manager, not rows.
    pub warehouse_base: u32,
    /// If set, every transaction thinks exactly this long, ignoring the
    /// per-type defaults (the Fig. 14 sweep).
    pub think_override: Option<SimDuration>,
    /// Tenant stamped on every transaction.
    pub tenant: TenantId,
    /// Priority stamped on every transaction.
    pub priority: Priority,
}

impl TpccConfig {
    /// The low-contention setting: ten warehouses per client machine.
    pub fn low_contention(clients: u32) -> TpccConfig {
        TpccConfig {
            warehouses: 10 * clients.max(1),
            ..TpccConfig::default()
        }
    }

    /// The high-contention setting: one warehouse per client machine.
    pub fn high_contention(clients: u32) -> TpccConfig {
        TpccConfig {
            warehouses: clients.max(1),
            ..TpccConfig::default()
        }
    }
}

impl Default for TpccConfig {
    fn default() -> Self {
        TpccConfig {
            warehouses: 10,
            warehouse_base: 0,
            think_override: None,
            tenant: TenantId(0),
            priority: Priority(0),
        }
    }
}

/// The five TPC-C transaction types.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TpccTxnKind {
    /// Order placement (45%).
    NewOrder,
    /// Payment against a customer balance (43%).
    Payment,
    /// Read a customer's latest order (4%).
    OrderStatus,
    /// Deliver pending orders (4%).
    Delivery,
    /// Count low-stock items (4%).
    StockLevel,
}

/// The TPC-C transaction source.
pub struct TpccSource {
    cfg: TpccConfig,
    /// Monotone order sequence (order-row lock ids).
    order_seq: u64,
    /// Per-kind counters (workload introspection/tests).
    pub counts: [u64; 5],
}

impl TpccSource {
    /// A generator over `cfg`.
    pub fn new(cfg: TpccConfig) -> TpccSource {
        assert!(cfg.warehouses > 0, "need at least one warehouse");
        TpccSource {
            cfg,
            order_seq: 0,
            counts: [0; 5],
        }
    }

    fn pick_kind(rng: &mut SimRng) -> TpccTxnKind {
        match rng.next_below(100) {
            0..=44 => TpccTxnKind::NewOrder,
            45..=87 => TpccTxnKind::Payment,
            88..=91 => TpccTxnKind::OrderStatus,
            92..=95 => TpccTxnKind::Delivery,
            _ => TpccTxnKind::StockLevel,
        }
    }

    fn think(&self, base_us: u64) -> SimDuration {
        if let Some(t) = self.cfg.think_override {
            return t;
        }
        SimDuration::from_micros(base_us)
    }

    fn gen_new_order(&mut self, rng: &mut SimRng, w: u32) -> Transaction {
        let d = rng.next_below(10) as u32;
        let c = rng.next_below(3_000) as u32;
        let mut locks = vec![
            LockNeed {
                lock: ids::warehouse(w),
                mode: LockMode::Shared,
            },
            LockNeed {
                lock: ids::district(w, d),
                mode: LockMode::Exclusive,
            },
            LockNeed {
                lock: ids::customer(w, d, c),
                mode: LockMode::Shared,
            },
        ];
        let ol_cnt = 5 + rng.next_below(11); // 5..=15
        for _ in 0..ol_cnt {
            let item = rng.next_below(ITEMS as u64) as u32;
            // 1% of order lines hit a remote warehouse's stock.
            let supply_w = if self.cfg.warehouses > 1 && rng.chance(0.01) {
                let base = self.cfg.warehouse_base;
                let mut other = base + rng.next_below(self.cfg.warehouses as u64) as u32;
                if other == w {
                    other = base + (other - base + 1) % self.cfg.warehouses;
                }
                other
            } else {
                w
            };
            locks.push(LockNeed {
                lock: ids::stock(supply_w, item / STOCK_GRANULARITY),
                mode: LockMode::Exclusive,
            });
        }
        self.order_seq += 1;
        locks.push(LockNeed {
            lock: ids::order(w, d, self.order_seq),
            mode: LockMode::Exclusive,
        });
        Transaction::new(locks, self.think(12))
    }

    fn gen_payment(&mut self, rng: &mut SimRng, w: u32) -> Transaction {
        let d = rng.next_below(10) as u32;
        // 15% of payments are for a customer of a remote warehouse.
        let (cw, cd) = if self.cfg.warehouses > 1 && rng.chance(0.15) {
            let base = self.cfg.warehouse_base;
            let mut other = base + rng.next_below(self.cfg.warehouses as u64) as u32;
            if other == w {
                other = base + (other - base + 1) % self.cfg.warehouses;
            }
            (other, rng.next_below(10) as u32)
        } else {
            (w, d)
        };
        let c = rng.next_below(3_000) as u32;
        Transaction::new(
            vec![
                LockNeed {
                    lock: ids::warehouse(w),
                    mode: LockMode::Exclusive,
                },
                LockNeed {
                    lock: ids::district(w, d),
                    mode: LockMode::Exclusive,
                },
                LockNeed {
                    lock: ids::customer(cw, cd, c),
                    mode: LockMode::Exclusive,
                },
            ],
            self.think(6),
        )
    }

    fn gen_order_status(&mut self, rng: &mut SimRng, w: u32) -> Transaction {
        let d = rng.next_below(10) as u32;
        let c = rng.next_below(3_000) as u32;
        let seq = if self.order_seq == 0 {
            0
        } else {
            rng.next_below(self.order_seq)
        };
        Transaction::new(
            vec![
                LockNeed {
                    lock: ids::customer(w, d, c),
                    mode: LockMode::Shared,
                },
                LockNeed {
                    lock: ids::order(w, d, seq),
                    mode: LockMode::Shared,
                },
            ],
            self.think(4),
        )
    }

    fn gen_delivery(&mut self, rng: &mut SimRng, w: u32) -> Transaction {
        let d = rng.next_below(10) as u32;
        let c = rng.next_below(3_000) as u32;
        let seq = if self.order_seq == 0 {
            0
        } else {
            rng.next_below(self.order_seq)
        };
        Transaction::new(
            vec![
                LockNeed {
                    lock: ids::district(w, d),
                    mode: LockMode::Exclusive,
                },
                LockNeed {
                    lock: ids::order(w, d, seq),
                    mode: LockMode::Exclusive,
                },
                LockNeed {
                    lock: ids::customer(w, d, c),
                    mode: LockMode::Exclusive,
                },
            ],
            self.think(15),
        )
    }

    fn gen_stock_level(&mut self, rng: &mut SimRng, w: u32) -> Transaction {
        let d = rng.next_below(10) as u32;
        let mut locks = vec![LockNeed {
            lock: ids::district(w, d),
            mode: LockMode::Shared,
        }];
        for _ in 0..20 {
            let item = rng.next_below(ITEMS as u64) as u32;
            locks.push(LockNeed {
                lock: ids::stock(w, item / STOCK_GRANULARITY),
                mode: LockMode::Shared,
            });
        }
        Transaction::new(locks, self.think(10))
    }
}

impl TxnSource for TpccSource {
    fn next_txn(&mut self, rng: &mut SimRng) -> Transaction {
        let w = self.cfg.warehouse_base + rng.next_below(self.cfg.warehouses as u64) as u32;
        let kind = Self::pick_kind(rng);
        let txn = match kind {
            TpccTxnKind::NewOrder => {
                self.counts[0] += 1;
                self.gen_new_order(rng, w)
            }
            TpccTxnKind::Payment => {
                self.counts[1] += 1;
                self.gen_payment(rng, w)
            }
            TpccTxnKind::OrderStatus => {
                self.counts[2] += 1;
                self.gen_order_status(rng, w)
            }
            TpccTxnKind::Delivery => {
                self.counts[3] += 1;
                self.gen_delivery(rng, w)
            }
            TpccTxnKind::StockLevel => {
                self.counts[4] += 1;
                self.gen_stock_level(rng, w)
            }
        };
        txn.with_tenant(self.cfg.tenant)
            .with_priority(self.cfg.priority)
    }
}

/// Analytic hot-lock statistics for the allocator.
///
/// Warehouses and districts are the contended rows (Payment takes
/// warehouse-X, NewOrder/Payment/Delivery take district-X); the
/// coarsened stock buckets carry most of the *request volume* (a
/// NewOrder takes 5–15 stock locks), so hosting them in the switch is
/// what lets it absorb the bulk of the traffic. Customers and order
/// rows stay cold and default-route to the servers.
///
/// `total_workers` bounds the contention `c_i` (a closed-loop system
/// cannot have more outstanding requests on one lock than workers).
pub fn hot_lock_stats(cfg: &TpccConfig, total_workers: u32, home_servers: usize) -> Vec<LockStats> {
    let workers = total_workers.max(1) as f64;
    let w_rate = 0.88 / cfg.warehouses as f64; // NewOrder-S + Payment-X
    let d_rate = 0.92 / (cfg.warehouses as f64 * 10.0);
    // Contention c_i = expected concurrent outstanding requests plus a
    // small burst slack; closed-loop workers spread over the lock space
    // rarely pile onto one row, and Algorithm 3 never needs more than
    // c_i slots. Underestimates are safe: the q1/q2 overflow protocol
    // absorbs bursts (§4.3).
    let c = |expected: f64, slack: u32| -> u32 {
        (expected.ceil() as u32 + slack).clamp(1, total_workers.max(1))
    };
    let w_c = c(workers * 0.9 / cfg.warehouses as f64, 4);
    let d_c = c(workers * 0.92 / (cfg.warehouses as f64 * 10.0), 2);
    let mut out = Vec::new();
    for w in cfg.warehouse_base..cfg.warehouse_base + cfg.warehouses {
        out.push(LockStats {
            lock: ids::warehouse(w),
            rate: w_rate,
            contention: w_c,
            home_server: (w as usize) % home_servers.max(1),
        });
        for d in 0..10 {
            out.push(LockStats {
                lock: ids::district(w, d),
                rate: d_rate,
                contention: d_c,
                home_server: (w as usize) % home_servers.max(1),
            });
        }
    }
    // Stock buckets: ~5.3 stock requests per transaction (4.5 NewOrder-X
    // + 0.8 StockLevel-S), spread uniformly over all buckets.
    let buckets_per_w = ITEMS.div_ceil(STOCK_GRANULARITY);
    let s_rate = 5.3 / (cfg.warehouses as f64 * buckets_per_w as f64);
    let s_c = c(
        workers * 5.3 / (cfg.warehouses as f64 * buckets_per_w as f64),
        3,
    );
    for w in cfg.warehouse_base..cfg.warehouse_base + cfg.warehouses {
        for b in 0..buckets_per_w {
            out.push(LockStats {
                lock: ids::stock(w, b),
                rate: s_rate,
                contention: s_c,
                home_server: (w as usize) % home_servers.max(1),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_roughly_matches_spec() {
        let mut src = TpccSource::new(TpccConfig::default());
        let mut rng = SimRng::new(9);
        for _ in 0..20_000 {
            let _ = src.next_txn(&mut rng);
        }
        let total: u64 = src.counts.iter().sum();
        let frac = |i: usize| src.counts[i] as f64 / total as f64;
        assert!((frac(0) - 0.45).abs() < 0.02, "NewOrder {}", frac(0));
        assert!((frac(1) - 0.43).abs() < 0.02, "Payment {}", frac(1));
        assert!((frac(2) - 0.04).abs() < 0.01, "OrderStatus {}", frac(2));
        assert!((frac(3) - 0.04).abs() < 0.01, "Delivery {}", frac(3));
        assert!((frac(4) - 0.04).abs() < 0.01, "StockLevel {}", frac(4));
    }

    #[test]
    fn new_order_shape() {
        let mut src = TpccSource::new(TpccConfig::default());
        let mut rng = SimRng::new(1);
        // Find a NewOrder.
        for _ in 0..100 {
            let before = src.counts[0];
            let txn = src.next_txn(&mut rng);
            if src.counts[0] > before {
                // warehouse S + district X + customer S + 5..=15 stock X + order X
                assert!(txn.lock_count() >= 9 && txn.lock_count() <= 19);
                let shared = txn
                    .locks
                    .iter()
                    .filter(|n| n.mode == LockMode::Shared)
                    .count();
                assert!(shared >= 2, "warehouse and customer are shared reads");
                return;
            }
        }
        panic!("no NewOrder generated in 100 txns");
    }

    #[test]
    fn high_contention_uses_fewer_warehouses() {
        let low = TpccConfig::low_contention(10);
        let high = TpccConfig::high_contention(10);
        assert_eq!(low.warehouses, 100);
        assert_eq!(high.warehouses, 10);
    }

    #[test]
    fn lock_regions_disjoint() {
        // The max of each region must stay below the next region's base.
        assert!(ids::warehouse(9_999).0 < ids::district(0, 0).0);
        assert!(ids::district(9_999, 9).0 < ids::customer(0, 0, 0).0);
        assert!(ids::customer(999, 9, 2_999).0 < ids::stock(0, 0).0);
        assert!(ids::stock(1_000, 99_999).0 < ids::order(0, 0, 0).0);
    }

    #[test]
    fn locks_sorted_within_txn() {
        let mut src = TpccSource::new(TpccConfig::default());
        let mut rng = SimRng::new(3);
        for _ in 0..500 {
            let txn = src.next_txn(&mut rng);
            for pair in txn.locks.windows(2) {
                assert!(pair[0].lock < pair[1].lock, "locks must be sorted");
            }
        }
    }

    #[test]
    fn hot_stats_cover_warehouses_and_districts() {
        let cfg = TpccConfig {
            warehouses: 4,
            ..Default::default()
        };
        let stats = hot_lock_stats(&cfg, 64, 2);
        // 11 hot rows + 10 stock buckets per warehouse.
        assert_eq!(stats.len(), 4 * (11 + 10));
        assert!(stats.iter().all(|s| s.contention >= 1));
        // Warehouse rows are hotter than district rows.
        let wh = stats.iter().find(|s| s.lock == ids::warehouse(0)).unwrap();
        let di = stats
            .iter()
            .find(|s| s.lock == ids::district(0, 0))
            .unwrap();
        assert!(wh.rate > di.rate);
    }

    #[test]
    fn deterministic_given_seed() {
        let gen = |seed| {
            let mut src = TpccSource::new(TpccConfig::default());
            let mut rng = SimRng::new(seed);
            (0..50).map(|_| src.next_txn(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(gen(5), gen(5));
    }
}

//! The benchmark's workloads, as plain data.
//!
//! Every number that shapes a scenario lives here; `adapter.rs` turns a
//! [`WorkloadSpec`] into product objects. Simulated windows are fixed
//! per workload and scale linearly with `--seconds`, so simulated
//! results are a pure function of `(workload, seed, seconds)` while the
//! wall-clock of the measured window lands near `--seconds` on the box
//! the windows were sized on (2 cores, see README).

/// What the simulated clients look like.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// Open-loop `MicroClient`s against switch-resident locks; `racks`
    /// > 1 places identical racks in one `RackCluster`, one LP each,
    /// > advanced by one worker.
    Micro {
        racks: usize,
        clients: usize,
        rate_rps: f64,
        /// Locks programmed into the switch and targeted by every client.
        locks: u32,
        exclusive: bool,
    },
    /// Closed-loop `TxnClient`s running TPC-C (low contention) against
    /// a switch whose memory holds only part of the hot set.
    Tpcc {
        clients: usize,
        workers: usize,
        lock_servers: usize,
        server_service_ns: u64,
        switch_slots: u32,
        cold_locks: u32,
    },
    /// One `PopulationClient` carrying many virtual clients, with one
    /// burst episode that focuses part of its requests on a hot lock.
    Population {
        virtual_clients: u64,
        rate_per_client: f64,
        locks: u32,
        /// Queue slots the allocator gives each lock.
        slots_per_lock: u32,
        hold_us: u64,
        burst_multiplier: f64,
        burst_hot_fraction: f64,
    },
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why this workload exists.
    pub why: &'static str,
    pub shape: Shape,
    /// Simulated warm-up, excluded from every metric.
    pub warmup_us: u64,
    /// Simulated measured window per second of `--seconds`. A run
    /// measures the window three times over (see `run.rs`): at
    /// `--seconds 10` the two workloads whose cost grows along the
    /// window (`tpcc_mem_limited`, `population_burst`) get about 3 s
    /// per window on the build box, the three steady ones about 2 s,
    /// which keeps the driver's 114 runs inside its time cap even when
    /// the box runs 1.7x slow.
    pub measure_us_per_s: u64,
    /// Simulated window of the oracle pass per second of `--seconds`,
    /// sized so the pass costs a few wall seconds at `--seconds 10`.
    pub verify_us_per_s: u64,
    /// Paper figure `sim_lock_mrps` is shaped after, for the report.
    pub paper_ref: &'static str,
}

impl WorkloadSpec {
    /// Simulated measured window for a `--seconds` value.
    pub fn measure_us(&self, seconds: f64) -> u64 {
        ((self.measure_us_per_s as f64 * seconds) as u64).max(100)
    }

    /// Simulated window of the oracle pass for a `--seconds` value.
    pub fn verify_us(&self, seconds: f64) -> u64 {
        ((self.verify_us_per_s as f64 * seconds) as u64).max(100)
    }
}

const MICRO: Shape = Shape::Micro {
    racks: 1,
    clients: 10,
    rate_rps: 18e6,
    locks: 6_000,
    exclusive: false,
};

/// All workloads, in report order.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "micro_shared",
        why: "Fig. 9 switch rack, 180 MRPS of shared locks all granted at once: sim spine, switch immediate-grant path and micro client are the whole cost; server, txn client, tpcc, population idle",
        shape: MICRO,
        warmup_us: 2_000,
        measure_us_per_s: 1_400,
        verify_us_per_s: 100,
        paper_ref: "Fig. 9 shared: switch not saturated by ten clients",
    },
    WorkloadSpec {
        name: "micro_excl_hot500",
        why: "Same rack, exclusive mode on 500 locks (Fig. 8c point): enqueue, wait, grant-on-release and client-window throttling instead of immediate grants; throughput is contention-bound",
        shape: Shape::Micro {
            racks: 1,
            clients: 10,
            rate_rps: 18e6,
            locks: 500,
            exclusive: true,
        },
        warmup_us: 2_000,
        measure_us_per_s: 4_200,
        verify_us_per_s: 300,
        paper_ref: "Fig. 8c exclusive w/ contention: contention-limited",
    },
    WorkloadSpec {
        name: "tpcc_mem_limited",
        why: "Fig. 13 knapsack rack, TPC-C over 4000 switch slots and 2 lock servers: server lock table, switch forward/overflow, txn client and tpcc generator do the work; working set outgrows caches",
        shape: Shape::Tpcc {
            clients: 10,
            workers: 16,
            lock_servers: 2,
            server_service_ns: 1_500,
            switch_slots: 4_000,
            cold_locks: 20_000,
        },
        warmup_us: 10_000,
        measure_us_per_s: 10_000,
        verify_us_per_s: 1_000,
        paper_ref: "Fig. 13a knapsack: 2.2x over random here vs 2.95x in the paper",
    },
    WorkloadSpec {
        name: "population_burst",
        why: "1M virtual clients on one population node, Poisson batches plus a hot-lock burst that spills to the server: switch batch path and population node are the cost, event spine almost none",
        shape: Shape::Population {
            virtual_clients: 1_000_000,
            rate_per_client: 20.0,
            locks: 64,
            slots_per_lock: 64,
            hold_us: 10,
            burst_multiplier: 1.2,
            burst_hot_fraction: 0.06,
        },
        warmup_us: 20_000,
        measure_us_per_s: 117_000,
        verify_us_per_s: 2_000,
        paper_ref: "beyond the paper (million-client flash crowd)",
    },
    WorkloadSpec {
        name: "cluster2_shared",
        why: "Two micro_shared racks in one RackCluster, one LP per rack, advanced by one worker: the cost of sim::par's windowed loop against the fused loop at identical per-rack load",
        shape: Shape::Micro {
            racks: 2,
            clients: 10,
            rate_rps: 18e6,
            locks: 6_000,
            exclusive: false,
        },
        // Half of micro_shared's warm-up: two racks' worth of events pass
        // through every set-up and through the oracle pass.
        warmup_us: 1_000,
        measure_us_per_s: 600,
        verify_us_per_s: 50,
        paper_ref: "Fig. 9 shared, per rack",
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

//! Exact counts of the work the mappers do.
//!
//! Wall time depends on the host; these counts depend only on the inputs,
//! so two runs of the same sweep count the same work on any machine, in
//! any build profile and on any number of threads. CI compares them byte
//! for byte (`plaid-bench counts` against `BENCH_sweep.json`).
//!
//! The hot loops count into plain fields of the state they already own: a
//! [`MapState`](crate::placement::MapState) counts its placement probes,
//! edge scans and repair iterations, and its router scratch its searches
//! and queue pops. When the state is dropped, at the end of its II attempt,
//! they are added to the calling thread's running total, as are the rung
//! counts at the end of each ladder. [`WorkCounts::thread_total`] reads
//! that total, so a caller counts a call's work as the difference of two
//! reads around it.

use std::cell::Cell;
use std::ops::{AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// Work done by the mappers, as plain counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkCounts {
    /// II attempts run by the ladders (replayed and proven-infeasible
    /// points run none).
    pub rungs: u64,
    /// Attempts that found no mapping.
    pub failed_rungs: u64,
    /// Plaid repair iterations that ripped a unit up (Algorithm 2, Lines
    /// 5–11).
    pub repair_iterations: u64,
    /// Plaid repair iterations answered from the memo, ripping nothing up.
    pub repair_memo_skips: u64,
    /// Candidates tried by `MapState::try_place`.
    pub place_probes: u64,
    /// Router searches (`find_route_in` calls).
    pub route_searches: u64,
    /// Cells popped from the router's queue.
    pub route_pops: u64,
    /// DFG edges walked by `MapState::route_all` and `MapState::timing_ok`.
    pub edge_scans: u64,
}

thread_local! {
    /// The calling thread's running total.
    static TOTAL: Cell<WorkCounts> = Cell::default();
}

impl WorkCounts {
    /// All work the mappers have done on the calling thread so far.
    pub fn thread_total() -> WorkCounts {
        TOTAL.with(Cell::get)
    }

    /// Adds `self` to the calling thread's running total. Called from
    /// `Drop`, so it never panics: on a thread whose locals are already
    /// destroyed, the work goes uncounted.
    pub(crate) fn fold(self) {
        let _ = TOTAL.try_with(|total| {
            let mut sum = total.get();
            sum += self;
            total.set(sum);
        });
    }
}

impl AddAssign for WorkCounts {
    fn add_assign(&mut self, other: WorkCounts) {
        self.rungs += other.rungs;
        self.failed_rungs += other.failed_rungs;
        self.repair_iterations += other.repair_iterations;
        self.repair_memo_skips += other.repair_memo_skips;
        self.place_probes += other.place_probes;
        self.route_searches += other.route_searches;
        self.route_pops += other.route_pops;
        self.edge_scans += other.edge_scans;
    }
}

/// The work done between two reads of one running total: `later - earlier`.
impl Sub for WorkCounts {
    type Output = WorkCounts;

    fn sub(self, earlier: WorkCounts) -> WorkCounts {
        WorkCounts {
            rungs: self.rungs - earlier.rungs,
            failed_rungs: self.failed_rungs - earlier.failed_rungs,
            repair_iterations: self.repair_iterations - earlier.repair_iterations,
            repair_memo_skips: self.repair_memo_skips - earlier.repair_memo_skips,
            place_probes: self.place_probes - earlier.place_probes,
            route_searches: self.route_searches - earlier.route_searches,
            route_pops: self.route_pops - earlier.route_pops,
            edge_scans: self.edge_scans - earlier.edge_scans,
        }
    }
}

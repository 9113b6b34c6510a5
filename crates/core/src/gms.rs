//! Generalized multiprocessor sharing (GMS), the fluid-flow ideal (§2.2).
//!
//! GMS is the multiprocessor analogue of GPS: threads are served in
//! infinitesimally small quanta, `p` at a time, in proportion to their
//! instantaneous (readjusted) weights. For any interval in which two
//! threads are continuously runnable with fixed instantaneous weights,
//!
//! ```text
//! A_i(t1, t2) / A_j(t1, t2) = φ_i / φ_j        (Eq. 2)
//! ```
//!
//! GMS is not implementable with finite quanta; this module provides the
//! *fluid simulation* of it, used (a) as the reference against which the
//! surplus of a practical schedule is defined (Eq. 3) and (b) by the test
//! suite to bound SFS's deviation from the ideal.
//!
//! Between runnable-set changes the per-thread service rate is constant:
//! `r_i = p · C · φ_i / Σ_j φ_j`, which the feasibility constraint keeps
//! at or below the capacity `C` of one processor. [`FluidGms::advance`]
//! integrates those rates; every mutation re-runs weight readjustment,
//! so infeasible raw weights saturate at one full processor exactly as
//! water-filling would.
//!
//! Service is accumulated in `f64` nanoseconds: this is a measurement
//! reference, not kernel code, and the relative error over any experiment
//! horizon is far below the fixed-point resolution used by the schedulers.

use crate::readjust::{apply, readjust};
use crate::task::{TaskId, Weight};
use crate::taskmap::TaskMap;
use crate::time::Duration;

#[derive(Debug, Clone)]
struct FluidTask {
    weight: Weight,
    phi: f64,
    runnable: bool,
    service_ns: f64,
}

/// The fluid-flow GMS reference simulator.
#[derive(Debug, Clone)]
pub struct FluidGms {
    cpus: u32,
    capacity: f64,
    tasks: TaskMap<FluidTask>,
    total_phi: f64,
    /// Size of the runnable set, recounted with `total_phi` on every
    /// change so that a rate query does not walk the table.
    nr_runnable: usize,
}

impl FluidGms {
    /// Creates a fluid machine with `cpus` processors of unit capacity
    /// (one second of service per second of wall time).
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn new(cpus: u32) -> FluidGms {
        assert!(cpus > 0, "need at least one processor");
        FluidGms {
            cpus,
            capacity: 1.0,
            tasks: TaskMap::new(),
            total_phi: 0.0,
            nr_runnable: 0,
        }
    }

    /// Adds a task in the given runnable state.
    pub fn add(&mut self, id: TaskId, w: Weight, runnable: bool) {
        let prev = self.tasks.insert(
            id,
            FluidTask {
                weight: w,
                phi: w.get() as f64,
                runnable,
                service_ns: 0.0,
            },
        );
        assert!(prev.is_none(), "task {id} added twice");
        self.readjust_all();
    }

    /// Removes a task entirely.
    pub fn remove(&mut self, id: TaskId) {
        self.tasks.remove(&id).expect("removing unknown task");
        self.readjust_all();
    }

    /// Marks a task runnable or blocked.
    pub fn set_runnable(&mut self, id: TaskId, runnable: bool) {
        self.tasks.get_mut(&id).expect("unknown task").runnable = runnable;
        self.readjust_all();
    }

    /// Changes a task's weight.
    pub fn set_weight(&mut self, id: TaskId, w: Weight) {
        let t = self.tasks.get_mut(&id).expect("unknown task");
        t.weight = w;
        self.readjust_all();
    }

    /// The task's current fluid service rate, in CPUs (0.0 ..= 1.0).
    pub fn rate(&self, id: TaskId) -> f64 {
        self.tasks.get(&id).map_or(0.0, self.rate_fn())
    }

    /// The rate of a task under the current runnable set, as a function
    /// that borrows nothing from `self`: [`FluidGms::advance`] applies
    /// it while walking the table mutably.
    fn rate_fn(&self) -> impl Fn(&FluidTask) -> f64 {
        let (cpus, capacity, total_phi) = (self.cpus as f64, self.capacity, self.total_phi);
        let uncontended = self.nr_runnable <= self.cpus as usize;
        move |t| {
            if !t.runnable || total_phi == 0.0 {
                return 0.0;
            }
            // With fewer runnable threads than processors every thread
            // gets a full CPU; otherwise readjustment already capped
            // shares at 1/p.
            if uncontended {
                capacity
            } else {
                (cpus * t.phi / total_phi).min(1.0) * capacity
            }
        }
    }

    /// Integrates the fluid for `dt` of wall time.
    pub fn advance(&mut self, dt: Duration) {
        if self.total_phi == 0.0 {
            return;
        }
        let rate = self.rate_fn();
        for t in self.tasks.values_mut() {
            let r = rate(t);
            if r > 0.0 {
                t.service_ns += r * dt.as_nanos() as f64;
            }
        }
    }

    /// Cumulative fluid service `A_i^GMS`.
    pub fn service(&self, id: TaskId) -> Duration {
        Duration::from_nanos(
            self.tasks
                .get(&id)
                .map(|t| t.service_ns)
                .unwrap_or(0.0)
                .round() as u64,
        )
    }

    fn readjust_all(&mut self) {
        let mut runnable: Vec<(TaskId, u64)> = self
            .tasks
            .iter()
            .filter(|(_, t)| t.runnable)
            .map(|(id, t)| (id, t.weight.get()))
            .collect();
        self.nr_runnable = runnable.len();
        // Descending weight, deterministic tie-break by id.
        runnable.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let weights: Vec<u64> = runnable.iter().map(|&(_, w)| w).collect();
        let phis = apply(&weights, &readjust(&weights, self.cpus));
        self.total_phi = 0.0;
        for ((id, _), phi) in runnable.iter().zip(phis.iter()) {
            let phi = phi.to_f64();
            self.tasks.get_mut(id).unwrap().phi = phi;
            self.total_phi += phi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::weight;
    use crate::testkit::assert_close;

    #[test]
    fn proportional_rates_for_feasible_weights() {
        let mut g = FluidGms::new(2);
        g.add(TaskId(1), weight(2), true);
        g.add(TaskId(2), weight(1), true);
        g.add(TaskId(3), weight(1), true);
        // Shares of 2 CPUs: 1, 0.5, 0.5.
        assert_close(g.rate(TaskId(1)), 1.0, 1e-9, "heavy rate");
        assert_close(g.rate(TaskId(2)), 0.5, 1e-9, "light rate");
        g.advance(Duration::from_secs(10));
        assert_close(
            g.service(TaskId(1)).as_secs_f64(),
            10.0,
            1e-9,
            "heavy service",
        );
        assert_close(
            g.service(TaskId(3)).as_secs_f64(),
            5.0,
            1e-9,
            "light service",
        );
    }

    #[test]
    fn infeasible_weight_saturates_at_one_cpu() {
        let mut g = FluidGms::new(2);
        g.add(TaskId(1), weight(1), true);
        g.add(TaskId(2), weight(100), true);
        assert_close(g.rate(TaskId(2)), 1.0, 1e-9, "clamped to one CPU");
        assert_close(g.rate(TaskId(1)), 1.0, 1e-9, "leftover CPU");
    }

    #[test]
    fn eq2_ratio_holds_for_fixed_interval() {
        let mut g = FluidGms::new(2);
        g.add(TaskId(1), weight(3), true);
        g.add(TaskId(2), weight(1), true);
        g.add(TaskId(3), weight(1), true);
        g.add(TaskId(4), weight(1), true);
        g.advance(Duration::from_secs(6));
        let a1 = g.service(TaskId(1)).as_nanos() as f64;
        let a2 = g.service(TaskId(2)).as_nanos() as f64;
        assert_close(a1 / a2, 3.0, 1e-9, "A1/A2 = phi1/phi2");
    }

    #[test]
    fn blocking_redistributes_bandwidth() {
        let mut g = FluidGms::new(1);
        g.add(TaskId(1), weight(1), true);
        g.add(TaskId(2), weight(1), true);
        g.advance(Duration::from_secs(2));
        g.set_runnable(TaskId(2), false);
        g.advance(Duration::from_secs(2));
        assert_close(g.service(TaskId(1)).as_secs_f64(), 3.0, 1e-9, "1+2");
        assert_close(g.service(TaskId(2)).as_secs_f64(), 1.0, 1e-9, "1");
        g.set_runnable(TaskId(2), true);
        g.advance(Duration::from_secs(2));
        assert_close(g.service(TaskId(2)).as_secs_f64(), 2.0, 1e-9, "1+1");
    }

    #[test]
    fn fewer_threads_than_cpus_each_get_full_cpu() {
        let mut g = FluidGms::new(4);
        g.add(TaskId(1), weight(100), true);
        g.add(TaskId(2), weight(1), true);
        assert_close(g.rate(TaskId(1)), 1.0, 1e-9, "full CPU");
        assert_close(g.rate(TaskId(2)), 1.0, 1e-9, "full CPU");
    }

    #[test]
    fn set_weight_changes_rates() {
        let mut g = FluidGms::new(1);
        g.add(TaskId(1), weight(1), true);
        g.add(TaskId(2), weight(1), true);
        g.set_weight(TaskId(2), weight(3));
        assert_close(g.rate(TaskId(2)), 0.75, 1e-9, "3/4");
        assert_close(g.rate(TaskId(1)), 0.25, 1e-9, "1/4");
    }

    #[test]
    fn work_conserving_total_rate() {
        let mut g = FluidGms::new(3);
        for i in 0..8 {
            g.add(TaskId(i), weight(1 + i % 3), true);
        }
        let total: f64 = (0..8).map(|i| g.rate(TaskId(i))).sum();
        assert_close(total, 3.0, 1e-6, "total rate = p");
    }
}

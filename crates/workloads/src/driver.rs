//! The multi-threaded benchmark driver.
//!
//! `run_benchmark` generalises the paper's measurement loop into the
//! scenario engine's: every worker thread repeatedly draws an operation
//! kind from the configured [`OpMix`], a key from the configured
//! [`KeyDist`] sampler, and executes one transaction, until either the
//! measurement interval elapses or a fixed per-thread operation budget is
//! exhausted.  Per-thread statistics are merged into a single
//! [`BenchResult`].  The paper's loop (uniform keys, binary
//! lookup/update coin) is the default configuration.
//!
//! The spawn/register/barrier/join choreography lives in
//! [`rhtm_api::session`] ([`run_scoped`]): workers run in scoped
//! sessions, and the controller closure owns the measurement clock and
//! the deadline of time-bounded runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rhtm_api::session::run_scoped;
use rhtm_api::{TmRuntime, TmThread};

use crate::mix::OpMix;
use crate::phase::{PhasePlan, PhasedSampler};
use crate::report::{BenchResult, Breakdown};
use crate::rng::{KeyDist, KeySampler, WorkloadRng};
use crate::workload::Workload;

/// Options of a benchmark run.
#[derive(Clone, Debug)]
pub struct DriverOpts {
    /// Number of worker threads.
    pub threads: usize,
    /// The weighted operation mix drawn once per operation.
    pub mix: OpMix,
    /// The key-access distribution drawn once per operation.
    pub dist: KeyDist,
    /// Optional time-varying load schedule.  When set, it *replaces*
    /// `dist`: each worker samples from the [`LoadPhase`](crate::phase::LoadPhase)
    /// active at the run's current progress (operations done for counted
    /// runs, wall-clock share for timed runs).
    pub phases: Option<PhasePlan>,
    /// Fixed per-thread operation budget.  When `None`, the run is
    /// time-bounded by `duration`.
    pub ops_per_thread: Option<u64>,
    /// Measurement interval for time-bounded runs.
    pub duration: Duration,
    /// Collect the fine-grained single-thread time breakdown (enables
    /// per-operation timing; meaningful for `threads == 1`).
    pub breakdown: bool,
    /// Base RNG seed (each thread derives its own stream).
    pub seed: u64,
}

impl Default for DriverOpts {
    fn default() -> Self {
        DriverOpts {
            threads: 1,
            mix: OpMix::read_update(20),
            dist: KeyDist::Uniform,
            phases: None,
            ops_per_thread: None,
            duration: Duration::from_millis(300),
            breakdown: false,
            seed: 0xbe6c_c0de,
        }
    }
}

impl DriverOpts {
    /// A time-bounded run with the given operation mix over uniform keys.
    pub fn timed_mix(threads: usize, mix: OpMix, duration: Duration) -> Self {
        DriverOpts {
            threads,
            mix,
            duration,
            ..Default::default()
        }
    }

    /// An operation-count-bounded run (deterministic work per measurement:
    /// the breakdown tables, the capacity ablations, the golden tests) with
    /// the given operation mix over uniform keys.
    pub fn counted_mix(threads: usize, mix: OpMix, ops_per_thread: u64) -> Self {
        DriverOpts {
            threads,
            mix,
            ops_per_thread: Some(ops_per_thread),
            ..Default::default()
        }
    }

    /// Enables the single-thread time-breakdown mode.
    pub fn with_breakdown(mut self) -> Self {
        self.breakdown = true;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the operation mix.
    pub fn with_mix(mut self, mix: OpMix) -> Self {
        self.mix = mix;
        self
    }

    /// Sets the key-access distribution.
    pub fn with_dist(mut self, dist: KeyDist) -> Self {
        self.dist = dist;
        self
    }

    /// Sets (or clears) the time-varying load schedule.
    pub fn with_phases(mut self, phases: Option<PhasePlan>) -> Self {
        self.phases = phases;
        self
    }
}

/// The per-worker key source: a stationary sampler, or a phased one plus
/// the state needed to track run progress.
enum KeySource {
    Stationary(KeySampler),
    Phased {
        sampler: PhasedSampler,
        /// Cached progress percentage, refreshed every
        /// [`PROGRESS_REFRESH`] operations for timed runs (counted runs
        /// recompute exactly — integer math is free).
        progress: u8,
    },
}

/// Operations between wall-clock progress refreshes of timed phased runs
/// (matches the deadline-check cadence).
const PROGRESS_REFRESH: u64 = 64;

impl KeySource {
    fn new(opts: &DriverOpts, key_space: u64, tid: usize) -> Self {
        match opts.phases {
            Some(plan) => KeySource::Phased {
                sampler: plan.sampler(key_space, tid, opts.threads),
                progress: 0,
            },
            None => KeySource::Stationary(opts.dist.sampler(key_space, tid, opts.threads)),
        }
    }

    #[inline]
    fn sample(
        &mut self,
        rng: &mut WorkloadRng,
        ops: u64,
        opts: &DriverOpts,
        started: &Instant,
    ) -> u64 {
        match self {
            KeySource::Stationary(s) => s.sample(rng),
            KeySource::Phased { sampler, progress } => {
                match opts.ops_per_thread {
                    // Counted runs: progress is exact and deterministic.
                    Some(budget) => *progress = (ops * 100 / budget.max(1)).min(99) as u8,
                    // Timed runs: refresh from the wall clock at the same
                    // cadence as the deadline check.
                    None => {
                        if ops.is_multiple_of(PROGRESS_REFRESH) {
                            let total = opts.duration.as_nanos().max(1);
                            let done = started.elapsed().as_nanos() * 100 / total;
                            *progress = done.min(99) as u8;
                        }
                    }
                }
                sampler.sample(rng, *progress)
            }
        }
    }
}

struct ThreadOutcome {
    ops: u64,
    stats: rhtm_api::TxStats,
    txn_ns: u64,
    loop_ns: u64,
}

/// Runs `workload` on `runtime` according to `opts` and returns the merged
/// result.
pub fn run_benchmark<RT, W>(runtime: &RT, workload: &W, opts: &DriverOpts) -> BenchResult
where
    RT: TmRuntime,
    W: Workload,
{
    assert!(opts.threads >= 1, "at least one worker thread is required");
    assert!(workload.key_space() >= 1, "workload key space is empty");
    let stop = AtomicBool::new(false);

    let (outcomes, started) = run_scoped(
        opts.threads,
        |_| runtime.register_thread(),
        |session| {
            // Sampler construction is setup, not measured work (the
            // Zipfian sampler does O(key-space) precomputation) — the
            // session sync below holds every worker until setup is done
            // everywhere, so the measurement clock starts clean.
            let tid = session.index();
            session.stats_mut().timing = opts.breakdown;
            let mut rng = WorkloadRng::new(opts.seed ^ ((tid as u64 + 1) * 0x9E37_79B9));
            let mut source = KeySource::new(opts, workload.key_space(), tid);
            let mut ops = 0u64;
            let mut txn_ns = 0u64;
            session.sync();
            let loop_started = Instant::now();
            loop {
                match opts.ops_per_thread {
                    Some(budget) => {
                        if ops >= budget {
                            break;
                        }
                    }
                    None => {
                        // Check the deadline every few operations to
                        // keep the check off the per-op critical path.
                        if ops.is_multiple_of(64) && stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                }
                let op = opts.mix.draw(&mut rng);
                let key = source.sample(&mut rng, ops, opts, &loop_started);
                if opts.breakdown {
                    let t = Instant::now();
                    workload.run_op(session.thread_mut(), &mut rng, op, key);
                    txn_ns += t.elapsed().as_nanos() as u64;
                } else {
                    workload.run_op(session.thread_mut(), &mut rng, op, key);
                }
                ops += 1;
            }
            ThreadOutcome {
                ops,
                stats: session.stats().clone(),
                txn_ns,
                loop_ns: loop_started.elapsed().as_nanos() as u64,
            }
        },
        |mut ctl| {
            // The controller is released exactly when the workers are:
            // that instant is the start of the measurement interval.
            ctl.wait_ready();
            let started = Instant::now();
            if opts.ops_per_thread.is_none() {
                std::thread::sleep(opts.duration);
                stop.store(true, Ordering::SeqCst);
            }
            started
        },
    );

    let elapsed = started.elapsed();
    let mut stats = rhtm_api::TxStats::new(opts.breakdown);
    let mut total_ops = 0u64;
    let mut txn_ns = 0u64;
    let mut loop_ns = 0u64;
    for o in &outcomes {
        stats.merge(&o.stats);
        total_ops += o.ops;
        txn_ns += o.txn_ns;
        loop_ns += o.loop_ns;
    }
    let breakdown = if opts.breakdown {
        let accounted = stats.read_ns + stats.write_ns + stats.commit_ns;
        Some(Breakdown {
            read_ns: stats.read_ns,
            write_ns: stats.write_ns,
            commit_ns: stats.commit_ns,
            private_ns: txn_ns.saturating_sub(accounted),
            intertx_ns: loop_ns.saturating_sub(txn_ns),
        })
    } else {
        None
    };

    BenchResult {
        algorithm: runtime.name().to_string(),
        // The driver sees only the runtime, not the axes it was built
        // from; TmSpec::bench overwrites this with the spec's label.
        spec: String::new(),
        workload: workload.name(),
        threads: opts.threads,
        write_percent: opts.mix.update_percent(),
        op_mix: opts.mix.label(),
        key_dist: opts.dist.label(),
        seed: opts.seed,
        total_ops,
        elapsed,
        stats,
        breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structures::hashtable::ConstantHashTable;
    use rhtm_htm::{HtmConfig, HtmRuntime, HtmSim};
    use rhtm_mem::{MemConfig, TmMemory};
    use std::sync::Arc;

    fn setup(elements: u64) -> (HtmRuntime, ConstantHashTable) {
        let mem_cfg =
            MemConfig::with_data_words(ConstantHashTable::required_words(elements) + 1024);
        let mem = Arc::new(TmMemory::new(mem_cfg));
        let sim = HtmSim::new(mem, HtmConfig::default());
        let table = ConstantHashTable::new(Arc::clone(&sim), elements);
        (HtmRuntime::with_sim(sim), table)
    }

    #[test]
    fn counted_run_executes_exactly_the_budget() {
        let (rt, table) = setup(512);
        let opts = DriverOpts::counted_mix(2, OpMix::read_update(20), 250);
        let result = run_benchmark(&rt, &table, &opts);
        assert_eq!(result.total_ops, 500);
        assert_eq!(result.stats.commits(), 500);
        assert_eq!(result.threads, 2);
        assert!(result.throughput() > 0.0);
    }

    #[test]
    fn timed_run_stops_near_the_deadline() {
        let (rt, table) = setup(512);
        let opts = DriverOpts::timed_mix(2, OpMix::read_update(20), Duration::from_millis(60));
        let result = run_benchmark(&rt, &table, &opts);
        assert!(result.total_ops > 0);
        assert!(result.elapsed >= Duration::from_millis(60));
        assert!(
            result.elapsed < Duration::from_millis(2_000),
            "run should stop promptly after the deadline"
        );
    }

    #[test]
    fn write_percentage_controls_update_share() {
        let (rt, table) = setup(512);
        let result = run_benchmark(
            &rt,
            &table,
            &DriverOpts::counted_mix(1, OpMix::read_update(0), 300),
        );
        assert_eq!(result.stats.writes, 0, "0% writes must never update");
        let (rt, table) = setup(512);
        let result = run_benchmark(
            &rt,
            &table,
            &DriverOpts::counted_mix(1, OpMix::read_update(100), 300),
        );
        assert!(result.stats.writes > 0, "100% writes must update");
    }

    #[test]
    fn breakdown_mode_accounts_time() {
        let (rt, table) = setup(512);
        let opts = DriverOpts::counted_mix(1, OpMix::read_update(20), 400).with_breakdown();
        let result = run_benchmark(&rt, &table, &opts);
        let b = result.breakdown.expect("breakdown requested");
        assert!(b.read_ns > 0);
        assert!(b.total_ns() > 0);
        let percentages = b.percentages();
        assert!((percentages.iter().sum::<f64>() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn mix_and_dist_are_recorded_in_the_result() {
        let (rt, table) = setup(512);
        let opts = DriverOpts::counted_mix(2, OpMix::read_update(20), 100)
            .with_mix(OpMix::read_update(35))
            .with_dist(KeyDist::ZIPF_DEFAULT);
        let result = run_benchmark(&rt, &table, &opts);
        assert_eq!(result.write_percent, 35);
        assert_eq!(result.op_mix, "l65-u35");
        assert_eq!(result.key_dist, "zipf-0.99");
        assert_eq!(result.seed, opts.seed);
        assert_eq!(result.total_ops, 200);
    }

    #[test]
    fn every_distribution_drives_the_run_deterministically() {
        for dist in KeyDist::ALL {
            let run = || {
                let (rt, table) = setup(512);
                run_benchmark(
                    &rt,
                    &table,
                    &DriverOpts::counted_mix(1, OpMix::read_update(50), 200)
                        .with_seed(9)
                        .with_dist(dist),
                )
            };
            let (a, b) = (run(), run());
            assert_eq!(a.total_ops, 200, "{dist:?}");
            assert_eq!(a.stats.reads, b.stats.reads, "{dist:?}");
            assert_eq!(a.stats.writes, b.stats.writes, "{dist:?}");
        }
    }

    #[test]
    fn phased_counted_runs_complete_and_replay_deterministically() {
        for plan in PhasePlan::ALL {
            // Single-threaded so abort/retry noise cannot perturb the
            // read/write counts (as in the stationary determinism test).
            let run = || {
                let (rt, table) = setup(512);
                run_benchmark(
                    &rt,
                    &table,
                    &DriverOpts::counted_mix(1, OpMix::read_update(30), 400)
                        .with_seed(4)
                        .with_phases(Some(plan)),
                )
            };
            let (a, b) = (run(), run());
            assert_eq!(a.total_ops, 400, "{plan:?}");
            assert_eq!(a.stats.commits(), 400, "{plan:?}");
            assert_eq!(a.stats.reads, b.stats.reads, "{plan:?}");
            assert_eq!(a.stats.writes, b.stats.writes, "{plan:?}");
        }
    }

    #[test]
    fn phased_timed_runs_stop_at_the_deadline() {
        let (rt, table) = setup(512);
        let opts = DriverOpts::timed_mix(2, OpMix::read_update(20), Duration::from_millis(40))
            .with_phases(Some(PhasePlan::FlashCrowd));
        let result = run_benchmark(&rt, &table, &opts);
        assert!(result.total_ops > 0);
        assert!(result.elapsed >= Duration::from_millis(40));
        assert!(result.elapsed < Duration::from_millis(2_000));
    }

    #[test]
    fn results_are_deterministic_for_counted_runs_with_same_seed() {
        let (rt, table) = setup(256);
        let a = run_benchmark(
            &rt,
            &table,
            &DriverOpts::counted_mix(1, OpMix::read_update(50), 200).with_seed(9),
        );
        let (rt, table) = setup(256);
        let b = run_benchmark(
            &rt,
            &table,
            &DriverOpts::counted_mix(1, OpMix::read_update(50), 200).with_seed(9),
        );
        assert_eq!(a.stats.reads, b.stats.reads);
        assert_eq!(a.stats.writes, b.stats.writes);
    }
}

//! The one file that touches the product crates.
//!
//! Every call from the benchmark into `rhtm_mem`, `rhtm_htm`, `rhtm_stm`,
//! `rhtm_hytm_std`, `rhtm_core`, `rhtm_api`, `rhtm_workloads` and
//! `rhtm_kv` is made here, through their public items only.  A later PR
//! that moves a product API has this file to renegotiate (in its own
//! benchmark PR) and nothing else.  Nothing here times anything: the
//! clocks are in the callers.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use rhtm_api::reclaim::EpochGuard;
use rhtm_api::typed::{Record, TxPtr};
use rhtm_api::{
    AbortCause, DynThread, DynThreadExt, LatencyHistogram, PathKind, TmRuntime, TmThread, TxStats,
};
use rhtm_htm::HtmSim;
use rhtm_kv::{
    plan_worker, run_open_loop, KvMix, KvScenario, KvService, KvWorker, LoadOpts, LoadReport,
    ShardedBankChecker, TransferOutcome,
};
use rhtm_mem::heap::FLAT_MAX_WORDS;
use rhtm_mem::{Addr, MemConfig, MemMetrics, TmMemory, TxHeap, SEGMENT_WORDS};
use rhtm_workloads::structures::skiplist::{InsertOutcome, SkipNode};
use rhtm_workloads::{
    AlgoVisitor, BenchResult, Checker, ConstantRbTree, DriverOpts, EventKind, History,
    HistoryRecorder, KeySampler, OpKind, OpMix, Scenario, StructureKind, TmInstance, TmSpec,
    TxBank, TxSkipList, Workload, WorkloadRng,
};

pub use rhtm_kv::{KvOp, PlannedOp};

/// The reference runtime point every workload runs on: RH1 with the full
/// cascade, the paper's main configuration.
pub const REFERENCE_SPEC: &str = "rh1-mixed-100+gv-strict+paper-default";

/// Heap words of one skiplist node (fresh-allocation counters are in
/// words; reuse shares are in nodes).
pub const NODE_WORDS: u64 = SkipNode::WORDS as u64;

// ---------------------------------------------------------------- specs

/// One runtime point of the product (`algo+clock+policy`).
#[derive(Clone)]
pub struct Spec(TmSpec);

impl Spec {
    pub fn parse(label: &str) -> Spec {
        Spec(TmSpec::parse(label).unwrap_or_else(|| panic!("unknown spec label {label:?}")))
    }

    pub fn reference() -> Spec {
        Spec::parse(REFERENCE_SPEC)
    }

    pub fn label(&self) -> String {
        self.0.label()
    }
}

// ------------------------------------------------------------- counters

/// The public `TxStats` counters the per-layer shares are made of.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub commits_hw_fast: u64,
    pub commits_mixed_slow: u64,
    pub commits_software: u64,
    pub aborts: u64,
    pub aborts_conflict: u64,
    pub aborts_capacity: u64,
    pub retry_decisions: u64,
    pub retry_demote: u64,
    pub retry_backoff: u64,
}

impl Counts {
    fn of(stats: &TxStats) -> Counts {
        Counts {
            commits_hw_fast: stats.commits_on(PathKind::HardwareFast),
            commits_mixed_slow: stats.commits_on(PathKind::MixedSlow),
            commits_software: stats.commits_on(PathKind::Software),
            aborts: stats.aborts(),
            aborts_conflict: stats.aborts_for(AbortCause::Conflict),
            aborts_capacity: stats.aborts_for(AbortCause::Capacity),
            retry_decisions: stats.retry.decisions(),
            retry_demote: stats.retry.demote,
            retry_backoff: stats.retry.backoff,
        }
    }

    pub fn commits(&self) -> u64 {
        self.commits_hw_fast + self.commits_mixed_slow + self.commits_software
    }
}

/// The public `MemMetrics` counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemCounts {
    pub alloc_words: u64,
    pub retired: u64,
    pub reclaimed: u64,
    pub epoch_advances: u64,
}

impl MemCounts {
    fn of(m: &MemMetrics) -> MemCounts {
        MemCounts {
            alloc_words: m.alloc_words,
            retired: m.retired,
            reclaimed: m.reclaimed,
            epoch_advances: m.epoch_advances,
        }
    }

    pub fn add(&mut self, other: &MemCounts) {
        self.alloc_words += other.alloc_words;
        self.retired += other.retired;
        self.reclaimed += other.reclaimed;
        self.epoch_advances += other.epoch_advances;
    }
}

// ------------------------------------------------------------ histogram

/// The product's latency histogram (`rhtm_api::LatencyHistogram`).
pub struct Hist(LatencyHistogram);

impl Hist {
    pub fn new() -> Hist {
        Hist(LatencyHistogram::new())
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.0.record(ns);
    }

    pub fn count(&self) -> u64 {
        self.0.count()
    }

    pub fn max(&self) -> u64 {
        self.0.max()
    }

    /// Quantile `q` in nanoseconds, interpolated inside its bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        crate::stats::interpolated_quantile(q, |q| {
            let v = self.0.value_at_quantile(q);
            LatencyHistogram::bucket_bounds(LatencyHistogram::bucket_index(v))
        })
    }
}

// ------------------------------------------------------------------- KV

/// A registered `rhtm_kv` service shape.
#[derive(Clone, Copy)]
pub struct KvCase(&'static KvScenario);

impl KvCase {
    pub fn find(name: &str) -> KvCase {
        KvCase(KvScenario::find(name).unwrap_or_else(|| panic!("no KV scenario {name:?}")))
    }

    pub fn describe(&self) -> String {
        format!(
            "{} ({} keys, {} shards, {})",
            self.0.name,
            self.0.key_space,
            self.0.shards,
            self.0.mix.label()
        )
    }

    /// `KvScenario::service`: builds and prefills the service.
    pub fn build(&self, spec: &Spec, workers: usize) -> Service {
        Service {
            svc: self.0.service(&spec.0, self.0.shards, workers),
            mix: self.0.mix,
        }
    }
}

/// A live `KvService` with the scenario's mix.
pub struct Service {
    svc: KvService,
    mix: KvMix,
}

/// One open-loop run as `rhtm_kv::run_open_loop` reports it.
pub struct OpenReport {
    pub generated: u64,
    pub elapsed_s: f64,
    /// Latency of every completed request, from its scheduled arrival.
    pub latency: Hist,
    histories: Vec<HistoryRecorder>,
}

impl Service {
    pub fn key_space(&self) -> u64 {
        self.svc.key_space()
    }

    pub fn initial_value(&self) -> u64 {
        self.svc.initial_value()
    }

    pub fn shards(&self) -> u64 {
        self.svc.shard_count() as u64
    }

    pub fn worker(&self) -> Worker<'_> {
        Worker(self.svc.worker())
    }

    #[inline]
    pub fn route(&self, key: u64) -> (usize, u64) {
        self.svc.route(key)
    }

    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        self.svc.snapshot()
    }

    pub fn total_balance(&self) -> u128 {
        self.svc.total_balance()
    }

    fn load_opts(&self, rate: f64, seconds: f64, seed: u64, workers: usize) -> LoadOpts {
        LoadOpts::new(rate, Duration::from_secs_f64(seconds))
            .with_workers(workers)
            .with_mix(self.mix)
            .with_seed(seed)
    }

    /// `rhtm_kv::plan_worker`: worker `worker_id`'s requests for
    /// `seconds` at `rate` req/s over `workers` workers, a pure function
    /// of `seed`.
    pub fn plan(
        &self,
        rate: f64,
        seconds: f64,
        seed: u64,
        worker_id: usize,
        workers: usize,
    ) -> Vec<PlannedOp> {
        plan_worker(
            &self.load_opts(rate, seconds, seed, workers),
            self.svc.key_space(),
            worker_id,
        )
    }

    /// `rhtm_kv::run_open_loop`: Poisson arrivals at `rate` req/s for
    /// `seconds`, latency from the scheduled arrival.
    pub fn open_loop(&self, rate: f64, seconds: f64, seed: u64, workers: usize) -> OpenReport {
        let r: LoadReport = run_open_loop(&self.svc, &self.load_opts(rate, seconds, seed, workers));
        OpenReport {
            generated: r.generated,
            elapsed_s: r.elapsed.as_secs_f64(),
            latency: Hist(r.latency),
            histories: r.histories,
        }
    }
}

/// A `KvWorker`: the in-process caller of the service.
pub struct Worker<'a>(KvWorker<'a>);

impl Worker<'_> {
    #[inline]
    pub fn get(&mut self, key: u64) -> Option<u64> {
        self.0.get(key)
    }

    #[inline]
    pub fn put(&mut self, key: u64, value: u64) -> bool {
        self.0.put(key, value)
    }

    #[inline]
    pub fn delete(&mut self, key: u64) -> Option<u64> {
        self.0.delete(key)
    }

    /// Whether the transfer was applied.
    #[inline]
    pub fn transfer(&mut self, from: u64, to: u64, amount: u64) -> bool {
        self.0.transfer(from, to, amount) == TransferOutcome::Applied
    }

    #[inline]
    pub fn multi_get(&mut self, keys: &[u64]) -> Vec<Option<u64>> {
        self.0.multi_get(keys)
    }

    /// `(commits, aborts)` — all the service exposes of its `TxStats`.
    pub fn stats(&self) -> (u64, u64) {
        self.0.stats()
    }

    pub fn mem(&self) -> MemCounts {
        MemCounts::of(&self.0.mem_metrics())
    }
}

/// Per-worker transfer log on the product's `HistoryRecorder` (one
/// `Vec::push` per transfer on the hot path).
#[derive(Default)]
pub struct TransferLog(HistoryRecorder);

impl TransferLog {
    #[inline]
    pub fn record(&mut self, from: u64, to: u64, amount: u64, applied: bool) {
        self.0.record(
            EventKind::Transfer {
                from,
                to,
                amount,
                applied,
            },
            None,
        );
    }
}

/// Everything the `ShardedBankChecker` needs of the recorded transfers,
/// kept in bounded memory: applied amounts summed per `(from, to)` pair.
/// Transfers commute and the checker replays per-account sums, so the
/// folded history gives it exactly the deltas the full one would.
#[derive(Default)]
pub struct BankAudit {
    applied: HashMap<(u64, u64), u64>,
    pub transfers: u64,
    pub applied_count: u64,
}

impl BankAudit {
    fn absorb(&mut self, recorders: Vec<HistoryRecorder>) {
        for event in History::from_recorders(recorders).events() {
            if let EventKind::Transfer {
                from,
                to,
                amount,
                applied,
            } = event.kind
            {
                self.transfers += 1;
                if applied {
                    self.applied_count += 1;
                    *self.applied.entry((from, to)).or_default() += amount;
                }
            }
        }
    }

    pub fn absorb_log(&mut self, log: TransferLog) {
        self.absorb(vec![log.0]);
    }

    pub fn merge(&mut self, other: BankAudit) {
        self.transfers += other.transfers;
        self.applied_count += other.applied_count;
        for (pair, amount) in other.applied {
            *self.applied.entry(pair).or_default() += amount;
        }
    }

    pub fn absorb_report(&mut self, report: &mut OpenReport) {
        self.absorb(std::mem::take(&mut report.histories));
    }

    /// Runs the product's `ShardedBankChecker` over the quiesced service.
    pub fn check(&self, service: &Service) -> Result<(), String> {
        let mut pairs: Vec<_> = self.applied.iter().collect();
        pairs.sort_unstable();
        let events = pairs
            .into_iter()
            .map(|(&(from, to), &amount)| EventKind::Transfer {
                from,
                to,
                amount,
                applied: true,
            })
            .collect();
        ShardedBankChecker::for_service(&service.svc)
            .check(&History::from_kinds(vec![events]))
            .map_err(|v| v.detail)
    }
}

// ------------------------------------------------------------------- TM

/// A registered `rhtm_workloads` scenario at paper scale.
#[derive(Clone, Copy)]
pub struct TmCase {
    scenario: &'static Scenario,
    size: u64,
}

/// How long a driven run lasts.
#[derive(Clone, Copy)]
pub enum Budget {
    Timed(f64),
    OpsPerThread(u64),
}

/// One `Scenario::run_spec` call.
pub struct TmRun {
    pub ops: u64,
    pub elapsed_s: f64,
    pub counts: Counts,
    /// Figure-2 breakdown, total nanoseconds: read, write, commit,
    /// private, inter-transaction.
    pub breakdown_ns: Option<[u64; 5]>,
    pub workload_name: String,
}

impl TmRun {
    fn of(r: BenchResult) -> TmRun {
        TmRun {
            ops: r.total_ops,
            elapsed_s: r.elapsed.as_secs_f64(),
            counts: Counts::of(&r.stats),
            breakdown_ns: r.breakdown.map(|b| {
                [
                    b.read_ns,
                    b.write_ns,
                    b.commit_ns,
                    b.private_ns,
                    b.intertx_ns,
                ]
            }),
            workload_name: r.workload,
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed_s
    }
}

/// One thread of a scenario driven by the benchmark's own loop: each
/// `run_next` draws an operation and a key with the driver's samplers and
/// calls the structure's `Workload::run_op` once.
pub trait TmWorker {
    fn run_next(&mut self);
    fn counts(&self) -> Counts;
    /// The structure's public quiescent invariant.
    fn quiescent_ok(&mut self) -> bool;
}

// `Scenario::run_spec` keeps these two to itself (scenario.rs); the
// benchmark-driven bank must be the same bank.
const BANK_AUDIT_CAP: u64 = 128;
const BANK_INITIAL_BALANCE: u64 = 1_000;

/// What `TmCase::dispatch` hands the structure to.
trait StructureUser {
    type Out;
    fn with<W: Workload>(
        self,
        spec: TmSpec,
        build: impl FnOnce(&Arc<HtmSim>) -> W,
        quiescent_ok: fn(&W, &mut dyn DynThread) -> bool,
    ) -> Self::Out;
}

impl TmCase {
    pub fn find(name: &str) -> TmCase {
        let scenario = Scenario::find(name).unwrap_or_else(|| panic!("no scenario {name:?}"));
        TmCase {
            scenario,
            size: scenario.sized(1),
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "{} ({} elements, {})",
            self.scenario.name,
            self.size,
            self.scenario.mix.label()
        )
    }

    fn opts(&self, threads: usize, budget: Budget, seed: u64) -> DriverOpts {
        match budget {
            Budget::Timed(s) => {
                DriverOpts::timed_mix(threads, OpMix::read_update(0), Duration::from_secs_f64(s))
            }
            Budget::OpsPerThread(n) => DriverOpts::counted_mix(threads, OpMix::read_update(0), n),
        }
        .with_seed(seed)
    }

    /// `Scenario::run_spec`: builds the structure and drives it closed
    /// loop on `threads` threads.
    pub fn run(&self, spec: &Spec, threads: usize, budget: Budget, seed: u64) -> TmRun {
        TmRun::of(
            self.scenario
                .run_spec(&spec.0, self.size, &self.opts(threads, budget, seed)),
        )
    }

    /// `run` with `DriverOpts::with_breakdown` (the paper's Figure 2
    /// categories; per-access clocks on, so never an end-to-end number).
    pub fn run_breakdown(&self, spec: &Spec, seconds: f64, seed: u64) -> TmRun {
        let opts = self.opts(1, Budget::Timed(seconds), seed).with_breakdown();
        TmRun::of(self.scenario.run_spec(&spec.0, self.size, &opts))
    }

    /// The same structure, sized the way `Scenario::run_spec` sizes it,
    /// for the code paths that need it as a value (`TmSpec::bench` with a
    /// wrapper, `TmSpec::visit_on` with the benchmark's own loop).
    fn dispatch<U: StructureUser>(&self, spec: &Spec, threads: usize, user: U) -> U::Out {
        let size = self.size;
        let sized = |words: usize| {
            spec.0.clone().mem(MemConfig {
                clock_scheme: spec.0.clock_scheme(),
                ..MemConfig::with_data_words(words + 4096)
            })
        };
        match self.scenario.structure {
            StructureKind::RbTree => user.with(
                sized(ConstantRbTree::required_words(size)),
                |sim| ConstantRbTree::new(Arc::clone(sim), size),
                |tree, _| tree.count_reachable() == tree.size(),
            ),
            StructureKind::Bank => user.with(
                sized(TxBank::required_words(size, BANK_AUDIT_CAP, threads)),
                |sim| TxBank::new(Arc::clone(sim), size, BANK_INITIAL_BALANCE, BANK_AUDIT_CAP),
                |bank, th| {
                    th.run(|tx| bank.scan_total_in(tx)) == bank.expected_total()
                        && bank.audit().is_well_formed_quiescent()
                },
            ),
            other => panic!("the benchmark drives no {} scenario", other.label()),
        }
    }

    /// `run(Timed)` with `spin_ns` of busy-wait added after every
    /// operation, inside a benchmark-owned wrapper around the structure
    /// (`TmSpec::bench`, the path `run_spec` itself takes).  Only the
    /// self-test uses it.
    pub fn run_handicapped(
        &self,
        spec: &Spec,
        threads: usize,
        seconds: f64,
        seed: u64,
        spin_ns: u64,
    ) -> TmRun {
        struct Bench {
            opts: DriverOpts,
            spin_ns: u64,
        }
        impl StructureUser for Bench {
            type Out = BenchResult;
            fn with<W: Workload>(
                self,
                spec: TmSpec,
                build: impl FnOnce(&Arc<HtmSim>) -> W,
                _: fn(&W, &mut dyn DynThread) -> bool,
            ) -> BenchResult {
                let spin_ns = self.spin_ns;
                spec.bench(
                    |sim| Handicapped {
                        inner: build(sim),
                        spin_ns,
                    },
                    &self.opts,
                )
            }
        }
        let opts = DriverOpts {
            mix: self.scenario.mix,
            dist: self.scenario.dist,
            ..self.opts(threads, Budget::Timed(seconds), seed)
        };
        TmRun::of(self.dispatch(spec, threads, Bench { opts, spin_ns }))
    }

    /// Builds the structure and one registered thread of the concrete
    /// runtime (`TmSpec::visit_on`) and lends them to `f` as a `TmWorker`.
    pub fn with_worker<T>(
        &self,
        spec: &Spec,
        seed: u64,
        f: impl FnOnce(&mut dyn TmWorker) -> T,
    ) -> T {
        struct Visit<'a, W: Workload, F> {
            workload: &'a W,
            quiescent_ok: fn(&W, &mut dyn DynThread) -> bool,
            mix: OpMix,
            sampler: KeySampler,
            seed: u64,
            f: F,
        }
        struct Runner<'a, W: Workload, Th: TmThread> {
            workload: &'a W,
            quiescent_ok: fn(&W, &mut dyn DynThread) -> bool,
            thread: Th,
            rng: WorkloadRng,
            mix: OpMix,
            sampler: KeySampler,
        }
        impl<W: Workload, Th: TmThread> TmWorker for Runner<'_, W, Th> {
            #[inline]
            fn run_next(&mut self) {
                let op: OpKind = self.mix.draw(&mut self.rng);
                let key = self.sampler.sample(&mut self.rng);
                self.workload
                    .run_op(&mut self.thread, &mut self.rng, op, key);
            }
            fn counts(&self) -> Counts {
                Counts::of(TmThread::stats(&self.thread))
            }
            fn quiescent_ok(&mut self) -> bool {
                (self.quiescent_ok)(self.workload, &mut self.thread)
            }
        }
        impl<W: Workload, T, F: FnOnce(&mut dyn TmWorker) -> T> AlgoVisitor for Visit<'_, W, F> {
            type Out = T;
            fn visit<R: TmRuntime>(self, runtime: R) -> T {
                let mut runner = Runner {
                    workload: self.workload,
                    quiescent_ok: self.quiescent_ok,
                    thread: runtime.register_thread(),
                    // The driver's own per-thread stream derivation.
                    rng: WorkloadRng::new(self.seed ^ 0x9E37_79B9),
                    mix: self.mix,
                    sampler: self.sampler,
                };
                (self.f)(&mut runner)
            }
        }
        struct Own<F> {
            case: TmCase,
            seed: u64,
            f: F,
        }
        impl<T, F: FnOnce(&mut dyn TmWorker) -> T> StructureUser for Own<F> {
            type Out = T;
            fn with<W: Workload>(
                self,
                spec: TmSpec,
                build: impl FnOnce(&Arc<HtmSim>) -> W,
                quiescent_ok: fn(&W, &mut dyn DynThread) -> bool,
            ) -> T {
                let sim = spec.build_sim();
                let workload = build(&sim);
                let scenario = self.case.scenario;
                spec.visit_on(
                    sim,
                    Visit {
                        workload: &workload,
                        quiescent_ok,
                        mix: scenario.mix,
                        sampler: scenario.dist.sampler(workload.key_space(), 0, 1),
                        seed: self.seed,
                        f: self.f,
                    },
                )
            }
        }
        self.dispatch(
            spec,
            1,
            Own {
                case: *self,
                seed,
                f,
            },
        )
    }
}

/// A structure whose every operation is followed by a busy-wait.
struct Handicapped<W> {
    inner: W,
    spin_ns: u64,
}

impl<W: Workload> Workload for Handicapped<W> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn key_space(&self) -> u64 {
        self.inner.key_space()
    }

    fn run_op<T: TmThread>(&self, thread: &mut T, rng: &mut WorkloadRng, op: OpKind, key: u64) {
        self.inner.run_op(thread, rng, op, key);
        crate::clock::spin_ns(self.spin_ns);
    }
}

// ------------------------------------------------ the replica put/delete

/// One shard assembled from the public pieces `KvService` is made of
/// (`TmSpec::build`, `TxSkipList::{new, seeder}`), so that the traced run
/// can put a span around each step of a put and a delete.
pub struct ReplicaShard {
    instance: TmInstance,
    map: TxSkipList,
}

/// A spare node, as `alloc_spare` hands it out.
pub type Node = TxPtr<SkipNode>;

impl ReplicaShard {
    /// A shard holding local keys `1..=keys`, each seeded with `value`.
    pub fn new(spec: &Spec, keys: u64, value: u64) -> ReplicaShard {
        let words = TxSkipList::required_words(keys, 2) + 4096;
        let instance = spec
            .0
            .clone()
            .mem(MemConfig {
                clock_scheme: spec.0.clock_scheme(),
                ..MemConfig::with_data_words(words)
            })
            .build();
        let map = TxSkipList::new(Arc::clone(instance.sim()), keys);
        {
            let mut seeder = map.seeder();
            for key in 1..=keys {
                seeder
                    .insert(key, value)
                    .expect("replica shard sized for its keys");
            }
        }
        ReplicaShard { instance, map }
    }

    pub fn thread(&self) -> ReplicaThread<'_> {
        ReplicaThread {
            shard: self,
            th: self.instance.register(),
        }
    }
}

/// One registered thread on a `ReplicaShard`; its methods are the steps
/// of `KvWorker::{get, put, delete}`, one product call each.
pub struct ReplicaThread<'a> {
    shard: &'a ReplicaShard,
    th: Box<dyn DynThread>,
}

impl<'a> ReplicaThread<'a> {
    #[inline]
    pub fn alloc_spare(&mut self) -> Node {
        let tid = self.th.thread_id();
        self.shard
            .map
            .alloc_spare(tid, &mut self.th.stats_mut().mem)
    }

    #[inline]
    pub fn pin(&self) -> EpochGuard<'a> {
        self.shard.map.pin(self.th.thread_id())
    }

    /// The insert transaction; `true` when the spare was linked in.
    #[inline]
    pub fn run_insert(&mut self, key: u64, value: u64, spare: Node) -> bool {
        let map = &self.shard.map;
        self.th.run(|tx| map.insert_in(tx, key, value, Some(spare))) == InsertOutcome::Inserted
    }

    #[inline]
    pub fn give_back_spare(&mut self, spare: Node) {
        self.shard.map.give_back_spare(self.th.thread_id(), spare);
    }

    /// The remove transaction: the removed value and its unlinked node.
    #[inline]
    pub fn run_remove(&mut self, key: u64) -> Option<(u64, Node)> {
        let map = &self.shard.map;
        self.th.run(|tx| map.remove_in(tx, key))
    }

    #[inline]
    pub fn retire(&mut self, node: Node) {
        let tid = self.th.thread_id();
        self.shard
            .map
            .retire_node(tid, node, &mut self.th.stats_mut().mem);
    }

    #[inline]
    pub fn run_get(&mut self, key: u64) -> Option<u64> {
        let map = &self.shard.map;
        self.th.run(|tx| map.get_in(tx, key))
    }

    pub fn counts(&self) -> Counts {
        Counts::of(self.th.stats())
    }
}

// ------------------------------------------------------- layer kernels

/// A batch kernel: performs the layer's call `n` times and returns a
/// value that depends on every call (so none can be optimised away).
pub type Kernel = Box<dyn FnMut(usize) -> u64>;

/// Pseudo-random indices below `bound` (the product's own xorshift).
fn indices(count: usize, bound: u64, seed: u64) -> Vec<usize> {
    let mut rng = WorkloadRng::new(seed);
    (0..count).map(|_| rng.next_below(bound) as usize).collect()
}

const KERNEL_INDICES: usize = 1 << 16;

/// `TxHeap::load` at random addresses over 1 MiB of a flat heap, or of a
/// heap large enough (> `FLAT_MAX_WORDS`) to be segmented.
pub fn kernel_heap_load(segmented: bool) -> Kernel {
    const SPAN_WORDS: usize = 1 << 17; // 1 MiB
    let heap = TxHeap::new(if segmented {
        FLAT_MAX_WORDS + SEGMENT_WORDS
    } else {
        SPAN_WORDS
    });
    for i in 0..SPAN_WORDS {
        heap.store(Addr(i), i as u64);
    }
    let idx = indices(KERNEL_INDICES, SPAN_WORDS as u64, 11);
    Box::new(move |n| {
        let mut sum = 0u64;
        for i in 0..n {
            sum = sum.wrapping_add(heap.load(Addr(idx[i & (KERNEL_INDICES - 1)])));
        }
        sum
    })
}

/// First store into each of `n` untouched 2 MiB segments of a segmented
/// heap (each call materialises — allocates and zero-fills — a segment).
/// At most `FIRST_TOUCH_SEGMENTS` calls in total.
pub const FIRST_TOUCH_SEGMENTS: usize = 12;
pub fn kernel_heap_first_touch() -> Kernel {
    let heap = TxHeap::new(FLAT_MAX_WORDS + SEGMENT_WORDS * FIRST_TOUCH_SEGMENTS);
    let mut next = 0usize;
    Box::new(move |n| {
        for _ in 0..n {
            assert!(next < heap.segment_count(), "no untouched segment left");
            heap.store(Addr(next * SEGMENT_WORDS), 1);
            next += 1;
        }
        heap.resident_segments() as u64
    })
}

/// `GlobalClock::next_commit` under the reference clock scheme.
pub fn kernel_clock_next_commit() -> Kernel {
    let mem = TmMemory::new(MemConfig::with_data_words(1024));
    Box::new(move |n| {
        let mut last = 0;
        for i in 0..n {
            last = mem.clock().next_commit(mem.heap(), i as u64);
        }
        last
    })
}

/// `TmMemory::arena_try_alloc(0, 8)`, block refills included.
pub fn kernel_arena_alloc() -> Kernel {
    // Allocation never touches the words, so nothing is materialised:
    // only the cursors move.  An exhausted memory is swapped for a fresh
    // one (once per 8M calls).
    let fresh = || TmMemory::new(MemConfig::with_data_words(1 << 26));
    let mut mem = fresh();
    Box::new(move |n| {
        let mut last = 0;
        for _ in 0..n {
            last = match mem.arena_try_alloc(0, 8) {
                Ok(addr) => addr.0,
                Err(_) => {
                    mem = fresh();
                    0
                }
            };
        }
        last as u64
    })
}

/// `EpochSet::pin` + `unpin` on one thread slot.
pub fn kernel_epoch_pin_unpin() -> Kernel {
    let mem = TmMemory::new(MemConfig::with_data_words(1024));
    Box::new(move |n| {
        let mut e = 0;
        for _ in 0..n {
            e = mem.epochs().pin(0);
            mem.epochs().unpin(0);
        }
        e
    })
}

/// `EpochSet::try_advance` with one (unpinned) thread known to the set.
pub fn kernel_epoch_try_advance() -> Kernel {
    let mem = TmMemory::new(MemConfig::with_data_words(1024));
    mem.epochs().pin(0);
    mem.epochs().unpin(0);
    Box::new(move |n| {
        let mut advanced = 0;
        for _ in 0..n {
            advanced += mem.epochs().try_advance() as u64;
        }
        advanced
    })
}

/// One `DynThread::run` of 8 reads (plus `writes` writes) over
/// pre-allocated words on separate cache lines: the path's begin,
/// per-access instrumentation and commit.
pub fn kernel_txn(spec: &Spec, writes: usize) -> Kernel {
    let instance = spec.0.clone().mem(MemConfig::with_data_words(4096)).build();
    let cells: Vec<Addr> = (0..8)
        .map(|_| instance.mem().alloc_line_aligned(8))
        .collect();
    let mut th = instance.register();
    Box::new(move |n| {
        let _keep = &instance;
        let mut sum = 0u64;
        for _ in 0..n {
            sum = sum.wrapping_add(th.run(|tx| {
                let mut acc = 0u64;
                for &c in &cells {
                    acc = acc.wrapping_add(tx.read(c)?);
                }
                for &c in &cells[..writes] {
                    tx.write(c, acc)?;
                }
                Ok(acc)
            }));
        }
        sum
    })
}

/// An empty transaction through `Box<dyn DynThread>`.
pub fn kernel_dyn_run(spec: &Spec) -> Kernel {
    let instance = spec.0.clone().mem(MemConfig::with_data_words(1024)).build();
    let mut th = instance.register();
    Box::new(move |n| {
        let _keep = &instance;
        for _ in 0..n {
            th.run(|_| Ok(()));
        }
        th.stats().commits()
    })
}

/// An empty transaction on the concrete thread type (`TmSpec::visit`).
pub fn kernel_mono_run(spec: &Spec) -> Kernel {
    struct Mono;
    impl AlgoVisitor for Mono {
        type Out = Kernel;
        fn visit<R: TmRuntime>(self, runtime: R) -> Kernel {
            let mut th = runtime.register_thread();
            Box::new(move |n| {
                let _keep = &runtime;
                for _ in 0..n {
                    th.execute(|_| Ok(()));
                }
                TmThread::stats(&th).commits()
            })
        }
    }
    spec.0
        .clone()
        .mem(MemConfig::with_data_words(1024))
        .visit(Mono)
}

/// The steady-state `NodePool` cycle on one thread: `alloc_spare` then
/// `retire_node`, so allocation is served by epoch-aged retirees.
pub fn kernel_pool_alloc_retire(spec: &Spec) -> Kernel {
    let shard = ReplicaShard::new(spec, 64, 0);
    Box::new(move |n| {
        let mut th = shard.thread();
        for _ in 0..n {
            let node = th.alloc_spare();
            th.retire(node);
        }
        th.th.stats().mem.reclaimed
    })
}

/// `LatencyHistogram::record` over values spread across the buckets.
pub fn kernel_latency_record() -> Kernel {
    let values: Vec<u64> = indices(KERNEL_INDICES, 1 << 22, 13)
        .into_iter()
        .map(|v| v as u64)
        .collect();
    let mut hist = LatencyHistogram::new();
    Box::new(move |n| {
        for i in 0..n {
            hist.record(values[i & (KERNEL_INDICES - 1)]);
        }
        hist.count()
    })
}

/// The uninstrumented oracle (`global-lock`): what the structure's own
/// traversal costs, the rest of a KV op being runtime and service.
fn oracle() -> Spec {
    Spec::parse("global-lock")
}

/// `TxSkipList::get_in` of random present keys in a `keys`-key list.
pub fn kernel_skiplist_get(keys: u64) -> Kernel {
    let shard = ReplicaShard::new(&oracle(), keys, 7);
    let idx = indices(KERNEL_INDICES, keys, 17);
    Box::new(move |n| {
        let mut th = shard.thread();
        let mut sum = 0u64;
        for i in 0..n {
            let key = 1 + idx[i & (KERNEL_INDICES - 1)] as u64;
            sum = sum.wrapping_add(th.run_get(key).unwrap_or(0));
        }
        sum
    })
}

/// Delete then re-insert of random keys (the full pool life cycle of
/// each), counted as two operations per key.
pub fn kernel_skiplist_put_delete(keys: u64) -> Kernel {
    let shard = ReplicaShard::new(&oracle(), keys, 7);
    let idx = indices(KERNEL_INDICES, keys, 19);
    Box::new(move |n| {
        let mut th = shard.thread();
        let mut removed = 0u64;
        for i in 0..n / 2 {
            let key = 1 + idx[i & (KERNEL_INDICES - 1)] as u64;
            let victim = {
                let _pin = th.pin();
                th.run_remove(key)
            };
            if let Some((_, node)) = victim {
                th.retire(node);
                removed += 1;
            }
            let spare = th.alloc_spare();
            let linked = {
                let _pin = th.pin();
                th.run_insert(key, 7, spare)
            };
            if !linked {
                th.give_back_spare(spare);
            }
        }
        removed
    })
}

/// `ConstantRbTree::lookup` of random keys in the paper's 100 K-node tree.
pub fn kernel_rbtree_lookup() -> Kernel {
    const SIZE: u64 = 100_000;
    let instance = oracle()
        .0
        .mem(MemConfig::with_data_words(
            ConstantRbTree::required_words(SIZE) + 4096,
        ))
        .build();
    let tree = ConstantRbTree::new(Arc::clone(instance.sim()), SIZE);
    let mut th = instance.register();
    let idx = indices(KERNEL_INDICES, SIZE, 23);
    Box::new(move |n| {
        let _keep = &instance;
        let mut found = 0u64;
        for i in 0..n {
            let key = idx[i & (KERNEL_INDICES - 1)] as u64;
            found += th.run(|tx| Ok(tree.lookup(tx, key)?.is_some())) as u64;
        }
        found
    })
}

/// The driver's per-operation draw: `OpMix::draw` + `KeySampler::sample`.
pub fn kernel_driver_draw(case: &TmCase) -> Kernel {
    let mix = case.scenario.mix;
    let mut sampler = case.scenario.dist.sampler(case.size, 0, 1);
    let mut rng = WorkloadRng::new(29);
    Box::new(move |n| {
        let mut sum = 0u64;
        for _ in 0..n {
            sum = sum.wrapping_add(mix.draw(&mut rng) as u64 + sampler.sample(&mut rng));
        }
        sum
    })
}

/// `TmSpec::build` with the default memory shape, `n` times.
pub fn kernel_spec_build(spec: &Spec) -> Kernel {
    let spec = spec.clone();
    Box::new(move |n| {
        let mut words = 0u64;
        for _ in 0..n {
            words += spec.0.build().mem().heap().len() as u64;
        }
        words
    })
}

/// `KvService::route`.
pub fn kernel_kv_route(service: &Service) -> impl FnMut(usize) -> u64 + '_ {
    let keys = service.key_space();
    move |n| {
        let mut sum = 0u64;
        let mut key = 1u64;
        for _ in 0..n {
            key = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) % keys;
            let (shard, local) = service.route(key);
            sum = sum.wrapping_add(shard as u64 + local);
        }
        sum
    }
}

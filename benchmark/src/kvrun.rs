//! The untraced run of a KV workload: set-up, closed loops on
//! `KvWorker`, open-loop windows and the knee ladder on
//! `rhtm_kv::run_open_loop`, then the output checks.

use std::sync::Barrier;
use std::time::Instant;

use crate::clock::{derive_seed, peak_rss_mib, spin_ns};
use crate::defs::{
    Injection, KvDef, Metric, Outcome, Verdict, ROUNDS, SHARE_CLOSED_1T, SHARE_CLOSED_2T,
};
use crate::json::Json;
use crate::model::{fold, fold_opt, Model};
use crate::openloop::{OpenSections, Window};
use crate::stats::{median, spread};
use crate::surface::{
    BankAudit, KvCase, KvOp, MemCounts, PlannedOp, Service, Spec, TransferLog, Worker,
};

// Stream ids for `derive_seed`: one per section.
const SEED_WARM: u64 = 1;
const SEED_CLOSED_1T: u64 = 2;
const SEED_CLOSED_2T: u64 = 3;
pub const SEED_TRACE: u64 = 6;
/// Added to a closed section's stream id once per round.
const ROUND_STRIDE: u64 = 16;

/// What a run of requests returned, folded: a checksum of every returned
/// value in order, and the keys that appeared and disappeared.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Tally {
    pub fold: u64,
    pub inserted: u64,
    pub removed: u64,
}

/// Runs one request on the worker and tallies what it returned.
#[inline(always)]
pub fn exec(worker: &mut Worker<'_>, op: &KvOp, log: &mut TransferLog, tally: &mut Tally) {
    match *op {
        KvOp::Get { key } => tally.fold = fold_opt(tally.fold, worker.get(key)),
        KvOp::Put { key, value } => {
            let inserted = worker.put(key, value);
            tally.inserted += inserted as u64;
            tally.fold = fold(tally.fold, inserted as u64);
        }
        KvOp::Delete { key } => {
            let removed = worker.delete(key);
            tally.removed += removed.is_some() as u64;
            tally.fold = fold_opt(tally.fold, removed);
        }
        KvOp::Transfer { from, to, amount } => {
            let applied = worker.transfer(from, to, amount);
            log.record(from, to, amount, applied);
            tally.fold = fold(tally.fold, applied as u64);
        }
        KvOp::MultiGet { a, b } => {
            tally.fold = worker
                .multi_get(&[a, b])
                .into_iter()
                .fold(tally.fold, fold_opt);
        }
    }
}

/// One closed-loop chunk as run: enough to regenerate and replay it.
pub struct ChunkLog {
    section: u64,
    index: u64,
    ops: u64,
    tally: Tally,
}

/// The chunk's requests: a pure function of `(seed, section, index,
/// worker)`.  Arrival times are ignored — a closed loop sends the next
/// request when the previous one returns.
fn chunk_plan(
    service: &Service,
    def: &KvDef,
    seed: u64,
    section: u64,
    index: u64,
    worker: usize,
) -> Vec<PlannedOp> {
    service.plan(
        def.chunk_ops as f64,
        1.0,
        derive_seed(seed, section, index),
        worker,
        1,
    )
}

/// What one worker's closed loop produced.
pub struct ClosedWorker {
    pub chunks: Vec<ChunkLog>,
    /// Operations per second of each chunk.
    pub rates: Vec<f64>,
    pub audit: BankAudit,
    pub commits: u64,
    pub aborts: u64,
    pub mem: MemCounts,
}

impl ClosedWorker {
    pub fn ops(&self) -> u64 {
        self.chunks.iter().map(|c| c.ops).sum()
    }
}

/// How a closed loop ends.
#[derive(Clone, Copy)]
pub enum Until {
    /// After this much time inside chunks.
    BusySeconds(f64),
    /// After this many operations.
    Ops(u64),
}

/// Where and how one closed loop runs.
#[derive(Clone, Copy)]
pub struct ClosedLoop<'a> {
    pub service: &'a Service,
    pub def: &'a KvDef,
    pub seed: u64,
    pub section: u64,
    pub until: Until,
    /// Busy-wait after every request (self-test only).
    pub handicap_ns: u64,
}

impl ClosedLoop<'_> {
    /// One worker's closed loop: chunk after chunk of planned requests,
    /// one clock pair per chunk (none per request).  Plans are generated,
    /// and transfer logs folded, between chunks and off the clock.
    fn worker(&self, worker_id: usize, start: &Barrier) -> ClosedWorker {
        let mut worker = self.service.worker();
        let mut out = ClosedWorker {
            chunks: Vec::new(),
            rates: Vec::new(),
            audit: BankAudit::default(),
            commits: 0,
            aborts: 0,
            mem: MemCounts::default(),
        };
        let (mut busy, mut ops) = (0.0f64, 0u64);
        start.wait();
        loop {
            match self.until {
                Until::BusySeconds(s) if busy >= s => break,
                Until::Ops(n) if ops >= n => break,
                _ => {}
            }
            let index = out.chunks.len() as u64;
            let plan = chunk_plan(
                self.service,
                self.def,
                self.seed,
                self.section,
                index,
                worker_id,
            );
            let mut log = TransferLog::default();
            let mut tally = Tally::default();
            let t = Instant::now();
            if self.handicap_ns == 0 {
                for p in &plan {
                    exec(&mut worker, &p.op, &mut log, &mut tally);
                }
            } else {
                for p in &plan {
                    exec(&mut worker, &p.op, &mut log, &mut tally);
                    spin_ns(self.handicap_ns);
                }
            }
            let dt = t.elapsed().as_secs_f64();
            busy += dt;
            ops += plan.len() as u64;
            out.rates.push(plan.len() as f64 / dt);
            out.chunks.push(ChunkLog {
                section: self.section,
                index,
                ops: plan.len() as u64,
                tally,
            });
            out.audit.absorb_log(log);
        }
        (out.commits, out.aborts) = worker.stats();
        out.mem = worker.mem();
        out
    }

    /// The loop on `workers` workers started together.
    pub fn run(&self, workers: usize) -> Vec<ClosedWorker> {
        on_workers(workers, |id, start| self.worker(id, start))
    }
}

/// Runs `f(worker id, start barrier)` once per worker — here when there
/// is one, on scoped threads otherwise — and returns the results in
/// worker order.
pub fn on_workers<T: Send>(workers: usize, f: impl Fn(usize, &Barrier) -> T + Sync) -> Vec<T> {
    let start = Barrier::new(workers);
    if workers == 1 {
        return vec![f(0, &start)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|id| {
                let (f, start) = (&f, &start);
                scope.spawn(move || f(id, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a worker thread panicked"))
            .collect()
    })
}

/// A service built and warmed: everything before the first timed
/// section, and how long it took.
pub struct SetUp {
    pub service: Service,
    /// Build + prefill + warm-up.
    pub seconds: f64,
    /// `KvScenario::service` alone (build + prefill).
    pub build_seconds: f64,
    pub warm: ClosedWorker,
}

pub fn set_up(case: &KvCase, def: &KvDef, spec: &Spec, seed: u64) -> SetUp {
    let t = Instant::now();
    let service = case.build(spec, 2);
    let build_seconds = t.elapsed().as_secs_f64();
    let warm = ClosedLoop {
        service: &service,
        def,
        seed,
        section: SEED_WARM,
        until: Until::Ops(def.warm_ops),
        handicap_ns: 0,
    }
    .run(1)
    .remove(0);
    SetUp {
        seconds: t.elapsed().as_secs_f64(),
        build_seconds,
        service,
        warm,
    }
}

/// A request sequence the model can replay: closed-loop chunks and
/// open-loop windows, all served by one worker.
enum Replay {
    Chunk(ChunkLog),
    Window { rate: f64, seconds: f64, seed: u64 },
}

/// Replays `replay` on the model and compares every chunk's tally.
fn check_replay(
    service: &Service,
    def: &KvDef,
    seed: u64,
    model: &mut Model,
    replay: &[Replay],
    verdict: &mut Verdict,
) {
    for item in replay {
        match item {
            Replay::Chunk(chunk) => {
                let plan = chunk_plan(service, def, seed, chunk.section, chunk.index, 0);
                let before = model.len();
                let acc = plan.iter().fold(0, |acc, p| model.apply(acc, &p.op));
                let (inserted, removed) = (chunk.tally.inserted, chunk.tally.removed);
                if acc != chunk.tally.fold || before + inserted != model.len() + removed {
                    verdict.fail(
                        chunk.ops,
                        format!(
                            "section {} chunk {}: returned values differ from the model's",
                            chunk.section, chunk.index
                        ),
                    );
                }
            }
            Replay::Window {
                rate,
                seconds,
                seed,
            } => {
                for p in service.plan(*rate, *seconds, *seed, 0, 1) {
                    model.apply(0, &p.op);
                }
            }
        }
    }
}

pub fn run(def: &KvDef, seed: u64, seconds: f64, inject: Injection) -> Outcome {
    let case = KvCase::find(def.scenario);
    let spec = Spec::reference();
    let mut verdict = Verdict::default();

    // Set-up, several times over.  The last two services are measured:
    // `solo` serves every 1-worker section, so its requests are one
    // deterministic sequence the model can replay; `duo` serves the
    // 2-worker sections, whose interleaving is the scheduler's.
    let mut setups = Vec::new();
    let mut built: Vec<(Service, ClosedWorker)> = Vec::new();
    while setups.len() < 3 || (setups.len() < 5 && setups[0] < 1.0) {
        if built.len() == 2 {
            built.remove(0);
        }
        let SetUp {
            service,
            seconds,
            warm,
            ..
        } = set_up(&case, def, &spec, seed);
        setups.push(seconds);
        built.push((service, warm));
    }
    let (duo, duo_warm) = built.remove(0);
    let (solo, solo_warm) = built.remove(0);
    let warm_tallies = |w: &ClosedWorker| w.chunks.iter().map(|c| c.tally).collect::<Vec<_>>();
    if warm_tallies(&duo_warm) != warm_tallies(&solo_warm) {
        verdict.fail(
            duo_warm.ops(),
            "two set-ups from one seed returned different values".into(),
        );
    }
    verdict.attempted += solo_warm.ops() + duo_warm.ops();
    // Transfers are audited per service: each must conserve on its own.
    let (mut solo_audit, mut duo_audit) = (solo_warm.audit, duo_warm.audit);
    let mut replay: Vec<Replay> = solo_warm.chunks.into_iter().map(Replay::Chunk).collect();
    let warm_chunks = replay.len();

    let open_on_solo = def.open_workers == 1;
    let open_service = if open_on_solo { &solo } else { &duo };
    let mut open = OpenSections::new(&def.open, seconds);

    let mut solo_rates: Vec<f64> = Vec::new();
    let mut duo_rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let (mut solo_stats, mut duo_stats) = ((0u64, 0u64, 0u64), (0u64, 0u64, 0u64));
    let (mut duo_inserted, mut duo_removed) = (0u64, 0u64);
    for round in 0..ROUNDS {
        let closed = |service, section: u64, share: f64| ClosedLoop {
            service,
            def,
            seed,
            section: section + ROUND_STRIDE * round as u64,
            until: Until::BusySeconds(seconds * share / ROUNDS as f64),
            handicap_ns: inject.handicap_ns,
        };
        for mut w in closed(&solo, SEED_CLOSED_1T, SHARE_CLOSED_1T).run(1) {
            solo_stats = (
                solo_stats.0 + w.ops(),
                solo_stats.1 + w.commits,
                solo_stats.2 + w.aborts,
            );
            solo_rates.append(&mut w.rates);
            solo_audit.merge(w.audit);
            replay.extend(w.chunks.into_iter().map(Replay::Chunk));
        }
        for (id, mut w) in closed(&duo, SEED_CLOSED_2T, SHARE_CLOSED_2T)
            .run(2)
            .into_iter()
            .enumerate()
        {
            duo_stats = (
                duo_stats.0 + w.ops(),
                duo_stats.1 + w.commits,
                duo_stats.2 + w.aborts,
            );
            duo_rates[id].append(&mut w.rates);
            duo_audit.merge(w.audit);
            duo_inserted += w.chunks.iter().map(|c| c.tally.inserted).sum::<u64>();
            duo_removed += w.chunks.iter().map(|c| c.tally.removed).sum::<u64>();
        }
        // Open loop, on the product's generator.
        open.round(seed, round, |rate, secs, seed| {
            let mut report = open_service.open_loop(rate, secs, seed, def.open_workers);
            if open_on_solo {
                &mut solo_audit
            } else {
                &mut duo_audit
            }
            .absorb_report(&mut report);
            if open_on_solo {
                replay.push(Replay::Window {
                    rate,
                    seconds: secs,
                    seed,
                });
            }
            Window::new(
                rate,
                secs,
                report.generated,
                report.elapsed_s,
                &report.latency,
            )
        });
    }

    // Peak memory of the measured sections; the checks below are the
    // benchmark's own allocations.
    let peak_rss = peak_rss_mib();

    // --- output checks, off the clock ---
    verdict.attempted += solo_stats.0 + duo_stats.0;
    for w in open.all_windows() {
        verdict.attempted += w.generated;
        if w.missing() > 0 {
            verdict.fail(
                w.missing(),
                format!(
                    "open loop at {} req/s completed {} of {}",
                    w.offered, w.completed, w.generated
                ),
            );
        }
    }
    let mut model = Model::seeded(solo.key_space(), solo.initial_value());
    if inject.flip_model {
        model.flip_one_expected_value();
    }
    check_replay(
        &solo,
        def,
        seed,
        &mut model,
        &replay[..warm_chunks],
        &mut verdict,
    );
    let live_after_warm_up = model.len();
    check_replay(
        &solo,
        def,
        seed,
        &mut model,
        &replay[warm_chunks..],
        &mut verdict,
    );
    let differing = model.differing_keys(&solo.snapshot());
    if differing > 0 {
        verdict.fail(
            differing,
            format!("the 1-worker service's snapshot differs from the model on {differing} keys"),
        );
    }
    // The 2-worker service: keys are conserved (its open-loop sections,
    // if any, run the transfer mix, which neither inserts nor removes).
    let duo_live = duo.snapshot().len() as u64;
    if live_after_warm_up + duo_inserted != duo_live + duo_removed {
        verdict.fail(
            (live_after_warm_up + duo_inserted).abs_diff(duo_live + duo_removed),
            format!(
                "2-worker service: {live_after_warm_up} live keys + {duo_inserted} inserted \
                 - {duo_removed} removed != {duo_live} live keys"
            ),
        );
    }
    for (name, service, audit) in [
        ("1-worker", &solo, &solo_audit),
        ("2-worker", &duo, &duo_audit),
    ] {
        if audit.transfers == 0 {
            continue;
        }
        if let Err(detail) = audit.check(service) {
            verdict.fail(1, format!("{name} service, ShardedBankChecker: {detail}"));
        }
        let expected = u128::from(service.key_space()) * u128::from(service.initial_value());
        if service.total_balance() != expected {
            verdict.fail(
                1,
                format!(
                    "{name} service: total balance {} != {expected}",
                    service.total_balance()
                ),
            );
        }
    }

    let (ops_per_s, ops_spread) = (median(&solo_rates), spread(&solo_rates));
    let ops_per_s_2t = duo_rates.iter().map(|r| median(r)).sum();
    let ops_2t_spread = duo_rates.iter().map(|r| spread(r)).fold(0.0, f64::max);
    let (open_metrics, open_detail) = open.finish(&mut verdict);
    let mut metrics = vec![
        Metric::new("ops_per_s", "op/s", ops_per_s, ops_spread),
        Metric::new("ops_per_s_2t", "op/s", ops_per_s_2t, ops_2t_spread),
    ];
    metrics.extend(open_metrics);
    metrics.extend([
        Metric::new("setup_s", "s", median(&setups), spread(&setups)),
        Metric::new("peak_rss_mib", "MiB", peak_rss, 0.0),
    ]);
    let closed_json = |(ops, commits, aborts): (u64, u64, u64), rates: &[&Vec<f64>]| {
        Json::obj([
            ("ops", Json::Num(ops as f64)),
            ("commits", Json::Num(commits as f64)),
            ("aborts", Json::Num(aborts as f64)),
            (
                "chunks",
                Json::Num(rates.iter().map(|r| r.len()).sum::<usize>() as f64),
            ),
            (
                "worker_median_ops_per_s",
                Json::Arr(rates.iter().map(|r| Json::Num(median(r))).collect()),
            ),
            (
                "worker_chunk_spread",
                Json::Arr(rates.iter().map(|r| Json::Num(spread(r))).collect()),
            ),
            (
                "worker_chunk_ops_per_s",
                Json::Arr(rates.iter().map(|r| Json::nums(r)).collect()),
            ),
        ])
    };
    let mut detail = vec![
        ("scenario", Json::str(case.describe())),
        ("spec", Json::str(spec.label())),
        ("setups_s", Json::nums(&setups)),
        ("closed_1_worker", closed_json(solo_stats, &[&solo_rates])),
        (
            "closed_2_workers",
            closed_json(duo_stats, &[&duo_rates[0], &duo_rates[1]]),
        ),
        ("open_workers", Json::Num(def.open_workers as f64)),
        (
            "transfers_recorded",
            Json::Num((solo_audit.transfers + duo_audit.transfers) as f64),
        ),
        (
            "transfers_applied",
            Json::Num((solo_audit.applied_count + duo_audit.applied_count) as f64),
        ),
    ];
    detail.extend(open_detail);
    Outcome {
        metrics,
        verdict,
        detail: Json::obj(detail),
    }
}

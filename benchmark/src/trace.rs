//! The traced run: spans recorded from the benchmark's own code around
//! the calls into each crate's public functions, kept in memory and
//! written out at the end, plus the counters read at the same boundaries.
//!
//! No end-to-end number is ever taken from here: per-request clocks and
//! span pushes slow the loops they sit in (`bench.trace_overhead_share`
//! says by how much).

use std::time::Instant;

use crate::clock::{derive_seed, poisson_schedule};
use crate::defs::{KvDef, TmDef};
use crate::json::Json;
use crate::kvrun::{self, on_workers, ClosedLoop, SetUp, Tally, Until, SEED_TRACE};
use crate::layers::LayerValues;
use crate::openloop::serve;
use crate::stats::median;
use crate::surface::{
    Budget, Counts, KvCase, KvOp, MemCounts, PlannedOp, ReplicaShard, Service, Spec, TmCase,
    TransferLog, NODE_WORDS,
};

/// Span names, by id.
const NAMES: [&str; 17] = [
    "req",
    "wait",
    "kv.get",
    "kv.put",
    "kv.delete",
    "kv.transfer",
    "kv.multi_get",
    "tm.op",
    "replica.get",
    "replica.put",
    "replica.delete",
    "api.reclaim.alloc_spare",
    "api.reclaim.pin",
    "runtime.run",
    "api.reclaim.unpin",
    "api.reclaim.give_back",
    "api.reclaim.retire",
];
const REQ: u16 = 0;
const WAIT: u16 = 1;
const KV_GET: u16 = 2;
const KV_PUT: u16 = 3;
const KV_DELETE: u16 = 4;
const KV_TRANSFER: u16 = 5;
const KV_MULTI_GET: u16 = 6;
const TM_OP: u16 = 7;
const REPLICA_GET: u16 = 8;
const REPLICA_PUT: u16 = 9;
const REPLICA_DELETE: u16 = 10;
const ALLOC_SPARE: u16 = 11;
const PIN: u16 = 12;
const RUN: u16 = 13;
const UNPIN: u16 = 14;
const GIVE_BACK: u16 = 15;
const RETIRE: u16 = 16;

const NO_PARENT: u32 = u32::MAX;

/// One span: what ran, when (ns from the recorder's origin), the span
/// that caused it and the request it belongs to.
#[derive(Clone, Copy)]
pub struct Span {
    name: u16,
    parent: u32,
    request: u32,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// Spans of one thread, in memory until the run ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    #[inline]
    fn push(&mut self, name: u16, parent: u32, request: u32, start_ns: u64, end_ns: u64) -> u32 {
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Times `f` as a child span of `parent`.
    #[inline]
    fn child<T>(&mut self, name: u16, parent: u32, request: u32, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, parent, request, start, end);
        out
    }

    fn durations(&self, name: u16) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }
}

/// What recording one span costs, measured on an empty body.
#[derive(Clone, Copy)]
pub struct SpanCost {
    /// `bench.span_cost_ns`: two clock reads and a push.
    pub total_ns: f64,
    /// The part of it that lands outside the span itself — in its parent:
    /// the total less the duration an empty span reads.
    pub outside_ns: f64,
}

pub fn span_cost() -> SpanCost {
    const N: usize = 200_000;
    let batches: Vec<(f64, f64)> = (0..5)
        .map(|_| {
            let mut rec = Recorder::new();
            rec.spans.reserve(N);
            let t = Instant::now();
            for i in 0..N {
                rec.child(REQ, NO_PARENT, i as u32, || ());
            }
            let total = t.elapsed().as_nanos() as f64 / N as f64;
            (total, mean(&rec.durations(REQ)))
        })
        .collect();
    let total_ns = median(&batches.iter().map(|b| b.0).collect::<Vec<_>>());
    let inside_ns = median(&batches.iter().map(|b| b.1).collect::<Vec<_>>());
    SpanCost {
        total_ns,
        outside_ns: (total_ns - inside_ns).max(0.0),
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The value at quantile `q` of `values` (nearest rank); 0 when empty.
fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

fn op_span(op: &KvOp) -> u16 {
    match op {
        KvOp::Get { .. } => KV_GET,
        KvOp::Put { .. } => KV_PUT,
        KvOp::Delete { .. } => KV_DELETE,
        KvOp::Transfer { .. } => KV_TRANSFER,
        KvOp::MultiGet { .. } => KV_MULTI_GET,
    }
}

/// The benchmark's own copy of the open loop over `plan_worker`'s plan,
/// one recorder per worker: a `req` span from the scheduled arrival to
/// completion, with children `wait` (arrival to service start) and
/// `kv.<op>` around the `KvWorker` call.
fn traced_open_loop(
    service: &Service,
    workers: usize,
    rate: f64,
    seconds: f64,
    seed: u64,
) -> Vec<Recorder> {
    on_workers(workers, |worker_id, _| {
        let plan = service.plan(rate, seconds, seed, worker_id, workers);
        let schedule: Vec<u64> = plan.iter().map(|p| p.at_ns).collect();
        let mut worker = service.worker();
        let mut rec = Recorder::new();
        rec.spans.reserve(plan.len() * 3);
        let (mut log, mut tally) = (TransferLog::default(), Tally::default());
        serve(
            &schedule,
            |i| kvrun::exec(&mut worker, &plan[i].op, &mut log, &mut tally),
            |i, at, started, ended| {
                let req = rec.push(REQ, NO_PARENT, i as u32, at, ended);
                rec.push(WAIT, req, i as u32, at, started);
                rec.push(op_span(&plan[i].op), req, i as u32, started, ended);
            },
        );
        std::hint::black_box(tally);
        rec
    })
}

/// The closed loop of `kvrun` with a span around every request: what the
/// tracing itself costs shows as the drop in its rate.
fn traced_closed_loop(
    service: &Service,
    def: &KvDef,
    workers: usize,
    seconds: f64,
    seed: u64,
) -> (f64, Vec<Recorder>) {
    let results = on_workers(workers, |worker_id, start| {
        let mut worker = service.worker();
        let mut rec = Recorder::new();
        let (mut log, mut tally) = (TransferLog::default(), Tally::default());
        let (mut busy, mut rates, mut chunk) = (0.0f64, Vec::new(), 0u64);
        start.wait();
        while busy < seconds {
            let plan = service.plan(
                def.chunk_ops as f64,
                1.0,
                derive_seed(seed, SEED_TRACE + 1, chunk),
                worker_id,
                1,
            );
            rec.spans.reserve(plan.len());
            let t = Instant::now();
            for (i, p) in plan.iter().enumerate() {
                let request = i as u32;
                rec.child(op_span(&p.op), NO_PARENT, request, || {
                    kvrun::exec(&mut worker, &p.op, &mut log, &mut tally)
                });
            }
            let dt = t.elapsed().as_secs_f64();
            busy += dt;
            rates.push(plan.len() as f64 / dt);
            chunk += 1;
            log = TransferLog::default();
        }
        std::hint::black_box(tally);
        (median(&rates), rec)
    });
    let rate = results.iter().map(|(r, _)| r).sum();
    (rate, results.into_iter().map(|(_, rec)| rec).collect())
}

/// What the replica path measured: mean nanoseconds of each step, per
/// operation kind, and the residual of each whole.
struct Replica {
    rec: Recorder,
    counts: Counts,
    put: Decomposition,
    delete: Decomposition,
    get_ns: f64,
}

/// `whole = Σ parts + span cost outside each part × parts + residual`.
struct Decomposition {
    whole_ns: f64,
    /// `(step, mean ns over all operations of the kind)`.
    parts: Vec<(&'static str, f64)>,
    residual_ns: f64,
}

impl Decomposition {
    fn parts_ns(&self) -> f64 {
        self.parts.iter().map(|(_, ns)| ns).sum()
    }

    fn json(&self, service_span_ns: f64, service_self_ns: f64) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("service_span_ns".into(), Json::Num(service_span_ns)),
            ("replica_whole_ns".into(), Json::Num(self.whole_ns)),
        ];
        for (step, ns) in &self.parts {
            fields.push((format!("{step}_ns"), Json::Num(*ns)));
        }
        fields.push(("replica_residual_ns".into(), Json::Num(self.residual_ns)));
        fields.push(("service_self_ns".into(), Json::Num(service_self_ns)));
        fields.push(("parts_miss_whole".into(), Json::Bool(self.missed())));
        Json::Obj(fields)
    }

    /// The parts miss the whole by more than a tenth of it.
    fn missed(&self) -> bool {
        self.residual_ns.abs() > 0.1 * self.whole_ns
    }
}

/// Runs the plan's gets, puts and deletes on one benchmark-owned shard
/// assembled from the service's public pieces, a span around every step.
/// All keys map onto this one shard's `1..=keys_per_shard` range.
fn replica_path(
    spec: &Spec,
    service: &Service,
    plan: &[PlannedOp],
    shards: u64,
    span_cost: SpanCost,
) -> Replica {
    let keys = service.key_space().div_ceil(shards);
    let shard = ReplicaShard::new(spec, keys, service.initial_value());
    let mut th = shard.thread();
    let mut rec = Recorder::new();
    rec.spans.reserve(plan.len() * 6);
    let local = |key: u64| 1 + key / shards;
    for (i, p) in plan.iter().enumerate() {
        let request = i as u32;
        match p.op {
            KvOp::Get { key } => {
                rec.child(REPLICA_GET, NO_PARENT, request, || th.run_get(local(key)));
            }
            KvOp::Put { key, value } => {
                let start = rec.now();
                let whole = rec.push(REPLICA_PUT, NO_PARENT, request, start, start);
                let spare = rec.child(ALLOC_SPARE, whole, request, || th.alloc_spare());
                let guard = rec.child(PIN, whole, request, || th.pin());
                let linked = rec.child(RUN, whole, request, || {
                    th.run_insert(local(key), value, spare)
                });
                rec.child(UNPIN, whole, request, || drop(guard));
                if !linked {
                    rec.child(GIVE_BACK, whole, request, || th.give_back_spare(spare));
                }
                rec.spans[whole as usize].end_ns = rec.now();
            }
            KvOp::Delete { key } => {
                let start = rec.now();
                let whole = rec.push(REPLICA_DELETE, NO_PARENT, request, start, start);
                let guard = rec.child(PIN, whole, request, || th.pin());
                let victim = rec.child(RUN, whole, request, || th.run_remove(local(key)));
                rec.child(UNPIN, whole, request, || drop(guard));
                if let Some((_, node)) = victim {
                    rec.child(RETIRE, whole, request, || th.retire(node));
                }
                rec.spans[whole as usize].end_ns = rec.now();
            }
            KvOp::Transfer { .. } | KvOp::MultiGet { .. } => {}
        }
    }
    let decompose = |whole: u16, steps: &[(u16, &'static str)]| {
        let wholes: Vec<u32> = (0..rec.spans.len() as u32)
            .filter(|&i| rec.spans[i as usize].name == whole)
            .collect();
        let n = wholes.len().max(1) as f64;
        let whole_ns = wholes
            .iter()
            .map(|&i| rec.spans[i as usize].ns())
            .sum::<f64>()
            / n;
        let children: Vec<&Span> = rec
            .spans
            .iter()
            .filter(|s| s.parent != NO_PARENT && rec.spans[s.parent as usize].name == whole)
            .collect();
        let parts: Vec<(&'static str, f64)> = steps
            .iter()
            .map(|&(id, label)| {
                let total: f64 = children
                    .iter()
                    .filter(|s| s.name == id)
                    .map(|s| s.ns())
                    .sum();
                (label, total / n)
            })
            .collect();
        let per_op_children = children.len() as f64 / n;
        let residual_ns = whole_ns
            - parts.iter().map(|(_, ns)| ns).sum::<f64>()
            - span_cost.outside_ns * per_op_children;
        Decomposition {
            whole_ns,
            parts,
            residual_ns,
        }
    };
    let put = decompose(
        REPLICA_PUT,
        &[
            (ALLOC_SPARE, "alloc_spare"),
            (PIN, "pin"),
            (RUN, "run"),
            (UNPIN, "unpin"),
            (GIVE_BACK, "give_back"),
        ],
    );
    let delete = decompose(
        REPLICA_DELETE,
        &[
            (PIN, "pin"),
            (RUN, "run"),
            (UNPIN, "unpin"),
            (RETIRE, "retire"),
        ],
    );
    let get_ns = mean(&rec.durations(REPLICA_GET));
    let counts = th.counts();
    drop(th);
    Replica {
        rec,
        counts,
        put,
        delete,
        get_ns,
    }
}

/// At most this many spans per recorder go into the trace file (all of
/// them are kept in memory and counted in the statistics).
const SPANS_WRITTEN: usize = 20_000;

fn spans_json(label: &str, rec: &Recorder) -> Json {
    Json::obj([
        ("recorder", Json::str(label)),
        ("spans_recorded", Json::Num(rec.spans.len() as f64)),
        (
            "spans",
            Json::Arr(
                rec.spans
                    .iter()
                    .take(SPANS_WRITTEN)
                    .map(|s| {
                        Json::obj([
                            ("name", Json::str(NAMES[s.name as usize])),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                            (
                                "parent",
                                if s.parent == NO_PARENT {
                                    Json::Null
                                } else {
                                    Json::Num(s.parent as f64)
                                },
                            ),
                            ("request_id", Json::Num(s.request as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Path and abort shares of a set of counters, into `values`.
fn count_shares(values: &mut LayerValues, counts: &Counts) {
    let commits = counts.commits().max(1) as f64;
    values.set(
        "core.commits_hw_fast_share",
        counts.commits_hw_fast as f64 / commits,
    );
    values.set(
        "core.commits_mixed_slow_share",
        counts.commits_mixed_slow as f64 / commits,
    );
    values.set(
        "core.commits_software_share",
        counts.commits_software as f64 / commits,
    );
    let aborts = counts.aborts.max(1) as f64;
    values.set(
        "core.aborts_conflict_share",
        counts.aborts_conflict as f64 / aborts,
    );
    values.set(
        "core.aborts_capacity_share",
        counts.aborts_capacity as f64 / aborts,
    );
    let decisions = counts.retry_decisions.max(1) as f64;
    values.set(
        "api.retry.demote_share",
        counts.retry_demote as f64 / decisions,
    );
    values.set(
        "api.retry.backoff_share",
        counts.retry_backoff as f64 / decisions,
    );
}

/// What a traced run hands back: the per-layer values it measured and
/// the trace document.
pub struct Traced {
    pub values: LayerValues,
    pub trace: Json,
    pub attempted: u64,
}

/// Shares of `--seconds` inside a traced run; the rest goes to the layer
/// kernels.
const SHARE_UNTRACED: f64 = 0.12;
const SHARE_TRACED_CLOSED: f64 = 0.12;
const SHARE_TRACED_OPEN: f64 = 0.16;
/// Requests of the plan the replica path runs.
const REPLICA_OPS: usize = 60_000;

pub fn run_kv(def: &KvDef, seed: u64, seconds: f64, span_cost: SpanCost) -> Traced {
    let case = KvCase::find(def.scenario);
    let spec = Spec::reference();
    let mut values = LayerValues::default();
    let workers = def.open_workers;

    // Set-up, with its own layers timed apart.
    let SetUp {
        service,
        build_seconds,
        warm,
        ..
    } = kvrun::set_up(&case, def, &spec, seed);
    values.set("kv.service_build_s", build_seconds);
    let registers: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            let worker = service.worker();
            let us = t.elapsed().as_secs_f64() * 1e6;
            drop(worker);
            us
        })
        .collect();
    values.set("kv.worker_register_us", median(&registers));
    let t = Instant::now();
    let plan = service.plan(
        def.open.ref_rate,
        1.0,
        derive_seed(seed, SEED_TRACE, 0),
        0,
        1,
    );
    values.set(
        "kv.load.plan_ns",
        t.elapsed().as_nanos() as f64 / plan.len().max(1) as f64,
    );
    drop(plan);
    let mut attempted = warm.ops();
    values.set("kv.route_ns", crate::layers::route_ns(&service, 0.01));

    // Untraced: the rate tracing is compared with, and the counters.
    let untraced = ClosedLoop {
        service: &service,
        def,
        seed,
        section: SEED_TRACE,
        until: Until::BusySeconds(seconds * SHARE_UNTRACED),
        handicap_ns: 0,
    }
    .run(workers);
    let untraced_rate: f64 = untraced.iter().map(|w| median(&w.rates)).sum();
    let (mut ops, mut commits, mut aborts, mut mem) = (0u64, 0u64, 0u64, MemCounts::default());
    for w in &untraced {
        ops += w.ops();
        commits += w.commits;
        aborts += w.aborts;
        mem.add(&w.mem);
    }
    attempted += ops;
    values.set(
        "core.abort_share",
        aborts as f64 / (commits + aborts).max(1) as f64,
    );
    let fresh_nodes = mem.alloc_words as f64 / NODE_WORDS as f64;
    let reused = mem.reclaimed as f64;
    values.set(
        "api.reclaim.reuse_share",
        if reused + fresh_nodes > 0.0 {
            reused / (reused + fresh_nodes)
        } else {
            0.0
        },
    );
    values.set(
        "kv.mem.alloc_words_per_op",
        mem.alloc_words as f64 / ops.max(1) as f64,
    );
    values.set(
        "kv.mem.retired_per_op",
        mem.retired as f64 / ops.max(1) as f64,
    );
    values.set("kv.mem.epoch_advances", mem.epoch_advances as f64);

    // Traced closed loop: the overhead of tracing.
    let (traced_rate, closed_recs) =
        traced_closed_loop(&service, def, workers, seconds * SHARE_TRACED_CLOSED, seed);
    values.set(
        "bench.trace_overhead_share",
        1.0 - traced_rate / untraced_rate,
    );

    // Traced open loop at the reference rate.
    let open_recs = traced_open_loop(
        &service,
        workers,
        def.open.ref_rate,
        seconds * SHARE_TRACED_OPEN,
        derive_seed(seed, SEED_TRACE, 2),
    );
    let all =
        |name: u16| -> Vec<f64> { open_recs.iter().flat_map(|r| r.durations(name)).collect() };
    for (metric, p99_metric, name) in [
        ("kv.get_ns", Some("kv.get_p99_ns"), KV_GET),
        ("kv.put_ns", Some("kv.put_p99_ns"), KV_PUT),
        ("kv.delete_ns", Some("kv.delete_p99_ns"), KV_DELETE),
        ("kv.transfer_ns", None, KV_TRANSFER),
        ("kv.multi_get_ns", None, KV_MULTI_GET),
    ] {
        let mut d = all(name);
        values.set(metric, mean(&d));
        if let Some(p99) = p99_metric {
            values.set(p99, quantile(&mut d, 0.99));
        }
    }
    let mut waits = all(WAIT);
    values.set("kv.wait_p50_us", quantile(&mut waits, 0.50) / 1e3);
    values.set("kv.wait_p99_us", quantile(&mut waits, 0.99) / 1e3);
    // How late the generator ran: the same interval over the requests
    // that found the worker idle (the previous one had completed).
    let mut late: Vec<f64> = Vec::new();
    for rec in &open_recs {
        let mut previous_end = 0u64;
        // Spans were pushed as [req, wait, kv.<op>] per request.
        for request in rec.spans.chunks_exact(3) {
            let (req, wait) = (&request[0], &request[1]);
            if previous_end <= req.start_ns {
                late.push(wait.ns());
            }
            previous_end = req.end_ns;
        }
    }
    values.set("kv.gen_late_p99_us", quantile(&mut late, 0.99) / 1e3);
    attempted += open_recs
        .iter()
        .map(|r| r.spans.len() as u64 / 3)
        .sum::<u64>();
    attempted += closed_recs
        .iter()
        .map(|r| r.spans.len() as u64)
        .sum::<u64>();

    // The replica put/delete path.
    let replica_plan = service.plan(
        REPLICA_OPS as f64,
        1.0,
        derive_seed(seed, SEED_TRACE, 3),
        0,
        1,
    );
    let replica = replica_path(&spec, &service, &replica_plan, service.shards(), span_cost);
    let part = |d: &Decomposition, step: &str| {
        d.parts
            .iter()
            .find(|(s, _)| *s == step)
            .map_or(0.0, |(_, ns)| *ns)
    };
    values.set(
        "api.reclaim.alloc_spare_ns",
        part(&replica.put, "alloc_spare"),
    );
    values.set(
        "api.reclaim.pin_ns",
        part(&replica.put, "pin") + part(&replica.put, "unpin"),
    );
    values.set("api.reclaim.retire_ns", part(&replica.delete, "retire"));
    let self_put = values.get("kv.put_ns") - replica.put.parts_ns();
    let self_delete = values.get("kv.delete_ns") - replica.delete.parts_ns();
    values.set("kv.self_put_ns", self_put);
    values.set("kv.self_delete_ns", self_delete);
    count_shares(&mut values, &replica.counts);

    let mut recorders = Vec::new();
    for (i, rec) in open_recs.iter().enumerate() {
        recorders.push(spans_json(&format!("open-loop worker {i}"), rec));
    }
    for (i, rec) in closed_recs.iter().enumerate() {
        recorders.push(spans_json(&format!("closed-loop worker {i}"), rec));
    }
    recorders.push(spans_json("replica shard", &replica.rec));
    let trace = Json::obj([
        ("scenario", Json::str(case.describe())),
        ("spec", Json::str(spec.label())),
        ("untraced_ops_per_s", Json::Num(untraced_rate)),
        ("traced_ops_per_s", Json::Num(traced_rate)),
        (
            "decomposition",
            Json::obj([
                ("formula", Json::str("kv.<op>_ns = sum(replica steps) + kv.self_<op>_ns; replica whole = sum(steps) + span_cost_outside_ns x steps + residual")),
                ("span_cost_ns", Json::Num(span_cost.total_ns)),
                ("span_cost_outside_ns", Json::Num(span_cost.outside_ns)),
                ("kv.put_ns", replica.put.json(values.get("kv.put_ns"), self_put)),
                ("kv.delete_ns", replica.delete.json(values.get("kv.delete_ns"), self_delete)),
                ("replica_get_ns", Json::Num(replica.get_ns)),
                ("service_get_ns", Json::Num(values.get("kv.get_ns"))),
            ]),
        ),
        ("recorders", Json::Arr(recorders)),
    ]);
    Traced {
        values,
        trace,
        attempted,
    }
}

pub fn run_tm(def: &TmDef, seed: u64, seconds: f64) -> Traced {
    let case = TmCase::find(def.scenario);
    let spec = Spec::reference();
    let mut values = LayerValues::default();

    // Untraced: the rate and the counters.
    let untraced = case.run(
        &spec,
        1,
        Budget::Timed(seconds * SHARE_UNTRACED),
        derive_seed(seed, SEED_TRACE, 0),
    );
    values.set(
        "core.abort_share",
        untraced.counts.aborts as f64
            / (untraced.counts.commits() + untraced.counts.aborts).max(1) as f64,
    );
    count_shares(&mut values, &untraced.counts);

    // The product's own tracing: Figure 2's categories, per operation.
    let traced = case.run_breakdown(
        &spec,
        seconds * SHARE_TRACED_CLOSED,
        derive_seed(seed, SEED_TRACE, 1),
    );
    values.set(
        "bench.trace_overhead_share",
        1.0 - traced.ops_per_s() / untraced.ops_per_s(),
    );
    let breakdown = traced.breakdown_ns.unwrap_or_default();
    for (name, total) in ["read", "write", "commit", "private", "intertx"]
        .iter()
        .zip(breakdown)
    {
        values.set(
            &format!("core.breakdown.{name}_ns"),
            total as f64 / traced.ops.max(1) as f64,
        );
    }
    assert_eq!(
        untraced.workload_name, traced.workload_name,
        "both runs drive the same structure"
    );

    // Spans around the structure's operations, open loop at the
    // reference rate.
    let schedule = poisson_schedule(
        def.open.ref_rate,
        seconds * SHARE_TRACED_OPEN,
        derive_seed(seed, SEED_TRACE, 2),
    );
    let mut rec = Recorder::new();
    rec.spans.reserve(schedule.len() * 3);
    case.with_worker(&spec, derive_seed(seed, SEED_TRACE, 3), |worker| {
        serve(
            &schedule,
            |_| worker.run_next(),
            |i, at, started, ended| {
                let req = rec.push(REQ, NO_PARENT, i as u32, at, ended);
                rec.push(WAIT, req, i as u32, at, started);
                rec.push(TM_OP, req, i as u32, started, ended);
            },
        );
    });
    let mut op = rec.durations(TM_OP);
    let mut waits = rec.durations(WAIT);
    let trace = Json::obj([
        ("scenario", Json::str(case.describe())),
        ("spec", Json::str(spec.label())),
        ("untraced_ops_per_s", Json::Num(untraced.ops_per_s())),
        ("traced_ops_per_s", Json::Num(traced.ops_per_s())),
        ("tm.op_ns", Json::Num(mean(&op))),
        ("tm.op_p99_ns", Json::Num(quantile(&mut op, 0.99))),
        ("wait_p50_us", Json::Num(quantile(&mut waits, 0.50) / 1e3)),
        ("wait_p99_us", Json::Num(quantile(&mut waits, 0.99) / 1e3)),
        (
            "recorders",
            Json::Arr(vec![spans_json("open-loop thread", &rec)]),
        ),
    ]);
    Traced {
        values,
        trace,
        attempted: untraced.ops + traced.ops + schedule.len() as u64,
    }
}

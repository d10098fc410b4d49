//! The untraced run of a TM workload: closed loops through
//! `Scenario::run_spec`, then latency windows and the knee ladder on the
//! benchmark's own open loop around `Workload::run_op` (the product has
//! no open loop for a bare structure).

use std::time::Instant;

use crate::clock::{derive_seed, peak_rss_mib, poisson_schedule};
use crate::defs::{
    Injection, Metric, Outcome, TmDef, Verdict, ROUNDS, SHARE_CLOSED_1T, SHARE_CLOSED_2T,
};
use crate::json::Json;
use crate::openloop::{serve, OpenSections, Window};
use crate::stats::{median, spread};
use crate::surface::{Budget, Hist, Spec, TmCase, TmRun, TmWorker};

const SEED_SETUP: u64 = 11;
const SEED_CLOSED: u64 = 12;
const SEED_WORKER: u64 = 16;

/// Set-ups timed per run.
const SETUPS: usize = 5;
/// `run_spec` calls per round and thread count; a closed-loop rate is the
/// median over all rounds' samples.
const CLOSED_SAMPLES: usize = 4;

/// One open-loop window on a `TmWorker`: Poisson arrivals at `rate`,
/// latency from the scheduled arrival.
pub fn tm_window(worker: &mut dyn TmWorker, rate: f64, seconds: f64, seed: u64) -> Window {
    let schedule = poisson_schedule(rate, seconds, seed);
    let mut latency = Hist::new();
    let elapsed = serve(
        &schedule,
        |_| worker.run_next(),
        |_, at, _, ended| latency.record(ended - at),
    );
    Window::new(rate, seconds, schedule.len() as u64, elapsed, &latency)
}

/// One closed-loop sample: a driven run on `threads` threads.
fn closed_sample(
    case: &TmCase,
    spec: &Spec,
    threads: usize,
    seconds: f64,
    seed: u64,
    handicap_ns: u64,
    verdict: &mut Verdict,
) -> TmRun {
    let run = if handicap_ns == 0 {
        case.run(spec, threads, Budget::Timed(seconds), seed)
    } else {
        case.run_handicapped(spec, threads, seconds, seed, handicap_ns)
    };
    verdict.attempted += run.ops;
    if run.counts.commits() != run.ops {
        verdict.fail(
            run.counts.commits().abs_diff(run.ops),
            format!(
                "{} operations counted, {} committed",
                run.ops,
                run.counts.commits()
            ),
        );
    }
    run
}

fn closed_json(threads: usize, runs: &[TmRun]) -> Json {
    Json::obj([
        ("threads", Json::Num(threads as f64)),
        (
            "ops_per_s",
            Json::Arr(runs.iter().map(|r| Json::Num(r.ops_per_s())).collect()),
        ),
        (
            "ops",
            Json::Num(runs.iter().map(|r| r.ops).sum::<u64>() as f64),
        ),
        (
            "aborts",
            Json::Num(runs.iter().map(|r| r.counts.aborts).sum::<u64>() as f64),
        ),
    ])
}

pub fn run(def: &TmDef, seed: u64, seconds: f64, inject: Injection) -> Outcome {
    let case = TmCase::find(def.scenario);
    let spec = Spec::reference();
    let mut verdict = Verdict::default();

    // Set-up: `run_spec` builds the structure and registers its threads
    // before it starts its clock, so the wall time of a short counted run
    // is that work plus the warm-up operations.
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t = Instant::now();
            let run = case.run(
                &spec,
                1,
                Budget::OpsPerThread(def.warm_ops),
                derive_seed(seed, SEED_SETUP, 0),
            );
            verdict.attempted += run.ops;
            t.elapsed().as_secs_f64()
        })
        .collect();

    let mut open = OpenSections::new(&def.open, seconds);
    let sample_s = |share: f64| seconds * share / (ROUNDS * CLOSED_SAMPLES) as f64;
    let (mut one, mut two): (Vec<TmRun>, Vec<TmRun>) = (Vec::new(), Vec::new());

    // The open loop's structure and thread live across the rounds; each
    // closed-loop sample builds its own inside `run_spec`.
    let (quiescent_ok, committed) =
        case.with_worker(&spec, derive_seed(seed, SEED_WORKER, 0), |worker| {
            for round in 0..ROUNDS {
                for i in 0..CLOSED_SAMPLES {
                    let index = (round * CLOSED_SAMPLES + i) as u64;
                    one.push(closed_sample(
                        &case,
                        &spec,
                        1,
                        sample_s(SHARE_CLOSED_1T),
                        derive_seed(seed, SEED_CLOSED, index),
                        inject.handicap_ns,
                        &mut verdict,
                    ));
                }
                for i in 0..CLOSED_SAMPLES {
                    let index = (round * CLOSED_SAMPLES + i) as u64;
                    two.push(closed_sample(
                        &case,
                        &spec,
                        2,
                        sample_s(SHARE_CLOSED_2T),
                        derive_seed(seed, SEED_CLOSED + 1, index),
                        inject.handicap_ns,
                        &mut verdict,
                    ));
                }
                open.round(seed, round, |rate, secs, seed| {
                    tm_window(worker, rate, secs, seed)
                });
            }
            // Read before the quiescent check, which commits transactions
            // of its own.
            let committed = worker.counts().commits();
            (worker.quiescent_ok(), committed)
        });
    let peak_rss = peak_rss_mib();

    let served: u64 = open.all_windows().map(|w| w.completed).sum();
    verdict.attempted += served;
    if committed != served {
        verdict.fail(
            committed.abs_diff(served),
            format!("open loop served {served} operations, {committed} committed"),
        );
    }
    if !quiescent_ok {
        verdict.fail(
            1,
            "the structure's quiescent invariant does not hold".into(),
        );
    }

    let rates = |runs: &[TmRun]| runs.iter().map(TmRun::ops_per_s).collect::<Vec<_>>();
    let (open_metrics, open_detail) = open.finish(&mut verdict);
    let mut metrics = vec![
        Metric::new(
            "ops_per_s",
            "op/s",
            median(&rates(&one)),
            spread(&rates(&one)),
        ),
        Metric::new(
            "ops_per_s_2t",
            "op/s",
            median(&rates(&two)),
            spread(&rates(&two)),
        ),
    ];
    metrics.extend(open_metrics);
    metrics.extend([
        Metric::new("setup_s", "s", median(&setups), spread(&setups)),
        Metric::new("peak_rss_mib", "MiB", peak_rss, 0.0),
    ]);
    let mut detail = vec![
        ("scenario", Json::str(case.describe())),
        ("spec", Json::str(spec.label())),
        ("setups_s", Json::nums(&setups)),
        ("closed_1_thread", closed_json(1, &one)),
        ("closed_2_threads", closed_json(2, &two)),
    ];
    detail.extend(open_detail);
    Outcome {
        metrics,
        verdict,
        detail: Json::obj(detail),
    }
}

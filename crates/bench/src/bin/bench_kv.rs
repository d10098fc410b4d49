//! Open-loop benchmark of the `rhtm_kv` sharded service: sweep
//! `scenario × spec × shards × offered rate` at a fixed arrival process,
//! emit one `rhtm-kv-bench` JSON document on stdout (progress on stderr),
//! and — on conservation-checkable mixes — verify every run with the
//! cross-shard [`ShardedBankChecker`] before reporting it.
//!
//! ```text
//! cargo run -p rhtm-bench --release --bin bench_kv -- \
//!     [--smoke] [--list] [scenarios=a,b,..] [spec=l1,l2,..] \
//!     [shards=N,M,..] [rate=N,M,..] [keys=N,M,..] \
//!     [arrival=poisson|burst-N] [threads=N] [--duration-ms=N] [--seed=N]
//! ```
//!
//! * `--list` prints the KV scenario registry and exits.
//! * `--smoke` is the CI configuration: two scenarios, two shard counts,
//!   two offered rates, short horizons.
//! * `shards=` / `rate=` / `keys=` are sweep axes (every combination
//!   runs); omitting `shards=` uses each scenario's registered default,
//!   omitting `keys=` uses each scenario's registered key space.  `keys=`
//!   scales the footprint without changing the mix — the axis behind the
//!   million-key memory-subsystem runs.
//! * `threads=` sets the open-loop *worker* count.  One worker (the
//!   default) makes each run a pure function of the seed.
//!
//! Sweeping `rate=` at a fixed shape traces the goodput-vs-offered-load
//! curve; see `docs/BENCHMARKS.md` ("Open-loop KV benchmark").

use std::time::Duration;

use rhtm_bench::cli::fail;
use rhtm_kv::{
    kv_suite_to_json, run_open_loop, Arrival, KvRow, KvScenario, LoadOpts, ShardedBankChecker,
};
use rhtm_workloads::check::{Checker, History};
use rhtm_workloads::TmSpec;

fn print_list() {
    println!(
        "{:<24} {:>6} {:>10} {:<18} description",
        "scenario", "shards", "keys", "mix"
    );
    for s in KvScenario::all() {
        println!(
            "{:<24} {:>6} {:>10} {:<18} {}",
            s.name,
            s.shards,
            s.key_space,
            s.mix.label(),
            s.about
        );
    }
}

struct Sweep {
    scenarios: Vec<&'static KvScenario>,
    specs: Vec<TmSpec>,
    shards: Option<Vec<usize>>,
    keys: Option<Vec<u64>>,
    rates: Vec<u64>,
    arrival: Arrival,
    workers: usize,
    duration: Duration,
    seed: u64,
}

impl Sweep {
    fn smoke() -> Sweep {
        Sweep {
            scenarios: ["kv-point-ops", "kv-transfer"]
                .iter()
                .map(|n| KvScenario::find(n).expect("smoke scenario"))
                .collect(),
            specs: vec![TmSpec::parse("rh2").expect("rh2")],
            shards: Some(vec![1, 2]),
            keys: None,
            rates: vec![10_000, 40_000],
            arrival: Arrival::Poisson,
            workers: 1,
            duration: Duration::from_millis(20),
            seed: 0xbe6c_c0de,
        }
    }

    fn default() -> Sweep {
        Sweep {
            scenarios: KvScenario::all().iter().collect(),
            specs: ["tl2", "rh2"]
                .iter()
                .map(|l| TmSpec::parse(l).expect("default spec"))
                .collect(),
            shards: None,
            keys: None,
            rates: vec![20_000],
            arrival: Arrival::Poisson,
            workers: 1,
            duration: Duration::from_millis(100),
            seed: 0xbe6c_c0de,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        print_list();
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut sweep = if smoke {
        Sweep::smoke()
    } else {
        Sweep::default()
    };
    let specs = rhtm_bench::cli::spec_axis(&args).unwrap_or_else(|e| fail(e));
    if let Some(specs) = specs {
        sweep.specs = specs;
    }
    for arg in &args {
        if arg == "--smoke" || arg.starts_with("spec=") {
            // Handled above.
        } else if let Some(list) = arg.strip_prefix("scenarios=") {
            let parsed: Option<Vec<_>> = list.split(',').map(KvScenario::find).collect();
            match parsed {
                Some(s) if !s.is_empty() => sweep.scenarios = s,
                _ => fail(format!(
                    "bad KV scenario list '{list}' (see bench_kv --list)"
                )),
            }
        } else if let Some(list) = arg.strip_prefix("shards=") {
            let parsed: Result<Vec<usize>, _> = list.split(',').map(|s| s.trim().parse()).collect();
            match parsed {
                Ok(s) if !s.is_empty() && s.iter().all(|&n| n >= 1) => sweep.shards = Some(s),
                _ => fail(format!(
                    "bad shard list '{list}' (expected e.g. shards=1,2,4)"
                )),
            }
        } else if let Some(list) = arg.strip_prefix("keys=") {
            let parsed: Result<Vec<u64>, _> = list.split(',').map(|s| s.trim().parse()).collect();
            match parsed {
                Ok(k) if !k.is_empty() && k.iter().all(|&n| n >= 1) => sweep.keys = Some(k),
                _ => fail(format!(
                    "bad key-space list '{list}' (expected e.g. keys=8192,1000000)"
                )),
            }
        } else if let Some(list) = arg.strip_prefix("rate=") {
            let parsed: Result<Vec<u64>, _> = list.split(',').map(|s| s.trim().parse()).collect();
            match parsed {
                Ok(r) if !r.is_empty() && r.iter().all(|&n| n >= 1) => sweep.rates = r,
                _ => fail(format!(
                    "bad rate list '{list}' (req/s, e.g. rate=10000,40000)"
                )),
            }
        } else if let Some(v) = arg.strip_prefix("arrival=") {
            sweep.arrival = Arrival::parse(v)
                .unwrap_or_else(|| fail(format!("bad arrival '{v}' (poisson or burst-N)")));
        } else if let Some(v) = arg.strip_prefix("threads=") {
            match v.parse::<usize>() {
                Ok(n) if n >= 1 => sweep.workers = n,
                _ => fail(format!("bad worker count '{v}'")),
            }
        } else if let Some(v) = arg.strip_prefix("--duration-ms=") {
            match v.parse::<u64>() {
                Ok(ms) if ms >= 1 => sweep.duration = Duration::from_millis(ms),
                _ => fail(format!("bad duration '{v}'")),
            }
        } else if let Some(v) = arg.strip_prefix("--seed=") {
            sweep.seed = v
                .parse()
                .unwrap_or_else(|_| fail(format!("bad seed '{v}'")));
        } else {
            fail(format!(
                "unknown argument '{arg}' (expected --smoke, --list, scenarios=, \
                 spec=, shards=, rate=, keys=, arrival=, threads=, --duration-ms=, \
                 --seed=)"
            ));
        }
    }

    let total = sweep.scenarios.len()
        * sweep.specs.len()
        * sweep.shards.as_ref().map_or(1, Vec::len)
        * sweep.keys.as_ref().map_or(1, Vec::len)
        * sweep.rates.len();
    eprintln!(
        "# bench_kv: {total} rows ({} ms horizon, {} worker(s), {} arrivals, seed {:#x})",
        sweep.duration.as_millis(),
        sweep.workers,
        sweep.arrival.label(),
        sweep.seed
    );
    let mut rows = Vec::new();
    for scenario in &sweep.scenarios {
        let shard_axis = sweep
            .shards
            .clone()
            .unwrap_or_else(|| vec![scenario.shards]);
        let key_axis = sweep
            .keys
            .clone()
            .unwrap_or_else(|| vec![scenario.key_space]);
        for spec in &sweep.specs {
            for &shards in &shard_axis {
                for &keys in &key_axis {
                    for &rate in &sweep.rates {
                        eprintln!(
                            "# [{}/{total}] {} / {} / {shards} shard(s) / {keys} keys @ {rate}/s",
                            rows.len() + 1,
                            scenario.name,
                            spec.label()
                        );
                        let service = scenario.service_with_keys(spec, shards, sweep.workers, keys);
                        let opts = LoadOpts::new(rate as f64, sweep.duration)
                            .with_workers(sweep.workers)
                            .with_arrival(sweep.arrival)
                            .with_mix(scenario.mix)
                            .with_seed(sweep.seed);
                        let report = run_open_loop(&service, &opts);
                        if scenario.mix.conserves_balance() {
                            let checker = ShardedBankChecker::for_service(&service);
                            let history = History::from_recorders(report.histories);
                            if let Err(v) = checker.check(&history) {
                                fail(format!(
                                    "consistency violation in {} ({} shards): {}",
                                    scenario.name, shards, v.detail
                                ));
                            }
                        }
                        rows.push(KvRow {
                            scenario: scenario.name.to_string(),
                            spec: spec.label(),
                            shards,
                            key_space: keys,
                            op_mix: scenario.mix.label(),
                            offered_rate: report.offered_rate,
                            arrival: report.arrival.label(),
                            threads: sweep.workers,
                            generated: report.generated,
                            completed: report.completed,
                            applied_transfers: report.applied_transfers,
                            declined_transfers: report.declined_transfers,
                            goodput_ops_per_sec: report.goodput,
                            commits: report.commits,
                            aborts: report.aborts,
                            mem: report.mem,
                            latency: report.latency.summary(),
                        });
                    }
                }
            }
        }
    }
    print!(
        "{}",
        kv_suite_to_json(
            sweep.seed,
            sweep.duration.as_millis() as u64,
            sweep.workers,
            &rows
        )
    );
}

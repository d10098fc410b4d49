//! The five workloads, the end-to-end metrics and the shape of a run.
//! Names here are the names in `BENCHMARK.json` and the README.

use crate::json::Json;

/// Rates of a ladder: each `LADDER_RATIO` times the one before, so the
/// knee is resolved to 5 % wherever in the ladder's ×2.2 range it falls.
pub const LADDER_STEPS: usize = 17;
pub const LADDER_RATIO: f64 = 1.05;

/// The open-loop part of a workload: a reference rate for the latency
/// metrics and a ladder of rates for the knee.
#[derive(Clone, Copy)]
pub struct OpenShape {
    /// Offered rate (req/s, all workers together) of the latency windows:
    /// roughly a quarter of the workload's capacity.
    pub ref_rate: f64,
    /// Length of one latency window: short enough that the host's
    /// once-a-second 2–3 ms stall lands in a minority of windows, long
    /// enough for tens of samples beyond the p99 (hundreds on the KV
    /// workloads).
    pub window_s: f64,
    /// Lowest rate of the knee ladder.
    pub ladder_first: f64,
    /// The knee's latency limit on the p99: 1 ms, except where a single
    /// operation already takes a good part of that.
    pub knee_p99_limit_us: f64,
}

impl OpenShape {
    /// The ladder's rates, lowest first.
    pub fn ladder_rates(&self) -> impl Iterator<Item = f64> + '_ {
        (0..LADDER_STEPS).map(|i| (self.ladder_first * LADDER_RATIO.powi(i as i32)).round())
    }
}

pub struct KvDef {
    pub scenario: &'static str,
    /// Planned operations run closed-loop before the first timed section
    /// (inside `setup_s`).
    pub warm_ops: u64,
    /// Operations per closed-loop chunk (one clock pair per chunk).
    pub chunk_ops: u64,
    /// Workers of the open-loop sections.
    pub open_workers: usize,
    pub open: OpenShape,
}

pub struct TmDef {
    pub scenario: &'static str,
    /// Operations of the warm-up run that times the set-up.
    pub warm_ops: u64,
    pub open: OpenShape,
}

pub enum Kind {
    Kv(KvDef),
    Tm(TmDef),
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "kv-point",
        why: "cache-resident point ops (8192 keys): fixed per-op overhead (route, dyn dispatch, epoch pin, NodePool, hw-fast begin/commit) is the work",
        kind: Kind::Kv(KvDef {
            scenario: "kv-point-ops",
            warm_ops: 400_000,
            chunk_ops: 50_000,
            open_workers: 1,
            open: OpenShape {
                ref_rate: 300_000.0,
                window_s: 0.125,
                ladder_first: 750_000.0,
                knee_p99_limit_us: 1_000.0,
            },
        }),
    },
    WorkloadDef {
        name: "kv-churn-1m",
        why: "write-heavy churn over 10^6 keys: segmented heaps, arena allocation and epoch reclamation are the work; fixed overhead is under 5%",
        kind: Kind::Kv(KvDef {
            scenario: "kv-churn-1m",
            warm_ops: 400_000,
            chunk_ops: 10_000,
            open_workers: 1,
            open: OpenShape {
                ref_rate: 40_000.0,
                window_s: 0.25,
                ladder_first: 125_000.0,
                knee_p99_limit_us: 1_000.0,
            },
        }),
    },
    WorkloadDef {
        name: "kv-transfer-2w",
        why: "two workers moving money over 512 hot accounts: two-leg transfers, real conflicts, retry policy and slow-path retries are the work",
        kind: Kind::Kv(KvDef {
            scenario: "kv-transfer-contended",
            warm_ops: 200_000,
            chunk_ops: 25_000,
            open_workers: 2,
            open: OpenShape {
                ref_rate: 200_000.0,
                window_s: 0.125,
                ladder_first: 450_000.0,
                knee_p99_limit_us: 1_000.0,
            },
        }),
    },
    WorkloadDef {
        name: "tm-rbtree",
        why: "the paper's Figure 1/2 tree (100K nodes, 20% writes): all hw-fast commits, bypasses rhtm_kv, reclaim and the arenas entirely",
        kind: Kind::Tm(TmDef {
            scenario: "rbtree-uniform",
            warm_ops: 20_000,
            open: OpenShape {
                ref_rate: 90_000.0,
                window_s: 0.25,
                ladder_first: 230_000.0,
                knee_p99_limit_us: 1_000.0,
            },
        }),
    },
    WorkloadDef {
        name: "tm-bank-scan",
        why: "10% full-table scans overflow HTM capacity: the mixed slow-path, read-set dedup and the fallback cascade are the work",
        kind: Kind::Tm(TmDef {
            scenario: "bank-analytics-scan",
            warm_ops: 4_000,
            open: OpenShape {
                ref_rate: 9_000.0,
                window_s: 0.5,
                ladder_first: 19_000.0,
                // A scan takes 0.2-0.4 ms and the p99 at the reference
                // rate is already 0.35 ms: under a 1 ms limit the p99
                // hovers at the limit over a third of the ladder and the
                // knee is a coin toss.
                knee_p99_limit_us: 5_000.0,
            },
        }),
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `(name, unit, better, bound)` of every end-to-end metric.  `bound` is
/// the share of the parent's median by which the metric may worsen before
/// it counts as a regression.  Every workload reports every metric.
pub const END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("ops_per_s", "op/s", "higher", 0.15),
    ("ops_per_s_2t", "op/s", "higher", 0.20),
    ("p50_us", "us", "lower", 0.20),
    ("p99_us", "us", "lower", 0.25),
    ("knee_rate", "req/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.05),
];

/// Measuring time of one run unless `--seconds` says otherwise: the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 18;

/// Shares of `--seconds` given to the four timed sections of a run.  One
/// common split for every workload, so `--seconds` scales all of them by
/// the same factor.
pub const SHARE_CLOSED_1T: f64 = 0.22;
pub const SHARE_CLOSED_2T: f64 = 0.22;
pub const SHARE_WINDOWS: f64 = 0.26;
pub const SHARE_LADDER: f64 = 0.30;

/// A run is this many rounds of [closed 1 thread, closed 2 threads,
/// latency windows, one ladder pass], so every metric's samples are
/// spread over the whole run: the host's disturbances come in bursts of a
/// second or two, and a burst then reaches a third of any metric's
/// samples at most, which its median shrugs off.  Each ladder rate gets
/// one window per round; its verdict is on their medians.
pub const ROUNDS: usize = 3;

/// The knee's goodput floor, as a share of the offered rate.
pub const KNEE_GOODPUT_SHARE: f64 = 0.98;

/// What the self-test injects (all off in a measuring run).
#[derive(Clone, Copy, Default)]
pub struct Injection {
    /// Busy-wait added after every closed-loop operation, in the
    /// benchmark's own loop.
    pub handicap_ns: u64,
    /// Flip one expected value in the model.
    pub flip_model: bool,
}

/// One measured metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Interquartile distance over median of the samples the value is
    /// taken from (chunks, windows, set-ups); 0 for single readings.
    pub spread: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, spread: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            spread,
        }
    }
}

/// The verdict on a run's outputs.
#[derive(Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Verdict {
    pub fn fail(&mut self, ops: u64, note: String) {
        self.failed += ops.max(1);
        self.notes.push(note);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// What one run of one workload produced.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub verdict: Verdict,
    /// Everything unguarded: windows, ladder steps, chunk rates, set-ups.
    pub detail: Json,
}

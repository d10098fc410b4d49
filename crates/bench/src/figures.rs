//! Figure and table definitions.
//!
//! Each `fig*` / `ablation_*` function reproduces one experiment of the
//! paper's evaluation (or one ablation around it) over a caller-provided
//! series of [`TmSpec`]s — the declarative runtime point
//! (`algorithm × clock × retry policy`) — and returns its raw rows.
//! [`EXPERIMENTS`] is the table behind the `figures` binary: one entry per
//! experiment holding its subcommand name, its paper-default series and
//! the function that runs it and renders what the subcommand prints.  A
//! clock or retry-policy ablation is the same sweep over base specs
//! expanded along that axis ([`expand_series`]), so the swept scheme or
//! policy of a row is read off its [`BenchResult::spec`] label.

use std::sync::Arc;

use rhtm_api::RetryPolicyHandle;
use rhtm_htm::{HtmConfig, HtmSim};
use rhtm_mem::{ClockScheme, MemConfig};
use rhtm_workloads::{
    report, AlgoKind, BenchResult, ConstantHashTable, ConstantRbTree, ConstantSortedList,
    DriverOpts, OpMix, RandomArray, Scenario, TmSpec, Workload,
};

use crate::params::FigureParams;

/// Sizes the shared memory for a workload that needs `data_words` words.
fn mem_config(data_words: usize) -> MemConfig {
    MemConfig::with_data_words(data_words + 4096)
}

/// `bases` crossed with the swept `clocks` and `policies`, swept value
/// outermost; an empty axis leaves the base specs' own value in place.
/// Each swept value overrides that axis of the base spec, everything else
/// (algorithm, the other axis) is honoured as given.
pub fn expand_series(
    bases: &[TmSpec],
    clocks: &[ClockScheme],
    policies: &[RetryPolicyHandle],
) -> Vec<TmSpec> {
    let mut series = bases.to_vec();
    if !clocks.is_empty() {
        series = clocks
            .iter()
            .flat_map(|&c| bases.iter().map(move |b| b.clone().clock(c)))
            .collect();
    }
    if !policies.is_empty() {
        series = policies
            .iter()
            .flat_map(|p| series.iter().map(move |b| b.clone().retry(p.clone())))
            .collect();
    }
    series
}

/// One run per thread count × spec of the series (thread count
/// outermost), under `opts(threads)`, on the structure `build` constructs.
fn sweep<W: Workload>(
    thread_counts: &[usize],
    specs: &[TmSpec],
    data_words: usize,
    opts: impl Fn(usize) -> DriverOpts,
    build: impl Fn(&Arc<HtmSim>) -> W,
) -> Vec<BenchResult> {
    let mut rows = Vec::new();
    for &threads in thread_counts {
        let opts = opts(threads);
        for spec in specs {
            let sized = spec.clone().mem(mem_config(data_words));
            rows.push(sized.bench(&build, &opts));
        }
    }
    rows
}

/// The throughput figures' options: the scale's interval at `threads`.
fn timed(params: &FigureParams, write_percent: u8) -> impl Fn(usize) -> DriverOpts + '_ {
    move |threads| {
        DriverOpts::timed_mix(threads, OpMix::read_update(write_percent), params.duration)
    }
}

fn rbtree_sweep(params: &FigureParams, specs: &[TmSpec], write_percent: u8) -> Vec<BenchResult> {
    let nodes = params.rbtree_nodes;
    sweep(
        &params.thread_counts,
        specs,
        ConstantRbTree::required_words(nodes),
        timed(params, write_percent),
        |sim| ConstantRbTree::new(Arc::clone(sim), nodes),
    )
}

/// The ablations' row order: one whole thread sweep per spec.
fn rbtree_sweep_per_spec(params: &FigureParams, specs: &[TmSpec]) -> Vec<BenchResult> {
    specs
        .iter()
        .flat_map(|spec| rbtree_sweep(params, std::slice::from_ref(spec), 20))
        .collect()
}

/// **Figure 1**: constant red-black tree, 20% mutations, thread sweep —
/// the instrumentation-cost experiment (paper series: HTM, Standard HyTM,
/// TL2, RH1 Fast).
pub fn fig1_rbtree(params: &FigureParams, specs: &[TmSpec]) -> Vec<BenchResult> {
    rbtree_sweep(params, specs, 20)
}

/// **Figure 2 (top)**: constant red-black tree with the slow-path-mix
/// variants at the given write percentage (the paper shows 20% and 80%).
pub fn fig2_rbtree(params: &FigureParams, specs: &[TmSpec], write_percent: u8) -> Vec<BenchResult> {
    rbtree_sweep(params, specs, write_percent)
}

/// **Figure 2 (middle & bottom) and the `20_100_R` / `80_100_R` tables**:
/// single-thread time breakdown (paper series: RH1 Slow, TL2, Standard
/// HyTM, RH1 Fast, HTM).
pub fn fig2_breakdown(
    params: &FigureParams,
    specs: &[TmSpec],
    write_percent: u8,
) -> Vec<BenchResult> {
    let nodes = params.rbtree_nodes;
    let mix = OpMix::read_update(write_percent);
    sweep(
        &[1],
        specs,
        ConstantRbTree::required_words(nodes),
        |threads| DriverOpts::counted_mix(threads, mix, params.ops_per_thread).with_breakdown(),
        |sim| ConstantRbTree::new(Arc::clone(sim), nodes),
    )
}

/// Single-thread speedups normalised to TL2 (the paper's Figure 2 middle
/// charts), computed from breakdown rows.
///
/// Returns an empty vector when the series carries no TL2 row (possible
/// since the `spec=` axis can replace the default series): without the
/// baseline the ratios would silently be raw throughputs, which callers
/// must not print as "normalised to TL2".
pub fn single_thread_speedups(rows: &[BenchResult]) -> Vec<(String, f64)> {
    let Some(tl2) = rows
        .iter()
        .find(|r| r.algorithm == "TL2")
        .map(|r| r.throughput())
    else {
        return Vec::new();
    };
    rows.iter()
        .map(|r| {
            (
                r.algorithm.clone(),
                r.throughput() / tl2.max(f64::MIN_POSITIVE),
            )
        })
        .collect()
}

/// **Figure 3 (left)**: constant hash table, 20% writes.
pub fn fig3_hashtable(params: &FigureParams, specs: &[TmSpec]) -> Vec<BenchResult> {
    let elements = params.hashtable_elements;
    sweep(
        &params.thread_counts,
        specs,
        ConstantHashTable::required_words(elements),
        timed(params, 20),
        |sim| ConstantHashTable::new(Arc::clone(sim), elements),
    )
}

/// **Figure 3 (middle)**: constant sorted list, 5% writes.
pub fn fig3_sortedlist(params: &FigureParams, specs: &[TmSpec]) -> Vec<BenchResult> {
    let elements = params.sortedlist_elements;
    sweep(
        &params.thread_counts,
        specs,
        ConstantSortedList::required_words(elements),
        timed(params, 5),
        |sim| ConstantSortedList::new(Arc::clone(sim), elements),
    )
}

/// One point of the random-array speedup matrix.
#[derive(Clone, Debug)]
pub struct RandomArrayPoint {
    /// Shared accesses per transaction.
    pub txn_len: usize,
    /// Percentage of those accesses that are writes.
    pub write_percent: u8,
    /// The treatment's run — RH1 Fast in the paper's figure.
    pub treatment: BenchResult,
    /// The baseline's run — the Standard HyTM in the paper's figure.
    pub baseline: BenchResult,
}

impl RandomArrayPoint {
    /// The paper's reported quantity: treatment throughput over baseline
    /// throughput (0 when the baseline committed nothing).
    pub fn speedup(&self) -> f64 {
        let baseline = self.baseline.throughput();
        if baseline > 0.0 {
            self.treatment.throughput() / baseline
        } else {
            0.0
        }
    }
}

/// **Figure 3 (right)**: speedup of `specs[0]` (the treatment; RH1 Fast in
/// the paper) over `specs[1]` (the baseline; Standard HyTM) on the random
/// array, for transaction lengths {400, 200, 100, 40} and write
/// percentages {0, 20, 50, 90}, at the maximum thread count of the sweep.
///
/// # Panics
///
/// If `specs` is not exactly `[treatment, baseline]`.
pub fn fig3_random_array(params: &FigureParams, specs: &[TmSpec]) -> Vec<RandomArrayPoint> {
    let threads = params.thread_counts.iter().copied().max().unwrap_or(1);
    let entries = params.random_array_entries;
    let mut points = Vec::new();
    for txn_len in [400usize, 200, 100, 40] {
        for write_percent in [0u8, 20, 50, 90] {
            let pair = sweep(
                &[threads],
                specs,
                RandomArray::required_words(entries),
                timed(params, 100),
                |sim| RandomArray::new(Arc::clone(sim), entries, txn_len, write_percent),
            );
            let [treatment, baseline]: [BenchResult; 2] = pair
                .try_into()
                .expect("fig3_random_array takes exactly two specs: [treatment, baseline]");
            points.push(RandomArrayPoint {
                txn_len,
                write_percent,
                treatment,
                baseline,
            });
        }
    }
    points
}

/// A capacity ablation: per spec, the same counted two-thread run under
/// each `(read_lines, write_lines)` hardware capacity; rows are
/// `(read_lines, result)`.
fn capacity_sweep<W: Workload>(
    specs: &[TmSpec],
    capacities: [(usize, usize); 5],
    data_words: usize,
    opts: &DriverOpts,
    build: impl Fn(&Arc<HtmSim>) -> W,
) -> Vec<(usize, BenchResult)> {
    let mut rows = Vec::new();
    for spec in specs {
        for (read_lines, write_lines) in capacities {
            let result = spec
                .clone()
                .mem(mem_config(data_words))
                .htm(HtmConfig::with_capacity(read_lines, write_lines))
                .bench(&build, opts);
            rows.push((read_lines, result));
        }
    }
    rows
}

/// **Ablation A1**: how much longer a transaction the mixed slow-path can
/// accommodate compared with the fast-path, as the hardware read capacity
/// shrinks (§1.2's "read-set metadata is ~1/4 the size of the data read").
/// Returns `(read_capacity_lines, result)` rows on the random array, one
/// capacity sweep per spec (paper-default: RH1 Mixed 100).
pub fn ablation_capacity(params: &FigureParams, specs: &[TmSpec]) -> Vec<(usize, BenchResult)> {
    let entries = params.random_array_entries.min(16 * 1024);
    capacity_sweep(
        specs,
        [(512, 64), (128, 64), (64, 64), (32, 64), (16, 64)],
        RandomArray::required_words(entries),
        &DriverOpts::counted_mix(2, OpMix::read_update(100), params.ops_per_thread / 4),
        |sim| RandomArray::new(Arc::clone(sim), entries, 200, 20),
    )
}

/// **Ablation A2**: the global-clock advancement schemes (strict
/// fetch-and-add, GV4 CAS-relaxed, GV5 commit-skip, GV6 sampled, and the
/// fully incrementing baseline — see [`ClockScheme::ALL`]) on the
/// red-black tree at 20% writes: one thread sweep per spec of a series
/// already expanded over the schemes ([`expand_series`]).
///
/// The paper-default base algorithms bracket the design space: TL2 pays
/// the commit-time clock RMW on *every* writing commit (the bottleneck the
/// relaxed schemes remove), while RH1 Mixed 100 only pays it on slow-path
/// RH2 commits, so its clock sensitivity shows up under fallback pressure.
pub fn ablation_clock(params: &FigureParams, specs: &[TmSpec]) -> Vec<BenchResult> {
    rbtree_sweep_per_spec(params, specs)
}

/// **Ablation A4**: retry policies (see [`RetryPolicyHandle::builtin`]) as
/// a measured axis on the red-black tree at 20% writes: one thread sweep
/// per spec of a series already expanded over the policies
/// ([`expand_series`]).
///
/// The paper-default base algorithms bracket the decision sites: the RH
/// variants demote between real tiers (fast-path → mixed slow-path → RH2 →
/// all-software), so their rows show policies shifting work across the
/// cascade.  The other three are pacing-only by construction: pure HTM and
/// TL2 have no slower tier, and `AlgoKind::StdHytm` is the paper's
/// `hardware_only` measurement variant, whose contract drops contention
/// demotes (its fallback-enabled demotion is exercised by
/// `tests/retry_policies.rs` instead).
pub fn ablation_retry(params: &FigureParams, specs: &[TmSpec]) -> Vec<BenchResult> {
    rbtree_sweep_per_spec(params, specs)
}

/// The scenario the Retry 2.0 ablation runs on: the registry's phased
/// flash-crowd skiplist, where a contention spike arrives mid-run — the
/// load shape the circuit breaker and the retry budget were built for.
pub const ABLATION_RETRY2_SCENARIO: &str = "skiplist-flash-crowd";

/// The Retry 2.0 policy series: the paper-default baseline plus the four
/// PR-8 policies (full-jitter and fibonacci backoff, the per-thread
/// circuit breaker and the shared retry budget, all at their defaults).
pub fn retry2_policies() -> Vec<RetryPolicyHandle> {
    vec![
        RetryPolicyHandle::paper_default(),
        RetryPolicyHandle::full_jitter(),
        RetryPolicyHandle::fibonacci(),
        RetryPolicyHandle::circuit_breaker(),
        RetryPolicyHandle::budgeted(),
    ]
}

/// **Ablation A5 (Retry 2.0)**: the circuit-breaker/budget/jitter policies
/// under a flash crowd: one thread sweep per spec of a series already
/// expanded over the policies, on the phased [`ABLATION_RETRY2_SCENARIO`]
/// skiplist.
///
/// Unlike [`ablation_retry`] (stationary rb-tree), this sweep's load is
/// *non-stationary*: the first half is uniform, then 95% of operations
/// land on 1% of the keys.  A fixed pacing policy keeps feeding hardware
/// retries into the crowd; the breaker demotes early and probes its way
/// back, and the budget sheds retries globally — the rows' retry-metrics
/// counters (`circuit_opens`, `budget_exhausted`, ...) show it happening.
/// The paper-default base algorithms bracket demote-willingness: RH1
/// Mixed 10 retries contention aborts in hardware 90% of the time (the
/// breaker's best case), RH1 Mixed 100 demotes on first contention
/// (pacing-bound), and RH2 is the slow-path-only bound.
pub fn ablation_retry2(params: &FigureParams, specs: &[TmSpec]) -> Vec<BenchResult> {
    let scenario =
        Scenario::find(ABLATION_RETRY2_SCENARIO).expect("the flash-crowd scenario is registered");
    // Scale the registered (paper-like) skiplist size in proportion to the
    // figure's rb-tree size so quick-scale runs shrink with the rest of
    // the figures; `sized` floors at the structure's minimum.
    let divisor = (100_000 / params.rbtree_nodes.max(1)).max(1);
    let size = scenario.sized(divisor);
    let mut rows = Vec::new();
    for spec in specs {
        for &threads in &params.thread_counts {
            rows.push(scenario.run_spec(spec, size, &timed(params, 0)(threads)));
        }
    }
    rows
}

/// **Ablation A3**: the cost of the fallback cascade.  The hash table is
/// run with progressively smaller hardware capacities, so transactions are
/// pushed from the fast-path to the mixed slow-path, the RH2 commit and
/// finally the all-software write-back; the `(capacity_lines, result)`
/// rows show the path distribution, one capacity sweep per spec
/// (paper-default: RH1 Mixed 100).
pub fn ablation_fallback(params: &FigureParams, specs: &[TmSpec]) -> Vec<(usize, BenchResult)> {
    let elements = params.hashtable_elements;
    capacity_sweep(
        specs,
        [(512, 8), (16, 8), (8, 8), (4, 4), (2, 2)],
        ConstantHashTable::required_words(elements),
        &DriverOpts::counted_mix(2, OpMix::read_update(50), params.ops_per_thread / 4),
        |sim| ConstantHashTable::new(Arc::clone(sim), elements),
    )
}

/// What a table entry's [`Experiment::run`] returns: the text
/// `figures <name>` prints on stdout, and the raw rows behind it.
type Rendered = (String, Vec<BenchResult>);

/// One experiment of the evaluation: a row of [`EXPERIMENTS`], a
/// subcommand of the `figures` binary.
pub struct Experiment {
    /// The subcommand (and library function) name.
    pub name: &'static str,
    /// One line on what the experiment reproduces (the usage text).
    pub about: &'static str,
    /// The paper-default base series (clock and retry policy at their
    /// defaults); the `spec=` axis replaces it.
    pub algos: &'static [AlgoKind],
    /// The clock schemes swept over every base spec (empty: none);
    /// positional scheme labels replace them.
    pub clocks: &'static [ClockScheme],
    /// The retry policies swept over every base spec (empty: none);
    /// positional policy labels replace them.  An experiment that sweeps
    /// an axis also sweeps threads 1–32 instead of the scale's own sweep.
    pub policies: fn() -> Vec<RetryPolicyHandle>,
    /// The default of the `--writes N` flag, for the experiment taking it.
    pub writes: Option<u8>,
    /// Runs the experiment over an (expanded) series at a write percentage
    /// (ignored unless [`Experiment::writes`] is set) and renders it.
    #[allow(clippy::type_complexity)] // spelled out: it is the table's contract
    pub run: fn(&FigureParams, &[TmSpec], u8) -> (String, Vec<BenchResult>),
}

impl Experiment {
    /// An experiment that sweeps no axis and takes no `--writes`.
    const fn new(
        name: &'static str,
        about: &'static str,
        algos: &'static [AlgoKind],
        run: fn(&FigureParams, &[TmSpec], u8) -> Rendered,
    ) -> Experiment {
        Experiment {
            name,
            about,
            algos,
            clocks: &[],
            policies: Vec::new,
            writes: None,
            run,
        }
    }

    /// Looks an experiment up by its subcommand name.
    pub fn find(name: &str) -> Option<&'static Experiment> {
        EXPERIMENTS.iter().find(|e| e.name == name)
    }
}

/// Every experiment the `figures` binary runs, in the order of the paper's
/// evaluation followed by the ablations.
pub static EXPERIMENTS: [Experiment; 11] = [
    Experiment::new(
        "fig1_rbtree",
        "Figure 1: 100K-node constant RB-tree, 20% writes — instrumentation cost of the hardware fast-path",
        &[AlgoKind::Htm, AlgoKind::StdHytm, AlgoKind::Tl2, AlgoKind::Rh1Fast],
        |p, s, _| {
            let title = "Figure 1: 100K Nodes Constant RB-Tree, 20% mutations";
            series_with_json(title, fig1_rbtree(p, s))
        },
    ),
    Experiment {
        writes: Some(20),
        ..Experiment::new(
            "fig2_rbtree",
            "Figure 2 (top): the RB-tree with the RH1 Mixed slow-path variants [--writes 20|80]",
            &AlgoKind::FIGURE_SET,
            |p, s, writes| {
                let title = format!("Figure 2: 100K Nodes Constant RB-Tree, {writes}% mutations");
                series_with_json(&title, fig2_rbtree(p, s, writes))
            },
        )
    },
    Experiment::new(
        "fig2_breakdown",
        "Figure 2 (middle/bottom) + tables 20_100_R/80_100_R: single-thread speedup and time breakdown",
        &[AlgoKind::Rh1Slow, AlgoKind::Tl2, AlgoKind::StdHytm, AlgoKind::Rh1Fast, AlgoKind::Htm],
        |p, s, _| breakdown_tables(p, s),
    ),
    Experiment::new(
        "fig3_hashtable",
        "Figure 3 (left): constant hash table, 20% writes",
        &[AlgoKind::Htm, AlgoKind::StdHytm, AlgoKind::Tl2, AlgoKind::Rh1Mixed(100)],
        |p, s, _| {
            let title = "Figure 3 (left): Constant Hash Table, 20% mutations";
            series_with_json(title, fig3_hashtable(p, s))
        },
    ),
    Experiment::new(
        "fig3_sortedlist",
        "Figure 3 (middle): 1K-element constant sorted list, 5% writes",
        &AlgoKind::FIGURE_SET,
        |p, s, _| {
            let title = "Figure 3 (middle): 1K Nodes Constant Sorted List, 5% mutations";
            series_with_json(title, fig3_sortedlist(p, s))
        },
    ),
    Experiment::new(
        "fig3_random_array",
        "Figure 3 (right): 128K random array, RH1 speedup over Standard HyTM (spec=treatment,baseline)",
        &[AlgoKind::Rh1Fast, AlgoKind::StdHytm],
        |p, s, _| speedup_matrix(fig3_random_array(p, s)),
    ),
    Experiment::new(
        "ablation_capacity",
        "A1: shrinking hardware read capacity pushes RH1 onto the mixed slow-path",
        &[AlgoKind::Rh1Mixed(100)],
        |p, s, _| {
            let title = "Ablation A1: hardware read-capacity sweep (RH1 Mixed 100, random array, 200 accesses/txn)";
            capacity_table(title, "read-capacity", false, ablation_capacity(p, s))
        },
    ),
    Experiment {
        clocks: &ClockScheme::ALL,
        ..Experiment::new(
            "ablation_clock",
            "A2: global-clock schemes x base specs x threads 1-32 [scheme...]",
            &[AlgoKind::Tl2, AlgoKind::Rh1Mixed(100)],
            |p, s, _| {
                let title = "Ablation A2: global-clock scheme (constant RB-tree, 20% writes)";
                axis_table(title, "scheme", 1, p, ablation_clock(p, s), COMMIT_CTR, commit_ctr)
            },
        )
    },
    Experiment::new(
        "ablation_fallback",
        "A3: the fallback cascade's path distribution under shrinking capacity",
        &[AlgoKind::Rh1Mixed(100)],
        |p, s, _| {
            let title = "Ablation A3: fallback cascade under shrinking hardware capacity (RH1 Mixed 100, constant hash table, 50% writes)";
            capacity_table(title, "capacity", true, ablation_fallback(p, s))
        },
    ),
    Experiment {
        policies: RetryPolicyHandle::builtin,
        ..Experiment::new(
            "ablation_retry",
            "A4: retry policies x base specs x threads 1-32 [policy...] [threads=N,M,..]",
            &[AlgoKind::Htm, AlgoKind::StdHytm, AlgoKind::Tl2, AlgoKind::Rh1Mixed(100), AlgoKind::Rh2],
            |p, s, _| {
                let title = "Ablation A4: retry policy (constant RB-tree, 20% writes)";
                axis_table(title, "policy", 2, p, ablation_retry(p, s), COMMIT_CTR, commit_ctr)
            },
        )
    },
    Experiment {
        policies: retry2_policies,
        ..Experiment::new(
            "ablation_retry2",
            "A5: Retry 2.0 policies under a flash crowd, with circuit/budget counters [policy...] [threads=N,M,..]",
            &[AlgoKind::Rh1Mixed(10), AlgoKind::Rh1Mixed(100), AlgoKind::Rh2],
            |p, s, _| {
                let title = format!("Ablation A5: Retry 2.0 policies ({ABLATION_RETRY2_SCENARIO} scenario)");
                let counters = "  opens  probes  closes exhausted";
                axis_table(&title, "policy", 2, p, ablation_retry2(p, s), counters, |r| {
                    let m = &r.stats.retry;
                    format!(
                        "{:>7} {:>7} {:>7} {:>9}",
                        m.circuit_opens, m.circuit_probes, m.circuit_closes, m.budget_exhausted
                    )
                })
            },
        )
    },
];

/// The clock and retry ablations' trailing column: header and cell.
const COMMIT_CTR: &str = "  commit-ctr";
fn commit_ctr(row: &BenchResult) -> String {
    format!("{:>12.3}", row.commit_ratio())
}

/// A throughput figure's table followed by its `report::to_json` array.
fn series_with_json(title: &str, rows: Vec<BenchResult>) -> Rendered {
    let text = format!(
        "{}\n{}\n",
        report::format_series(title, &rows),
        report::to_json(&rows)
    );
    (text, rows)
}

/// Figure 2's single-thread breakdown and speedup tables at 20% and 80%
/// writes.
fn breakdown_tables(params: &FigureParams, specs: &[TmSpec]) -> Rendered {
    let mut text = String::new();
    let mut all = Vec::new();
    for writes in [20u8, 80] {
        let rows = fig2_breakdown(params, specs, writes);
        text +=
            &format!("# Single-thread breakdown, {writes}% writes (paper table {writes}_100_R)\n");
        for row in &rows {
            text += &format!("{}\n", row.breakdown_row());
        }
        let speedups = single_thread_speedups(&rows);
        if speedups.is_empty() {
            text += "# (no TL2 row in the series; speedups-normalised-to-TL2 skipped)\n";
        } else {
            text += "# Single-thread speedup normalised to TL2\n";
            for (name, speedup) in speedups {
                text += &format!("{name:<16} {speedup:>6.2}x\n");
            }
        }
        text.push('\n');
        all.extend(rows);
    }
    (text, all)
}

/// Figure 3 (right)'s speedup matrix, then the same points as JSON
/// (hand-rolled like `report::to_json`) for plotting scripts.
fn speedup_matrix(points: Vec<RandomArrayPoint>) -> Rendered {
    let mut text =
        String::from("# Figure 3 (right): 128K Random Array — RH1 speedup vs Standard HyTM\n");
    text += &format!(
        "{:>8} {:>8} {:>14} {:>14} {:>9}\n",
        "txn-len", "writes%", "RH1 ops/s", "StdHyTM ops/s", "speedup"
    );
    let mut json = Vec::new();
    let mut rows = Vec::new();
    for p in points {
        let (len, writes, speedup) = (p.txn_len, p.write_percent, p.speedup());
        let (rh1, std) = (p.treatment.throughput(), p.baseline.throughput());
        text += &format!("{len:>8} {writes:>8} {rh1:>14.0} {std:>14.0} {speedup:>8.2}x\n");
        json.push(format!(
            "  {{\"txn_len\": {len}, \"write_percent\": {writes}, \"rh1_ops_per_sec\": {rh1}, \"std_hytm_ops_per_sec\": {std}, \"speedup\": {speedup}}}"
        ));
        rows.extend([p.treatment, p.baseline]);
    }
    text += &format!("[\n{}\n]\n", json.join(",\n"));
    (text, rows)
}

/// A capacity ablation's rows, optionally with each row's abort causes.
fn capacity_table(
    title: &str,
    label: &str,
    abort_causes: bool,
    rows: Vec<(usize, BenchResult)>,
) -> Rendered {
    let mut text = format!("# {title}\n");
    for (capacity, row) in &rows {
        text += &format!("{label} {capacity:>4} lines: {}\n", row.throughput_row());
        if abort_causes {
            for (cause, count) in row.abort_causes() {
                text += &format!("    aborts[{cause}] = {count}\n");
            }
        }
    }
    (text, rows.into_iter().map(|(_, row)| row).collect())
}

/// A clock/policy ablation's table: the swept value is component
/// `component` of each row's `algo+clock+policy` spec label, and `tail`
/// renders the experiment's own trailing column(s) under `tail_header`.
fn axis_table(
    title: &str,
    axis: &str,
    component: usize,
    params: &FigureParams,
    rows: Vec<BenchResult>,
    tail_header: &str,
    tail: fn(&BenchResult) -> String,
) -> Rendered {
    let mut text = format!(
        "# {title}\n# threads swept: {:?}\n{:<14} {:<16} {:>8} {:>14} {:>12} {}\n",
        params.thread_counts, axis, "algorithm", "threads", "ops/s", "abort-rate", tail_header
    );
    for r in &rows {
        text += &format!(
            "{:<14} {:<16} {:>8} {:>14.0} {:>11.2}% {}\n",
            r.spec.split('+').nth(component).unwrap_or(""),
            r.algorithm,
            r.threads,
            r.throughput(),
            r.abort_ratio() * 100.0,
            tail(r),
        );
    }
    (text, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Scale;

    fn tiny_params() -> FigureParams {
        FigureParams {
            rbtree_nodes: 1_000,
            hashtable_elements: 512,
            sortedlist_elements: 64,
            random_array_entries: 2_048,
            thread_counts: vec![1, 2],
            duration: std::time::Duration::from_millis(20),
            ops_per_thread: 200,
        }
    }

    /// The series `figures <name>` runs when given no arguments.
    fn default_series(name: &str) -> Vec<TmSpec> {
        let exp = Experiment::find(name).unwrap();
        crate::cli::figure_args(exp, &[]).unwrap().specs
    }

    #[test]
    fn fig1_produces_a_row_per_algo_and_thread_count() {
        let rows = fig1_rbtree(&tiny_params(), &default_series("fig1_rbtree"));
        assert_eq!(rows.len(), 2 * 4);
        assert!(rows.iter().all(|r| r.total_ops > 0));
        assert!(rows.iter().all(|r| !r.spec.is_empty()), "spec recorded");
    }

    #[test]
    fn fig2_breakdown_contains_the_papers_five_rows() {
        let rows = fig2_breakdown(&tiny_params(), &default_series("fig2_breakdown"), 20);
        let names: Vec<_> = rows.iter().map(|r| r.algorithm.as_str()).collect();
        assert_eq!(
            names,
            vec!["RH1 Slow", "TL2", "Standard HyTM", "RH1 Fast", "HTM"]
        );
        assert!(rows.iter().all(|r| r.breakdown.is_some()));
        let speedups = single_thread_speedups(&rows);
        let tl2 = speedups.iter().find(|(n, _)| n == "TL2").unwrap().1;
        assert!((tl2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig3_random_array_matrix_has_16_points() {
        let mut p = tiny_params();
        p.duration = std::time::Duration::from_millis(10);
        let points = fig3_random_array(&p, &default_series("fig3_random_array"));
        assert_eq!(points.len(), 16);
        assert!(points.iter().all(|pt| pt.treatment.total_ops > 0));
        assert!(points.iter().all(|pt| pt.treatment.algorithm == "RH1 Fast"));
        assert!(points.iter().all(|pt| pt.speedup() > 0.0));
    }

    #[test]
    fn speedups_without_a_tl2_baseline_are_refused_not_mislabeled() {
        let rows = fig2_breakdown(&tiny_params(), &[TmSpec::new(AlgoKind::Htm)], 20);
        assert!(single_thread_speedups(&rows).is_empty());
    }

    #[test]
    fn figures_honour_an_explicit_spec_series() {
        let p = tiny_params();
        let specs = vec![
            TmSpec::parse("rh2+gv6+adaptive").unwrap(),
            TmSpec::parse("tl2+gv5").unwrap(),
        ];
        let rows = fig1_rbtree(&p, &specs);
        assert_eq!(rows.len(), 2 * 2);
        assert_eq!(rows[0].spec, "rh2+gv6+adaptive");
        assert_eq!(rows[1].spec, "tl2+gv5+paper-default");
        assert!(rows.iter().all(|r| r.total_ops > 0));
    }

    /// The axis ablations' shared shape: swept values × base algorithms ×
    /// thread counts, value-major, every row committing work and carrying
    /// its swept value as `component` of the `algo+clock+policy` spec label.
    fn assert_swept_rows(rows: &[BenchResult], swept: &[&str], component: usize, algos: usize) {
        let per_value = algos * tiny_params().thread_counts.len();
        assert_eq!(rows.len(), swept.len() * per_value);
        for (i, row) in rows.iter().enumerate() {
            assert!(row.stats.commits() > 0, "{} produced no commits", row.spec);
            assert_eq!(
                row.spec.split('+').nth(component),
                Some(swept[i / per_value])
            );
        }
    }

    /// `name`'s base series expanded over `policies`, and their labels.
    fn policy_series(name: &str, policies: [RetryPolicyHandle; 2]) -> (Vec<TmSpec>, [&str; 2]) {
        let algos = Experiment::find(name).unwrap().algos;
        let bases: Vec<_> = algos.iter().map(|&k| TmSpec::new(k)).collect();
        let labels = [policies[0].label(), policies[1].label()];
        (expand_series(&bases, &[], &policies), labels)
    }

    #[test]
    fn ablations_produce_rows() {
        let p = tiny_params();
        let clock_rows = ablation_clock(&p, &default_series("ablation_clock"));
        let schemes = ClockScheme::ALL.map(|s| s.label());
        assert_swept_rows(&clock_rows, &schemes, 1, 2);
        let capacity_rows = ablation_capacity(&p, &default_series("ablation_capacity"));
        assert_eq!(capacity_rows.len(), 5);
        let fallback_rows = ablation_fallback(&p, &default_series("ablation_fallback"));
        assert_eq!(fallback_rows.len(), 5);
    }

    #[test]
    fn retry_ablation_produces_committing_rows_per_policy() {
        let policies = [
            RetryPolicyHandle::paper_default(),
            RetryPolicyHandle::adaptive(),
        ];
        let (series, labels) = policy_series("ablation_retry", policies);
        assert_swept_rows(&ablation_retry(&tiny_params(), &series), &labels, 2, 5);
    }

    #[test]
    fn retry2_ablation_runs_the_phased_scenario_per_policy() {
        let policies = [
            RetryPolicyHandle::paper_default(),
            RetryPolicyHandle::circuit_breaker(),
        ];
        let (series, labels) = policy_series("ablation_retry2", policies);
        let rows = ablation_retry2(&tiny_params(), &series);
        assert_swept_rows(&rows, &labels, 2, 3);
        for row in &rows {
            // The flash-crowd scenario drives the workload name.
            assert!(row.workload.contains("skiplist"), "{}", row.workload);
            // The always-on metrics stay internally consistent: every
            // circuit close requires a preceding open and an admitted
            // probe, and only the breaker rows may report circuit
            // transitions at all.
            let m = &row.stats.retry;
            assert!(m.circuit_closes <= m.circuit_opens, "{}", row.spec);
            assert!(m.circuit_closes <= m.circuit_probes, "{}", row.spec);
            if !row.spec.ends_with("+cb") {
                assert_eq!(m.circuit_opens, 0, "{}", row.spec);
            }
        }
    }

    #[test]
    fn every_table_entry_is_named_once_has_a_series_and_runs() {
        let mut p = tiny_params();
        p.duration = std::time::Duration::from_millis(10);
        let one = TmSpec::parse("rh1-mixed-100+gv5+adaptive").unwrap();
        for (i, exp) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|other| other.name != exp.name),
                "{} is listed twice",
                exp.name
            );
            assert!(!default_series(exp.name).is_empty(), "{}", exp.name);
            // The one experiment comparing a pair runs the spec against
            // itself.
            let pair = usize::from(exp.name == "fig3_random_array");
            let (text, rows) = (exp.run)(&p, &vec![one.clone(); 1 + pair], 20);
            assert!(text.lines().count() > 1, "{} rendered nothing", exp.name);
            assert!(!rows.is_empty(), "{} returned no rows", exp.name);
            for row in &rows {
                assert!(row.total_ops > 0, "{}: {} idle", exp.name, row.spec);
                assert_eq!(row.spec, one.label(), "{}", exp.name);
            }
        }
    }

    #[test]
    fn quick_scale_figures_are_wired_to_real_sizes() {
        let q = FigureParams::new(Scale::Quick);
        assert!(q.rbtree_nodes >= 10_000);
    }
}

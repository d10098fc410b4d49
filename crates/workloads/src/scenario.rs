//! The scenario registry: named `structure × size × mix × distribution`
//! combinations, runnable on any [`AlgoKind`].
//!
//! A [`Scenario`] is one point in the workload-shape space the engine can
//! sweep; the registry ([`Scenario::all`]) names the interesting ones so a
//! whole benchmark campaign is a loop over
//! `(Scenario, AlgoKind, threads)` — exactly as PR 1 made the global clock
//! and PR 2 the retry policy sweepable by name.  The `bench_suite` binary
//! in `rhtm-bench` drives this registry and emits one machine-readable
//! JSON document (see [`suite_to_json`]).
//!
//! Registered sizes are the paper-like scale; [`Scenario::sized`] scales
//! them down for quick/smoke runs while keeping every structure above its
//! interesting minimum.

use std::sync::Arc;

use rhtm_htm::HtmSim;
use rhtm_mem::MemConfig;

use crate::algos::AlgoKind;
use crate::driver::DriverOpts;
use crate::mix::OpMix;
use crate::phase::PhasePlan;
use crate::report::{json_str, result_json, BenchResult};
use crate::rng::KeyDist;
use crate::spec::TmSpec;
use crate::structures::bank::TxBank;
use crate::structures::hashtable::ConstantHashTable;
use crate::structures::queue::TxQueue;
use crate::structures::random_array::RandomArray;
use crate::structures::rbtree::ConstantRbTree;
use crate::structures::skiplist::TxSkipList;
use crate::structures::sortedlist::ConstantSortedList;

/// Accesses per transaction for the random-array scenarios (the paper's
/// mid-length configuration).
const RANDOM_ARRAY_TXN_LEN: usize = 100;

/// The structures a scenario can run over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StructureKind {
    /// Constant-shape red-black tree (paper §3.2).
    RbTree,
    /// Constant-shape chained hash table (paper §3.3).
    HashTable,
    /// Constant-shape sorted linked list (paper §3.4).
    SortedList,
    /// Random-access array with configurable transaction length (§3.5).
    RandomArray,
    /// Mutable transactional skiplist (shape-changing inserts/removals).
    SkipList,
    /// Mutable transactional bounded FIFO queue (producer/consumer).
    Queue,
    /// Composed bank: hash-table accounts + skiplist audit ring in one
    /// transaction (see [`crate::structures::bank`]).
    Bank,
}

impl StructureKind {
    /// Stable label used in reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            StructureKind::RbTree => "rbtree",
            StructureKind::HashTable => "hashtable",
            StructureKind::SortedList => "sortedlist",
            StructureKind::RandomArray => "random-array",
            StructureKind::SkipList => "skiplist",
            StructureKind::Queue => "queue",
            StructureKind::Bank => "bank",
        }
    }

    /// Whether transactions change the structure's shape (see
    /// `structures::mod` for the constant/mutable split; the composed
    /// bank counts as mutable through its audit ring).
    pub fn is_mutable(&self) -> bool {
        matches!(
            self,
            StructureKind::SkipList | StructureKind::Queue | StructureKind::Bank
        )
    }

    /// The smallest size at which the structure's workload stays
    /// meaningful (floor applied by [`Scenario::sized`]).
    fn min_size(&self) -> u64 {
        match self {
            StructureKind::RbTree => 512,
            StructureKind::HashTable => 256,
            StructureKind::SortedList => 64,
            StructureKind::RandomArray => 1_024,
            StructureKind::SkipList => 256,
            StructureKind::Queue => 64,
            StructureKind::Bank => 32,
        }
    }
}

/// Audit-ring capacity for the bank scenarios: large enough that smoke
/// runs never cycle it, small enough that sustained runs exercise the
/// insert-and-evict recycling path.
const BANK_AUDIT_CAP: u64 = 128;

/// Every bank account starts with this balance (the conserved quantity
/// is `size × BANK_INITIAL_BALANCE`).
const BANK_INITIAL_BALANCE: u64 = 1_000;

/// One named point in the workload-shape space:
/// `structure × size × mix × distribution`.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Unique registry name (CLI handle and JSON `scenario` field).
    pub name: &'static str,
    /// The structure the operations run over.
    pub structure: StructureKind,
    /// Size at paper-like scale: elements for the search structures,
    /// entries for the array, capacity for the queue.
    pub base_size: u64,
    /// The weighted operation mix.
    pub mix: OpMix,
    /// The key-access distribution.
    pub dist: KeyDist,
    /// Optional time-varying load schedule layered over `dist` (the
    /// phase plan replaces `dist` as the sampler when set; see
    /// [`crate::phase`]).
    pub phases: Option<PhasePlan>,
    /// One-line description shown by `bench_suite --list`.
    pub about: &'static str,
}

/// The registry.  Order is display order; names must stay unique and
/// stable (they key the `bench_suite` JSON and `benchmark/`'s workloads).
const REGISTRY: &[Scenario] = &[
    Scenario {
        name: "rbtree-uniform",
        structure: StructureKind::RbTree,
        base_size: 100_000,
        mix: OpMix::read_update(20),
        dist: KeyDist::Uniform,
        phases: None,
        about: "the paper's Figure 1/2 point: constant 100K-node tree, 20% dummy updates",
    },
    Scenario {
        name: "rbtree-zipf",
        structure: StructureKind::RbTree,
        base_size: 100_000,
        mix: OpMix::read_update(20),
        dist: KeyDist::ZIPF_DEFAULT,
        phases: None,
        about: "the Figure 1 tree under YCSB-style zipfian skew (hot subtree contention)",
    },
    Scenario {
        name: "rbtree-write-heavy-hotspot",
        structure: StructureKind::RbTree,
        base_size: 100_000,
        mix: OpMix::read_update(80),
        dist: KeyDist::HOTSPOT_DEFAULT,
        phases: None,
        about: "80% updates with 90% of operations on 10% of the keys: conflict saturation",
    },
    Scenario {
        name: "hashtable-uniform",
        structure: StructureKind::HashTable,
        base_size: 10_000,
        mix: OpMix::read_update(20),
        dist: KeyDist::Uniform,
        phases: None,
        about: "the paper's Figure 3 (left): short-transaction constant hash table",
    },
    Scenario {
        name: "hashtable-zipf",
        structure: StructureKind::HashTable,
        base_size: 10_000,
        mix: OpMix::read_update(20),
        dist: KeyDist::ZIPF_DEFAULT,
        phases: None,
        about: "short transactions with zipfian skew: conflicts without footprint",
    },
    Scenario {
        name: "hashtable-partitioned",
        structure: StructureKind::HashTable,
        base_size: 10_000,
        mix: OpMix::read_update(50),
        dist: KeyDist::Partitioned,
        phases: None,
        about: "thread-partitioned keys at 50% updates: the conflict-free upper bound",
    },
    Scenario {
        name: "sortedlist-uniform",
        structure: StructureKind::SortedList,
        base_size: 1_000,
        mix: OpMix::read_update(5),
        dist: KeyDist::Uniform,
        phases: None,
        about: "the paper's Figure 3 (middle): long shared-prefix transactions, 5% updates",
    },
    Scenario {
        name: "sortedlist-hotspot",
        structure: StructureKind::SortedList,
        base_size: 1_000,
        mix: OpMix::read_update(5),
        dist: KeyDist::HOTSPOT_DEFAULT,
        phases: None,
        about: "the long-transaction list with a 90/10 hotspot at the front",
    },
    Scenario {
        name: "random-array-uniform",
        structure: StructureKind::RandomArray,
        base_size: 128 * 1024,
        mix: OpMix::read_update(20),
        dist: KeyDist::Uniform,
        phases: None,
        about: "the paper's Figure 3 (right) shape: 100-access transactions, 20% writes",
    },
    Scenario {
        name: "skiplist-uniform",
        structure: StructureKind::SkipList,
        base_size: 16_384,
        mix: OpMix::lookup_insert_remove(70, 15, 15),
        dist: KeyDist::Uniform,
        phases: None,
        about: "mutable skiplist, shape-changing 70/15/15 lookup/insert/remove churn",
    },
    Scenario {
        name: "skiplist-zipf",
        structure: StructureKind::SkipList,
        base_size: 16_384,
        mix: OpMix::lookup_insert_remove(70, 15, 15),
        dist: KeyDist::ZIPF_DEFAULT,
        phases: None,
        about: "skiplist churn under zipfian skew: hot towers are rebuilt under contention",
    },
    Scenario {
        name: "skiplist-range-zipf",
        structure: StructureKind::SkipList,
        base_size: 16_384,
        mix: OpMix::new([30, 30, 10, 15, 15]),
        dist: KeyDist::ZIPF_DEFAULT,
        phases: None,
        about: "30% range sums over a churning skiplist: long reads racing shape changes",
    },
    Scenario {
        name: "queue-balanced",
        structure: StructureKind::Queue,
        base_size: 4_096,
        mix: OpMix::producer_consumer(50, 50),
        dist: KeyDist::Uniform,
        phases: None,
        about: "bounded FIFO, 50/50 enqueue/dequeue: every transaction fights over two words",
    },
    Scenario {
        name: "queue-producer-heavy",
        structure: StructureKind::Queue,
        base_size: 4_096,
        mix: OpMix::producer_consumer(60, 30),
        dist: KeyDist::Uniform,
        phases: None,
        about: "producer-heavy FIFO (60/30/10 enqueue/dequeue/peek) driving the queue full",
    },
    Scenario {
        name: "queue-consumer-heavy",
        structure: StructureKind::Queue,
        base_size: 4_096,
        mix: OpMix::producer_consumer(30, 60),
        dist: KeyDist::Uniform,
        phases: None,
        about: "consumer-heavy FIFO (30/60/10) draining to empty: read-only commit pressure",
    },
    Scenario {
        name: "bank-transfer-uniform",
        structure: StructureKind::Bank,
        base_size: 4_096,
        mix: OpMix::new([30, 0, 70, 0, 0]),
        dist: KeyDist::Uniform,
        phases: None,
        about: "composed transfers: hash-table debit + skiplist audit append in one txn",
    },
    Scenario {
        name: "bank-transfer-zipf",
        structure: StructureKind::Bank,
        base_size: 4_096,
        mix: OpMix::new([30, 0, 70, 0, 0]),
        dist: KeyDist::ZIPF_DEFAULT,
        phases: None,
        about:
            "composed transfers with zipfian account skew: hot accounts serialize both structures",
    },
    Scenario {
        name: "bank-analytics-scan",
        structure: StructureKind::Bank,
        base_size: 4_096,
        mix: OpMix::new([20, 10, 70, 0, 0]),
        dist: KeyDist::Uniform,
        phases: None,
        about: "10% full-table analytics scans racing OLTP transfers: the capacity-abort stress",
    },
    Scenario {
        name: "bank-diurnal",
        structure: StructureKind::Bank,
        base_size: 4_096,
        mix: OpMix::new([30, 0, 70, 0, 0]),
        dist: KeyDist::Uniform,
        phases: Some(PhasePlan::Diurnal),
        about: "composed transfers under a diurnal ramp: uniform -> 60/20 hotspot -> uniform",
    },
    Scenario {
        name: "skiplist-flash-crowd",
        structure: StructureKind::SkipList,
        base_size: 16_384,
        mix: OpMix::lookup_insert_remove(70, 15, 15),
        dist: KeyDist::Uniform,
        phases: Some(PhasePlan::FlashCrowd),
        about: "skiplist churn hit by a flash crowd: 95% of late traffic on 1% of the keys",
    },
    Scenario {
        name: "skiplist-hot-migration",
        structure: StructureKind::SkipList,
        base_size: 16_384,
        mix: OpMix::lookup_insert_remove(70, 15, 15),
        dist: KeyDist::Uniform,
        phases: Some(PhasePlan::HotMigration),
        about: "a 90/10 hotspot migrating across thirds of the key space as the run progresses",
    },
    Scenario {
        name: "kv-shard-local-point",
        structure: StructureKind::SkipList,
        base_size: 2_048,
        mix: OpMix::lookup_insert_remove(70, 20, 10),
        dist: KeyDist::Uniform,
        phases: None,
        about: "one rhtm_kv shard's slice of point traffic: closed-loop ceiling for bench_kv",
    },
    Scenario {
        name: "kv-shard-local-hot",
        structure: StructureKind::SkipList,
        base_size: 1_024,
        mix: OpMix::lookup_insert_remove(50, 25, 25),
        dist: KeyDist::HOTSPOT_DEFAULT,
        phases: None,
        about: "a hot kv shard partition: small key slice, churn-heavy, 90/10 hotspot",
    },
];

impl Scenario {
    /// Every registered scenario, in display order.
    pub fn all() -> &'static [Scenario] {
        REGISTRY
    }

    /// Looks a scenario up by its registry name (case-insensitive).
    pub fn find(name: &str) -> Option<&'static Scenario> {
        let name = name.trim().to_ascii_lowercase();
        REGISTRY.iter().find(|s| s.name == name)
    }

    /// The size to run at when the base size is divided by `divisor`
    /// (1 = paper scale), floored at the structure's meaningful minimum.
    pub fn sized(&self, divisor: u64) -> u64 {
        (self.base_size / divisor.max(1)).max(self.structure.min_size())
    }

    /// Runs this scenario at `size` elements on `algo` with every other
    /// runtime axis at its default.  Shorthand for
    /// [`Scenario::run_spec`] with `TmSpec::new(algo)`.
    pub fn run(&self, algo: AlgoKind, size: u64, base: &DriverOpts) -> BenchResult {
        self.run_spec(&TmSpec::new(algo), size, base)
    }

    /// Runs this scenario at `size` elements on the runtime point `spec`
    /// names.
    ///
    /// `base` supplies threads/duration/seed; its mix and distribution are
    /// overridden by the scenario's.  The scenario owns the *memory
    /// sizing* (each structure declares its `required_words`), so the
    /// spec's [`MemConfig`] is replaced by a scenario-sized one — keeping
    /// the spec's resolved clock scheme — while its algorithm, retry
    /// policy and HTM shape are honoured as given.  Mutable structures
    /// are prefilled half-full before the workers start, so inserts and
    /// removals both find work.
    pub fn run_spec(&self, spec: &TmSpec, size: u64, base: &DriverOpts) -> BenchResult {
        let opts = DriverOpts {
            mix: self.mix,
            dist: self.dist,
            phases: self.phases,
            ..base.clone()
        };
        let sized = |words: usize| {
            spec.clone().mem(MemConfig {
                clock_scheme: spec.clock_scheme(),
                ..MemConfig::with_data_words(words + 4096)
            })
        };
        match self.structure {
            StructureKind::RbTree => sized(ConstantRbTree::required_words(size)).bench(
                |sim: &Arc<HtmSim>| ConstantRbTree::new(Arc::clone(sim), size),
                &opts,
            ),
            StructureKind::HashTable => sized(ConstantHashTable::required_words(size)).bench(
                |sim: &Arc<HtmSim>| ConstantHashTable::new(Arc::clone(sim), size),
                &opts,
            ),
            StructureKind::SortedList => sized(ConstantSortedList::required_words(size)).bench(
                |sim: &Arc<HtmSim>| ConstantSortedList::new(Arc::clone(sim), size),
                &opts,
            ),
            StructureKind::RandomArray => sized(RandomArray::required_words(size)).bench(
                // The array's internal write ratio follows the scenario's
                // mix (see the RandomArray workload docs).
                |sim: &Arc<HtmSim>| {
                    RandomArray::new(
                        Arc::clone(sim),
                        size,
                        RANDOM_ARRAY_TXN_LEN,
                        self.mix.update_percent(),
                    )
                },
                &opts,
            ),
            StructureKind::SkipList => sized(TxSkipList::required_words(size, opts.threads)).bench(
                |sim: &Arc<HtmSim>| {
                    let list = TxSkipList::new(Arc::clone(sim), size);
                    list.prefill_alternate();
                    list
                },
                &opts,
            ),
            StructureKind::Queue => sized(TxQueue::required_words(size)).bench(
                |sim: &Arc<HtmSim>| {
                    let queue = TxQueue::new(Arc::clone(sim), size);
                    queue.seed_fill(0..size / 2);
                    queue
                },
                &opts,
            ),
            StructureKind::Bank => {
                sized(TxBank::required_words(size, BANK_AUDIT_CAP, opts.threads)).bench(
                    |sim: &Arc<HtmSim>| {
                        TxBank::new(Arc::clone(sim), size, BANK_INITIAL_BALANCE, BANK_AUDIT_CAP)
                    },
                    &opts,
                )
            }
        }
    }

    /// The phase-plan label, `"none"` for stationary scenarios (reports
    /// and JSON).
    pub fn phases_label(&self) -> &'static str {
        self.phases.map_or("none", |p| p.label())
    }
}

/// The results of one scenario swept over algorithms and thread counts.
#[derive(Clone, Debug)]
pub struct ScenarioRun {
    /// The registered scenario that produced the rows.
    pub scenario: &'static Scenario,
    /// The size the scenario actually ran at (after scaling).
    pub size: u64,
    /// One row per `(algorithm, threads)` point.
    pub results: Vec<BenchResult>,
}

/// Serialises a whole suite sweep as **one** JSON document.
///
/// The schema is stable and documented in `docs/BENCHMARKS.md`:
///
/// ```json
/// {
///   "suite": "rhtm-bench-suite",
///   "schema_version": 1,
///   "scale": "...", "seed": N,
///   "scenarios": [
///     { "scenario": "...", "structure": "...", "size": N,
///       "op_mix": "...", "key_dist": "...",
///       "results": [ { ...BenchResult row... } ] }
///   ]
/// }
/// ```
///
/// Per-result rows repeat `op_mix`/`key_dist`/`seed` so each row is
/// self-describing when flattened by plotting scripts.
pub fn suite_to_json(scale: &str, seed: u64, runs: &[ScenarioRun]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"suite\": \"rhtm-bench-suite\",\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!("  \"scale\": {},\n", json_str(scale)));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str("  \"scenarios\": [\n");
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("  {\n");
        out.push_str(&format!(
            "    \"scenario\": {},\n",
            json_str(run.scenario.name)
        ));
        out.push_str(&format!(
            "    \"structure\": {},\n",
            json_str(run.scenario.structure.label())
        ));
        out.push_str(&format!("    \"size\": {},\n", run.size));
        out.push_str(&format!(
            "    \"op_mix\": {},\n",
            json_str(&run.scenario.mix.label())
        ));
        out.push_str(&format!(
            "    \"key_dist\": {},\n",
            json_str(&run.scenario.dist.label())
        ));
        out.push_str(&format!(
            "    \"phases\": {},\n",
            json_str(run.scenario.phases_label())
        ));
        out.push_str("    \"results\": [\n");
        for (j, r) in run.results.iter().enumerate() {
            if j > 0 {
                out.push_str(",\n");
            }
            out.push_str(&result_json(r));
        }
        out.push_str("\n    ]\n  }");
    }
    out.push_str("\n  ]\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::validate_json;

    #[test]
    fn registry_is_large_unique_and_findable() {
        let all = Scenario::all();
        assert!(all.len() >= 20, "registry must name at least 20 scenarios");
        for (i, s) in all.iter().enumerate() {
            assert!(Scenario::find(s.name).is_some(), "{}", s.name);
            for other in &all[i + 1..] {
                assert_ne!(s.name, other.name, "duplicate scenario name");
            }
        }
        assert!(Scenario::find("QUEUE-BALANCED").is_some(), "case-folded");
        assert!(Scenario::find("no-such-scenario").is_none());
    }

    #[test]
    fn registry_covers_the_required_shapes() {
        let all = Scenario::all();
        assert!(all
            .iter()
            .any(|s| s.structure == StructureKind::SkipList && s.structure.is_mutable()));
        assert!(all.iter().any(|s| s.structure == StructureKind::Queue));
        let dists: std::collections::HashSet<_> = all.iter().map(|s| s.dist.label()).collect();
        assert!(
            dists.len() >= 2,
            "at least two key distributions: {dists:?}"
        );
        assert!(all.iter().any(|s| s.mix.label().contains('i')), "inserts");
        assert!(
            all.iter().any(|s| s.structure == StructureKind::Bank),
            "composed bank scenarios"
        );
        let plans: std::collections::HashSet<_> = all.iter().filter_map(|s| s.phases).collect();
        assert!(
            plans.len() >= 3,
            "all three phase plans must be registered: {plans:?}"
        );
    }

    #[test]
    fn sized_scales_down_but_respects_minimums() {
        let s = Scenario::find("rbtree-uniform").unwrap();
        assert_eq!(s.sized(1), 100_000);
        assert_eq!(s.sized(10), 10_000);
        assert_eq!(s.sized(u64::MAX), s.structure.min_size());
    }

    #[test]
    fn every_scenario_runs_on_the_default_algorithm() {
        for s in Scenario::all() {
            let size = s.sized(1_024);
            let opts = DriverOpts::counted_mix(2, OpMix::read_update(0), 60).with_seed(5);
            let result = s.run(AlgoKind::Rh1Mixed(100), size, &opts);
            assert_eq!(result.total_ops, 120, "{}", s.name);
            assert_eq!(result.stats.commits(), 120, "{}", s.name);
            assert_eq!(result.op_mix, s.mix.label(), "{}", s.name);
            assert_eq!(result.key_dist, s.dist.label(), "{}", s.name);
            assert_eq!(result.write_percent, s.mix.update_percent(), "{}", s.name);
        }
    }

    #[test]
    fn every_scenario_honours_a_full_spec() {
        use rhtm_api::RetryPolicyHandle;
        use rhtm_mem::ClockScheme;

        let spec = TmSpec::new(AlgoKind::Rh2)
            .clock(ClockScheme::Gv6)
            .retry(RetryPolicyHandle::adaptive());
        for s in Scenario::all() {
            let size = s.sized(2_048);
            let opts = DriverOpts::counted_mix(2, OpMix::read_update(0), 40).with_seed(3);
            let result = s.run_spec(&spec, size, &opts);
            assert_eq!(result.total_ops, 80, "{}", s.name);
            assert_eq!(result.spec, "rh2+gv6+adaptive", "{}", s.name);
            assert_eq!(result.algorithm, "RH2", "{}", s.name);
        }
    }

    #[test]
    fn suite_json_is_valid_and_self_describing() {
        let scenario = Scenario::find("skiplist-zipf").unwrap();
        let size = scenario.sized(1_024);
        let results = vec![scenario.run(
            AlgoKind::Tl2,
            size,
            &DriverOpts::counted_mix(2, OpMix::read_update(0), 40).with_seed(9),
        )];
        let runs = vec![ScenarioRun {
            scenario,
            size,
            results,
        }];
        let json = suite_to_json("quick", 9, &runs);
        validate_json(&json).expect("suite JSON must parse");
        for field in [
            "\"suite\": \"rhtm-bench-suite\"",
            "\"schema_version\": 1",
            "\"scenario\": \"skiplist-zipf\"",
            "\"structure\": \"skiplist\"",
            "\"key_dist\": \"zipf-0.99\"",
            "\"op_mix\": \"l70-i15-r15\"",
            "\"phases\": \"none\"",
            "\"spec\": \"tl2+gv-strict+paper-default\"",
            "\"seed\": 9",
        ] {
            assert!(json.contains(field), "missing {field}");
        }
    }
}

//! The unified benchmark suite: every registered scenario swept over
//! algorithms and thread counts, emitted as **one** schema-stable JSON
//! document.
//!
//! The `figures` subcommands each reproduce one experiment of the
//! paper (or one ablation) with bespoke output; this module is the
//! machine-facing complement — a single sweep definition whose output
//! (`suite_to_json`, schema in `docs/BENCHMARKS.md`) downstream tooling
//! can diff across commits.

use std::time::Duration;

use rhtm_workloads::scenario::{suite_to_json, Scenario, ScenarioRun};
use rhtm_workloads::{AlgoKind, DriverOpts, OpMix, TmSpec};

use crate::params::Scale;

/// Parameters of one suite sweep.
#[derive(Clone, Debug)]
pub struct SuiteParams {
    /// Label recorded in the JSON document (`paper`, `quick`, `smoke`).
    pub scale_label: String,
    /// Scenarios to run (defaults to the whole registry).
    pub scenarios: Vec<&'static Scenario>,
    /// Runtime points each scenario is swept over (the `spec=` CLI axis;
    /// a plain algorithm sweep is just specs with default clock/policy).
    pub specs: Vec<TmSpec>,
    /// Thread counts each `(scenario, algorithm)` pair is swept over.
    pub thread_counts: Vec<usize>,
    /// Divisor applied to every scenario's registered (paper-like) size.
    pub size_divisor: u64,
    /// Measurement interval per point.
    pub duration: Duration,
    /// Base RNG seed (recorded in the document; per-thread streams derive
    /// from it).
    pub seed: u64,
}

impl SuiteParams {
    /// The default sweep at a scale: the whole registry across the paper's
    /// six figure algorithms ([`AlgoKind::FIGURE_SET`]) at default
    /// clock/policy specs.
    pub fn new(scale: Scale) -> Self {
        // Like every other bench binary, never sweep past the host's
        // parallelism by default (an explicit `threads=` override still
        // can).
        let figure = crate::params::FigureParams::new(scale).clamp_threads_to_host();
        let (label, divisor) = match scale {
            Scale::Paper => ("paper", 1),
            Scale::Quick => ("quick", 8),
        };
        SuiteParams {
            scale_label: label.to_string(),
            scenarios: Scenario::all().iter().collect(),
            specs: AlgoKind::FIGURE_SET
                .iter()
                .map(|&k| TmSpec::new(k))
                .collect(),
            thread_counts: figure.thread_counts,
            size_divisor: divisor,
            duration: figure.duration,
            seed: 0xbe6c_c0de,
        }
    }

    /// The CI smoke configuration: every scenario and algorithm, but tiny
    /// sizes, two threads and a 10 ms interval — enough to validate the
    /// plumbing and the emitted document, fast enough for every push.
    pub fn smoke() -> Self {
        SuiteParams {
            scale_label: "smoke".to_string(),
            thread_counts: vec![2],
            size_divisor: 64,
            duration: Duration::from_millis(10),
            ..SuiteParams::new(Scale::Quick)
        }
    }
}

/// Runs the sweep: for every scenario, every algorithm × thread count.
///
/// `progress` is called before each scenario starts (the binary reports on
/// stderr so stdout stays a single JSON document).
pub fn run_suite(
    params: &SuiteParams,
    mut progress: impl FnMut(&Scenario, u64),
) -> Vec<ScenarioRun> {
    let mut runs = Vec::new();
    for &scenario in &params.scenarios {
        let size = scenario.sized(params.size_divisor);
        progress(scenario, size);
        let mut results = Vec::new();
        for &threads in &params.thread_counts {
            for spec in &params.specs {
                let opts = DriverOpts::timed_mix(threads, OpMix::read_update(0), params.duration)
                    .with_seed(params.seed);
                results.push(scenario.run_spec(spec, size, &opts));
            }
        }
        runs.push(ScenarioRun {
            scenario,
            size,
            results,
        });
    }
    runs
}

/// [`run_suite`] + [`suite_to_json`] in one step.
pub fn run_suite_to_json(params: &SuiteParams, progress: impl FnMut(&Scenario, u64)) -> String {
    let runs = run_suite(params, progress);
    suite_to_json(&params.scale_label, params.seed, &runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhtm_workloads::report::validate_json;

    fn tiny() -> SuiteParams {
        SuiteParams {
            scenarios: vec![
                Scenario::find("skiplist-zipf").unwrap(),
                Scenario::find("queue-balanced").unwrap(),
                Scenario::find("hashtable-partitioned").unwrap(),
            ],
            specs: vec![
                TmSpec::parse("tl2+gv5").unwrap(),
                TmSpec::new(AlgoKind::Rh1Mixed(100)),
            ],
            thread_counts: vec![2],
            size_divisor: 1_024,
            duration: Duration::from_millis(5),
            ..SuiteParams::smoke()
        }
    }

    #[test]
    fn suite_produces_a_row_per_point_and_valid_json() {
        let params = tiny();
        let mut seen = Vec::new();
        let runs = run_suite(&params, |s, _| seen.push(s.name));
        assert_eq!(seen.len(), 3);
        assert_eq!(runs.len(), 3);
        for run in &runs {
            assert_eq!(run.results.len(), 2, "{}", run.scenario.name);
            for r in &run.results {
                assert!(r.total_ops > 0, "{} produced no ops", run.scenario.name);
                assert_eq!(r.key_dist, run.scenario.dist.label());
                assert_eq!(r.op_mix, run.scenario.mix.label());
                assert_eq!(r.seed, params.seed);
            }
            assert_eq!(run.results[0].spec, "tl2+gv5+paper-default");
            assert_eq!(run.results[1].spec, "rh1-mixed-100+gv-strict+paper-default");
        }
        let json = suite_to_json(&params.scale_label, params.seed, &runs);
        validate_json(&json).expect("suite JSON must parse");
        for field in [
            "\"scale\": \"smoke\"",
            "\"key_dist\"",
            "\"op_mix\"",
            "\"spec\": \"tl2+gv5+paper-default\"",
            "\"seed\"",
        ] {
            assert!(json.contains(field), "missing {field}");
        }
    }

    #[test]
    fn smoke_params_cover_the_whole_registry() {
        let p = SuiteParams::smoke();
        assert_eq!(p.scenarios.len(), Scenario::all().len());
        assert_eq!(p.specs.len(), 6, "all six figure algorithms");
        assert_eq!(p.thread_counts, vec![2]);
    }
}

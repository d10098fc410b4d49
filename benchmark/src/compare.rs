//! `compare`, `aa` and `self-test`: applying the bounds to two sets of
//! runs, and showing that the gate can fail.

use std::collections::BTreeMap;
use std::path::Path;

use crate::defs::{Injection, END_TO_END, WORKLOADS};
use crate::json::Json;
use crate::report::{read_result, run_child, run_suite, write_results, RunArgs};
use crate::stats::{median, spread};

/// The readings of one `(workload, metric)` in one results file.
#[derive(Default, Clone)]
struct Readings {
    values: Vec<f64>,
    /// Widest within-run spread any of the runs reported.
    within: f64,
}

/// A results file: readings by `(workload, metric)`, and the failed
/// share of each workload.
struct Results {
    readings: BTreeMap<(String, String), Readings>,
    failed_share: BTreeMap<String, f64>,
}

fn load(path: &Path) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let document = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut results = Results {
        readings: BTreeMap::new(),
        failed_share: BTreeMap::new(),
    };
    for run in document.get("runs").map_or(&[][..], Json::as_arr) {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a run without a workload")?;
        let share = run
            .get("failed_share")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let worst = results
            .failed_share
            .entry(workload.to_string())
            .or_insert(0.0);
        *worst = worst.max(share);
        for (metric, reading) in run.get("metrics").map_or(&[][..], Json::as_obj) {
            let entry = results
                .readings
                .entry((workload.to_string(), metric.clone()))
                .or_default();
            entry.values.push(
                reading
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or("a metric without a value")?,
            );
            entry.within = entry
                .within
                .max(reading.get("spread").and_then(Json::as_f64).unwrap_or(0.0));
        }
    }
    if results.readings.is_empty() {
        return Err(format!("{}: no runs", path.display()));
    }
    Ok(results)
}

#[derive(PartialEq, Clone, Copy, Debug)]
pub enum Verdict {
    Ok,
    Better,
    Unresolved,
    Regressed,
}

/// One row of a comparison.
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub verdict: Verdict,
}

/// The verdict on one `(workload, metric)`: `a` is the parent's readings,
/// `b` the change's.  `worse` is the share of the parent's median by
/// which the change's median is worse (negative when better).
fn judge(a: &Readings, b: &Readings, higher_is_better: bool, bound: f64) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(&a.values), median(&b.values));
    let worse = if ma == 0.0 {
        0.0
    } else if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    // Run-to-run spread when there are runs enough to have one; what each
    // run saw inside itself otherwise.
    let noise = if a.values.len() >= 3 && b.values.len() >= 3 {
        spread(&a.values).max(spread(&b.values))
    } else {
        a.within.max(b.within)
    };
    let every_b_better = a.values.iter().all(|&x| {
        b.values
            .iter()
            .all(|&y| if higher_is_better { y > x } else { y < x })
    });
    let verdict = if worse > bound && worse > noise {
        Verdict::Regressed
    } else if worse > bound {
        // Beyond the bound but inside the noise: more runs are needed.
        Verdict::Unresolved
    } else if every_b_better && worse < -noise {
        Verdict::Better
    } else if noise > bound && !every_b_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, noise, verdict)
}

/// Applies the bounds to every `(workload, metric)` of two results
/// files, one row each, every ratio with its base.
pub fn compare(parent: &Path, change: &Path) -> Result<Vec<Row>, String> {
    let (a, b) = (load(parent)?, load(change)?);
    println!(
        "parent {}  vs  change {}",
        parent.display(),
        change.display()
    );
    println!(
        "{:<15} {:<13} {:>15} {:>15} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "parent median", "change median", "change", "noise", "bound"
    );
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for &(metric, unit, better, bound) in &END_TO_END {
            let key = (w.name.to_string(), metric.to_string());
            let (Some(ra), Some(rb)) = (a.readings.get(&key), b.readings.get(&key)) else {
                println!(
                    "{:<15} {:<13} missing from one of the files",
                    w.name, metric
                );
                rows.push(Row {
                    workload: w.name.into(),
                    metric: metric.into(),
                    verdict: Verdict::Unresolved,
                });
                continue;
            };
            let (worse, noise, verdict) = judge(ra, rb, better == "higher", bound);
            let (ma, mb) = (median(&ra.values), median(&rb.values));
            println!(
                "{:<15} {:<13} {:>15.4} {:>15.4} {:>+8.2}% {:>6.2}% {:>6.1}%  {} ({} of {:.4} {unit}, n={}+{})",
                w.name,
                metric,
                ma,
                mb,
                (mb / ma - 1.0) * 100.0,
                noise * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Better => "better",
                    Verdict::Unresolved => "UNRESOLVED",
                    Verdict::Regressed => "REGRESSED",
                },
                if worse > 0.0 { format!("worse by {:.2}%", worse * 100.0) } else { format!("better by {:.2}%", -worse * 100.0) },
                ma,
                ra.values.len(),
                rb.values.len(),
            );
            rows.push(Row {
                workload: w.name.into(),
                metric: metric.into(),
                verdict,
            });
        }
        let (fa, fb) = (
            a.failed_share.get(w.name).copied().unwrap_or(0.0),
            b.failed_share.get(w.name).copied().unwrap_or(0.0),
        );
        let verdict = if fb > fa {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        println!(
            "{:<15} {:<13} {:>15.6} {:>15.6} {:>9} {:>7} {:>7}  {}",
            w.name,
            "failed_share",
            fa,
            fb,
            "",
            "",
            "0",
            if verdict == Verdict::Ok {
                "ok"
            } else {
                "REGRESSED (any increase fails)"
            }
        );
        rows.push(Row {
            workload: w.name.into(),
            metric: "failed_share".into(),
            verdict,
        });
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} regressed, {} unresolved (noise wider than the bound), {} better",
        rows.len(),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        count(Verdict::Better)
    );
    Ok(rows)
}

/// Suites per side of `aa`, the two sides alternating.  One run per side
/// cannot resolve a p99 on this host (a single run's reading moves by
/// more than its bound now and then); the median of three can.
const AA_SUITES: usize = 3;

/// `aa`: the same build against itself, `AA_SUITES` suites a side; no row
/// may regress.
pub fn aa(seed: u64, seconds: f64) -> bool {
    let mut ok = true;
    let (mut first, mut second) = (Vec::new(), Vec::new());
    for _ in 0..AA_SUITES {
        for side in [&mut first, &mut second] {
            let (success, runs) = run_suite(seed, seconds, false);
            ok &= success;
            side.extend(runs);
        }
    }
    let first = write_results(
        "aa-first.json",
        "rhtm-benchmark aa, first side",
        seed,
        seconds,
        first,
    );
    let second = write_results(
        "aa-second.json",
        "rhtm-benchmark aa, second side",
        seed,
        seconds,
        second,
    );
    match compare(&first, &second) {
        Ok(rows) => ok && rows.iter().all(|r| r.verdict != Verdict::Regressed),
        Err(e) => {
            println!("{e}");
            false
        }
    }
}

/// Seconds per run of the self-test: the shortest the sections bear.
const SELF_TEST_SECONDS: f64 = 8.0;
/// The injected slowdown: the rate falls by this share, so the busy-wait
/// is `SLOWDOWN / (1 - SLOWDOWN)` = a quarter of each workload's own time
/// per operation.
const SLOWDOWN: f64 = 0.20;
/// Base/slowed pairs per workload, run back to back so that the host's
/// drift is the same on both sides.
const SELF_TEST_PAIRS: usize = 2;

/// One self-test run; its result file on success.
fn self_test_run(workload: &str, seed: u64, inject: Injection) -> (bool, String, Option<Json>) {
    let (success, stdout) = run_child(&RunArgs {
        workload: workload.to_string(),
        seed,
        seconds: SELF_TEST_SECONDS,
        traced: false,
        inject,
    });
    (success, stdout, read_result(workload, false).ok())
}

/// `self-test`: the gate can fail.
///
/// (a) A busy-wait after every operation, in the benchmark's own driver
///     loop, sized to lower each workload's rate by 20 %, must make
///     `compare` flag `ops_per_s` on every workload — the uniform
///     slowdown a normalised gate lets through.
/// (b) One flipped expected value in the model must give a non-zero
///     `failed_share` and a non-zero exit code.
pub fn self_test(seed: u64) -> bool {
    let mut ok = true;
    let (mut base, mut slowed) = (Vec::new(), Vec::new());
    for def in &WORKLOADS {
        for _ in 0..SELF_TEST_PAIRS {
            let (success, _, Some(run)) = self_test_run(def.name, seed, Injection::default())
            else {
                println!("{}: no result", def.name);
                return false;
            };
            ok &= success;
            let rate = run
                .get("metrics")
                .and_then(|m| m.get("ops_per_s"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            base.push(run);
            let handicap_ns = (SLOWDOWN / (1.0 - SLOWDOWN) * 1e9 / rate.max(1.0)).ceil() as u64;
            println!(
                "{}: {rate:.0} op/s, so a handicap of {handicap_ns} ns per operation",
                def.name
            );
            let inject = Injection {
                handicap_ns,
                flip_model: false,
            };
            let (success, _, Some(run)) = self_test_run(def.name, seed, inject) else {
                println!("{}: no result", def.name);
                return false;
            };
            ok &= success;
            slowed.push(run);
        }
    }
    let base = write_results(
        "selftest-base.json",
        "rhtm-benchmark self-test, as is",
        seed,
        SELF_TEST_SECONDS,
        base,
    );
    let slowed = write_results(
        "selftest-slowed.json",
        "rhtm-benchmark self-test, handicapped",
        seed,
        SELF_TEST_SECONDS,
        slowed,
    );
    let mut caught_slowdown = true;
    match compare(&base, &slowed) {
        Ok(rows) => {
            for def in &WORKLOADS {
                let flagged = rows.iter().any(|r| {
                    r.workload == def.name
                        && r.metric == "ops_per_s"
                        && r.verdict == Verdict::Regressed
                });
                println!(
                    "self-test (a) {}: 20% slowdown {}",
                    def.name,
                    if flagged {
                        "caught (ops_per_s REGRESSED)"
                    } else {
                        "MISSED"
                    }
                );
                caught_slowdown &= flagged;
            }
        }
        Err(e) => {
            println!("{e}");
            caught_slowdown = false;
        }
    }

    let inject = Injection {
        handicap_ns: 0,
        flip_model: true,
    };
    let (success, stdout, _) = self_test_run("kv-point", seed, inject);
    let failed = stdout
        .lines()
        .last()
        .and_then(|l| Json::parse(l).ok())
        .and_then(|r| r.get("failed").and_then(Json::as_f64))
        .unwrap_or(0.0);
    let caught_wrong_answer = !success && failed > 0.0;
    println!(
        "self-test (b) kv-point: flipped expected value {} (failed = {failed}, exit code {})",
        if caught_wrong_answer {
            "caught"
        } else {
            "MISSED"
        },
        if success { "0" } else { "non-zero" }
    );
    ok && caught_slowdown && caught_wrong_answer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn readings(values: &[f64], within: f64) -> Readings {
        Readings {
            values: values.to_vec(),
            within,
        }
    }

    #[test]
    fn a_uniform_slowdown_regresses_and_noise_is_unresolved() {
        let a = readings(&[100.0], 0.01);
        // 20% slower against a 10% bound.
        assert_eq!(
            judge(&a, &readings(&[80.0], 0.01), true, 0.10).2,
            Verdict::Regressed
        );
        // 4% slower: inside the bound, quiet runs.
        assert_eq!(
            judge(&a, &readings(&[96.0], 0.01), true, 0.10).2,
            Verdict::Ok
        );
        // Inside the bound but the runs are noisier than the bound.
        assert_eq!(
            judge(&a, &readings(&[96.0], 0.30), true, 0.10).2,
            Verdict::Unresolved
        );
        // Latency: higher is worse.
        assert_eq!(
            judge(&a, &readings(&[130.0], 0.01), false, 0.25).2,
            Verdict::Regressed
        );
        // Every run of the change better than every run of the parent.
        let parent = readings(&[100.0, 101.0, 99.0, 100.5], 0.0);
        let change = readings(&[120.0, 121.0, 119.0, 122.0], 0.0);
        assert_eq!(judge(&parent, &change, true, 0.10).2, Verdict::Better);
    }
}

//! Running workloads and writing what they measured: one workload in
//! this process (what the pipeline calls), or all of them, each in a
//! fresh child process, into `results.json` / `trace.json`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::clock::nproc;
use crate::defs::{self, Injection, Kind, WorkloadDef, END_TO_END, WORKLOADS};
use crate::json::Json;
use crate::layers::{self, LayerValues, PER_LAYER};
use crate::trace;

/// Where this package's files are written: `benchmark/out/`.
fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    dir
}

/// The file a run of `workload` writes under `out/`.
fn result_path(workload: &str, traced: bool) -> PathBuf {
    out_dir().join(if traced {
        format!("trace-{workload}.json")
    } else {
        format!("{workload}.json")
    })
}

fn write_file(path: &Path, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// What the pipeline's command line asks for.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub inject: Injection,
}

fn metrics_json<'a>(rows: impl Iterator<Item = (&'a str, f64, &'a str)>) -> Json {
    Json::obj(rows.map(|(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }))
}

/// Runs one workload in this process, prints every metric by name with
/// its unit and, as the last line, the result object.  Returns whether
/// the outputs were correct.
pub fn run_one(args: &RunArgs) -> bool {
    let def = defs::find(&args.workload).unwrap_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        panic!(
            "unknown workload {:?}; the workloads are {names:?}",
            args.workload
        )
    });
    if args.traced {
        traced(def, args)
    } else {
        untraced(def, args)
    }
}

fn untraced(def: &WorkloadDef, args: &RunArgs) -> bool {
    let outcome = match &def.kind {
        Kind::Kv(kv) => crate::kvrun::run(kv, args.seed, args.seconds, args.inject),
        Kind::Tm(tm) => crate::tmrun::run(tm, args.seed, args.seconds, args.inject),
    };
    let verdict = &outcome.verdict;
    let failed_share = verdict.failed as f64 / verdict.attempted.max(1) as f64;
    println!(
        "{}  (seed {}, {} s, untraced)",
        def.name, args.seed, args.seconds
    );
    for m in &outcome.metrics {
        println!(
            "  {:<14} {:>16.4} {:<6} spread within the run {:>6.2}%",
            m.name,
            m.value,
            m.unit,
            m.spread * 100.0
        );
    }
    println!(
        "  {:<14} {:>16.6} {:<6} {} of {} operations",
        "failed_share", failed_share, "ratio", verdict.failed, verdict.attempted
    );
    for note in &verdict.notes {
        println!("  note: {note}");
    }
    let detail = Json::obj([
        ("workload", Json::str(def.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("attempted", Json::Num(verdict.attempted as f64)),
        ("failed", Json::Num(verdict.failed as f64)),
        ("failed_share", Json::Num(failed_share)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                        ("spread", Json::Num(m.spread)),
                    ]),
                )
            })),
        ),
        (
            "notes",
            Json::Arr(verdict.notes.iter().map(Json::str).collect()),
        ),
        ("detail", outcome.detail),
    ]);
    write_file(&result_path(def.name, false), &detail.pretty());
    debug_assert!(END_TO_END
        .iter()
        .map(|e| e.0)
        .eq(outcome.metrics.iter().map(|m| m.name)));
    let result = Json::obj([
        ("correct", Json::Bool(verdict.correct())),
        ("attempted", Json::Num(verdict.attempted as f64)),
        ("failed", Json::Num(verdict.failed as f64)),
        (
            "metrics",
            metrics_json(outcome.metrics.iter().map(|m| (m.name, m.value, m.unit))),
        ),
    ]);
    println!("{}", result.line());
    verdict.correct()
}

/// Share of `--seconds` a traced run gives the layer kernels: six tenths
/// of it to the 30 batch kernels (5 timed batches each and about 2 more
/// to size them), the rest to the six rbtree series.
const SHARE_KERNELS: f64 = 0.30;
const KERNEL_BATCHES: f64 = 30.0 * 7.0;

fn traced(def: &WorkloadDef, args: &RunArgs) -> bool {
    let span_cost = trace::span_cost();
    let traced = match &def.kind {
        Kind::Kv(kv) => trace::run_kv(kv, args.seed, args.seconds, span_cost),
        Kind::Tm(tm) => trace::run_tm(tm, args.seed, args.seconds),
    };
    let mut values: LayerValues = traced.values;
    values.set("bench.span_cost_ns", span_cost.total_ns);
    let kernels_s = args.seconds * SHARE_KERNELS;
    layers::run_kernels(
        &mut values,
        kernels_s * 0.6 / KERNEL_BATCHES,
        kernels_s * 0.4 / 6.0,
        args.seed,
    );

    println!(
        "{}  (seed {}, {} s, traced)",
        def.name, args.seed, args.seconds
    );
    for (name, unit, _) in PER_LAYER {
        println!("  {:<36} {:>16.4} {}", name, values.get(name), unit);
    }
    let document = Json::obj([
        ("workload", Json::str(def.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        (
            "per_layer",
            metrics_json(PER_LAYER.iter().map(|&(n, u, _)| (n, values.get(n), u))),
        ),
        ("trace", traced.trace),
    ]);
    write_file(&result_path(def.name, true), &document.pretty());
    let result = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(traced.attempted.max(1) as f64)),
        ("failed", Json::Num(0.0)),
        (
            "metrics",
            metrics_json(PER_LAYER.iter().map(|&(n, u, _)| (n, values.get(n), u))),
        ),
    ]);
    println!("{}", result.line());
    true
}

/// Runs `args` in a fresh child process of this executable and returns
/// its exit status and its standard output (echoed here, indented,
/// except for the result line).
pub fn run_child(args: &RunArgs) -> (bool, String) {
    // A child that dies must not leave an earlier run's file to be read.
    let _ = std::fs::remove_file(result_path(&args.workload, args.traced));
    let exe = std::env::current_exe().expect("own executable path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }]);
    if args.inject.handicap_ns > 0 {
        command.args(["--handicap-ns", &args.inject.handicap_ns.to_string()]);
    }
    if args.inject.flip_model {
        command.arg("--flip-model");
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("cannot start the workload's process");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let lines: Vec<&str> = stdout.lines().collect();
    for line in &lines[..lines.len().saturating_sub(1)] {
        println!("{line}");
    }
    (output.status.success(), stdout)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what the numbers were measured.
fn environment(seed: u64, seconds: f64) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("reference_spec", Json::str(crate::surface::REFERENCE_SPEC)),
    ])
}

/// What the workload's last run (in any process) wrote under `out/`.
pub fn read_result(workload: &str, traced: bool) -> Result<Json, String> {
    let path = result_path(workload, traced);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes a set of runs as a results document under `out/`.
pub fn write_results(file: &str, suite: &str, seed: u64, seconds: f64, runs: Vec<Json>) -> PathBuf {
    let document = Json::obj([
        ("suite", Json::str(suite)),
        ("environment", environment(seed, seconds)),
        ("runs", Json::Arr(runs)),
    ]);
    let path = out_dir().join(file);
    write_file(&path, &document.pretty());
    path
}

/// Runs every workload once, each in a fresh child process.  Returns
/// whether every child succeeded, and the result files they wrote.
pub fn run_suite(seed: u64, seconds: f64, traced: bool) -> (bool, Vec<Json>) {
    let mut ok = true;
    let mut runs = Vec::new();
    for def in &WORKLOADS {
        let (success, _) = run_child(&RunArgs {
            workload: def.name.to_string(),
            seed,
            seconds,
            traced,
            inject: Injection::default(),
        });
        ok &= success;
        match read_result(def.name, traced) {
            Ok(run) => runs.push(run),
            Err(e) => {
                println!("{e}");
                ok = false;
            }
        }
    }
    (ok, runs)
}

/// `all` / `trace`: the suite once, gathered into `file` under `out/`.
pub fn run_all(seed: u64, seconds: f64, traced: bool, file: &str) -> bool {
    let started = Instant::now();
    let (ok, runs) = run_suite(seed, seconds, traced);
    let suite = if traced {
        "rhtm-benchmark trace"
    } else {
        "rhtm-benchmark results"
    };
    let path = write_results(file, suite, seed, seconds, runs);
    println!(
        "{} written in {:.1} s{}",
        path.display(),
        started.elapsed().as_secs_f64(),
        if ok { "" } else { "  (FAILED: see above)" }
    );
    ok
}

/// `BENCHMARK.json`, from the lists the code itself uses.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .iter()
                .map(|s| Json::str(*s))
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(defs::RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|&(name, unit, better, bound)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("unit", Json::str(unit)),
                            ("better", Json::str(better)),
                            ("bound", Json::Num(bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit, better)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("unit", Json::str(unit)),
                            ("better", Json::str(better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed `BENCHMARK.json` says what the code does.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate it: cargo run --release --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|e| e.0));
        names.extend(PER_LAYER.iter().map(|e| e.0));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(END_TO_END
            .iter()
            .all(|e| unit_ok(e.1) && e.3 > 0.0 && e.3 <= 0.25));
        assert!(PER_LAYER.iter().all(|e| unit_ok(e.1)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .any(|e| e.0 == "setup_s" && e.1 == "s" && e.2 == "lower"));
    }
}

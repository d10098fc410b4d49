//! The unified benchmark suite: sweep every registered scenario
//! (`structure × size × mix × distribution`) across a series of runtime
//! points and a thread sweep, and emit **one** JSON document on
//! stdout (progress goes to stderr).  Schema: `docs/BENCHMARKS.md`.
//!
//! ```text
//! cargo run -p rhtm-bench --release --bin bench_suite \
//!     [paper|quick] [--smoke] [--list] [scenarios=a,b,..] [spec=a,b,..] \
//!     [algos=a,b,..] [threads=N,M,..] [seed=N]
//! ```
//!
//! * `--list` prints the scenario registry (name, structure, paper-scale
//!   size, distribution, mix, phase plan, description) and exits.
//! * `--smoke` is the CI configuration: every scenario and algorithm at
//!   tiny sizes, 2 threads, 10 ms per point.
//! * `spec=` selects the runtime points to sweep as `TmSpec` labels
//!   (`spec=rh2+gv6+adaptive,tl2+gv5`); `algos=` is the algorithm-only
//!   shorthand (default clock/policy).  The two are mutually exclusive.
//! * `scenarios=` / `threads=` restrict the sweep; `seed=` pins the base
//!   RNG seed recorded in the document.

use rhtm_bench::cli::{self, fail};
use rhtm_bench::{Scale, SuiteParams};
use rhtm_workloads::{AlgoKind, Scenario, TmSpec};

fn print_list() {
    let header = [
        "scenario",
        "structure",
        "size",
        "distribution",
        "mix",
        "phases",
        "description",
    ];
    println!(
        "{:<26} {:<12} {:>10}  {:<13} {:<15} {:<13} {}",
        header[0], header[1], header[2], header[3], header[4], header[5], header[6]
    );
    for s in Scenario::all() {
        println!(
            "{:<26} {:<12} {:>10}  {:<13} {:<15} {:<13} {}",
            s.name,
            s.structure.label(),
            s.base_size,
            s.dist.label(),
            s.mix.label(),
            s.phases_label(),
            s.about
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        print_list();
        return;
    }
    let mut scale = Scale::Paper;
    let mut scale_explicit = false;
    let mut smoke = false;
    let mut scenarios: Option<Vec<&'static Scenario>> = None;
    let mut algos: Option<Vec<AlgoKind>> = None;
    let specs: Option<Vec<TmSpec>> = cli::spec_axis(&args).unwrap_or_else(|e| fail(e));
    let threads: Option<Vec<usize>> = cli::thread_axis(&args).unwrap_or_else(|e| fail(e));
    let mut seed: Option<u64> = None;
    for arg in &args {
        if let Some(s) = Scale::parse(arg) {
            scale = s;
            scale_explicit = true;
        } else if arg == "--smoke" {
            smoke = true;
        } else if arg.starts_with("spec=") || arg.starts_with("threads=") {
            // Parsed by cli::spec_axis / cli::thread_axis above.
        } else if let Some(list) = arg.strip_prefix("scenarios=") {
            let parsed: Option<Vec<_>> = list.split(',').map(Scenario::find).collect();
            match parsed {
                Some(s) if !s.is_empty() => scenarios = Some(s),
                _ => fail(format!(
                    "bad scenario list '{list}' (see bench_suite --list)"
                )),
            }
        } else if let Some(list) = arg.strip_prefix("algos=") {
            let parsed: Option<Vec<_>> = list.split(',').map(AlgoKind::parse).collect();
            match parsed {
                Some(a) if !a.is_empty() => algos = Some(a),
                _ => fail(format!("bad algorithm list '{list}'")),
            }
        } else if let Some(v) = arg.strip_prefix("seed=") {
            match v.parse() {
                Ok(v) => seed = Some(v),
                Err(_) => fail(format!("bad seed '{v}'")),
            }
        } else {
            fail(format!(
                "unknown argument '{arg}' (expected paper|quick, --smoke, --list, \
                 scenarios=.., spec=.., algos=.., threads=.., seed=..)"
            ));
        }
    }

    if smoke && scale_explicit {
        fail("--smoke is its own scale; drop the paper|quick argument".to_string());
    }
    if specs.is_some() && algos.is_some() {
        fail("spec= and algos= are mutually exclusive (spec= subsumes algos=)".to_string());
    }
    let mut params = if smoke {
        SuiteParams::smoke()
    } else {
        SuiteParams::new(scale)
    };
    if let Some(s) = scenarios {
        params.scenarios = s;
    }
    if let Some(s) = specs {
        params.specs = s;
    } else if let Some(a) = algos {
        params.specs = a.into_iter().map(TmSpec::new).collect();
    }
    if let Some(t) = threads {
        params.thread_counts = t;
    }
    if let Some(s) = seed {
        params.seed = s;
    }

    let total = params.scenarios.len();
    eprintln!(
        "# bench_suite: {} scenarios x {} specs x {:?} threads ({} scale)",
        total,
        params.specs.len(),
        params.thread_counts,
        params.scale_label
    );
    let mut done = 0usize;
    let json = rhtm_bench::run_suite_to_json(&params, |s, size| {
        done += 1;
        eprintln!("# [{done}/{total}] {} (size {size})", s.name);
    });
    println!("{json}");
}

//! `rhtm-benchmark`: the repo's one measuring instrument.
//!
//! ```text
//! rhtm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rhtm-benchmark all   [--seed <n>] [--seconds <s>]     every workload -> out/results.json
//! rhtm-benchmark trace [--seed <n>] [--seconds <s>]     every workload, traced -> out/trace.json
//! rhtm-benchmark compare <parent.json> <change.json>    apply the bounds, one row each
//! rhtm-benchmark aa    [--seed <n>] [--seconds <s>]     the build against itself; must compare clean
//! rhtm-benchmark self-test [--seed <n>]                 the gate can fail
//! rhtm-benchmark manifest                               BENCHMARK.json from the code's lists
//! ```
//!
//! See `README.md` for what is measured and why.

#![deny(unsafe_code)]

mod clock;
mod compare;
mod defs;
mod json;
mod kvrun;
mod layers;
mod model;
mod openloop;
mod report;
mod stats;
mod surface;
mod tmrun;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use defs::Injection;

const USAGE: &str = "usage: rhtm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       rhtm-benchmark all|trace|aa [--seed <n>] [--seconds <s>]
       rhtm-benchmark compare <parent.json> <change.json>
       rhtm-benchmark self-test [--seed <n>]
       rhtm-benchmark manifest";

/// `--name value` flags after the sub-command.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        Some(
            self.0
                .get(at + 1)
                .unwrap_or_else(|| fail(&format!("{name} needs a value"))),
        )
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(text) => text
                .parse()
                .unwrap_or_else(|_| fail(&format!("{name} {text:?} is not a number"))),
        }
    }

    fn seed(&self) -> u64 {
        self.number("--seed", 1)
    }

    fn seconds(&self) -> f64 {
        let seconds = self.number("--seconds", defs::RUN_SECONDS as f64);
        if !(1.0..=600.0).contains(&seconds) {
            fail("--seconds must be between 1 and 600");
        }
        seconds
    }
}

fn fail(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags(args.clone());
    let ok = match args.first().map(String::as_str) {
        Some("all") => report::run_all(flags.seed(), flags.seconds(), false, "results.json"),
        Some("trace") => report::run_all(flags.seed(), flags.seconds(), true, "trace.json"),
        Some("aa") => compare::aa(flags.seed(), flags.seconds()),
        Some("self-test") => compare::self_test(flags.seed()),
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(parent), Some(change)) => {
                match compare::compare(Path::new(parent), Path::new(change)) {
                    Ok(rows) => rows
                        .iter()
                        .all(|r| r.verdict != compare::Verdict::Regressed),
                    Err(e) => fail(&e),
                }
            }
            _ => fail("compare needs two results files"),
        },
        Some("manifest") => {
            print!("{}", report::manifest().pretty());
            true
        }
        _ if flags.value("--workload").is_some() => report::run_one(&report::RunArgs {
            workload: flags.value("--workload").expect("checked").to_string(),
            seed: flags.seed(),
            seconds: flags.seconds(),
            traced: match flags.value("--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => fail(&format!("--trace {other:?} is neither 0 nor 1")),
            },
            inject: Injection {
                handicap_ns: flags.number("--handicap-ns", 0),
                flip_model: args.iter().any(|a| a == "--flip-model"),
            },
        }),
        _ => fail("nothing to do"),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Shared CLI plumbing for the benchmark binaries.
//!
//! Every binary accepts the same `spec=` axis: a comma-separated list of
//! [`TmSpec`] labels (`spec=rh2+gv6+adaptive,tl2+gv5`) selecting the
//! runtime points the experiment sweeps instead of its paper-default
//! series.  The grammar is documented on [`rhtm_workloads::spec`] and in
//! `docs/BENCHMARKS.md`.

use rhtm_api::RetryPolicyHandle;
use rhtm_mem::ClockScheme;
use rhtm_workloads::TmSpec;

use crate::figures::{expand_series, Experiment};
use crate::params::{FigureParams, Scale};

/// The one value of the `prefix` (`spec=`, `threads=`) argument, if given;
/// giving it twice is an error.
fn axis_value<'a>(args: &'a [String], prefix: &str) -> Result<Option<&'a str>, String> {
    let mut values = args.iter().filter_map(|arg| arg.strip_prefix(prefix));
    match (values.next(), values.next()) {
        (_, Some(_)) => Err(format!("{prefix} given more than once")),
        (value, None) => Ok(value),
    }
}

/// Extracts the `spec=` axis from a binary's raw arguments.
///
/// Returns `Ok(None)` when no `spec=` argument is present (the binary
/// runs its paper-default series), `Ok(Some(specs))` for a well-formed
/// axis, and `Err` with a printable message for a malformed or duplicated
/// one.
pub fn spec_axis(args: &[String]) -> Result<Option<Vec<TmSpec>>, String> {
    let Some(list) = axis_value(args, "spec=")? else {
        return Ok(None);
    };
    TmSpec::parse_list(list).map(Some).ok_or_else(|| {
        format!(
            "bad spec list '{list}' (grammar: algo[+clock][+policy], \
             e.g. spec=rh2+gv6+adaptive,tl2+gv5)"
        )
    })
}

/// Extracts the `threads=N,M,..` axis from a binary's raw arguments.
///
/// Returns `Ok(None)` when no `threads=` argument is present (the binary
/// runs its default sweep, clamped to the host), `Ok(Some(counts))` for a
/// well-formed list — which pins the sweep as given, unclamped — and `Err`
/// for an empty list, a zero or non-numeric count, or a duplicated axis.
pub fn thread_axis(args: &[String]) -> Result<Option<Vec<usize>>, String> {
    let Some(list) = axis_value(args, "threads=")? else {
        return Ok(None);
    };
    let counts: Result<Vec<usize>, _> = list.split(',').map(|t| t.trim().parse()).collect();
    match counts {
        Ok(counts) if counts.iter().all(|&n| n >= 1) => Ok(Some(counts)),
        _ => Err(format!(
            "bad thread list '{list}' (expected e.g. threads=1,2,4)"
        )),
    }
}

/// What `figures <name> [args..]` resolved to (see [`figure_args`]).
pub struct FigureArgs {
    /// The scale's sizes with the thread sweep to run.
    pub params: FigureParams,
    /// The series to run, expanded over the experiment's swept axis.
    pub specs: Vec<TmSpec>,
    /// The `--writes` percentage (the experiment's default when it takes
    /// the flag and none was given, 20 otherwise).
    pub writes: u8,
}

/// Parses the arguments of one `figures` subcommand: an optional scale
/// (`paper`/`quick`, default paper) and the `spec=` axis for every
/// experiment; `--writes N` (0..=100) where the experiment takes it;
/// positional clock-scheme or retry-policy labels replacing the swept
/// values of an experiment that sweeps that axis; and, on the policy
/// ablations, `threads=` pinning the sweep.  Anything else is an error.
///
/// An experiment that sweeps an axis runs threads 1–32 whatever the scale
/// (its story is thread scaling); every default sweep is clamped to the
/// host's parallelism.
pub fn figure_args(exp: &Experiment, args: &[String]) -> Result<FigureArgs, String> {
    let default_policies = (exp.policies)();
    let sweeps_policies = !default_policies.is_empty();
    let sweeps_clocks = !exp.clocks.is_empty();
    let bases = spec_axis(args)?;
    let mut threads = None;
    if sweeps_policies {
        threads = thread_axis(args)?;
    }
    let mut scale = Scale::Paper;
    let mut writes = exp.writes;
    let mut clocks = Vec::new();
    let mut policies = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if let Some(s) = Scale::parse(arg) {
            scale = s;
        } else if arg.starts_with("spec=") || (sweeps_policies && arg.starts_with("threads=")) {
            // Parsed by spec_axis / thread_axis above.
        } else if arg == "--writes" && exp.writes.is_some() {
            // The value is consumed here, so a forgotten one cannot
            // swallow the next real argument (`--writes quick` is an
            // error, not a paper-scale run).
            let value = args.next().ok_or("'--writes' expects a value")?;
            match value.parse::<u8>() {
                Ok(percent) if percent <= 100 => writes = Some(percent),
                _ => return Err(format!("bad --writes value '{value}' (expected 0..=100)")),
            }
        } else if let (true, Some(scheme)) = (sweeps_clocks, ClockScheme::parse(arg)) {
            clocks.push(scheme);
        } else if let (true, Some(policy)) = (sweeps_policies, RetryPolicyHandle::parse(arg)) {
            policies.push(policy);
        } else {
            let mut expected = String::from("paper|quick, spec=..");
            if exp.writes.is_some() {
                expected += ", --writes N";
            }
            if sweeps_clocks {
                let labels = ClockScheme::ALL.map(|s| s.label()).join("|");
                expected += &format!(" or a scheme: {labels}");
            }
            if sweeps_policies {
                let labels: Vec<_> = RetryPolicyHandle::builtin()
                    .iter()
                    .map(|p| p.label())
                    .collect();
                expected += &format!(", threads=N,.. or a policy: {}", labels.join("|"));
            }
            return Err(format!("unknown argument '{arg}' (expected {expected})"));
        }
    }
    let bases = bases.unwrap_or_else(|| exp.algos.iter().map(|&k| TmSpec::new(k)).collect());
    if exp.name == "fig3_random_array" && bases.len() != 2 {
        return Err("fig3_random_array takes exactly two specs: spec=treatment,baseline".into());
    }
    if clocks.is_empty() {
        clocks = exp.clocks.to_vec();
    }
    if policies.is_empty() {
        policies = default_policies;
    }
    let mut params = FigureParams::new(scale);
    if sweeps_clocks || sweeps_policies {
        params.thread_counts = vec![1, 2, 4, 8, 16, 32];
    }
    match threads {
        Some(pinned) => params.thread_counts = pinned,
        None => params = params.clamp_threads_to_host(),
    }
    Ok(FigureArgs {
        params,
        specs: expand_series(&bases, &clocks, &policies),
        writes: writes.unwrap_or(20),
    })
}

/// Prints `msg` as an error and exits with status 2 (the binaries' shared
/// bad-usage convention).
pub fn fail(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn parse(name: &str, list: &[&str]) -> Result<FigureArgs, String> {
        figure_args(Experiment::find(name).unwrap(), &args(list))
    }

    #[test]
    fn spec_axis_extracts_and_validates() {
        assert_eq!(spec_axis(&args(&["quick"])).unwrap(), None);
        let specs = spec_axis(&args(&["spec=rh2+gv6+adaptive,tl2"]))
            .unwrap()
            .unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].label(), "rh2+gv6+adaptive");
        assert!(spec_axis(&args(&["spec=rh3"])).is_err());
        assert!(spec_axis(&args(&["spec=tl2", "spec=rh2"])).is_err());
    }

    #[test]
    fn thread_axis_extracts_and_validates() {
        assert_eq!(thread_axis(&args(&["quick", "spec=tl2"])).unwrap(), None);
        assert_eq!(
            thread_axis(&args(&["threads=1, 2,64"])).unwrap(),
            Some(vec![1, 2, 64])
        );
        for bad in ["threads=", "threads=1,0", "threads=two"] {
            let err = thread_axis(&args(&[bad])).unwrap_err();
            assert!(err.contains("threads=1,2,4"), "{bad}: {err}");
        }
        assert!(thread_axis(&args(&["threads=1", "threads=2"])).is_err());
    }

    #[test]
    fn figure_args_parse_scale_spec_and_extras() {
        let parsed = parse("fig1_rbtree", &["quick", "spec=tl2"]).unwrap();
        assert_eq!(parsed.params.rbtree_nodes, 20_000, "quick scale");
        assert_eq!(parsed.specs.len(), 1);
        assert_eq!(parsed.specs[0].label(), "tl2+gv-strict+paper-default");
        let parsed = parse("fig2_rbtree", &["--writes", "80"]).unwrap();
        assert_eq!(parsed.params.rbtree_nodes, 100_000, "paper scale");
        assert_eq!(parsed.specs.len(), 6, "the paper-default series");
        assert_eq!(parsed.writes, 80);
        assert_eq!(parse("fig2_rbtree", &[]).unwrap().writes, 20);
        assert!(parse("fig1_rbtree", &["bogus"]).is_err());
        // Flags and axes of other experiments are not accepted.
        assert!(parse("fig1_rbtree", &["--writes", "80"]).is_err());
        assert!(parse("fig1_rbtree", &["gv5"]).is_err());
        assert!(parse("ablation_clock", &["adaptive"]).is_err());
        assert!(parse("ablation_clock", &["threads=2"]).is_err());
        assert!(parse("fig3_random_array", &["spec=tl2"]).is_err());
        assert!(parse("fig3_random_array", &["spec=rh2,tl2"]).is_ok());
    }

    #[test]
    fn flag_values_are_validated_not_swallowed() {
        // A flag given without its value must not eat the next argument.
        assert!(parse("fig2_rbtree", &["--writes", "quick"]).is_err());
        assert!(parse("fig2_rbtree", &["--writes", "spec=tl2"]).is_err());
        assert!(parse("fig2_rbtree", &["--writes"]).is_err());
        // ...while a proper value composes with the other arguments.
        let parsed = parse("fig2_rbtree", &["quick", "--writes", "80", "spec=tl2"]).unwrap();
        assert_eq!(parsed.params.rbtree_nodes, 20_000);
        assert_eq!((parsed.specs.len(), parsed.writes), (1, 80));
    }

    #[test]
    fn write_percentages_are_range_checked() {
        assert_eq!(
            parse("fig2_rbtree", &["--writes", "100"]).unwrap().writes,
            100
        );
        for bad in ["101", "255", "256", "-1"] {
            let err = parse("fig2_rbtree", &["--writes", bad]).err().unwrap();
            assert!(err.contains("expected 0..=100"), "{bad}: {err}");
        }
    }

    #[test]
    fn swept_axes_expand_the_series() {
        // Named schemes replace the swept ones; spec= supplies the bases.
        let parsed = parse(
            "ablation_clock",
            &["quick", "gv5", "gv6", "spec=tl2+adaptive"],
        )
        .unwrap();
        let labels: Vec<_> = parsed.specs.iter().map(TmSpec::label).collect();
        assert_eq!(labels, ["tl2+gv5+adaptive", "tl2+gv6+adaptive"]);
        // The default policy sweep is policy-major over the five bases,
        // and an explicit thread list is taken as given, unclamped.
        let parsed = parse("ablation_retry", &["quick", "threads=3,64"]).unwrap();
        assert_eq!(parsed.specs.len(), RetryPolicyHandle::builtin().len() * 5);
        assert_eq!(
            parsed.specs[1].label(),
            "standard-hytm+gv-strict+paper-default"
        );
        assert_eq!(parsed.params.thread_counts, vec![3, 64]);
        let parsed = parse("ablation_retry2", &["cb", "threads=2"]).unwrap();
        let labels: Vec<_> = parsed.specs.iter().map(TmSpec::label).collect();
        assert_eq!(
            labels,
            [
                "rh1-mixed-10+gv-strict+cb",
                "rh1-mixed-100+gv-strict+cb",
                "rh2+gv-strict+cb"
            ]
        );
    }
}

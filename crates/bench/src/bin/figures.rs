//! Every figure, table and ablation of the evaluation, one subcommand per
//! row of [`rhtm_bench::EXPERIMENTS`], plus the `micro_sets` kernels.
//!
//! ```text
//! cargo run -p rhtm-bench --release --bin figures -- <subcommand> [paper|quick] [spec=..] [..]
//! ```
//!
//! The `spec=` axis (comma-separated `TmSpec` labels, e.g.
//! `spec=rh2+gv6+adaptive,tl2+gv5`) replaces the experiment's
//! paper-default series; on the clock/retry ablations it supplies the base
//! points and each swept scheme/policy overrides that axis of them.  Run
//! without a subcommand for the list; per-subcommand arguments are
//! documented on [`rhtm_bench::cli::figure_args`] and in
//! `docs/BENCHMARKS.md`.

use std::hint::black_box;
use std::time::Instant;

use rhtm_bench::{cli, Experiment, EXPERIMENTS};
use rhtm_htm::linemap::{LineMap, WriteSet};
use rhtm_mem::Addr;

fn usage(problem: &str) -> String {
    let mut text = format!(
        "{problem}\nusage: figures <subcommand> [paper|quick] [spec=label,..] [args..]\nsubcommands:\n"
    );
    for exp in &EXPERIMENTS {
        text += &format!("  {:<18} {}\n", exp.name, exp.about);
    }
    text += &format!(
        "  {:<18} LineMap/WriteSet insert+clear, get-hit and get-miss at 8/64/1024 keys, ns per key",
        "micro_sets"
    );
    text
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        cli::fail(usage("no subcommand given"));
    };
    if name == "micro_sets" {
        if !rest.is_empty() {
            cli::fail("micro_sets takes no arguments".to_string());
        }
        return micro_sets();
    }
    let Some(exp) = Experiment::find(name) else {
        cli::fail(usage(&format!("unknown subcommand '{name}'")));
    };
    let run = cli::figure_args(exp, rest).unwrap_or_else(|e| cli::fail(e));
    eprintln!(
        "running {} over {} spec(s), thread sweep {:?}",
        exp.name,
        run.specs.len(),
        run.params.thread_counts
    );
    let (text, _rows) = (exp.run)(&run.params, &run.specs, run.writes);
    print!("{text}");
}

/// Prints the nanoseconds per key of `pass` (one pass over `n` keys): a
/// fixed 2^20 keys per batch, the fastest of seven batches.
fn ns_per_key(name: &str, n: usize, mut pass: impl FnMut() -> u64) {
    let passes = (1 << 20) / n;
    let batch = |_| {
        let start = Instant::now();
        for _ in 0..passes {
            black_box(pass());
        }
        start.elapsed().as_nanos() as f64 / (passes * n) as f64
    };
    let best = (0..7).map(batch).fold(f64::INFINITY, f64::min);
    println!("{name:<22} {n:>5} keys {best:>8.2} ns/key");
}

/// The three kernels of one set structure: fill + clear, lookups that all
/// hit, and lookups that all miss (keys shifted past the populated range —
/// for a write-set the read path's common case, the fingerprint filter's
/// fast miss).
fn set_kernels<S>(
    name: &str,
    mut set: S,
    keys: &[u64],
    insert: impl Fn(&mut S, u64),
    get: impl Fn(&S, u64) -> Option<u64>,
    len: fn(&S) -> usize,
    clear: fn(&mut S),
) {
    let n = keys.len();
    ns_per_key(&format!("{name}_insert_clear"), n, || {
        keys.iter().for_each(|&k| insert(&mut set, k));
        let filled = len(&set) as u64;
        clear(&mut set);
        filled
    });
    keys.iter().for_each(|&k| insert(&mut set, k));
    // Folded so no probe can be dropped.
    let probe = |shift: u64| {
        let found = |sum: u64, &k: &u64| sum.wrapping_add(get(&set, k + shift).unwrap_or(1));
        keys.iter().fold(0, found)
    };
    ns_per_key(&format!("{name}_get_hit"), n, || probe(0));
    ns_per_key(&format!("{name}_get_miss"), n, || probe(8 * n as u64));
}

/// The transaction-local set structures every software read and write goes
/// through — [`LineMap`] (read-marks, write-set index) and [`WriteSet`]
/// (deferred writes) — at footprints of a small RMW transaction, a typical
/// traversal and a worst-case large-write-set commit.
fn micro_sets() {
    for n in [8usize, 64, 1024] {
        // The shape the runtimes produce: word addresses a stripe apart,
        // permuted so probes do not walk the table in order.
        let keys: Vec<u64> = (0..n as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9).wrapping_add(7)) % (4 * n as u64))
            .collect();
        let addr = |k: u64| Addr(k as usize);
        set_kernels(
            "linemap",
            LineMap::with_capacity(n),
            &keys,
            |m, k| _ = m.insert_if_absent(k, k),
            |m, k| m.get(k),
            LineMap::len,
            LineMap::clear,
        );
        set_kernels(
            "writeset",
            WriteSet::with_capacity(n),
            &keys,
            |w, k| w.insert(addr(k), k),
            |w, k| w.get(addr(k)),
            WriteSet::len,
            WriteSet::clear,
        );
    }
}

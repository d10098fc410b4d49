//! The per-layer metrics: their names (one list, the one in
//! `BENCHMARK.json`) and the batch-timed kernels that measure the ones a
//! layer's public functions can be called for directly.
//!
//! A kernel number is N calls ÷ N on a warm single thread with nothing
//! contending: the most a faster layer can save per call, not what a
//! request pays under load.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::median;
use crate::surface::{self, Budget, Kernel, Spec, TmCase};

/// `(name, unit, better)` of every per-layer metric, layer by layer.  A
/// traced run of any workload reports all of them; one whose layer is not
/// on the workload's path reads 0.
pub const PER_LAYER: [(&str, &str, &str); 75] = [
    // rhtm_mem
    ("mem.heap.load_ns", "ns", "lower"),
    ("mem.heap.seg_load_ns", "ns", "lower"),
    ("mem.heap.first_touch_us", "us", "lower"),
    ("mem.clock.next_commit_ns", "ns", "lower"),
    ("mem.arena.alloc_ns", "ns", "lower"),
    ("mem.epoch.pin_unpin_ns", "ns", "lower"),
    ("mem.epoch.try_advance_ns", "ns", "lower"),
    // rhtm_htm, rhtm_stm, rhtm_hytm_std, rhtm_core: one path each
    ("htm.txn_r8_ns", "ns", "lower"),
    ("htm.txn_r8w2_ns", "ns", "lower"),
    ("htm.rbtree_ops_per_s", "op/s", "higher"),
    ("stm.tl2.txn_r8_ns", "ns", "lower"),
    ("stm.tl2.txn_r8w2_ns", "ns", "lower"),
    ("stm.tl2.rbtree_ops_per_s", "op/s", "higher"),
    ("hytm_std.txn_r8_ns", "ns", "lower"),
    ("hytm_std.txn_r8w2_ns", "ns", "lower"),
    ("hytm_std.rbtree_ops_per_s", "op/s", "higher"),
    ("core.rh1_fast.txn_r8_ns", "ns", "lower"),
    ("core.rh1_fast.txn_r8w2_ns", "ns", "lower"),
    ("core.rh1_fast.rbtree_ops_per_s", "op/s", "higher"),
    ("core.rh1_slow.txn_r8_ns", "ns", "lower"),
    ("core.rh1_slow.txn_r8w2_ns", "ns", "lower"),
    ("core.rh1_slow.rbtree_ops_per_s", "op/s", "higher"),
    ("core.rh2.txn_r8_ns", "ns", "lower"),
    ("core.rh2.txn_r8w2_ns", "ns", "lower"),
    ("core.rh2.rbtree_ops_per_s", "op/s", "higher"),
    // rhtm_core on the workload, from public counters
    ("core.commits_hw_fast_share", "ratio", "higher"),
    ("core.commits_mixed_slow_share", "ratio", "lower"),
    ("core.commits_software_share", "ratio", "lower"),
    ("core.abort_share", "ratio", "lower"),
    ("core.aborts_conflict_share", "ratio", "lower"),
    ("core.aborts_capacity_share", "ratio", "lower"),
    ("core.breakdown.read_ns", "ns", "lower"),
    ("core.breakdown.write_ns", "ns", "lower"),
    ("core.breakdown.commit_ns", "ns", "lower"),
    ("core.breakdown.private_ns", "ns", "lower"),
    ("core.breakdown.intertx_ns", "ns", "lower"),
    // rhtm_api
    ("api.dyn.run_ns", "ns", "lower"),
    ("api.mono.run_ns", "ns", "lower"),
    ("api.reclaim.alloc_spare_ns", "ns", "lower"),
    ("api.reclaim.pin_ns", "ns", "lower"),
    ("api.reclaim.retire_ns", "ns", "lower"),
    ("api.reclaim.alloc_retire_ns", "ns", "lower"),
    ("api.reclaim.reuse_share", "ratio", "higher"),
    ("api.retry.demote_share", "ratio", "lower"),
    ("api.retry.backoff_share", "ratio", "lower"),
    ("api.latency.record_ns", "ns", "lower"),
    // rhtm_workloads
    ("workloads.skiplist.get_8k_ns", "ns", "lower"),
    ("workloads.skiplist.get_256k_ns", "ns", "lower"),
    ("workloads.skiplist.put_delete_8k_ns", "ns", "lower"),
    ("workloads.rbtree.lookup_ns", "ns", "lower"),
    ("workloads.driver.draw_ns", "ns", "lower"),
    ("workloads.spec.build_ms", "ms", "lower"),
    // rhtm_kv
    ("kv.route_ns", "ns", "lower"),
    ("kv.get_ns", "ns", "lower"),
    ("kv.put_ns", "ns", "lower"),
    ("kv.delete_ns", "ns", "lower"),
    ("kv.transfer_ns", "ns", "lower"),
    ("kv.multi_get_ns", "ns", "lower"),
    ("kv.get_p99_ns", "ns", "lower"),
    ("kv.put_p99_ns", "ns", "lower"),
    ("kv.delete_p99_ns", "ns", "lower"),
    ("kv.wait_p50_us", "us", "lower"),
    ("kv.wait_p99_us", "us", "lower"),
    ("kv.gen_late_p99_us", "us", "lower"),
    ("kv.self_put_ns", "ns", "lower"),
    ("kv.self_delete_ns", "ns", "lower"),
    ("kv.service_build_s", "s", "lower"),
    ("kv.worker_register_us", "us", "lower"),
    ("kv.load.plan_ns", "ns", "lower"),
    ("kv.mem.alloc_words_per_op", "count", "lower"),
    ("kv.mem.retired_per_op", "count", "lower"),
    ("kv.mem.epoch_advances", "count", "lower"),
    // the benchmark itself
    ("bench.calib_ns", "ns", "lower"),
    ("bench.span_cost_ns", "ns", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
];

/// The values a traced run measured, by metric name.
#[derive(Default)]
pub struct LayerValues(BTreeMap<String, f64>);

impl LayerValues {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name.to_string(), value);
    }

    /// The value of `name`; 0 when the run did not measure it (its layer
    /// is not on the workload's path).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The runtime paths a layer kernel is run on: metric prefix and spec.
const PATHS: [(&str, &str); 6] = [
    ("htm", "htm"),
    ("stm.tl2", "tl2"),
    ("hytm_std", "standard-hytm"),
    ("core.rh1_fast", "rh1-fast"),
    ("core.rh1_slow", "rh1-slow"),
    ("core.rh2", "rh2"),
];

/// Batches timed per kernel; the value is their median.
const BATCHES: usize = 5;

/// Nanoseconds per call of `kernel`: grows the batch until it lasts
/// `batch_s`, then takes the median of `BATCHES` batches.
fn per_call_ns(kernel: &mut dyn FnMut(usize) -> u64, batch_s: f64) -> f64 {
    let mut n = 16usize;
    loop {
        let t = Instant::now();
        std::hint::black_box(kernel(n));
        let took = t.elapsed().as_secs_f64();
        if took >= batch_s || n >= 1 << 26 {
            break;
        }
        // Aim a little past the target; at least double.
        n = ((n as f64 * (1.2 * batch_s / took.max(1e-7))) as usize).clamp(n * 2, n * 64);
    }
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(kernel(n));
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&batches)
}

/// `bench.calib_ns`: a fixed atomic load/store loop with no TM code in
/// it — the machine-speed reference a slow host shows up in.
fn calibration_kernel() -> Kernel {
    use std::sync::atomic::{AtomicU64, Ordering};
    let cells: Vec<AtomicU64> = (0..1024).map(AtomicU64::new).collect();
    Box::new(move |n| {
        let mut acc = 0u64;
        for i in 0..n {
            let cell = &cells[(i * 7) & 1023];
            acc = acc.wrapping_add(cell.load(Ordering::SeqCst));
            cell.store(acc, Ordering::SeqCst);
        }
        acc
    })
}

/// Runs every workload-independent kernel, giving each batch `batch_s`
/// seconds and each rbtree series `series_s`.
pub fn run_kernels(values: &mut LayerValues, batch_s: f64, series_s: f64, seed: u64) {
    let reference = Spec::reference();
    let mut time = |name: &str, mut kernel: Kernel| {
        values.set(name, per_call_ns(&mut kernel, batch_s));
    };
    time("bench.calib_ns", calibration_kernel());
    time("mem.heap.load_ns", surface::kernel_heap_load(false));
    time("mem.heap.seg_load_ns", surface::kernel_heap_load(true));
    time(
        "mem.clock.next_commit_ns",
        surface::kernel_clock_next_commit(),
    );
    time("mem.arena.alloc_ns", surface::kernel_arena_alloc());
    time("mem.epoch.pin_unpin_ns", surface::kernel_epoch_pin_unpin());
    time(
        "mem.epoch.try_advance_ns",
        surface::kernel_epoch_try_advance(),
    );
    for (prefix, label) in PATHS {
        let spec = Spec::parse(label);
        time(
            &format!("{prefix}.txn_r8_ns"),
            surface::kernel_txn(&spec, 0),
        );
        time(
            &format!("{prefix}.txn_r8w2_ns"),
            surface::kernel_txn(&spec, 2),
        );
    }
    time("api.dyn.run_ns", surface::kernel_dyn_run(&reference));
    time("api.mono.run_ns", surface::kernel_mono_run(&reference));
    time(
        "api.reclaim.alloc_retire_ns",
        surface::kernel_pool_alloc_retire(&reference),
    );
    time("api.latency.record_ns", surface::kernel_latency_record());
    time(
        "workloads.skiplist.get_8k_ns",
        surface::kernel_skiplist_get(8 << 10),
    );
    time(
        "workloads.skiplist.get_256k_ns",
        surface::kernel_skiplist_get(256 << 10),
    );
    time(
        "workloads.skiplist.put_delete_8k_ns",
        surface::kernel_skiplist_put_delete(8 << 10),
    );
    time(
        "workloads.rbtree.lookup_ns",
        surface::kernel_rbtree_lookup(),
    );
    let rbtree = TmCase::find("rbtree-uniform");
    time(
        "workloads.driver.draw_ns",
        surface::kernel_driver_draw(&rbtree),
    );

    // Not per-call nanoseconds: a build in ms, a first touch in µs.
    let mut build = surface::kernel_spec_build(&reference);
    values.set(
        "workloads.spec.build_ms",
        per_call_ns(&mut build, batch_s) / 1e6,
    );
    let mut touch = surface::kernel_heap_first_touch();
    let t = Instant::now();
    std::hint::black_box(touch(surface::FIRST_TOUCH_SEGMENTS));
    values.set(
        "mem.heap.first_touch_us",
        t.elapsed().as_secs_f64() * 1e6 / surface::FIRST_TOUCH_SEGMENTS as f64,
    );

    // The paper's Figure 1 series at one thread.
    for (prefix, label) in PATHS {
        let run = rbtree.run(&Spec::parse(label), 1, Budget::Timed(series_s), seed);
        values.set(&format!("{prefix}.rbtree_ops_per_s"), run.ops_per_s());
    }
}

/// `kv.route_ns` needs the workload's own service.
pub fn route_ns(service: &surface::Service, batch_s: f64) -> f64 {
    let mut kernel = surface::kernel_kv_route(service);
    per_call_ns(&mut kernel, batch_s)
}

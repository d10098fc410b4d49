//! The benchmark's own clock helpers, load-generation randomness and
//! process facts.  No product code.

use std::time::{Duration, Instant};

/// Busy-waits for `ns` nanoseconds (0 returns at once).
#[inline]
pub fn spin_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let until = Instant::now() + Duration::from_nanos(ns);
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// splitmix64: the benchmark's generator for arrival times and seeds.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A stream seed for section `section`, item `index` of a run seeded
/// with `seed`: every input of a run is a pure function of `--seed`.
pub fn derive_seed(seed: u64, section: u64, index: u64) -> u64 {
    SplitMix(
        seed ^ section.wrapping_mul(0xA24B_AED4_963E_E407)
            ^ index.wrapping_mul(0x9FB2_1C65_1E98_DF25),
    )
    .next_u64()
}

/// Poisson arrival offsets (ns from the origin) at `rate` per second over
/// `seconds`.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix(seed);
    let horizon = seconds * 1e9;
    let mut at = Vec::with_capacity((rate * seconds * 1.05) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate * 1e9;
        if t >= horizon {
            return at;
        }
        at.push(t as u64);
    }
}

/// `VmHWM` of this process in MiB: its peak resident set so far.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Hardware threads the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

//! Open-loop measurement: windows at a fixed offered rate, the knee
//! ladder, and the benchmark's own copy of the open loop.
//!
//! End-to-end KV numbers come from `rhtm_kv::run_open_loop` (see
//! `kvrun`); the loop in here drives what the product has no open loop
//! for — a `Workload` thread — and the traced runs, which need a span
//! around each call.  Both time a request from its *scheduled* arrival.

use std::time::{Duration, Instant};

use crate::clock::derive_seed;
use crate::defs::{
    Metric, OpenShape, Verdict, KNEE_GOODPUT_SHARE, LADDER_RATIO, LADDER_STEPS, ROUNDS,
    SHARE_LADDER, SHARE_WINDOWS,
};
use crate::json::Json;
use crate::stats::{lower_decile, median, spread};
use crate::surface::Hist;

// Stream ids for `derive_seed`.
const SEED_WINDOWS: u64 = 4;
const SEED_LADDER: u64 = 5;

/// Serves `schedule` (arrival offsets in ns from an origin a grace period
/// ahead): waits for each arrival — sleeping while far out, spinning the
/// last stretch, as the product's loop does — calls `exec(i)`, then
/// `done(i, scheduled, started, ended)` with offsets in ns from the
/// origin.  Every scheduled request is served, however late.  Returns the
/// seconds from the origin to the last completion.
pub fn serve(
    schedule: &[u64],
    mut exec: impl FnMut(usize),
    mut done: impl FnMut(usize, u64, u64, u64),
) -> f64 {
    let origin = Instant::now() + Duration::from_millis(2);
    for (i, &at_ns) in schedule.iter().enumerate() {
        let deadline = origin + Duration::from_nanos(at_ns);
        let started = loop {
            let now = Instant::now();
            if now >= deadline {
                break now;
            }
            let ahead = deadline - now;
            if ahead > Duration::from_millis(1) {
                std::thread::sleep(ahead - Duration::from_micros(500));
            } else {
                std::hint::spin_loop();
            }
        };
        exec(i);
        let ended = Instant::now();
        done(
            i,
            at_ns,
            (started - origin).as_nanos() as u64,
            (ended - origin).as_nanos() as u64,
        );
    }
    origin.elapsed().as_secs_f64()
}

/// What one open-loop window measured.
pub struct Window {
    pub offered: f64,
    pub generated: u64,
    pub completed: u64,
    pub goodput: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub max_us: f64,
}

impl Window {
    pub fn new(
        offered: f64,
        seconds: f64,
        generated: u64,
        elapsed_s: f64,
        latency: &Hist,
    ) -> Window {
        let completed = latency.count();
        Window {
            offered,
            generated,
            completed,
            // As `run_open_loop` defines it: under overload the drain time
            // stretches the denominator.
            goodput: completed as f64 / elapsed_s.max(seconds),
            p50_us: latency.quantile(0.50) / 1e3,
            p90_us: latency.quantile(0.90) / 1e3,
            p99_us: latency.quantile(0.99) / 1e3,
            p999_us: latency.quantile(0.999) / 1e3,
            max_us: latency.max() as f64 / 1e3,
        }
    }

    pub fn json(&self) -> Json {
        Json::obj([
            ("offered", Json::Num(self.offered)),
            ("samples", Json::Num(self.completed as f64)),
            ("goodput", Json::Num(self.goodput)),
            ("p50_us", Json::Num(self.p50_us)),
            ("p90_us", Json::Num(self.p90_us)),
            ("p99_us", Json::Num(self.p99_us)),
            ("p99_9_us", Json::Num(self.p999_us)),
            ("max_us", Json::Num(self.max_us)),
        ])
    }

    /// Requests generated but not completed.
    pub fn missing(&self) -> u64 {
        self.generated.saturating_sub(self.completed)
    }
}

/// One ladder rate: its windows (one per round) and the verdict.
///
/// A rate passes when at least one of its windows meets both limits.  The
/// host's stalls only ever make a window worse — a 2.6 ms stall once a
/// second is enough to push the p99 of a 0.1 s window near saturation
/// past the limit — so the best window is the one that shows the program,
/// and a rate the program cannot sustain fails in all of them.
pub struct LadderStep {
    pub rate: f64,
    pub windows: Vec<Window>,
    /// Median goodput of the passing windows (of all, when none passes).
    pub goodput: f64,
    pub pass: bool,
}

fn window_passes(w: &Window, p99_limit_us: f64) -> bool {
    w.missing() == 0 && w.p99_us <= p99_limit_us && w.goodput >= KNEE_GOODPUT_SHARE * w.offered
}

impl LadderStep {
    pub fn new(rate: f64, windows: Vec<Window>, p99_limit_us: f64) -> LadderStep {
        let passing: Vec<f64> = windows
            .iter()
            .filter(|w| window_passes(w, p99_limit_us))
            .map(|w| w.goodput)
            .collect();
        let pass = !passing.is_empty();
        let goodput = if pass {
            median(&passing)
        } else {
            median(&windows.iter().map(|w| w.goodput).collect::<Vec<_>>())
        };
        LadderStep {
            rate,
            windows,
            goodput,
            pass,
        }
    }

    pub fn json(&self) -> Json {
        Json::obj([
            ("rate", Json::Num(self.rate)),
            ("pass", Json::Bool(self.pass)),
            ("goodput", Json::Num(self.goodput)),
            (
                "windows",
                Json::Arr(self.windows.iter().map(Window::json).collect()),
            ),
        ])
    }
}

/// The open-loop sections of a run, gathered round by round: latency
/// windows at the reference rate and one window per ladder rate (every
/// rate, every round, so a run's work and memory do not depend on where
/// the knee falls).
pub struct OpenSections {
    shape: OpenShape,
    windows_per_round: usize,
    step_seconds: f64,
    windows: Vec<Window>,
    /// Per ladder rate, its windows so far.
    per_rate: Vec<Vec<Window>>,
}

impl OpenSections {
    /// Sections sized for a run of `seconds`.
    pub fn new(shape: &OpenShape, seconds: f64) -> OpenSections {
        OpenSections {
            shape: *shape,
            windows_per_round: ((seconds * SHARE_WINDOWS / shape.window_s) as usize)
                .div_ceil(ROUNDS),
            step_seconds: seconds * SHARE_LADDER / (LADDER_STEPS * ROUNDS) as f64,
            windows: Vec::new(),
            per_rate: (0..LADDER_STEPS).map(|_| Vec::new()).collect(),
        }
    }

    /// One round: `window(rate, seconds, seed)` runs each window.
    pub fn round(
        &mut self,
        seed: u64,
        round: usize,
        mut window: impl FnMut(f64, f64, u64) -> Window,
    ) {
        let shape = self.shape;
        for i in 0..self.windows_per_round {
            let index = (round * self.windows_per_round + i) as u64;
            self.windows.push(window(
                shape.ref_rate,
                shape.window_s,
                derive_seed(seed, SEED_WINDOWS, index),
            ));
        }
        for (step, rate) in shape.ladder_rates().enumerate() {
            let index = (round * LADDER_STEPS + step) as u64;
            self.per_rate[step].push(window(
                rate,
                self.step_seconds,
                derive_seed(seed, SEED_LADDER, index),
            ));
        }
    }

    /// Every window measured, latency windows first.
    pub fn all_windows(&self) -> impl Iterator<Item = &Window> {
        self.windows.iter().chain(self.per_rate.iter().flatten())
    }

    /// The three open-loop metrics and the sections' detail.
    ///
    /// `p50_us` / `p99_us` are the lower decile over the windows of each
    /// window's percentile.  Pooling all requests would let one 2–3 ms
    /// preemption stall park a thousand queued requests in the p99; taking
    /// each window's own p99 and then a quantile over windows keeps a stall
    /// inside the windows it hit.  The lower decile rather than the median,
    /// because on this host most windows are hit by something and the
    /// disturbances only ever add: a tail the program itself causes — a
    /// reclamation scan, an arena refill, a segment's first touch — is in
    /// every window, the calm ones included.
    pub fn finish(self, verdict: &mut Verdict) -> (Vec<Metric>, Vec<(&'static str, Json)>) {
        let p50: Vec<f64> = self.windows.iter().map(|w| w.p50_us).collect();
        let p99: Vec<f64> = self.windows.iter().map(|w| w.p99_us).collect();
        let ladder: Vec<LadderStep> = self
            .shape
            .ladder_rates()
            .zip(self.per_rate)
            .map(|(rate, windows)| LadderStep::new(rate, windows, self.shape.knee_p99_limit_us))
            .collect();
        let (knee_rate, knee_at) = knee(&ladder);
        if knee_at.is_none() {
            verdict.notes.push(
                "no ladder rate met the limit; knee_rate is the lowest rate's goodput".into(),
            );
        }
        let metrics = vec![
            Metric::new("p50_us", "us", lower_decile(&p50), spread(&p50)),
            Metric::new("p99_us", "us", lower_decile(&p99), spread(&p99)),
            // One ladder step is what a knee reading can be off by.
            Metric::new("knee_rate", "req/s", knee_rate, LADDER_RATIO - 1.0),
        ];
        let detail = vec![
            ("reference_rate", Json::Num(self.shape.ref_rate)),
            ("knee_p99_limit_us", Json::Num(self.shape.knee_p99_limit_us)),
            (
                "windows",
                Json::Arr(self.windows.iter().map(Window::json).collect()),
            ),
            (
                "ladder",
                Json::Arr(ladder.iter().map(LadderStep::json).collect()),
            ),
            (
                "knee_step",
                knee_at.map_or(Json::Null, |i| Json::Num(ladder[i].rate)),
            ),
        ];
        (metrics, detail)
    }
}

/// `knee_rate`: the goodput measured at the highest passing rate below
/// the first two consecutive failing rates, and that rate's index.  A
/// ladder whose lowest rate fails reports that rate's goodput (and says
/// so in a note).
fn knee(steps: &[LadderStep]) -> (f64, Option<usize>) {
    let mut best = None;
    for (i, step) in steps.iter().enumerate() {
        if step.pass {
            best = Some(i);
        } else if i > 0 && !steps[i - 1].pass {
            break;
        }
    }
    (steps[best.unwrap_or(0)].goodput, best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(rate: f64, pass: bool) -> LadderStep {
        LadderStep {
            rate,
            windows: Vec::new(),
            goodput: rate,
            pass,
        }
    }

    #[test]
    fn knee_skips_one_failure_and_stops_at_two() {
        let steps: Vec<_> = [true, true, false, true, false, false, true]
            .iter()
            .enumerate()
            .map(|(i, &p)| step(100.0 * (i + 1) as f64, p))
            .collect();
        let (rate, at) = knee(&steps);
        assert_eq!(at, Some(3));
        assert_eq!(rate, 400.0);
        let none: Vec<_> = (0..3)
            .map(|i| step(100.0 * (i + 1) as f64, false))
            .collect();
        assert_eq!(knee(&none).1, None);
    }

    #[test]
    fn serve_runs_every_request_in_order() {
        let schedule: Vec<u64> = (0..50).map(|i| i * 20_000).collect();
        let mut order = Vec::new();
        let mut late = 0;
        let elapsed = serve(
            &schedule,
            |i| order.push(i),
            |_, at, started, ended| {
                assert!(started >= at && ended >= started);
                late += 1;
            },
        );
        assert_eq!(order, (0..50).collect::<Vec<_>>());
        assert_eq!(late, 50);
        assert!(elapsed >= 0.00098);
    }
}

//! The closed loop shared by every workload.
//!
//! One loop thread runs steps back to back. A step is either a
//! user-facing operation (counted and timed) or background work — a
//! write, a sweep — whose time counts toward the measured wall time but
//! not toward the operation count. Input generation and output checks
//! happen inside a step but outside its timed region, so they never
//! count. The step sequence is a function of the seed and the step
//! index only; the clock decides how many steps run, never which.

use std::time::Instant;

use crate::metrics::{ratio, Values, LAYERS};
use crate::stats::{self, Samples};
use crate::trace::{Tracer, OP_LAYER};

/// What one step did.
pub enum Step {
    /// A user-facing operation: its timed latency and whether it (and
    /// its output check) succeeded.
    Op {
        /// Timed latency.
        nanos: u64,
        /// No error and the check passed.
        ok: bool,
    },
    /// Background work, timed but not an operation.
    Background {
        /// Timed duration.
        nanos: u64,
    },
}

/// A workload after set-up.
pub trait Workload {
    /// Runs step `step`, recording spans into `tracer` when it is on.
    fn step(&mut self, step: u64, tracer: &mut Tracer) -> Step;

    /// End-of-run checks (and the TAXII watermark walk, whose shortfall
    /// is a per-layer metric); returns whether every output check of
    /// the run passed.
    fn finish(&mut self, values: &mut Values) -> bool;

    /// Fills the per-layer metrics the workload measures.
    fn layer_metrics(&self, tracer: &Tracer, values: &mut Values);

    /// Human-readable lines printed before the result.
    fn notes(&self) -> Vec<String>;

    /// Digest of the set-up's canonical outputs: the same for every
    /// set-up of one seed, whatever UUIDs and clock readings it saw.
    fn digest(&self) -> String;
}

/// Run settings from the command line.
#[derive(Debug)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
}

/// Traced runs alternate untraced and traced slices of the measured
/// time, so both see the same mix of early and late state.
const TRACE_SLICES: u64 = 6;

/// Untraced runs split the measured time into this many blocks and
/// report the median block's throughput and median latency, so a burst
/// of interference from other tenants of the machine that spans less
/// than half the run does not move the result.
const BLOCKS: u64 = 5;

/// Counters of the measured loop.
struct Meter {
    budget_ns: u64,
    timed_ns: u64,
    ops: u64,
    failed: u64,
    samples: Samples,
    /// `[untraced, traced]` operations and timed nanoseconds.
    mode_ops: [u64; 2],
    mode_ns: [u64; 2],
}

/// Nanoseconds elapsed since `since`.
pub fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What a finished run prints.
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Measured metrics.
    pub values: Values,
    /// Lines to print before the result.
    pub notes: Vec<String>,
    /// The traced run's spans as Chrome JSON.
    pub chrome: Option<String>,
}

/// Per-workload sizing of the measured loop.
pub struct Sizing {
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Latency samples reserved up front.
    pub sample_capacity: usize,
    /// Read `peak_rss_mb` once this many operations have run instead of
    /// at the end of the run.
    pub rss_after_ops: Option<u64>,
}

fn join_4(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Sets the workload up `sizing.setup_repeats` times (keeping the
/// last), runs the measured loop and collects the metrics. `setup`
/// builds one instance; the first set-up is timed from `process_start`.
pub fn run<W: Workload>(
    config: &Config,
    process_start: Instant,
    sizing: &Sizing,
    mut setup: impl FnMut() -> W,
) -> Outcome {
    let repeats = sizing.setup_repeats;
    let mut setup_s = Vec::with_capacity(repeats);
    let mut digests = Vec::with_capacity(repeats);
    let mut workload = None;
    for i in 0..repeats.max(1) {
        // Tear the previous instance down first, untimed.
        drop(workload.take());
        let started = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let built = setup();
        setup_s.push(started.elapsed().as_secs_f64());
        digests.push(built.digest());
        workload = Some(built);
    }
    let mut workload = workload.expect("at least one set-up");
    let digests_agree = digests.windows(2).all(|w| w[0] == w[1]);

    let mut tracer = Tracer::new(false);
    let mut meter = Meter {
        budget_ns: (config.seconds * 1e9) as u64,
        timed_ns: 0,
        ops: 0,
        failed: 0,
        samples: Samples::with_capacity(sizing.sample_capacity),
        mode_ops: [0; 2],
        mode_ns: [0; 2],
    };
    let mut step = 0u64;
    let mut peak_rss = None;
    // (first sample, timed nanoseconds) at the start of each block.
    let mut blocks: Vec<(usize, u64)> = vec![(0, 0)];
    while meter.timed_ns < meter.budget_ns {
        let block = meter.timed_ns.saturating_mul(BLOCKS) / meter.budget_ns.max(1);
        if block as usize >= blocks.len() && block < BLOCKS {
            blocks.push((meter.samples.len(), meter.timed_ns));
        }
        let mode = if config.trace {
            let slice = meter.timed_ns.saturating_mul(TRACE_SLICES) / meter.budget_ns.max(1);
            usize::from(slice % 2 == 1)
        } else {
            0
        };
        if sizing.rss_after_ops == Some(meter.ops) {
            peak_rss.get_or_insert_with(stats::peak_rss_mb);
        }
        tracer.set_enabled(mode == 1);
        tracer.set_op(step + 1);
        match workload.step(step, &mut tracer) {
            Step::Op { nanos, ok } => {
                meter.timed_ns += nanos;
                meter.ops += 1;
                meter.failed += u64::from(!ok);
                meter.samples.record(nanos);
                meter.mode_ops[mode] += 1;
                meter.mode_ns[mode] += nanos;
            }
            Step::Background { nanos } => {
                meter.timed_ns += nanos;
                meter.mode_ns[mode] += nanos;
            }
        }
        step += 1;
    }
    tracer.set_enabled(false);

    let mut values = Values::default();
    let checks_passed = workload.finish(&mut values);
    let mut notes = workload.notes();
    notes.push(format!("set-up digests: {}", digests.join(" ")));
    let ops = meter.ops;
    let dropped = meter.samples.dropped();
    if config.trace {
        let traced_ops = meter.mode_ops[1];
        workload.layer_metrics(&tracer, &mut values);
        let by_layer = tracer.self_ns_by_layer();
        let per_op_ms = |ns: u64| ratio(ns as f64, traced_ops as f64) / 1e6;
        for (layer, name) in LAYERS {
            values.set(name, per_op_ms(by_layer.get(layer).copied().unwrap_or(0)));
        }
        values.set(
            "self_ms.unattributed",
            per_op_ms(by_layer.get(OP_LAYER).copied().unwrap_or(0)),
        );
        let rate = |m: usize| ratio(meter.mode_ops[m] as f64, meter.mode_ns[m] as f64 / 1e9);
        let (untraced, traced) = (rate(0), rate(1));
        values.set("trace.ops_per_s_untraced", untraced);
        values.set("trace.ops_per_s_traced", traced);
        values.set(
            "trace.overhead_pct",
            100.0 * (1.0 - ratio(traced, untraced)),
        );
        let (stored, not_stored) = tracer.stored();
        notes.push(format!(
            "spans: {} stored, {} aggregated only",
            stored.len(),
            not_stored
        ));
    } else {
        blocks.push((meter.samples.len(), meter.timed_ns));
        let (block_rates, block_p50s): (Vec<f64>, Vec<f64>) = blocks
            .windows(2)
            .filter(|w| w[1].0 > w[0].0)
            .map(|w| {
                let rate = ratio((w[1].0 - w[0].0) as f64, (w[1].1 - w[0].1) as f64 / 1e9);
                let p50 = meter
                    .samples
                    .sorted_range(w[0].0..w[1].0)
                    .percentile_ms(50.0);
                (rate, p50)
            })
            .unzip();
        values.set("setup_s", stats::median(&setup_s));
        values.set("ops_per_s", stats::median(&block_rates));
        values.set("latency_p50_ms", stats::median(&block_p50s));
        notes.push(format!(
            "per block: ops_per_s {} | latency_p50_ms {}",
            join_4(&block_rates),
            join_4(&block_p50s)
        ));
        let sorted = meter.samples.into_sorted();
        match stats::tail_percentile(sorted.len()) {
            Some(p) => {
                values.set("latency_tail_ms", sorted.percentile_ms(p));
                notes.push(format!(
                    "latency_tail_ms is p{p} over {} samples ({} beyond it)",
                    sorted.len(),
                    sorted.len() - stats::nearest_rank(p, sorted.len())
                ));
            }
            None => notes.push(format!(
                "latency_tail_ms unavailable: {} samples",
                sorted.len()
            )),
        }
        values.set("peak_rss_mb", peak_rss.unwrap_or_else(stats::peak_rss_mb));
        notes.push(format!("setup_s runs: {}", join_4(&setup_s)));
    }
    if dropped > 0 {
        notes.push(format!(
            "{dropped} latency samples over the reservation were dropped"
        ));
    }
    notes.push(format!(
        "steps {step}, ops {ops}, timed {:.3}s",
        meter.timed_ns as f64 / 1e9
    ));
    let chrome = config.trace.then(|| tracer.chrome_json());
    Outcome {
        correct: checks_passed && digests_agree,
        attempted: ops,
        failed: meter.failed,
        values,
        notes,
        chrome,
    }
}

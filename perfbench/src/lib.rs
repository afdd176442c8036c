//! The PDoS lab's benchmark: three closed batch workloads measured end to
//! end with tracing off, plus a separate traced run that charges the time
//! to the lab's layers. See `perfbench/README.md` for why each workload
//! was chosen and which end-to-end metric each layer metric should move.
//!
//! Two binaries share this library: `perfbench` (system allocator, no
//! spans, no profiler) measures the end-to-end metrics, and
//! `perfbench-traced` (counting allocator, spans, engine profiler) the
//! per-layer ones.

mod flows;
mod pins;
mod probes;
mod sweeps;
mod trace;

use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;

/// The seed the pinned digests and counts were recorded at.
pub(crate) const DEFAULT_SEED: u64 = 1;

/// Worker threads every workload uses (the reference host has 2 cores).
pub(crate) const JOBS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    FigSweep,
    MillionFlow,
    ObservedRoc,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "fig-sweep" => Some(Workload::FigSweep),
            "million-flow" => Some(Workload::MillionFlow),
            "observed-roc" => Some(Workload::ObservedRoc),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FigSweep => "fig-sweep",
            Workload::MillionFlow => "million-flow",
            Workload::ObservedRoc => "observed-roc",
        }
    }
}

/// Command-line options shared by both binaries.
#[derive(Debug, Clone)]
pub(crate) struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Run exactly one fixed unit of work (the traced comparison unit)
    /// instead of filling `seconds`.
    pub once: bool,
    /// Print the pinned digests and counts this seed produces.
    pub emit_pins: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut once = false;
    let mut emit_pins = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--once" => once = true,
            "--emit-pins" => emit_pins = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        once,
        emit_pins,
    })
}

impl Options {
    /// Whether to measure another unit of work, after `done` units of
    /// which the last took `last_s`, in a run whose measurement began at
    /// `started`. `--once` measures exactly one unit. Otherwise units
    /// continue while one more of the same length still ends within
    /// `--seconds`; at least one is measured. A slow host then measures
    /// fewer units rather than running long.
    pub fn another_unit(&self, done: usize, started: Instant, last_s: f64) -> bool {
        if self.once {
            done == 0
        } else {
            done == 0 || started.elapsed().as_secs_f64() + last_s <= self.seconds
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub(crate) struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub(crate) fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub(crate) struct Report {
    /// Operations attempted (sweep runs; simulated seconds for
    /// `million-flow`).
    pub attempted: u64,
    /// Operations that failed: a `Failed` record, an invariant violation,
    /// or an output that does not match its pin.
    pub failed: u64,
    /// Why operations failed (first few).
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Sample counts behind percentiles, for the human summary.
    pub notes: Vec<String>,
    /// Wall time of the fixed unit (the traced comparison unit).
    pub unit_wall_s: f64,
}

impl Report {
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}, \"unit_wall_s\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            json_number(self.unit_wall_s)
        )
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Entry point of both binaries. Returns the process exit code.
pub fn main_with(traced: bool) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    if traced {
        pdos_sim::profile::set_alloc_probe(|| {
            let s = pdos_bench::alloc::snapshot();
            (s.allocations, s.bytes)
        });
    }
    let tracer = Tracer::new(traced);
    let report = if opts.emit_pins {
        return emit_pins(&opts);
    } else if traced {
        probes::traced_run(&opts, &tracer)
    } else {
        match opts.workload {
            Workload::FigSweep => sweeps::fig_sweep_outcome(&opts, &tracer).report,
            Workload::MillionFlow => flows::million_flow_outcome(&opts, &tracer).report,
            Workload::ObservedRoc => sweeps::observed_roc_outcome(&opts, &tracer).report,
        }
    };
    eprint!("{}", summary(&opts, &report));
    println!("{}", report.json());
    if report.failed == 0 {
        0
    } else {
        1
    }
}

fn emit_pins(opts: &Options) -> i32 {
    let pins = match opts.workload {
        Workload::FigSweep => sweeps::fig_sweep_pin(opts.seed),
        Workload::MillionFlow => flows::million_flow_pins(opts.seed),
        Workload::ObservedRoc => sweeps::observed_roc_pin(opts.seed),
    };
    println!("{pins}");
    0
}

fn summary(opts: &Options, report: &Report) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "perfbench {} seed {}: {} attempted, {} failed (fail_frac {:.4})",
        opts.workload.name(),
        opts.seed,
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for p in &report.problems {
        let _ = writeln!(s, "  FAILED: {p}");
    }
    for m in &report.metrics {
        let _ = writeln!(s, "  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for n in &report.notes {
        let _ = writeln!(s, "  note: {n}");
    }
    s
}

/// SplitMix64 finalizer: derives independent sub-seeds from the workload
/// seed and a tag.
pub(crate) fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank quantile of unsorted samples (`q` in `(0, 1]`).
pub(crate) fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub(crate) fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set size of this process, MiB.
pub(crate) fn peak_rss_mib() -> f64 {
    pdos_bench::perf::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0))
}

/// Times `setup` repeatedly — at least `min_reps` times and until `min_s`
/// seconds have been spent — appends the wall time of each set-up to
/// `walls`, and returns the last result.
pub(crate) fn timed_setup<T>(
    walls: &mut Vec<f64>,
    min_reps: usize,
    min_s: f64,
    mut setup: impl FnMut() -> T,
) -> T {
    let started = Instant::now();
    let mut reps = 0;
    loop {
        let t0 = Instant::now();
        let out = setup();
        walls.push(t0.elapsed().as_secs_f64());
        reps += 1;
        if reps >= min_reps && started.elapsed().as_secs_f64() >= min_s {
            return out;
        }
        drop(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 100.0);
        assert_eq!(quantile(&xs, 0.95), 190.0);
        assert_eq!(quantile(&[3.0], 0.95), 3.0);
    }

    #[test]
    fn options_parse_and_reject() {
        let args: Vec<String> = ["--workload", "fig-sweep", "--seed", "7", "--seconds", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse_options(&args).expect("valid");
        assert_eq!(
            (o.workload, o.seed, o.seconds),
            (Workload::FigSweep, 7, 3.0)
        );
        assert!(parse_options(&["--workload".to_string(), "nope".to_string()]).is_err());
    }

    #[test]
    fn mixed_seeds_differ_by_tag() {
        assert_ne!(mix(1, 15), mix(1, 25));
        assert_eq!(mix(4, 2), mix(4, 2));
    }
}

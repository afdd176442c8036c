//! The two sweep workloads: `fig-sweep` (the paper's Fig. 6–9 gain grids,
//! observers off) and `observed-roc` (the ROC trace grid with every
//! observer on, scored by the streaming detectors).

use crate::trace::Tracer;
use crate::{
    median, metric, mix, peak_rss_mib, pins, quantile, timed_setup, Options, Report, JOBS,
};
use pdos_detect::rate::RateDetector;
use pdos_detect::roc::{auc, roc_curve};
use pdos_detect::streaming::{StreamingCusum, StreamingDetector, StreamingRate};
use pdos_scenarios::figures::{gain_figure_specs, roc_specs, FigureGrid, GainFigure};
use pdos_scenarios::runner::{
    fnv1a64, ExperimentSpec, RunOutcome, SeedPolicy, SweepReport, SweepRunner,
};
use pdos_sim::time::SimDuration;
use std::time::Instant;

const FIGURES: [GainFigure; 4] = [
    GainFigure::Fig06,
    GainFigure::Fig07,
    GainFigure::Fig08,
    GainFigure::Fig09,
];

/// Replicas of the ROC grid: 40 distinct warm-up prefixes, five times the
/// runner's checkpoint LRU capacity of 8.
pub const ROC_REPLICAS: u64 = 40;

/// The ROC grid's measurement window (the CLI's full-size ROC sweep).
pub const ROC_WINDOW_S: u64 = 30;

/// The utilization thresholds of the rate scorer and the sigma
/// thresholds of the dispersion-CUSUM scorer (the `pdos sweep --fig roc`
/// sweep).
pub const ROC_RATE_THRESHOLDS: [f64; 7] = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
pub const ROC_CUSUM_THRESHOLDS: [f64; 7] = [2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0];

/// The four gain figures at published resolution: 384 attacked runs. Each
/// panel's scenario seed derives from the workload seed and the panel's
/// flow count, so the four figures still share one warm-up prefix per
/// panel under [`SeedPolicy::FromScenario`].
pub fn fig_specs(seed: u64) -> Vec<ExperimentSpec> {
    let grid = FigureGrid::full();
    let mut specs: Vec<ExperimentSpec> = FIGURES
        .iter()
        .flat_map(|&fig| gain_figure_specs(fig, &grid))
        .collect();
    for s in &mut specs {
        s.scenario.seed = mix(seed, s.scenario.n_flows as u64);
    }
    specs
}

/// The ROC trace grid, every spec metered, checked and tapped. Each
/// replica's scenario seed derives from the workload seed; the benign and
/// attacked runs of one replica share it, and so share one prefix.
pub fn roc_grid(seed: u64, replicas: u64) -> Vec<ExperimentSpec> {
    roc_specs(replicas, SimDuration::from_secs(ROC_WINDOW_S))
        .into_iter()
        .map(|mut s| {
            s.scenario.seed = mix(seed, 1_000 + replica_of(&s));
            s.metered().checked().tapped()
        })
        .collect()
}

/// The replica index encoded in a ROC spec id (`roc/.../r<k>`).
fn replica_of(spec: &ExperimentSpec) -> u64 {
    spec.id
        .rsplit_once("/r")
        .and_then(|(_, r)| r.parse().ok())
        .expect("roc spec ids end in /r<replica>")
}

/// Strips every observer from a ROC spec, keeping its trace.
pub fn bare(spec: &ExperimentSpec) -> ExperimentSpec {
    let mut s = spec.clone();
    s.metrics = false;
    s.checks = false;
    s.detect = false;
    s
}

pub fn runner(seed: u64) -> SweepRunner {
    SweepRunner::new(seed)
        .seed_policy(SeedPolicy::FromScenario)
        .jobs(JOBS)
        .warm_start(true)
}

/// Builds every distinct scenario of a spec list once: the topology part
/// of set-up, and a check that each builds.
fn build_scenarios(specs: &[ExperimentSpec], tracer: &Tracer) -> usize {
    let mut seen = Vec::new();
    for s in specs {
        let key = (
            s.scenario.n_flows,
            s.scenario.seed,
            s.scenario.start_stagger,
        );
        if !seen.contains(&key) {
            seen.push(key);
            let bench = tracer.span("ScenarioSpec::build", || s.scenario.build());
            bench.expect("benchmark scenarios build");
        }
    }
    seen.len()
}

/// Runner-layer accounting across the sweeps of one process.
#[derive(Debug, Default, Clone)]
pub struct RunnerStats {
    pub cold_prefixes: usize,
    pub forked_runs: usize,
    pub cpu_s: f64,
    pub wall_s: f64,
    pub jobs: usize,
}

impl RunnerStats {
    pub fn add(&mut self, r: &SweepReport) {
        self.cold_prefixes += r.warmups;
        self.forked_runs += r.forked_runs;
        self.cpu_s += r.cpu_time().as_secs_f64();
        self.wall_s += r.wall.as_secs_f64();
        self.jobs = r.jobs;
    }

    pub fn prefix_reuse(&self) -> f64 {
        self.forked_runs as f64 / (self.forked_runs + self.cold_prefixes).max(1) as f64
    }

    pub fn parallel_eff(&self) -> f64 {
        self.cpu_s / (self.wall_s * self.jobs.max(1) as f64).max(1e-9)
    }
}

/// Detector-layer accounting.
#[derive(Debug, Default, Clone)]
pub struct DetectStats {
    pub bins: u64,
    pub alarms: u64,
    pub wall_s: f64,
}

/// Everything a sweep workload measured: the end-to-end report plus the
/// layer numbers the traced run reads.
pub struct SweepOutcome {
    pub report: Report,
    pub runner: RunnerStats,
    pub detect: DetectStats,
    pub merge_s: Vec<f64>,
}

/// Per-run timings collected over the grids of one process.
#[derive(Default)]
struct RunTimes {
    /// Per spec, the sum of its walls over the grids run so far.
    spec_walls: Vec<f64>,
    grids: usize,
    runs: usize,
    sim_s: f64,
    sweep_wall_s: f64,
}

impl RunTimes {
    fn add(&mut self, specs: &[ExperimentSpec], report: &SweepReport) {
        self.spec_walls.resize(specs.len(), 0.0);
        for ((spec, r), sum) in specs.iter().zip(&report.records).zip(&mut self.spec_walls) {
            *sum += r.wall.as_secs_f64();
            if matches!(
                r.outcome,
                RunOutcome::Point { .. } | RunOutcome::Benign { .. }
            ) {
                self.sim_s += (spec.warmup + spec.window).as_secs_f64();
            }
        }
        self.grids += 1;
        self.runs += report.records.len();
        self.sweep_wall_s += report.wall.as_secs_f64();
    }

    /// The percentiles are over specs, of each spec's mean wall across
    /// the grids: a run's wall is read on one core at one moment, and on
    /// a shared host that moment's speed would otherwise decide which side
    /// of a gap between run classes (cold start or fork, small or large
    /// panel) the median falls on.
    fn into_metrics(self, report: &mut Report, setup_s: f64) {
        let per_run: Vec<f64> = self
            .spec_walls
            .iter()
            .map(|w| w / self.grids.max(1) as f64)
            .collect();
        report.metrics = vec![
            metric("setup_s", setup_s, "s"),
            metric(
                "sim_s_per_wall_s",
                self.sim_s / self.sweep_wall_s,
                "sim_s/s",
            ),
            metric("runs_per_s", self.runs as f64 / self.sweep_wall_s, "1/s"),
            metric("run_p50_s", median(&per_run), "s"),
            metric("run_p95_s", quantile(&per_run, 0.95), "s"),
            metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        ];
        report.notes.push(format!(
            "run_p50_s/run_p95_s over {} specs, each the mean of {} grids",
            per_run.len(),
            self.grids
        ));
    }
}

/// Counts every `Failed` record (worker panic, build error, invariant
/// violation) against the runs attempted. Infeasible points are attempted
/// and not failed.
fn account_records(report: &mut Report, sweep: &SweepReport) {
    for r in &sweep.records {
        report.attempted += 1;
        if let RunOutcome::Failed { reason } = &r.outcome {
            report.fail(format!("{}: {reason}", r.id));
        }
    }
}

/// Checks a grid's output digest: against the pin at the default seed,
/// and against the first grid of this process at any seed.
fn check_digest(report: &mut Report, digest: u64, first: &mut Option<u64>, pin: Option<u64>) {
    if let Some(pin) = pin {
        if digest != pin {
            report.fail(format!(
                "output digest {digest:#018x} != pinned {pin:#018x}"
            ));
        }
    }
    match *first {
        None => *first = Some(digest),
        Some(d) if d != digest => report.fail(format!(
            "output digest {digest:#018x} != first grid's {d:#018x}"
        )),
        Some(_) => {}
    }
}

/// Seconds of set-up repetitions before each grid. Set-up is timed before
/// every grid, not once, so that its median spans the whole run instead of
/// whatever the host was doing in its first half second.
const SETUP_PER_GRID_S: f64 = 0.25;

pub fn fig_sweep_outcome(opts: &Options, tracer: &Tracer) -> SweepOutcome {
    let runner = runner(opts.seed);
    let pin = (opts.seed == crate::DEFAULT_SEED).then_some(pins::FIG_SWEEP_DIGEST);
    let mut report = Report::default();
    let mut stats = RunnerStats::default();
    let mut times = RunTimes::default();
    let mut first = None;
    let mut setup_walls = Vec::new();
    let started = Instant::now();
    let (mut grids, mut last_s) = (0, 0.0);
    while opts.another_unit(grids, started, last_s) {
        let unit = Instant::now();
        let specs = tracer.span("setup", || {
            timed_setup(&mut setup_walls, 5, SETUP_PER_GRID_S, || {
                let specs = fig_specs(opts.seed);
                build_scenarios(&specs, tracer);
                specs
            })
        });
        let sweep = tracer.span("SweepRunner::run", || runner.run(&specs));
        account_records(&mut report, &sweep);
        check_digest(
            &mut report,
            fnv1a64(sweep.results_json().as_bytes()),
            &mut first,
            pin,
        );
        stats.add(&sweep);
        times.add(&specs, &sweep);
        report.unit_wall_s = sweep.wall.as_secs_f64();
        grids += 1;
        last_s = unit.elapsed().as_secs_f64();
    }
    times.into_metrics(&mut report, median(&setup_walls));
    SweepOutcome {
        report,
        runner: stats,
        detect: DetectStats::default(),
        merge_s: Vec::new(),
    }
}

/// The digest `fig-sweep` pins: its `results_json` at `seed`.
pub fn fig_sweep_pin(seed: u64) -> String {
    let report = runner(seed).run(&fig_specs(seed));
    format!(
        "FIG_SWEEP_DIGEST = {:#018x}",
        fnv1a64(report.results_json().as_bytes())
    )
}

/// Scores every trace with the streaming rate and dispersion-CUSUM
/// detectors across the ROC thresholds; returns both AUCs.
pub fn score_traces(
    specs: &[ExperimentSpec],
    sweep: &SweepReport,
    stats: &mut DetectStats,
) -> (f64, f64) {
    let (mut benign, mut attacked) = (Vec::new(), Vec::new());
    for r in &sweep.records {
        match &r.outcome {
            RunOutcome::Point { trace, .. } => attacked.push(trace.clone()),
            RunOutcome::Benign { trace, .. } => benign.push(trace.clone()),
            _ => {}
        }
    }
    let capacity = specs[0].scenario.bottleneck.as_bps();
    let bin_secs = specs[0]
        .trace_bin
        .expect("roc specs are traced")
        .as_secs_f64();
    let t0 = Instant::now();
    let (mut bins, mut alarms) = (0u64, 0u64);
    let rate = roc_curve(&benign, &attacked, &ROC_RATE_THRESHOLDS, |th, trace| {
        let det = RateDetector::new(capacity, bin_secs, th, 0.05, 5).expect("thresholds in domain");
        let mut s = StreamingRate::new(det);
        let hit = trace.iter().any(|&b| {
            bins += 1;
            s.push(b).is_some()
        });
        alarms += u64::from(hit);
        hit
    });
    let cusum = roc_curve(&benign, &attacked, &ROC_CUSUM_THRESHOLDS, |th, trace| {
        let dispersion: Vec<u64> = trace.windows(2).map(|w| w[0].abs_diff(w[1])).collect();
        let mut s = StreamingCusum::new((dispersion.len() / 2).max(2), 0.5, th);
        let hit = dispersion.iter().any(|&b| {
            bins += 1;
            s.push(b).is_some()
        });
        alarms += u64::from(hit);
        hit
    });
    stats.wall_s += t0.elapsed().as_secs_f64();
    stats.bins += bins;
    stats.alarms += alarms;
    (auc(&rate), auc(&cusum))
}

/// The digest `observed-roc` pins: results, both AUCs and the merged
/// metrics snapshot.
fn roc_digest(sweep: &SweepReport, aucs: (f64, f64), merged: &str) -> u64 {
    fnv1a64(
        format!(
            "{}|{:?}|{:?}|{merged}",
            sweep.results_json(),
            aucs.0,
            aucs.1
        )
        .as_bytes(),
    )
}

pub fn observed_roc_outcome(opts: &Options, tracer: &Tracer) -> SweepOutcome {
    let runner = runner(opts.seed);
    let pin = (opts.seed == crate::DEFAULT_SEED).then_some(pins::OBSERVED_ROC_DIGEST);
    let mut report = Report::default();
    let mut stats = RunnerStats::default();
    let mut detect = DetectStats::default();
    let mut merge_s = Vec::new();
    let mut times = RunTimes::default();
    let mut first = None;
    let mut setup_walls = Vec::new();
    let started = Instant::now();
    let (mut grids, mut last_s) = (0, 0.0);
    while opts.another_unit(grids, started, last_s) {
        let unit = Instant::now();
        let specs = tracer.span("setup", || {
            timed_setup(&mut setup_walls, 5, SETUP_PER_GRID_S, || {
                let specs = roc_grid(opts.seed, ROC_REPLICAS);
                build_scenarios(&specs, tracer);
                specs
            })
        });
        let t0 = Instant::now();
        let sweep = tracer.span("SweepRunner::run", || runner.run(&specs));
        account_records(&mut report, &sweep);
        let aucs = tracer.span("detect.score", || score_traces(&specs, &sweep, &mut detect));
        let t1 = Instant::now();
        let merged = tracer.span("SweepReport::merged_metrics", || sweep.merged_metrics());
        merge_s.push(t1.elapsed().as_secs_f64());
        let merged = match merged {
            Some(m) => m.to_json(),
            None => {
                report.fail("no merged metrics from a metered sweep".to_string());
                String::new()
            }
        };
        check_digest(
            &mut report,
            roc_digest(&sweep, aucs, &merged),
            &mut first,
            pin,
        );
        stats.add(&sweep);
        times.add(&specs, &sweep);
        // The user's wall covers scoring and merging too.
        times.sweep_wall_s += t0.elapsed().as_secs_f64() - sweep.wall.as_secs_f64();
        report.unit_wall_s = t0.elapsed().as_secs_f64();
        grids += 1;
        last_s = unit.elapsed().as_secs_f64();
    }
    times.into_metrics(&mut report, median(&setup_walls));
    SweepOutcome {
        report,
        runner: stats,
        detect,
        merge_s,
    }
}

/// The digest `observed-roc` pins at `seed`.
pub fn observed_roc_pin(seed: u64) -> String {
    let specs = roc_grid(seed, ROC_REPLICAS);
    let sweep = runner(seed).run(&specs);
    let aucs = score_traces(&specs, &sweep, &mut DetectStats::default());
    let merged = sweep
        .merged_metrics()
        .map(|m| m.to_json())
        .unwrap_or_default();
    format!(
        "OBSERVED_ROC_DIGEST = {:#018x} (rate AUC {:.3}, cusum AUC {:.3}, {} cold prefixes)",
        roc_digest(&sweep, aucs, &merged),
        aucs.0,
        aucs.1,
        sweep.warmups
    )
}

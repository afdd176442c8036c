//! The traced run: the workload's fixed unit with spans around every call
//! into the lab, then the layer legs and probes that charge its time to
//! layers. Only this run arms the engine profiler and reads the counting
//! allocator (registered by the `perfbench-traced` binary alone).

use crate::flows::{build_ring, million_flow_outcome, FLOWS};
use crate::sweeps::{
    bare, fig_specs, fig_sweep_outcome, observed_roc_outcome, roc_grid, runner, score_traces,
    DetectStats, RunnerStats,
};
use crate::trace::{spans_json, totals_by_name, Span, Tracer};
use crate::{median, metric, mix, Metric, Options, Report, Workload, JOBS};
use pdos_attack::pulse::PulseTrain;
use pdos_bench::alloc::{self, AllocSnapshot};
use pdos_bench::perf;
use pdos_scenarios::bench::Testbench;
use pdos_scenarios::runner::{ExperimentSpec, RunOutcome};
use pdos_sim::engine::Simulator;
use pdos_sim::profile::ProfileSnapshot;
use pdos_sim::time::{SimDuration, SimTime};
use pdos_sim::trace::TraceFilter;
use pdos_sim::units::BitsPerSec;
use pdos_tcp::rto_wheel::RtoWheel;
use std::fmt::Write as _;
use std::time::Instant;

/// Each per-layer metric with the end-to-end metric and workload it is
/// predicted to move (see README.md).
pub const PREDICTIONS: [(&str, &str); 16] = [
    ("runner.*", "runs_per_s on fig-sweep and observed-roc"),
    (
        "spec.build_s",
        "setup_s on every workload; run_p50_s on observed-roc",
    ),
    (
        "checkpoint.*",
        "runs_per_s on fig-sweep; run_p95_s on observed-roc",
    ),
    (
        "engine.events*, engine.run_s",
        "sim_s_per_wall_s on million-flow",
    ),
    (
        "engine.deliver.*, engine.timer.*",
        "sim_s_per_wall_s on million-flow",
    ),
    ("engine.link-tx-done.*", "run_p50_s on fig-sweep"),
    ("event.ops_per_s", "sim_s_per_wall_s on million-flow"),
    ("event.timer_ops_per_s", "sim_s_per_wall_s on million-flow"),
    ("rto_wheel.ops_per_s", "sim_s_per_wall_s on million-flow"),
    ("queue.*", "run_p50_s on fig-sweep"),
    ("shard.speedup", "sim_s_per_wall_s on million-flow"),
    (
        "observe.overhead",
        "runs_per_s on observed-roc; no change on fig-sweep",
    ),
    ("detect.*", "runs_per_s on observed-roc"),
    ("metrics.merge_s", "runs_per_s on observed-roc"),
    (
        "mem.bytes_per_flow, alloc.*",
        "peak_rss_mib and sim_s_per_wall_s on million-flow",
    ),
    ("trace.overhead", "none: the cost of this traced run itself"),
];

/// Engine-layer readings from directly driven simulators.
#[derive(Default)]
struct EngineLeg {
    profile: ProfileSnapshot,
    events: u64,
    sim_s: f64,
    run_s: f64,
    steady: AllocSnapshot,
    drops: u64,
    build_bytes_per_flow: Vec<f64>,
    take_s: Vec<f64>,
    fork_s: Vec<f64>,
    checkpoint_bytes: Vec<f64>,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Drives each spec's scenario by hand through the path the runner takes
/// — build, warm up, checkpoint, fork, attach the pulse train, measure —
/// with the profiler armed and the allocator read over the measurement
/// window only (steady state).
fn engine_leg(specs: &[ExperimentSpec], tracer: &Tracer, report: &mut Report) -> EngineLeg {
    let mut leg = EngineLeg::default();
    for spec in specs {
        let a0 = alloc::snapshot();
        let mut bench = tracer
            .span("ScenarioSpec::build", || spec.scenario.build())
            .expect("benchmark scenarios build");
        leg.build_bytes_per_flow
            .push(alloc::snapshot().since(a0).bytes as f64 / spec.scenario.n_flows as f64);
        if spec.checks {
            bench.sim.enable_checks();
        }
        if spec.metrics {
            bench.sim.enable_metrics();
        }
        if let Some(bin) = spec.trace_bin {
            if spec.detect {
                bench.sim.enable_tap(bin);
            }
            bench.trace_bottleneck(TraceFilter::All, bin);
        }
        let start = SimTime::ZERO + spec.warmup;
        tracer.span("Simulator::run_until", || bench.run_until(start));
        let (cp, take) = timed(|| tracer.span("Simulator::checkpoint", || bench.checkpoint()));
        let cp = cp.expect("dumbbell benches checkpoint");
        leg.take_s.push(take);
        leg.checkpoint_bytes.push(cp.approx_bytes() as f64);
        drop(bench);
        let (mut run, fork) = timed(|| tracer.span("Simulator::fork", || Testbench::fork(&cp)));
        leg.fork_s.push(fork);
        let attack = spec.attack.expect("engine leg specs are attacked");
        let train = PulseTrain::from_gamma(
            SimDuration::from_secs_f64(attack.t_extent),
            BitsPerSec::from_bps(attack.r_attack),
            spec.scenario.bottleneck,
            attack.gamma,
        )
        .expect("engine leg points are feasible");
        run.attach_pulse_attack(train, start, None);
        tracer.span("Simulator::enable_profiler", || run.sim.enable_profiler());
        let s0 = run.sim.stats();
        let a0 = alloc::snapshot();
        let (_, wall) = timed(|| {
            tracer.span("Simulator::run_until", || {
                run.run_until(start + spec.window)
            })
        });
        let steady = alloc::snapshot().since(a0);
        let s1 = run.sim.stats();
        leg.steady.allocations += steady.allocations;
        leg.steady.bytes += steady.bytes;
        leg.run_s += wall;
        leg.sim_s += spec.window.as_secs_f64();
        leg.events += s1.events - s0.events;
        leg.drops += s1.queue_drops - s0.queue_drops;
        leg.profile
            .merge(&run.sim.profile_snapshot().expect("profiler armed"));
        report.attempted += 1;
        let violations = run.audit_violations();
        if !violations.is_empty() {
            report.fail(format!(
                "{}: {} invariant violation(s)",
                spec.id,
                violations.len()
            ));
        }
    }
    leg
}

/// The timeout storm's engine reading comes from the workload itself.
fn million_flow_leg(opts: &Options, tracer: &Tracer, report: &mut Report) -> EngineLeg {
    let out = million_flow_outcome(opts, tracer);
    *report = out.report;
    let mut leg = EngineLeg {
        profile: out.profile.expect("profiler armed in the traced run"),
        events: out.events,
        sim_s: out.sim_s,
        run_s: out.run_s,
        steady: out.steady_alloc,
        build_bytes_per_flow: vec![out.build_bytes_per_flow],
        ..EngineLeg::default()
    };
    leg.drops = out.sim.stats().queue_drops;
    let (cp, take) = timed(|| tracer.span("Simulator::checkpoint", || out.sim.checkpoint()));
    let cp = cp.expect("flow banks checkpoint");
    leg.take_s.push(take);
    leg.checkpoint_bytes.push(cp.approx_bytes() as f64);
    drop(out.sim);
    let (fork, fork_s) = timed(|| tracer.span("Simulator::fork", || Simulator::fork(&cp)));
    leg.fork_s.push(fork_s);
    drop(fork);
    leg
}

/// Sequential versus 2-shard wall on the same million-flow ring for two
/// simulated seconds; the two must process identical counts.
fn shard_leg(seed: u64, tracer: &Tracer, report: &mut Report) -> f64 {
    let horizon = SimTime::ZERO + SimDuration::from_secs(2);
    let mut legs = Vec::new();
    for shards in [1, JOBS] {
        let mut sim = tracer.span("ring::build", || build_ring(seed, FLOWS));
        tracer.span("Simulator::enable_sharding", || sim.enable_sharding(shards));
        let (_, wall) = timed(|| tracer.span("Simulator::run_until", || sim.run_until(horizon)));
        let s = sim.stats();
        legs.push(((s.events, s.delivered, s.unclaimed, s.queue_drops), wall));
    }
    report.attempted += 1;
    if legs[0].0 != legs[1].0 {
        report.fail(format!(
            "sharded counts {:?} != sequential {:?}",
            legs[1].0, legs[0].0
        ));
    }
    legs[0].1 / legs[1].1
}

/// Replicas in the observer-overhead leg (within the checkpoint LRU, so
/// the leg isolates observer cost from cache thrash).
const OBSERVER_REPLICAS: u64 = 8;

struct ObserverLeg {
    overhead: f64,
    runner: RunnerStats,
    detect: DetectStats,
    merge_s: f64,
}

/// The same ROC specs swept bare and with every observer on, in the order
/// bare, observed, observed, bare, so that a drift in host speed during
/// the leg weighs on both sides alike.
fn observer_leg(seed: u64, tracer: &Tracer, report: &mut Report) -> ObserverLeg {
    let observed = roc_grid(mix(seed, 7), OBSERVER_REPLICAS);
    let plain: Vec<ExperimentSpec> = observed.iter().map(bare).collect();
    let runner = runner(seed);
    let sweeps: Vec<_> = [&plain, &observed, &observed, &plain]
        .into_iter()
        .map(|specs| tracer.span("SweepRunner::run", || runner.run(specs)))
        .collect();
    for r in sweeps.iter().flat_map(|s| &s.records) {
        report.attempted += 1;
        if let RunOutcome::Failed { reason } = &r.outcome {
            report.fail(format!("{}: {reason}", r.id));
        }
    }
    if sweeps
        .iter()
        .any(|s| s.results_json() != sweeps[0].results_json())
    {
        report.fail("observers changed the ROC results".to_string());
    }
    let wall = |i: usize| sweeps[i].wall.as_secs_f64();
    let sweep = &sweeps[1];
    let mut stats = RunnerStats::default();
    stats.add(sweep);
    let mut detect = DetectStats::default();
    tracer.span("detect.score", || {
        score_traces(&observed, sweep, &mut detect)
    });
    let (merged, merge_s) =
        timed(|| tracer.span("SweepReport::merged_metrics", || sweep.merged_metrics()));
    if merged.is_none() {
        report.fail("no merged metrics from the observed leg".to_string());
    }
    ObserverLeg {
        overhead: (wall(1) + wall(2)) / (wall(0) + wall(3)),
        runner: stats,
        detect,
        merge_s,
    }
}

/// Operations per second of a bank-sized RTO wheel under the bank's
/// pattern: a re-arm per ACK, with the expired bucket popped every
/// millisecond of simulated time.
fn micro_rto_wheel(slots: usize, ops: u64, seed: u64) -> f64 {
    let mut wheel = RtoWheel::new(SimDuration::from_millis(500), slots);
    let mut now = SimTime::ZERO;
    let mut fired = 0u64;
    let t0 = Instant::now();
    for i in 0..ops {
        now += SimDuration::from_nanos(1_000);
        wheel.rearm((mix(seed, i) % slots as u64) as usize, now);
        if i % 1_000 == 999 {
            wheel.expire(now, |_| fired += 1);
        }
    }
    std::hint::black_box(fired);
    (ops + ops / 1_000) as f64 / t0.elapsed().as_secs_f64()
}

fn micros(seed: u64, tracer: &Tracer) -> Vec<Metric> {
    let eq = tracer.span("micro.event-queue", || perf::micro_event_queue(1_000_000));
    let tc = tracer.span("micro.timer-churn", || perf::micro_timer_churn(500_000));
    let red = tracer.span("micro.red-queue", || {
        perf::micro_queue_discipline(1_000_000)
    });
    let rto = tracer.span("micro.rto-wheel", || {
        micro_rto_wheel(125_000, 2_000_000, seed)
    });
    vec![
        metric("event.ops_per_s", eq.ops_per_sec(), "1/s"),
        metric("event.timer_ops_per_s", tc.ops_per_sec(), "1/s"),
        metric("rto_wheel.ops_per_s", rto, "1/s"),
        metric("queue.red.ops_per_s", red.ops_per_sec(), "1/s"),
    ]
}

/// Median duration of the spans called `name`, seconds.
fn span_median_s(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .collect();
    median(&d)
}

/// The representative points the sweep workloads' engine legs drive: the
/// 75 ms, fourth-γ point of each Fig. 6 panel, and the γ = 0.4 attacked
/// run of the first four ROC replicas with every observer on.
fn representatives(workload: Workload, seed: u64) -> Vec<ExperimentSpec> {
    match workload {
        Workload::FigSweep => {
            let specs = fig_specs(seed);
            (0..4)
                .map(|panel| specs[panel * 24 + 8 + 3].clone())
                .collect()
        }
        _ => roc_grid(seed, 4)
            .into_iter()
            .filter(|s| s.id.starts_with("roc/g0.40/"))
            .collect(),
    }
}

pub fn traced_run(opts: &Options, tracer: &Tracer) -> Report {
    let once = Options {
        once: true,
        ..opts.clone()
    };
    let mut report = Report::default();
    let (leg, sweep, obs, speedup, micros) = tracer.span("traced-run", || {
        let (leg, sweep) = match opts.workload {
            Workload::MillionFlow => {
                let leg = tracer.span("workload", || million_flow_leg(&once, tracer, &mut report));
                (leg, None)
            }
            w => {
                let mut out = tracer.span("workload", || match w {
                    Workload::FigSweep => fig_sweep_outcome(&once, tracer),
                    _ => observed_roc_outcome(&once, tracer),
                });
                report = std::mem::take(&mut out.report);
                let reps = representatives(w, opts.seed);
                let leg = tracer.span("engine-leg", || engine_leg(&reps, tracer, &mut report));
                (leg, Some(out))
            }
        };
        let obs = tracer.span("observer-leg", || {
            observer_leg(opts.seed, tracer, &mut report)
        });
        let speedup = tracer.span("shard-leg", || shard_leg(opts.seed, tracer, &mut report));
        let micros = tracer.span("micros", || micros(opts.seed, tracer));
        (leg, sweep, obs, speedup, micros)
    });
    // A layer the workload does not exercise is read from the observer leg.
    let runner = sweep.as_ref().map_or(&obs.runner, |s| &s.runner);
    let (detect, merge_s) = match &sweep {
        Some(s) if opts.workload == Workload::ObservedRoc => (&s.detect, median(&s.merge_s)),
        _ => (&obs.detect, obs.merge_s),
    };
    let spans = tracer.spans();
    let build = match opts.workload {
        Workload::MillionFlow => "ring::build",
        _ => "ScenarioSpec::build",
    };
    let kind = |i: usize| {
        let k = leg.profile.kinds[i];
        (
            k.wall_nanos as f64 / k.count.max(1) as f64,
            k.allocations as f64 / leg.sim_s,
        )
    };
    let (deliver, link, timer) = (kind(0), kind(1), kind(2));
    report.metrics = vec![
        metric("runner.cold_prefixes", runner.cold_prefixes as f64, "count"),
        metric("runner.forked_runs", runner.forked_runs as f64, "count"),
        metric("runner.prefix_reuse", runner.prefix_reuse(), "ratio"),
        metric("runner.parallel_eff", runner.parallel_eff(), "ratio"),
        metric("spec.build_s", span_median_s(&spans, build), "s"),
        metric("checkpoint.take_s", median(&leg.take_s), "s"),
        metric("checkpoint.fork_s", median(&leg.fork_s), "s"),
        metric("checkpoint.bytes", median(&leg.checkpoint_bytes), "bytes"),
        metric("engine.events", leg.events as f64, "count"),
        metric(
            "engine.events_per_sim_s",
            leg.events as f64 / leg.sim_s,
            "1/sim_s",
        ),
        metric("engine.events_per_s", leg.events as f64 / leg.run_s, "1/s"),
        metric("engine.run_s", leg.run_s, "s"),
        metric("engine.deliver.ns_per_event", deliver.0, "ns"),
        metric("engine.deliver.allocs", deliver.1, "1/sim_s"),
        metric("engine.link-tx-done.ns_per_event", link.0, "ns"),
        metric("engine.link-tx-done.allocs", link.1, "1/sim_s"),
        metric("engine.timer.ns_per_event", timer.0, "ns"),
        metric("engine.timer.allocs", timer.1, "1/sim_s"),
        metric("queue.drops", leg.drops as f64, "count"),
        metric("shard.speedup", speedup, "ratio"),
        metric("observe.overhead", obs.overhead, "ratio"),
        metric(
            "detect.bins_per_s",
            detect.bins as f64 / detect.wall_s,
            "1/s",
        ),
        metric("detect.alarms", detect.alarms as f64, "count"),
        metric("metrics.merge_s", merge_s, "s"),
        metric(
            "mem.bytes_per_flow",
            median(&leg.build_bytes_per_flow),
            "bytes",
        ),
        metric(
            "alloc.steady_per_sim_s",
            leg.steady.allocations as f64 / leg.sim_s,
            "1/sim_s",
        ),
        metric(
            "alloc.steady_bytes",
            leg.steady.bytes as f64 / leg.sim_s,
            "bytes/sim_s",
        ),
    ];
    report.metrics.extend(micros);
    write_trace(opts, &spans, &report);
    report
}

/// Where traced runs write their spans, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";

/// Writes the spans, the self-time table and the prediction table, and
/// echoes the self-time table to stderr.
fn write_trace(opts: &Options, spans: &[Span], report: &Report) {
    let mut table = String::from("span self time (calls, total ms, self ms):\n");
    for (name, calls, total, own) in totals_by_name(spans) {
        let _ = writeln!(
            table,
            "  {name:<30} {calls:>7} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    eprint!("{table}");
    let mut predictions = String::from("[");
    for (i, (layer, moves)) in PREDICTIONS.iter().enumerate() {
        if i > 0 {
            predictions.push(',');
        }
        let _ = write!(
            predictions,
            "{{\"metrics\":\"{layer}\",\"moves\":\"{moves}\"}}"
        );
    }
    predictions.push(']');
    let json = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"attempted\":{},\"failed\":{},\"predictions\":{predictions},\"spans\":{}}}\n",
        opts.workload.name(),
        opts.seed,
        report.attempted,
        report.failed,
        spans_json(spans)
    );
    let path = format!(
        "{OUT_DIR}/trace-{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    );
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("perfbench: cannot write {path}: {e}");
    } else {
        eprintln!("spans written to {path}");
    }
}

//! The `million-flow` workload: 10⁶ struct-of-arrays TCP flows
//! (`SenderBank`/`SinkBank`) on the 8-cluster DropTail ring, run on the
//! sharded engine — a timeout storm that loads the timer tier, the RTO
//! wheel, bank delivery and shard synchronisation.

use crate::trace::Tracer;
use crate::{
    median, metric, mix, peak_rss_mib, pins, quantile, timed_setup, Options, Report, JOBS,
};
use pdos_bench::alloc::{self, AllocSnapshot};
use pdos_sim::engine::Simulator;
use pdos_sim::packet::FlowId;
use pdos_sim::profile::ProfileSnapshot;
use pdos_sim::queue::QueueSpec;
use pdos_sim::time::{SimDuration, SimTime};
use pdos_sim::topology::TopologyBuilder;
use pdos_sim::units::{BitsPerSec, Bytes};
use pdos_tcp::bank::{SenderBank, SinkBank};
use std::time::Instant;

pub const FLOWS: usize = 1_000_000;
pub const CLUSTERS: usize = 8;

/// Simulated time per timed step.
pub const STEP_MS: u64 = 50;
const STEPS_PER_SECOND: usize = (1000 / STEP_MS) as usize;

/// Simulated seconds the traced comparison unit measures after warm-up.
pub const ONCE_SECONDS: u64 = 3;

/// Per-cluster flow counts: an even split perturbed by up to ±2% per
/// cluster from the seed, summing to `flows`. The perturbation stays
/// small enough that no cluster of a million-flow ring crosses 2¹⁷ flows,
/// where its access queue's buffer would double and move peak RSS.
pub fn flow_split(seed: u64, flows: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..CLUSTERS as u64)
        .map(|c| 0.98 + (mix(seed, 200 + c) % 4_001) as f64 / 100_000.0)
        .collect();
    let total: f64 = weights.iter().sum();
    let mut split: Vec<usize> = weights
        .iter()
        .map(|w| ((flows as f64 * w / total) as usize).max(1))
        .collect();
    let assigned: usize = split[..CLUSTERS - 1].iter().sum();
    split[CLUSTERS - 1] = flows - assigned;
    split
}

/// Builds the clustered ring: per cluster, sender host → router → sink
/// host with a 50 Mbps, 100-packet DropTail bottleneck; routers joined in
/// a ring by 50 ms core links, where the shard plan cuts. Each cluster's
/// sender bank starts at a seed-derived phase within the first 20 ms.
pub fn build_ring(seed: u64, flows: usize) -> Simulator {
    let split = flow_split(seed, flows);
    let mut t = TopologyBuilder::with_seed(mix(seed, 42));
    let mut hosts = Vec::new();
    let mut routers = Vec::new();
    for (c, &n) in split.iter().enumerate() {
        let tx = t.add_host(format!("tx{c}"));
        let r = t.add_router(format!("r{c}"));
        let rx = t.add_host(format!("rx{c}"));
        t.add_duplex_link(
            tx,
            r,
            BitsPerSec::from_mbps(1000.0),
            SimDuration::from_millis(1),
            QueueSpec::DropTail { capacity: n + 64 },
        );
        t.add_duplex_link(
            r,
            rx,
            BitsPerSec::from_mbps(50.0),
            SimDuration::from_millis(5),
            QueueSpec::DropTail { capacity: 100 },
        );
        hosts.push((tx, rx, n));
        routers.push(r);
    }
    for c in 0..CLUSTERS {
        t.add_duplex_link(
            routers[c],
            routers[(c + 1) % CLUSTERS],
            BitsPerSec::from_mbps(100.0),
            SimDuration::from_millis(50),
            QueueSpec::DropTail { capacity: 64 },
        );
    }
    let mut sim = t.build().expect("ring topology builds");
    let segment = Bytes::from_u64(1000);
    let rto = SimDuration::from_millis(500);
    let mut first = 0u32;
    for (c, &(tx, rx, n)) in hosts.iter().enumerate() {
        let start = SimTime::from_nanos(mix(seed, 300 + c as u64) % 20_000_000);
        let bank = SenderBank::new(FlowId::from_u32(first), n, rx, segment, rto);
        let tx_id = sim.attach_agent_at(tx, Box::new(bank), start);
        let rx_id = sim.attach_agent(
            rx,
            Box::new(SinkBank::new(FlowId::from_u32(first), n, segment)),
        );
        sim.bind_flow_range(tx, first..first + n as u32, tx_id);
        sim.bind_flow_range(rx, first..first + n as u32, rx_id);
        first += n as u32;
    }
    sim
}

/// The counts pinned per simulated second: events, endpoint packets
/// (delivered + unclaimed), queue drops.
pub fn second_counts(
    before: pdos_sim::engine::SimStats,
    after: pdos_sim::engine::SimStats,
) -> [u64; 3] {
    [
        after.events - before.events,
        (after.delivered + after.unclaimed) - (before.delivered + before.unclaimed),
        after.queue_drops - before.queue_drops,
    ]
}

/// What one `million-flow` run measured, for the traced run's layer view.
pub struct FlowOutcome {
    pub report: Report,
    pub sim: Simulator,
    /// Profile of the measured seconds (traced run only).
    pub profile: Option<ProfileSnapshot>,
    /// Heap traffic of the measured seconds (traced run only).
    pub steady_alloc: AllocSnapshot,
    /// Heap bytes requested by one build, per flow (traced run only).
    pub build_bytes_per_flow: f64,
    pub events: u64,
    pub sim_s: f64,
    pub run_s: f64,
}

pub fn million_flow_outcome(opts: &Options, tracer: &Tracer) -> FlowOutcome {
    let mut build_bytes = 0u64;
    let mut setup_walls = Vec::new();
    let mut sim = tracer.span("setup", || {
        timed_setup(&mut setup_walls, 5, 0.5, || {
            let before = alloc::snapshot();
            let mut sim = tracer.span("ring::build", || build_ring(opts.seed, FLOWS));
            build_bytes = alloc::snapshot().since(before).bytes;
            let shards = tracer.span("Simulator::enable_sharding", || sim.enable_sharding(JOBS));
            assert_eq!(shards, JOBS, "the ring splits into {JOBS} shards");
            sim
        })
    });
    let setup_s = median(&setup_walls);
    // The first second is the start-up burst: every flow's initial window
    // at once. The storm's steady state starts after it.
    tracer.span("Simulator::run_until", || {
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1))
    });
    if tracer.enabled() {
        tracer.span("Simulator::enable_profiler", || sim.enable_profiler());
    }

    let pinned = (opts.seed == crate::DEFAULT_SEED).then_some(&pins::MILLION_FLOW_SECONDS[..]);
    let mut report = Report::default();
    let mut steps = Vec::new();
    let events_before = sim.stats().events;
    let alloc_before = alloc::snapshot();
    // `--once` measures ONCE_SECONDS simulated seconds as its one unit;
    // otherwise a unit is one simulated second.
    let limit = if opts.once {
        ONCE_SECONDS
    } else {
        pins::PIN_SECONDS as u64
    };
    let started = Instant::now();
    let (mut seconds, mut last_s) = (0, 0.0);
    while seconds < limit && (opts.once || opts.another_unit(seconds as usize, started, last_s)) {
        seconds += 1;
        let second = seconds;
        let unit = Instant::now();
        let before = sim.stats();
        for k in 1..=STEPS_PER_SECOND as u64 {
            let until = SimTime::ZERO + SimDuration::from_millis(second * 1000 + k * STEP_MS);
            let t0 = Instant::now();
            tracer.span("Simulator::run_until", || sim.run_until(until));
            steps.push(t0.elapsed().as_secs_f64());
        }
        let counts = second_counts(before, sim.stats());
        report.attempted += 1;
        if let Some(expect) = pinned.and_then(|p| p.get(second as usize - 1)) {
            if counts != *expect {
                report.fail(format!(
                    "second {second}: counts {counts:?} != pinned {expect:?}"
                ));
            }
        }
        last_s = unit.elapsed().as_secs_f64();
    }
    let steady_alloc = alloc::snapshot().since(alloc_before);
    let run_s: f64 = steps.iter().sum();
    let sim_s = seconds as f64;
    report.unit_wall_s = run_s;
    report.metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("sim_s_per_wall_s", sim_s / run_s, "sim_s/s"),
        metric("runs_per_s", steps.len() as f64 / run_s, "1/s"),
        metric("run_p50_s", median(&steps), "s"),
        metric("run_p95_s", quantile(&steps, 0.95), "s"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
    ];
    report.notes.push(format!(
        "a run is one {STEP_MS} ms simulated step: {} steps over {sim_s} simulated seconds",
        steps.len()
    ));
    FlowOutcome {
        report,
        profile: sim.profile_snapshot(),
        events: sim.stats().events - events_before,
        sim,
        steady_alloc,
        build_bytes_per_flow: build_bytes as f64 / FLOWS as f64,
        sim_s,
        run_s,
    }
}

/// The per-second counts `million-flow` pins at `seed`, as Rust source.
pub fn million_flow_pins(seed: u64) -> String {
    let mut sim = build_ring(seed, FLOWS);
    sim.enable_sharding(JOBS);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let mut out = String::from("pub const MILLION_FLOW_SECONDS: [[u64; 3]; PIN_SECONDS] = [\n");
    for second in 1..=pins::PIN_SECONDS as u64 {
        let before = sim.stats();
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(second + 1));
        let c = second_counts(before, sim.stats());
        out.push_str(&format!("    [{}, {}, {}],\n", c[0], c[1], c[2]));
        eprintln!("second {second}: {c:?}");
    }
    out.push_str("];");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_sums_to_flows_and_varies_with_seed() {
        for seed in [1, 2, 99] {
            assert_eq!(flow_split(seed, FLOWS).iter().sum::<usize>(), FLOWS);
        }
        assert_ne!(flow_split(1, FLOWS), flow_split(2, FLOWS));
    }

    #[test]
    fn small_ring_shards_match_sequential() {
        let run = |shards| {
            let mut sim = build_ring(5, 2_000);
            sim.enable_sharding(shards);
            sim.run_until(SimTime::ZERO + SimDuration::from_millis(1500));
            let s = sim.stats();
            (s.events, s.delivered, s.queue_drops)
        };
        assert_eq!(run(1), run(2));
    }
}

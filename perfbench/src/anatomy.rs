//! The traced run's view of a live phase: spans around the benchmark's
//! own calls into the program, per-layer metrics from the counters the
//! program already returns, and the round-anatomy table.
//!
//! The benchmark records no span inside the program. Its spans cover the
//! calls it makes itself: each round from driver call to driver call, and
//! inside it `WireReplayDriver::drive`, `Simulator::run_to_quiescence` and
//! the remainder spent inside `LiveOrchestrator::run` (exploration). Layers
//! inside exploration are read from each node's `ExplorationReport`
//! (elapsed time, runs, distinct paths, solver counters, wave latency), the
//! round's `FleetReport::elapsed`, and the control plane's copy-on-write
//! counters.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use dice::bgp::wire;
use dice::core::LiveReport;
use dice::obs::Histogram;
use dice::solver::SolverStats;

use crate::stats::median;
use crate::workload::{Prepared, Timeline};
use crate::Metric;

/// One recorded span. Times are nanoseconds since the first driver call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What the span covers: `round`, `drive`, `quiesce` or `explore`.
    pub name: &'static str,
    /// The round the span belongs to.
    pub round: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

/// The spans of a live phase: per round, the round itself and its
/// `drive`, `quiesce` and `explore` children, which tile it.
pub fn spans(timeline: &Timeline) -> Vec<Span> {
    let Some(first) = timeline.epochs.first() else {
        return Vec::new();
    };
    let ns = |at: Instant| (at - first.called).as_nanos() as u64;
    let mut out = Vec::with_capacity(timeline.epochs.len() * 4);
    for (round, marks) in timeline.epochs.iter().enumerate() {
        let parent = out.len();
        let end = timeline.round_end(round);
        out.push(Span {
            name: "round",
            round,
            parent: None,
            start_ns: ns(marks.called),
            end_ns: ns(end),
        });
        for (name, from, to) in [
            ("drive", marks.called, marks.driven),
            ("quiesce", marks.driven, marks.quiesced),
            ("explore", marks.quiesced, end),
        ] {
            out.push(Span {
                name,
                round,
                parent: Some(parent),
                start_ns: ns(from),
                end_ns: ns(to),
            });
        }
    }
    out
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map(|p| p.to_string())
            .unwrap_or_else(|| "null".into());
        writeln!(
            out,
            r#"{{"id": {id}, "name": "{}", "round": {}, "parent": {parent}, "start_ns": {}, "end_ns": {}}}"#,
            span.name, span.round, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

/// What a traced repetition observed besides the report and timeline.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// The live phase's report.
    pub report: LiveReport,
    /// The live phase's clock marks.
    pub timeline: Timeline,
    /// Share of the round forks' RIB shards still shared with the live
    /// routers, from the control plane's final snapshot.
    pub cow_shared: f64,
    /// Messages the simulator delivered during the live phase.
    pub delivered: u64,
    /// CPU seconds the process used during the live phase.
    pub cpu_seconds: f64,
}

/// Runs a prepared workload's live phase with the process-level probes of
/// a traced run around it.
pub fn traced_run(p: &mut Prepared) -> TracedRun {
    let delivered_before = p.sim.stats().delivered;
    let cpu_before = crate::stats::cpu_seconds().unwrap_or(0.0);
    let (report, timeline) = p.run_explored();
    let cpu_seconds = crate::stats::cpu_seconds().unwrap_or(0.0) - cpu_before;
    TracedRun {
        cow_shared: p
            .orchestrator
            .control_plane()
            .sample()
            .cow
            .shared_fraction(),
        delivered: p.sim.stats().delivered - delivered_before,
        report,
        timeline,
        cpu_seconds,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Time per frame of `wire::decode` and of `wire::encode` over `frames`,
/// in µs, each pass repeated until it has run for a measurable time.
pub fn codec_us_per_frame(frames: &[Vec<u8>]) -> (f64, f64) {
    const MIN_PASS: Duration = Duration::from_millis(30);
    let messages: Vec<_> = frames
        .iter()
        .map(|f| wire::decode(f).expect("live frames decode").0)
        .collect();
    let time = |pass: &mut dyn FnMut()| {
        let started = Instant::now();
        let mut passes = 0u32;
        while passes == 0 || started.elapsed() < MIN_PASS {
            pass();
            passes += 1;
        }
        started.elapsed().as_secs_f64() * 1e6 / (f64::from(passes) * frames.len() as f64)
    };
    let decode = time(&mut || {
        for frame in frames {
            std::hint::black_box(wire::decode(std::hint::black_box(frame)).is_ok());
        }
    });
    let encode = time(&mut || {
        for msg in &messages {
            std::hint::black_box(wire::encode(std::hint::black_box(msg)));
        }
    });
    (decode, encode)
}

/// The rows of the round-anatomy table: the layer, and the metric holding
/// its share of round wall time. The solver row is part of the fleet row.
pub const ANATOMY: [(&str, &str); 5] = [
    ("ingest (drive)", "anatomy.ingest_share"),
    ("sim (quiesce)", "anatomy.quiesce_share"),
    ("fleet explore", "anatomy.fleet_share"),
    ("  of which solver", "anatomy.solver_share"),
    ("unattributed", "anatomy.unattributed_share"),
];

/// The per-layer metrics of one traced repetition (codec timings and the
/// ratios that need an untraced or unexplored run are added by the caller).
pub fn layer_metrics(p: &Prepared, run: &TracedRun) -> Vec<Metric> {
    let report = &run.report;
    let tl = &run.timeline;
    let rounds = tl.epochs.len().max(1) as f64;
    let round_ms: f64 = tl.round_ms().iter().sum();
    let drive_ms: f64 = tl.drive_ms().iter().sum();
    let quiesce_ms: f64 = tl.quiesce_ms().iter().sum();
    let explore_ms = round_ms - drive_ms - quiesce_ms;
    let ingest = p.driver.stats().snapshot();
    let live_bytes: usize = p.live_trace.records.iter().map(|r| r.bytes.len()).sum();

    let mut solver = SolverStats::default();
    let mut waves = Histogram::new();
    let (mut runs, mut paths, mut generated) = (0usize, 0usize, 0usize);
    let (mut node_ms_sum, mut node_ms_max, mut fleet_ms) = (0.0, 0.0, 0.0);
    let (mut nodes, mut inputs) = (0usize, 0usize);
    for round in &report.rounds {
        fleet_ms += ms(round.report.elapsed);
        waves.merge(&round.report.wave_latency());
        let mut slowest = 0.0f64;
        for node in &round.report.nodes {
            let r = &node.report;
            solver.merge(&r.solver_stats);
            runs += r.runs;
            paths += r.distinct_paths;
            generated += r.generated_inputs;
            inputs += r.observed_inputs;
            nodes += usize::from(r.observed_inputs > 0);
            node_ms_sum += ms(r.elapsed);
            slowest = slowest.max(ms(r.elapsed));
        }
        node_ms_max += slowest;
    }
    let solver_ms = solver.total_time_ns as f64 / 1e6;
    let solver_share_of_nodes = ratio(solver_ms, node_ms_sum);
    let rib = p.sim.router(p.expect.rib_nodes[0]).rib();
    let wall_s = tl.wall().as_secs_f64();

    let m = |name, unit, value| Metric { name, unit, value };
    let mut metrics = vec![
        m(
            "wire.bytes_per_frame",
            "B",
            ratio(live_bytes as f64, p.live_trace.len() as f64),
        ),
        m("ingest.ms_per_epoch", "ms", drive_ms / rounds),
        m("ingest.frames", "count", ingest.frames as f64),
        m(
            "ingest.failed_frames",
            "count",
            (ingest.decode_errors + ingest.reencode_mismatches) as f64,
        ),
        m("rib.prefixes", "count", rib.prefix_count() as f64),
        m("rib.shards", "count", rib.shard_count() as f64),
        m(
            "rib.load_prefixes_per_s",
            "1/s",
            ratio(p.setup_prefixes as f64, p.table_load_time.as_secs_f64()),
        ),
        m("rib.cow_shared_ratio", "ratio", run.cow_shared),
        m("sim.quiesce_ms_per_epoch", "ms", quiesce_ms / rounds),
        m(
            "sim.delivered_per_frame",
            "ratio",
            ratio(run.delivered as f64, ingest.frames as f64),
        ),
        m(
            "sim.undeliverable",
            "count",
            p.sim.stats().undeliverable as f64,
        ),
        m(
            "sim.injected_faults",
            "count",
            report.injected_faults as f64,
        ),
        m("live.explore_ms_per_round", "ms", explore_ms / rounds),
        m("fleet.node_ms_sum_per_round", "ms", node_ms_sum / rounds),
        m("fleet.node_ms_max_per_round", "ms", node_ms_max / rounds),
        m("fleet.nodes_per_round", "count", nodes as f64 / rounds),
        m("fleet.inputs_per_round", "count", inputs as f64 / rounds),
        m("fleet.parallelism", "ratio", ratio(node_ms_sum, explore_ms)),
        m("proc.cpu_util", "ratio", ratio(run.cpu_seconds, wall_s)),
        m("symexec.runs", "count", runs as f64),
        m(
            "symexec.useful_run_ratio",
            "ratio",
            ratio(paths as f64, runs as f64),
        ),
        m("symexec.generated_inputs", "count", generated as f64),
        m("symexec.wave_ms_p50", "ms", waves.p50() as f64 / 1e6),
        m("symexec.wave_ms_p90", "ms", waves.p90() as f64 / 1e6),
        m("solver.queries", "count", solver.queries as f64),
        m(
            "solver.query_us_mean",
            "us",
            ratio(solver.total_time_ns as f64 / 1e3, solver.queries as f64),
        ),
        m("solver.time_share", "ratio", solver_share_of_nodes),
        m("solver.reuse_ratio", "ratio", solver.reuse_rate()),
        m(
            "solver.sat_ratio",
            "ratio",
            ratio(solver.sat as f64, solver.queries as f64),
        ),
        m(
            "checker.sightings",
            "count",
            report.total_sightings() as f64,
        ),
        m(
            "checker.distinct_faults",
            "count",
            report.faults.len() as f64,
        ),
    ];
    let shares = [
        drive_ms,
        quiesce_ms,
        fleet_ms,
        fleet_ms * solver_share_of_nodes,
        explore_ms - fleet_ms,
    ];
    metrics.extend(
        ANATOMY
            .iter()
            .zip(shares)
            .map(|(&(_, name), ms)| m(name, "ratio", ratio(ms, round_ms))),
    );
    metrics
}

/// Renders the round-anatomy table: each layer's time per round and share
/// of round wall time.
pub fn anatomy_table(workload: &str, round_ms: f64, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "round anatomy: {workload} (mean round {round_ms:.3} ms)"
    );
    let _ = writeln!(out, "  {:<18} {:>10} {:>8}", "layer", "ms/round", "share");
    for (row, name) in ANATOMY {
        let share = metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        let _ = writeln!(
            out,
            "  {row:<18} {:>10.3} {:>7.1}%",
            share * round_ms,
            share * 100.0
        );
    }
    out
}

/// Element-wise median of per-repetition metric lists that share names
/// and order.
pub fn median_metrics(reps: &[Vec<Metric>]) -> Vec<Metric> {
    reps[0]
        .iter()
        .enumerate()
        .map(|(i, first)| Metric {
            value: median(&reps.iter().map(|r| r[i].value).collect::<Vec<_>>()),
            ..*first
        })
        .collect()
}

//! Command line of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wire_feed|leak_hunt|as_hierarchy> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: it sets the workload up
//! several times (the median is `setup_s`), then repeats set-up plus live
//! phase while the time budget lasts, checking every repetition's outputs.
//! `--trace 1` alternates untraced and traced repetitions, replays the live
//! phase once more with exploration off, and reports the per-layer metrics
//! and the round anatomy. The last line of standard output is one JSON
//! object: `correct`, `attempted` and `failed` (frames), and `metrics`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dice::core::LiveReport;
use dice_perfbench::anatomy;
use dice_perfbench::stats::{fnv64, median, peak_rss_mib, percentile};
use dice_perfbench::workload::{Prepared, Scale, Timeline, Workload};
use dice_perfbench::Metric;

/// Set-ups per run, at least: `setup_s` is their median.
const SETUP_SAMPLES: usize = 9;
/// Where a traced run writes its spans, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(35),
        trace: trace.unwrap_or(false),
    })
}

/// Frames fed and failed across a run, and whether every check passed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    error: Option<String>,
}

impl Tally {
    fn count(&mut self, p: &Prepared) {
        let (attempted, failed) = p.frame_counts();
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a repetition's check; a failed check fails all its frames.
    fn check(&mut self, p: &Prepared, verdict: Result<Option<usize>, String>) -> Option<usize> {
        let (attempted, failed) = p.frame_counts();
        self.attempted += attempted;
        match verdict {
            Ok(first_fault) if failed == 0 => first_fault,
            Ok(_) => {
                self.failed += failed;
                self.error.get_or_insert(format!("{failed} frames failed"));
                None
            }
            Err(e) => {
                self.failed += attempted;
                self.error.get_or_insert(e);
                None
            }
        }
    }
}

/// One measured repetition of the live phase.
struct Rep {
    timeline: Timeline,
    runs: usize,
    frames: u64,
    digest: u64,
    first_fault_s: f64,
}

fn set_up(args: &Args, tally: &mut Tally) -> Result<Prepared, String> {
    Prepared::set_up(args.workload, args.seed, Scale::Full).inspect_err(|e| {
        tally.error.get_or_insert(e.clone());
    })
}

/// Checks a live phase's outputs and condenses it into a repetition.
/// `first_fault_s` runs to the end of the round that first records the
/// expected fault; a workload that expects none reaches its verdict at the
/// end of the run.
fn summarize(p: &Prepared, report: &LiveReport, timeline: &Timeline, tally: &mut Tally) -> Rep {
    let first_fault = tally.check(p, p.check(report));
    Rep {
        runs: report.total_runs(),
        frames: p.driver.stats().snapshot().frames,
        digest: fnv64(&report.digest()),
        first_fault_s: match first_fault {
            Some(round) => timeline.seconds_to_end_of(round),
            None => timeline.wall().as_secs_f64(),
        },
        timeline: timeline.clone(),
    }
}

fn ms_samples(reps: &[Rep], f: impl Fn(&Timeline) -> Vec<f64>) -> Vec<f64> {
    reps.iter().flat_map(|r| f(&r.timeline)).collect()
}

/// The end-to-end metrics of `--trace 0`.
fn end_to_end(args: &Args, started: Instant, tally: &mut Tally) -> Vec<Metric> {
    let budget = Duration::from_secs(args.seconds);
    let mut setups = Vec::new();
    for _ in 1..SETUP_SAMPLES {
        let Ok(p) = set_up(args, tally) else {
            return Vec::new();
        };
        tally.count(&p);
        setups.push(p.setup_time.as_secs_f64());
    }
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let rep_started = Instant::now();
        let Ok(mut p) = set_up(args, tally) else {
            return Vec::new();
        };
        setups.push(p.setup_time.as_secs_f64());
        let (report, timeline) = p.run_explored();
        let rep = summarize(&p, &report, &timeline, tally);
        drop(p);
        if tally.error.is_some() {
            return Vec::new();
        }
        if let Some(first) = reps.first() {
            if first.digest != rep.digest {
                tally.failed += rep.frames;
                tally.error = Some("live report digests differ between repetitions".into());
                return Vec::new();
            }
        }
        reps.push(rep);
        // Stop when another repetition would overrun the budget.
        if started.elapsed() + rep_started.elapsed() > budget {
            break;
        }
    }

    // Each figure is taken per repetition and the median across
    // repetitions reported, so one repetition disturbed by the host moves
    // none of them.
    let per_rep = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let pct = |q| {
        move |r: &Rep| percentile(&r.timeline.round_ms(), q).expect("every run has 100+ rounds")
    };
    let apply_pct = |q| {
        move |r: &Rep| percentile(&r.timeline.apply_ms(), q).expect("every run has 100+ epochs")
    };
    let wall = |r: &Rep| r.timeline.wall().as_secs_f64();
    let rounds: usize = reps.iter().map(|r| r.timeline.epochs.len()).sum();
    println!(
        "{}: seed {} | {} repetition(s), {} set-up(s), {} rounds, digest {:016x}",
        args.workload.name(),
        args.seed,
        reps.len(),
        setups.len(),
        rounds,
        reps[0].digest
    );
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("setup_s", "s", median(&setups)),
        m(
            "frames_per_s",
            "1/s",
            per_rep(&|r| r.frames as f64 / wall(r)),
        ),
        m("runs_per_s", "1/s", per_rep(&|r| r.runs as f64 / wall(r))),
        m("round_ms_p50", "ms", per_rep(&pct(0.5))),
        m("round_ms_p90", "ms", per_rep(&pct(0.9))),
        m("live_apply_ms_p50", "ms", per_rep(&apply_pct(0.5))),
        m("live_apply_ms_p90", "ms", per_rep(&apply_pct(0.9))),
        m("first_fault_s", "s", per_rep(&|r| r.first_fault_s)),
        m("peak_rss_mib", "MiB", peak_rss_mib().unwrap_or(0.0)),
    ]
}

/// The per-layer metrics of `--trace 1`.
fn per_layer(args: &Args, started: Instant, tally: &mut Tally) -> Vec<Metric> {
    let budget = Duration::from_secs(args.seconds);
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut layers: Vec<Vec<Metric>> = Vec::new();
    let mut first_run = None;
    loop {
        let pair_started = Instant::now();
        for trace in [false, true] {
            let Ok(mut p) = set_up(args, tally) else {
                return Vec::new();
            };
            if trace {
                let run = anatomy::traced_run(&mut p);
                traced.push(summarize(&p, &run.report, &run.timeline, tally));
                layers.push(anatomy::layer_metrics(&p, &run));
                first_run.get_or_insert(run);
            } else {
                let (report, timeline) = p.run_explored();
                untraced.push(summarize(&p, &report, &timeline, tally));
            }
            if tally.error.is_some() {
                return Vec::new();
            }
        }
        if started.elapsed() + pair_started.elapsed() > budget {
            break;
        }
    }
    let digest = untraced[0].digest;
    if untraced.iter().chain(&traced).any(|r| r.digest != digest) {
        tally.error = Some("traced and untraced live report digests differ".into());
        return Vec::new();
    }

    // The same epochs again with exploration off: live apply without
    // exploration holding checkpoints of the routers.
    let Ok(mut p) = set_up(args, tally) else {
        return Vec::new();
    };
    let unexplored = p.run_unexplored();
    tally.count(&p);
    let frames: Vec<Vec<u8>> = p
        .live_trace
        .records
        .iter()
        .map(|r| r.bytes.clone())
        .collect();
    let (decode_us, encode_us) = anatomy::codec_us_per_frame(&frames);

    let wall = |reps: &[Rep]| {
        median(
            &reps
                .iter()
                .map(|r| r.timeline.wall().as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let explored_apply = ms_samples(&traced, Timeline::apply_ms);
    let mut metrics = anatomy::median_metrics(&layers);
    let m = |name, unit, value| Metric { name, unit, value };
    metrics.extend([
        m("wire.decode_us_per_frame", "us", decode_us),
        m("wire.encode_us_per_frame", "us", encode_us),
        m(
            "obs.trace_overhead_ratio",
            "ratio",
            wall(&traced) / wall(&untraced),
        ),
        m(
            "live.impact_ratio",
            "ratio",
            median(&explored_apply) / median(&unexplored.apply_ms()),
        ),
    ]);

    let round_ms = median(&ms_samples(&traced, Timeline::round_ms));
    let run = first_run.expect("at least one traced repetition");
    let spans = anatomy::spans(&run.timeline);
    let path = PathBuf::from(OUT_DIR).join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match anatomy::write_spans(&path, &spans) {
        Ok(()) => println!("wrote {} spans to {}", spans.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    println!(
        "{}: seed {} | {} untraced + {} traced repetition(s), digest {digest:016x}",
        args.workload.name(),
        args.seed,
        untraced.len(),
        traced.len()
    );
    print!(
        "{}",
        anatomy::anatomy_table(args.workload.name(), round_ms, &metrics)
    );
    metrics
}

fn json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <wire_feed|leak_hunt|as_hierarchy> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer(&args, started, &mut tally)
    } else {
        end_to_end(&args, started, &mut tally)
    };
    if let Some(error) = &tally.error {
        eprintln!(
            "perfbench: {} failed its checks: {error}",
            args.workload.name()
        );
        println!("{}", json(false, &tally, &[]));
        return ExitCode::FAILURE;
    }
    for m in &metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(true, &tally, &metrics));
    ExitCode::SUCCESS
}

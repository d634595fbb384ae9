//! The benchmark's own tests: seeded inputs are reproducible, and a
//! quick-size run of every workload passes the same output checks the
//! measured runs must pass.

use dice::core::topology_fingerprint;
use dice::netsim::Simulator;
use dice_perfbench::anatomy;
use dice_perfbench::stats::fnv64;
use dice_perfbench::workload::{Prepared, Scale, Scenario, Workload};

fn inputs(workload: Workload, seed: u64) -> (Vec<u8>, String) {
    let scenario = Scenario::generate(workload, seed, Scale::Full);
    let fingerprint = topology_fingerprint(&Simulator::new(&scenario.topology));
    (scenario.trace.to_bytes(), fingerprint)
}

#[test]
fn the_seed_alone_determines_the_inputs() {
    for workload in Workload::ALL {
        let (bytes, fingerprint) = inputs(workload, 7);
        assert_eq!(
            (bytes.clone(), fingerprint.clone()),
            inputs(workload, 7),
            "{}: same seed, same trace bytes and topology",
            workload.name()
        );
        let (other_bytes, other_fingerprint) = inputs(workload, 8);
        assert_ne!(
            bytes,
            other_bytes,
            "{}: the seed changes the trace",
            workload.name()
        );
        // Figure 2 is the paper's fixed topology; only the synthetic
        // hierarchy is drawn from the seed.
        assert_eq!(
            fingerprint != other_fingerprint,
            workload == Workload::AsHierarchy,
            "{}: topology fingerprints {fingerprint} / {other_fingerprint}",
            workload.name()
        );
    }
}

#[test]
fn every_workload_passes_its_checks_at_quick_size() {
    for workload in Workload::ALL {
        for seed in [1, 2] {
            let mut digests = Vec::new();
            for _ in 0..2 {
                let mut p = Prepared::set_up(workload, seed, Scale::Quick).expect("set-up");
                let (report, timeline) = p.run_explored();
                let first_fault = p.check(&report).unwrap_or_else(|e| {
                    panic!("{} seed {seed}: {e}", workload.name());
                });
                assert_eq!(
                    first_fault.is_some(),
                    workload != Workload::WireFeed,
                    "{}: expected fault",
                    workload.name()
                );
                assert_eq!(timeline.epochs.len(), report.rounds.len());
                assert_eq!(p.frame_counts().1, 0, "no frame fails");
                digests.push(fnv64(&report.digest()));
            }
            assert_eq!(
                digests[0],
                digests[1],
                "{}: digest repeats",
                workload.name()
            );
        }
    }
}

#[test]
fn the_unexplored_replay_feeds_the_same_frames() {
    for workload in Workload::ALL {
        let mut p = Prepared::set_up(workload, 3, Scale::Quick).expect("set-up");
        let timeline = p.run_unexplored();
        assert_eq!(timeline.epochs.len(), p.epochs);
        let (attempted, failed) = p.frame_counts();
        assert_eq!(attempted, (p.setup_frames + p.live_trace.len()) as u64);
        assert_eq!(failed, 0);
    }
}

#[test]
fn traced_metrics_are_the_ones_benchmark_json_lists() {
    let listing =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let per_layer = &listing[listing.find("\"per_layer\"").expect("per_layer list")..];
    let mut p = Prepared::set_up(Workload::LeakHunt, 1, Scale::Quick).expect("set-up");
    let run = anatomy::traced_run(&mut p);
    let spans = anatomy::spans(&run.timeline);
    assert_eq!(spans.len(), 4 * run.timeline.epochs.len());
    for metric in anatomy::layer_metrics(&p, &run) {
        assert!(
            per_layer.contains(&format!("\"name\": \"{}\"", metric.name)),
            "{} is not listed in BENCHMARK.json",
            metric.name
        );
    }
}

//! The three workloads: what each generates from its seed, how it is set
//! up, which session explores it, and what its outputs must be.
//!
//! * `wire_feed` — Figure 2 with the correct filter. Set-up loads a table
//!   dump into the Provider; the live phase replays incremental updates
//!   (10% withdrawals) with exploration kept light, so the codec, ingest
//!   and the RIB write path carry the run. No fault may be reported.
//! * `leak_hunt` — Figure 2 with the erroneous filter of §4.2. Set-up loads
//!   the same size of table; the live phase feeds a few Customer
//!   announcements per epoch, each explored deeply, so symbolic execution,
//!   the solver, the checkers and the copy-on-write fork of a large RIB
//!   carry the run. The victim's 208.65.152.0/22 arrives over the Internet
//!   session mid-feed; from that round on the erroneous filter lets the
//!   Customer hijack it, and that fault must be found.
//! * `as_hierarchy` — a synthetic Gao-Rexford hierarchy of 100 ASes. Set-up
//!   converges a small base table; the live phase feeds stub announcements
//!   at their providers. Mid-feed one stub re-announces another stub's
//!   prefix, an origin conflict that must be found in that round; two
//!   epochs later a fault plan partitions a third stub and heals it two
//!   epochs after that, under the cross-round checkers. Propagation across
//!   100 nodes and the fan-out of exploration over many small RIBs carry
//!   the run.
//!
//! Every workload is closed loop with a fixed frames-per-epoch split, so a
//! seed always yields the same rounds and the same `LiveReport::digest`.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use dice::bgp::message::UpdateMessage;
use dice::bgp::{AsPath, Ipv4Prefix, RouteAttrs};
use dice::core::{
    BgpWedgieChecker, CrossRoundFlapChecker, DiceBuilder, DiceSession, LiveOrchestrator,
    LiveReport, MoreSpecificHijackChecker, OriginHijackChecker, RouteLeakChecker,
};
use dice::netsim::topology::{addr, asn, figure2_topology, CustomerFilterMode, NodeId, Topology};
use dice::netsim::{
    generate_trace, FaultPlan, FaultSpec, IngestStats, Simulator, TraceGenConfig, WireReplayDriver,
    WireTrace,
};
use dice::symexec::EngineConfig;

use crate::hierarchy::{self, Shape};
use crate::SplitMix64;

/// The core budget every live run is given. Fixed rather than read from
/// the host, so the figures describe one configuration: two cores.
pub const CORE_BUDGET: usize = 2;

/// Simulator steps an epoch may take to quiesce; far more than any
/// workload's propagation depth.
const QUIESCE_STEPS: u64 = 10_000;

/// The Customer's allocation in Figure 2.
const CUSTOMER_BLOCK: &str = "41.0.0.0/12";
/// The victim's prefix of §4.2, which the erroneous filter still admits
/// from the Customer.
const VICTIM_PREFIX: &str = "208.65.152.0/22";

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table-scale incremental replay; ingest and RIB writes dominate.
    WireFeed,
    /// Deep exploration of Customer input over a large RIB.
    LeakHunt,
    /// Propagation and fleet fan-out over a 100-AS hierarchy.
    AsHierarchy,
}

/// How large a run is. `Full` is what the benchmark measures; `Quick`
/// keeps every mechanism (and every check) but shrinks the inputs, for
/// the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A size that runs in well under a second.
    Quick,
}

/// The size knobs of one workload at one scale.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// Figure 2: prefixes in the set-up table. Hierarchy: base prefixes
    /// per stub.
    table: usize,
    /// Driver epochs in the live phase, one round each.
    epochs: usize,
    /// Live frames per epoch.
    per_epoch: usize,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::WireFeed,
        Workload::LeakHunt,
        Workload::AsHierarchy,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireFeed => "wire_feed",
            Workload::LeakHunt => "leak_hunt",
            Workload::AsHierarchy => "as_hierarchy",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn sizes(self, scale: Scale) -> Sizes {
        match (self, scale) {
            (Workload::WireFeed, Scale::Full) => Sizes {
                table: 10_000,
                epochs: 100,
                per_epoch: 10,
            },
            (Workload::LeakHunt, Scale::Full) => Sizes {
                table: 20_000,
                epochs: 100,
                per_epoch: 2,
            },
            (Workload::AsHierarchy, Scale::Full) => Sizes {
                table: 2,
                epochs: 100,
                per_epoch: 2,
            },
            (Workload::WireFeed, Scale::Quick) => Sizes {
                table: 500,
                epochs: 12,
                per_epoch: 10,
            },
            (Workload::LeakHunt, Scale::Quick) => Sizes {
                table: 500,
                epochs: 10,
                per_epoch: 2,
            },
            (Workload::AsHierarchy, Scale::Quick) => Sizes {
                table: 2,
                epochs: 10,
                per_epoch: 4,
            },
        }
    }

    fn shape(scale: Scale) -> Shape {
        match scale {
            Scale::Full => Shape {
                tier1: 5,
                tier2: 25,
                stubs: 70,
            },
            Scale::Quick => Shape {
                tier1: 3,
                tier2: 6,
                stubs: 12,
            },
        }
    }

    /// The exploration session of the workload.
    fn session(self) -> DiceSession {
        match self {
            Workload::WireFeed => DiceBuilder::new()
                .engine(EngineConfig::default().with_max_runs(1))
                .max_observed_inputs(1)
                .checker(Box::new(OriginHijackChecker::new()))
                .build(),
            Workload::LeakHunt => DiceBuilder::new()
                .engine(EngineConfig::default().with_max_runs(64))
                .checker(Box::new(OriginHijackChecker::new()))
                .checker(Box::new(MoreSpecificHijackChecker::new()))
                .checker(Box::new(
                    RouteLeakChecker::new()
                        .with_customer(asn::CUSTOMER)
                        .with_provider(asn::INTERNET),
                ))
                .build(),
            Workload::AsHierarchy => DiceBuilder::new()
                .engine(EngineConfig::default().with_max_runs(2))
                .max_observed_inputs(1)
                .checker(Box::new(OriginHijackChecker::new()))
                .checker(Box::new(BgpWedgieChecker::new()))
                .checker(Box::new(CrossRoundFlapChecker::new()))
                .build(),
        }
    }
}

/// A fault the workload must report, and when it may first appear.
#[derive(Debug, Clone)]
pub struct ExpectedFault {
    /// Checkers allowed to report it.
    pub checkers: &'static [&'static str],
    /// The fault's prefix lies inside this range.
    pub within: Ipv4Prefix,
    /// The round whose epoch carries the trigger; no fault may be sighted
    /// before it.
    pub trigger_round: usize,
}

/// What the final RIB of some nodes must hold.
#[derive(Debug, Clone)]
pub enum RibExpectation {
    /// Exactly this many prefixes: the count the trace implies.
    Exactly(usize),
    /// At least every one of these prefixes.
    Holds(Vec<Ipv4Prefix>),
}

/// What a correct run of a workload produces.
#[derive(Debug, Clone)]
pub struct Expectation {
    /// Nodes whose final RIB the trace determines.
    pub rib_nodes: Vec<NodeId>,
    /// What those RIBs hold.
    pub rib: RibExpectation,
    /// The fault that must be reported, or `None` when none may be.
    pub fault: Option<ExpectedFault>,
}

/// Everything a workload generates from its seed, before any set-up.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The wired topology.
    pub topology: Topology,
    /// Set-up frames followed by live frames.
    pub trace: WireTrace,
    /// How many leading frames of `trace` are set-up.
    pub setup_frames: usize,
    /// Distinct prefixes the set-up frames announce.
    pub setup_prefixes: usize,
    /// Live frames per driver epoch.
    pub frames_per_epoch: usize,
    /// Driver epochs of the live phase.
    pub epochs: usize,
    /// The fault plan driven alongside the live phase.
    pub plan: Option<FaultPlan>,
    /// The outputs a correct run produces.
    pub expect: Expectation,
}

impl Scenario {
    /// Generates the workload's inputs for `seed`.
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Scenario {
        let sizes = workload.sizes(scale);
        match workload {
            Workload::WireFeed => wire_feed(seed, sizes),
            Workload::LeakHunt => leak_hunt(seed, sizes),
            Workload::AsHierarchy => as_hierarchy(seed, sizes, Workload::shape(scale)),
        }
    }
}

fn parse(prefix: &str) -> Ipv4Prefix {
    prefix.parse().expect("literal prefix")
}

fn announcement(prefix: Ipv4Prefix, path: &[u32], next_hop: std::net::Ipv4Addr) -> UpdateMessage {
    let attrs = RouteAttrs {
        as_path: AsPath::from_sequence(path.iter().copied()),
        next_hop,
        ..RouteAttrs::default()
    };
    UpdateMessage::announce(vec![prefix], &attrs)
}

/// Applies an update's RIB effect to a set of installed prefixes.
fn apply(rib: &mut BTreeSet<Ipv4Prefix>, update: &UpdateMessage) {
    for prefix in &update.withdrawn {
        rib.remove(prefix);
    }
    rib.extend(update.nlri.iter().copied());
}

fn wire_feed(seed: u64, sizes: Sizes) -> Scenario {
    let topology = figure2_topology(CustomerFilterMode::Correct);
    let provider = topology.node_by_name("Provider").expect("Figure 2 node");
    let config = TraceGenConfig {
        prefix_count: sizes.table,
        update_count: 0,
        seed,
        ..TraceGenConfig::default()
    };
    let table = generate_trace(&config, asn::INTERNET, addr::INTERNET).table;
    let mut trace = WireTrace::new();
    for update in &table {
        trace.push_update(0, provider, addr::INTERNET, update);
    }
    // Every epoch has the same shape, so every seed asks the same work of
    // each round: re-announcements of table prefixes with a fresh path and
    // MED (the origin is kept, so no checker may fire), then one withdrawal
    // of an installed prefix in the last slot, 1 frame in `per_epoch`. The
    // first frame, the one input each node explores, is always a prefix of
    // the lower half of the address space, so the exploration fork always
    // copies the same RIB shard and round times do not flip between two
    // modes from seed to seed.
    let mut rng = SplitMix64::new(seed ^ 0x3ee7);
    let mut installed = vec![true; table.len()];
    let lower_half: Vec<usize> = (0..table.len())
        .filter(|&i| table[i].nlri.iter().all(|p| p.addr() < 1 << 31))
        .collect();
    for epoch in 0..sizes.epochs {
        let at_ms = epoch as u64 * 1000;
        for slot in 0..sizes.per_epoch {
            let update = if slot + 1 == sizes.per_epoch {
                let i = loop {
                    let i = rng.below(table.len());
                    if installed[i] {
                        break i;
                    }
                };
                installed[i] = false;
                UpdateMessage::withdraw(table[i].nlri.clone())
            } else {
                let i = if slot == 0 {
                    lower_half[rng.below(lower_half.len())]
                } else {
                    rng.below(table.len())
                };
                installed[i] = true;
                let mut attrs = table[i].route_attrs();
                let origin = attrs.origin_as().expect("table routes have an origin");
                let mut path = vec![asn::INTERNET];
                path.extend((0..1 + rng.below(3)).map(|_| 100_000 + rng.below(5_000) as u32));
                path.push(origin.value());
                attrs.as_path = AsPath::from_sequence(path);
                attrs.med = Some(rng.below(200) as u32);
                UpdateMessage::announce(table[i].nlri.clone(), &attrs)
            };
            trace.push_update(at_ms, provider, addr::INTERNET, &update);
        }
    }
    Scenario {
        topology,
        trace,
        setup_frames: table.len(),
        setup_prefixes: table.len(),
        frames_per_epoch: sizes.per_epoch,
        epochs: sizes.epochs,
        plan: None,
        expect: Expectation {
            rib_nodes: vec![provider],
            rib: RibExpectation::Exactly(installed.iter().filter(|&&i| i).count()),
            fault: None,
        },
    }
}

fn leak_hunt(seed: u64, sizes: Sizes) -> Scenario {
    let topology = figure2_topology(CustomerFilterMode::Erroneous);
    let provider = topology.node_by_name("Provider").expect("Figure 2 node");
    let customer_block = parse(CUSTOMER_BLOCK);
    let victim = parse(VICTIM_PREFIX);
    // Table routes overlapping the Customer's block or the victim would
    // make the Customer's own announcements look like hijacks of them and
    // fire the checkers before the trigger; leave them out of the dump.
    let config = TraceGenConfig {
        prefix_count: sizes.table + sizes.table / 8 + 64,
        update_count: 0,
        seed,
        ..TraceGenConfig::default()
    };
    let table: Vec<UpdateMessage> = generate_trace(&config, asn::INTERNET, addr::INTERNET)
        .table
        .into_iter()
        .filter(|u| {
            u.nlri
                .iter()
                .all(|p| !p.overlaps(&customer_block) && !p.overlaps(&victim))
        })
        .take(sizes.table)
        .collect();
    assert_eq!(table.len(), sizes.table, "enough non-overlapping prefixes");

    let mut trace = WireTrace::new();
    let mut rib = BTreeSet::new();
    for update in &table {
        trace.push_update(0, provider, addr::INTERNET, update);
        apply(&mut rib, update);
    }
    let trigger = sizes.epochs * 2 / 5;
    let mut rng = SplitMix64::new(seed ^ 0x1eaf);
    for epoch in 0..sizes.epochs {
        let at_ms = epoch as u64 * 1000;
        for slot in 0..sizes.per_epoch {
            let (peer, update) = if epoch == trigger && slot == 0 {
                let path = [asn::INTERNET, 3356, asn::VICTIM];
                (addr::INTERNET, announcement(victim, &path, addr::INTERNET))
            } else {
                let prefix = loop {
                    let len = 16 + rng.below(9) as u8;
                    let host = rng.next_u64() as u32 & !customer_block.netmask();
                    let prefix = Ipv4Prefix::must(customer_block.addr() | host, len);
                    if !rib.contains(&prefix) {
                        break prefix;
                    }
                };
                let path = [asn::CUSTOMER];
                (addr::CUSTOMER, announcement(prefix, &path, addr::CUSTOMER))
            };
            trace.push_update(at_ms, provider, peer, &update);
            apply(&mut rib, &update);
        }
    }
    Scenario {
        topology,
        trace,
        setup_frames: table.len(),
        setup_prefixes: table.len(),
        frames_per_epoch: sizes.per_epoch,
        epochs: sizes.epochs,
        plan: None,
        expect: Expectation {
            rib_nodes: vec![provider],
            rib: RibExpectation::Exactly(rib.len()),
            fault: Some(ExpectedFault {
                checkers: &["origin-hijack", "more-specific-hijack"],
                within: victim,
                trigger_round: trigger,
            }),
        },
    }
}

fn as_hierarchy(seed: u64, sizes: Sizes, shape: Shape) -> Scenario {
    let net = hierarchy::build(shape, seed);
    let mut rng = SplitMix64::new(seed ^ 0x57ab);
    // Distinct /24s of the stub block, in seeded order.
    let block = parse(hierarchy::STUB_BLOCK);
    let mut slots: Vec<u32> = (0..1u32 << (24 - block.len())).collect();
    rng.shuffle(&mut slots);
    let mut slots = slots
        .into_iter()
        .map(|slot| Ipv4Prefix::must(block.addr() | slot << 8, 24));

    // Each announcement is two frames, one per provider of the stub.
    let mut trace = WireTrace::new();
    let announce = |trace: &mut WireTrace, at_ms: u64, stub: &hierarchy::Stub, prefix| {
        let update = announcement(prefix, &[stub.asn], stub.addr);
        for provider in stub.providers {
            trace.push_update(at_ms, provider, stub.addr, &update);
        }
    };
    let mut held = Vec::new();
    let mut base = Vec::new();
    for stub in &net.stubs {
        for _ in 0..sizes.table {
            let prefix = slots.next().expect("the stub block has room");
            announce(&mut trace, 0, stub, prefix);
            base.push((stub.node, prefix));
        }
    }
    let setup_frames = trace.len();

    // Three stubs have roles: `owner` originates a base prefix that
    // `hijacker` re-announces at the trigger epoch (an origin conflict);
    // `isolated` is partitioned off two epochs later and healed two epochs
    // after that. The other stubs announce fresh prefixes in a seeded
    // rotation; the isolated stub never announces in the live phase.
    let mut order: Vec<&hierarchy::Stub> = net.stubs.iter().collect();
    rng.shuffle(&mut order);
    let (owner, hijacker, isolated) = (order[0], order[1], order[2]);
    let rotation = &order[3..];
    let conflicted = base
        .iter()
        .find(|(node, _)| *node == owner.node)
        .map(|&(_, prefix)| prefix)
        .expect("every stub has a base prefix");
    let trigger = sizes.epochs * 2 / 5;
    let partition = trigger + 2;
    let mut next = 0;
    for epoch in 0..sizes.epochs {
        let at_ms = epoch as u64 * 1000;
        for slot in 0..sizes.per_epoch / 2 {
            if epoch == trigger && slot == 0 {
                announce(&mut trace, at_ms, hijacker, conflicted);
                continue;
            }
            let stub = rotation[next % rotation.len()];
            next += 1;
            let prefix = slots.next().expect("the stub block has room");
            announce(&mut trace, at_ms, stub, prefix);
            held.push(prefix);
        }
    }
    let plan = FaultPlan::new(seed)
        .with_spec(FaultSpec::Partition {
            nodes: vec![isolated.node],
            epoch: partition as u64,
        })
        .with_spec(FaultSpec::Heal {
            nodes: vec![isolated.node],
            epoch: partition as u64 + 2,
        });
    // Every tier-1 ends up holding every stub prefix but the isolated
    // stub's. Those are not checked either way: when a withdrawal turns a
    // router's best route into one its export policy rejects, the router
    // sends its peers nothing, so stale copies survive among the tier-1s.
    held.extend(
        base.iter()
            .filter(|(node, _)| *node != isolated.node)
            .map(|&(_, prefix)| prefix),
    );
    Scenario {
        topology: net.topology,
        trace,
        setup_frames,
        setup_prefixes: base.len(),
        frames_per_epoch: sizes.per_epoch,
        epochs: sizes.epochs,
        plan: Some(plan),
        expect: Expectation {
            rib_nodes: net.tier1,
            rib: RibExpectation::Holds(held),
            fault: Some(ExpectedFault {
                checkers: &["origin-hijack"],
                within: conflicted,
                trigger_round: trigger,
            }),
        },
    }
}

/// A workload after set-up: the converged simulator, the live driver and
/// the orchestrator, ready for the first driver call.
pub struct Prepared {
    /// The simulator, holding the set-up table.
    pub sim: Simulator,
    /// Replays the live frames.
    pub driver: WireReplayDriver,
    /// Runs the live phase.
    pub orchestrator: LiveOrchestrator,
    /// The fault plan of the live phase.
    pub plan: Option<FaultPlan>,
    /// What a correct run produces.
    pub expect: Expectation,
    /// Driver epochs of the live phase.
    pub epochs: usize,
    /// The live frames, for the codec pass of a traced run.
    pub live_trace: WireTrace,
    /// Set-up frames replayed.
    pub setup_frames: usize,
    /// Distinct prefixes those frames announce.
    pub setup_prefixes: usize,
    /// Ingest counters of the set-up replay.
    pub setup_ingest: IngestStats,
    /// Wall time of the whole set-up.
    pub setup_time: Duration,
    /// Wall time of replaying and converging the set-up table.
    pub table_load_time: Duration,
}

impl Prepared {
    /// Generates, serializes, re-parses and replays the set-up part of the
    /// workload's trace, converges the simulator, and builds the session.
    /// Everything up to the first driver call is set-up, and is timed.
    pub fn set_up(workload: Workload, seed: u64, scale: Scale) -> Result<Prepared, String> {
        let started = Instant::now();
        let scenario = Scenario::generate(workload, seed, scale);
        let bytes = scenario.trace.to_bytes();
        let mut records = WireTrace::from_bytes(&bytes)
            .map_err(|e| format!("serialized trace does not parse: {e}"))?
            .records;
        let live_trace = WireTrace {
            records: records.split_off(scenario.setup_frames),
        };
        let mut sim = Simulator::new(&scenario.topology);

        let load_started = Instant::now();
        let mut loader = WireReplayDriver::new(WireTrace { records });
        loader.drive(&mut sim, 0);
        sim.run_to_quiescence(QUIESCE_STEPS);
        let table_load_time = load_started.elapsed();
        // The set-up table is state, not live input: the first round
        // explores only what the first epoch delivers.
        sim.trim_observed_below(sim.observed_cursor());

        let driver = WireReplayDriver::new(live_trace.clone())
            .with_frames_per_epoch(scenario.frames_per_epoch);
        let mut orchestrator = LiveOrchestrator::new(workload.session())
            .with_core_budget(CORE_BUDGET)
            .with_max_rounds(scenario.epochs)
            .with_live_history(sim.len() * scenario.epochs)
            .with_ingest_stats(driver.stats());
        if let Some(plan) = &scenario.plan {
            orchestrator = orchestrator.with_fault_plan(plan.clone());
        }
        Ok(Prepared {
            sim,
            driver,
            orchestrator,
            plan: scenario.plan,
            expect: scenario.expect,
            epochs: scenario.epochs,
            live_trace,
            setup_frames: scenario.setup_frames,
            setup_prefixes: scenario.setup_prefixes,
            setup_ingest: loader.stats().snapshot(),
            setup_time: started.elapsed(),
            table_load_time,
        })
    }

    /// Runs the live phase under exploration: each driver epoch replays the
    /// next frames and quiesces the simulator inside the driver call, so
    /// the orchestrator's own quiescence finds nothing left to do.
    pub fn run_explored(&mut self) -> (LiveReport, Timeline) {
        let Prepared {
            sim,
            driver,
            orchestrator,
            ..
        } = self;
        let mut epochs = Vec::with_capacity(self.epochs);
        let report = orchestrator.run(sim, |sim, epoch| {
            let called = Instant::now();
            let more = driver.drive(sim, epoch);
            let driven = Instant::now();
            sim.run_to_quiescence(QUIESCE_STEPS);
            epochs.push(EpochMarks {
                called,
                driven,
                quiesced: Instant::now(),
            });
            more
        });
        let end = Instant::now();
        (report, Timeline { epochs, end })
    }

    /// Replays the same live epochs (and fault plan) with exploration off:
    /// driver plus quiescence only. The baseline of `live.impact_ratio`.
    pub fn run_unexplored(&mut self) -> Timeline {
        if let Some(plan) = &self.plan {
            self.sim.install_fault_plan(plan.clone());
        }
        let mut epochs = Vec::with_capacity(self.epochs);
        for epoch in 0..self.epochs {
            self.sim.apply_epoch_faults(epoch as u64);
            let called = Instant::now();
            let more = self.driver.drive(&mut self.sim, epoch);
            let driven = Instant::now();
            self.sim.run_to_quiescence(QUIESCE_STEPS);
            epochs.push(EpochMarks {
                called,
                driven,
                quiesced: Instant::now(),
            });
            if !more {
                break;
            }
        }
        let end = Instant::now();
        Timeline { epochs, end }
    }

    /// Checks a live run's outputs. Returns the round in which the expected
    /// fault was first sighted (`None` for a workload that expects none).
    pub fn check(&self, report: &LiveReport) -> Result<Option<usize>, String> {
        if report.rounds.len() != self.epochs {
            return Err(format!(
                "{} rounds executed, {} epochs fed",
                report.rounds.len(),
                self.epochs
            ));
        }
        for round in &report.rounds {
            for node in &round.report.nodes {
                if !node.report.isolation_preserved {
                    return Err(format!(
                        "round {}: exploration of {} touched live state",
                        round.index, node.name
                    ));
                }
            }
        }
        for (phase, ingest, frames) in [
            ("set-up", &self.setup_ingest, self.setup_frames),
            (
                "live",
                &self.driver.stats().snapshot(),
                self.live_trace.len(),
            ),
        ] {
            if ingest.frames != frames as u64
                || ingest.decoded != ingest.frames
                || ingest.decode_errors != 0
                || ingest.reencode_mismatches != 0
            {
                return Err(format!(
                    "{phase} ingest: {} of {frames} frames pulled, {} decoded, {} decode errors, {} re-encode mismatches",
                    ingest.frames, ingest.decoded, ingest.decode_errors, ingest.reencode_mismatches
                ));
            }
        }
        let undeliverable = self.sim.stats().undeliverable;
        if undeliverable != 0 {
            return Err(format!("{undeliverable} undeliverable injects"));
        }
        for &node in &self.expect.rib_nodes {
            let rib = self.sim.router(node).rib();
            match &self.expect.rib {
                RibExpectation::Exactly(count) if rib.prefix_count() != *count => {
                    return Err(format!(
                        "{} holds {} prefixes, the trace implies {count}",
                        self.sim.name(node),
                        rib.prefix_count()
                    ));
                }
                RibExpectation::Holds(prefixes) => {
                    if let Some(missing) = prefixes.iter().find(|p| rib.best_route(p).is_none()) {
                        return Err(format!("{} lacks {missing}", self.sim.name(node)));
                    }
                }
                _ => {}
            }
        }
        let Some(expected) = &self.expect.fault else {
            return match report.faults.first() {
                Some(f) => Err(format!("unexpected fault: {}", f.fault)),
                None => Ok(None),
            };
        };
        if let Some(early) = report
            .faults
            .iter()
            .find(|f| f.rounds[0] < expected.trigger_round)
        {
            return Err(format!(
                "fault in round {} before the trigger round {}: {}",
                early.rounds[0], expected.trigger_round, early.fault
            ));
        }
        report
            .faults
            .iter()
            .filter(|f| {
                expected.checkers.contains(&f.fault.checker.as_str())
                    && expected.within.contains(&f.fault.leaked_prefix())
            })
            .map(|f| f.rounds[0])
            .min()
            .map(Some)
            .ok_or_else(|| {
                format!(
                    "no {:?} fault within {} was reported",
                    expected.checkers, expected.within
                )
            })
    }

    /// Frames fed to the program (set-up and live) and how many of them
    /// failed: decode errors, re-encode mismatches, undeliverable injects.
    pub fn frame_counts(&self) -> (u64, u64) {
        let live = self.driver.stats().snapshot();
        let attempted = self.setup_frames as u64 + live.frames;
        let failed = [&self.setup_ingest, &live]
            .iter()
            .map(|s| s.decode_errors + s.reencode_mismatches)
            .sum::<u64>()
            + self.sim.stats().undeliverable;
        (attempted, failed)
    }
}

/// When each driver epoch was called, finished replaying, and finished
/// quiescing.
#[derive(Debug, Clone, Copy)]
pub struct EpochMarks {
    /// The driver call.
    pub called: Instant,
    /// `WireReplayDriver::drive` returned.
    pub driven: Instant,
    /// `Simulator::run_to_quiescence` returned.
    pub quiesced: Instant,
}

/// The clock marks of one live phase.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// One entry per driver epoch.
    pub epochs: Vec<EpochMarks>,
    /// When the live phase returned.
    pub end: Instant,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Timeline {
    /// The timed phase: first driver call to the end of the run.
    pub fn wall(&self) -> Duration {
        self.epochs
            .first()
            .map(|e| self.end - e.called)
            .unwrap_or_default()
    }

    /// When round `i` ended: the next driver call, or the end of the run.
    pub fn round_end(&self, i: usize) -> Instant {
        self.epochs.get(i + 1).map(|e| e.called).unwrap_or(self.end)
    }

    /// Per-round wall time in ms, driver call to driver call.
    pub fn round_ms(&self) -> Vec<f64> {
        (0..self.epochs.len())
            .map(|i| ms(self.round_end(i) - self.epochs[i].called))
            .collect()
    }

    /// Per-epoch live apply time in ms: replay plus quiescence.
    pub fn apply_ms(&self) -> Vec<f64> {
        self.epochs
            .iter()
            .map(|e| ms(e.quiesced - e.called))
            .collect()
    }

    /// Per-epoch replay (ingest) time in ms.
    pub fn drive_ms(&self) -> Vec<f64> {
        self.epochs
            .iter()
            .map(|e| ms(e.driven - e.called))
            .collect()
    }

    /// Per-epoch quiescence time in ms.
    pub fn quiesce_ms(&self) -> Vec<f64> {
        self.epochs
            .iter()
            .map(|e| ms(e.quiesced - e.driven))
            .collect()
    }

    /// Seconds from the first driver call to the end of round `round`.
    pub fn seconds_to_end_of(&self, round: usize) -> f64 {
        (self.round_end(round) - self.epochs[0].called).as_secs_f64()
    }
}

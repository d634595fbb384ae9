//! A seeded synthetic Gao-Rexford AS hierarchy, built from the public
//! `Topology` / `RouterConfig` API: a tier-1 clique, multi-homed tier-2s
//! that also peer among themselves, and multi-homed stubs.
//!
//! Relationships are enforced with communities the way operators do it:
//! every import tags the route with `(local AS, 1|2|3)` for customer, peer
//! and provider routes and sets the matching LOCAL_PREF, and exports to
//! peers and providers pass only routes tagged as customer-learned. Stub
//! prefixes all come from 100.64.0.0/10, which the customer import filter
//! pins, so each customer input the explorer sees has a filter arm to flip.

use std::net::Ipv4Addr;

use dice::netsim::topology::{NodeId, Topology};
use dice::router::policy::{parse_filter, FilterDef};
use dice::router::{NeighborConfig, RouterConfig};

use crate::SplitMix64;

/// The block every stub prefix is drawn from.
pub const STUB_BLOCK: &str = "100.64.0.0/10";

/// Shape of a generated hierarchy. The counts and the wiring are fixed per
/// workload; the seed chooses which AS number (and so which router id)
/// sits at each position, which reorders every BGP tie-break.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Tier-1 ASes, fully meshed by peering.
    pub tier1: usize,
    /// Tier-2 ASes, each buying transit from two tier-1s and peering with
    /// one other tier-2 (an even count pairs them all).
    pub tier2: usize,
    /// Stub ASes, each buying transit from two tier-2s.
    pub stubs: usize,
}

impl Shape {
    fn len(&self) -> usize {
        self.tier1 + self.tier2 + self.stubs
    }
}

/// A stub AS and the two providers it is multi-homed to.
#[derive(Debug, Clone)]
pub struct Stub {
    /// The stub's node.
    pub node: NodeId,
    /// The stub's AS number.
    pub asn: u32,
    /// The stub's router id, which is also its address on every link.
    pub addr: Ipv4Addr,
    /// The tier-2 nodes the stub buys transit from.
    pub providers: [NodeId; 2],
}

/// A generated hierarchy.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// The wired topology, tier-1s first, then tier-2s, then stubs.
    pub topology: Topology,
    /// The tier-1 nodes.
    pub tier1: Vec<NodeId>,
    /// The stubs, in node order.
    pub stubs: Vec<Stub>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Rel {
    Customer,
    Peer,
    Provider,
}

/// Builds the hierarchy for `seed`.
pub fn build(shape: Shape, seed: u64) -> Hierarchy {
    let mut rng = SplitMix64::new(seed ^ 0x6a0_4e8f);
    // Private 16-bit ASNs, so each fits the high half of a community.
    let mut asns: Vec<u32> = (64_512..=65_534).collect();
    rng.shuffle(&mut asns);
    asns.truncate(shape.len());
    let addr_of = |asn: u32| Ipv4Addr::from(0xAC10_0000 | asn);

    let t1: Vec<usize> = (0..shape.tier1).collect();
    let t2: Vec<usize> = (shape.tier1..shape.tier1 + shape.tier2).collect();
    let stubs: Vec<usize> = (shape.tier1 + shape.tier2..shape.len()).collect();

    // The wiring is a fixed function of the shape, so every seed builds
    // the same graph up to relabelling and the work per seed stays alike.
    // links[i] = (neighbor index, what the neighbor is to i).
    let mut links: Vec<Vec<(usize, Rel)>> = vec![Vec::new(); shape.len()];
    let mut link = |a: usize, b: usize, b_to_a: Rel| {
        let a_to_b = match b_to_a {
            Rel::Customer => Rel::Provider,
            Rel::Peer => Rel::Peer,
            Rel::Provider => Rel::Customer,
        };
        links[a].push((b, b_to_a));
        links[b].push((a, a_to_b));
    };
    for (i, &a) in t1.iter().enumerate() {
        for &b in &t1[i + 1..] {
            link(a, b, Rel::Peer);
        }
    }
    let tier1_step = |j: usize| 1 + (j / t1.len()) % (t1.len() - 1);
    for (j, &a) in t2.iter().enumerate() {
        link(a, t1[j % t1.len()], Rel::Provider);
        link(a, t1[(j + tier1_step(j)) % t1.len()], Rel::Provider);
    }
    for pair in t2.chunks_exact(2) {
        link(pair[0], pair[1], Rel::Peer);
    }
    let tier2_step = 1 + t2.len() / 3;
    let mut stub_providers = Vec::with_capacity(stubs.len());
    for (i, &s) in stubs.iter().enumerate() {
        let providers = [t2[i % t2.len()], t2[(i + tier2_step) % t2.len()]];
        for p in providers {
            link(s, p, Rel::Provider);
        }
        stub_providers.push(providers);
    }

    let mut topology = Topology::new();
    for (i, &asn) in asns.iter().enumerate() {
        let tier = if i < shape.tier1 {
            "t1"
        } else if i < shape.tier1 + shape.tier2 {
            "t2"
        } else {
            "stub"
        };
        let mut config = RouterConfig::new(addr_of(asn), asn);
        for filter in filters(asn) {
            config = config.with_filter(filter);
        }
        for &(j, rel) in &links[i] {
            let (import, export) = match rel {
                Rel::Customer => ("from_customer", "to_customer"),
                Rel::Peer => ("from_peer", "to_upstream"),
                Rel::Provider => ("from_provider", "to_upstream"),
            };
            config = config.with_neighbor(NeighborConfig {
                address: addr_of(asns[j]),
                remote_as: asns[j],
                import_filter: Some(import.into()),
                export_filter: Some(export.into()),
            });
        }
        topology.add_node(format!("{tier}-AS{asn}"), config);
    }

    Hierarchy {
        topology,
        tier1: t1.into_iter().map(NodeId).collect(),
        stubs: stubs
            .iter()
            .zip(stub_providers)
            .map(|(&s, [a, b])| Stub {
                node: NodeId(s),
                asn: asns[s],
                addr: addr_of(asns[s]),
                providers: [NodeId(a), NodeId(b)],
            })
            .collect(),
    }
}

/// The Gao-Rexford import and export filters of the AS `asn`.
fn filters(asn: u32) -> Vec<FilterDef> {
    let sources = [
        format!(
            "filter from_customer {{
                if net ~ [ {STUB_BLOCK}{{16,24}} ] then {{
                    add community ({asn}, 1); local_pref = 200; accept;
                }}
                reject;
            }}"
        ),
        format!("filter from_peer {{ add community ({asn}, 2); local_pref = 100; accept; }}"),
        format!("filter from_provider {{ add community ({asn}, 3); local_pref = 50; accept; }}"),
        format!("filter to_upstream {{ if community ~ ({asn}, 1) then accept; reject; }}"),
    ];
    let mut out: Vec<FilterDef> = sources
        .iter()
        .map(|src| parse_filter(src).expect("generated filters parse"))
        .collect();
    out.push(FilterDef::accept_all("to_customer"));
    out
}

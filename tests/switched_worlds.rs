//! Pinned results of switched multi-lane worlds under every probability
//! fault the sharded network supports at once: wire loss, receiver loss,
//! duplication and reordering.
//!
//! Two shapes are pinned, each on three scheduler lanes:
//!
//! - a **flat** switch joining three segments, one per lane;
//! - a two-level **tree**: a backbone segment and four leaves behind two
//!   edge switches, with stations on the backbone and on every leaf.
//!
//! Stations mix unicast (to a sibling on the same segment and to stations
//! elsewhere), multicast to a group with members on some segments only, and
//! broadcast, so every switch-port forwarding rule carries traffic.
//!
//! What is pinned is what the model computes: the final and per-lane
//! virtual clocks, the frames each station received, and every segment's
//! counters. Event counts and scheduler-layer traces are deliberately left
//! out — how many scheduler wake-ups a delivery costs is an implementation
//! detail, not a result. Each world also runs on one and two runner threads
//! and must come out identical.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use desim::{us, LaneId, Simulation};
use ethernet::{Dest, MacAddr, McastAddr, NetConfig, Network, Nic, SegmentId, SegmentStats};

/// Simulation seed of every pinned run.
const SEED: u64 = 0x005E_ED0F_5A17;

/// The multicast group some stations join.
const GROUP: McastAddr = McastAddr(7);

/// Everything a switched world computes, minus scheduler-internal counts.
#[derive(Debug, PartialEq)]
struct Outcome {
    final_ns: u64,
    lane_ns: Vec<u64>,
    rx_counts: Vec<u64>,
    /// Per segment: frames, wire bytes, busy ns, wire drops, rx drops,
    /// down-tx drops, link drops, dup deliveries, held deliveries.
    segments: Vec<[u64; 9]>,
    held_pending: u64,
}

fn stats_row(s: &SegmentStats) -> [u64; 9] {
    [
        s.frames,
        s.wire_bytes,
        s.busy.as_nanos(),
        s.wire_drops,
        s.rx_drops,
        s.down_tx_drops,
        s.link_drops,
        s.dup_deliveries,
        s.held_deliveries,
    ]
}

/// Sets every per-frame probability knob that multi-lane networks allow.
fn arm_faults(net: &Network) {
    let faults = net.faults();
    let mut f = faults.lock();
    f.wire_loss_prob = 0.04;
    f.rx_loss_prob = 0.06;
    f.dup_prob = 0.06;
    f.reorder_prob = 0.08;
    f.reorder_span = 3;
}

/// Attaches station `i` to `seg` on `lane` with a sender and a counting
/// receiver. The sender walks `peers` round-robin with unicasts and mixes
/// in a group frame every 4th round and a broadcast every 7th.
#[allow(clippy::too_many_arguments)]
fn station(
    sim: &mut Simulation,
    net: &mut Network,
    i: u32,
    seg: SegmentId,
    lane: LaneId,
    peers: Vec<MacAddr>,
    member: bool,
    count: Arc<AtomicU64>,
) {
    let nic: Nic = net.attach(MacAddr(i), seg);
    if member {
        nic.join_group(GROUP);
    }
    let proc = sim.add_processor_on(lane, &format!("station{i}"));
    sim.spawn_on_lane(lane, proc, &format!("tx{i}"), {
        let nic = nic.clone();
        move |ctx| {
            let payload = bytes::Bytes::from(vec![i as u8; 40 + 8 * i as usize]);
            for round in 0..24u64 {
                ctx.sleep(us(29 + 11 * ((round + u64::from(i)) % 5)));
                let dst = peers[round as usize % peers.len()];
                nic.send(ctx, Dest::Unicast(dst), payload.clone());
                if round % 4 == u64::from(i) % 4 {
                    nic.send(ctx, Dest::Multicast(GROUP), payload.clone());
                }
                if round % 7 == u64::from(i) % 7 {
                    nic.send(ctx, Dest::Broadcast, payload.clone());
                }
            }
        }
    });
    sim.spawn_daemon_on_lane(lane, proc, &format!("rx{i}"), move |ctx| {
        while nic.rx().recv(ctx).is_some() {
            count.fetch_add(1, Ordering::Relaxed);
        }
    });
}

fn outcome(
    sim: &mut Simulation,
    net: &Network,
    lanes: &[LaneId],
    segs: &[SegmentId],
    counts: &[Arc<AtomicU64>],
) -> Outcome {
    let report = sim.run().expect("switched world drains");
    Outcome {
        final_ns: report.final_time.as_nanos(),
        lane_ns: lanes.iter().map(|&l| sim.lane_now(l).as_nanos()).collect(),
        rx_counts: counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        segments: segs
            .iter()
            .map(|&s| stats_row(&net.segment_stats(s)))
            .collect(),
        held_pending: net.held_pending(),
    }
}

/// Three segments on three lanes behind one flat switch; two stations per
/// segment, one of which on each of segments 0 and 2 joins the group.
fn flat_world(seed: u64, shards: usize) -> Outcome {
    let mut sim = Simulation::builder().seed(seed).shards(shards).build();
    let mut net = Network::new(NetConfig::default());
    let lanes = [LaneId::ZERO, sim.add_lane(), sim.add_lane()];
    let segs: Vec<SegmentId> = (0..3)
        .map(|s| net.add_segment_on(&mut sim, &format!("s{s}"), lanes[s]))
        .collect();
    net.add_switch(&mut sim, &segs, "sw");
    arm_faults(&net);
    let n = 6u32;
    let counts: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    for i in 0..n {
        let home = (i / 2) as usize;
        // Same-segment sibling first, then two stations elsewhere.
        let peers = vec![MacAddr(i ^ 1), MacAddr((i + 2) % n), MacAddr((i + 5) % n)];
        let member = i == 0 || i == 5;
        station(
            &mut sim,
            &mut net,
            i,
            segs[home],
            lanes[home],
            peers,
            member,
            Arc::clone(&counts[i as usize]),
        );
    }
    outcome(&mut sim, &net, &lanes, &segs, &counts)
}

/// A backbone on lane 0 and four leaves (lanes 1, 2, 0, 2) behind two edge
/// switches. Stations 0–1 sit on the backbone, two more on each leaf;
/// group members sit on the backbone and on leaf 2 only, so multicast
/// floods are pruned away from the other leaves.
fn tree_world(seed: u64, shards: usize) -> Outcome {
    let mut sim = Simulation::builder().seed(seed).shards(shards).build();
    let mut net = Network::new(NetConfig::default());
    let lanes = [LaneId::ZERO, sim.add_lane(), sim.add_lane()];
    let bb = net.add_segment_on(&mut sim, "bb", lanes[0]);
    let leaf_lanes = [1usize, 2, 0, 2];
    let leaves: Vec<SegmentId> = leaf_lanes
        .iter()
        .enumerate()
        .map(|(l, &lane)| net.add_segment_on(&mut sim, &format!("leaf{l}"), lanes[lane]))
        .collect();
    net.add_switch_with_uplink(&mut sim, &leaves[..2], bb, "edge0");
    net.add_switch_with_uplink(&mut sim, &leaves[2..], bb, "edge1");
    arm_faults(&net);
    let n = 10u32;
    let counts: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    for i in 0..n {
        let (seg, lane) = if i < 2 {
            (bb, lanes[0])
        } else {
            let l = ((i - 2) / 2) as usize;
            (leaves[l], lanes[leaf_lanes[l]])
        };
        // Same-segment sibling, a station under the other edge switch, a
        // backbone station, and a leaf under the same edge switch.
        let peers = vec![
            MacAddr(i ^ 1),
            MacAddr((i + 4) % n),
            MacAddr(i % 2),
            MacAddr(2 + (i + 2) % 8),
        ];
        let member = i == 1 || i == 6 || i == 7;
        station(
            &mut sim,
            &mut net,
            i,
            seg,
            lane,
            peers,
            member,
            Arc::clone(&counts[i as usize]),
        );
    }
    let mut segs = vec![bb];
    segs.extend(&leaves);
    outcome(&mut sim, &net, &lanes, &segs, &counts)
}

fn assert_pinned(name: &str, world: fn(u64, usize) -> Outcome, pinned: &Outcome) {
    let serial = world(SEED, 1);
    let parallel = world(SEED, 2);
    assert_eq!(serial, parallel, "{name} world depends on the runner count");
    // Wire loss, rx loss, duplication and holds must all have fired.
    for (field, what) in [(3, "wire"), (4, "rx"), (7, "dup"), (8, "held")] {
        let total: u64 = serial.segments.iter().map(|s| s[field]).sum();
        assert!(total > 0, "{name}: no {what} fault fired: {serial:?}");
    }
    assert_eq!(
        &serial, pinned,
        "{name} world drifted from its recorded results"
    );
}

#[test]
fn flat_switched_faulted_world_is_pinned() {
    let pinned = Outcome {
        final_ns: 10_638_600,
        lane_ns: vec![9_904_200, 9_795_000, 10_638_600],
        rx_counts: vec![60, 40, 40, 35, 39, 71],
        segments: vec![
            [125, 11_886, 9_875_200, 5, 22, 0, 0, 14, 17],
            [121, 11_814, 9_744_000, 4, 12, 0, 0, 20, 18],
            [123, 12_736, 10_609_600, 5, 10, 0, 0, 12, 19],
        ],
        held_pending: 1,
    };
    assert_pinned("flat", flat_world, &pinned);
}

#[test]
fn tree_switched_faulted_world_is_pinned() {
    let pinned = Outcome {
        final_ns: 25_835_000,
        lane_ns: vec![25_571_400, 25_607_800, 25_835_000],
        rx_counts: vec![61, 113, 45, 44, 57, 52, 96, 99, 46, 44],
        segments: vec![
            [269, 30_414, 25_542_400, 13, 45, 0, 0, 38, 51],
            [114, 12_662, 10_576_000, 5, 18, 0, 0, 10, 24],
            [128, 14_438, 11_780_800, 3, 13, 0, 0, 9, 20],
            [160, 18_694, 15_521_600, 6, 24, 0, 0, 18, 26],
            [110, 14_372, 12_046_400, 5, 7, 0, 0, 14, 13],
        ],
        held_pending: 2,
    };
    assert_pinned("tree", tree_world, &pinned);
}

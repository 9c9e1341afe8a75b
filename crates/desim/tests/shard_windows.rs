//! Windowed parallel execution is observably identical to serial execution
//! of the same lane federation.
//!
//! Deterministic smoke tests pin the cross-link delivery semantics; the
//! proptest sweeps random topologies (lane counts, link delays — i.e.
//! random lookahead windows, thread programs) and asserts that every
//! observable — per-lane event pop order (via structured trace renders),
//! per-lane final virtual clocks, event counts, reports, and string-trace
//! merges — matches a serial (`shards(1)`) reference execution exactly.
//! Failures minimize through proptest's shrinking.

use desim::{us, LaneId, Layer, SimChannel, SimTime, Simulation, WindowStats};
use proptest::prelude::*;

/// Everything observable about one run, for exact comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Artifacts {
    per_lane_traces: Vec<Vec<String>>,
    per_lane_final_times: Vec<SimTime>,
    final_time: SimTime,
    events: u64,
    proc_names: Vec<String>,
    trace_lines: Vec<String>,
    switches: Vec<u64>,
    /// Window-engine accounting with the wall-clock gate wait zeroed —
    /// window count, flush/elision split, and idle-lane skips are
    /// properties of the program and must not depend on the shard count.
    windows: WindowStats,
}

/// One lane's workload parameters (drawn by proptest, fixed per case).
#[derive(Debug, Clone)]
struct LaneSpec {
    /// Sender iterations.
    rounds: u64,
    /// Whether the sender computes (CPU model) in addition to sleeping.
    compute: bool,
}

/// Builds an `n`-lane ring — lane `i` sends to lane `(i+1) % n` through a
/// cross-link of delay `delays[i]` — runs it with the given shard count,
/// and captures every observable.
fn run_ring(seed: u64, specs: &[LaneSpec], delays_us: &[u64], shards: usize) -> Artifacts {
    let n = specs.len();
    let mut sim = Simulation::builder().seed(seed).shards(shards).build();
    sim.enable_tracing_with_capacity(1 << 16);
    sim.enable_trace();

    let lanes: Vec<LaneId> = (0..n)
        .map(|i| if i == 0 { LaneId::ZERO } else { sim.add_lane() })
        .collect();
    let procs: Vec<_> = lanes
        .iter()
        .enumerate()
        .map(|(i, &l)| sim.add_processor_on(l, &format!("m{i}")))
        .collect();
    let inboxes: Vec<SimChannel<u64>> = (0..n).map(|_| SimChannel::new()).collect();

    // Ring links (only meaningful with at least two lanes).
    let senders: Vec<_> = if n > 1 {
        (0..n)
            .map(|i| {
                let dst = (i + 1) % n;
                Some(sim.cross_link(
                    &format!("ring-{i}"),
                    us(delays_us[i]),
                    lanes[i],
                    lanes[dst],
                    procs[dst],
                    inboxes[dst].clone(),
                ))
            })
            .collect()
    } else {
        vec![None]
    };

    let mut handles = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let tx = senders[i].clone();
        let spec = spec.clone();
        handles.push(
            sim.spawn_on_lane(lanes[i], procs[i], &format!("sender-{i}"), move |ctx| {
                for round in 0..spec.rounds {
                    ctx.sleep(us(1 + ctx.rand_range(50)));
                    if spec.compute {
                        ctx.compute(us(1 + ctx.rand_range(10)));
                    }
                    if let Some(tx) = tx.as_ref() {
                        tx.send(ctx, (i as u64) << 32 | round);
                    }
                }
            }),
        );
        let inbox = inboxes[i].clone();
        sim.spawn_daemon_on_lane(lanes[i], procs[i], &format!("recv-{i}"), move |ctx| {
            while let Some(v) = inbox.recv(ctx) {
                ctx.trace(format!("got {:x} at {}", v, ctx.now()));
            }
        });
    }

    let report = sim.run().expect("ring runs to completion");
    for h in &handles {
        assert!(h.is_finished());
    }
    Artifacts {
        per_lane_traces: lanes
            .iter()
            .map(|&l| {
                sim.lane_trace_events(l)
                    .iter()
                    .map(|e| e.render())
                    .collect()
            })
            .collect(),
        per_lane_final_times: lanes.iter().map(|&l| sim.lane_now(l)).collect(),
        final_time: report.final_time,
        events: report.events,
        proc_names: sim.proc_names(),
        trace_lines: sim.take_trace(),
        switches: report.procs.iter().map(|p| p.switches).collect(),
        windows: WindowStats {
            barrier_wait_ns: 0,
            ..sim.window_stats()
        },
    }
}

#[test]
fn cross_link_delivers_at_exactly_send_plus_delay() {
    let mut sim = Simulation::new(7);
    let l1 = sim.add_lane();
    let p0 = sim.add_processor("m0");
    let p1 = sim.add_processor_on(l1, "m1");
    let inbox: SimChannel<u64> = SimChannel::new();
    let tx = sim.cross_link("l01", us(30), LaneId::ZERO, l1, p1, inbox.clone());
    sim.spawn(p0, "src", move |ctx| {
        ctx.sleep(us(5));
        tx.send(ctx, 42);
        ctx.sleep(us(100));
        tx.send(ctx, 43);
    });
    let sink = sim.spawn_on_lane(l1, p1, "sink", move |ctx| {
        assert_eq!(inbox.recv(ctx), Some(42));
        assert_eq!(ctx.now(), SimTime::ZERO + us(5) + us(30));
        assert_eq!(inbox.recv(ctx), Some(43));
        assert_eq!(ctx.now(), SimTime::ZERO + us(105) + us(30));
    });
    sim.run_until_finished(&sink).expect("sink finishes");
    assert_eq!(sim.lookahead(), Some(us(30)));
}

/// The trace accessors cover every lane: counters carry lane-major
/// `ProcId`s (the numbering of `proc_names`) and `trace_dropped` sums the
/// lanes' ring-buffer evictions.
#[test]
fn trace_counters_and_dropped_cover_every_lane() {
    let mut sim = Simulation::builder().seed(5).shards(2).build();
    let l1 = sim.add_lane();
    let _a0 = sim.add_processor("a0");
    let a1 = sim.add_processor("a1");
    let b = sim.add_processor_on(l1, "b");
    sim.enable_tracing_with_capacity(4);
    let inbox: SimChannel<u64> = SimChannel::new();
    let tx = sim.cross_link("ab", us(10), LaneId::ZERO, l1, b, inbox.clone());
    sim.spawn(a1, "src", move |ctx| {
        for i in 0..5 {
            ctx.trace_instant(Layer::App, "tick", &[("i", i)]);
            tx.send(ctx, i);
            ctx.sleep(us(3));
        }
    });
    sim.spawn_on_lane(l1, b, "sink", move |ctx| {
        for _ in 0..5 {
            let v = inbox.recv(ctx).expect("value");
            ctx.trace_instant(Layer::App, "tock", &[("v", v)]);
            ctx.trace_instant(Layer::App, "tock", &[("v", v)]);
        }
    });
    sim.run().expect("run");

    // Lane-major: lane 0's a0, a1 are p0, p1; lane 1's b is p2.
    assert_eq!(sim.proc_names(), ["a0", "a1", "b"]);
    let counters = sim.trace_counters();
    let app = |name: &str| {
        counters
            .iter()
            .find(|c| c.layer == Layer::App && c.name == name)
            .map(|c| (c.proc.to_string(), c.count, c.total))
    };
    assert_eq!(app("tick"), Some(("p1".to_owned(), 5, 10)));
    assert_eq!(app("tock"), Some(("p2".to_owned(), 10, 20)));
    let mut sorted = counters.clone();
    sorted.sort_by_key(|c| (c.proc, c.layer, c.name));
    assert_eq!(counters, sorted, "merged counters stay sorted");

    let recorded: u64 = counters.iter().map(|c| c.count).sum();
    let buffered: usize = [LaneId::ZERO, l1]
        .iter()
        .map(|&l| sim.lane_trace_events(l).len())
        .sum();
    assert_eq!(buffered, 8, "both rings are full");
    assert_eq!(sim.trace_dropped(), recorded - buffered as u64);
}

#[test]
fn independent_lanes_drain_in_one_unbounded_window() {
    for shards in [1, 2, 4] {
        let mut sim = Simulation::builder().seed(3).shards(shards).build();
        let l1 = sim.add_lane();
        let p0 = sim.add_processor("a");
        let p1 = sim.add_processor_on(l1, "b");
        sim.spawn(p0, "ta", |ctx| ctx.sleep(us(10)));
        sim.spawn_on_lane(l1, p1, "tb", |ctx| ctx.sleep(us(25)));
        let report = sim.run().expect("independent lanes drain");
        assert_eq!(sim.lookahead(), None);
        assert_eq!(report.final_time, SimTime::ZERO + us(25));
        assert_eq!(sim.lane_now(LaneId::ZERO), SimTime::ZERO + us(10));
        assert_eq!(sim.lane_now(l1), SimTime::ZERO + us(25));
    }
}

#[test]
fn event_budget_stops_a_windowed_run() {
    let mut sim = Simulation::new(11);
    let l1 = sim.add_lane();
    let p0 = sim.add_processor("a");
    let p1 = sim.add_processor_on(l1, "b");
    let inbox: SimChannel<u64> = SimChannel::new();
    let tx = sim.cross_link("x", us(10), LaneId::ZERO, l1, p1, inbox.clone());
    sim.set_max_events(500);
    sim.spawn(p0, "spin", move |ctx| loop {
        ctx.sleep(us(1));
        tx.send(ctx, 0);
    });
    sim.spawn_daemon_on_lane(
        l1,
        p1,
        "drain",
        move |ctx| {
            while inbox.recv(ctx).is_some() {}
        },
    );
    match sim.run() {
        Err(desim::SimError::EventLimitExceeded { limit }) => assert_eq!(limit, 500),
        other => panic!("expected EventLimitExceeded, got {other:?}"),
    }
}

#[test]
fn two_lane_ring_is_shard_count_independent() {
    let specs = vec![
        LaneSpec {
            rounds: 40,
            compute: true,
        },
        LaneSpec {
            rounds: 25,
            compute: false,
        },
    ];
    let delays = vec![30, 45];
    let reference = run_ring(0xA5, &specs, &delays, 1);
    assert!(
        reference.trace_lines.iter().any(|l| l.contains("got")),
        "ring must actually deliver cross-lane traffic"
    );
    for shards in [2, 4, 0] {
        assert_eq!(reference, run_ring(0xA5, &specs, &delays, shards));
    }
}

#[test]
fn quiet_windows_elide_flush_work() {
    // Lane 0 fires one early burst at lane 1, then lane 1 grinds through a
    // long local program: every later window carries no cross traffic, so
    // its flush must be elided (no lane lists the link) and drained lane 0
    // skipped without taking its state lock.
    let mut sim = Simulation::builder().seed(5).shards(2).build();
    let l1 = sim.add_lane();
    let p0 = sim.add_processor("m0");
    let p1 = sim.add_processor_on(l1, "m1");
    let inbox: SimChannel<u64> = SimChannel::new();
    let tx = sim.cross_link("burst", us(10), LaneId::ZERO, l1, p1, inbox.clone());
    sim.spawn(p0, "burst", move |ctx| {
        for i in 0..3 {
            tx.send(ctx, i);
        }
    });
    sim.spawn_on_lane(l1, p1, "grind", move |ctx| {
        for _ in 0..3 {
            inbox.recv(ctx);
        }
        for _ in 0..200 {
            ctx.sleep(us(3));
        }
    });
    sim.run().expect("burst run completes");
    let w = sim.window_stats();
    assert!(w.windows > 10, "the grind spans many windows: {w:?}");
    assert!(
        w.flushes_elided > w.flushes,
        "quiet windows dominate, so elisions must outnumber real flushes: {w:?}"
    );
    assert!(
        w.lanes_skipped > 0,
        "drained lane 0 must be skipped lock-free: {w:?}"
    );
    assert_eq!(w.events, sim.report().events);
}

fn lane_spec() -> impl Strategy<Value = LaneSpec> {
    (1u64..12, any::<bool>()).prop_map(|(rounds, compute)| LaneSpec { rounds, compute })
}

/// Like [`lane_spec`], but weighted toward fully idle lanes (no sender
/// rounds at all) so the idle-lane skip and flush-elision fast paths are on
/// the exercised path.
fn sparse_lane_spec() -> impl Strategy<Value = LaneSpec> {
    (0u64..12, any::<bool>(), any::<bool>()).prop_map(|(rounds, compute, idle)| LaneSpec {
        // Half the draws collapse to a fully idle lane regardless of the
        // rounds draw, so idle-heavy topologies are common, not rare.
        rounds: if idle { 0 } else { rounds },
        compute,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random topology (1–3 lanes), random lookahead (link delays), random
    /// per-lane programs: `shards=2` and `shards=auto` must reproduce the
    /// `shards=1` serial reference bit for bit.
    #[test]
    fn windowed_matches_serial_reference(
        seed in any::<u64>(),
        specs in proptest::collection::vec(lane_spec(), 1..4),
        delays in proptest::collection::vec(5u64..200, 3..4),
    ) {
        let delays = delays[..specs.len()].to_vec();
        let reference = run_ring(seed, &specs, &delays, 1);
        for shards in [2usize, 0] {
            let other = run_ring(seed, &specs, &delays, shards);
            prop_assert_eq!(&reference, &other);
        }
    }

    /// Topologies where lanes sit fully idle: the idle-lane skip and the
    /// dirty-link flush elision must not change a single observable — every
    /// delivery instant, trace line, and clock matches the serial
    /// (`shards=1`) reference exactly, and the window-engine counters
    /// themselves are shard-count independent.
    #[test]
    fn idle_lanes_and_quiet_links_match_serial_reference(
        seed in any::<u64>(),
        specs in proptest::collection::vec(sparse_lane_spec(), 2..5),
        delays in proptest::collection::vec(5u64..200, 4..5),
    ) {
        let delays = delays[..specs.len()].to_vec();
        let reference = run_ring(seed, &specs, &delays, 1);
        for shards in [2usize, 0] {
            let other = run_ring(seed, &specs, &delays, shards);
            prop_assert_eq!(&reference, &other);
        }
        // An idle lane's outbound link never turns dirty, so with at least
        // one idle lane every window must elide at least one flush.
        if specs.iter().any(|s| s.rounds == 0) {
            prop_assert!(
                reference.windows.flushes_elided >= reference.windows.windows,
                "idle link never elided: {:?}", reference.windows
            );
        }
    }
}

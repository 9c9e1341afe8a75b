//! The traced run (`--trace 1`): per-layer metrics and a span file.
//!
//! Spans come from this benchmark's own code: one around every call it
//! makes into a layer's public function, named after that function and
//! filed under the layer (crate) that function measures. The program's
//! own tracing stays off in every world the benchmark builds through the
//! apps; only the Section 4 budget probes turn it on, in their own
//! two-machine worlds.
//!
//! The suite is the same whatever `--workload` names: every Table 3 cell,
//! the fleet on the default runner count and on one runner, the unit-cost
//! probes and the budgets, so each traced run reports every per-layer
//! metric. The workload only picks which batch is also run untraced, for
//! `trace.overhead_frac`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use amoeba::CostModel;
use apps::fleet::FleetReport;
use apps::AppReport;
use bench::selfperf::{fanout, median_of, pingpong, sleepstorm, timers};
use bench::{derive_budget, group_span, group_trace, rpc_span, rpc_trace, Which};
use desim::{Backend, Layer};
use flip::{FlipAddr, PacketHeader, PacketType};

use crate::metrics::{json_string, median, Metrics};
use crate::workloads::{
    all_cells, boot_cell, boot_fleet, cell_ops, describe_cell, describe_fleet, fleet_ops,
    fleet_runners, references, run_cell, Cell, Checks, Seeds, Stack, VirtualOutcome, Workload,
};
use crate::Outcome;

/// Boots per stack behind a traced cell's boot subtraction.
const BOOT_REPS: usize = 5;
/// Repetitions of each unit-cost probe (the median is kept).
const PROBE_REPS: usize = 5;

/// One span: a call from the benchmark into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The span's index in the file.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The layer (crate) the call measures.
    pub layer: &'static str,
    /// The function called, with its arguments where they matter.
    pub name: String,
    /// Host nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Spans kept in memory and written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; returns its result and the span's seconds.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            layer,
            name: name.into(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, self.spans[id].secs())
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Host seconds per layer spent in spans of that layer and not in
    /// their child spans.
    pub fn self_s_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.layer).or_insert(0.0) += s.secs() - child_s[s.id];
        }
        out
    }

    /// The span file: spans, self time per layer, and the run's metrics.
    pub fn to_json(&self, header: &str, metrics: &Metrics) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\": {}, \"parent\": {}, \"layer\": \"{}\", \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.layer,
                    json_string(&s.name),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        let self_s: Vec<String> = self
            .self_s_by_layer()
            .iter()
            .map(|(l, s)| format!("\"{l}\": {s}"))
            .collect();
        format!(
            "{{{header}, \"spans\": [\n  {}\n], \"self_s_by_layer\": {{{}}}, \"metrics\": {}}}\n",
            spans.join(",\n  "),
            self_s.join(", "),
            metrics.to_json()
        )
    }
}

/// Host costs of single operations, from the unit-cost probes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Probes {
    /// Scheduler hand-off: channel ping-pong, ns per event.
    pub handoff_ns: f64,
    /// Timer wake of one thread, ns per event.
    pub timer_ns: f64,
    /// Timer churn with 10k pending timers, ns per event.
    pub wheel_ns: f64,
    /// 32-member Ethernet multicast fan-out, ns per event.
    pub fanout_ns: f64,
    /// FLIP header encode plus decode with a 3200-byte payload, ns.
    pub codec_ns_3200: f64,
    /// FLIP header encode plus decode with a 128-byte payload, ns.
    pub codec_ns_128: f64,
    /// Host µs per Table 1 null RPC, kernel then user stack.
    pub rpc_host_us: [f64; 2],
    /// Host µs per Table 1 null group send, kernel then user stack.
    pub group_host_us: [f64; 2],
}

/// The Section 4 budget of one null operation, summed per trace layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    /// `rpc` or `group`.
    pub kind: &'static str,
    /// The stack it ran on.
    pub stack: Stack,
    /// Virtual µs charged per trace layer, in [`budget_layers`] order.
    pub layer_us: Vec<f64>,
    /// `bench::budget_total` of the same lines, µs.
    pub total_us: f64,
}

/// The trace layers a budget of `kind` is reported over.
pub fn budget_layers(kind: &str) -> [Layer; 4] {
    let own = if kind == "rpc" {
        Layer::Rpc
    } else {
        Layer::Group
    };
    [Layer::Sched, Layer::Net, Layer::Flip, own]
}

/// Everything the per-layer metrics are computed from.
#[derive(Debug, Clone)]
pub struct SuiteData {
    /// Each Table 3 cell's report.
    pub cells: BTreeMap<Cell, AppReport>,
    /// Each cell's host seconds, boot excluded.
    pub cell_run_s: BTreeMap<Cell, f64>,
    /// The fleet's report on the default runner count.
    pub fleet: FleetReport,
    /// Host seconds of that fleet run.
    pub fleet_run_s: f64,
    /// Host seconds of the same fleet on one runner.
    pub fleet_serial_run_s: f64,
    /// The runner count the fleet resolved to.
    pub runners: usize,
    /// Unit costs.
    pub probes: Probes,
    /// Null RPC and null group budgets on both stacks.
    pub budgets: Vec<Budget>,
    /// Traced over untraced host time of the named workload, minus one.
    pub overhead_frac: f64,
    /// Operations attempted over the suite.
    pub attempted: u64,
    /// Operations failed over the suite.
    pub failed: u64,
}

/// Host seconds of a workload's batch within the suite.
fn workload_run_s(d: &SuiteData, w: Workload) -> f64 {
    match w {
        Workload::Fleet1k => d.fleet_run_s,
        _ => w.cells().iter().map(|c| d.cell_run_s[c]).sum(),
    }
}

/// Frames and wire bytes a workload's batch put on the network.
fn workload_traffic(d: &SuiteData, w: Workload) -> (u64, u64) {
    match w {
        Workload::Fleet1k => (d.fleet.frames, d.fleet.wire_bytes),
        _ => w.cells().iter().fold((0, 0), |(fr, by), c| {
            (fr + d.cells[c].frames, by + d.cells[c].wire_bytes)
        }),
    }
}

/// The per-layer metrics, named after the crates they measure.
///
/// # Panics
///
/// Panics if a Table 3 cell is missing from `d`.
pub fn per_layer(d: &SuiteData) -> Metrics {
    let mut m = Metrics::default();
    let f = &d.fleet;
    let (q, w) = (&f.queue_stats, &f.window_stats);

    // desim
    m.push("desim.events", "count", f.sim_events as f64);
    m.push(
        "desim.host_ns_per_event",
        "ns",
        d.fleet_run_s * 1e9 / f.sim_events as f64,
    );
    m.push("desim.queue.peak_depth", "count", q.peak_depth as f64);
    m.push("desim.queue.wheel_pushes", "count", q.wheel_pushes as f64);
    m.push("desim.queue.cascades", "count", q.cascades as f64);
    m.push("desim.window.windows", "count", w.windows as f64);
    m.push(
        "desim.window.events_per_window",
        "count",
        w.events as f64 / w.windows as f64,
    );
    m.push("desim.window.flushes", "count", w.flushes as f64);
    m.push(
        "desim.window.flushes_elided",
        "count",
        w.flushes_elided as f64,
    );
    m.push(
        "desim.window.lanes_skipped",
        "count",
        w.lanes_skipped as f64,
    );
    m.push(
        "desim.window.barrier_wait_s",
        "s",
        w.barrier_wait_ns as f64 / 1e9,
    );
    m.push("desim.runners", "count", d.runners as f64);
    m.push(
        "desim.shard.speedup",
        "ratio",
        d.fleet_serial_run_s / d.fleet_run_s,
    );
    m.push("desim.handoff_ns", "ns", d.probes.handoff_ns);
    m.push("desim.timer_ns", "ns", d.probes.timer_ns);
    m.push("desim.wheel_ns", "ns", d.probes.wheel_ns);

    // ethernet: traffic each workload put on the wire
    for wl in Workload::ALL {
        let (frames, bytes) = workload_traffic(d, wl);
        let name = wl.name();
        m.push(format!("ethernet.frames.{name}"), "count", frames as f64);
        m.push(format!("ethernet.wire_bytes.{name}"), "bytes", bytes as f64);
        m.push(
            format!("ethernet.host_ns_per_frame.{name}"),
            "ns",
            workload_run_s(d, wl) * 1e9 / frames as f64,
        );
    }
    m.push("ethernet.fanout_ns", "ns", d.probes.fanout_ns);

    // flip
    m.push("flip.codec_ns.3200", "ns", d.probes.codec_ns_3200);
    m.push("flip.codec_ns.128", "ns", d.probes.codec_ns_128);

    // amoeba (kernel stack) and panda (user stack): Section 4 budgets
    for b in &d.budgets {
        for (layer, us) in budget_layers(b.kind).iter().zip(&b.layer_us) {
            m.push(
                format!("budget.{}.{}.{}_us", b.kind, b.stack.name(), layer.as_str()),
                "virt_us",
                *us,
            );
        }
    }

    // panda: host cost of one Table 1 operation
    for (i, stack) in [Stack::Kernel, Stack::User].into_iter().enumerate() {
        let s = stack.name();
        m.push(
            format!("panda.rpc_host_us.{s}"),
            "us",
            d.probes.rpc_host_us[i],
        );
        m.push(
            format!("panda.group_host_us.{s}"),
            "us",
            d.probes.group_host_us[i],
        );
    }

    // orca: runtime counters per cell, and host cost per remote operation
    for cell in all_cells() {
        let rts = &d.cells[&cell].rts;
        let k = cell.key();
        m.push(format!("orca.rpcs.{k}"), "count", rts.rpcs as f64);
        m.push(
            format!("orca.broadcasts.{k}"),
            "count",
            rts.broadcasts as f64,
        );
        m.push(format!("orca.local_ops.{k}"), "count", rts.local_ops as f64);
        m.push(
            format!("orca.continuations_queued.{k}"),
            "count",
            rts.continuations_queued as f64,
        );
    }
    let per_op_us = |wl: Workload, count: fn(&orca::RtsStats) -> u64| {
        let ops: u64 = wl.cells().iter().map(|c| count(&d.cells[c].rts)).sum();
        workload_run_s(d, wl) * 1e6 / ops as f64
    };
    m.push(
        "orca.host_us_per_rpc",
        "us",
        per_op_us(Workload::OrcaRpc, |r| r.rpcs),
    );
    m.push(
        "orca.host_us_per_bcast",
        "us",
        per_op_us(Workload::OrcaBcast, |r| r.broadcasts),
    );

    // apps
    for cell in all_cells() {
        m.push(
            format!("apps.{}.run_s", cell.key()),
            "s",
            d.cell_run_s[&cell],
        );
    }
    m.push("apps.fleet.ops", "count", f.ops as f64);
    m.push("apps.fleet.timeouts", "count", f.timeouts as f64);
    m.push("apps.fleet.group_sends", "count", f.group_sends as f64);
    m.push(
        "apps.fleet.group_timeouts",
        "count",
        f.group_timeouts as f64,
    );

    // count × unit cost, with the residual against each workload's run_s
    let stack_cost = |wl: Workload, count: fn(&orca::RtsStats) -> u64, unit_us: [f64; 2]| {
        wl.cells()
            .iter()
            .map(|c| count(&d.cells[c].rts) as f64 * unit_us[c.stack as usize] / 1e6)
            .sum::<f64>()
    };
    let estimates = [
        (
            Workload::OrcaRpc,
            "panda",
            stack_cost(Workload::OrcaRpc, |r| r.rpcs, d.probes.rpc_host_us),
            d.probes.codec_ns_3200,
        ),
        (
            Workload::OrcaBcast,
            "panda",
            stack_cost(
                Workload::OrcaBcast,
                |r| r.broadcasts,
                d.probes.group_host_us,
            ),
            d.probes.codec_ns_3200,
        ),
        (
            Workload::Fleet1k,
            "desim",
            f.sim_events as f64 * d.probes.handoff_ns / 1e9,
            d.probes.codec_ns_128,
        ),
    ];
    for (wl, layer, est_s, codec_ns) in estimates {
        let name = wl.name();
        let frames = workload_traffic(d, wl).0 as f64;
        m.push(format!("est.{name}.{layer}_s"), "s", est_s);
        m.push(format!("est.{name}.flip_s"), "s", frames * codec_ns / 1e9);
        m.push(
            format!("est.{name}.residual_s"),
            "s",
            workload_run_s(d, wl) - est_s,
        );
    }

    m.push("trace.overhead_frac", "ratio", d.overhead_frac);
    m.push(
        "failed_frac",
        "ratio",
        d.failed as f64 / d.attempted.max(1) as f64,
    );
    m
}

/// The batch run untraced, for the determinism check and the overhead.
enum Untraced {
    Fleet(FleetReport),
    Cells(Vec<(Cell, AppReport)>),
}

/// Runs the traced suite; `workload` names the batch also run untraced.
pub fn run(workload: Workload, seeds: Seeds) -> (Outcome, Tracer) {
    let mut checks = Checks::default();
    let backend = Backend::default_backend();

    // The untraced reference batch, timed without spans.
    let (untraced, untraced_wall_s) = match workload {
        Workload::Fleet1k => {
            let world = boot_fleet(seeds, 0);
            let t0 = Instant::now();
            let r = world.run();
            (Untraced::Fleet(r), t0.elapsed().as_secs_f64())
        }
        _ => {
            let t0 = Instant::now();
            let reports = workload
                .cells()
                .iter()
                .map(|&c| (c, run_cell(c, seeds)))
                .collect();
            (Untraced::Cells(reports), t0.elapsed().as_secs_f64())
        }
    };

    let mut tr = Tracer::default();
    let mut boot_s = [0.0; 2];
    for stack in [Stack::Kernel, Stack::User] {
        let mut samples = Vec::new();
        for _ in 0..BOOT_REPS {
            let (cluster, s) = tr.span("apps", "apps::harness::build_cluster", |_| {
                boot_cell(stack, seeds)
            });
            samples.push(s);
            drop(cluster);
        }
        boot_s[stack as usize] = median(&samples);
    }
    let mut cells = BTreeMap::new();
    let mut cell_run_s = BTreeMap::new();
    for cell in all_cells() {
        let name = format!("apps::{}::run [{}]", cell.app.name(), cell.stack.name());
        let (report, s) = tr.span("apps", name, |_| run_cell(cell, seeds));
        cell_run_s.insert(cell, s - boot_s[cell.stack as usize]);
        cells.insert(cell, report);
    }

    let (world, _) = tr.span("apps", "apps::fleet::build_fleet [auto]", |_| {
        boot_fleet(seeds, 0)
    });
    let (fleet, fleet_run_s) = tr.span("apps", "apps::fleet::FleetWorld::run [auto]", |_| {
        world.run()
    });
    let (world, _) = tr.span("apps", "apps::fleet::build_fleet [1 runner]", |_| {
        boot_fleet(seeds, 1)
    });
    let (serial, fleet_serial_run_s) =
        tr.span("apps", "apps::fleet::FleetWorld::run [1 runner]", |_| {
            world.run()
        });
    checks.same_fleet("fleet_1k on 1 runner vs auto", &fleet, &serial);

    let probes = run_probes(&mut tr, backend);
    let budgets = run_budgets(&mut tr, &mut checks);

    // Determinism and the overhead of the spans, against the untraced batch.
    let (traced_s, untraced_s) = match &untraced {
        Untraced::Fleet(r) => {
            checks.same_fleet("fleet_1k untraced vs traced", r, &fleet);
            (fleet_run_s, untraced_wall_s)
        }
        Untraced::Cells(reports) => {
            let mut boots = 0.0;
            for (cell, r) in reports {
                checks.same_virtual(
                    &format!("cell {} untraced vs traced", cell.key()),
                    &VirtualOutcome::of(r),
                    &VirtualOutcome::of(&cells[cell]),
                );
                boots += boot_s[cell.stack as usize];
            }
            let traced: f64 = reports.iter().map(|(c, _)| cell_run_s[c]).sum();
            (traced, untraced_wall_s - boots)
        }
    };

    let refs = references(seeds);
    let mut lines = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    for (&cell, r) in &cells {
        let reference = refs[&cell.app];
        attempted += cell_ops(r);
        if !checks.cell(cell, r, reference, seeds) {
            failed += cell_ops(r);
        }
        lines.push(describe_cell(cell, r, reference));
    }
    checks.stacks_agree(&cells);
    let (fa, ff) = fleet_ops(&fleet);
    attempted += fa;
    failed += ff;
    lines.push(describe_fleet(&fleet));

    let data = SuiteData {
        cells,
        cell_run_s,
        fleet,
        fleet_run_s,
        fleet_serial_run_s,
        runners: fleet_runners(seeds, 0),
        probes,
        budgets,
        overhead_frac: traced_s / untraced_s - 1.0,
        attempted,
        failed,
    };
    let metrics = per_layer(&data);
    (
        Outcome {
            lines,
            checks,
            attempted,
            failed,
            metrics,
        },
        tr,
    )
}

/// Host ns of one FLIP header encode plus decode around `payload` bytes.
fn codec_ns(payload: usize) -> f64 {
    const ITERS: u32 = 100_000;
    let header = PacketHeader {
        dst: FlipAddr(1),
        src: FlipAddr(2),
        msg_id: 7,
        offset: 0,
        total_len: payload as u32,
        ptype: PacketType::Data,
        multicast: false,
    };
    let data = vec![0u8; payload];
    let samples: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..ITERS {
                let packet = black_box(&header).encode_with(black_box(&data));
                black_box(PacketHeader::decode(&packet).expect("own encoding decodes"));
            }
            t0.elapsed().as_nanos() as f64 / f64::from(ITERS)
        })
        .collect();
    median(&samples)
}

/// Host µs per operation of a Table 1 probe that runs 41 operations
/// (route warm-up plus 40 timed) in its own two-machine world, boot
/// included.
fn table1_host_us(f: impl Fn() -> desim::SimDuration) -> f64 {
    const OPS: f64 = 41.0;
    let samples: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e6 / OPS
        })
        .collect();
    median(&samples)
}

/// The unit-cost probes, each median-of-[`PROBE_REPS`].
fn run_probes(tr: &mut Tracer, backend: Backend) -> Probes {
    let mut per_event = |layer, name, f: &dyn Fn() -> bench::selfperf::HotPath| {
        tr.span(layer, name, |_| median_of(PROBE_REPS, f).ns_per_event())
            .0
    };
    let handoff_ns = per_event("desim", "bench::selfperf::pingpong", &|| {
        pingpong(backend, 100_000)
    });
    let timer_ns = per_event("desim", "bench::selfperf::sleepstorm", &|| {
        sleepstorm(backend, 200_000)
    });
    let wheel_ns = per_event("desim", "bench::selfperf::timers", &|| {
        timers(backend, 10_000, 10)
    });
    let fanout_ns = per_event("ethernet", "bench::selfperf::fanout", &|| {
        fanout(backend, 32, 2_000)
    });
    let mut codec = |payload: usize| {
        let name = format!("flip::PacketHeader::{{encode_with,decode}} [{payload}]");
        tr.span("flip", name, |_| codec_ns(payload)).0
    };
    let (codec_ns_3200, codec_ns_128) = (codec(3200), codec(128));
    let cost = CostModel::default();
    let mut rpc_host_us = [0.0; 2];
    let mut group_host_us = [0.0; 2];
    for (i, (stack, which)) in [(Stack::Kernel, Which::Kernel), (Stack::User, Which::User)]
        .into_iter()
        .enumerate()
    {
        let s = stack.name();
        rpc_host_us[i] = tr
            .span("panda", format!("bench::rpc_latency [{s}]"), |_| {
                table1_host_us(|| bench::rpc_latency(0, which, &cost))
            })
            .0;
        group_host_us[i] = tr
            .span("panda", format!("bench::group_latency [{s}]"), |_| {
                table1_host_us(|| bench::group_latency(0, which, &cost))
            })
            .0;
    }
    Probes {
        handoff_ns,
        timer_ns,
        wheel_ns,
        fanout_ns,
        codec_ns_3200,
        codec_ns_128,
        rpc_host_us,
        group_host_us,
    }
}

/// The layer a null operation's budget belongs to: Amoeba's kernel
/// protocols or Panda's user-space ones.
fn budget_crate(stack: Stack) -> &'static str {
    match stack {
        Stack::Kernel => "amoeba",
        Stack::User => "panda",
    }
}

/// Sums budget lines per layer of [`budget_layers`]; checks that those
/// layers hold every charge.
pub fn layer_budget(
    kind: &'static str,
    stack: Stack,
    lines: &[bench::BudgetLine],
    checks: &mut Checks,
) -> Budget {
    let layer_us: Vec<f64> = budget_layers(kind)
        .iter()
        .map(|&layer| {
            lines
                .iter()
                .filter(|l| l.layer == layer)
                .map(|l| l.total.as_micros_f64())
                .sum()
        })
        .collect();
    let total_us = bench::budget_total(lines).as_micros_f64();
    let summed: f64 = layer_us.iter().sum();
    checks.require((summed - total_us).abs() < 1e-6, || {
        format!(
            "budget.{kind}.{}: per-layer sums {summed} us differ from the total {total_us} us",
            stack.name()
        )
    });
    Budget {
        kind,
        stack,
        layer_us,
        total_us,
    }
}

/// The Section 4 budgets of a null RPC and a null group send, both stacks.
fn run_budgets(tr: &mut Tracer, checks: &mut Checks) -> Vec<Budget> {
    let cost = CostModel::default();
    let mut out = Vec::new();
    for (stack, which) in [(Stack::Kernel, Which::Kernel), (Stack::User, Which::User)] {
        let layer = budget_crate(stack);
        let s = stack.name();
        let lines = tr
            .span(layer, format!("bench::rpc_trace [{s}]"), |tr| {
                let run = rpc_trace(0, which, &cost, 1);
                let (from, to) = rpc_span(&run.events).expect("traced run has an RPC span");
                tr.span(layer, "bench::derive_budget", |_| {
                    derive_budget(&run.events, from, to)
                })
                .0
            })
            .0;
        out.push(layer_budget("rpc", stack, &lines, checks));
        let lines = tr
            .span(layer, format!("bench::group_trace [{s}]"), |tr| {
                let run = group_trace(0, which, &cost, 1);
                let (from, to) = group_span(&run.events).expect("traced run has a group span");
                tr.span(layer, "bench::derive_budget", |_| {
                    derive_budget(&run.events, from, to)
                })
                .0
            })
            .0;
        out.push(layer_budget("group", stack, &lines, checks));
    }
    out
}

//! The three workloads, the inputs they derive from the seed, and the
//! checks their outputs must pass.
//!
//! Each workload is one fixed-size batch of real experiments from this
//! repository: Table 3 cells at 32 nodes and paper scale (`orca_rpc`,
//! `orca_bcast`) or the 1024-machine open-loop client fleet (`fleet_1k`).
//! The seed feeds the simulation seed and every instance generator, so two
//! runs with one seed simulate the same inputs and must agree bit for bit
//! on every virtual-clock result.

use std::collections::BTreeMap;
use std::time::Instant;

use apps::fleet::{build_fleet, FleetReport, FleetSpec, FleetStack, FleetWorld};
use apps::harness::Cluster;
use apps::{build_cluster, AppReport, ProtoImpl, RunConfig};
use desim::par::par_map;
use desim::{Backend, Simulation};

/// Table 3 harness seed: the orca workloads' default `--seed`.
pub const ORCA_SEED: u64 = 0x7ab1e3;
/// The fleet's default `--seed`.
pub const FLEET_SEED: u64 = 42;
/// Nodes per Table 3 cell (the paper's largest pool).
pub const NODES: u32 = 32;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// RL and SOR on both stacks: Orca over Panda RPC, no broadcasts.
    OrcaRpc,
    /// ASP and LEQ on both stacks: Orca over totally ordered broadcast.
    OrcaBcast,
    /// The 1024-machine open-loop client fleet on the kernel stack.
    Fleet1k,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::OrcaRpc, Workload::OrcaBcast, Workload::Fleet1k];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OrcaRpc => "orca_rpc",
            Workload::OrcaBcast => "orca_bcast",
            Workload::Fleet1k => "fleet_1k",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The Table 3 cells this workload runs (none for the fleet).
    pub fn cells(self) -> &'static [Cell] {
        const RPC: [Cell; 4] = [
            Cell::new(App::Rl, Stack::Kernel),
            Cell::new(App::Rl, Stack::User),
            Cell::new(App::Sor, Stack::Kernel),
            Cell::new(App::Sor, Stack::User),
        ];
        const BCAST: [Cell; 4] = [
            Cell::new(App::Asp, Stack::Kernel),
            Cell::new(App::Asp, Stack::User),
            Cell::new(App::Leq, Stack::Kernel),
            Cell::new(App::Leq, Stack::User),
        ];
        match self {
            Workload::OrcaRpc => &RPC,
            Workload::OrcaBcast => &BCAST,
            Workload::Fleet1k => &[],
        }
    }
}

/// A Table 3 application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum App {
    /// Region labeling (guarded buffer exchange over RPC).
    Rl,
    /// Successive overrelaxation (guarded buffer exchange over RPC).
    Sor,
    /// All-pairs shortest paths (one pivot-row broadcast per iteration).
    Asp,
    /// Linear equation solver (one broadcast per node per iteration).
    Leq,
}

impl App {
    /// Lower-case name, as in metric names.
    pub fn name(self) -> &'static str {
        match self {
            App::Rl => "rl",
            App::Sor => "sor",
            App::Asp => "asp",
            App::Leq => "leq",
        }
    }
}

/// A protocol stack. Its discriminant indexes per-stack arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stack {
    /// Amoeba's kernel-space protocols.
    Kernel,
    /// Panda's user-space protocols.
    User,
}

impl Stack {
    /// Lower-case name, as in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Stack::Kernel => "kernel",
            Stack::User => "user",
        }
    }

    fn imp(self) -> ProtoImpl {
        match self {
            Stack::Kernel => ProtoImpl::KernelSpace,
            Stack::User => ProtoImpl::UserSpace,
        }
    }
}

/// One Table 3 cell: an application on a stack at [`NODES`] nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cell {
    /// The application.
    pub app: App,
    /// The stack it runs on.
    pub stack: Stack,
}

impl Cell {
    /// A cell.
    pub const fn new(app: App, stack: Stack) -> Cell {
        Cell { app, stack }
    }

    /// `<app>.<stack>`, as in metric names.
    pub fn key(self) -> String {
        format!("{}.{}", self.app.name(), self.stack.name())
    }
}

/// Every Table 3 cell the benchmark knows, in metric order.
pub fn all_cells() -> Vec<Cell> {
    Workload::ALL
        .iter()
        .flat_map(|w| w.cells().iter().copied())
        .collect()
}

/// The seeds one run derives its inputs from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// Simulation seed of every Table 3 cell.
    pub orca: u64,
    /// The fleet's seed (client think times and the simulation).
    pub fleet: u64,
}

impl Seeds {
    /// The seeds for `--seed` (both workload families take it) or, without
    /// one, the repository's defaults: the Table 3 harness seed and the
    /// fleet seed.
    pub fn from_arg(seed: Option<u64>) -> Seeds {
        Seeds {
            orca: seed.unwrap_or(ORCA_SEED),
            fleet: seed.unwrap_or(FLEET_SEED),
        }
    }

    /// An application's instance seed: the paper instance at the default
    /// seed, a different instance for every other seed.
    fn instance(self, paper: u64) -> u64 {
        paper ^ self.orca ^ ORCA_SEED
    }

    /// RL at paper scale on this seed's image.
    pub fn rl(self) -> apps::rl::RlParams {
        let mut p = apps::rl::RlParams::paper();
        p.instance_seed = self.instance(p.instance_seed);
        p
    }

    /// SOR at paper scale (its grid has no random part).
    pub fn sor(self) -> apps::sor::SorParams {
        apps::sor::SorParams::paper()
    }

    /// ASP at paper scale on this seed's graph.
    pub fn asp(self) -> apps::asp::AspParams {
        let mut p = apps::asp::AspParams::paper();
        p.instance_seed = self.instance(p.instance_seed);
        p
    }

    /// LEQ at paper scale on this seed's system.
    pub fn leq(self) -> apps::leq::LeqParams {
        let mut p = apps::leq::LeqParams::paper();
        p.instance_seed = self.instance(p.instance_seed);
        p
    }

    /// The cluster configuration of a cell on `stack`.
    pub fn run_config(self, stack: Stack) -> RunConfig {
        RunConfig::new(NODES, stack.imp(), self.orca)
    }

    /// The `fleet_1k` world: 16 kernel-stack servers and 1008 Poisson
    /// clients (80 ms mean think time, 128-byte requests, 256-byte
    /// replies) on 8 scheduler lanes behind a switch tree, a group
    /// broadcast every 64th request, over 4 s of virtual time. The load
    /// sits below the knee, so latency does not grow with the horizon.
    pub fn fleet_spec(self) -> FleetSpec {
        let mut spec = FleetSpec::new(1024, 16, FleetStack::Kernel);
        spec.lanes = 8;
        spec.group_every = 64;
        spec.duration = desim::secs(4);
        spec.mean_think = desim::ms(80);
        spec.seed = self.fleet;
        spec
    }
}

/// Runs one cell end to end (boot, run, teardown) on the default backend.
pub fn run_cell(cell: Cell, seeds: Seeds) -> AppReport {
    let cfg = seeds.run_config(cell.stack);
    match cell.app {
        App::Rl => apps::rl::run(&cfg, &seeds.rl()),
        App::Sor => apps::sor::run(&cfg, &seeds.sor()),
        App::Asp => apps::asp::run(&cfg, &seeds.asp()),
        App::Leq => apps::leq::run(&cfg, &seeds.leq()),
    }
}

/// Boots the cluster a cell on `stack` runs on, without running anything.
pub fn boot_cell(stack: Stack, seeds: Seeds) -> Cluster {
    build_cluster(&seeds.run_config(stack))
}

/// Boots the fleet with `shards` runner threads (`0` = one per core).
pub fn boot_fleet(seeds: Seeds, shards: usize) -> FleetWorld {
    build_fleet(&seeds.fleet_spec(), Backend::default_backend(), shards)
}

/// The runner count the fleet resolves `shards` to on this host.
pub fn fleet_runners(seeds: Seeds, shards: usize) -> usize {
    let mut probe = Simulation::builder().shards(shards).build();
    for _ in 1..seeds.fleet_spec().lanes {
        probe.add_lane();
    }
    probe.shards()
}

/// The host-side answer each application must reproduce.
pub fn reference(app: App, seeds: Seeds) -> i64 {
    match app {
        App::Rl => apps::rl::solve_sequential(&seeds.rl()),
        App::Sor => apps::sor::solve_sequential(&seeds.sor()),
        App::Asp => {
            let p = seeds.asp();
            apps::asp::solve_sequential(&apps::asp::generate_graph(p.instance_seed, p.vertices))
        }
        App::Leq => apps::leq::solve_sequential(&seeds.leq()),
    }
}

/// Every application's host reference, computed on all cores.
pub fn references(seeds: Seeds) -> BTreeMap<App, i64> {
    const APPS: [App; 4] = [App::Leq, App::Asp, App::Rl, App::Sor];
    let sums = par_map(0, APPS.len(), |i| reference(APPS[i], seeds));
    APPS.into_iter().zip(sums).collect()
}

/// Runs `cells` untimed on all cores, in reverse [`all_cells`] order so
/// that the LEQ cells, the longest, start first.
pub fn run_cells_untimed(cells: &[Cell], seeds: Seeds) -> Vec<(Cell, AppReport)> {
    let mut order = cells.to_vec();
    order.sort_by_key(|c| std::cmp::Reverse(*c));
    let reports = par_map(0, order.len(), |i| run_cell(order[i], seeds));
    order.into_iter().zip(reports).collect()
}

/// Everything a cell computes on the virtual clock. Two runs of one cell
/// at one seed must produce equal outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualOutcome {
    elapsed_ns: u64,
    checksum: i64,
    rts: orca::RtsStats,
    frames: u64,
    wire_bytes: u64,
}

impl VirtualOutcome {
    /// The virtual-clock part of a cell's report.
    pub fn of(r: &AppReport) -> VirtualOutcome {
        VirtualOutcome {
            elapsed_ns: r.elapsed.as_nanos(),
            checksum: r.checksum,
            rts: r.rts.clone(),
            frames: r.frames,
            wire_bytes: r.wire_bytes,
        }
    }
}

/// The output checks of one run. A failed check makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records a failure unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failed checks, one line each.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Checks one cell's output against the host reference, and ASP's
    /// broadcast count against one broadcast per pivot row. Returns whether
    /// the cell passed.
    pub fn cell(&mut self, cell: Cell, report: &AppReport, reference: i64, seeds: Seeds) -> bool {
        let before = self.failures.len();
        let key = cell.key();
        self.require(report.checksum == reference, || {
            format!(
                "{key}: checksum {} differs from the host reference {reference}",
                report.checksum
            )
        });
        if cell.app == App::Asp {
            let rows = seeds.asp().vertices as u64;
            self.require(report.rts.broadcasts == rows, || {
                format!(
                    "{key}: {} broadcasts, expected one per pivot row ({rows})",
                    report.rts.broadcasts
                )
            });
        }
        self.failures.len() == before
    }

    /// Both stacks must compute the same answer for one application.
    pub fn stacks_agree(&mut self, reports: &BTreeMap<Cell, AppReport>) {
        for (cell, r) in reports {
            if cell.stack != Stack::Kernel {
                continue;
            }
            if let Some(u) = reports.get(&Cell::new(cell.app, Stack::User)) {
                self.require(r.checksum == u.checksum, || {
                    format!(
                        "{}: kernel checksum {} differs from user checksum {}",
                        cell.app.name(),
                        r.checksum,
                        u.checksum
                    )
                });
            }
        }
    }

    /// A repeated run must reproduce every virtual-clock result: a
    /// difference is a determinism failure, not noise.
    pub fn same_virtual(&mut self, what: &str, first: &VirtualOutcome, again: &VirtualOutcome) {
        self.require(first == again, || {
            format!("determinism failure: {what} changed between runs ({first:?} vs {again:?})")
        });
    }

    /// Two fleet runs of one spec must be bit-identical, whatever the
    /// runner count.
    pub fn same_fleet(&mut self, what: &str, first: &FleetReport, again: &FleetReport) {
        self.require(first.result_hash() == again.result_hash(), || {
            format!(
                "determinism failure: {what}: fleet hash {:016x} vs {:016x}",
                first.result_hash(),
                again.result_hash()
            )
        });
    }
}

/// Operations a cell attempted (RPCs plus broadcasts).
pub fn cell_ops(r: &AppReport) -> u64 {
    r.rts.rpcs + r.rts.broadcasts
}

/// `(attempted, failed)` of a fleet run: RPCs plus group sends attempted;
/// RPC and group timeouts failed.
pub fn fleet_ops(r: &FleetReport) -> (u64, u64) {
    let failed = r.timeouts + r.group_timeouts;
    (r.ops + r.group_sends + failed, failed)
}

/// Median host seconds of `reps` boots of the cluster on `stack`.
pub fn median_boot_s(stack: Stack, seeds: Seeds, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let cluster = boot_cell(stack, seeds);
            let s = t0.elapsed().as_secs_f64();
            drop(cluster);
            s
        })
        .collect();
    crate::metrics::median(&samples)
}

/// One cell's result line.
pub fn describe_cell(cell: Cell, r: &AppReport, reference: i64) -> String {
    format!(
        "cell {} checksum {} reference {} virt_s {} rpcs {} broadcasts {} frames {}",
        cell.key(),
        r.checksum,
        reference,
        r.elapsed.as_secs_f64(),
        r.rts.rpcs,
        r.rts.broadcasts,
        r.frames
    )
}

/// The fleet's result line.
pub fn describe_fleet(r: &FleetReport) -> String {
    format!("fleet_1k {}", r.summary())
}

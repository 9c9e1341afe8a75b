//! The timed run (`--trace 0`): the end-to-end metrics of one workload.
//!
//! The workload's batch is repeated until `--seconds` have passed, and at
//! least [`MIN_BATCHES`] times so that every run also checks that the
//! virtual clock repeats. Host metrics are medians over the batches. Every
//! run prints every end-to-end metric of `BENCHMARK.json`, so after the
//! timed part the run computes the other workloads' virtual-clock results
//! once, untimed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use apps::fleet::FleetReport;
use apps::AppReport;

use crate::host;
use crate::metrics::{median, Metrics, END_TO_END, S, VIRT_MS, VIRT_S};
use crate::workloads::{
    all_cells, boot_fleet, cell_ops, describe_cell, describe_fleet, fleet_ops, median_boot_s,
    references, run_cell, run_cells_untimed, Cell, Checks, Seeds, Stack, VirtualOutcome, Workload,
};
use crate::Outcome;

/// Boots timed per stack (orca) or before the batches (fleet) for
/// `setup_s`.
pub const BOOT_REPS: usize = 25;
/// Timed batches per run, at least.
pub const MIN_BATCHES: usize = 3;

/// What the timed part of a run measured.
#[derive(Debug, Default)]
struct Timed {
    run_s: Vec<f64>,
    setup_s: f64,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
}

impl Timed {
    /// Reads peak memory once, after the first batch: later batches only
    /// add allocator churn, and how many of them fit in `--seconds`
    /// depends on the host's speed at the time.
    fn read_peak_rss(&mut self) {
        if self.run_s.len() == 1 {
            self.peak_rss_mb = host::peak_rss_mb();
        }
    }
}

/// Runs `workload` for `seconds` and returns its end-to-end metrics.
pub fn run(workload: Workload, seeds: Seeds, seconds: f64) -> Outcome {
    let mut checks = Checks::default();
    let mut cells: BTreeMap<Cell, AppReport> = BTreeMap::new();
    let mut fleet: Option<FleetReport> = None;
    let budget = Duration::from_secs_f64(seconds);

    let timed = match workload {
        Workload::Fleet1k => {
            let (timed, report) = time_fleet(seeds, budget, &mut checks);
            fleet = Some(report);
            timed
        }
        _ => time_orca(workload, seeds, budget, &mut checks, &mut cells),
    };

    // Untimed: the virtual-clock results of every other workload.
    for other in Workload::ALL.into_iter().filter(|&w| w != workload) {
        match other {
            Workload::Fleet1k => fleet = Some(boot_fleet(seeds, 0).run()),
            _ => cells.extend(run_cells_untimed(other.cells(), seeds)),
        }
    }
    let fleet = fleet.expect("every run computes the fleet");

    let refs = references(seeds);
    let mut lines = Vec::new();
    let mut failed = timed.failed;
    for (&cell, r) in &cells {
        let reference = refs[&cell.app];
        if !checks.cell(cell, r, reference, seeds) && workload.cells().contains(&cell) {
            failed += cell_ops(r);
        }
        lines.push(describe_cell(cell, r, reference));
    }
    checks.stacks_agree(&cells);
    lines.push(describe_fleet(&fleet));
    lines.push(format!(
        "timed {} batches of {}: run_s {:?}",
        timed.run_s.len(),
        workload.name(),
        timed.run_s
    ));

    let metrics = end_to_end(
        median(&timed.run_s),
        timed.setup_s,
        timed.peak_rss_mb,
        &cells,
        &fleet,
    );
    Outcome {
        lines,
        checks,
        attempted: timed.attempted,
        failed,
        metrics,
    }
}

/// Times the fleet: boot-and-run batches, then more boots until
/// [`BOOT_REPS`] have been timed.
fn time_fleet(seeds: Seeds, budget: Duration, checks: &mut Checks) -> (Timed, FleetReport) {
    let mut boots = Vec::new();
    let mut timed = Timed::default();
    let mut first: Option<FleetReport> = None;
    let start = Instant::now();
    while timed.run_s.len() < MIN_BATCHES || start.elapsed() < budget {
        let t0 = Instant::now();
        let world = boot_fleet(seeds, 0);
        boots.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let report = world.run();
        timed.run_s.push(t1.elapsed().as_secs_f64());
        timed.read_peak_rss();
        match &first {
            None => first = Some(report),
            Some(f) => checks.same_fleet("fleet_1k batch", f, &report),
        }
    }
    while boots.len() < BOOT_REPS {
        let t0 = Instant::now();
        let world = boot_fleet(seeds, 0);
        boots.push(t0.elapsed().as_secs_f64());
        drop(world);
    }
    timed.setup_s = median(&boots);
    let report = first.expect("at least one batch");
    (timed.attempted, timed.failed) = fleet_ops(&report);
    (timed, report)
}

/// Times an orca workload's cells, batch after batch. Fills `cells` with
/// the first batch's reports.
fn time_orca(
    workload: Workload,
    seeds: Seeds,
    budget: Duration,
    checks: &mut Checks,
    cells: &mut BTreeMap<Cell, AppReport>,
) -> Timed {
    let boot_s = |stack: Stack| median_boot_s(stack, seeds, BOOT_REPS);
    let boots = [boot_s(Stack::Kernel), boot_s(Stack::User)];
    let boot_of = |stack: Stack| boots[stack as usize];
    let mut timed = Timed {
        setup_s: workload.cells().iter().map(|c| boot_of(c.stack)).sum(),
        ..Timed::default()
    };
    let start = Instant::now();
    while timed.run_s.len() < MIN_BATCHES || start.elapsed() < budget {
        let mut batch_s = 0.0;
        for &cell in workload.cells() {
            // The app's `run` boots inside the timed call.
            let t0 = Instant::now();
            let report = run_cell(cell, seeds);
            batch_s += t0.elapsed().as_secs_f64() - boot_of(cell.stack);
            match cells.get(&cell) {
                None => {
                    cells.insert(cell, report);
                }
                Some(first) => checks.same_virtual(
                    &format!("cell {}", cell.key()),
                    &VirtualOutcome::of(first),
                    &VirtualOutcome::of(&report),
                ),
            }
        }
        timed.run_s.push(batch_s);
        timed.read_peak_rss();
    }
    for &cell in workload.cells() {
        timed.attempted += cell_ops(&cells[&cell]);
    }
    timed
}

/// The end-to-end metrics, in [`END_TO_END`] order.
///
/// # Panics
///
/// Panics if a Table 3 cell is missing from `cells`.
pub fn end_to_end(
    run_s: f64,
    setup_s: f64,
    peak_rss_mb: f64,
    cells: &BTreeMap<Cell, AppReport>,
    fleet: &FleetReport,
) -> Metrics {
    let ms = |d: desim::SimDuration| d.as_nanos() as f64 / 1e6;
    let mut m = Metrics::default();
    m.push("run_s", S, run_s);
    m.push("setup_s", S, setup_s);
    m.push("peak_rss_mb", END_TO_END[2].1, peak_rss_mb);
    for cell in all_cells() {
        let r = &cells[&cell];
        m.push(
            format!("virt_s.{}", cell.key()),
            VIRT_S,
            r.elapsed.as_secs_f64(),
        );
    }
    m.push("virt_p50_ms", VIRT_MS, ms(fleet.p50()));
    m.push("virt_p99_ms", VIRT_MS, ms(fleet.p99()));
    m.push("virt_p999_ms", VIRT_MS, ms(fleet.p999()));
    m
}

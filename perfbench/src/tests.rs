//! Tests of the benchmark's own code: metric names, agreement with
//! `BENCHMARK.json`, the budget split, and the output checks.

use std::collections::BTreeMap;

use amoeba::CostModel;
use apps::fleet::{FleetReport, LatencyHistogram};
use apps::{AppReport, ProtoImpl};
use bench::{budget_total, derive_budget, group_span, group_trace, rpc_span, rpc_trace, Which};
use desim::SimDuration;

use crate::metrics::{result_line, valid_name, Metrics, END_TO_END};
use crate::timed::end_to_end;
use crate::traced::{budget_layers, layer_budget, per_layer, Budget, Probes, SuiteData};
use crate::workloads::{all_cells, App, Cell, Checks, Seeds, Stack, Workload};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every object in the `key` array of BENCHMARK.json
/// (`unit` empty where the objects have none).
fn listed(key: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |obj: &str, f: &str| {
        obj.find(&format!("\"{f}\": \""))
            .map(|i| {
                let rest = &obj[i + f.len() + 5..];
                rest[..rest.find('"').expect("string closes")].to_string()
            })
            .unwrap_or_default()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn report(app: &'static str, checksum: i64) -> AppReport {
    AppReport {
        app,
        implementation: ProtoImpl::KernelSpace,
        nodes: 32,
        elapsed: SimDuration::from_millis(1500),
        checksum,
        rts: orca::RtsStats {
            local_ops: 3,
            rpcs: 5,
            broadcasts: 768,
            continuations_queued: 2,
            continuations_resumed: 2,
        },
        frames: 100,
        wire_bytes: 10_000,
    }
}

fn fleet() -> FleetReport {
    let mut hist = LatencyHistogram::default();
    hist.record(SimDuration::from_micros(2300));
    FleetReport {
        ops: 10,
        timeouts: 0,
        group_sends: 1,
        group_timeouts: 0,
        hist,
        elapsed: SimDuration::from_secs(4),
        frames: 40,
        wire_bytes: 4000,
        sim_events: 1000,
        window_stats: desim::WindowStats {
            windows: 10,
            events: 1000,
            ..Default::default()
        },
        queue_stats: desim::QueueStats::default(),
    }
}

fn cells() -> BTreeMap<Cell, AppReport> {
    all_cells()
        .into_iter()
        .map(|c| (c, report(c.app.name(), 7)))
        .collect()
}

fn suite() -> SuiteData {
    let budgets = [Stack::Kernel, Stack::User]
        .into_iter()
        .flat_map(|stack| {
            ["rpc", "group"].map(|kind| Budget {
                kind,
                stack,
                layer_us: vec![1.0; 4],
                total_us: 4.0,
            })
        })
        .collect();
    SuiteData {
        cells: cells(),
        cell_run_s: all_cells().into_iter().map(|c| (c, 1.0)).collect(),
        fleet: fleet(),
        fleet_run_s: 3.0,
        fleet_serial_run_s: 3.3,
        runners: 2,
        probes: Probes::default(),
        budgets,
        overhead_frac: 0.01,
        attempted: 10,
        failed: 0,
    }
}

fn names_units(m: &Metrics) -> Vec<(String, String)> {
    m.0.iter()
        .map(|x| (x.name.clone(), x.unit.to_string()))
        .collect()
}

#[test]
fn every_metric_name_obeys_the_grammar_and_is_unique() {
    let e2e = end_to_end(1.0, 0.1, 50.0, &cells(), &fleet());
    let layer = per_layer(&suite());
    let mut seen = std::collections::BTreeSet::new();
    for m in e2e.0.iter().chain(&layer.0) {
        assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
        assert!(seen.insert(m.name.clone()), "metric {} twice", m.name);
        assert!(
            !m.unit.is_empty() && m.unit.len() <= 16,
            "unit of {}",
            m.name
        );
    }
    assert!(!valid_name("a b") && !valid_name(".x") && !valid_name(""));
}

#[test]
fn benchmark_json_lists_what_the_code_prints() {
    let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, names);

    let e2e = end_to_end(1.0, 0.1, 50.0, &cells(), &fleet());
    assert_eq!(listed("end_to_end"), names_units(&e2e));
    let expected: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names_units(&e2e), expected);

    assert_eq!(listed("per_layer"), names_units(&per_layer(&suite())));
}

#[test]
fn result_line_has_exactly_four_keys() {
    let mut m = Metrics::default();
    m.push("run_s", "s", 1.25);
    let line = result_line(true, 3, 0, &m);
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
         {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
    );
}

#[test]
fn per_layer_budget_sums_equal_budget_total() {
    let cost = CostModel::default();
    for (stack, which) in [(Stack::Kernel, Which::Kernel), (Stack::User, Which::User)] {
        let run = rpc_trace(0, which, &cost, 1);
        let (from, to) = rpc_span(&run.events).expect("rpc span");
        let rpc = derive_budget(&run.events, from, to);
        let run = group_trace(0, which, &cost, 1);
        let (from, to) = group_span(&run.events).expect("group span");
        let group = derive_budget(&run.events, from, to);
        for (kind, lines) in [("rpc", rpc), ("group", group)] {
            let mut checks = Checks::default();
            let b = layer_budget(kind, stack, &lines, &mut checks);
            assert!(checks.passed(), "{:?}", checks.failures());
            let summed: f64 = b.layer_us.iter().sum();
            let total = budget_total(&lines).as_micros_f64();
            assert!((summed - total).abs() < 1e-6, "{kind} {stack:?}");
            assert!(total > 0.0);
            assert_eq!(b.layer_us.len(), budget_layers(kind).len());
        }
    }
}

#[test]
fn budget_charges_outside_the_reported_layers_fail_the_check() {
    let line = |layer| bench::BudgetLine {
        layer,
        name: "planted",
        count: 1,
        total: SimDuration::from_micros(5),
    };
    let lines = [line(desim::Layer::Net), line(desim::Layer::Orca)];
    let mut checks = Checks::default();
    layer_budget("rpc", Stack::Kernel, &lines, &mut checks);
    assert!(!checks.passed());
}

#[test]
fn output_checks_reject_a_planted_wrong_checksum() {
    let seeds = Seeds::from_arg(None);
    let cell = Cell::new(App::Asp, Stack::User);
    let mut checks = Checks::default();
    assert!(checks.cell(cell, &report("asp", 41), 41, seeds));
    assert!(checks.passed());
    assert!(!checks.cell(cell, &report("asp", 40), 41, seeds));
    assert!(!checks.passed());
}

#[test]
fn output_checks_reject_a_wrong_broadcast_count_and_disagreeing_stacks() {
    let seeds = Seeds::from_arg(None);
    let mut short = report("asp", 41);
    short.rts.broadcasts = 767;
    let mut checks = Checks::default();
    assert!(!checks.cell(Cell::new(App::Asp, Stack::Kernel), &short, 41, seeds));

    let mut reports = cells();
    reports
        .get_mut(&Cell::new(App::Rl, Stack::User))
        .unwrap()
        .checksum = 8;
    let mut checks = Checks::default();
    checks.stacks_agree(&reports);
    assert_eq!(checks.failures().len(), 1);
}

#[test]
fn default_seed_is_the_paper_instance() {
    let seeds = Seeds::from_arg(None);
    assert_eq!(seeds.orca, 0x7ab1e3);
    assert_eq!(seeds.fleet, 42);
    assert_eq!(
        seeds.asp().instance_seed,
        apps::asp::AspParams::paper().instance_seed
    );
    let other = Seeds::from_arg(Some(5));
    assert_ne!(
        other.rl().instance_seed,
        apps::rl::RlParams::paper().instance_seed
    );
    assert_eq!(other.fleet_spec().seed, 5);
}

//! Smoke tests: every figure runner executes on a reduced configuration
//! and produces structurally complete, printable results.

use vpc::experiments::{
    ablations, fig10, fig4, fig5, fig6, fig7, fig8, fig9, run_cells, Cell, RunBudget,
};
use vpc::json::to_json;
use vpc::prelude::*;

fn small_base() -> CmpConfig {
    let mut cfg = CmpConfig::table1();
    cfg.l2.total_sets = 1024;
    cfg
}

const TINY: RunBudget = RunBudget { warmup: 6_000, window: 20_000 };

/// Worker threads of every batch here.
const JOBS: usize = 4;

#[test]
fn fig4_smoke() {
    let r = fig4::run(&small_base());
    assert!(r.first_latency >= 10 && r.first_latency <= 30);
    assert!(r.to_string().contains("critical word"));
}

#[test]
fn fig5_smoke() {
    let r = fig5::plan(&small_base(), TINY).run(JOBS);
    assert_eq!(r.rows.len(), 8, "2 benchmarks x 4 bank counts");
    for row in &r.rows {
        assert!(row.util.data_array >= 0.0 && row.util.data_array <= 1.0);
    }
    assert!(r.to_string().contains("Loads 2B"));
}

#[test]
fn fig6_and_fig7_smoke_subset() {
    // The full 18-benchmark series runs in the bench binary; here a
    // 3-benchmark subset checks the machinery.
    let benchmarks = ["art", "swim", "sixtrack"];
    let cells = benchmarks
        .map(|b| (b.to_string(), Cell::shared(small_base(), vec![WorkloadSpec::Spec(b)], TINY)));
    for (b, m) in
        benchmarks.iter().zip(run_cells(&cells, JOBS, |cell| cell.run(Observe::default()).m))
    {
        assert!(m.ipc[0] > 0.0, "{b} must make progress");
        assert!(m.util.data_array > 0.0, "{b} must touch the L2");
    }
}

#[test]
fn fig8_smoke() {
    let r = fig8::plan(&small_base(), TINY).run(JOBS);
    assert_eq!(r.rows.len(), 7, "RoW + FCFS + 5 VPC points");
    let row = r.row("RoW").expect("RoW row present");
    // With the tiny warm-up the load stream still has miss gaps that let a
    // few stores through; the steady-state starvation check lives in
    // tests/qos_end_to_end.rs.
    assert!(row.stores_ipc < row.loads_ipc * 0.3, "RoW heavily favors loads: {row:?}");
    let vpc100 = r.row("VPC 100%").expect("VPC 100% row");
    let vpc0 = r.row("VPC 0%").expect("VPC 0% row");
    assert!(
        vpc100.loads_ipc < vpc0.loads_ipc * 0.5,
        "zero-share Loads lives on scraps: {vpc100:?} vs {vpc0:?}"
    );
    assert!(vpc100.stores_ipc > vpc0.stores_ipc, "Stores gains with its share");
    assert!(r.to_string().contains("VPC 50%"));
}

#[test]
fn fig9_smoke_one_subject() {
    let r = fig9::plan(&small_base(), &["gcc"], TINY).run(JOBS);
    assert_eq!(r.rows.len(), 1);
    let row = &r.rows[0];
    assert!(row.vpc100_norm > 0.8, "full share approaches standalone: {row:?}");
    assert!(r.to_string().contains("gcc"));
}

#[test]
fn fig10_smoke_one_mix() {
    let r = fig10::plan(&small_base(), &[["gcc", "gzip", "twolf", "ammp"]], TINY).run(JOBS);
    assert_eq!(r.mixes.len(), 1);
    assert!(r.vpc_qos_met(0.10) > 0.7, "most threads meet targets: {r:?}");
    assert!(r.to_string().contains("hmean"));
}

#[test]
fn ablation_displays_are_complete() {
    let base = small_base();
    let wc = ablations::work_conservation(&base, TINY).run(JOBS);
    assert!(wc.to_string().contains("work conservation"));
    let re = ablations::reorder(&base, TINY).run(JOBS);
    assert!(re.to_string().contains("reordering"));
    let pre = ablations::preemption(&base, TINY).run(JOBS);
    assert_eq!(pre.points.len(), 3);
    assert!(pre.to_string().contains("preemption"));
}

#[test]
fn empty_figures_render_without_nan() {
    // JSON writes a non-finite float as null, so the JSON must hold none.
    let fig6 = fig6::Fig6Result { rows: vec![] };
    let fig7 = fig7::Fig7Result { rows: vec![] };
    let fig10 = fig10::plan(&small_base(), &[], TINY).run(JOBS);
    for (name, text, json) in [
        ("fig6", fig6.to_string(), to_json(&fig6)),
        ("fig7", fig7.to_string(), to_json(&fig7)),
        ("fig10", fig10.to_string(), to_json(&fig10)),
    ] {
        assert!(!text.contains("NaN"), "empty {name} prints a NaN:\n{text}");
        assert!(!json.contains("null"), "empty {name} serializes a non-finite value:\n{json}");
    }
}

//! The headline guarantee of the parallel experiment engine: running a
//! figure grid with `--jobs 4` produces output *byte-identical* to
//! `--jobs 1`. Each figure's plan here, at the quick budget, is run at
//! both worker counts and its result rendered as JSON.

use vpc::experiments::{fig10, fig5, fig6, fig7, fig8, fig9, Plan, RunBudget};
use vpc::json::{to_json, ToJson};
use vpc::prelude::*;
use vpc_workloads::SPEC_NAMES;

const QUICK: RunBudget = RunBudget::quick();

/// Runs the plan `plan()` builds once at 1 worker and once at 4,
/// returning both results as JSON.
fn render_at_1_and_4<R: ToJson + 'static>(plan: impl Fn() -> Plan<R>) -> (String, String) {
    let at = |jobs| to_json(&plan().run(jobs));
    (at(1), at(4))
}

fn small_base() -> CmpConfig {
    let mut cfg = CmpConfig::table1();
    cfg.l2.total_sets = 1024;
    cfg
}

#[test]
fn fig5_is_serial_equivalent() {
    let base = small_base();
    let (serial, parallel) = render_at_1_and_4(|| fig5::plan(&base, QUICK));
    assert_eq!(serial, parallel, "fig5 output depends on the worker count");
}

#[test]
fn fig6_is_serial_equivalent() {
    let base = small_base();
    let (serial, parallel) = render_at_1_and_4(|| fig6::plan(&base, QUICK));
    assert_eq!(serial, parallel, "fig6 output depends on the worker count");
}

#[test]
fn fig7_is_serial_equivalent() {
    let base = small_base();
    let (serial, parallel) = render_at_1_and_4(|| fig7::plan(&base, &SPEC_NAMES, QUICK));
    assert_eq!(serial, parallel, "fig7 output depends on the worker count");
}

#[test]
fn fig8_is_serial_equivalent() {
    let base = {
        let mut cfg = CmpConfig::table1_with_threads(2);
        cfg.l2.total_sets = 1024;
        cfg
    };
    let (serial, parallel) = render_at_1_and_4(|| fig8::plan(&base, QUICK));
    assert_eq!(serial, parallel, "fig8 output depends on the worker count");
}

#[test]
fn fig9_is_serial_equivalent() {
    // Two benchmarks (14 simulations) keep the debug-mode runtime sane;
    // the full 18-benchmark grid goes through the same code path.
    let base = small_base();
    let (serial, parallel) = render_at_1_and_4(|| fig9::plan(&base, &["gcc", "art"], QUICK));
    assert_eq!(serial, parallel, "fig9 output depends on the worker count");
}

#[test]
fn fig10_is_serial_equivalent() {
    let base = small_base();
    let mixes = [["gcc", "gzip", "twolf", "ammp"]];
    let (serial, parallel) = render_at_1_and_4(|| fig10::plan(&base, &mixes, QUICK));
    assert_eq!(serial, parallel, "fig10 output depends on the worker count");
}

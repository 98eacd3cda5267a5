//! The headline guarantee of the parallel experiment engine: running a
//! figure grid with `--jobs 4` produces output *byte-identical* to
//! `--jobs 1`. Each runner here renders its result as JSON under both
//! worker counts and compares the strings.

use vpc::experiments::{fig10, fig5, fig6, fig7, fig8, fig9, RunBudget, RunOptions};
use vpc::json::to_json;
use vpc::prelude::*;
/// Renders `render(opts)` once at 1 worker and once at 4, both at the
/// quick budget, returning both strings.
fn render_at_1_and_4(render: impl Fn(RunOptions) -> String) -> (String, String) {
    let at = |jobs| render(RunOptions { budget: RunBudget::quick(), jobs });
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
    let (serial, parallel) = render_at_1_and_4(|opts| to_json(&fig5::run(&base, opts)));
    assert_eq!(serial, parallel, "fig5 output depends on the worker count");
}

#[test]
fn fig6_is_serial_equivalent() {
    let base = small_base();
    let (serial, parallel) = render_at_1_and_4(|opts| to_json(&fig6::run(&base, opts)));
    assert_eq!(serial, parallel, "fig6 output depends on the worker count");
}

#[test]
fn fig7_is_serial_equivalent() {
    let base = small_base();
    let (serial, parallel) = render_at_1_and_4(|opts| to_json(&fig7::run(&base, opts)));
    assert_eq!(serial, parallel, "fig7 output depends on the worker count");
}

#[test]
fn fig8_is_serial_equivalent() {
    let base = {
        let mut cfg = CmpConfig::table1_with_threads(2);
        cfg.l2.total_sets = 1024;
        cfg
    };
    let (serial, parallel) = render_at_1_and_4(|opts| to_json(&fig8::run(&base, opts)));
    assert_eq!(serial, parallel, "fig8 output depends on the worker count");
}

#[test]
fn fig9_is_serial_equivalent() {
    // Two benchmarks (14 simulations) keep the debug-mode runtime sane;
    // the full 18-benchmark grid goes through the same code path.
    let base = small_base();
    let (serial, parallel) =
        render_at_1_and_4(|opts| to_json(&fig9::run(&base, &["gcc", "art"], opts)));
    assert_eq!(serial, parallel, "fig9 output depends on the worker count");
}

#[test]
fn fig10_is_serial_equivalent() {
    let base = small_base();
    let (serial, parallel) = render_at_1_and_4(|opts| {
        let mixes = [["gcc", "gzip", "twolf", "ammp"]];
        to_json(&fig10::run(&base, &mixes, opts))
    });
    assert_eq!(serial, parallel, "fig10 output depends on the worker count");
}

//! Golden tests: every figure series and the ablations at
//! `RunBudget::quick()`, diffed byte-for-byte against the checked-in
//! `results/quick/*` files.
//!
//! Each test regenerates exactly what the corresponding binary prints
//! with `--quick --json` (same config, same full benchmark grid; the
//! ablations golden is the `--quick` text without its two header lines), so a
//! behavioral change anywhere in the simulator surfaces as a golden
//! diff. After an *intended* change, refresh the files with:
//!
//! ```sh
//! VPC_UPDATE_GOLDENS=1 cargo test --test golden_quick
//! ```

use std::path::PathBuf;

use vpc::experiments::{ablations, fig10, fig5, fig6, fig7, fig8, fig9, RunBudget, RunOptions};
use vpc::prelude::*;
use vpc::report::{
    to_json, Fig10Report, Fig5Report, Fig6Report, Fig7Report, Fig8Report, Fig9Report,
};
use vpc_workloads::SPEC_NAMES;

/// The quick budget on four workers (the output is the same at any count).
const QUICK: RunOptions = RunOptions { budget: RunBudget::quick(), jobs: 4 };

/// Environment variable that switches the tests into updater mode.
const UPDATE_ENV: &str = "VPC_UPDATE_GOLDENS";

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/quick").join(name)
}

/// Compares `rendered` (plus the trailing newline `println!` adds) to
/// the golden file, or rewrites the file when `VPC_UPDATE_GOLDENS=1`.
fn check_golden(name: &str, rendered: String) {
    let rendered = format!("{rendered}\n");
    let path = golden_path(name);
    if std::env::var(UPDATE_ENV).is_ok_and(|v| v == "1") {
        std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("read {path:?}: {e}\n(generate goldens with {UPDATE_ENV}=1 cargo test --test golden_quick)")
    });
    assert_eq!(
        rendered, golden,
        "regenerated {name} differs from the checked-in golden; if the \
         behavior change is intended, refresh with {UPDATE_ENV}=1"
    );
}

#[test]
fn fig5_matches_golden() {
    let result = fig5::run(&CmpConfig::table1(), QUICK);
    check_golden("fig5_micro_util.json", to_json(&Fig5Report::from(&result)));
}

#[test]
fn fig6_matches_golden() {
    let result = fig6::run(&CmpConfig::table1(), QUICK);
    check_golden("fig6_spec_util.json", to_json(&Fig6Report::from(&result)));
}

#[test]
fn fig7_matches_golden() {
    let result = fig7::run(&CmpConfig::table1(), QUICK);
    check_golden("fig7_store_gathering.json", to_json(&Fig7Report::from(&result)));
}

#[test]
fn fig8_matches_golden() {
    let result = fig8::run(&CmpConfig::table1_with_threads(2), QUICK);
    check_golden("fig8_loads_stores.json", to_json(&Fig8Report::from(&result)));
}

#[test]
fn fig9_matches_golden() {
    let result = fig9::run(&CmpConfig::table1(), &SPEC_NAMES, QUICK);
    check_golden("fig9_spec_vs_stores.json", to_json(&Fig9Report::from(&result)));
}

#[test]
fn fig10_matches_golden() {
    let result = fig10::run(&CmpConfig::table1(), &fig10::MIXES, QUICK);
    check_golden("fig10_heterogeneous.json", to_json(&Fig10Report::from(&result)));
}

#[test]
fn ablations_matches_golden() {
    check_golden("ablations.txt", ablations::run_all(&CmpConfig::table1(), QUICK));
}

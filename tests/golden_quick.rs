//! Golden tests: every figure series and the ablations at
//! `RunBudget::quick()`, diffed byte-for-byte against the checked-in
//! `results/quick/*` files.
//!
//! Each test renders its one figure through `experiments::reproduce`, the
//! path `reproduce --quick` writes `results/quick/` with, so a behavioral
//! change anywhere in the simulator surfaces as a golden diff. After an
//! *intended* change, regenerate the files from the repository root with:
//!
//! ```sh
//! cargo run --release -p vpc-bench --bin reproduce -- --quick
//! ```

use std::path::PathBuf;

use vpc::experiments::{reproduce, RunBudget};

/// Renders `figure` at the quick budget on four workers (the output is
/// the same at any count) and compares each of its files with the golden
/// of the same name.
fn check_golden(figure: &'static str) {
    let files = reproduce(&[figure], RunBudget::quick(), 4);
    assert!(!files.is_empty(), "{figure} renders no quick golden");
    for (name, rendered) in files {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/quick").join(&name);
        let golden =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        assert_eq!(
            rendered, golden,
            "regenerated {name} differs from the checked-in golden; if the behavior \
             change is intended, regenerate results/quick/ with `reproduce --quick`"
        );
    }
}

#[test]
fn fig5_matches_golden() {
    check_golden("fig5_micro_util");
}

#[test]
fn fig6_matches_golden() {
    check_golden("fig6_spec_util");
}

#[test]
fn fig7_matches_golden() {
    check_golden("fig7_store_gathering");
}

#[test]
fn fig8_matches_golden() {
    check_golden("fig8_loads_stores");
}

#[test]
fn fig9_matches_golden() {
    check_golden("fig9_spec_vs_stores");
}

#[test]
fn fig10_matches_golden() {
    check_golden("fig10_heterogeneous");
}

#[test]
fn ablations_matches_golden() {
    check_golden("ablations");
}

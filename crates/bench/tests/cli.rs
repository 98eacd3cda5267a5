//! Command-line contract of the binaries: an unknown flag or a malformed
//! value exits with code 2 before anything runs, and every binary on the
//! shared parser prints its usage text on stderr.

use std::process::Command;

/// `(binary, arguments, prints the usage text)`.
const CASES: &[(&str, &[&str], bool)] = &[
    (env!("CARGO_BIN_EXE_fig5_micro_util"), &["--quick", "--jbos", "4", "--jsn"], true),
    (env!("CARGO_BIN_EXE_fig6_spec_util"), &["--jobs", "0"], true),
    (env!("CARGO_BIN_EXE_fig7_store_gathering"), &["--quick", "--jobs"], true),
    (env!("CARGO_BIN_EXE_fig8_loads_stores"), &["--trace"], true),
    (env!("CARGO_BIN_EXE_fig9_spec_vs_stores"), &["--jobs=many"], true),
    (env!("CARGO_BIN_EXE_fig10_heterogeneous"), &["--no-skip"], true),
    (env!("CARGO_BIN_EXE_ablations"), &["--quick=1"], true),
    (env!("CARGO_BIN_EXE_table1"), &["--bogus"], true),
    (env!("CARGO_BIN_EXE_fig4_timing"), &["--jobs", "0", "--quik"], true),
    (env!("CARGO_BIN_EXE_simulate"), &["--bogus"], false),
    (env!("CARGO_BIN_EXE_simulate"), &["--jobs", "0"], false),
    (env!("CARGO_BIN_EXE_simulate"), &["--cycles", "0"], false),
    (env!("CARGO_BIN_EXE_simulate"), &["--cycles", "18446744073709551615"], false),
    (env!("CARGO_BIN_EXE_simulate"), &["--shares", "3/4,3/4,3/4,3/4"], false),
    (env!("CARGO_BIN_EXE_simulate"), &["--banks", "0"], false),
    (env!("CARGO_BIN_EXE_simulate"), &["--banks", "3"], false),
    (env!("CARGO_BIN_EXE_simulate"), &["--arbiter", "rr"], false),
    (env!("CARGO_BIN_EXE_simulate"), &["--arbiter", "drr"], false),
    (env!("CARGO_BIN_EXE_simulate"), &["--arbiter", "sfq"], false),
    (env!("CARGO_BIN_EXE_record_trace"), &["nosuch", "5"], true),
    (env!("CARGO_BIN_EXE_record_trace"), &["art", "x"], true),
    (env!("CARGO_BIN_EXE_record_trace"), &["art", "3", "extra"], true),
];

#[test]
fn bad_arguments_exit_2() {
    for (bin, args, usage) in CASES {
        let out = Command::new(bin).args(*args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed to stdout");
        assert!(!usage || stderr.contains("usage: "), "{bin} {args:?} printed no usage: {stderr}");
    }
}

#[test]
fn malformed_environment_exits_2() {
    let bin = env!("CARGO_BIN_EXE_fig6_spec_util");
    let out = Command::new(bin).env("VPC_JOBS", "0").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn zero_share_thread_prints_no_nan() {
    let bin = env!("CARGO_BIN_EXE_simulate");
    let args = ["--workloads", "Loads,Stores", "--shares", "1/1,0/1", "--warmup", "1000"];
    let out =
        Command::new(bin).args(args).args(["--cycles", "5000"]).output().expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("n/a"), "zero-share thread has no target: {stdout}");
    assert!(!stdout.contains("NaN"), "{stdout}");
}

//! Command-line contract of the binaries: an unknown flag or a malformed
//! value exits with code 2 before anything runs, every binary on the
//! shared parser prints its usage text on stderr, and a reader that closes
//! stdout early ends a run quietly.

use std::process::{Command, Stdio};

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
    (env!("CARGO_BIN_EXE_simulate"), &["--channels", "private"], false),
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

/// `| head` closes stdout before the report is written: the write fails
/// with a broken pipe, and the run must still exit 0 without a panic.
#[test]
fn closed_stdout_exits_quietly() {
    let runs: [(&str, &[&str]); 2] = [
        (env!("CARGO_BIN_EXE_fig6_spec_util"), &["--quick"]),
        (env!("CARGO_BIN_EXE_simulate"), &["--cycles", "20000"]),
    ];
    for (bin, args) in runs {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{bin} {args:?}: {:?}: {stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    }
}

//! Command-line contract of the binaries: an unknown flag, a flag the
//! binary does not read, or a malformed value exits with code 2 before
//! anything runs, with the usage text on stderr; every binary that takes
//! flags reads `--flag value` and `--flag=value` alike; and a reader that
//! closes stdout early ends a run quietly.

use std::process::{Command, Stdio};

/// `(binary, arguments)`.
const CASES: &[(&str, &[&str])] = &[
    (env!("CARGO_BIN_EXE_fig5_micro_util"), &["--quick", "--jbos", "4", "--jsn"]),
    (env!("CARGO_BIN_EXE_fig6_spec_util"), &["--jobs", "0"]),
    (env!("CARGO_BIN_EXE_fig7_store_gathering"), &["--quick", "--jobs"]),
    (env!("CARGO_BIN_EXE_fig8_loads_stores"), &["--trace"]),
    (env!("CARGO_BIN_EXE_fig5_micro_util"), &["--quick", "--trace", "/nonexistent/dir/t.json"]),
    (env!("CARGO_BIN_EXE_fig9_spec_vs_stores"), &["--jobs=many"]),
    (env!("CARGO_BIN_EXE_fig10_heterogeneous"), &["--no-skip"]),
    (env!("CARGO_BIN_EXE_ablations"), &["--quick=1"]),
    (env!("CARGO_BIN_EXE_fig6_spec_util"), &["--quick", "--metrics"]),
    (env!("CARGO_BIN_EXE_fig7_store_gathering"), &["--quick", "--metrics"]),
    (env!("CARGO_BIN_EXE_fig8_loads_stores"), &["--quick", "--metrics"]),
    (env!("CARGO_BIN_EXE_fig9_spec_vs_stores"), &["--quick", "--metrics"]),
    (env!("CARGO_BIN_EXE_fig10_heterogeneous"), &["--quick", "--metrics"]),
    (env!("CARGO_BIN_EXE_ablations"), &["--quick", "--metrics"]),
    (env!("CARGO_BIN_EXE_table1"), &["--bogus"]),
    (env!("CARGO_BIN_EXE_fig4_timing"), &["--jobs", "0", "--quik"]),
    (env!("CARGO_BIN_EXE_simulate"), &["--bogus"]),
    (env!("CARGO_BIN_EXE_simulate"), &["--jobs", "0"]),
    (env!("CARGO_BIN_EXE_simulate"), &["--cycles", "0"]),
    (env!("CARGO_BIN_EXE_simulate"), &["--cycles", "18446744073709551615"]),
    (env!("CARGO_BIN_EXE_simulate"), &["--shares", "3/4,3/4,3/4,3/4"]),
    (env!("CARGO_BIN_EXE_simulate"), &["--banks", "0"]),
    (env!("CARGO_BIN_EXE_simulate"), &["--banks", "3"]),
    (env!("CARGO_BIN_EXE_simulate"), &["--banks", "16384"]),
    (
        env!("CARGO_BIN_EXE_simulate"),
        &["--workloads", "art,mcf,gcc,gzip,vpr,mesa,swim,ammp,equake"],
    ),
    (env!("CARGO_BIN_EXE_simulate"), &["--trace", "/nonexistent/dir/t.json"]),
    (env!("CARGO_BIN_EXE_simulate"), &["--arbiter", "rr"]),
    (env!("CARGO_BIN_EXE_simulate"), &["--arbiter", "drr"]),
    (env!("CARGO_BIN_EXE_simulate"), &["--arbiter", "sfq"]),
    (env!("CARGO_BIN_EXE_simulate"), &["--channels", "private"]),
    (env!("CARGO_BIN_EXE_simulate"), &["--banks"]),
    (env!("CARGO_BIN_EXE_simulate"), &["--lru-capacity=yes"]),
];

#[test]
fn bad_arguments_exit_2() {
    for (bin, args) in CASES {
        let out = Command::new(bin).args(*args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed to stdout");
        assert!(stderr.contains("usage: "), "{bin} {args:?} printed no usage: {stderr}");
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

/// `simulate` reads `--flag=value` as `--flag value`: the same run prints
/// the same report.
#[test]
fn simulate_reads_inline_values() {
    let bin = env!("CARGO_BIN_EXE_simulate");
    let run = |args: &[&str]| {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let inline = run(&["--banks=2", "--workloads=Loads,Stores", "--warmup=1000", "--cycles=5000"]);
    let spaced = run(&[
        "--banks",
        "2",
        "--workloads",
        "Loads,Stores",
        "--warmup",
        "1000",
        "--cycles",
        "5000",
    ]);
    assert_eq!(inline, spaced);
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

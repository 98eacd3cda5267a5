//! Command-line contract of the binaries: an unknown flag or a malformed
//! value exits with code 2 before anything runs, with the usage text on
//! stderr; `reproduce` reads only `--quick` and `--jobs`, so `--trace` and
//! `--metrics` are unknown to it; both binaries read `--flag value` and
//! `--flag=value` alike; `reproduce` without its output directory exits
//! with code 1 before any cell runs; a reader that closes stdout early
//! ends a run quietly; and docs/TRACING.md's `simulate --trace` recipe
//! records the events of the fig5 trace golden.

use std::path::Path;
use std::process::{Command, Stdio};

use vpc::json::JsonValue;

/// `(binary, arguments)`.
const CASES: &[(&str, &[&str])] = &[
    (env!("CARGO_BIN_EXE_reproduce"), &["--quick", "--jbos", "4", "--jsn"]),
    (env!("CARGO_BIN_EXE_reproduce"), &["--jobs", "0"]),
    (env!("CARGO_BIN_EXE_reproduce"), &["--jobs=many"]),
    (env!("CARGO_BIN_EXE_reproduce"), &["--quick", "--jobs"]),
    (env!("CARGO_BIN_EXE_reproduce"), &["--trace"]),
    (env!("CARGO_BIN_EXE_reproduce"), &["--quick=1"]),
    (env!("CARGO_BIN_EXE_reproduce"), &["--quick", "--trace", "/nonexistent/dir/t.json"]),
    (env!("CARGO_BIN_EXE_reproduce"), &["--no-skip"]),
    (env!("CARGO_BIN_EXE_reproduce"), &["--quick", "--json"]),
    (env!("CARGO_BIN_EXE_reproduce"), &["--metrics"]),
    (env!("CARGO_BIN_EXE_reproduce"), &["--trace", "t.json"]),
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

/// Outside the repository root there is no `results/quick/`: `reproduce`
/// names the missing directory and exits with code 1 before any cell
/// runs, without a panic.
#[test]
fn reproduce_without_results_dir_exits_1() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-results");
    std::fs::create_dir_all(&dir).expect("create an empty directory");
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--quick", "--jobs", "1"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("results/quick"), "names the directory: {stderr}");
    assert!(!stderr.contains("job(s)"), "no cell may run: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());
}

/// `| head` closes stdout before the report is written: the write fails
/// with a broken pipe, and the run must still exit 0 without a panic.
#[test]
fn closed_stdout_exits_quietly() {
    let bin = env!("CARGO_BIN_EXE_simulate");
    let args = ["--cycles", "20000"];
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

/// The non-metadata events of the Chrome trace at `path`, in file order.
fn trace_events(path: &Path) -> Vec<JsonValue> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let doc = JsonValue::parse(&text).unwrap_or_else(|e| panic!("parse {path:?}: {e:?}"));
    let JsonValue::Object(fields) = doc else { panic!("{path:?} is not a JSON object") };
    let Some((_, JsonValue::Array(events))) = fields.into_iter().find(|(k, _)| k == "traceEvents")
    else {
        panic!("{path:?} has no traceEvents array")
    };
    let metadata = ("ph".to_string(), JsonValue::from("M"));
    let is_metadata = |e: &JsonValue| matches!(e, JsonValue::Object(f) if f.contains(&metadata));
    events.into_iter().filter(|e| !is_metadata(e)).collect()
}

/// docs/TRACING.md's VPC command traces the fig5 contention run at the
/// quick budget's windows into one file: the shared machine's lane (`pid`
/// 0, `simulate`) begins with the 512 events of the golden
/// `results/quick/trace_fig5.json`, and no per-cell copy is written next
/// to it.
#[test]
fn simulate_trace_recipe_starts_with_the_fig5_golden() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace-recipe");
    std::fs::create_dir_all(&dir).expect("create the trace directory");
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(["--workloads", "Loads,Stores,Stores,Stores", "--arbiter", "vpc"])
        .args(["--warmup", "10000", "--cycles", "40000", "--trace"])
        .arg(dir.join("vpc.json"))
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/quick/trace_fig5.json");
    let golden = trace_events(&golden);
    let lane = ("pid".to_string(), JsonValue::from(0u64));
    let traced: Vec<JsonValue> = trace_events(&dir.join("vpc.json"))
        .into_iter()
        .filter(|e| matches!(e, JsonValue::Object(f) if f.contains(&lane)))
        .collect();
    let files = std::fs::read_dir(&dir).expect("list the trace directory").count();
    std::fs::remove_dir_all(&dir).expect("remove the traces");
    assert_eq!(files, 1, "the recipe writes vpc.json alone");
    assert_eq!(golden.len(), 512, "the golden holds a 512-event ring");
    assert!(traced.len() > golden.len(), "the recipe recorded {} events", traced.len());
    if let Some(i) = (0..golden.len()).find(|&i| traced[i] != golden[i]) {
        panic!("event {i} differs: traced {:?}, golden {:?}", traced[i], golden[i]);
    }
}

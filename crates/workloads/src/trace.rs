//! Trace-driven workloads.
//!
//! The paper drives its cores with sampled instruction traces. This module
//! provides the same capability for users who have real traces: a small
//! line-oriented text format, a [`TraceWorkload`] that replays it (looping,
//! like the paper's steady-state samples), and a recorder that captures any
//! generator's stream into the format.
//!
//! # Format
//!
//! One operation per line; `#` starts a comment. Addresses are cache-line
//! numbers in hex or decimal:
//!
//! ```text
//! # ops: N = non-memory, L <line> = load, S <line> = store, B <n> = bubble
//! N
//! L 0x1a2
//! S 420
//! B 4
//! ```

use std::fmt;
use std::str::FromStr;

use vpc_cpu::{Op, Workload};
use vpc_sim::LineAddr;

/// Error produced when parsing a trace fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// 1-based column of the offending token (0 when the error concerns
    /// the document as a whole, e.g. an empty trace).
    pub column: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}, column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for ParseTraceError {}

/// Splits the comment-stripped content of one line into whitespace-
/// separated tokens, each tagged with its 1-based byte column in the
/// original line (comments never precede tokens, so columns agree).
fn tokenize(content: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, ch) in content.char_indices() {
        if ch.is_whitespace() {
            if let Some(s) = start.take() {
                out.push((s + 1, &content[s..i]));
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        out.push((s + 1, &content[s..]));
    }
    out
}

fn parse_line_addr(s: &str) -> Result<LineAddr, String> {
    let v = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).map_err(|e| e.to_string())?
    } else {
        s.parse::<u64>().map_err(|e| e.to_string())?
    };
    Ok(LineAddr(v))
}

/// Parses the trace text format into a vector of operations.
///
/// Repeated line addresses are accepted: a replay trace legitimately
/// revisits its hot lines (and [`TraceWorkload`] loops the whole trace
/// anyway).
///
/// # Errors
///
/// Returns [`ParseTraceError`] (with line and column context) on the
/// first malformed line.
pub fn parse_trace(text: &str) -> Result<Vec<Op>, ParseTraceError> {
    let mut ops = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let content = raw.split('#').next().unwrap_or("");
        let tokens = tokenize(content);
        let Some(&(tag_col, tag)) = tokens.first() else {
            continue;
        };
        let err =
            |column: usize, message: String| ParseTraceError { line: line_no, column, message };
        let mut rest = tokens[1..].iter().copied();
        let op = match tag {
            "N" => Op::NonMem,
            "L" | "S" => {
                let (col, addr) = rest
                    .next()
                    .ok_or_else(|| err(tag_col, format!("'{tag}' needs a line address")))?;
                let addr =
                    parse_line_addr(addr).map_err(|e| err(col, format!("bad address: {e}")))?;
                if tag == "L" {
                    Op::Load(addr)
                } else {
                    Op::Store(addr)
                }
            }
            "B" => {
                let (col, n) =
                    rest.next().ok_or_else(|| err(tag_col, "'B' needs a cycle count".into()))?;
                let n: u8 = n.parse().map_err(|e| err(col, format!("bad bubble count: {e}")))?;
                Op::Bubble(n)
            }
            other => return Err(err(tag_col, format!("unknown op tag {other:?}"))),
        };
        if let Some((col, junk)) = rest.next() {
            return Err(err(col, format!("trailing token {junk:?}")));
        }
        ops.push(op);
    }
    Ok(ops)
}

/// Serializes operations into the trace text format (the inverse of
/// [`parse_trace`]).
pub fn format_trace(ops: &[Op]) -> String {
    let mut out = String::new();
    for op in ops {
        match op {
            Op::NonMem => out.push_str("N\n"),
            Op::Load(l) => out.push_str(&format!("L {:#x}\n", l.0)),
            Op::Store(l) => out.push_str(&format!("S {:#x}\n", l.0)),
            Op::Bubble(n) => out.push_str(&format!("B {n}\n")),
        }
    }
    out
}

/// Records the next `n` operations of any workload into the trace format.
pub fn record<W: Workload + ?Sized>(workload: &mut W, n: usize) -> String {
    let ops: Vec<Op> = (0..n).map(|_| workload.next_op()).collect();
    format_trace(&ops)
}

/// A workload replaying a parsed trace in a loop.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    name: String,
    ops: Vec<Op>,
    pos: usize,
}

impl TraceWorkload {
    /// Wraps parsed operations.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    pub fn new(name: impl Into<String>, ops: Vec<Op>) -> TraceWorkload {
        assert!(!ops.is_empty(), "trace must contain at least one op");
        TraceWorkload { name: name.into(), ops, pos: 0 }
    }

    /// The number of operations in one pass of the trace.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty (never true — construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl FromStr for TraceWorkload {
    type Err = ParseTraceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let ops = parse_trace(s)?;
        if ops.is_empty() {
            return Err(ParseTraceError {
                line: 0,
                column: 0,
                message: "trace contains no operations".into(),
            });
        }
        Ok(TraceWorkload::new("trace", ops))
    }
}

impl Workload for TraceWorkload {
    fn next_op(&mut self) -> Op {
        let op = self.ops[self.pos];
        self.pos = (self.pos + 1) % self.ops.len();
        op
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpc_sim::check::{self, Config};
    use vpc_sim::{ensure, ensure_eq, SplitMix64};

    #[test]
    fn parses_all_op_kinds() {
        let text = "# header comment\nN\nL 0x1a2\nS 420\nB 4\n\n# trailing\n";
        let ops = parse_trace(text).unwrap();
        assert_eq!(
            ops,
            vec![Op::NonMem, Op::Load(LineAddr(0x1a2)), Op::Store(LineAddr(420)), Op::Bubble(4)]
        );
    }

    #[test]
    fn reports_line_numbers_in_errors() {
        let err = parse_trace("N\nL\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("needs a line address"));
        let err = parse_trace("X 1\n").unwrap_err();
        assert!(err.message.contains("unknown op tag"));
        let err = parse_trace("N extra\n").unwrap_err();
        assert!(err.message.contains("trailing token"));
        let err = parse_trace("B 300\n").unwrap_err();
        assert!(err.message.contains("bad bubble count"));
    }

    #[test]
    fn inline_comments_are_stripped() {
        let ops = parse_trace("L 7 # the hot line\n").unwrap();
        assert_eq!(ops, vec![Op::Load(LineAddr(7))]);
    }

    #[test]
    fn errors_carry_column_context() {
        // The bad address starts at column 5 of line 2.
        let err = parse_trace("N\n  L oops\n").unwrap_err();
        assert_eq!((err.line, err.column), (2, 5));
        assert!(err.to_string().contains("line 2, column 5"), "got {err}");
        // A missing operand points at the tag that demanded it.
        let err = parse_trace("  B\n").unwrap_err();
        assert_eq!((err.line, err.column), (1, 3));
        // A trailing token points at itself.
        let err = parse_trace("L 1 junk\n").unwrap_err();
        assert_eq!((err.line, err.column), (1, 5));
    }

    #[test]
    fn trace_workload_loops() {
        let mut w: TraceWorkload = "L 1\nS 2\n".parse().unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w.next_op(), Op::Load(LineAddr(1)));
        assert_eq!(w.next_op(), Op::Store(LineAddr(2)));
        assert_eq!(w.next_op(), Op::Load(LineAddr(1)));
    }

    #[test]
    fn empty_trace_is_rejected() {
        let err = "# only comments\n".parse::<TraceWorkload>().unwrap_err();
        assert!(err.message.contains("no operations"));
    }

    #[test]
    fn recording_a_synthetic_profile_roundtrips() {
        let mut art = crate::spec::workload("art", vpc_sim::ThreadId(0)).unwrap();
        let text = record(&mut art, 500);
        let replay: TraceWorkload = text.parse().unwrap();
        assert_eq!(replay.len(), 500);
        // Replaying yields the identical prefix.
        let mut art2 = crate::spec::workload("art", vpc_sim::ThreadId(0)).unwrap();
        let mut replay = replay;
        for _ in 0..500 {
            assert_eq!(replay.next_op(), art2.next_op());
        }
    }

    fn arb_op(rng: &mut SplitMix64) -> Op {
        match rng.below(4) {
            0 => Op::NonMem,
            1 => Op::Load(LineAddr(rng.below(1 << 40))),
            2 => Op::Store(LineAddr(rng.below(1 << 40))),
            _ => Op::Bubble(1 + rng.below(64) as u8),
        }
    }

    /// `parse_trace` never panics: on random bytes and on random lines of
    /// trace-like tokens it returns ops that format and parse back to
    /// themselves, or an error pointing at a line of the input.
    #[test]
    fn parse_trace_never_panics() {
        const TOKENS: [&str; 14] =
            ["N", "L", "S", "B", "X", "#", "0x", "0x1F", "42", "255", "256", "-1", "1e3", "\u{e9}"];
        check::forall("parse_trace_never_panics", Config::cases(512), |rng| {
            let text = if rng.chance(0.5) {
                let bytes: Vec<u8> = (0..rng.below(256)).map(|_| rng.below(256) as u8).collect();
                String::from_utf8_lossy(&bytes).into_owned()
            } else {
                let mut text = String::new();
                for _ in 0..rng.below(12) {
                    for _ in 0..rng.below(4) {
                        text.push_str(TOKENS[rng.below(TOKENS.len() as u64) as usize]);
                        text.push_str([" ", "\t", ""][rng.below(3) as usize]);
                    }
                    text.push_str(["\n", "\r\n"][rng.below(2) as usize]);
                }
                text
            };
            match parse_trace(&text) {
                Ok(ops) => {
                    let back = parse_trace(&format_trace(&ops)).map_err(|e| e.to_string())?;
                    ensure_eq!(back, ops);
                }
                Err(err) => {
                    let lines = text.lines().count();
                    ensure!((1..=lines).contains(&err.line), "{err} in a {lines}-line input");
                }
            }
            Ok(())
        });
    }

    #[test]
    fn format_parse_roundtrip() {
        check::forall_seq("format_parse_roundtrip", Config::cases(256), (1, 199), arb_op, |ops| {
            let text = format_trace(ops);
            let back = parse_trace(&text).map_err(|e| e.to_string())?;
            ensure_eq!(ops, &back[..]);
            Ok(())
        });
    }
}

//! The instruction-stream interface cores execute.

use std::fmt;

use vpc_sim::LineAddr;

/// One instruction, at the granularity the memory system cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A non-memory instruction (fixed-point, float, branch, ...) with unit
    /// pipelined execute latency.
    NonMem,
    /// A load from the given cache line.
    Load(LineAddr),
    /// A store to the given cache line.
    Store(LineAddr),
    /// A frontend bubble: the dispatch stage stalls for the given number
    /// of cycles and no instruction is counted. Models dependence chains,
    /// branch mispredictions and fetch stalls, giving workloads a base CPI
    /// without simulating a full dependence graph.
    Bubble(u8),
}

/// An instruction stream feeding one core.
///
/// Workloads are infinite generators: the evaluation runs fixed cycle
/// windows (like the paper's sampled traces) and reports rates, so the
/// stream never ends.
pub trait Workload: fmt::Debug {
    /// Produces the next instruction.
    fn next_op(&mut self) -> Op;

    /// Short display name for reports ("Loads", "art", ...).
    fn name(&self) -> &str;
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn next_op(&mut self) -> Op {
        (**self).next_op()
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// A workload replaying a fixed sequence of operations in a loop.
///
/// Useful in tests and for microbenchmark-style kernels.
///
/// ```
/// use vpc_cpu::{FixedTrace, Op, Workload};
/// use vpc_sim::LineAddr;
///
/// let mut w = FixedTrace::new("two-op", vec![Op::NonMem, Op::Load(LineAddr(1))]);
/// assert_eq!(w.next_op(), Op::NonMem);
/// assert_eq!(w.next_op(), Op::Load(LineAddr(1)));
/// assert_eq!(w.next_op(), Op::NonMem); // wraps around
/// ```
#[derive(Debug, Clone)]
pub struct FixedTrace {
    name: String,
    ops: Vec<Op>,
    pos: usize,
}

impl FixedTrace {
    /// Creates a looping trace.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    pub fn new(name: impl Into<String>, ops: Vec<Op>) -> FixedTrace {
        assert!(!ops.is_empty(), "trace must contain at least one op");
        FixedTrace { name: name.into(), ops, pos: 0 }
    }
}

impl Workload for FixedTrace {
    #[inline]
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

    #[test]
    fn fixed_trace_loops() {
        let mut w = FixedTrace::new("t", vec![Op::Load(LineAddr(1)), Op::Store(LineAddr(2))]);
        let seq: Vec<Op> = (0..5).map(|_| w.next_op()).collect();
        assert_eq!(
            seq,
            vec![
                Op::Load(LineAddr(1)),
                Op::Store(LineAddr(2)),
                Op::Load(LineAddr(1)),
                Op::Store(LineAddr(2)),
                Op::Load(LineAddr(1)),
            ]
        );
        assert_eq!(w.name(), "t");
    }

    #[test]
    #[should_panic(expected = "at least one op")]
    fn empty_trace_rejected() {
        let _ = FixedTrace::new("empty", vec![]);
    }
}

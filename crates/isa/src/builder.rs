//! A small DSL for constructing loop-structured warp programs.

use crate::op::{OpId, WarpOp};
use crate::program::{Code, Program};

/// Builder for [`Program`]s.
///
/// The builder assigns dense [`OpId`]s in construction order, which warps use
/// to index their per-instruction execution counters.
///
/// # Example
///
/// ```
/// use virgo_isa::{ProgramBuilder, WarpOp};
///
/// let mut b = ProgramBuilder::new();
/// b.op(WarpOp::Alu { rf_reads: 2, rf_writes: 1 });
/// b.repeat(16, |b| {
///     b.op(WarpOp::WaitLoads);
///     b.op(WarpOp::Barrier { id: 0 });
/// });
/// let p = b.build();
/// assert_eq!(p.static_len(), 3);
/// assert_eq!(p.dynamic_len(), 1 + 16 * 2);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    /// The flat code emitted so far.
    code: Vec<Code>,
    next_id: u32,
}

impl ProgramBuilder {
    /// Creates a builder for an empty program.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Appends a single operation.
    pub fn op(&mut self, op: WarpOp) -> &mut Self {
        let id = OpId(self.next_id);
        self.next_id += 1;
        self.code.push(Code::Op(id, op));
        self
    }

    /// Appends `n` copies of the same operation (as distinct static
    /// instructions, so each keeps its own execution counter).
    pub fn op_n(&mut self, n: u32, op: WarpOp) -> &mut Self {
        for _ in 0..n {
            self.op(op);
        }
        self
    }

    /// Appends a counted loop whose body is built by `f`.
    ///
    /// Zero-trip loops are allowed and are skipped at execution time, which
    /// lets kernel generators express edge cases (e.g. a K-loop with a single
    /// iteration having no "next tile" prologue) without special cases.
    pub fn repeat(&mut self, count: u64, f: impl FnOnce(&mut Self)) -> &mut Self {
        let start = self.code.len();
        self.code.push(Code::LoopStart { count, end: 0 });
        f(self);
        let end = code_index(self.code.len());
        self.code[start] = Code::LoopStart { count, end };
        self.code.push(Code::LoopEnd {
            start: code_index(start),
        });
        self
    }

    /// Finishes the program.
    pub fn build(mut self) -> Program {
        self.code.shrink_to_fit();
        Program::from_code(self.code, self.next_id)
    }

    /// Number of static operations added so far.
    pub fn static_len(&self) -> u32 {
        self.next_id
    }
}

/// A code index as stored in the loop markers.
fn code_index(index: usize) -> u32 {
    u32::try_from(index).expect("program exceeds u32::MAX code entries")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = ProgramBuilder::new();
        b.op(WarpOp::Nop).op(WarpOp::Nop);
        b.repeat(2, |b| {
            b.op(WarpOp::Nop);
        });
        assert_eq!(b.static_len(), 3);
        let p = b.build();
        assert_eq!(p.static_len(), 3);
    }

    #[test]
    fn op_n_adds_distinct_static_ops() {
        let mut b = ProgramBuilder::new();
        b.op_n(5, WarpOp::Nop);
        let p = b.build();
        assert_eq!(p.static_len(), 5);
        assert_eq!(p.dynamic_len(), 5);
    }

    #[test]
    fn nested_repeat_builds_tree() {
        let mut b = ProgramBuilder::new();
        b.repeat(4, |b| {
            b.repeat(3, |b| {
                b.op(WarpOp::Nop);
            });
            b.op(WarpOp::WaitLoads);
        });
        let p = b.build();
        assert_eq!(p.static_len(), 2);
        assert_eq!(p.dynamic_len(), 4 * (3 + 1));
    }

    #[test]
    fn empty_builder_builds_empty_program() {
        let p = ProgramBuilder::new().build();
        assert_eq!(p.static_len(), 0);
        assert_eq!(p.dynamic_len(), 0);
    }
}

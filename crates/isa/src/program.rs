//! Flat, loop-structured warp programs and their execution cursor.
//!
//! A [`Program`] is one flat code vector: plain operations plus
//! `LoopStart`/`LoopEnd` markers that point at each other. This keeps the
//! memory footprint proportional to the *static* kernel size while the
//! simulator still observes every *dynamic* instruction. A
//! [`ProgramCursor`] walks the code with a program counter and a stack of
//! remaining loop trip counts, so fetching the next operation is O(1)
//! amortised no matter how deeply the loops nest.

use std::sync::Arc;

use virgo_sim::{StableHash, StableHasher};

use crate::op::{OpId, WarpOp};

/// One entry of a program's flat code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Code {
    /// A single static operation with its program-unique id.
    Op(OpId, WarpOp),
    /// Head of a counted loop; `end` indexes the matching [`Code::LoopEnd`].
    /// Zero-trip loops jump straight past `end`.
    LoopStart { count: u64, end: u32 },
    /// Tail of a counted loop; `start` indexes the matching
    /// [`Code::LoopStart`].
    LoopEnd { start: u32 },
}

/// A complete per-warp program.
///
/// Programs are constructed through [`ProgramBuilder`](crate::ProgramBuilder)
/// and shared between warps via `Arc` (all warps of a collaborative kernel
/// typically run the same program at different base addresses, but nothing
/// requires that).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    code: Vec<Code>,
    num_ops: u32,
}

impl Program {
    /// Wraps builder output: well-nested code with dense op ids below
    /// `num_ops`.
    pub(crate) fn from_code(code: Vec<Code>, num_ops: u32) -> Self {
        Program { code, num_ops }
    }

    /// The empty program; a warp running it retires immediately.
    pub fn empty() -> Self {
        Program::default()
    }

    /// Number of *static* operations in the program (loop bodies counted
    /// once). This is the size of the per-warp execution-counter table.
    pub fn static_len(&self) -> u32 {
        self.num_ops
    }

    /// Number of *dynamic* operations the program will execute (loop bodies
    /// multiplied by their trip counts).
    pub fn dynamic_len(&self) -> u64 {
        // One running total per open loop body, the program body at the
        // bottom.
        let mut totals = vec![0u64];
        for entry in &self.code {
            match *entry {
                Code::Op(..) => *totals.last_mut().expect("program body") += 1,
                Code::LoopStart { .. } => totals.push(0),
                Code::LoopEnd { start } => {
                    let body = totals.pop().expect("loop body");
                    let Code::LoopStart { count, .. } = self.code[start as usize] else {
                        unreachable!("LoopEnd points at its LoopStart");
                    };
                    *totals.last_mut().expect("enclosing body") += count * body;
                }
            }
        }
        totals[0]
    }

    /// Creates a cursor positioned before the first dynamic operation.
    pub fn cursor(self: &Arc<Self>) -> ProgramCursor {
        ProgramCursor::new(Arc::clone(self))
    }
}

impl StableHash for Program {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(u64::from(self.num_ops));
        h.write_u64(self.code.len() as u64);
        for entry in &self.code {
            match *entry {
                Code::Op(id, op) => {
                    h.write_u64(0);
                    id.stable_hash(h);
                    op.stable_hash(h);
                }
                Code::LoopStart { count, end } => {
                    h.write_u64(1);
                    h.write_u64(count);
                    h.write_u64(u64::from(end));
                }
                Code::LoopEnd { start } => {
                    h.write_u64(2);
                    h.write_u64(u64::from(start));
                }
            }
        }
    }
}

/// A cursor that yields the dynamic operation stream of a [`Program`].
///
/// The cursor owns an `Arc` of the program, so warps can be moved freely.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use virgo_isa::{ProgramBuilder, WarpOp};
///
/// let mut b = ProgramBuilder::new();
/// b.repeat(3, |b| {
///     b.op(WarpOp::Nop);
/// });
/// let program = Arc::new(b.build());
/// let mut cursor = program.cursor();
/// let mut n = 0;
/// while cursor.next_op().is_some() {
///     n += 1;
/// }
/// assert_eq!(n, 3);
/// ```
#[derive(Debug, Clone)]
pub struct ProgramCursor {
    program: Arc<Program>,
    /// Index of the next code entry to execute.
    pc: usize,
    /// Remaining trips (the current one included) of each open loop,
    /// innermost last.
    trips: Vec<u64>,
    done: bool,
}

impl ProgramCursor {
    fn new(program: Arc<Program>) -> Self {
        let done = program.code.is_empty();
        ProgramCursor {
            program,
            pc: 0,
            trips: Vec::new(),
            done,
        }
    }

    /// True when every dynamic operation has been yielded.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Returns the next dynamic operation, or `None` when the program has
    /// finished.
    ///
    /// The returned operation is copied out of the program (operations are
    /// small `Copy` values), together with its static [`OpId`].
    pub fn next_op(&mut self) -> Option<(OpId, WarpOp)> {
        if self.done {
            return None;
        }
        let code = &self.program.code;
        loop {
            match code.get(self.pc) {
                None => {
                    self.done = true;
                    return None;
                }
                Some(&Code::Op(id, op)) => {
                    self.pc += 1;
                    return Some((id, op));
                }
                Some(&Code::LoopStart { count, end }) => {
                    if count == 0 {
                        self.pc = end as usize + 1;
                    } else {
                        self.trips.push(count);
                        self.pc += 1;
                    }
                }
                Some(&Code::LoopEnd { start }) => {
                    let trips = self.trips.last_mut().expect("LoopEnd inside a loop");
                    *trips -= 1;
                    if *trips > 0 {
                        self.pc = start as usize + 1;
                    } else {
                        self.trips.pop();
                        self.pc += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use virgo_sim::SplitMix64;

    fn collect(program: Program) -> Vec<&'static str> {
        let program = Arc::new(program);
        let mut cursor = program.cursor();
        let mut out = Vec::new();
        while let Some((_, op)) = cursor.next_op() {
            out.push(op.mnemonic());
        }
        out
    }

    #[test]
    fn empty_program_yields_nothing() {
        let program = Arc::new(Program::empty());
        let mut cursor = program.cursor();
        assert!(cursor.is_done() || cursor.next_op().is_none());
        assert!(cursor.is_done());
        assert_eq!(program.dynamic_len(), 0);
    }

    #[test]
    fn flat_program_yields_in_order() {
        let mut b = ProgramBuilder::new();
        b.op(WarpOp::Nop);
        b.op(WarpOp::Alu {
            rf_reads: 1,
            rf_writes: 1,
        });
        b.op(WarpOp::WaitLoads);
        let mnemonics = collect(b.build());
        assert_eq!(mnemonics, vec!["nop", "alu", "waitcnt"]);
    }

    #[test]
    fn nested_loops_multiply() {
        let mut b = ProgramBuilder::new();
        b.repeat(3, |b| {
            b.op(WarpOp::Nop);
            b.repeat(2, |b| {
                b.op(WarpOp::Alu {
                    rf_reads: 0,
                    rf_writes: 0,
                });
            });
        });
        let program = b.build();
        assert_eq!(program.dynamic_len(), 3 * (1 + 2));
        let mnemonics = collect(program);
        assert_eq!(mnemonics.len(), 9);
        assert_eq!(mnemonics[0], "nop");
        assert_eq!(mnemonics[1], "alu");
        assert_eq!(mnemonics[2], "alu");
        assert_eq!(mnemonics[3], "nop");
    }

    #[test]
    fn zero_trip_loops_are_skipped() {
        let mut b = ProgramBuilder::new();
        b.op(WarpOp::Nop);
        b.repeat(0, |b| {
            b.op(WarpOp::WaitLoads);
        });
        b.op(WarpOp::Nop);
        let program = b.build();
        assert_eq!(program.dynamic_len(), 2);
        assert_eq!(collect(program), vec!["nop", "nop"]);
    }

    #[test]
    fn op_ids_are_unique_and_dense() {
        let mut b = ProgramBuilder::new();
        b.op(WarpOp::Nop);
        b.repeat(5, |b| {
            b.op(WarpOp::Nop);
            b.op(WarpOp::Nop);
        });
        let program = Arc::new(b.build());
        assert_eq!(program.static_len(), 3);
        let mut cursor = program.cursor();
        let mut seen = Vec::new();
        while let Some((id, _)) = cursor.next_op() {
            seen.push(id.index());
        }
        assert_eq!(seen.len(), 11);
        assert!(seen.iter().all(|&i| i < 3));
        // The two loop-body ops repeat with stable ids.
        assert_eq!(seen[1], seen[3]);
        assert_eq!(seen[2], seen[4]);
    }

    #[test]
    fn trailing_ops_after_loop_execute() {
        let mut b = ProgramBuilder::new();
        b.repeat(2, |b| {
            b.op(WarpOp::Nop);
        });
        b.op(WarpOp::Barrier { id: 0 });
        assert_eq!(collect(b.build()), vec!["nop", "nop", "vx.bar"]);
    }

    #[test]
    fn deeply_nested_loop_counts() {
        let mut b = ProgramBuilder::new();
        b.repeat(2, |b| {
            b.repeat(2, |b| {
                b.repeat(2, |b| {
                    b.op(WarpOp::Nop);
                });
            });
        });
        let program = b.build();
        assert_eq!(program.dynamic_len(), 8);
        assert_eq!(collect(program).len(), 8);
    }

    /// A program description for the property test: the reference the
    /// builder output is checked against.
    #[derive(Debug)]
    enum Node {
        Op(WarpOp),
        Loop(u64, Vec<Node>),
    }

    fn random_op(rng: &mut SplitMix64) -> WarpOp {
        match rng.next_below(4) {
            0 => WarpOp::Nop,
            1 => WarpOp::WaitLoads,
            2 => WarpOp::Barrier {
                id: rng.next_below(4) as u8,
            },
            _ => WarpOp::Alu {
                rf_reads: rng.next_below(3) as u8,
                rf_writes: rng.next_below(2) as u8,
            },
        }
    }

    /// Up to four items; loops nest at most four deep and run 0–3 times, so
    /// zero-trip, one-trip, trailing and empty-body loops all occur.
    fn random_body(rng: &mut SplitMix64, depth: u32) -> Vec<Node> {
        (0..rng.next_below(5))
            .map(|_| {
                if depth < 4 && rng.next_below(3) == 0 {
                    Node::Loop(rng.next_below(4), random_body(rng, depth + 1))
                } else {
                    Node::Op(random_op(rng))
                }
            })
            .collect()
    }

    fn build_into(b: &mut ProgramBuilder, nodes: &[Node]) {
        for node in nodes {
            match node {
                Node::Op(op) => {
                    b.op(*op);
                }
                Node::Loop(count, body) => {
                    b.repeat(*count, |b| build_into(b, body));
                }
            }
        }
    }

    fn static_ops(nodes: &[Node]) -> u32 {
        nodes
            .iter()
            .map(|node| match node {
                Node::Op(_) => 1,
                Node::Loop(_, body) => static_ops(body),
            })
            .sum()
    }

    /// Recursive reference expansion: ids in construction order, every loop
    /// body replayed with the same ids.
    fn expand(nodes: &[Node], next_id: &mut u32, out: &mut Vec<(OpId, WarpOp)>) {
        for node in nodes {
            match node {
                Node::Op(op) => {
                    out.push((OpId(*next_id), *op));
                    *next_id += 1;
                }
                Node::Loop(count, body) => {
                    let first = *next_id;
                    for _ in 0..*count {
                        *next_id = first;
                        expand(body, next_id, out);
                    }
                    *next_id = first + static_ops(body);
                }
            }
        }
    }

    fn check_against_reference(desc: &[Node]) {
        let mut b = ProgramBuilder::new();
        build_into(&mut b, desc);
        let program = Arc::new(b.build());
        let mut expected = Vec::new();
        expand(desc, &mut 0, &mut expected);

        assert_eq!(program.static_len(), static_ops(desc), "{desc:?}");
        assert_eq!(program.dynamic_len(), expected.len() as u64, "{desc:?}");
        let mut cursor = program.cursor();
        // Only an empty program starts done; otherwise `is_done` flips on
        // the call that runs off the end.
        assert_eq!(cursor.is_done(), desc.is_empty(), "{desc:?}");
        for &want in &expected {
            assert!(!cursor.is_done(), "{desc:?}");
            assert_eq!(cursor.next_op(), Some(want), "{desc:?}");
        }
        assert!(desc.is_empty() || !cursor.is_done(), "{desc:?}");
        assert_eq!(cursor.next_op(), None, "{desc:?}");
        assert!(cursor.is_done(), "{desc:?}");
        assert_eq!(cursor.next_op(), None, "{desc:?}");
    }

    #[test]
    fn cursor_matches_recursive_expansion_on_random_programs() {
        check_against_reference(&[]);
        check_against_reference(&[Node::Loop(0, vec![Node::Op(WarpOp::Nop)])]);
        check_against_reference(&[
            Node::Op(WarpOp::Nop),
            Node::Loop(1, vec![Node::Loop(0, vec![Node::Op(WarpOp::WaitLoads)])]),
        ]);
        let mut rng = SplitMix64::new(0x5EED_C0DE);
        for _ in 0..2000 {
            check_against_reference(&random_body(&mut rng, 0));
        }
    }

    fn digest(f: impl FnOnce(&mut ProgramBuilder)) -> (u64, u64) {
        let mut b = ProgramBuilder::new();
        f(&mut b);
        let mut h = StableHasher::new();
        b.build().stable_hash(&mut h);
        h.finish128()
    }

    const A: WarpOp = WarpOp::Alu {
        rf_reads: 1,
        rf_writes: 1,
    };
    const B: WarpOp = WarpOp::Nop;

    #[test]
    fn hash_is_stable_for_identical_builder_calls() {
        let program = |b: &mut ProgramBuilder| {
            b.op(A);
            b.repeat(3, |b| {
                b.op(B);
            });
        };
        assert_eq!(digest(program), digest(program));
    }

    #[test]
    fn hash_tells_apart_counts_nesting_and_ops() {
        let base = digest(|b| {
            b.op(A);
            b.repeat(2, |b| {
                b.op(B);
            });
        });
        let count = digest(|b| {
            b.op(A);
            b.repeat(3, |b| {
                b.op(B);
            });
        });
        let nesting = digest(|b| {
            b.repeat(2, |b| {
                b.op(A);
                b.op(B);
            });
        });
        let tail = digest(|b| {
            b.repeat(2, |b| {
                b.op(A);
            });
            b.op(B);
        });
        let op = digest(|b| {
            b.op(WarpOp::Alu {
                rf_reads: 2,
                rf_writes: 1,
            });
            b.repeat(2, |b| {
                b.op(B);
            });
        });
        let all = [base, count, nesting, tail, op];
        for (i, x) in all.iter().enumerate() {
            for y in &all[i + 1..] {
                assert_ne!(x, y);
            }
        }
    }
}

//! The control-flow graph shared by kverify ([`crate::verify`]) and the
//! compiled tier ([`crate::compiled`]): basic blocks over the instruction
//! stream, postdominators, and control dependences. The rule for where a
//! block starts lives here and nowhere else.

use crate::ir::{Inst, Kernel, Reg};
use std::ops::Range;

pub(crate) struct Block {
    pub(crate) start: usize,
    /// Exclusive end.
    pub(crate) end: usize,
    /// Successor block indices; `nb` (one past the last block) is the
    /// virtual exit. For a conditional branch, `succs[0]` is the taken
    /// edge and `succs[1]` the fallthrough.
    pub(crate) succs: Vec<usize>,
}

pub(crate) struct Cfg {
    pub(crate) blocks: Vec<Block>,
    pub(crate) block_of: Vec<usize>,
}

impl Cfg {
    /// Leaders are instruction 0, every in-stream branch target, and the
    /// instruction after every `Bra` or `Ret`.
    pub(crate) fn build(k: &Kernel) -> Cfg {
        let n = k.insts.len();
        let mut leaders = vec![false; n.max(1)];
        if n > 0 {
            leaders[0] = true;
        }
        for (pc, inst) in k.insts.iter().enumerate() {
            match inst {
                Inst::Bra { target, .. } => {
                    let t = k.target(*target);
                    if t < n {
                        leaders[t] = true;
                    }
                    if pc + 1 < n {
                        leaders[pc + 1] = true;
                    }
                }
                Inst::Ret if pc + 1 < n => leaders[pc + 1] = true,
                _ => {}
            }
        }
        let starts: Vec<usize> = (0..n).filter(|&i| leaders[i]).collect();
        let mut blocks: Vec<Block> = Vec::with_capacity(starts.len());
        for (bi, &s) in starts.iter().enumerate() {
            let end = starts.get(bi + 1).copied().unwrap_or(n);
            blocks.push(Block {
                start: s,
                end,
                succs: Vec::new(),
            });
        }
        let mut block_of = vec![0usize; n];
        for (bi, b) in blocks.iter().enumerate() {
            for slot in &mut block_of[b.start..b.end] {
                *slot = bi;
            }
        }
        let nb = blocks.len();
        let block_at = |pc: usize| if pc < n { block_of[pc] } else { nb };
        let succ_sets: Vec<Vec<usize>> = blocks
            .iter()
            .map(|b| match &k.insts[b.end - 1] {
                Inst::Bra { target, cond } => {
                    let mut s = vec![block_at(k.target(*target))];
                    if cond.is_some() {
                        s.push(block_at(b.end));
                    }
                    s
                }
                Inst::Ret => vec![nb],
                _ => vec![block_at(b.end)],
            })
            .collect();
        for (b, s) in blocks.iter_mut().zip(succ_sets) {
            b.succs = s;
        }
        Cfg { blocks, block_of }
    }

    /// The conditional-branch predicate register of `b`'s terminator.
    pub(crate) fn branch_cond(&self, k: &Kernel, b: usize) -> Option<(Reg, bool)> {
        match &k.insts[self.blocks[b].end - 1] {
            Inst::Bra {
                cond: Some((r, expect)),
                ..
            } => Some((*r, *expect)),
            _ => None,
        }
    }

    /// The blocks additionally split after every `Bar`, in stream order:
    /// the places a warp's lanes can rest, since lanes wait one past a
    /// barrier for its release.
    pub(crate) fn runs(&self, k: &Kernel) -> Vec<Range<usize>> {
        let mut runs = Vec::with_capacity(self.blocks.len());
        for b in &self.blocks {
            let mut start = b.start;
            for pc in b.start..b.end - 1 {
                if matches!(k.insts[pc], Inst::Bar) {
                    runs.push(start..pc + 1);
                    start = pc + 1;
                }
            }
            runs.push(start..b.end);
        }
        runs
    }
}

// ---------------------------------------------------------------------------
// Bitsets for postdominators
// ---------------------------------------------------------------------------

#[derive(Clone, PartialEq)]
pub(crate) struct BitSet(Vec<u64>);

impl BitSet {
    pub(crate) fn empty(n: usize) -> Self {
        BitSet(vec![0; n.div_ceil(64)])
    }
    pub(crate) fn full(n: usize) -> Self {
        let mut s = BitSet(vec![!0u64; n.div_ceil(64)]);
        if !n.is_multiple_of(64) {
            *s.0.last_mut().unwrap() = (1u64 << (n % 64)) - 1;
        }
        s
    }
    pub(crate) fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
    pub(crate) fn has(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }
    pub(crate) fn intersect(&mut self, other: &BitSet) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a &= b;
        }
    }
}

/// Iterative postdominator sets over the CFG plus a virtual exit node.
pub(crate) fn postdominators(cfg: &Cfg) -> Vec<BitSet> {
    let nb = cfg.blocks.len();
    let n = nb + 1;
    let mut pdom: Vec<BitSet> = (0..n).map(|_| BitSet::full(n)).collect();
    pdom[nb] = BitSet::empty(n);
    pdom[nb].set(nb);
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            let mut new = BitSet::full(n);
            for &s in &cfg.blocks[b].succs {
                new.intersect(&pdom[s]);
            }
            new.set(b);
            if new != pdom[b] {
                pdom[b] = new;
                changed = true;
            }
        }
    }
    pdom
}

/// `deps[x]` = conditional branches `x` is control-dependent on, as
/// `(branch_block, edge_index)` with edge 0 = taken, 1 = fallthrough.
pub(crate) fn control_deps(cfg: &Cfg, pdom: &[BitSet]) -> Vec<Vec<(usize, usize)>> {
    let nb = cfg.blocks.len();
    let mut deps: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nb];
    for b in 0..nb {
        if cfg.blocks[b].succs.len() < 2 {
            continue;
        }
        for (e, &s) in cfg.blocks[b].succs.iter().enumerate() {
            for (x, dep) in deps.iter_mut().enumerate() {
                let strictly_postdominates = x != b && pdom[b].has(x);
                if pdom[s].has(x) && !strictly_postdominates {
                    dep.push((b, e));
                }
            }
        }
    }
    deps
}

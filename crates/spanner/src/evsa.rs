//! The block normal form of VSet-automata ("eVSA").
//!
//! In a *valid* ref-word the variable operations between two document
//! bytes form a duplicate-free set, and reordering them does not change
//! the denoted tuple. The eVSA representation makes this canonical:
//! transitions consume one `(block, byte)` pair where the *block* is a
//! `≺`-sorted set of operations performed just before the byte, and
//! acceptance consumes a final block at the end of the document. This is
//! the same idea as the extended VSet-automata of Florenzano et al.
//! (paper footnote 7).
//!
//! The form is closed under, and makes straightforward, the spanner
//! algebra of Fagin et al. used throughout the paper: union, projection,
//! and natural join (Definition A.1), and it expands to order-normalized
//! ref-word NFAs over an [`ExtAlphabet`] — the bridge to every decision
//! procedure. The expansion shares operation prefixes (a trie per state),
//! so deterministic VSet-automata expand to deterministic NFAs and the
//! NL/PTIME fast paths of Theorems 4.3, 5.7 and 5.17 materialize.

use crate::byteset::ByteSet;
use crate::ext::ExtAlphabet;
use crate::vars::{VarMap, VarOp, VarTable};
use crate::vsa::{Label, VarConfig, Vsa};
use splitc_automata::nfa::{Nfa, StateId, Sym};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Interned, `≺`-sorted operation block.
pub type Block = Arc<[VarOp]>;

/// A VSet-automaton in block normal form. Only represents *functional*
/// spanners (each accepted run denotes a valid ref-word); construct via
/// [`EVsa::from_functional`] after [`Vsa::functionalize`].
#[derive(Debug, Clone)]
pub struct EVsa {
    vars: VarTable,
    /// `trans[q]` lists `(block, byte set, target)`.
    trans: Vec<Vec<(Block, ByteSet, StateId)>>,
    /// `finals[q]` lists the blocks with which `q` accepts at document
    /// end.
    finals: Vec<Vec<Block>>,
    start: StateId,
}

impl EVsa {
    /// The variable table.
    pub fn vars(&self) -> &VarTable {
        &self.vars
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.trans.len()
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Transitions from `q`.
    pub fn transitions_from(&self, q: StateId) -> &[(Block, ByteSet, StateId)] {
        &self.trans[q as usize]
    }

    /// Final blocks of `q`.
    pub fn final_blocks(&self, q: StateId) -> &[Block] {
        &self.finals[q as usize]
    }

    /// All byte sets on transitions.
    pub fn byte_masks(&self) -> Vec<ByteSet> {
        let mut out = Vec::new();
        for ts in &self.trans {
            for (_, m, _) in ts {
                out.push(*m);
            }
        }
        out
    }

    /// Converts any VSet-automaton into block normal form: trimmed when
    /// already functional, functionalized otherwise — the normalization
    /// every compiled spanner, fleet member and splitter goes through.
    pub fn from_vsa(vsa: &Vsa) -> EVsa {
        if vsa.is_functional() {
            EVsa::from_functional(&vsa.trim())
        } else {
            EVsa::from_functional(&vsa.functionalize())
        }
    }

    /// Converts a **functional** VSet-automaton (see
    /// [`Vsa::is_functional`]) into block normal form. Operation/ε paths
    /// between byte transitions are collected into blocks; configurations
    /// ensure termination (each operation occurs at most once per valid
    /// run).
    pub fn from_functional(vsa: &Vsa) -> EVsa {
        debug_assert!(
            vsa.is_functional(),
            "EVsa::from_functional requires a functional automaton; call functionalize() first"
        );
        let n = vsa.num_states();
        let mut trans: Vec<Vec<(Block, ByteSet, StateId)>> = vec![Vec::new(); n];
        let mut finals: Vec<Vec<Block>> = vec![Vec::new(); n];
        let mut block_intern: HashMap<Vec<VarOp>, Block> = HashMap::new();
        let mut intern = |mut ops: Vec<VarOp>| -> Block {
            ops.sort_unstable();
            block_intern
                .entry(ops.clone())
                .or_insert_with(|| ops.into())
                .clone()
        };

        for q in 0..n as StateId {
            // Explore ε/op paths from q; collect (op multiset, state)
            // pairs that sit in front of a byte transition or acceptance.
            // Validity: an op may appear at most once on a path (tracked
            // via VarConfig deltas starting from all-Waiting "relative"
            // config — in a functional automaton ops on any valid path
            // are distinct, so a repeat would be invalid and is pruned).
            let mut seen: Vec<(StateId, Vec<VarOp>)> = Vec::new();
            let mut queue: VecDeque<(StateId, Vec<VarOp>, VarConfig)> = VecDeque::new();
            queue.push_back((q, Vec::new(), VarConfig::initial()));
            seen.push((q, Vec::new()));
            while let Some((r, ops, cfg)) = queue.pop_front() {
                // Byte transitions and acceptance at r.
                for &(l, r2) in vsa.transitions_from(r) {
                    match l {
                        Label::Bytes(m) => {
                            trans[q as usize].push((intern(ops.clone()), m, r2));
                        }
                        Label::Eps => {
                            let key = (r2, ops.clone());
                            if !seen.contains(&key) {
                                seen.push(key);
                                queue.push_back((r2, ops.clone(), cfg));
                            }
                        }
                        Label::Op(op) => {
                            // Repeating or contradictory ops relative to
                            // the block path would be invalid in any run.
                            let Some(ncfg) = relative_apply(cfg, op) else {
                                continue;
                            };
                            let mut nops = ops.clone();
                            nops.push(op);
                            let key = (r2, {
                                let mut s = nops.clone();
                                s.sort_unstable();
                                s
                            });
                            if !seen.contains(&key) {
                                seen.push(key);
                                queue.push_back((r2, nops, ncfg));
                            }
                        }
                    }
                }
                if vsa.is_final(r) {
                    let b = intern(ops.clone());
                    if !finals[q as usize].contains(&b) {
                        finals[q as usize].push(b);
                    }
                }
            }
            trans[q as usize]
                .sort_by(|a, b| (a.0.as_ref(), a.1, a.2).cmp(&(b.0.as_ref(), b.1, b.2)));
            trans[q as usize].dedup();
        }
        EVsa {
            vars: vsa.vars().clone(),
            trans,
            finals,
            start: vsa.start(),
        }
    }

    /// Expands to an order-normalized ref-word NFA over the extended
    /// alphabet: each `(block, byte)` transition becomes a chain of
    /// operation symbols (already `≺`-sorted) followed by one symbol per
    /// byte class of the byte set; final blocks become chains into an
    /// accepting sink. Chains leaving the same state share prefixes, so
    /// determinism of the source automaton is preserved.
    ///
    /// The alphabet must refine this automaton's byte masks (build it with
    /// [`ExtAlphabet::for_automata`] over all participating automata).
    pub fn to_nfa(&self, ext: &ExtAlphabet) -> Nfa {
        assert_eq!(
            ext.vars().names(),
            self.vars.names(),
            "alphabet variable table must match the automaton"
        );
        let mut nfa = Nfa::new(ext.alphabet_size());
        // One NFA state per eVSA state, then trie states.
        for _ in 0..self.num_states() {
            nfa.add_state();
        }
        nfa.add_start(self.start);
        for q in 0..self.num_states() as StateId {
            // Trie of op sequences rooted at q.
            let mut trie: HashMap<(StateId, Sym), StateId> = HashMap::new();
            let mut walk = |nfa: &mut Nfa, from: StateId, ops: &[VarOp]| -> StateId {
                let mut cur = from;
                for &op in ops {
                    let sym = ext.op_sym(op);
                    cur = *trie.entry((cur, sym)).or_insert_with(|| {
                        let s = nfa.add_state();
                        nfa.add_transition(cur, sym, s);
                        s
                    });
                }
                cur
            };
            for (block, mask, target) in &self.trans[q as usize] {
                let tail = walk(&mut nfa, q, block);
                for sym in ext.class_syms(mask) {
                    nfa.add_transition(tail, sym, *target);
                }
            }
            for block in &self.finals[q as usize] {
                let tail = walk(&mut nfa, q, block);
                nfa.set_final(tail, true);
            }
        }
        nfa
    }

    // ------------------------------------------------------------------
    // Spanner algebra (Definition A.1).
    // ------------------------------------------------------------------

    /// Union of union-compatible spanners.
    pub fn union(&self, other: &EVsa) -> Result<EVsa, String> {
        if self.vars.names() != other.vars.names() {
            return Err("union requires identical variables".into());
        }
        let mut out = self.clone();
        let off = out.num_states() as StateId;
        for q in 0..other.num_states() {
            out.trans.push(
                other.trans[q]
                    .iter()
                    .map(|(b, m, r)| (b.clone(), *m, off + r))
                    .collect(),
            );
            out.finals.push(other.finals[q].clone());
        }
        // Fresh start replicating both starts (no ε in this form).
        let s = out.trans.len() as StateId;
        let mut s_trans: Vec<(Block, ByteSet, StateId)> = out.trans[out.start as usize].clone();
        s_trans.extend(out.trans[(off + other.start) as usize].iter().cloned());
        let mut s_finals = out.finals[out.start as usize].clone();
        for b in &out.finals[(off + other.start) as usize] {
            if !s_finals.contains(b) {
                s_finals.push(b.clone());
            }
        }
        out.trans.push(s_trans);
        out.finals.push(s_finals);
        out.start = s;
        Ok(out)
    }

    /// Projection `π_Y`: drops the operations of all variables outside
    /// `keep` (given by name).
    pub fn project(&self, keep: &[&str]) -> Result<EVsa, String> {
        let mut ids = Vec::new();
        for name in keep {
            ids.push(
                self.vars
                    .lookup(name)
                    .ok_or_else(|| format!("unknown variable {name}"))?,
            );
        }
        ids.sort_unstable();
        let (table, map) = self.vars.project(&ids);
        let remap_block = |b: &Block| -> Block {
            let mut ops: Vec<VarOp> = b.iter().filter_map(|op| map.map_op(*op)).collect();
            ops.sort_unstable();
            ops.into()
        };
        let trans = self
            .trans
            .iter()
            .map(|ts| {
                ts.iter()
                    .map(|(b, m, r)| (remap_block(b), *m, *r))
                    .collect()
            })
            .collect();
        let finals = self
            .finals
            .iter()
            .map(|bs| {
                let mut out: Vec<Block> = bs.iter().map(remap_block).collect();
                out.sort_by(|a, b| a.as_ref().cmp(b.as_ref()));
                out.dedup();
                out
            })
            .collect();
        Ok(EVsa {
            vars: table,
            trans,
            finals,
            start: self.start,
        })
    }

    /// Natural join `P₁ ⋈ P₂` (Definition A.1): tuples of the product
    /// that agree on the shared variables. Blocks must agree on shared
    /// variables' operations position-by-position; the joined block is
    /// the union.
    pub fn join(&self, other: &EVsa) -> EVsa {
        let (table, map_a, map_b) = self.vars.merge(other.vars());
        let shared: Vec<VarOp> = {
            // Ops of shared variables in the merged table.
            let shared_vars = self.vars.shared(other.vars());
            let mut v = Vec::new();
            for sv in shared_vars {
                let m = map_a.get(sv).expect("merged");
                v.push(VarOp::Open(m));
                v.push(VarOp::Close(m));
            }
            v
        };
        let remap = |b: &Block, map: &VarMap| -> Vec<VarOp> {
            b.iter()
                .map(|op| map.map_op(*op).expect("merge is total"))
                .collect()
        };
        let combine = |ba: &Block, bb: &Block| -> Option<Block> {
            let a: Vec<VarOp> = remap(ba, &map_a);
            let b: Vec<VarOp> = remap(bb, &map_b);
            // Agreement on shared ops.
            for op in &shared {
                if a.contains(op) != b.contains(op) {
                    return None;
                }
            }
            let mut u = a;
            for op in b {
                if !u.contains(&op) {
                    u.push(op);
                }
            }
            u.sort_unstable();
            Some(u.into())
        };

        let mut out = EVsa {
            vars: table,
            trans: Vec::new(),
            finals: Vec::new(),
            start: 0,
        };
        let mut map: HashMap<(StateId, StateId), StateId> = HashMap::new();
        let mut queue: VecDeque<(StateId, StateId)> = VecDeque::new();
        let sid = 0;
        out.trans.push(Vec::new());
        out.finals.push(Vec::new());
        map.insert((self.start, other.start), sid);
        queue.push_back((self.start, other.start));
        while let Some((q1, q2)) = queue.pop_front() {
            let id = map[&(q1, q2)];
            let mut new_trans: Vec<(Block, ByteSet, StateId)> = Vec::new();
            for (b1, m1, r1) in &self.trans[q1 as usize] {
                for (b2, m2, r2) in &other.trans[q2 as usize] {
                    let m = m1.and(m2);
                    if m.is_empty() {
                        continue;
                    }
                    let Some(block) = combine(b1, b2) else {
                        continue;
                    };
                    let rid = *map.entry((*r1, *r2)).or_insert_with(|| {
                        let rid = out.trans.len() as StateId;
                        out.trans.push(Vec::new());
                        out.finals.push(Vec::new());
                        queue.push_back((*r1, *r2));
                        rid
                    });
                    new_trans.push((block, m, rid));
                }
            }
            let mut new_finals: Vec<Block> = Vec::new();
            for b1 in &self.finals[q1 as usize] {
                for b2 in &other.finals[q2 as usize] {
                    if let Some(block) = combine(b1, b2) {
                        if !new_finals.contains(&block) {
                            new_finals.push(block);
                        }
                    }
                }
            }
            out.trans[id as usize] = new_trans;
            out.finals[id as usize] = new_finals;
        }
        out
    }

    /// Whether the normalized expansion would be deterministic: at most
    /// one continuation per (state, next extended symbol). This matches
    /// the paper's dfVSA after conversion.
    pub fn is_deterministic(&self) -> bool {
        for q in 0..self.num_states() {
            // First symbols of all outgoing items must be unique-ish:
            // group items by first op (or byte class); deeper conflicts
            // are found recursively via the expansion — cheap and exact:
            // expand and check.
            let _ = q;
        }
        let ext = ExtAlphabet::from_masks(self.vars.clone(), &self.byte_masks());
        let nfa = self.to_nfa(&ext);
        // Deterministic: single start and no state with two transitions
        // on the same symbol to different targets.
        for q in 0..nfa.num_states() as StateId {
            let mut seen: HashMap<Sym, StateId> = HashMap::new();
            for &(s, r) in nfa.transitions_from(q) {
                if let Some(&prev) = seen.get(&s) {
                    if prev != r {
                        return false;
                    }
                } else {
                    seen.insert(s, r);
                }
            }
        }
        true
    }
}

/// Applies an operation to a *relative* configuration where `Waiting`
/// means "not seen in this block path". Within one block an op may occur
/// at most once, an open must precede its close, and a close without a
/// preceding open in the block is allowed (the open happened earlier in
/// the run) — encoded by treating `Close` on `Waiting` as jumping to
/// `Closed`.
fn relative_apply(cfg: VarConfig, op: VarOp) -> Option<VarConfig> {
    use crate::vsa::VarStatus;
    match op {
        VarOp::Open(v) if cfg.get(v) == VarStatus::Waiting => cfg.apply(op),
        VarOp::Open(_) => None,
        VarOp::Close(v) => match cfg.get(v) {
            VarStatus::Closed => None,
            _ => cfg.apply(op).or_else(|| {
                // Close on Waiting: mark closed directly.
                cfg.apply(VarOp::Open(v)).and_then(|c| c.apply(op))
            }),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_evsa;
    use crate::rgx::Rgx;
    use crate::span::Span;
    use crate::vars::VarId;

    fn compile(pattern: &str) -> EVsa {
        let vsa = Rgx::parse(pattern).unwrap().to_vsa().unwrap();
        EVsa::from_functional(&vsa.functionalize())
    }

    #[test]
    fn from_functional_basic() {
        let e = compile("x{a+}b");
        let rel = eval_evsa(&e, b"aab");
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuple(0).get(VarId(0)), Span::new(0, 2));
    }

    #[test]
    fn union_combines_outputs() {
        let a = compile("x{a}b");
        let b = compile("a(x{b})");
        let u = a.union(&b).unwrap();
        let rel = eval_evsa(&u, b"ab");
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn union_rejects_incompatible() {
        let a = compile("x{a}");
        let b = compile("y{a}");
        assert!(a.union(&b).is_err());
    }

    #[test]
    fn projection_drops_variable() {
        let e = compile("x{a}y{b}");
        let p = e.project(&["y"]).unwrap();
        assert_eq!(p.vars().names(), &["y"]);
        let rel = eval_evsa(&p, b"ab");
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuple(0).get(VarId(0)), Span::new(1, 2));
        assert!(e.project(&["z"]).is_err());
    }

    #[test]
    fn join_agrees_on_shared_variables() {
        // P1 = x{a}y{b}, P2 = y{b}z{c} on "abc": join assigns x=[0,1),
        // y=[1,2), z=[2,3). P2 must be shifted: y{b}z{c} only matches the
        // document "bc", so embed in context: (.)y{b}z{c} won't bind —
        // use Σ-prefixed variants.
        let p1 = compile("x{a}y{b}c");
        let p2 = compile("a(y{b})z{c}");
        let j = p1.join(&p2);
        assert_eq!(j.vars().names(), &["x", "y", "z"]);
        let rel = eval_evsa(&j, b"abc");
        assert_eq!(rel.len(), 1);
        let t = rel.tuple(0);
        assert_eq!(t.get(j.vars().lookup("x").unwrap()), Span::new(0, 1));
        assert_eq!(t.get(j.vars().lookup("y").unwrap()), Span::new(1, 2));
        assert_eq!(t.get(j.vars().lookup("z").unwrap()), Span::new(2, 3));
    }

    #[test]
    fn join_empty_when_shared_disagree() {
        // P1 puts y on the first byte, P2 puts y on the second: no tuple
        // agrees.
        let p1 = compile("y{a}b");
        let p2 = compile("a(y{b})");
        let j = p1.join(&p2);
        assert!(eval_evsa(&j, b"ab").is_empty());
    }

    #[test]
    fn join_is_intersection_for_boolean() {
        let p1 = compile("a(a|b)*");
        let p2 = compile("(a|b)*b");
        let j = p1.join(&p2);
        assert_eq!(eval_evsa(&j, b"ab").len(), 1);
        assert!(eval_evsa(&j, b"ba").is_empty());
        assert!(eval_evsa(&j, b"aa").is_empty());
    }

    #[test]
    fn deterministic_detection() {
        let det = compile("a(x{b})");
        assert!(det.is_deterministic());
        // Note: in ref-word semantics the choice of where to open a
        // variable is an explicit symbol, so "x{a}a|a(x{a})" is in fact
        // deterministic. Genuine nondeterminism needs two transitions on
        // the *same* extended symbol:
        let also_det = compile("x{a}a|a(x{a})");
        assert!(also_det.is_deterministic());
        let nondet = compile("x{a}a|x{aa}");
        assert!(!nondet.is_deterministic());
    }

    #[test]
    fn to_nfa_accepts_normalized_refwords() {
        let e = compile("x{a}");
        let ext = ExtAlphabet::from_masks(e.vars().clone(), &e.byte_masks());
        let nfa = e.to_nfa(&ext);
        let w = vec![
            ext.op_sym(VarOp::Open(VarId(0))),
            ext.class_sym_of_byte(b'a'),
            ext.op_sym(VarOp::Close(VarId(0))),
        ];
        assert!(nfa.accepts(&w));
        // Non-normalized order (close before open) is not accepted.
        let bad = vec![
            ext.op_sym(VarOp::Close(VarId(0))),
            ext.class_sym_of_byte(b'a'),
            ext.op_sym(VarOp::Open(VarId(0))),
        ];
        assert!(!nfa.accepts(&bad));
    }
}

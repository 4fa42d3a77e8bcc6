//! Internal helpers shared by the decision procedures: raw ref-word NFA
//! encodings of classic VSet-automata, alphabet lifting, and witness
//! decoding.

use splitc_automata::nfa::{Nfa, StateId, Sym};
use splitc_spanner::evsa::EVsa;
use splitc_spanner::ext::{ExtAlphabet, ExtSym};
use splitc_spanner::span::Span;
use splitc_spanner::tuple::SpanTuple;
use splitc_spanner::vars::{VarId, VarOp, VarTable};
use splitc_spanner::vsa::{Label, Vsa};

/// Encodes a classic VSet-automaton as a *raw* NFA over an extended
/// alphabet: byte sets become byte-class symbols, operations become
/// operation symbols, ε stays ε. No normalization or validity filtering
/// is applied — used by constructions (Prop. 5.9) that manipulate the
/// ref-word language structurally.
///
/// The automaton's variables must be a subset of `ext`'s (by name);
/// operations are remapped accordingly.
pub fn raw_ext_nfa(vsa: &Vsa, ext: &ExtAlphabet) -> Nfa {
    let remap = var_remap(vsa.vars(), ext.vars());
    let mut nfa = Nfa::new(ext.alphabet_size());
    for _ in 0..vsa.num_states() {
        nfa.add_state();
    }
    nfa.add_start(vsa.start());
    for q in 0..vsa.num_states() as StateId {
        nfa.set_final(q, vsa.is_final(q));
        for &(l, r) in vsa.transitions_from(q) {
            match l {
                Label::Eps => nfa.add_eps(q, r),
                Label::Op(op) => nfa.add_transition(q, ext.op_sym(remap_op(op, &remap)), r),
                Label::Bytes(m) => {
                    for s in ext.class_syms(&m) {
                        nfa.add_transition(q, s, r);
                    }
                }
            }
        }
    }
    nfa
}

/// Expands a block-normal-form automaton into its order-normalized
/// ref-word NFA over a (possibly larger) extended alphabet, remapping
/// variables by name and adding self-loops on the given foreign symbols
/// at **every** state (so foreign operations may interleave anywhere).
pub fn lifted_nfa(evsa: &EVsa, ext: &ExtAlphabet, self_loops: &[Sym]) -> Nfa {
    let remap = var_remap(evsa.vars(), ext.vars());
    let mut nfa = Nfa::new(ext.alphabet_size());
    for _ in 0..evsa.num_states() {
        nfa.add_state();
    }
    nfa.add_start(evsa.start());
    for q in 0..evsa.num_states() as StateId {
        let mut trie: std::collections::HashMap<(StateId, Sym), StateId> =
            std::collections::HashMap::new();
        let mut walk = |nfa: &mut Nfa, from: StateId, ops: &[VarOp]| -> StateId {
            let mut cur = from;
            for &op in ops {
                let sym = ext.op_sym(remap_op(op, &remap));
                cur = *trie.entry((cur, sym)).or_insert_with(|| {
                    let s = nfa.add_state();
                    nfa.add_transition(cur, sym, s);
                    s
                });
            }
            cur
        };
        for (block, mask, target) in evsa.transitions_from(q) {
            let tail = walk(&mut nfa, q, block);
            for s in ext.class_syms(mask) {
                nfa.add_transition(tail, s, *target);
            }
        }
        for block in evsa.final_blocks(q) {
            let tail = walk(&mut nfa, q, block);
            nfa.set_final(tail, true);
        }
    }
    if !self_loops.is_empty() {
        for q in 0..nfa.num_states() as StateId {
            for &s in self_loops {
                nfa.add_transition(q, s, q);
            }
        }
    }
    nfa
}

/// Variable remapping by name; panics when a variable is missing from the
/// target table (an internal invariant of the constructions).
pub fn var_remap(from: &VarTable, to: &VarTable) -> Vec<VarId> {
    from.names()
        .iter()
        .map(|n| {
            to.lookup(n)
                .expect("target table must contain all variables")
        })
        .collect()
}

fn remap_op(op: VarOp, remap: &[VarId]) -> VarOp {
    match op {
        VarOp::Open(v) => VarOp::Open(remap[v.index()]),
        VarOp::Close(v) => VarOp::Close(remap[v.index()]),
    }
}

/// Picks a variable name not present in `table` (used for the splitter
/// variable in merged alphabets).
pub fn fresh_var_name(table: &VarTable, base: &str) -> String {
    if table.lookup(base).is_none() {
        return base.to_string();
    }
    let mut i = 0usize;
    loop {
        let cand = format!("{base}_{i}");
        if table.lookup(&cand).is_none() {
            return cand;
        }
        i += 1;
    }
}

/// Decodes a witness word over an extended alphabet with variables
/// `V ∪ {x}` into `(document, tuple over V, split span)`. Returns `None`
/// when the word does not contain a complete `x` window or a valid
/// `V`-tuple (should not happen for words from the guarded products).
pub fn decode_split_witness(
    ext: &ExtAlphabet,
    x: VarId,
    p_vars: &VarTable,
    word: &[Sym],
) -> Option<(Vec<u8>, SpanTuple, Span)> {
    let mut doc = Vec::new();
    let nv = p_vars.len();
    let mut opens = vec![usize::MAX; nv];
    let mut closes = vec![usize::MAX; nv];
    let mut x_open = usize::MAX;
    let mut x_close = usize::MAX;
    // Map from merged-table ids to P-table ids.
    let merged_to_p: Vec<Option<VarId>> = ext
        .vars()
        .names()
        .iter()
        .map(|n| p_vars.lookup(n))
        .collect();
    for &s in word {
        match ext.decode(s) {
            ExtSym::Class(c) => doc.push(c.first().expect("classes are non-empty")),
            ExtSym::Op(op) => {
                let pos = doc.len();
                let v = op.var();
                if v == x {
                    if op.is_open() {
                        x_open = pos;
                    } else {
                        x_close = pos;
                    }
                } else if let Some(pv) = merged_to_p[v.index()] {
                    if op.is_open() {
                        opens[pv.index()] = pos;
                    } else {
                        closes[pv.index()] = pos;
                    }
                }
            }
        }
    }
    if x_open == usize::MAX || x_close == usize::MAX {
        return None;
    }
    let mut spans = Vec::with_capacity(nv);
    for i in 0..nv {
        if opens[i] == usize::MAX || closes[i] == usize::MAX || opens[i] > closes[i] {
            return None;
        }
        spans.push(Span::new(opens[i], closes[i]));
    }
    Some((doc, SpanTuple::new(spans), Span::new(x_open, x_close)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_spanner::rgx::Rgx;

    #[test]
    fn raw_nfa_accepts_unnormalized_refwords() {
        let v = Rgx::parse("x{a}").unwrap().to_vsa().unwrap();
        let ext = ExtAlphabet::for_automata(v.vars(), &[&v]);
        let n = raw_ext_nfa(&v, &ext);
        let x = VarId(0);
        let w = vec![
            ext.op_sym(VarOp::Open(x)),
            ext.class_sym_of_byte(b'a'),
            ext.op_sym(VarOp::Close(x)),
        ];
        assert!(n.accepts(&w));
    }

    #[test]
    fn fresh_var_name_avoids_collisions() {
        let t = VarTable::new(["x", "x_0"]).unwrap();
        assert_eq!(fresh_var_name(&t, "x"), "x_1");
        assert_eq!(fresh_var_name(&t, "y"), "y");
    }

    #[test]
    fn lifted_nfa_self_loops() {
        let v = Rgx::parse("y{a}").unwrap().to_vsa().unwrap();
        let e = EVsa::from_vsa(&v);
        let merged = VarTable::new(["x", "y"]).unwrap();
        let ext = ExtAlphabet::from_masks(merged.clone(), &v.byte_masks());
        let x = merged.lookup("x").unwrap();
        let loops = vec![ext.op_sym(VarOp::Open(x)), ext.op_sym(VarOp::Close(x))];
        let n = lifted_nfa(&e, &ext, &loops);
        let y = merged.lookup("y").unwrap();
        // x⊢ y⊢ a ⊣y ⊣x accepted thanks to the self-loops.
        let w = vec![
            ext.op_sym(VarOp::Open(x)),
            ext.op_sym(VarOp::Open(y)),
            ext.class_sym_of_byte(b'a'),
            ext.op_sym(VarOp::Close(y)),
            ext.op_sym(VarOp::Close(x)),
        ];
        assert!(n.accepts(&w));
    }
}

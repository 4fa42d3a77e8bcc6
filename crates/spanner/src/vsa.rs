//! Classic VSet-automata (paper §4.2).
//!
//! A VSet-automaton is an ε-NFA over the extended alphabet `Σ ∪ Γ_V`:
//! transitions are labeled with byte sets (compact encoding of sets of
//! `Σ`-transitions), with ε, or with variable operations. Its ref-word
//! language `R(A)` is the accepted language over the extended alphabet;
//! the spanner `⟦A⟧` maps a document `d` to the tuples of the *valid*
//! ref-words in `R(A)` that `clr` maps to `d`.
//!
//! The module implements, following the paper:
//!
//! * functionality (`R(A) = Ref(A)`) testing — [`Vsa::is_functional`];
//! * functionalization via the variable-configuration monitor
//!   ([`Vsa::functionalize`], the 3^|V| product underlying Prop. 4.4);
//! * weak determinism (Maturana et al.) and the paper's stronger
//!   determinism with the fixed operation order `≺` —
//!   [`Vsa::is_weakly_deterministic`], [`Vsa::is_deterministic`];
//! * determinization to a deterministic functional VSet-automaton
//!   ([`Vsa::determinize`], Prop. 4.4);
//! * the spanner-algebra operations needed by the decision procedures:
//!   union, variable wrapping `x{P}`, and concatenation with regular
//!   languages (Definition A.1/A.2, Lemma A.3).

use crate::byteset::ByteSet;
use crate::evsa::EVsa;
use crate::ext::ExtAlphabet;
use crate::vars::{VarId, VarMap, VarOp, VarTable};
use splitc_automata::nfa::StateId;
use std::collections::{HashMap, VecDeque};

/// A transition label of a VSet-automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// ε-transition.
    Eps,
    /// Variable operation.
    Op(VarOp),
    /// Any byte in the set (compactly encodes a family of Σ-transitions).
    Bytes(ByteSet),
}

/// A classic VSet-automaton.
#[derive(Debug, Clone)]
pub struct Vsa {
    vars: VarTable,
    trans: Vec<Vec<(Label, StateId)>>,
    start: StateId,
    finals: Vec<bool>,
}

/// Per-variable status inside the configuration monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarStatus {
    /// Not yet opened.
    Waiting,
    /// Opened, not yet closed.
    Open,
    /// Closed.
    Closed,
}

/// A variable configuration: status of every variable, packed 2 bits per
/// variable (limits |V| to 32, far beyond any IE program in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarConfig(u64);

impl VarConfig {
    /// All variables waiting.
    pub fn initial() -> VarConfig {
        VarConfig(0)
    }

    /// Status of variable `v`.
    pub fn get(self, v: VarId) -> VarStatus {
        match (self.0 >> (2 * v.index())) & 3 {
            0 => VarStatus::Waiting,
            1 => VarStatus::Open,
            _ => VarStatus::Closed,
        }
    }

    fn set(self, v: VarId, st: VarStatus) -> VarConfig {
        let code = match st {
            VarStatus::Waiting => 0u64,
            VarStatus::Open => 1,
            VarStatus::Closed => 2,
        };
        let shift = 2 * v.index();
        VarConfig((self.0 & !(3 << shift)) | (code << shift))
    }

    /// Applies an operation if legal; `None` when the operation would make
    /// the ref-word invalid (double open, close before open, …).
    pub fn apply(self, op: VarOp) -> Option<VarConfig> {
        match op {
            VarOp::Open(v) if self.get(v) == VarStatus::Waiting => {
                Some(self.set(v, VarStatus::Open))
            }
            VarOp::Close(v) if self.get(v) == VarStatus::Open => {
                Some(self.set(v, VarStatus::Closed))
            }
            _ => None,
        }
    }

    /// Whether every variable is closed (validity at acceptance).
    pub fn all_closed(self, num_vars: usize) -> bool {
        (0..num_vars).all(|i| self.get(VarId(i as u32)) == VarStatus::Closed)
    }
}

impl Vsa {
    /// Creates an automaton with one (start) state and the given
    /// variables.
    pub fn new(vars: VarTable) -> Vsa {
        assert!(vars.len() <= 32, "at most 32 variables are supported");
        Vsa {
            vars,
            trans: vec![Vec::new()],
            start: 0,
            finals: vec![false],
        }
    }

    /// The variable table (`SVars(A)`).
    #[inline]
    pub fn vars(&self) -> &VarTable {
        &self.vars
    }

    /// Number of states.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.trans.len()
    }

    /// Number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.trans.iter().map(Vec::len).sum()
    }

    /// The start state.
    #[inline]
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Whether `q` accepts.
    #[inline]
    pub fn is_final(&self, q: StateId) -> bool {
        self.finals[q as usize]
    }

    /// Transitions leaving `q`.
    #[inline]
    pub fn transitions_from(&self, q: StateId) -> &[(Label, StateId)] {
        &self.trans[q as usize]
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> StateId {
        let id = self.trans.len() as StateId;
        self.trans.push(Vec::new());
        self.finals.push(false);
        id
    }

    /// Marks a state accepting.
    pub fn set_final(&mut self, q: StateId, f: bool) {
        self.finals[q as usize] = f;
    }

    /// Sets the start state.
    pub fn set_start(&mut self, q: StateId) {
        self.start = q;
    }

    /// Adds a transition.
    pub fn add_transition(&mut self, from: StateId, label: Label, to: StateId) {
        if let Label::Op(op) = label {
            assert!(
                op.var().index() < self.vars.len(),
                "operation on unknown variable"
            );
        }
        if let Label::Bytes(m) = label {
            if m.is_empty() {
                return; // empty byte set: no transition
            }
        }
        self.trans[from as usize].push((label, to));
    }

    /// Convenience: transition on a single byte.
    pub fn add_byte(&mut self, from: StateId, b: u8, to: StateId) {
        self.add_transition(from, Label::Bytes(ByteSet::single(b)), to);
    }

    /// All accepting states.
    pub fn final_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.finals
            .iter()
            .enumerate()
            .filter(|(_, f)| **f)
            .map(|(q, _)| q as StateId)
    }

    /// All byte sets used on transitions (for byte-class computation).
    pub fn byte_masks(&self) -> Vec<ByteSet> {
        let mut out = Vec::new();
        for ts in &self.trans {
            for (l, _) in ts {
                if let Label::Bytes(m) = l {
                    out.push(*m);
                }
            }
        }
        out
    }

    /// Removes states that are not reachable from the start or cannot
    /// reach an accepting state.
    pub fn trim(&self) -> Vsa {
        let n = self.num_states();
        // Forward reachability.
        let mut fwd = vec![false; n];
        let mut queue = VecDeque::new();
        fwd[self.start as usize] = true;
        queue.push_back(self.start);
        while let Some(q) = queue.pop_front() {
            for &(_, r) in &self.trans[q as usize] {
                if !fwd[r as usize] {
                    fwd[r as usize] = true;
                    queue.push_back(r);
                }
            }
        }
        // Backward.
        let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); n];
        for q in 0..n {
            for &(_, r) in &self.trans[q] {
                rev[r as usize].push(q as StateId);
            }
        }
        let mut bwd = vec![false; n];
        for (q, (b, &fin)) in bwd.iter_mut().zip(self.finals.iter()).enumerate() {
            if fin {
                *b = true;
                queue.push_back(q as StateId);
            }
        }
        while let Some(q) = queue.pop_front() {
            for &r in &rev[q as usize] {
                if !bwd[r as usize] {
                    bwd[r as usize] = true;
                    queue.push_back(r);
                }
            }
        }
        let mut remap: Vec<Option<StateId>> = vec![None; n];
        let mut out = Vsa::new(self.vars.clone());
        // Keep the start state even if dead (automaton must have a start).
        out.finals[0] = self.finals[self.start as usize]
            && fwd[self.start as usize]
            && bwd[self.start as usize];
        remap[self.start as usize] = Some(0);
        for q in 0..n {
            if q != self.start as usize && fwd[q] && bwd[q] {
                let id = out.add_state();
                out.finals[id as usize] = self.finals[q];
                remap[q] = Some(id);
            }
        }
        for q in 0..n {
            let Some(nq) = remap[q] else { continue };
            if !(fwd[q] && bwd[q]) {
                continue;
            }
            for &(l, r) in &self.trans[q] {
                if let Some(nr) = remap[r as usize] {
                    if fwd[r as usize] && bwd[r as usize] {
                        out.trans[nq as usize].push((l, nr));
                    }
                }
            }
        }
        out
    }

    /// Computes, for each state of the **trimmed** automaton, the set of
    /// variable configurations with which it is reachable. Used by the
    /// functionality check.
    fn reachable_configs(&self) -> Vec<Vec<VarConfig>> {
        let mut configs: Vec<Vec<VarConfig>> = vec![Vec::new(); self.num_states()];
        let mut queue: VecDeque<(StateId, VarConfig)> = VecDeque::new();
        let init = VarConfig::initial();
        configs[self.start as usize].push(init);
        queue.push_back((self.start, init));
        while let Some((q, c)) = queue.pop_front() {
            for &(l, r) in &self.trans[q as usize] {
                let next = match l {
                    Label::Eps | Label::Bytes(_) => Some(c),
                    Label::Op(op) => c.apply(op),
                };
                let Some(nc) = next else { continue };
                if !configs[r as usize].contains(&nc) {
                    configs[r as usize].push(nc);
                    queue.push_back((r, nc));
                }
            }
        }
        configs
    }

    /// Returns the unique variable configuration of every state, when the
    /// automaton is trimmed and functional (each state of such an
    /// automaton is reachable with exactly one configuration —
    /// Freydenberger et al.). Returns `None` when some state has zero or
    /// several configurations (untrimmed or non-functional input).
    pub fn unique_configs(&self) -> Option<Vec<VarConfig>> {
        let configs = self.reachable_configs();
        configs
            .into_iter()
            .map(|mut c| if c.len() == 1 { c.pop() } else { None })
            .collect()
    }

    /// Replaces the variable table, keeping variable *indices* unchanged.
    /// The new table must have the same number of variables; the caller
    /// is responsible for the positional correspondence (primarily used
    /// to rename the single variable of a splitter).
    pub fn replace_var_table(&self, table: VarTable) -> Result<Vsa, String> {
        if table.len() != self.vars.len() {
            return Err(format!(
                "replacement table has {} variables, expected {}",
                table.len(),
                self.vars.len()
            ));
        }
        let mut out = self.clone();
        out.vars = table;
        Ok(out)
    }

    /// Whether the automaton is functional: every accepting run produces a
    /// valid ref-word (`R(A) = Ref(A)`).
    ///
    /// On the trimmed automaton this holds iff (i) every state is
    /// reachable with exactly one legal configuration, (ii) no reachable
    /// transition applies an illegal operation, and (iii) accepting states
    /// carry the all-closed configuration (Freydenberger et al.).
    pub fn is_functional(&self) -> bool {
        let t = self.trim();
        let configs = t.reachable_configs();
        for (q, qconfigs) in configs.iter().enumerate() {
            match qconfigs.len() {
                0 => continue, // unreachable (dead start corner case)
                1 => {}
                _ => return false, // two configs: some completion is invalid
            }
            let c = qconfigs[0];
            if t.finals[q] && !c.all_closed(t.vars.len()) {
                return false;
            }
            for &(l, _) in &t.trans[q] {
                if let Label::Op(op) = l {
                    if c.apply(op).is_none() {
                        // A trimmed state has an accepting continuation, so
                        // an illegal reachable operation witnesses an
                        // accepted invalid ref-word.
                        return false;
                    }
                }
            }
        }
        true
    }

    /// The configuration-monitor product: returns an equivalent
    /// *functional* automaton whose runs are exactly the valid accepting
    /// runs of `self` (first half of Prop. 4.4). Worst case `3^|V|`
    /// states per original state.
    pub fn functionalize(&self) -> Vsa {
        let nv = self.vars.len();
        let mut out = Vsa::new(self.vars.clone());
        let mut map: HashMap<(StateId, VarConfig), StateId> = HashMap::new();
        let init = VarConfig::initial();
        map.insert((self.start, init), 0);
        out.finals[0] = self.finals[self.start as usize] && init.all_closed(nv);
        let mut queue: VecDeque<(StateId, VarConfig)> = VecDeque::new();
        queue.push_back((self.start, init));
        while let Some((q, c)) = queue.pop_front() {
            let id = map[&(q, c)];
            for &(l, r) in &self.trans[q as usize] {
                let nc = match l {
                    Label::Eps | Label::Bytes(_) => Some(c),
                    Label::Op(op) => c.apply(op),
                };
                let Some(nc) = nc else { continue };
                let rid = *map.entry((r, nc)).or_insert_with(|| {
                    let rid = out.add_state();
                    out.finals[rid as usize] = self.finals[r as usize] && nc.all_closed(nv);
                    queue.push_back((r, nc));
                    rid
                });
                out.trans[id as usize].push((l, rid));
            }
        }
        out.trim()
    }

    /// Weak determinism of Maturana et al.: no ε-transitions and at most
    /// one successor per (state, symbol). Byte transitions count per byte:
    /// overlapping byte sets to different targets violate determinism.
    pub fn is_weakly_deterministic(&self) -> bool {
        for ts in &self.trans {
            let mut byte_cover = ByteSet::EMPTY;
            let mut seen_ops: Vec<VarOp> = Vec::new();
            for &(l, _) in ts {
                match l {
                    Label::Eps => return false,
                    Label::Op(op) => {
                        if seen_ops.contains(&op) {
                            return false;
                        }
                        seen_ops.push(op);
                    }
                    Label::Bytes(m) => {
                        if !byte_cover.and(&m).is_empty() {
                            return false;
                        }
                        byte_cover = byte_cover.or(&m);
                    }
                }
            }
        }
        true
    }

    /// The paper's determinism: weak determinism plus condition (2) —
    /// consecutive variable operations respect the fixed order `≺`.
    pub fn is_deterministic(&self) -> bool {
        if !self.is_weakly_deterministic() {
            return false;
        }
        for q in 0..self.num_states() {
            for &(l, r) in &self.trans[q] {
                let Label::Op(op1) = l else { continue };
                for &(l2, _) in &self.trans[r as usize] {
                    let Label::Op(op2) = l2 else { continue };
                    if op1 >= op2 {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Determinization (Prop. 4.4): returns an equivalent automaton that
    /// is deterministic (conditions 1–2) **and** functional. Worst-case
    /// exponential, as unavoidable for PSPACE-complete reasoning; the
    /// split-correctness fast paths (Thm 5.7) take deterministic automata
    /// as *inputs* instead.
    pub fn determinize(&self) -> Vsa {
        let functional = self.functionalize();
        let evsa = EVsa::from_functional(&functional);
        let ext = ExtAlphabet::for_automata(&self.vars, &[&functional]);
        let nfa = evsa.to_nfa(&ext);
        let dfa = splitc_automata::Dfa::determinize(&nfa).minimize();
        let trimmed = dfa.to_nfa().trim();
        Vsa::from_ext_nfa(&trimmed, &ext)
    }

    /// Reinterprets an NFA over an extended alphabet as a classic
    /// VSet-automaton (inverse of the normalized-NFA expansion). Merges
    /// parallel byte-class edges with the same endpoints into byte sets.
    pub fn from_ext_nfa(nfa: &splitc_automata::Nfa, ext: &ExtAlphabet) -> Vsa {
        let mut out = Vsa::new(ext.vars().clone());
        // State 0 of `out` is the start; map NFA states onto fresh states.
        let mut remap: Vec<StateId> = Vec::with_capacity(nfa.num_states());
        assert!(
            nfa.starts().len() <= 1,
            "extended NFA must have a single start state"
        );
        let nfa_start = nfa.starts().first().copied();
        for q in 0..nfa.num_states() as StateId {
            if Some(q) == nfa_start {
                remap.push(0);
            } else {
                remap.push(out.add_state());
            }
        }
        for q in 0..nfa.num_states() as StateId {
            out.finals[remap[q as usize] as usize] = nfa.is_final(q);
            // Merge class edges to the same target.
            let mut merged: HashMap<StateId, ByteSet> = HashMap::new();
            for &(sym, r) in nfa.transitions_from(q) {
                match ext.decode(sym) {
                    crate::ext::ExtSym::Op(op) => {
                        out.add_transition(remap[q as usize], Label::Op(op), remap[r as usize]);
                    }
                    crate::ext::ExtSym::Class(mask) => {
                        let e = merged.entry(remap[r as usize]).or_insert(ByteSet::EMPTY);
                        *e = e.or(&mask);
                    }
                }
            }
            let mut merged: Vec<(StateId, ByteSet)> = merged.into_iter().collect();
            merged.sort_by_key(|(r, _)| *r);
            for (r, m) in merged {
                out.add_transition(remap[q as usize], Label::Bytes(m), r);
            }
            for &r in nfa.eps_from(q) {
                out.add_transition(remap[q as usize], Label::Eps, remap[r as usize]);
            }
        }
        out
    }

    /// Renders the automaton in Graphviz DOT format (debugging aid:
    /// `dot -Tsvg`). Byte sets are abbreviated via their `Debug` form.
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph {name} {{");
        let _ = writeln!(out, "  rankdir=LR;");
        let _ = writeln!(out, "  start [shape=point];");
        let _ = writeln!(out, "  start -> q{};", self.start);
        for q in 0..self.num_states() as StateId {
            let shape = if self.is_final(q) {
                "doublecircle"
            } else {
                "circle"
            };
            let _ = writeln!(out, "  q{q} [shape={shape}];");
            for &(l, r) in self.transitions_from(q) {
                let label = match l {
                    Label::Eps => "ε".to_string(),
                    Label::Op(op) => crate::vars::display_op(op, &self.vars),
                    Label::Bytes(m) => format!("{m:?}"),
                };
                let label = label.replace('\\', "\\\\").replace('"', "\\\"");
                let _ = writeln!(out, "  q{q} -> q{r} [label=\"{label}\"];");
            }
        }
        out.push_str("}\n");
        out
    }

    // ------------------------------------------------------------------
    // Spanner algebra (Definition A.1/A.2).
    // ------------------------------------------------------------------

    /// Union of two union-compatible spanners (`SVars` must coincide).
    pub fn union(&self, other: &Vsa) -> Result<Vsa, String> {
        if self.vars.names() != other.vars.names() {
            return Err(format!(
                "union requires identical variables: {} vs {}",
                self.vars, other.vars
            ));
        }
        let mut out = Vsa::new(self.vars.clone());
        let a0 = out.import(self);
        let b0 = out.import(other);
        out.add_transition(0, Label::Eps, a0);
        out.add_transition(0, Label::Eps, b0);
        Ok(out)
    }

    /// Copies `other`'s states into `self` (labels unchanged — caller is
    /// responsible for variable-table compatibility). Returns the image of
    /// `other`'s start state.
    fn import(&mut self, other: &Vsa) -> StateId {
        let off = self.num_states() as StateId;
        for _ in 0..other.num_states() {
            self.add_state();
        }
        for q in 0..other.num_states() {
            self.finals[off as usize + q] = other.finals[q];
            for &(l, r) in &other.trans[q] {
                self.trans[off as usize + q].push((l, off + r));
            }
        }
        off + other.start
    }

    /// Re-labels variables according to a map into a new table; operations
    /// on dropped variables become ε (this is *syntactic* projection; use
    /// [`EVsa::project`] through the algebra for semantic projection —
    /// they agree because erasing operations is exactly the paper's
    /// projection on ref-words).
    pub fn rename_vars(&self, new_table: VarTable, map: &VarMap) -> Vsa {
        let mut out = Vsa::new(new_table);
        out.trans = self
            .trans
            .iter()
            .map(|ts| {
                ts.iter()
                    .map(|&(l, r)| match l {
                        Label::Op(op) => match map.map_op(op) {
                            Some(nop) => (Label::Op(nop), r),
                            None => (Label::Eps, r),
                        },
                        other => (other, r),
                    })
                    .collect()
            })
            .collect();
        out.finals = self.finals.clone();
        out.start = self.start;
        out
    }

    /// Wraps the whole spanner in a new capture variable: `x{P}`
    /// (used by the canonical-split-spanner and composition
    /// constructions). The new variable must not already occur.
    pub fn wrap_var(&self, name: &str) -> Result<Vsa, String> {
        if self.vars.lookup(name).is_some() {
            return Err(format!("variable {name} already used"));
        }
        let mut names: Vec<String> = self.vars.names().to_vec();
        names.push(name.to_string());
        let new_table = VarTable::new(names)?;
        let (merged, map_self, _) = self.vars.merge(&new_table);
        debug_assert_eq!(merged.names(), new_table.names());
        let x = new_table.lookup(name).expect("just added");
        let mut out = Vsa::new(new_table.clone());
        let remapped = self.rename_vars(new_table, &map_self);
        let inner_start = out.import(&remapped);
        // New start --x⊢--> inner; inner finals --⊣x--> new final.
        out.add_transition(0, Label::Op(VarOp::Open(x)), inner_start);
        let new_final = out.add_state();
        out.set_final(new_final, true);
        let inner_finals: Vec<StateId> = out
            .finals
            .iter()
            .enumerate()
            .filter(|&(q, &f)| f && q != new_final as usize)
            .map(|(q, _)| q as StateId)
            .collect();
        for q in inner_finals {
            out.set_final(q, false);
            out.add_transition(q, Label::Op(VarOp::Close(x)), new_final);
        }
        Ok(out)
    }

    /// Concatenation `L · P` with a regular language given as a Boolean
    /// (0-ary) spanner (Definition A.2 / Lemma A.3).
    pub fn concat_lang_left(&self, lang: &Vsa) -> Result<Vsa, String> {
        if !lang.vars.is_empty() {
            return Err("language operand must have no variables".into());
        }
        let mut out = Vsa::new(self.vars.clone());
        let l0 = out.import(&Vsa {
            vars: self.vars.clone(),
            trans: lang.trans.clone(),
            start: lang.start,
            finals: lang.finals.clone(),
        });
        let p0 = out.import(self);
        out.add_transition(0, Label::Eps, l0);
        // lang finals -> eps -> P start; lang finals stop accepting.
        let lang_final_ids: Vec<StateId> = (0..lang.num_states())
            .filter(|&q| lang.finals[q])
            .map(|q| l0 - lang.start + q as StateId)
            .collect();
        for q in lang_final_ids {
            out.set_final(q, false);
            out.add_transition(q, Label::Eps, p0);
        }
        Ok(out)
    }

    /// Concatenation `P · L` (Definition A.2 / Lemma A.3).
    pub fn concat_lang_right(&self, lang: &Vsa) -> Result<Vsa, String> {
        if !lang.vars.is_empty() {
            return Err("language operand must have no variables".into());
        }
        let mut out = Vsa::new(self.vars.clone());
        let p0 = out.import(self);
        let l0 = out.import(&Vsa {
            vars: self.vars.clone(),
            trans: lang.trans.clone(),
            start: lang.start,
            finals: lang.finals.clone(),
        });
        out.add_transition(0, Label::Eps, p0);
        let p_final_ids: Vec<StateId> = (0..self.num_states())
            .filter(|&q| self.finals[q])
            .map(|q| p0 - self.start + q as StateId)
            .collect();
        for q in p_final_ids {
            out.set_final(q, false);
            out.add_transition(q, Label::Eps, l0);
        }
        Ok(out)
    }
}

// NOTE: `import` with `l0 - lang.start + q` relies on states being copied
// contiguously in order; `import` returns `off + other.start`, so
// `l0 - other.start` recovers `off`.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::rgx::Rgx;
    use crate::span::Span;
    use crate::tuple::SpanTuple;

    fn x_of(v: &Vsa, name: &str) -> VarId {
        v.vars().lookup(name).unwrap()
    }

    /// Hand-built automaton for `x{a*}` over Σ = {a}.
    fn x_a_star() -> Vsa {
        let mut v = Vsa::new(VarTable::new(["x"]).unwrap());
        let x = VarId(0);
        let q1 = v.add_state();
        let q2 = v.add_state();
        v.add_transition(0, Label::Op(VarOp::Open(x)), q1);
        v.add_byte(q1, b'a', q1);
        v.add_transition(q1, Label::Op(VarOp::Close(x)), q2);
        v.set_final(q2, true);
        v
    }

    #[test]
    fn functional_automaton_detected() {
        let v = x_a_star();
        assert!(v.is_functional());
    }

    #[test]
    fn non_functional_star_detected() {
        // (x{a})): the Kleene star over a variable — the paper's footnote
        // 5 example of a non-functional formula. Build directly: start
        // state is final (0 iterations -> x never opened) and loops.
        let mut v = Vsa::new(VarTable::new(["x"]).unwrap());
        let x = VarId(0);
        let q1 = v.add_state();
        let q2 = v.add_state();
        v.set_final(0, true);
        v.add_transition(0, Label::Op(VarOp::Open(x)), q1);
        v.add_byte(q1, b'a', q2);
        v.add_transition(q2, Label::Op(VarOp::Close(x)), 0);
        assert!(!v.is_functional());
        let f = v.functionalize();
        assert!(f.is_functional());
        // Exactly one iteration survives functionalization.
        let rel = eval(&f, b"a");
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuple(0).get(VarId(0)), Span::new(0, 1));
        assert!(eval(&f, b"").is_empty());
        assert!(eval(&f, b"aa").is_empty());
    }

    #[test]
    fn trim_keeps_start() {
        let mut v = Vsa::new(VarTable::empty());
        let dead = v.add_state();
        v.add_byte(0, b'a', dead);
        let t = v.trim();
        assert_eq!(t.num_states(), 1); // only the (dead) start remains
        assert!(!t.is_final(0));
    }

    #[test]
    fn weak_and_strong_determinism() {
        let v = x_a_star();
        assert!(v.is_weakly_deterministic());
        assert!(v.is_deterministic());

        // Consecutive ops out of ≺ order: ⊣x then... build y⊢ after ⊣y.
        let mut w = Vsa::new(VarTable::new(["x", "y"]).unwrap());
        let q1 = w.add_state();
        let q2 = w.add_state();
        let q3 = w.add_state();
        let q4 = w.add_state();
        // y⊢ then x⊢ — violates ≺ (Open(x) ≺ Open(y)).
        w.add_transition(0, Label::Op(VarOp::Open(VarId(1))), q1);
        w.add_transition(q1, Label::Op(VarOp::Open(VarId(0))), q2);
        w.add_transition(q2, Label::Op(VarOp::Close(VarId(0))), q3);
        w.add_transition(q3, Label::Op(VarOp::Close(VarId(1))), q4);
        w.set_final(q4, true);
        assert!(w.is_weakly_deterministic());
        assert!(!w.is_deterministic());
    }

    #[test]
    fn overlapping_byte_sets_are_nondeterministic() {
        let mut v = Vsa::new(VarTable::empty());
        let q1 = v.add_state();
        let q2 = v.add_state();
        v.add_transition(0, Label::Bytes(ByteSet::range(b'a', b'm')), q1);
        v.add_transition(0, Label::Bytes(ByteSet::range(b'k', b'z')), q2);
        v.set_final(q1, true);
        assert!(!v.is_weakly_deterministic());
    }

    #[test]
    fn determinize_preserves_spanner() {
        let p = Rgx::parse("(a|b)*x{a+}(a|b)*").unwrap().to_vsa().unwrap();
        let d = p.determinize();
        assert!(d.is_deterministic(), "determinize must satisfy conds 1-2");
        assert!(d.is_functional());
        for doc in [b"aa".as_slice(), b"ab", b"ba", b"bab", b"aba"] {
            assert_eq!(eval(&p, doc), eval(&d, doc), "doc {doc:?}");
        }
    }

    #[test]
    fn union_requires_compatibility() {
        let a = x_a_star();
        let b = Vsa::new(VarTable::empty());
        assert!(a.union(&b).is_err());
        // x{a*} is anchored: on "a" the only output is x = [0,1).
        let u = a.union(&x_a_star()).unwrap();
        let rel = eval(&u, b"a");
        assert_eq!(rel, eval(&x_a_star(), b"a"));
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn wrap_var_selects_whole_document_region() {
        // y{x{a*}}: y spans the same region as x.
        let v = x_a_star().wrap_var("y").unwrap();
        assert_eq!(v.vars().names(), &["x", "y"]);
        let rel = eval(&v, b"aa");
        for t in rel.iter() {
            assert_eq!(t.get(x_of(&v, "x")), t.get(x_of(&v, "y")));
        }
        assert_eq!(rel.len(), 1); // x = y = [0,2)? No: x{a*} consumes all.
        let t = rel.tuple(0);
        assert_eq!(t.get(x_of(&v, "x")), Span::new(0, 2));
    }

    #[test]
    fn concat_lang_shifts_spans() {
        // L = "ab", P = x{c}. L · P on "abc": x = [2,3).
        let lang = Rgx::parse("ab").unwrap().to_vsa().unwrap();
        let p = Rgx::parse("x{c}").unwrap().to_vsa().unwrap();
        let lp = p.concat_lang_left(&lang).unwrap();
        let rel = eval(&lp, b"abc");
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuple(0).get(VarId(0)), Span::new(2, 3));
        assert!(eval(&lp, b"xbc").is_empty());
        // P · L on "cab": x = [0,1).
        let pl = p.concat_lang_right(&lang).unwrap();
        let rel = eval(&pl, b"cab");
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuple(0).get(VarId(0)), Span::new(0, 1));
    }

    #[test]
    fn dot_export_is_well_formed() {
        let dot = x_a_star().to_dot("demo");
        assert!(dot.starts_with("digraph demo {"));
        assert!(dot.contains("doublecircle"));
        assert!(dot.contains("x⊢"));
        assert!(dot.trim_end().ends_with('}'));
        assert_eq!(dot.matches("->").count(), 1 + x_a_star().num_transitions());
    }

    #[test]
    fn rename_vars_projects_ops_to_eps() {
        let v = x_a_star();
        let (empty, map) = v.vars().project(&[]);
        let b = v.rename_vars(empty, &map);
        assert!(b.vars().is_empty());
        // Boolean spanner accepting a*.
        let rel = eval(&b.functionalize(), b"aaa");
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuple(0), SpanTuple::unit());
    }
}

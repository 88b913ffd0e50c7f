//! Feasibility solving over recorded path constraints.
//!
//! The concolic engine records [`Constraint`]s — branch conditions over
//! interned [`ExprId`]s — and the generational search asks one question per
//! flip: *is there an input that satisfies this constraint sequence?* The
//! [`Solver`] trait owns that question, so the search backend is a pluggable
//! component (an SMT bridge would slot in behind the same interface); the
//! built-in [`SearchSolver`] answers it with inversion, exhaustive
//! enumeration of small domains and bounded random search — the same
//! concrete strategies the engine previously hard-coded.
//!
//! Every strategy ends in the same test: which recorded constraint does a
//! candidate input violate first? The solver compiles each new record once
//! into a straight-line tape over dense value slots and answers the test
//! by running it, with a per-record memo in front (see [`SearchSolver`]).
//!
//! # Example
//!
//! ```
//! use raindrop_attacks::solver::{Constraint, SearchSolver, Solver, VarDomain};
//! use raindrop_attacks::sym::{BinKind, ExprArena};
//! use raindrop_machine::Cond;
//!
//! let mut arena = ExprArena::new();
//! let x = arena.input(0);
//! let k = arena.constant(17);
//! let lhs = arena.bin(BinKind::Add, x, k);
//! let rhs = arena.constant(59);
//! // Ask for an input driving the branch `x + 17 == 59` the taken way.
//! let query = [Constraint { lhs, rhs, flag_is_sub: true, cond: Cond::E, taken: true }];
//! let domain = VarDomain { vars: 1, mask: u64::MAX, exhaustive: None };
//! let mut solver = SearchSolver::default();
//! let input = solver.feasible(&mut arena, &query, &domain, &[0]).expect("invertible");
//! assert_eq!(input[0], 42);
//! ```

use crate::sym::{eval_bin, eval_un, hash_stream, invert, BinKind, EvalMemo, Expr, ExprArena};
use crate::sym::{ExprId, UnKind};
use raindrop_machine::hash::MulRotMap;
use raindrop_machine::{Cond, Flags};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// One recorded path constraint: the flag-producing operands, the branch
/// condition and the direction observed at record time.
///
/// A plain `Copy` struct of interned ids. Within one arena, derived
/// equality/hashing *is* structural equality (interning guarantees it), so
/// the constraint doubles as its own exact dedup key — the canonical byte
/// serialization the previous representation rebuilt on every fork is gone
/// from the hot path (retained only as [`Constraint::canonical_bytes`] for
/// audits and the key-soundness suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Left flag operand.
    pub lhs: ExprId,
    /// Right flag operand.
    pub rhs: ExprId,
    /// Whether the flags came from a subtraction (`cmp`) or an AND (`test`).
    pub flag_is_sub: bool,
    /// The branch condition.
    pub cond: Cond,
    /// Whether the branch was taken in the recorded execution.
    pub taken: bool,
}

impl Constraint {
    /// Evaluates the branch outcome for a concrete input assignment.
    ///
    /// The reference evaluator: the solver scans candidates over a compiled
    /// tape instead, and the tests pin the two to each other.
    pub fn outcome(&self, arena: &ExprArena, input: &[u64], memo: &mut EvalMemo) -> bool {
        let a = arena.eval(self.lhs, input, memo);
        let b = arena.eval(self.rhs, input, memo);
        branch_outcome(self.flag_is_sub, self.cond, a, b)
    }

    /// Whether the constraint holds in the direction observed at record
    /// time for the given input.
    pub fn satisfied_as_recorded(
        &self,
        arena: &ExprArena,
        input: &[u64],
        memo: &mut EvalMemo,
    ) -> bool {
        self.outcome(arena, input, memo) == self.taken
    }

    /// 128-bit structural hash of the constraint, O(1) from the operands'
    /// cached structural hashes. Arena-independent (structurally equal
    /// constraints from different arenas hash equal), which is what lets
    /// the solve cache persist across engine runs.
    pub fn structural_hash(&self, arena: &ExprArena) -> u128 {
        hash_stream(&[
            arena.structural_hash(self.lhs),
            arena.structural_hash(self.rhs),
            0xfe,
            self.flag_is_sub as u128,
            self.cond as u8 as u128,
            self.taken as u128,
        ])
    }

    /// Canonical byte serialization of the constraint — the exact
    /// (collision-free) reference key. Tree-sized output; kept off the hot
    /// path, for the key-soundness property suite and audits only.
    pub fn canonical_bytes(&self, arena: &ExprArena) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        arena.write_canonical(self.lhs, &mut out);
        out.push(0xfe);
        arena.write_canonical(self.rhs, &mut out);
        out.push(self.flag_is_sub as u8);
        out.push(self.cond as u8);
        out.push(self.taken as u8);
        out
    }
}

/// Whether `cond` holds on the flags that `cmp a, b` (`flag_is_sub`) or
/// `test a, b` leaves behind.
#[inline]
fn branch_outcome(flag_is_sub: bool, cond: Cond, a: u64, b: u64) -> bool {
    let mut flags = Flags::cleared();
    if flag_is_sub {
        flags.set_sub(a, b, false);
    } else {
        flags.set_logic(a & b);
    }
    cond.eval(flags)
}

/// A concrete input: one value per input variable.
pub type Assignment = Vec<u64>;

/// The value domain of the input variables, from the attack's `InputSpec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarDomain {
    /// Number of input variables.
    pub vars: usize,
    /// Bitmask of meaningful bits in each variable.
    pub mask: u64,
    /// When the per-variable domain is small enough to enumerate (byte
    /// buffers, 1/2-byte register arguments), its size; `None` otherwise.
    pub exhaustive: Option<u64>,
}

/// A feasibility backend for constraint queries.
///
/// `feasible` receives the full query — a constraint sequence that must
/// *all* hold — and returns a satisfying [`Assignment`], or `None` if the
/// backend cannot find one (which the explorer treats as unsatisfiable; an
/// incomplete backend trades exhaustiveness for speed, exactly the paper's
/// attacker model). The engine always queries a recorded path prefix with
/// the last constraint's direction flipped, and walks flips deepest-first;
/// implementations may exploit that shape (see [`SearchSolver`]) but must
/// not require it.
pub trait Solver {
    /// Finds an input under `domain` satisfying every constraint of
    /// `query`, or `None`. `hint` is the input that drove the recorded
    /// path — a good starting point, since it already satisfies every
    /// query constraint except the flipped last one.
    fn feasible(
        &mut self,
        arena: &mut ExprArena,
        query: &[Constraint],
        domain: &VarDomain,
        hint: &[u64],
    ) -> Option<Assignment>;

    /// Signals that subsequent queries come from a fresh engine run (new
    /// arena: previously seen [`ExprId`]s are meaningless). Implementations
    /// drop any id-keyed state here.
    fn begin_run(&mut self) {}

    /// RNG draws consumed since construction. Checkpointing a paused attack
    /// records this; stateless/deterministic backends keep the default 0.
    fn rng_draws(&self) -> u64 {
        0
    }

    /// Fast-forwards a *freshly constructed* backend to the state after
    /// `draws` RNG draws, so a resumed attack continues the exact random
    /// stream the checkpointed run would have used. Only moves forward;
    /// backends without RNG state ignore it.
    fn fast_forward(&mut self, _draws: u64) {}
}

/// The built-in search backend: inversion along invertible operator
/// chains, exhaustive walks of small variable domains, and bounded random
/// search with a depth backoff.
///
/// Queries are checked against the *recorded* form of the path: a
/// candidate is feasible for a flip at index `i` iff the first recorded
/// constraint it violates is exactly `i` (the prefix holds as recorded,
/// the flipped constraint is violated as recorded). The solver memoizes
/// that first-violated index per candidate and keeps the memo across the
/// deepest-first flip sweep of one record — strategies re-try overlapping
/// candidate sets at every flip (the exhaustive domain walk literally
/// replays the same values), which the memo collapses from quadratic
/// re-evaluation into one scan each.
///
/// A memo miss scans the record's tape, compiled once when a new
/// record is installed: the record's expression DAG as straight-line code
/// over dense value slots, run constraint by constraint until the first
/// violated one. The arena's stack-walking [`ExprArena::eval`] stays the
/// reference the tests compare the tape against.
pub struct SearchSolver {
    rng: ChaCha8Rng,
    /// RNG draws consumed so far — the only live state a checkpoint must
    /// carry: the memos below are pure caches, losing them on resume never
    /// changes an answer, but replaying a different random stream would.
    draws: u64,
    /// The as-recorded constraint sequence the current flip sweep walks
    /// (the longest query seen, with its last constraint unflipped);
    /// shorter queries of the same sweep are its prefixes.
    record: Vec<Constraint>,
    /// `record` compiled for candidate scans.
    tape: Tape,
    /// candidate input -> first index of `record` it violates.
    memo: MulRotMap<Vec<u64>, usize>,
    /// Eval memo for the hint input (valid across one `feasible` call).
    eval_hint: EvalMemo,
}

impl Default for SearchSolver {
    fn default() -> Self {
        SearchSolver::new()
    }
}

impl SearchSolver {
    /// Creates the solver with its fixed RNG seed (the attack is
    /// deterministic end-to-end).
    pub fn new() -> SearchSolver {
        use rand::SeedableRng;
        SearchSolver {
            rng: ChaCha8Rng::seed_from_u64(0xa77ac4),
            draws: 0,
            record: Vec::new(),
            tape: Tape::default(),
            memo: MulRotMap::default(),
            eval_hint: EvalMemo::default(),
        }
    }

    /// Aligns the stored record with `query` (whose last constraint is the
    /// flipped one): if the query's as-recorded form is a prefix of the
    /// stored record, the memo stays valid; otherwise this is a new record:
    /// the memo is cleared and the record compiled into the tape.
    fn sync_record(&mut self, arena: &ExprArena, query: &[Constraint]) {
        let n = query.len();
        let mut last = query[n - 1];
        last.taken = !last.taken;
        let is_prefix = self.record.len() >= n
            && self.record[..n - 1] == query[..n - 1]
            && self.record[n - 1] == last;
        if !is_prefix {
            self.record.clear();
            self.record.extend_from_slice(&query[..n - 1]);
            self.record.push(last);
            self.memo.clear();
            self.tape.compile(arena, &self.record);
        }
    }

    /// First index of `record` that `input` violates (`record.len()` if it
    /// satisfies the whole path as recorded), memoized per candidate.
    fn first_violated(&mut self, input: &[u64]) -> usize {
        if let Some(&v) = self.memo.get(input) {
            return v;
        }
        let v = self.tape.first_violated(input);
        self.memo.insert(input.to_vec(), v);
        v
    }
}

impl Solver for SearchSolver {
    fn feasible(
        &mut self,
        arena: &mut ExprArena,
        query: &[Constraint],
        domain: &VarDomain,
        hint: &[u64],
    ) -> Option<Assignment> {
        if query.is_empty() {
            return Some(hint.to_vec());
        }
        let i = query.len() - 1;
        self.sync_record(arena, query);
        let negated = self.record[i];
        let mask = domain.mask;
        self.eval_hint.reset();

        // Strategy 1: inversion of an equality/inequality on a single
        // variable occurrence along an invertible operator chain.
        let mut vars: BTreeSet<usize> = BTreeSet::new();
        arena.variables(negated.lhs, &mut vars);
        arena.variables(negated.rhs, &mut vars);
        if negated.flag_is_sub {
            for &var in &vars {
                let rhs_val = arena.eval(negated.rhs, hint, &mut self.eval_hint);
                if let Some(v) = invert(arena, negated.lhs, rhs_val, var, hint, &mut self.eval_hint)
                {
                    let mut cand = hint.to_vec();
                    cand[var] = v & mask;
                    if self.first_violated(&cand) == i {
                        return Some(cand);
                    }
                }
                let lhs_val = arena.eval(negated.lhs, hint, &mut self.eval_hint);
                if let Some(v) = invert(arena, negated.rhs, lhs_val, var, hint, &mut self.eval_hint)
                {
                    let mut cand = hint.to_vec();
                    cand[var] = v & mask;
                    if self.first_violated(&cand) == i {
                        return Some(cand);
                    }
                }
                // For strict inequalities try a small neighbourhood around
                // the equality solution.
                if let Some(v) = invert(
                    arena,
                    negated.lhs,
                    rhs_val.wrapping_add(1),
                    var,
                    hint,
                    &mut self.eval_hint,
                ) {
                    let mut cand = hint.to_vec();
                    cand[var] = v & mask;
                    if self.first_violated(&cand) == i {
                        return Some(cand);
                    }
                }
            }
        }

        // Strategy 2: exhaustive search when only one variable is involved
        // and its domain is enumerable.
        if vars.len() == 1 {
            if let Some(size) = domain.exhaustive {
                let var = *vars.iter().next().expect("non-empty");
                let mut cand = hint.to_vec();
                for v in 0..size {
                    cand[var] = v;
                    if self.first_violated(&cand) == i {
                        return Some(cand);
                    }
                }
                // The whole domain of the only involved variable was
                // enumerated: random search over the same variable cannot
                // do better, skip it.
                return None;
            }
        }

        // Strategy 3: bounded random search over the involved variables.
        // The draw count backs off with the flip depth: a random input
        // almost never satisfies a deep prefix, so deep flips lean on
        // inversion (strategy 1) and get only a token random budget —
        // without the backoff a single deep P3 path can sink minutes of
        // wall time into hopeless draws.
        let draws = if i < 64 {
            2000
        } else if i < 256 {
            256
        } else {
            32
        };
        let mut cand = hint.to_vec();
        for _ in 0..draws {
            for &var in &vars {
                self.draws += 1;
                cand[var] = self.rng.gen::<u64>() & mask;
            }
            if self.first_violated(&cand) == i {
                return Some(cand);
            }
        }
        None
    }

    fn begin_run(&mut self) {
        self.record.clear();
        self.tape.clear();
        self.memo.clear();
    }

    fn rng_draws(&self) -> u64 {
        self.draws
    }

    fn fast_forward(&mut self, draws: u64) {
        for _ in self.draws..draws {
            let _: u64 = self.rng.gen();
        }
        self.draws = self.draws.max(draws);
    }
}

/// One straight-line step of a [`Tape`]: computes one expression node into
/// its value slot.
#[derive(Debug, Clone, Copy)]
enum TapeOp {
    /// `slots[dst] = input[var]` (0 past the end of the input).
    Input { dst: u32, var: u32 },
    /// `slots[dst] = eval_bin(kind, slots[a], slots[b])`.
    Bin { kind: BinKind, dst: u32, a: u32, b: u32 },
    /// `slots[dst] = eval_un(kind, slots[a])`.
    Un { kind: UnKind, dst: u32, a: u32 },
}

/// The check that closes one constraint's segment of a [`Tape`].
#[derive(Debug, Clone, Copy)]
struct TapeCheck {
    /// `ops[..end]` are computed before this check runs.
    end: u32,
    lhs: u32,
    rhs: u32,
    flag_is_sub: bool,
    cond: Cond,
    taken: bool,
}

/// A constraint record compiled for repeated evaluation under many inputs.
///
/// Every expression node the record reaches gets a dense value slot and,
/// unless it is a constant, one [`TapeOp`], emitted in topological order at
/// the first constraint that needs it. Constraint `i`'s check runs after
/// the ops up to its segment end, so a scan evaluates each node at most
/// once and stops at the first violated constraint, with the same answer as
/// walking the record through [`Constraint::satisfied_as_recorded`].
/// Constant slots are filled at compile time and never rewritten.
#[derive(Debug, Default)]
struct Tape {
    ops: Vec<TapeOp>,
    checks: Vec<TapeCheck>,
    /// Slot values; reused across scans.
    slots: Vec<u64>,
    /// Compile scratch: arena index -> slot + 1 (0 = not emitted yet).
    slot_of: Vec<u32>,
    /// Compile scratch: the nodes given a slot, to reset `slot_of`.
    emitted: Vec<ExprId>,
    /// Compile scratch: the post-order walk stack.
    stack: Vec<ExprId>,
}

impl Tape {
    fn clear(&mut self) {
        self.ops.clear();
        self.checks.clear();
        self.slots.clear();
    }

    /// Compiles `record`, whose expressions live in `arena`.
    fn compile(&mut self, arena: &ExprArena, record: &[Constraint]) {
        self.clear();
        if self.slot_of.len() < arena.len() {
            self.slot_of.resize(arena.len(), 0);
        }
        for c in record {
            let lhs = self.emit(arena, c.lhs);
            let rhs = self.emit(arena, c.rhs);
            self.checks.push(TapeCheck {
                end: self.ops.len() as u32,
                lhs,
                rhs,
                flag_is_sub: c.flag_is_sub,
                cond: c.cond,
                taken: c.taken,
            });
        }
        for id in self.emitted.drain(..) {
            self.slot_of[id.index()] = 0;
        }
    }

    fn slot(&self, id: ExprId) -> Option<u32> {
        self.slot_of[id.index()].checked_sub(1)
    }

    fn new_slot(&mut self, id: ExprId, value: u64) -> u32 {
        let slot = u32::try_from(self.slots.len()).expect("tape holds < 2^32 slots");
        self.slots.push(value);
        self.slot_of[id.index()] = slot + 1;
        self.emitted.push(id);
        slot
    }

    /// Emits the ops computing `root` (children first, each node once) and
    /// returns its slot.
    fn emit(&mut self, arena: &ExprArena, root: ExprId) -> u32 {
        self.stack.clear();
        self.stack.push(root);
        while let Some(&id) = self.stack.last() {
            if self.slot(id).is_some() {
                self.stack.pop();
                continue;
            }
            let node = arena.expr(id);
            let waiting = self.stack.len();
            match node {
                Expr::Bin(_, a, b) => {
                    self.push_unemitted(b);
                    self.push_unemitted(a);
                }
                Expr::Un(_, a) => self.push_unemitted(a),
                Expr::Const(_) | Expr::Input(_) => {}
            }
            if self.stack.len() > waiting {
                continue;
            }
            self.stack.pop();
            let value = if let Expr::Const(v) = node { v } else { 0 };
            let dst = self.new_slot(id, value);
            let op = match node {
                Expr::Const(_) => continue,
                Expr::Input(var) => TapeOp::Input { dst, var },
                Expr::Bin(kind, a, b) => {
                    TapeOp::Bin { kind, dst, a: self.ready_slot(a), b: self.ready_slot(b) }
                }
                Expr::Un(kind, a) => TapeOp::Un { kind, dst, a: self.ready_slot(a) },
            };
            self.ops.push(op);
        }
        self.ready_slot(root)
    }

    fn push_unemitted(&mut self, id: ExprId) {
        if self.slot(id).is_none() {
            self.stack.push(id);
        }
    }

    fn ready_slot(&self, id: ExprId) -> u32 {
        self.slot(id).expect("children are emitted before their parents")
    }

    /// First constraint `input` violates as recorded (the constraint count
    /// if it violates none). Missing input variables read as 0.
    fn first_violated(&mut self, input: &[u64]) -> usize {
        let slots = &mut self.slots;
        let mut pc = 0;
        for (i, check) in self.checks.iter().enumerate() {
            let end = check.end as usize;
            for op in &self.ops[pc..end] {
                match *op {
                    TapeOp::Input { dst, var } => {
                        slots[dst as usize] = input.get(var as usize).copied().unwrap_or(0);
                    }
                    TapeOp::Bin { kind, dst, a, b } => {
                        slots[dst as usize] = eval_bin(kind, slots[a as usize], slots[b as usize]);
                    }
                    TapeOp::Un { kind, dst, a } => {
                        slots[dst as usize] = eval_un(kind, slots[a as usize]);
                    }
                }
            }
            pc = end;
            let (a, b) = (slots[check.lhs as usize], slots[check.rhs as usize]);
            if branch_outcome(check.flag_is_sub, check.cond, a, b) != check.taken {
                return i;
            }
        }
        self.checks.len()
    }
}

/// Order-independent, duplicate-safe digest of a set of 128-bit hashes.
///
/// The previous solve-cache key XORed per-constraint hashes together; XOR
/// is order-independent but cancels pairwise, so a hash inserted twice
/// produced the digest of the *empty* set and distinct constraint multisets
/// could collide onto one cache slot. The digest keeps two independent
/// combiners — a wrapping sum (counts multiplicity) alongside the XOR — so
/// no finite nonempty multiset digests like the empty one and duplicates
/// cannot cancel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SetDigest {
    sum: u128,
    xor: u128,
}

impl SetDigest {
    /// The digest of the empty set.
    pub fn empty() -> SetDigest {
        SetDigest::default()
    }

    /// Returns the digest extended by one element (order-independent).
    #[must_use]
    pub fn with(self, h: u128) -> SetDigest {
        SetDigest { sum: self.sum.wrapping_add(h), xor: self.xor ^ h }
    }

    /// The combined key value.
    pub fn key(self) -> (u128, u128) {
        (self.sum, self.xor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const BINS: [BinKind; 13] = [
        BinKind::Add,
        BinKind::Sub,
        BinKind::Mul,
        BinKind::Div,
        BinKind::Rem,
        BinKind::And,
        BinKind::Or,
        BinKind::Xor,
        BinKind::Shl,
        BinKind::Shr,
        BinKind::Sar,
        BinKind::Eq,
        BinKind::Ult,
    ];
    const UNS: [UnKind; 3] = [UnKind::Neg, UnKind::Not, UnKind::SextByte];
    /// Input variables the random arenas mention; candidate inputs are
    /// drawn up to this long, so shorter ones leave variables missing.
    const VARS: usize = 3;

    /// One DAG-construction step; children index the pool of built nodes
    /// (modulo its size), which shares subterms heavily.
    #[derive(Debug, Clone)]
    enum Step {
        Const(u64),
        Input(usize),
        Bin(usize, usize, usize),
        Un(usize, usize),
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0u64..4).prop_map(Step::Const),
            any::<u64>().prop_map(Step::Const),
            (0usize..VARS).prop_map(Step::Input),
            (0usize..BINS.len(), any::<usize>(), any::<usize>())
                .prop_map(|(k, a, b)| Step::Bin(k, a, b)),
            (0usize..UNS.len(), any::<usize>()).prop_map(|(k, a)| Step::Un(k, a)),
        ]
    }

    /// One record entry: a fresh constraint over two pool nodes (flag
    /// kind, condition, and whether to flip the direction the hint
    /// records), or a repeat of an earlier entry.
    #[derive(Debug, Clone)]
    enum Entry {
        Fresh(usize, usize, bool, usize, u8),
        Repeat(usize),
    }

    fn entry_strategy() -> impl Strategy<Value = Entry> {
        prop_oneof![
            (any::<usize>(), any::<usize>(), any::<bool>(), 0usize..Cond::ALL.len(), 0u8..6)
                .prop_map(|(l, r, sub, c, flip)| Entry::Fresh(l, r, sub, c, flip)),
            any::<usize>().prop_map(Entry::Repeat),
        ]
    }

    fn value_strategy() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..4, any::<u64>()]
    }

    fn build_pool(arena: &mut ExprArena, steps: &[Step]) -> Vec<ExprId> {
        let mut pool = vec![arena.input(0)];
        for step in steps {
            let id = match *step {
                Step::Const(c) => arena.constant(c),
                Step::Input(v) => arena.input(v),
                Step::Bin(k, a, b) => {
                    let (a, b) = (pool[a % pool.len()], pool[b % pool.len()]);
                    arena.bin(BINS[k % BINS.len()], a, b)
                }
                Step::Un(k, a) => {
                    let a = pool[a % pool.len()];
                    arena.un(UNS[k % UNS.len()], a)
                }
            };
            pool.push(id);
        }
        pool
    }

    /// The record the engine would hand over: each constraint's direction
    /// is its outcome under `hint`, flipped for about one entry in six.
    fn build_record(
        arena: &ExprArena,
        pool: &[ExprId],
        entries: &[Entry],
        hint: &[u64],
    ) -> Vec<Constraint> {
        let mut record: Vec<Constraint> = Vec::new();
        for entry in entries {
            let c = match *entry {
                Entry::Repeat(_) if record.is_empty() => continue,
                Entry::Repeat(i) => record[i % record.len()],
                Entry::Fresh(l, r, flag_is_sub, cond, flip) => {
                    let mut c = Constraint {
                        lhs: pool[l % pool.len()],
                        rhs: pool[r % pool.len()],
                        flag_is_sub,
                        cond: Cond::ALL[cond],
                        taken: false,
                    };
                    c.taken = c.outcome(arena, hint, &mut EvalMemo::default()) != (flip == 0);
                    c
                }
            };
            record.push(c);
        }
        record
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The compiled tape finds the same first violated constraint as
        /// the reference walk over `satisfied_as_recorded`, for the hint
        /// the record was taken under, for inputs near it and for
        /// unrelated ones, including inputs shorter than the variable
        /// count.
        #[test]
        fn tape_scan_matches_the_reference_scan(
            steps in proptest::collection::vec(step_strategy(), 1..80),
            entries in proptest::collection::vec(entry_strategy(), 1..40),
            hint in proptest::collection::vec(value_strategy(), VARS),
            others in proptest::collection::vec(
                proptest::collection::vec(value_strategy(), 0..=VARS),
                1..8,
            ),
        ) {
            let mut arena = ExprArena::new();
            let pool = build_pool(&mut arena, &steps);
            let record = build_record(&arena, &pool, &entries, &hint);
            let mut tape = Tape::default();
            tape.compile(&arena, &record);
            let mut candidates = vec![hint.clone()];
            for (i, other) in others.iter().enumerate() {
                let mut near = hint.clone();
                near[i % VARS] = other.first().copied().unwrap_or(0);
                candidates.push(near);
                candidates.push(other.clone());
            }
            let mut memo = EvalMemo::default();
            for input in &candidates {
                memo.reset();
                let reference = record
                    .iter()
                    .position(|c| !c.satisfied_as_recorded(&arena, input, &mut memo))
                    .unwrap_or(record.len());
                prop_assert_eq!(tape.first_violated(input), reference, "input {:?}", input);
            }
        }
    }

    fn eq_constraint(arena: &mut ExprArena, lhs: ExprId, value: u64, taken: bool) -> Constraint {
        let rhs = arena.constant(value);
        Constraint { lhs, rhs, flag_is_sub: true, cond: Cond::E, taken }
    }

    #[test]
    fn search_solver_inverts_an_affine_flip() {
        let mut arena = ExprArena::new();
        let x = arena.input(0);
        let three = arena.constant(3);
        let five = arena.constant(5);
        let mul = arena.bin(BinKind::Mul, x, three);
        let affine = arena.bin(BinKind::Add, mul, five);
        let query = [eq_constraint(&mut arena, affine, 3 * 999 + 5, true)];
        let domain = VarDomain { vars: 1, mask: u64::MAX, exhaustive: None };
        let mut solver = SearchSolver::new();
        let got = solver.feasible(&mut arena, &query, &domain, &[0]).expect("solvable");
        assert_eq!(got, vec![999]);
    }

    #[test]
    fn search_solver_respects_the_prefix() {
        let mut arena = ExprArena::new();
        let x = arena.input(0);
        let ten = arena.constant(10);
        let lt = arena.bin(BinKind::Ult, x, ten);
        // Prefix: x < 10 evaluated to 1 (taken). Flip target: x == 7.
        let prefix = eq_constraint(&mut arena, lt, 1, true);
        let flip = eq_constraint(&mut arena, x, 7, true);
        let domain = VarDomain { vars: 1, mask: 0xff, exhaustive: Some(256) };
        let mut solver = SearchSolver::new();
        let got = solver.feasible(&mut arena, &[prefix, flip], &domain, &[3]).expect("solvable");
        assert_eq!(got, vec![7]);

        // An infeasible flip under the same prefix: x == 200 contradicts
        // x < 10, so every strategy must fail.
        let flip = eq_constraint(&mut arena, x, 200, true);
        assert_eq!(solver.feasible(&mut arena, &[prefix, flip], &domain, &[3]), None);
    }

    #[test]
    fn search_solver_memo_survives_prefix_truncations() {
        let mut arena = ExprArena::new();
        let x = arena.input(0);
        let mut constraints = Vec::new();
        for k in 0..8u64 {
            let kc = arena.constant(k * 16);
            let gt = arena.bin(BinKind::Ult, kc, x);
            constraints.push(eq_constraint(&mut arena, gt, 1, true));
        }
        let domain = VarDomain { vars: 1, mask: 0xff, exhaustive: Some(256) };
        let mut solver = SearchSolver::new();
        // Deepest-first sweep, the engine's query order.
        for i in (1..8usize).rev() {
            let mut query = constraints[..=i].to_vec();
            query[i].taken = false;
            let got = solver.feasible(&mut arena, &query, &domain, &[200]);
            let got = got.expect("each flip has a feasible input");
            // The memoized record must answer every truncation consistently.
            assert_eq!(solver.first_violated(&got), i);
        }
    }

    #[test]
    fn set_digest_is_order_independent_and_duplicate_safe() {
        let (a, b) = (0x1234_5678_9abc_def0_u128, 0x0fed_cba9_8765_4321_u128);
        assert_eq!(
            SetDigest::empty().with(a).with(b),
            SetDigest::empty().with(b).with(a),
            "order-independent"
        );
        // Regression: XOR alone cancels a repeated element pairwise, making
        // {h, h} indistinguishable from {}.
        assert_ne!(SetDigest::empty().with(a).with(a), SetDigest::empty());
        assert_ne!(SetDigest::empty().with(a).with(a).with(b), SetDigest::empty().with(b));
        assert_ne!(SetDigest::empty().with(a), SetDigest::empty());
    }

    #[test]
    fn constraint_hash_is_exact_on_structural_equality_and_components() {
        let mut arena = ExprArena::new();
        let x = arena.input(0);
        let three = arena.constant(3);
        let lhs = arena.bin(BinKind::Add, x, three);
        let a = eq_constraint(&mut arena, lhs, 0, true);
        let b = eq_constraint(&mut arena, lhs, 0, true);
        assert_eq!(a, b, "interned ids make equality structural");
        assert_eq!(a.structural_hash(&arena), b.structural_hash(&arena));
        assert_eq!(a.canonical_bytes(&arena), b.canonical_bytes(&arena));
        let flipped = Constraint { taken: false, ..b };
        assert_ne!(a.structural_hash(&arena), flipped.structural_hash(&arena));
        assert_ne!(a.canonical_bytes(&arena), flipped.canonical_bytes(&arena));
        let other_cond = Constraint { cond: Cond::Ne, ..b };
        assert_ne!(a.structural_hash(&arena), other_cond.structural_hash(&arena));
    }
}

//! Compiled per-circuit simulation kernels.
//!
//! Walking `Netlist` node metadata (kind, fanin list) costs two pointer
//! indirections per gate per evaluated cycle, and every loop of the
//! Chapter-4 generation flow bottoms out in that walk. A [`Kernel`]
//! flattens a netlist's levelized evaluation order **once** into a
//! branch-light bytecode program and then serves both evaluation flavours
//! from it:
//!
//! * [`Kernel::eval2`] — 64-pattern packed two-valued evaluation,
//!   bit-identical to [`crate::comb::eval_packed`];
//! * [`Kernel::propagate`] — event-driven single-fault propagation with a
//!   patch slot at the fault site, the inner loop of broadside fault
//!   simulation.
//!
//! # Opcode format
//!
//! Compilation canonicalizes every gate into a fixed-size `KOp`. An
//! inversion-absorption pass resolves each operand through NOT/BUF chains
//! to the chain's root and folds the accumulated parity — plus the gate's
//! own output inversion — into one of ten fused two-input superinstructions
//! (`a&b`, `!(a&b)`, `a|b`, `!(a|b)`, `a^b`, `!(a^b)`, `a&!b`, `a|!b`,
//! `a`, `!a`; De Morgan plus operand swapping closes the family). Gates
//! with other arities keep a fold loop over a shared fanin pool whose
//! entries carry the resolved inversion in bit 31. Chain resolution never
//! changes a written value — NOT/BUF nodes still execute their own op, so
//! the full program stays value-complete for switching-activity and
//! observability consumers — it only shortens dependency chains.
//!
//! # Run schedule
//!
//! Executed in netlist order, the fused program changes opcode almost every
//! op, and the per-op dispatch branch mispredicts often enough to dominate a
//! simulated cycle. Compilation therefore *schedules* the fused program:
//! each op gets a logic level one above its deepest (chain-resolved)
//! operand, sources sitting at level 0, and the ops are stably sorted by
//! level, then opcode. Ops of one level read only lower levels, so any order
//! within a level is topological, and the sorted program splits into
//! *runs* — maximal stretches of one opcode (a wide fold's run also shares
//! one fanin count). [`Kernel::eval2`] dispatches once per run and executes
//! the run as a fixed-opcode loop. Every op still writes the same node from
//! the same operand values, so the values are unchanged. The faithful
//! program, its consumer index and [`Kernel::propagate`] keep netlist
//! order.
//!
//! # Patch slots and fault propagation
//!
//! Fault injection does **not** precompile per-site cone programs: on
//! shallow, high-fanout circuits (s35932-class) a single fanout cone can
//! cover most of the netlist, so materializing one program per site is
//! quadratic in both build time and memory. Instead the kernel keeps one
//! *faithful* program — literal fanins, no chain resolution or fusion, so
//! a patched slot is visible to every reader — plus a consumer index (CSR:
//! node → ops reading it). [`Kernel::propagate`] forces the stuck value
//! into the site's scratch entry (the *patch slot*), seeds the site's
//! consumers into a pending-op bitmap, and sweeps it in program order:
//! each popped op re-evaluates against the patched scratch, and only ops
//! whose output actually *changes* enqueue their consumers. Because op
//! order is topological, every op is evaluated at most once with final
//! operand values. Observable diffs accumulate as changes land, and the
//! changed list doubles as the restore list — the scratch buffer returns
//! to the fault-free machine before the call returns. Work is proportional
//! to the *dynamically changed* part of the cone, which on real circuits
//! is usually a small fraction of the static cone the interpreter
//! re-evaluates.
//!
//! # Cache keying
//!
//! [`Kernel::for_netlist`] content-addresses kernels by a 128-bit
//! structural digest (two independent FNV-1a passes over kinds, fanins,
//! interface lists and evaluation order), so engines built for structurally
//! identical netlists — across threads, modes and benchmark repetitions —
//! share one compiled program and its fault-propagation tables. The
//! cache is capped; eviction is least-recently-used.
//!
//! # The interpreter stays the oracle
//!
//! The gate-walking interpreters ([`crate::comb::eval_packed`],
//! [`crate::comb::eval_packed_cone`]) remain the reference
//! implementations; the differential suites pin the compiled
//! kernels to them bit-for-bit on every catalog circuit and on random
//! netlists.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use fbt_netlist::{GateKind, Netlist, NodeId};

// Fused two-input superinstructions (operand/output inversions baked in).
const OP_AND2: u8 = 0; // a & b
const OP_NAND2: u8 = 1; // !(a & b)
const OP_OR2: u8 = 2; // a | b
const OP_NOR2: u8 = 3; // !(a | b)
const OP_XOR2: u8 = 4; // a ^ b
const OP_XNOR2: u8 = 5; // !(a ^ b)
const OP_ANDN2: u8 = 6; // a & !b
const OP_ORN2: u8 = 7; // a | !b
const OP_MOV: u8 = 8; // a
const OP_NOT: u8 = 9; // !a
/// `OP_WIDE + k` = fold over pool fanins with kind code `k` (the
/// [`GateKind`] order of [`kind_code`]); pool entries carry the resolved
/// operand inversion in [`POOL_INV`].
const OP_WIDE: u8 = 10;
const POOL_INV: u32 = 1 << 31;

/// One compiled operation: `out` is the node index written; `a`/`b` are
/// operand node indices for the fused two-input codes, or the pool range
/// `[a, a + b)` for wide codes.
#[derive(Debug, Clone, Copy)]
struct KOp {
    code: u8,
    out: u32,
    a: u32,
    b: u32,
}

fn kind_code(kind: GateKind) -> u8 {
    match kind {
        GateKind::And => 0,
        GateKind::Nand => 1,
        GateKind::Or => 2,
        GateKind::Nor => 3,
        GateKind::Xor => 4,
        GateKind::Xnor => 5,
        GateKind::Not => 6,
        GateKind::Buf => 7,
        GateKind::Input | GateKind::Dff => unreachable!("sources are not evaluated"),
    }
}

/// Canonicalize a two-input AND/OR/XOR-family gate with resolved operand
/// inversions `ia`/`ib` and output inversion `io` into one fused op.
fn fuse2(kind: GateKind, out: u32, (na, ia): (u32, bool), (nb, ib): (u32, bool)) -> KOp {
    let (family_and, io) = match kind {
        GateKind::And => (true, false),
        GateKind::Nand => (true, true),
        GateKind::Or => (false, false),
        GateKind::Nor => (false, true),
        GateKind::Xor | GateKind::Xnor => {
            let inv = ia ^ ib ^ matches!(kind, GateKind::Xnor);
            let code = if inv { OP_XNOR2 } else { OP_XOR2 };
            return KOp {
                code,
                out,
                a: na,
                b: nb,
            };
        }
        _ => unreachable!("fuse2 takes two-input gate kinds"),
    };
    // De Morgan: normalise double operand inversion into the dual family,
    // then fold the output inversion; at most one operand inversion
    // remains, and operand swapping pins it onto `b`.
    let (family_and, ia, ib, io) = if ia && ib {
        (!family_and, false, false, !io)
    } else {
        (family_and, ia, ib, io)
    };
    let (na, nb, ib) = if ia { (nb, na, true) } else { (na, nb, ib) };
    let code = match (family_and, ib, io) {
        (true, false, false) => OP_AND2,
        (true, false, true) => OP_NAND2,
        (true, true, false) => OP_ANDN2,
        // !(a & !b) = !a | b = b | !a
        (true, true, true) => {
            return KOp {
                code: OP_ORN2,
                out,
                a: nb,
                b: na,
            }
        }
        (false, false, false) => OP_OR2,
        (false, false, true) => OP_NOR2,
        (false, true, false) => OP_ORN2,
        // !(a | !b) = !a & b = b & !a
        (false, true, true) => {
            return KOp {
                code: OP_ANDN2,
                out,
                a: nb,
                b: na,
            }
        }
    };
    KOp {
        code,
        out,
        a: na,
        b: nb,
    }
}

/// Resolve `n` through NOT/BUF chains to the chain root, accumulating the
/// inversion parity.
fn resolve(net: &Netlist, mut n: NodeId) -> (u32, bool) {
    let mut parity = false;
    loop {
        let node = net.node(n);
        match (node.kind(), node.fanins()) {
            (GateKind::Not, [f]) => {
                parity = !parity;
                n = *f;
            }
            (GateKind::Buf, [f]) => n = *f,
            _ => return (n.index() as u32, parity),
        }
    }
}

/// Compile one gate into `ops`/`pool`. With `faithful` unset, operands are
/// resolved through NOT/BUF chains and inversions fused into the opcode;
/// with `faithful` set, operands stay the literal fanins (the fault
/// propagator patches arbitrary slots, and resolution would read through
/// the patch).
fn compile_gate(
    net: &Netlist,
    faithful: bool,
    id: NodeId,
    ops: &mut Vec<KOp>,
    pool: &mut Vec<u32>,
) {
    let res = |f: NodeId| {
        if faithful {
            (f.index() as u32, false)
        } else {
            resolve(net, f)
        }
    };
    let node = net.node(id);
    let kind = node.kind();
    let out = id.index() as u32;
    let op = match node.fanins() {
        // NOT/BUF are the only unary kinds; other kinds keep the fold path
        // at any other arity, mirroring `comb::eval_gate_packed`.
        [a] if matches!(kind, GateKind::Not | GateKind::Buf) => {
            let (root, parity) = res(*a);
            let inv = parity ^ matches!(kind, GateKind::Not);
            KOp {
                code: if inv { OP_NOT } else { OP_MOV },
                out,
                a: root,
                b: 0,
            }
        }
        [a, b] if !matches!(kind, GateKind::Not | GateKind::Buf) => {
            fuse2(kind, out, res(*a), res(*b))
        }
        many => {
            let start = pool.len() as u32;
            pool.extend(many.iter().map(|&f| {
                let (root, parity) = res(f);
                root | if parity { POOL_INV } else { 0 }
            }));
            KOp {
                code: OP_WIDE + kind_code(kind),
                out,
                a: start,
                b: many.len() as u32,
            }
        }
    };
    ops.push(op);
}

/// Call `f` with each operand node an op reads (pool inversions masked).
fn for_each_operand(op: &KOp, pool: &[u32], mut f: impl FnMut(u32)) {
    if op.code >= OP_WIDE {
        for &p in &pool[op.a as usize..(op.a + op.b) as usize] {
            f(p & !POOL_INV);
        }
    } else if op.code >= OP_MOV {
        f(op.a);
    } else {
        f(op.a);
        f(op.b);
    }
}

/// Evaluate one op over packed two-valued words (shared by the program
/// runner and the event-driven fault propagator).
#[inline]
fn eval_op2(op: &KOp, pool: &[u32], vals: &[u64]) -> u64 {
    if op.code < OP_WIDE {
        let a = vals[op.a as usize];
        match op.code {
            OP_AND2 => a & vals[op.b as usize],
            OP_NAND2 => !(a & vals[op.b as usize]),
            OP_OR2 => a | vals[op.b as usize],
            OP_NOR2 => !(a | vals[op.b as usize]),
            OP_XOR2 => a ^ vals[op.b as usize],
            OP_XNOR2 => !(a ^ vals[op.b as usize]),
            OP_ANDN2 => a & !vals[op.b as usize],
            OP_ORN2 => a | !vals[op.b as usize],
            OP_MOV => a,
            _ => !a,
        }
    } else {
        let fanins = &pool[op.a as usize..(op.a + op.b) as usize];
        let mut it = fanins
            .iter()
            .map(|&f| vals[(f & !POOL_INV) as usize] ^ if f & POOL_INV != 0 { !0 } else { 0 });
        match op.code - OP_WIDE {
            0 => it.fold(!0u64, |a, v| a & v),
            1 => !it.fold(!0u64, |a, v| a & v),
            2 => it.fold(0u64, |a, v| a | v),
            3 => !it.fold(0u64, |a, v| a | v),
            4 => it.fold(0u64, |a, v| a ^ v),
            5 => !it.fold(0u64, |a, v| a ^ v),
            6 => !it.next().expect("NOT has a fanin"),
            _ => it.next().expect("BUF has a fanin"),
        }
    }
}

/// What the ops of one run share: the opcode, plus the fanin count of a
/// wide fold so that its inner loop has a fixed trip count too.
fn run_key(op: &KOp) -> (u8, u32) {
    (op.code, if op.code >= OP_WIDE { op.b } else { 0 })
}

/// Schedule a fused program (given in topological order) into runs of one
/// opcode within one logic level (see [module docs](self)); returns the
/// scheduled ops and the op index at which each run ends.
fn schedule(num_nodes: usize, ops: Vec<KOp>, pool: &[u32]) -> (Vec<KOp>, Vec<u32>) {
    let mut level = vec![0u32; num_nodes];
    let mut keyed: Vec<(u32, KOp)> = Vec::with_capacity(ops.len());
    for op in ops {
        let mut deepest = 0;
        for_each_operand(&op, pool, |n| deepest = deepest.max(level[n as usize]));
        level[op.out as usize] = deepest + 1;
        keyed.push((deepest + 1, op));
    }
    keyed.sort_by_key(|&(lvl, op)| (lvl, run_key(&op)));
    let ops: Vec<KOp> = keyed.into_iter().map(|(_, op)| op).collect();
    let run_ends = (1..=ops.len())
        .filter(|&end| end == ops.len() || run_key(&ops[end - 1]) != run_key(&ops[end]))
        .map(|end| end as u32)
        .collect();
    (ops, run_ends)
}

/// Run a scheduled program over packed two-valued words: one dispatch per
/// run, then a fixed-opcode loop over its ops.
fn run2(ops: &[KOp], run_ends: &[u32], pool: &[u32], vals: &mut [u64]) {
    #[inline(always)]
    fn binary(ops: &[KOp], vals: &mut [u64], f: impl Fn(u64, u64) -> u64) {
        for op in ops {
            vals[op.out as usize] = f(vals[op.a as usize], vals[op.b as usize]);
        }
    }
    #[inline(always)]
    fn unary(ops: &[KOp], vals: &mut [u64], f: impl Fn(u64) -> u64) {
        for op in ops {
            vals[op.out as usize] = f(vals[op.a as usize]);
        }
    }
    /// A wide fold seeded with `init`, its result XORed with `out_inv`;
    /// pool entries carry their operand inversion in [`POOL_INV`].
    #[inline(always)]
    fn wide(
        ops: &[KOp],
        pool: &[u32],
        vals: &mut [u64],
        (init, out_inv): (u64, u64),
        f: impl Fn(u64, u64) -> u64,
    ) {
        for op in ops {
            let fanins = &pool[op.a as usize..(op.a + op.b) as usize];
            let acc = fanins.iter().fold(init, |acc, &p| {
                f(
                    acc,
                    vals[(p & !POOL_INV) as usize] ^ ((p >> 31) as u64).wrapping_neg(),
                )
            });
            vals[op.out as usize] = acc ^ out_inv;
        }
    }
    let mut start = 0;
    for &end in run_ends {
        let ops = &ops[start..end as usize];
        start = end as usize;
        match ops[0].code {
            OP_AND2 => binary(ops, vals, |a, b| a & b),
            OP_NAND2 => binary(ops, vals, |a, b| !(a & b)),
            OP_OR2 => binary(ops, vals, |a, b| a | b),
            OP_NOR2 => binary(ops, vals, |a, b| !(a | b)),
            OP_XOR2 => binary(ops, vals, |a, b| a ^ b),
            OP_XNOR2 => binary(ops, vals, |a, b| !(a ^ b)),
            OP_ANDN2 => binary(ops, vals, |a, b| a & !b),
            OP_ORN2 => binary(ops, vals, |a, b| a | !b),
            OP_MOV => unary(ops, vals, |a| a),
            OP_NOT => unary(ops, vals, |a| !a),
            // Wide folds in `kind_code` order.
            code => match code - OP_WIDE {
                0 => wide(ops, pool, vals, (!0, 0), |x, v| x & v),
                1 => wide(ops, pool, vals, (!0, !0), |x, v| x & v),
                2 => wide(ops, pool, vals, (0, 0), |x, v| x | v),
                3 => wide(ops, pool, vals, (0, !0), |x, v| x | v),
                4 => wide(ops, pool, vals, (0, 0), |x, v| x ^ v),
                5 => wide(ops, pool, vals, (0, !0), |x, v| x ^ v),
                _ => {
                    for op in ops {
                        vals[op.out as usize] = eval_op2(op, pool, vals);
                    }
                }
            },
        }
    }
}

/// Per-worker scratch for [`Kernel::propagate`]: a pending-op bitmap and
/// the changed-node (restore) list. Create once per worker with
/// [`FaultProp::default`] and reuse across faults — the buffers grow to
/// the kernel's program size on first use and are left empty between
/// calls.
#[derive(Debug, Default)]
pub struct FaultProp {
    pending: Vec<u64>,
    changed: Vec<u32>,
}

/// A compiled, cached simulation program for one netlist structure.
///
/// Build once per circuit via [`Kernel::for_netlist`]; both evaluation
/// flavours (packed two-valued, event-driven single-fault propagation) run
/// from one compilation.
#[derive(Debug)]
pub struct Kernel {
    digest: u128,
    num_nodes: usize,
    /// Fused program: chain-resolved operands, inversion-absorbing opcodes,
    /// scheduled into runs of one opcode within one logic level; each run
    /// ends at the next entry of `run_ends`.
    ops: Vec<KOp>,
    run_ends: Vec<u32>,
    pool: Vec<u32>,
    /// Faithful program: literal fanins in netlist evaluation order — fault
    /// propagation must see patched slots that resolution would read through.
    fprog: Vec<KOp>,
    fpool: Vec<u32>,
    /// Consumer index (CSR): `cons[cons_start[n]..cons_start[n + 1]]` are
    /// the faithful-op indices reading node `n`, in program order.
    cons_start: Box<[u32]>,
    cons: Box<[u32]>,
    observable: Box<[bool]>,
}

impl Kernel {
    /// Compile `net` without consulting the cache (prefer
    /// [`Kernel::for_netlist`]).
    pub fn build(net: &Netlist) -> Self {
        let mut ops = Vec::with_capacity(net.eval_order().len());
        let mut pool = Vec::new();
        let mut fprog = Vec::with_capacity(net.eval_order().len());
        let mut fpool = Vec::new();
        for &id in net.eval_order() {
            compile_gate(net, false, id, &mut ops, &mut pool);
            compile_gate(net, true, id, &mut fprog, &mut fpool);
        }
        let (ops, run_ends) = schedule(net.num_nodes(), ops, &pool);
        // Consumer CSR over the faithful program (counting pass, prefix
        // sums, fill pass) — per-node lists come out in program order.
        let mut cons_start = vec![0u32; net.num_nodes() + 1];
        for op in &fprog {
            for_each_operand(op, &fpool, |n| cons_start[n as usize + 1] += 1);
        }
        for i in 1..cons_start.len() {
            cons_start[i] += cons_start[i - 1];
        }
        let mut cursor = cons_start.clone();
        let mut cons = vec![0u32; *cons_start.last().expect("non-empty") as usize];
        for (i, op) in fprog.iter().enumerate() {
            for_each_operand(op, &fpool, |n| {
                cons[cursor[n as usize] as usize] = i as u32;
                cursor[n as usize] += 1;
            });
        }
        // Observability matches `fbt-fault`: PO drivers and DFF D-inputs.
        let mut observable = vec![false; net.num_nodes()];
        for &o in net.outputs() {
            observable[o.index()] = true;
        }
        for &d in net.dffs() {
            observable[net.node(d).fanins()[0].index()] = true;
        }
        Kernel {
            digest: structural_digest(net),
            num_nodes: net.num_nodes(),
            ops,
            run_ends,
            pool,
            fprog,
            fpool,
            cons_start: cons_start.into_boxed_slice(),
            cons: cons.into_boxed_slice(),
            observable: observable.into_boxed_slice(),
        }
    }

    /// The compiled kernel for `net`, from the global content-addressed
    /// cache (see [module docs](self)). Structurally identical netlists
    /// share one kernel across engines and threads.
    pub fn for_netlist(net: &Netlist) -> Arc<Kernel> {
        let digest = structural_digest(net);
        let mut cache = cache().lock().expect("kernel cache poisoned");
        if let Some(pos) = cache.iter().position(|(d, _)| *d == digest) {
            let hit = cache.remove(pos);
            let kernel = hit.1.clone();
            cache.insert(0, hit); // move-to-front LRU
            CACHE_HITS.fetch_add(1, Ordering::Relaxed);
            return kernel;
        }
        let t0 = Instant::now();
        let kernel = Arc::new(Kernel::build(net));
        CACHE_BUILDS.fetch_add(1, Ordering::Relaxed);
        CACHE_BUILD_NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        cache.insert(0, (digest, kernel.clone()));
        cache.truncate(CACHE_CAP);
        kernel
    }

    /// The structural digest this kernel was keyed under.
    pub fn digest(&self) -> u128 {
        self.digest
    }

    /// Number of nodes in the compiled circuit (the required value-buffer
    /// length).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of compiled full-program operations.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Packed two-valued evaluation: sources pre-filled, gate entries
    /// overwritten run by run in the scheduled order. Bit-identical to
    /// [`crate::comb::eval_packed`].
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != self.num_nodes()`.
    pub fn eval2(&self, vals: &mut [u64]) {
        assert_eq!(vals.len(), self.num_nodes, "value buffer size mismatch");
        run2(&self.ops, &self.run_ends, &self.pool, vals);
    }

    /// Event-driven single-fault propagation (see [module docs](self)):
    /// force `patch` into `vals[site]`, re-evaluate exactly the ops whose
    /// inputs change, and return the OR over observable nodes of
    /// `faulty ^ good` — the lanes where the fault effect reaches an
    /// observation point. `vals` must equal `good` on entry and is
    /// restored to it before returning.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match `self.num_nodes()`.
    pub fn propagate(
        &self,
        prop: &mut FaultProp,
        site: usize,
        patch: u64,
        vals: &mut [u64],
        good: &[u64],
    ) -> u64 {
        assert_eq!(vals.len(), self.num_nodes, "value buffer size mismatch");
        assert_eq!(good.len(), self.num_nodes, "good buffer size mismatch");
        let nwords = self.fprog.len().div_ceil(64);
        if prop.pending.len() < nwords {
            prop.pending.resize(nwords, 0);
        }
        let mut diff = if self.observable[site] {
            patch ^ good[site]
        } else {
            0
        };
        vals[site] = patch;
        let mut lo = usize::MAX;
        let mut hi = 0usize;
        for &c in self.consumers(site) {
            let w = (c >> 6) as usize;
            prop.pending[w] |= 1 << (c & 63);
            lo = lo.min(w);
            hi = hi.max(w);
        }
        if lo != usize::MAX {
            // Sweep pending ops in program (= topological) order: always
            // take the lowest set bit of the current word, so an op runs
            // only after every changed operand has its final value — new
            // marks always land at strictly higher op indices.
            let mut w = lo;
            while w <= hi {
                let b = prop.pending[w];
                if b == 0 {
                    w += 1;
                    continue;
                }
                let t = b.trailing_zeros() as usize;
                prop.pending[w] = b & (b - 1);
                let op = &self.fprog[(w << 6) | t];
                let out = op.out as usize;
                let v = eval_op2(op, &self.fpool, vals);
                if v != vals[out] {
                    vals[out] = v;
                    prop.changed.push(out as u32);
                    if self.observable[out] {
                        diff |= v ^ good[out];
                    }
                    for &c in self.consumers(out) {
                        let cw = (c >> 6) as usize;
                        prop.pending[cw] |= 1 << (c & 63);
                        hi = hi.max(cw);
                    }
                }
            }
        }
        vals[site] = good[site];
        for x in prop.changed.drain(..) {
            vals[x as usize] = good[x as usize];
        }
        diff
    }

    /// Faithful-op indices reading `node`.
    #[inline]
    fn consumers(&self, node: usize) -> &[u32] {
        &self.cons[self.cons_start[node] as usize..self.cons_start[node + 1] as usize]
    }

    /// Shared observability flags (PO drivers and DFF D-inputs), matching
    /// the fault-simulation engine's definition.
    pub fn observable(&self) -> &[bool] {
        &self.observable
    }
}

const CACHE_CAP: usize = 64;

static CACHE_BUILDS: AtomicUsize = AtomicUsize::new(0);
static CACHE_HITS: AtomicUsize = AtomicUsize::new(0);
static CACHE_BUILD_NANOS: AtomicU64 = AtomicU64::new(0);

type CacheEntries = Vec<(u128, Arc<Kernel>)>;

fn cache() -> &'static Mutex<CacheEntries> {
    static CACHE: OnceLock<Mutex<CacheEntries>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Cumulative kernel-cache counters for this process (monotone; consumers
/// report deltas around the engine constructions they own).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Kernels compiled (cache misses).
    pub builds: usize,
    /// Cache hits (a structurally identical kernel was reused).
    pub hits: usize,
    /// Wall-clock spent compiling, summed over builds.
    pub build_wall: Duration,
}

impl CacheStats {
    /// Counters accumulated since `earlier` (saturating).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            builds: self.builds.saturating_sub(earlier.builds),
            hits: self.hits.saturating_sub(earlier.hits),
            build_wall: self.build_wall.saturating_sub(earlier.build_wall),
        }
    }
}

/// Snapshot the global kernel-cache counters.
pub fn cache_stats() -> CacheStats {
    CacheStats {
        builds: CACHE_BUILDS.load(Ordering::Relaxed),
        hits: CACHE_HITS.load(Ordering::Relaxed),
        build_wall: Duration::from_nanos(CACHE_BUILD_NANOS.load(Ordering::Relaxed)),
    }
}

/// Number of kernels currently resident in the global cache (bounded by the
/// LRU cap).
pub fn cache_len() -> usize {
    cache().lock().expect("kernel cache poisoned").len()
}

/// 128-bit structural digest: two independent FNV-1a passes over the
/// netlist's structure (node kinds, fanin indices, interface lists,
/// evaluation order). Names are excluded — kernels depend on structure
/// only.
pub fn structural_digest(net: &Netlist) -> u128 {
    let mut a = Fnv::new(0xcbf2_9ce4_8422_2325, 0x0000_0100_0000_01b3);
    let mut b = Fnv::new(0x6c62_272e_07bb_0142, 0x0000_0000_0100_0193);
    let mut put = |v: u64| {
        a.write(v);
        b.write(v);
    };
    put(net.num_nodes() as u64);
    put(net.num_inputs() as u64);
    put(net.num_outputs() as u64);
    put(net.num_dffs() as u64);
    for id in net.node_ids() {
        let node = net.node(id);
        put(kind_tag(node.kind()));
        put(node.fanins().len() as u64);
        for &f in node.fanins() {
            put(f.index() as u64);
        }
    }
    for &i in net.inputs() {
        put(i.index() as u64);
    }
    for &o in net.outputs() {
        put(o.index() as u64);
    }
    for &d in net.dffs() {
        put(d.index() as u64);
    }
    for &e in net.eval_order() {
        put(e.index() as u64);
    }
    ((a.state as u128) << 64) | b.state as u128
}

fn kind_tag(kind: GateKind) -> u64 {
    match kind {
        GateKind::Input => 100,
        GateKind::Dff => 101,
        other => kind_code(other) as u64,
    }
}

struct Fnv {
    state: u64,
    prime: u64,
}

impl Fnv {
    fn new(offset: u64, prime: u64) -> Self {
        Fnv {
            state: offset,
            prime,
        }
    }

    fn write(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.state ^= byte as u64;
            self.state = self.state.wrapping_mul(self.prime);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comb;
    use fbt_netlist::rng::Rng;
    use fbt_netlist::s27;
    use fbt_netlist::synth::{self, CircuitSpec};

    fn random_nets(n: usize, seed: u64) -> Vec<Netlist> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| {
                let pi = 2 + (rng.next_u64() % 6) as usize;
                let po = 1 + (rng.next_u64() % 4) as usize;
                let ff = 1 + (rng.next_u64() % 9) as usize;
                let gates = 20 + (rng.next_u64() % 150) as usize;
                let mut spec = CircuitSpec::new("kern", pi, po, ff, gates);
                spec.seed = rng.next_u64();
                synth::generate(&spec)
            })
            .collect()
    }

    fn random_sources(net: &Netlist, rng: &mut Rng, vals: &mut [u64]) {
        for &id in net.inputs().iter().chain(net.dffs()) {
            vals[id.index()] = rng.next_u64();
        }
    }

    #[test]
    fn eval2_matches_eval_packed_on_random_nets() {
        let mut rng = Rng::new(11);
        for net in random_nets(6, 0xC0DE) {
            let kernel = Kernel::build(&net);
            for _ in 0..8 {
                let mut reference = vec![0u64; net.num_nodes()];
                random_sources(&net, &mut rng, &mut reference);
                let mut compiled = reference.clone();
                comb::eval_packed(&net, &mut reference);
                kernel.eval2(&mut compiled);
                assert_eq!(compiled, reference, "{}", net.name());
            }
        }
    }

    #[test]
    fn eval2_matches_eval_packed_on_s27_exhaustively() {
        let net = s27();
        let kernel = Kernel::build(&net);
        for combo in 0..128u64 {
            let pi: Vec<u64> = (0..4).map(|b| ((combo >> b) & 1) * !0u64).collect();
            let st: Vec<u64> = (0..3).map(|b| ((combo >> (4 + b)) & 1) * !0u64).collect();
            let mut reference = vec![0u64; net.num_nodes()];
            comb::load_sources_packed(&net, &pi, &st, &mut reference);
            let mut compiled = reference.clone();
            comb::eval_packed(&net, &mut reference);
            kernel.eval2(&mut compiled);
            assert_eq!(compiled, reference, "combo {combo}");
        }
    }

    #[test]
    fn propagate_matches_interpreter_cones() {
        let mut rng = Rng::new(5);
        for net in random_nets(4, 0xFA17).into_iter().chain([s27()]) {
            let kernel = Kernel::build(&net);
            let mut prop = FaultProp::default();
            let mut good = vec![0u64; net.num_nodes()];
            random_sources(&net, &mut rng, &mut good);
            comb::eval_packed(&net, &mut good);
            let mut scratch = good.clone();
            for site in net.node_ids() {
                if net.node(site).kind() == GateKind::Dff {
                    continue;
                }
                let patch = !good[site.index()];
                let diff_compiled =
                    kernel.propagate(&mut prop, site.index(), patch, &mut scratch, &good);
                // Restore must return scratch to the good machine exactly.
                assert_eq!(scratch, good, "{} site {site:?} restore", net.name());
                // Interpreter reference: full-cone re-evaluation + scan.
                let cone = net.fanout_cone(site);
                let mut reference = good.clone();
                reference[site.index()] = patch;
                comb::eval_packed_cone(&net, &cone[1..], &mut reference);
                let mut diff_reference = 0u64;
                for &c in &cone {
                    if kernel.observable()[c.index()] {
                        diff_reference |= reference[c.index()] ^ good[c.index()];
                    }
                }
                assert_eq!(
                    diff_compiled,
                    diff_reference,
                    "{} site {}",
                    net.name(),
                    net.node_name(site)
                );
            }
        }
    }

    #[test]
    fn propagate_handles_partial_lane_patches_and_leaf_sites() {
        // Patching only some lanes must propagate exactly those lanes, and
        // a site whose value the patch does not change must produce no
        // diff and no scratch disturbance.
        let net = s27();
        let kernel = Kernel::build(&net);
        let mut prop = FaultProp::default();
        let mut rng = Rng::new(0xBEEF);
        let mut good = vec![0u64; net.num_nodes()];
        random_sources(&net, &mut rng, &mut good);
        comb::eval_packed(&net, &mut good);
        let mut scratch = good.clone();
        for site in net.node_ids() {
            if net.node(site).kind() == GateKind::Dff {
                continue;
            }
            for patch in [good[site.index()], good[site.index()] ^ 0b1010] {
                let diff = kernel.propagate(&mut prop, site.index(), patch, &mut scratch, &good);
                assert_eq!(scratch, good, "restore after site {site:?}");
                if patch == good[site.index()] {
                    assert_eq!(diff, 0, "no-op patch produced a diff at {site:?}");
                } else {
                    // Effects can only surface in patched lanes.
                    assert_eq!(diff & !0b1010, 0, "diff outside patched lanes");
                }
            }
        }
    }

    #[test]
    fn cache_shares_structurally_identical_netlists() {
        let spec = synth::find("s298").unwrap();
        let a = synth::generate(&spec);
        let b = synth::generate(&spec);
        assert_eq!(structural_digest(&a), structural_digest(&b));
        let before = cache_stats();
        let ka = Kernel::for_netlist(&a);
        let kb = Kernel::for_netlist(&b);
        assert!(Arc::ptr_eq(&ka, &kb), "identical structures share a kernel");
        let delta = cache_stats().since(&before);
        assert!(delta.hits >= 1, "second lookup hits the cache");
    }

    #[test]
    fn digests_separate_different_structures() {
        let nets = random_nets(6, 77);
        let mut digests: Vec<u128> = nets.iter().map(structural_digest).collect();
        digests.push(structural_digest(&s27()));
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), nets.len() + 1, "no digest collisions");
    }

    #[test]
    fn fusion_resolves_through_chains_and_faithful_program_does_not() {
        // The fused program must never read a NOT/BUF output (resolution
        // re-roots every such operand); the faithful program must keep the
        // literal fanins so patched chain nodes stay visible.
        let net = s27();
        let kernel = Kernel::build(&net);
        let is_chain = |n: u32| matches!(net.node(NodeId(n)).kind(), GateKind::Not | GateKind::Buf);
        let mut fused_chain_reads = 0usize;
        for op in &kernel.ops {
            for_each_operand(op, &kernel.pool, |n| {
                fused_chain_reads += is_chain(n) as usize
            });
        }
        let mut faithful_chain_reads = 0usize;
        for op in &kernel.fprog {
            for_each_operand(op, &kernel.fpool, |n| {
                faithful_chain_reads += is_chain(n) as usize
            });
        }
        assert_eq!(fused_chain_reads, 0, "fusion left a chain read");
        assert!(faithful_chain_reads > 0, "s27 has inverter chains");
        assert_eq!(kernel.num_ops(), net.eval_order().len());
        assert_eq!(kernel.fprog.len(), net.eval_order().len());
    }

    #[test]
    fn run_schedule_is_topological_and_tiled_by_single_opcode_runs() {
        // Every operand of the scheduled program is a source or written by
        // an earlier op, every gate is written exactly once, and the runs
        // tile the program with one opcode each.
        let catalog = synth::iscas_small()
            .into_iter()
            .map(|s| synth::generate(&s));
        for net in random_nets(4, 0x5C4E)
            .into_iter()
            .chain([s27()])
            .chain(catalog)
        {
            let kernel = Kernel::build(&net);
            let mut written = vec![false; net.num_nodes()];
            for &id in net.inputs().iter().chain(net.dffs()) {
                written[id.index()] = true;
            }
            for (i, op) in kernel.ops.iter().enumerate() {
                for_each_operand(op, &kernel.pool, |n| {
                    assert!(
                        written[n as usize],
                        "{} op {i} reads node {n} early",
                        net.name()
                    )
                });
                assert!(!written[op.out as usize], "{} op {i} rewrites", net.name());
                written[op.out as usize] = true;
            }
            assert!(written.iter().all(|&w| w), "{} gate left out", net.name());
            let mut start = 0;
            for &end in &kernel.run_ends {
                let end = end as usize;
                assert!(end > start, "{} empty run", net.name());
                let key = run_key(&kernel.ops[start]);
                assert!(kernel.ops[start..end].iter().all(|op| run_key(op) == key));
                start = end;
            }
            assert_eq!(
                start,
                kernel.ops.len(),
                "{} runs cover the program",
                net.name()
            );
            assert_eq!(kernel.num_ops(), net.eval_order().len());
        }
    }
}

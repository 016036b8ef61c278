//! The fault-simulation engine API.
//!
//! Everything the workspace needs from broadside transition-fault
//! simulation goes through one trait, [`FaultSimEngine`], configured by a
//! builder-style [`FaultSimOptions`]. The trait's core entry point is
//! *grouped*: one call simulates a whole batch of independent candidate
//! test sequences ([`TestGroup`]s), each with its own detection credit.
//!
//! [`PackedParallelSim`] implements it: a PPSFP-style (parallel-pattern,
//! single-fault propagation) engine that packs 64 tests per `u64` word —
//! *across group boundaries* — and shards the fault list across worker
//! threads with [`std::thread::scope`]. One levelized pass over the circuit
//! evaluates tests from many speculative candidates at once; fault dropping
//! is lane-masked per group, so a drop credited to group *i* never leaks
//! into group *j*'s outcome.
//!
//! Within a 64-test word each fault is simulated independently against a
//! shared fault-free machine, so neither the word boundaries, the group
//! packing, the shard boundaries nor the thread count can change a
//! detection verdict. Fault dropping takes effect between words, and every
//! group's outcome equals what running that group alone (from the shared
//! baseline) would produce. The `differential` and `grouped_differential`
//! integration tests pin this against an independent scalar oracle that
//! simulates one test and one fault at a time.
//!
//! Evaluation runs on the cached compiled kernels of [`fbt_sim::kernel`]:
//! the fault-free frames run the flattened full program and each fault's
//! propagation runs an event-driven pass with a patch slot at the fault
//! site, re-evaluating only the ops whose inputs change; the kernel is
//! shared across engines and worker threads via the global
//! content-addressed cache.
//!
//! # Example
//!
//! ```
//! use fbt_fault::{all_transition_faults, BroadsideTest};
//! use fbt_fault::engine::{FaultSimEngine, FaultSimOptions, PackedParallelSim, TestGroup};
//! use fbt_netlist::s27;
//! use fbt_sim::Bits;
//!
//! let net = s27();
//! let faults = all_transition_faults(&net);
//! let a = vec![BroadsideTest::new(
//!     Bits::from_str01("000"),
//!     Bits::from_str01("0000"),
//!     Bits::from_str01("1000"),
//! )];
//! let b = vec![BroadsideTest::new(
//!     Bits::from_str01("101"),
//!     Bits::from_str01("1111"),
//!     Bits::from_str01("0000"),
//! )];
//! // Two speculative candidates, one packed pass, independent credit.
//! let groups = [TestGroup::new(&a[..]), TestGroup::new(&b[..])];
//! let baseline = vec![false; faults.len()];
//! let mut engine = PackedParallelSim::new(&net);
//! let outs = engine.simulate_groups(&groups, &faults, &baseline, &FaultSimOptions::new());
//! assert_eq!(outs.len(), 2);
//! assert_eq!(outs[0].newly_detected, outs[0].newly.len());
//! ```

use std::sync::Arc;

use fbt_netlist::Netlist;
use fbt_sim::comb;
use fbt_sim::kernel::{FaultProp, Kernel};

use crate::{BroadsideTest, Transition, TransitionFault, TwoPatternTest};

/// Configuration for one [`FaultSimEngine`] call.
///
/// Built fluently; the default is a plain 1-detect run with fault dropping
/// on and automatic thread count:
///
/// ```
/// use fbt_fault::engine::FaultSimOptions;
/// let opts = FaultSimOptions::new().n_detect(5).threads(4);
/// assert_eq!(opts.n_detect_cap(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSimOptions {
    n_detect: usize,
    fault_dropping: bool,
    threads: usize,
    matrix: bool,
    until_first_accept: bool,
}

impl Default for FaultSimOptions {
    fn default() -> Self {
        FaultSimOptions {
            n_detect: 1,
            fault_dropping: true,
            threads: 0,
            matrix: false,
            until_first_accept: false,
        }
    }
}

impl FaultSimOptions {
    /// Plain 1-detect simulation with fault dropping, automatic threads.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count detections per fault up to `cap` instead of stopping at the
    /// first one. With fault dropping on, a fault is dropped once it
    /// saturates. The outcome's `counts` field is populated when `cap > 1`.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn n_detect(mut self, cap: usize) -> Self {
        assert!(cap > 0, "n-detect cap must be positive");
        self.n_detect = cap;
        self
    }

    /// Skip faults whose `detected` flag is already set (default `true`).
    pub fn fault_dropping(mut self, on: bool) -> Self {
        self.fault_dropping = on;
        self
    }

    /// Number of worker threads for engines that parallelise; `0` (the
    /// default) resolves to [`std::thread::available_parallelism`].
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Record the full fault × test detection matrix. Implies fault
    /// dropping off, whatever [`fault_dropping`](Self::fault_dropping) says
    /// and in whichever order the two are set: every detection of every
    /// fault must be observed.
    pub fn detection_matrix(mut self, on: bool) -> Self {
        self.matrix = on;
        self
    }

    /// In a [`FaultSimEngine::simulate_groups`] call, stop as soon as the
    /// first *accepting* group (in batch order) is fully simulated: a group
    /// that newly detects at least one fault relative to the baseline.
    /// Groups after the first acceptor are returned with
    /// [`SimOutcome::complete`] `false` and otherwise-empty outcomes.
    ///
    /// This mirrors the speculative commit rule of the generation engine
    /// (draw order, first acceptor wins): outcomes after the acceptor are
    /// never consumed, so the engine need not pay for them.
    pub fn until_first_accept(mut self, on: bool) -> Self {
        self.until_first_accept = on;
        self
    }

    /// The configured n-detect cap.
    pub fn n_detect_cap(&self) -> usize {
        self.n_detect
    }

    /// Whether fault dropping is in effect: requested, and no detection
    /// matrix is being recorded.
    pub fn drops_faults(&self) -> bool {
        self.fault_dropping && !self.matrix
    }

    /// The configured thread count (`0` = automatic).
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// Whether grouped calls stop at the first accepting group.
    pub fn stops_at_first_accept(&self) -> bool {
        self.until_first_accept
    }
}

/// The tests given to one engine call: broadside tests (second state
/// derived from the first pattern) or two-pattern tests with an explicit —
/// possibly unreachable — second state (the state-holding DFT of paper
/// §4.5).
#[derive(Debug, Clone, Copy)]
pub enum TestSet<'a> {
    /// Broadside tests; `s2` is the circuit's response to `<s1, v1>`.
    Broadside(&'a [BroadsideTest]),
    /// Two-pattern tests carrying their own second state.
    TwoPattern(&'a [TwoPatternTest]),
}

impl TestSet<'_> {
    /// Number of tests.
    pub fn len(&self) -> usize {
        match self {
            TestSet::Broadside(t) => t.len(),
            TestSet::TwoPattern(t) => t.len(),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pack tests `start..end` into lanes `lane_lo..` of an existing chunk
    /// (a grouped call interleaves several groups into one word).
    fn pack_into(
        &self,
        net: &Netlist,
        start: usize,
        end: usize,
        lane_lo: u32,
        c: &mut PackedChunk,
    ) {
        let n_pi = net.num_inputs();
        let n_ff = net.num_dffs();
        match self {
            TestSet::Broadside(tests) => {
                for (k, t) in tests[start..end].iter().enumerate() {
                    assert_eq!(t.v1.len(), n_pi, "PI width mismatch");
                    assert_eq!(t.scan_in.len(), n_ff, "state width mismatch");
                    let bit = 1u64 << (lane_lo + k as u32);
                    for i in 0..n_pi {
                        if t.v1.get(i) {
                            c.v1w[i] |= bit;
                        }
                        if t.v2.get(i) {
                            c.v2w[i] |= bit;
                        }
                    }
                    for (i, w) in c.s1w.iter_mut().enumerate() {
                        if t.scan_in.get(i) {
                            *w |= bit;
                        }
                    }
                }
            }
            TestSet::TwoPattern(tests) => {
                for (k, t) in tests[start..end].iter().enumerate() {
                    assert_eq!(t.v1.len(), n_pi, "PI width mismatch");
                    assert_eq!(t.s1.len(), n_ff, "state width mismatch");
                    assert_eq!(t.s2.len(), n_ff, "state width mismatch");
                    let bit = 1u64 << (lane_lo + k as u32);
                    c.s2_mask |= bit;
                    for i in 0..n_pi {
                        if t.v1.get(i) {
                            c.v1w[i] |= bit;
                        }
                        if t.v2.get(i) {
                            c.v2w[i] |= bit;
                        }
                    }
                    for (i, (w1, w2)) in c.s1w.iter_mut().zip(c.s2w.iter_mut()).enumerate() {
                        if t.s1.get(i) {
                            *w1 |= bit;
                        }
                        if t.s2.get(i) {
                            *w2 |= bit;
                        }
                    }
                }
            }
        }
    }
}

impl<'a> From<&'a [BroadsideTest]> for TestSet<'a> {
    fn from(t: &'a [BroadsideTest]) -> Self {
        TestSet::Broadside(t)
    }
}

impl<'a> From<&'a [TwoPatternTest]> for TestSet<'a> {
    fn from(t: &'a [TwoPatternTest]) -> Self {
        TestSet::TwoPattern(t)
    }
}

/// One independent candidate in a [`FaultSimEngine::simulate_groups`]
/// batch: a test set simulated with its own detection credit, as if it were
/// the only one running against the shared baseline.
#[derive(Debug, Clone, Copy)]
pub struct TestGroup<'a> {
    /// The group's tests.
    pub tests: TestSet<'a>,
}

impl<'a> TestGroup<'a> {
    /// Wrap a test set (or anything convertible into one) as a group.
    pub fn new(tests: impl Into<TestSet<'a>>) -> Self {
        TestGroup {
            tests: tests.into(),
        }
    }
}

impl<'a> From<TestSet<'a>> for TestGroup<'a> {
    fn from(tests: TestSet<'a>) -> Self {
        TestGroup { tests }
    }
}

/// A fault × test detection matrix, 64 tests per word.
///
/// Row-major per fault; produced by
/// [`FaultSimEngine::detection_matrix`]. The transition-path-delay-fault
/// pipeline (paper §2.3.3) ANDs rows together: a path fault is detected by
/// a test only if the test detects every transition fault along the path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionMatrix {
    n_tests: usize,
    rows: Vec<Vec<u64>>,
}

impl DetectionMatrix {
    fn new(n_faults: usize, n_tests: usize) -> Self {
        DetectionMatrix {
            n_tests,
            rows: vec![vec![0u64; n_tests.div_ceil(64)]; n_faults],
        }
    }

    /// Does `test` detect `fault`?
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn detects(&self, fault: usize, test: usize) -> bool {
        assert!(test < self.n_tests, "test index out of range");
        (self.rows[fault][test / 64] >> (test % 64)) & 1 == 1
    }

    /// The packed row for `fault` (64 tests per word).
    pub fn row(&self, fault: usize) -> &[u64] {
        &self.rows[fault]
    }

    /// Number of words per row.
    pub fn words_per_row(&self) -> usize {
        self.n_tests.div_ceil(64)
    }

    /// Number of faults (rows).
    pub fn num_faults(&self) -> usize {
        self.rows.len()
    }

    /// Number of tests (columns).
    pub fn num_tests(&self) -> usize {
        self.n_tests
    }
}

/// Everything one group (or one plain call) produced. Optional fields are
/// populated according to the [`FaultSimOptions`] used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// How many faults this group detected that the baseline had not
    /// (in n-detect mode: faults that reached the cap). Always equals
    /// `newly.len()`.
    pub newly_detected: usize,
    /// The fault indices behind `newly_detected`, sorted ascending. In a
    /// grouped call these are relative to the shared baseline: credit is
    /// per group and never leaks between groups.
    pub newly: Vec<usize>,
    /// `false` only for groups after the first acceptor in an
    /// [`FaultSimOptions::until_first_accept`] call; their other fields are
    /// unspecified (empty) and must not be consumed.
    pub complete: bool,
    /// Per-fault detection counts, clamped to the cap
    /// (present when `n_detect > 1`).
    pub counts: Option<Vec<usize>>,
    /// The full detection matrix (present when requested).
    pub matrix: Option<DetectionMatrix>,
}

impl Default for SimOutcome {
    fn default() -> Self {
        SimOutcome {
            newly_detected: 0,
            newly: Vec::new(),
            complete: true,
            counts: None,
            matrix: None,
        }
    }
}

/// A broadside transition-fault simulation engine.
///
/// [`simulate_groups`](FaultSimEngine::simulate_groups) is the single
/// required entry point: it evaluates a whole batch of independent
/// candidate test sets in one call. [`simulate`](FaultSimEngine::simulate)
/// is the single-set convenience (a batch of one) and the remaining methods
/// are thin conveniences over it.
///
/// The contract every engine must satisfy: a transition fault `v → v'` on
/// line `g` is detected by a test when the first pattern establishes
/// `g = v` (launch) and under the second pattern the stuck-at-`v` fault on
/// `g` is observed at a primary output or a flip-flop D input (paper §1.2).
/// Detection verdicts must not depend on chunking, group packing, sharding
/// or thread count, and each group's outcome must be bit-identical to
/// simulating that group alone from the shared baseline.
pub trait FaultSimEngine {
    /// A short, stable engine name for logs and reports.
    fn name(&self) -> &'static str;

    /// Simulate a batch of independent candidate groups against `faults`
    /// under `opts`, each group starting from the shared, read-only
    /// `baseline` detection flags.
    ///
    /// Returns one [`SimOutcome`] per group, in batch order. Detection
    /// credit is per group: outcome `i` is exactly what
    /// [`simulate`](FaultSimEngine::simulate) on group `i` alone (with a
    /// copy of `baseline`) would produce. The baseline itself is never
    /// modified — committing a winning group's `newly` indices back into a
    /// flag vector is the caller's decision.
    ///
    /// # Panics
    ///
    /// Panics if `baseline.len() != faults.len()` or test widths mismatch
    /// the engine's netlist.
    fn simulate_groups(
        &mut self,
        groups: &[TestGroup<'_>],
        faults: &[TransitionFault],
        baseline: &[bool],
        opts: &FaultSimOptions,
    ) -> Vec<SimOutcome>;

    /// Simulate `tests` against `faults` under `opts`, updating the
    /// per-fault `detected` flags (with fault dropping on, faults whose
    /// flag is already set are skipped). Equivalent to a grouped call with
    /// a single group whose `newly` indices are committed into `detected`.
    ///
    /// # Panics
    ///
    /// Panics if `detected.len() != faults.len()` or test widths mismatch
    /// the engine's netlist.
    fn simulate(
        &mut self,
        tests: TestSet<'_>,
        faults: &[TransitionFault],
        detected: &mut [bool],
        opts: &FaultSimOptions,
    ) -> SimOutcome {
        let group = [TestGroup::new(tests)];
        let out = self
            .simulate_groups(&group, faults, detected, opts)
            .pop()
            .expect("one group in, one outcome out");
        for &fi in &out.newly {
            detected[fi] = true;
        }
        out
    }

    /// N-detection profile: for each fault, how many of `tests` detect it,
    /// saturating at `cap`. Built-in test generation "naturally achieves
    /// n-detection" (paper §4.1); this quantifies the claim (see
    /// [`crate::sim::n_detect_coverage`]).
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    fn n_detect_profile(
        &mut self,
        tests: &[BroadsideTest],
        faults: &[TransitionFault],
        cap: usize,
    ) -> Vec<usize> {
        assert!(cap > 0, "cap must be positive");
        let mut saturated = vec![false; faults.len()];
        // Counts are only tracked for caps above 1; a cap of 1 is simulated
        // at 2 and clamped, which can only do extra work, never change the
        // clamped result.
        let counts = self
            .simulate(
                TestSet::Broadside(tests),
                faults,
                &mut saturated,
                &FaultSimOptions::new().n_detect(cap.max(2)),
            )
            .counts
            .expect("n-detect counts were requested");
        if cap == 1 {
            counts.into_iter().map(|c| c.min(1)).collect()
        } else {
            counts
        }
    }

    /// Full detection matrix without fault dropping.
    fn detection_matrix(
        &mut self,
        tests: &[BroadsideTest],
        faults: &[TransitionFault],
    ) -> DetectionMatrix {
        let mut detected = vec![false; faults.len()];
        self.simulate(
            TestSet::Broadside(tests),
            faults,
            &mut detected,
            &FaultSimOptions::new().detection_matrix(true),
        )
        .matrix
        .expect("detection matrix was requested")
    }

    /// Does a single test detect a single fault?
    fn detects(&mut self, test: &BroadsideTest, fault: &TransitionFault) -> bool {
        let mut detected = [false];
        self.simulate(
            TestSet::Broadside(std::slice::from_ref(test)),
            std::slice::from_ref(fault),
            &mut detected,
            &FaultSimOptions::new(),
        );
        detected[0]
    }
}

/// Packed source words for one chunk of at most 64 tests.
struct PackedChunk {
    n_tests: usize,
    v1w: Vec<u64>,
    v2w: Vec<u64>,
    s1w: Vec<u64>,
    /// Explicit second states (meaningful in `s2_mask` lanes only).
    s2w: Vec<u64>,
    /// Lanes carrying an explicit second state (two-pattern tests); all
    /// other lanes derive theirs from frame 1. Grouped calls can mix both
    /// kinds inside one word.
    s2_mask: u64,
}

impl PackedChunk {
    fn new(net: &Netlist, n_tests: usize) -> Self {
        PackedChunk {
            n_tests,
            v1w: vec![0; net.num_inputs()],
            v2w: vec![0; net.num_inputs()],
            s1w: vec![0; net.num_dffs()],
            s2w: vec![0; net.num_dffs()],
            s2_mask: 0,
        }
    }
}

/// Fault-free machine values for one chunk, shared by every fault.
struct GoodMachine {
    /// Launch (first-pattern) values per node.
    frame1: Vec<u64>,
    /// Capture (second-pattern) fault-free values per node.
    good: Vec<u64>,
    /// Mask of valid test lanes.
    lanes_mask: u64,
}

fn eval_good(net: &Netlist, chunk: &PackedChunk, kernel: &Kernel) -> GoodMachine {
    let lanes_mask: u64 = if chunk.n_tests == 64 {
        !0
    } else {
        (1u64 << chunk.n_tests) - 1
    };
    let mut frame1 = vec![0u64; net.num_nodes()];
    comb::load_sources_packed(net, &chunk.v1w, &chunk.s1w, &mut frame1);
    kernel.eval2(&mut frame1);
    let mut s2w = comb::next_state_packed(net, &frame1);
    if chunk.s2_mask != 0 {
        for (w, e) in s2w.iter_mut().zip(&chunk.s2w) {
            *w = (*w & !chunk.s2_mask) | (*e & chunk.s2_mask);
        }
    }
    let mut good = vec![0u64; net.num_nodes()];
    comb::load_sources_packed(net, &chunk.v2w, &s2w, &mut good);
    kernel.eval2(&mut good);
    GoodMachine {
        frame1,
        good,
        lanes_mask,
    }
}

/// The lanes of one group inside one packed word of a grouped call.
#[derive(Debug, Clone)]
struct GroupSpan {
    group: usize,
    lane_lo: u32,
    lanes: u32,
    /// Group-local index of the test sitting in lane `lane_lo`.
    local_base: usize,
}

impl GroupSpan {
    fn mask(&self) -> u64 {
        let ones = if self.lanes == 64 {
            !0u64
        } else {
            (1u64 << self.lanes) - 1
        };
        ones << self.lane_lo
    }
}

/// Concatenate the groups into a dense global test-index space: group `g`
/// occupies global tests `offsets[g]..offsets[g+1]`, 64 global tests per
/// word. Returns the offsets and the per-word group spans.
fn group_layout(groups: &[TestGroup<'_>]) -> (Vec<usize>, Vec<Vec<GroupSpan>>) {
    let mut offsets = Vec::with_capacity(groups.len() + 1);
    offsets.push(0usize);
    for g in groups {
        offsets.push(offsets.last().unwrap() + g.tests.len());
    }
    let total = *offsets.last().unwrap();
    let mut spans: Vec<Vec<GroupSpan>> = (0..total.div_ceil(64)).map(|_| Vec::new()).collect();
    for g in 0..groups.len() {
        let (p0, p1) = (offsets[g], offsets[g + 1]);
        if p0 == p1 {
            continue;
        }
        for (w, spans_w) in spans
            .iter_mut()
            .enumerate()
            .take((p1 - 1) / 64 + 1)
            .skip(p0 / 64)
        {
            let lo = p0.max(w * 64);
            let hi = p1.min((w + 1) * 64);
            spans_w.push(GroupSpan {
                group: g,
                lane_lo: (lo - w * 64) as u32,
                lanes: (hi - lo) as u32,
                local_base: lo - p0,
            });
        }
    }
    (offsets, spans)
}

/// Pack one global 64-test word of a grouped call: each span contributes
/// its group-local test range into its lane range.
fn pack_word(
    net: &Netlist,
    groups: &[TestGroup<'_>],
    spans_w: &[GroupSpan],
    n_tests: usize,
) -> PackedChunk {
    let mut c = PackedChunk::new(net, n_tests);
    for sp in spans_w {
        groups[sp.group].tests.pack_into(
            net,
            sp.local_base,
            sp.local_base + sp.lanes as usize,
            sp.lane_lo,
            &mut c,
        );
    }
    c
}

/// Distribute one fault's detecting lanes to the groups owning them
/// (lane-masked credit: a hit in group `i`'s lanes is recorded against
/// group `i`'s flags and accumulator only).
fn record_hit(
    spans_w: &[GroupSpan],
    dets: &mut [Vec<bool>],
    accums: &mut [Accum],
    dropping: bool,
    fi: usize,
    lanes: u64,
) {
    for sp in spans_w {
        let l = lanes & sp.mask();
        if l == 0 {
            continue;
        }
        let det = &mut dets[sp.group];
        // A group that already dropped this fault (in an earlier word)
        // takes no further credit — exactly as if it ran alone.
        if dropping && det[fi] {
            continue;
        }
        accums[sp.group].record_span(fi, l, sp.lane_lo, sp.local_base, det);
    }
}

/// Per-worker mutable state, reused across chunks: the faulty-machine
/// scratch buffer and the kernel's event-propagation scratch.
#[derive(Debug, Default)]
struct Worker {
    scratch: Vec<u64>,
    prop: FaultProp,
}

impl Worker {
    /// Reset the scratch buffer to the chunk's fault-free values.
    fn load_good(&mut self, gm: &GoodMachine) {
        self.scratch.clear();
        self.scratch.extend_from_slice(&gm.good);
    }
}

/// The lanes (bit per test) in which `fault` is detected in this chunk.
///
/// Single-fault propagation: force the stuck value at the fault site and
/// let [`Kernel::propagate`] re-evaluate, event-driven, only the ops whose
/// inputs actually change against the shared good machine, comparing at
/// observation points (POs and flip-flop D inputs). The scratch buffer must
/// equal `gm.good` on entry and is restored before returning.
#[inline]
fn fault_lanes(
    kernel: &Kernel,
    gm: &GoodMachine,
    worker: &mut Worker,
    fault: &TransitionFault,
) -> u64 {
    let g = fault.line.index();
    let init_word: u64 = match fault.transition {
        Transition::Rise => 0,
        Transition::Fall => !0,
    };
    // Launch condition: g carries the fault's initial value under pattern 1.
    let act = match fault.transition {
        Transition::Rise => !gm.frame1[g],
        Transition::Fall => gm.frame1[g],
    } & gm.lanes_mask;
    if act == 0 {
        return 0;
    }
    // A fault effect exists at g only where the good frame-2 value differs
    // from the stuck value.
    if act & (gm.good[g] ^ init_word) == 0 {
        return 0;
    }
    act & kernel.propagate(
        &mut worker.prop,
        g,
        init_word,
        &mut worker.scratch,
        &gm.good,
    )
}

/// Accumulates one group's results.
struct Accum {
    newly: Vec<usize>,
    cap: usize,
    counts: Option<Vec<usize>>,
    matrix: Option<DetectionMatrix>,
}

impl Accum {
    fn new(opts: &FaultSimOptions, n_faults: usize, n_tests: usize) -> Self {
        Accum {
            newly: Vec::new(),
            cap: opts.n_detect,
            counts: (opts.n_detect > 1).then(|| vec![0usize; n_faults]),
            matrix: opts.matrix.then(|| DetectionMatrix::new(n_faults, n_tests)),
        }
    }

    /// Merge the detecting lanes of fault `fi` for one group span: lane
    /// `lane_lo + k` is the group-local test `local_base + k`.
    fn record_span(
        &mut self,
        fi: usize,
        lanes: u64,
        lane_lo: u32,
        local_base: usize,
        detected: &mut [bool],
    ) {
        let reached = match &mut self.counts {
            Some(counts) => {
                counts[fi] += lanes.count_ones() as usize;
                counts[fi] >= self.cap
            }
            None => true,
        };
        if reached && !detected[fi] {
            detected[fi] = true;
            self.newly.push(fi);
        }
        if let Some(m) = &mut self.matrix {
            if lane_lo == 0 && local_base.is_multiple_of(64) {
                m.rows[fi][local_base / 64] |= lanes;
            } else {
                let mut d = lanes;
                while d != 0 {
                    let idx = local_base + (d.trailing_zeros() - lane_lo) as usize;
                    m.rows[fi][idx / 64] |= 1u64 << (idx % 64);
                    d &= d - 1;
                }
            }
        }
    }

    fn finish(self) -> SimOutcome {
        let Accum {
            mut newly,
            cap,
            counts,
            matrix,
        } = self;
        // Record order depends on which word first flipped each fault, so
        // normalise: outcomes must not depend on chunking or packing.
        newly.sort_unstable();
        SimOutcome {
            newly_detected: newly.len(),
            newly,
            complete: true,
            counts: counts.map(|c| c.into_iter().map(|v| v.min(cap)).collect()),
            matrix,
        }
    }
}

/// The PPSFP engine: 64 tests per machine word, fault list sharded across
/// worker threads with [`std::thread::scope`].
///
/// In a grouped call the batch's candidates are concatenated into one
/// dense test-index space, so tests from different groups share 64-lane
/// words; the fault-free machine of each word is evaluated once and each
/// fault is propagated through it once, however many groups the word
/// holds. Detection credit is lane-masked back to the owning groups, each
/// with its own copy of the baseline flags, so fault dropping in one group
/// never affects another — every group's outcome is what simulating it
/// alone would give, for every batch shape and thread count.
#[derive(Debug)]
pub struct PackedParallelSim<'a> {
    net: &'a Netlist,
    kernel: Arc<Kernel>,
    workers: Vec<Worker>,
}

impl<'a> PackedParallelSim<'a> {
    /// Build a parallel engine for one netlist, running on the cached
    /// compiled kernel.
    pub fn new(net: &'a Netlist) -> Self {
        PackedParallelSim {
            net,
            kernel: Kernel::for_netlist(net),
            workers: Vec::new(),
        }
    }

    /// Resolve an options thread count against the machine.
    fn resolve_threads(opts: &FaultSimOptions, n_faults: usize) -> usize {
        let requested = if opts.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            opts.threads
        };
        requested.clamp(1, n_faults.max(1))
    }
}

impl FaultSimEngine for PackedParallelSim<'_> {
    fn name(&self) -> &'static str {
        "packed-parallel"
    }

    fn simulate_groups(
        &mut self,
        groups: &[TestGroup<'_>],
        faults: &[TransitionFault],
        baseline: &[bool],
        opts: &FaultSimOptions,
    ) -> Vec<SimOutcome> {
        assert_eq!(faults.len(), baseline.len(), "flag vector length mismatch");
        let net = self.net;
        // Borrowed separately from `self.workers`, which the workers take
        // mutably.
        let kernel = &*self.kernel;
        let (offsets, spans) = group_layout(groups);
        let total = *offsets.last().unwrap();
        let threads = Self::resolve_threads(opts, faults.len());
        while self.workers.len() < threads {
            self.workers.push(Worker::default());
        }
        let dropping = opts.drops_faults();
        let shard = faults.len().div_ceil(threads).max(1);

        // Per-group detection flags (baseline copies) and accumulators:
        // credit never crosses group boundaries.
        let mut dets: Vec<Vec<bool>> = groups.iter().map(|_| baseline.to_vec()).collect();
        let mut accums: Vec<Accum> = groups
            .iter()
            .map(|g| Accum::new(opts, faults.len(), g.tests.len()))
            .collect();

        // Early exit bookkeeping: group g is fully simulated once every
        // word up to its end offset is done; offsets are monotone, so
        // groups complete in batch order and `pending` can sweep forward.
        let mut pending = 0usize;
        let mut acceptor: Option<usize> = None;

        for (w, spans_w) in spans.iter().enumerate() {
            let n_tests = 64.min(total - w * 64);
            let chunk = pack_word(net, groups, spans_w, n_tests);
            let gm = eval_good(net, &chunk, kernel);

            if threads == 1 {
                // Inline fast path: no spawn overhead.
                let worker = &mut self.workers[0];
                worker.load_good(&gm);
                for (fi, fault) in faults.iter().enumerate() {
                    // Word-level dropping: skip only when every group with
                    // lanes here has dropped the fault.
                    if dropping && spans_w.iter().all(|sp| dets[sp.group][fi]) {
                        continue;
                    }
                    let lanes = fault_lanes(kernel, &gm, worker, fault);
                    if lanes != 0 {
                        record_hit(spans_w, &mut dets, &mut accums, dropping, fi, lanes);
                    }
                }
            } else {
                // Shard the fault list; workers read a snapshot of the
                // per-group flags (dropping takes effect between words) and
                // report (fault, lanes) hits.
                let flags: &[Vec<bool>] = &dets;
                let hits: Vec<Vec<(usize, u64)>> = std::thread::scope(|s| {
                    let handles: Vec<_> = self
                        .workers
                        .iter_mut()
                        .zip(faults.chunks(shard))
                        .enumerate()
                        .map(|(wk, (worker, shard_faults))| {
                            let gm = &gm;
                            s.spawn(move || {
                                let offset = wk * shard;
                                worker.load_good(gm);
                                let mut hits = Vec::new();
                                for (i, fault) in shard_faults.iter().enumerate() {
                                    if dropping
                                        && spans_w.iter().all(|sp| flags[sp.group][offset + i])
                                    {
                                        continue;
                                    }
                                    let lanes = fault_lanes(kernel, gm, worker, fault);
                                    if lanes != 0 {
                                        hits.push((offset + i, lanes));
                                    }
                                }
                                hits
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("fault-sim worker panicked"))
                        .collect()
                });
                for shard_hits in hits {
                    for (fi, lanes) in shard_hits {
                        record_hit(spans_w, &mut dets, &mut accums, dropping, fi, lanes);
                    }
                }
            }

            if opts.until_first_accept {
                let words_done = w + 1;
                while pending < groups.len() && offsets[pending + 1] <= words_done * 64 {
                    if !accums[pending].newly.is_empty() {
                        acceptor = Some(pending);
                        break;
                    }
                    pending += 1;
                }
                if acceptor.is_some() {
                    break;
                }
            }
        }

        accums
            .into_iter()
            .enumerate()
            .map(|(g, a)| {
                if acceptor.is_some_and(|acc| g > acc) {
                    SimOutcome {
                        complete: false,
                        ..SimOutcome::default()
                    }
                } else {
                    a.finish()
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::{all_transition_faults, sim::coverage_percent, sim::n_detect_coverage};
    use fbt_netlist::rng::Rng;
    use fbt_netlist::s27;
    use fbt_sim::Bits;

    fn random_tests(n: usize, n_pi: usize, n_ff: usize, seed: u64) -> Vec<BroadsideTest> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| {
                BroadsideTest::new(
                    (0..n_ff).map(|_| rng.bit()).collect(),
                    (0..n_pi).map(|_| rng.bit()).collect(),
                    (0..n_pi).map(|_| rng.bit()).collect(),
                )
            })
            .collect()
    }

    /// Plain fault-dropping run through the non-deprecated surface.
    fn run_set(
        engine: &mut dyn FaultSimEngine,
        tests: TestSet<'_>,
        faults: &[TransitionFault],
        detected: &mut [bool],
    ) -> usize {
        engine
            .simulate(tests, faults, detected, &FaultSimOptions::new())
            .newly_detected
    }

    #[test]
    fn engine_matches_the_scalar_oracle_on_s27() {
        let net = s27();
        let faults = all_transition_faults(&net);
        let tests = random_tests(40, 4, 3, 99);
        let mut engine = PackedParallelSim::new(&net);
        for t in &tests {
            for f in &faults {
                assert_eq!(
                    engine.detects(t, f),
                    oracle::detects(&net, t, f),
                    "fault {f} test {t:?}"
                );
            }
        }
    }

    #[test]
    fn fault_dropping_counts() {
        let net = s27();
        let faults = all_transition_faults(&net);
        let tests = random_tests(128, 4, 3, 7);
        let mut engine = PackedParallelSim::new(&net);
        let mut detected = vec![false; faults.len()];
        let n1 = run_set(&mut engine, (&tests[..]).into(), &faults, &mut detected);
        assert_eq!(n1, detected.iter().filter(|&&d| d).count());
        let n2 = run_set(&mut engine, (&tests[..]).into(), &faults, &mut detected);
        assert_eq!(n2, 0, "re-run detects nothing new");
        assert!(coverage_percent(&detected) > 50.0);
    }

    #[test]
    fn batch_equals_single_test_runs() {
        let net = s27();
        let faults = all_transition_faults(&net);
        let tests = random_tests(70, 4, 3, 5);
        let mut engine = PackedParallelSim::new(&net);
        let mut det_batch = vec![false; faults.len()];
        run_set(&mut engine, (&tests[..]).into(), &faults, &mut det_batch);
        let mut det_single = vec![false; faults.len()];
        for t in &tests {
            for (fi, f) in faults.iter().enumerate() {
                if !det_single[fi] && engine.detects(t, f) {
                    det_single[fi] = true;
                }
            }
        }
        assert_eq!(det_batch, det_single);
    }

    #[test]
    fn two_pattern_with_natural_state_matches_broadside() {
        let net = s27();
        let faults = all_transition_faults(&net);
        let tests = random_tests(80, 4, 3, 33);
        let expanded: Vec<TwoPatternTest> = tests
            .iter()
            .map(|t| TwoPatternTest::from_broadside(&net, t))
            .collect();
        let mut engine = PackedParallelSim::new(&net);
        let mut det_a = vec![false; faults.len()];
        run_set(&mut engine, (&tests[..]).into(), &faults, &mut det_a);
        let mut det_b = vec![false; faults.len()];
        run_set(&mut engine, (&expanded[..]).into(), &faults, &mut det_b);
        assert_eq!(det_a, det_b);
    }

    #[test]
    fn two_pattern_with_held_state_changes_detection() {
        let net = s27();
        let faults = all_transition_faults(&net);
        let tests = random_tests(60, 4, 3, 77);
        let natural: Vec<TwoPatternTest> = tests
            .iter()
            .map(|t| TwoPatternTest::from_broadside(&net, t))
            .collect();
        let held: Vec<TwoPatternTest> = natural
            .iter()
            .map(|t| {
                let mut s2 = t.s2.clone();
                s2.set(0, !s2.get(0)); // hold/flip one flip-flop
                TwoPatternTest::new(t.s1.clone(), t.v1.clone(), s2, t.v2.clone())
            })
            .collect();
        let mut engine = PackedParallelSim::new(&net);
        let mut det_nat = vec![false; faults.len()];
        run_set(&mut engine, (&natural[..]).into(), &faults, &mut det_nat);
        let mut det_held = vec![false; faults.len()];
        run_set(&mut engine, (&held[..]).into(), &faults, &mut det_held);
        assert_ne!(det_nat, det_held, "held states should alter detections");
    }

    #[test]
    fn n_detect_profile_consistent_with_plain_run() {
        let net = s27();
        let faults = all_transition_faults(&net);
        let tests = random_tests(120, 4, 3, 55);
        let mut engine = PackedParallelSim::new(&net);
        let counts = engine.n_detect_profile(&tests, &faults, 5);
        let mut detected = vec![false; faults.len()];
        run_set(&mut engine, (&tests[..]).into(), &faults, &mut detected);
        for (c, d) in counts.iter().zip(&detected) {
            assert_eq!(*c >= 1, *d, "1-detect must agree with plain detection");
            assert!(*c <= 5, "cap respected");
        }
        let c1 = n_detect_coverage(&counts, 1);
        let c3 = n_detect_coverage(&counts, 3);
        let c5 = n_detect_coverage(&counts, 5);
        assert!(c1 >= c3 && c3 >= c5);
        assert_eq!(c1, coverage_percent(&detected));
    }

    #[test]
    fn n_detect_counts_are_exact_for_small_cases() {
        let net = s27();
        let faults = all_transition_faults(&net);
        let tests = random_tests(70, 4, 3, 8);
        let mut engine = PackedParallelSim::new(&net);
        let counts = engine.n_detect_profile(&tests, &faults, 1_000);
        for (fi, f) in faults.iter().enumerate() {
            let brute = tests.iter().filter(|t| engine.detects(t, f)).count();
            assert_eq!(counts[fi], brute, "fault {f}");
        }
    }

    #[test]
    fn detection_matrix_agrees_with_detects() {
        let net = s27();
        let faults = all_transition_faults(&net);
        let tests = random_tests(70, 4, 3, 13);
        let mut engine = PackedParallelSim::new(&net);
        let matrix = engine.detection_matrix(&tests, &faults);
        assert_eq!(matrix.num_faults(), faults.len());
        assert_eq!(matrix.num_tests(), tests.len());
        for (fi, f) in faults.iter().enumerate() {
            for (ti, t) in tests.iter().enumerate() {
                assert_eq!(
                    matrix.detects(fi, ti),
                    oracle::detects(&net, t, f),
                    "fault {f} test {ti}"
                );
            }
        }
    }

    #[test]
    fn explicit_thread_counts_are_bit_identical() {
        let net = s27();
        let faults = all_transition_faults(&net);
        let tests = random_tests(200, 4, 3, 41);
        let reference: Vec<bool> = faults
            .iter()
            .map(|f| tests.iter().any(|t| oracle::detects(&net, t, f)))
            .collect();
        for threads in [1, 2, 3, 7] {
            let mut engine = PackedParallelSim::new(&net);
            let mut detected = vec![false; faults.len()];
            let out = engine.simulate(
                TestSet::Broadside(&tests),
                &faults,
                &mut detected,
                &FaultSimOptions::new().threads(threads),
            );
            assert_eq!(detected, reference, "threads={threads}");
            assert_eq!(out.newly_detected, reference.iter().filter(|&&d| d).count());
            assert_eq!(out.newly.len(), out.newly_detected);
            assert!(out.newly.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
        }
    }

    #[test]
    fn options_builder_roundtrip() {
        let opts = FaultSimOptions::new()
            .n_detect(7)
            .threads(3)
            .fault_dropping(false)
            .until_first_accept(true);
        assert_eq!(opts.n_detect_cap(), 7);
        assert_eq!(opts.thread_count(), 3);
        assert!(!opts.drops_faults());
        assert!(opts.stops_at_first_accept());
        assert!(FaultSimOptions::new().drops_faults());
        for m in [
            FaultSimOptions::new().detection_matrix(true),
            FaultSimOptions::new()
                .detection_matrix(true)
                .fault_dropping(true),
            FaultSimOptions::new()
                .fault_dropping(true)
                .detection_matrix(true),
        ] {
            assert!(!m.drops_faults(), "matrix recording implies no dropping");
            assert!(!m.stops_at_first_accept());
        }
    }

    #[test]
    fn empty_test_set_is_a_no_op() {
        let net = s27();
        let faults = all_transition_faults(&net);
        let mut engine = PackedParallelSim::new(&net);
        let mut detected = vec![false; faults.len()];
        let empty: &[BroadsideTest] = &[];
        assert_eq!(
            run_set(&mut engine, empty.into(), &faults, &mut detected),
            0
        );
        assert!(detected.iter().all(|&d| !d));
    }

    #[test]
    fn grouped_single_group_matches_simulate() {
        let net = s27();
        let faults = all_transition_faults(&net);
        let tests = random_tests(90, 4, 3, 17);
        let mut engine = PackedParallelSim::new(&net);
        for opts in [
            FaultSimOptions::new(),
            FaultSimOptions::new().n_detect(4),
            FaultSimOptions::new().fault_dropping(false),
        ] {
            let baseline = vec![false; faults.len()];
            let groups = [TestGroup::new(&tests[..])];
            let grouped = engine
                .simulate_groups(&groups, &faults, &baseline, &opts)
                .pop()
                .unwrap();
            let mut det = baseline.clone();
            let single = engine.simulate((&tests[..]).into(), &faults, &mut det, &opts);
            assert_eq!(grouped, single);
            for &fi in &grouped.newly {
                assert!(det[fi]);
            }
        }
    }

    #[test]
    fn grouped_outcomes_match_standalone_runs() {
        // Unequal group lengths straddling word boundaries, a non-clean
        // baseline, and mixed broadside/two-pattern groups in one batch.
        let net = s27();
        let faults = all_transition_faults(&net);
        let a = random_tests(10, 4, 3, 1);
        let b = random_tests(70, 4, 3, 2);
        let c: Vec<TwoPatternTest> = random_tests(23, 4, 3, 3)
            .iter()
            .map(|t| TwoPatternTest::from_broadside(&net, t))
            .collect();
        let d = random_tests(1, 4, 3, 4);
        let groups = [
            TestGroup::new(&a[..]),
            TestGroup::new(&b[..]),
            TestGroup::new(&c[..]),
            TestGroup::new(&d[..]),
        ];
        let mut baseline = vec![false; faults.len()];
        for (i, b) in baseline.iter_mut().enumerate() {
            *b = i % 5 == 0;
        }
        let mut engine = PackedParallelSim::new(&net);
        for opts in [
            FaultSimOptions::new(),
            FaultSimOptions::new().fault_dropping(false),
            FaultSimOptions::new().n_detect(4),
            FaultSimOptions::new().detection_matrix(true),
        ] {
            let standalone: Vec<SimOutcome> = groups
                .iter()
                .map(|g| {
                    let mut det = baseline.clone();
                    engine.simulate(g.tests, &faults, &mut det, &opts)
                })
                .collect();
            let outs = engine.simulate_groups(&groups, &faults, &baseline, &opts);
            assert_eq!(outs, standalone, "opts {opts:?}");
        }
    }

    #[test]
    fn until_first_accept_stops_after_first_acceptor() {
        let net = s27();
        let faults = all_transition_faults(&net);
        // Group 0 rejects (no tests), group 1 accepts, group 2 must not be
        // simulated to completion.
        let empty: Vec<BroadsideTest> = Vec::new();
        let b = random_tests(40, 4, 3, 9);
        let c = random_tests(40, 4, 3, 10);
        let groups = [
            TestGroup::new(&empty[..]),
            TestGroup::new(&b[..]),
            TestGroup::new(&c[..]),
        ];
        let baseline = vec![false; faults.len()];
        let opts = FaultSimOptions::new().until_first_accept(true);
        let outs = PackedParallelSim::new(&net).simulate_groups(&groups, &faults, &baseline, &opts);
        assert!(outs[0].complete && outs[0].newly_detected == 0);
        assert!(outs[1].complete && outs[1].newly_detected > 0);
        assert!(!outs[2].complete, "groups after the acceptor are cut off");
        assert_eq!(outs[2].newly_detected, 0);
    }

    #[test]
    fn from_str01_doc_smoke() {
        // The engine doc example's vectors: keep them detecting something.
        let net = s27();
        let faults = all_transition_faults(&net);
        let tests = [BroadsideTest::new(
            Bits::from_str01("000"),
            Bits::from_str01("0000"),
            Bits::from_str01("1000"),
        )];
        let mut engine = PackedParallelSim::new(&net);
        let mut detected = vec![false; faults.len()];
        let newly = run_set(&mut engine, (&tests[..]).into(), &faults, &mut detected);
        assert_eq!(newly, detected.iter().filter(|&&d| d).count());
    }
}

//! The scalar fault-simulation oracle: one test and one fault at a time.
//! Both fault-free frames run through the gate-walking interpreter
//! ([`fbt_sim::comb::eval_scalar`]); the faulty second frame is a
//! gate-by-gate pass with the fault line forced to its stuck value.
//!
//! Production fault simulation is [`fbt_fault::PackedParallelSim`] on the
//! compiled kernel: 64 tests per word, event-driven propagation, fault
//! sharding and lane-masked credit per group. This reference shares no
//! simulation code with it — it takes only public types and option getters
//! from the engine module, and nothing from `fbt_sim::kernel` — so the
//! differential suites comparing the two can catch a wrong verdict in any
//! of those layers.
#![allow(dead_code)] // each including test crate uses a different subset

use fbt_fault::{
    BroadsideTest, DetectionMatrix, FaultSimOptions, SimOutcome, TestGroup, TestSet,
    TransitionFault,
};
use fbt_netlist::Netlist;
use fbt_sim::{comb, Bits};

/// The fault-free values of both frames of one test.
struct Frames {
    launch: Vec<bool>,
    capture: Vec<bool>,
}

impl Frames {
    /// `s2` is a two-pattern test's explicit second state; `None` derives
    /// it from the launch frame, as broadside application does.
    fn new(net: &Netlist, s1: &Bits, v1: &Bits, s2: Option<&Bits>, v2: &Bits) -> Self {
        let launch = settle(net, v1, s1);
        let s2 = s2.cloned().unwrap_or_else(|| {
            net.dffs()
                .iter()
                .map(|&d| launch[net.node(d).fanins()[0].index()])
                .collect()
        });
        let capture = settle(net, v2, &s2);
        Frames { launch, capture }
    }

    /// The test detects `fault` when the launch frame sets the fault line
    /// to the fault's initial value, and forcing that value in the capture
    /// frame changes a primary output or a flip-flop D input.
    fn detects(&self, net: &Netlist, fault: &TransitionFault) -> bool {
        let stuck = fault.transition.initial_value();
        if self.launch[fault.line.index()] != stuck {
            return false;
        }
        let mut faulty = self.capture.clone();
        faulty[fault.line.index()] = stuck;
        let mut fanin_vals = Vec::new();
        for &id in net.eval_order() {
            if id == fault.line {
                continue;
            }
            let node = net.node(id);
            fanin_vals.clear();
            fanin_vals.extend(node.fanins().iter().map(|f| faulty[f.index()]));
            faulty[id.index()] = node.kind().eval(&fanin_vals);
        }
        let d_inputs = net.dffs().iter().map(|&d| net.node(d).fanins()[0]);
        net.outputs()
            .iter()
            .copied()
            .chain(d_inputs)
            .any(|o| faulty[o.index()] != self.capture[o.index()])
    }
}

/// Load one frame's sources and evaluate the combinational logic.
fn settle(net: &Netlist, pi: &Bits, state: &Bits) -> Vec<bool> {
    let mut vals = vec![false; net.num_nodes()];
    for (i, &id) in net.inputs().iter().enumerate() {
        vals[id.index()] = pi.get(i);
    }
    for (i, &id) in net.dffs().iter().enumerate() {
        vals[id.index()] = state.get(i);
    }
    comb::eval_scalar(net, &mut vals);
    vals
}

/// Does the broadside `test` detect `fault`?
pub fn detects(net: &Netlist, test: &BroadsideTest, fault: &TransitionFault) -> bool {
    Frames::new(net, &test.scan_in, &test.v1, None, &test.v2).detects(net, fault)
}

/// Every test's verdict on every fault, for each group of one batch.
pub struct Reference {
    /// `hits[g][t][f]`: test `t` of group `g` detects fault `f`.
    hits: Vec<Vec<Vec<bool>>>,
    n_faults: usize,
}

impl Reference {
    /// Simulate every test of every group against every fault.
    pub fn new(net: &Netlist, groups: &[TestGroup<'_>], faults: &[TransitionFault]) -> Self {
        let verdicts = |f: Frames| faults.iter().map(|fault| f.detects(net, fault)).collect();
        let hits = groups
            .iter()
            .map(|g| match g.tests {
                TestSet::Broadside(tests) => tests
                    .iter()
                    .map(|t| verdicts(Frames::new(net, &t.scan_in, &t.v1, None, &t.v2)))
                    .collect(),
                TestSet::TwoPattern(tests) => tests
                    .iter()
                    .map(|t| verdicts(Frames::new(net, &t.s1, &t.v1, Some(&t.s2), &t.v2)))
                    .collect(),
            })
            .collect();
        Reference {
            hits,
            n_faults: faults.len(),
        }
    }

    /// The reference for a single test set (a batch of one group).
    pub fn single(net: &Netlist, tests: TestSet<'_>, faults: &[TransitionFault]) -> Self {
        Self::new(net, &[TestGroup::new(tests)], faults)
    }

    /// What a grouped call under `opts` must return: each group simulated
    /// alone from `baseline`. A fault already set in `baseline` is skipped
    /// when `opts` drops faults. With an n-detect cap above 1 a fault
    /// counts as newly detected once `cap` tests detect it, and the counts
    /// are clamped to `cap`. With `until_first_accept` every group after the
    /// first one that newly detects a fault is cut off.
    pub fn outcomes(&self, baseline: &[bool], opts: &FaultSimOptions) -> Vec<Outcome> {
        assert_eq!(baseline.len(), self.n_faults, "baseline length");
        let cap = opts.n_detect_cap();
        let mut accepted = false;
        self.hits
            .iter()
            .map(|tests| {
                if accepted {
                    return Outcome {
                        newly: Vec::new(),
                        complete: false,
                        counts: None,
                        rows: Vec::new(),
                        n_tests: 0,
                    };
                }
                let totals: Vec<usize> = (0..self.n_faults)
                    .map(|f| {
                        if opts.drops_faults() && baseline[f] {
                            0
                        } else {
                            tests.iter().filter(|t| t[f]).count()
                        }
                    })
                    .collect();
                let newly: Vec<usize> = (0..self.n_faults)
                    .filter(|&f| !baseline[f] && totals[f] >= cap)
                    .collect();
                accepted = opts.stops_at_first_accept() && !newly.is_empty();
                let rows = (0..self.n_faults)
                    .map(|f| {
                        let mut row = vec![0u64; tests.len().div_ceil(64)];
                        for (t, hits) in tests.iter().enumerate() {
                            if hits[f] {
                                row[t / 64] |= 1 << (t % 64);
                            }
                        }
                        row
                    })
                    .collect();
                Outcome {
                    newly,
                    complete: true,
                    counts: (cap > 1).then(|| totals.iter().map(|&n| n.min(cap)).collect()),
                    rows,
                    n_tests: tests.len(),
                }
            })
            .collect()
    }

    /// [`Reference::outcomes`] of a single-group reference.
    pub fn outcome(&self, baseline: &[bool], opts: &FaultSimOptions) -> Outcome {
        assert_eq!(self.hits.len(), 1, "a single-group reference");
        self.outcomes(baseline, opts).pop().expect("one group")
    }
}

/// One group's expected outcome.
#[derive(Debug)]
pub struct Outcome {
    /// Faults newly detected relative to the baseline, ascending.
    pub newly: Vec<usize>,
    /// `false` for a group cut off by `until_first_accept`.
    pub complete: bool,
    /// Per-fault detection counts (n-detect caps above 1 only).
    pub counts: Option<Vec<usize>>,
    /// Per fault, the tests detecting it, 64 per word: the rows of a full
    /// detection matrix.
    rows: Vec<Vec<u64>>,
    n_tests: usize,
}

impl Outcome {
    /// Assert that the engine returned this outcome. A detection matrix is
    /// compared when the engine returned one.
    pub fn check(&self, got: &SimOutcome, ctx: &str) {
        assert_eq!(got.complete, self.complete, "{ctx}: complete");
        assert_eq!(got.newly, self.newly, "{ctx}: newly");
        assert_eq!(
            got.newly_detected,
            self.newly.len(),
            "{ctx}: newly_detected"
        );
        assert_eq!(got.counts, self.counts, "{ctx}: counts");
        if let Some(m) = &got.matrix {
            self.check_matrix(m, ctx);
        }
    }

    /// Assert that `m` is the full detection matrix.
    pub fn check_matrix(&self, m: &DetectionMatrix, ctx: &str) {
        assert!(self.complete, "{ctx}: matrix on a cut-off group");
        assert_eq!(m.num_faults(), self.rows.len(), "{ctx}: matrix faults");
        assert_eq!(m.num_tests(), self.n_tests, "{ctx}: matrix tests");
        for (f, row) in self.rows.iter().enumerate() {
            assert_eq!(m.row(f), &row[..], "{ctx}: matrix row {f}");
        }
    }

    /// The detection flags a single-group `simulate` from `baseline` leaves.
    pub fn flags(&self, baseline: &[bool]) -> Vec<bool> {
        let mut flags = baseline.to_vec();
        for &f in &self.newly {
            flags[f] = true;
        }
        flags
    }
}

/// Assert a whole grouped call, group by group.
pub fn check_all(got: &[SimOutcome], want: &[Outcome], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: one outcome per group");
    for (g, (got, want)) in got.iter().zip(want).enumerate() {
        want.check(got, &format!("{ctx} group {g}"));
    }
}

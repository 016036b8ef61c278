//! Multi-lane sequential simulation: up to 64 independent functional
//! trajectories evaluated in one levelized pass per cycle.
//!
//! This is the sequential counterpart of [`crate::comb::eval_packed`]: each
//! bit position (*lane*) of a `u64` word carries one candidate's trajectory.
//! All lanes start from a shared state (the speculative candidates of the
//! paper's Chapter 4 all expand from the same committed circuit state) and
//! then diverge under per-lane primary-input sequences.
//!
//! Per-lane switching activity is counted in bit-sliced vertical counters
//! by a branch-free Harley–Seal carry-save tree over 16-word blocks of
//! toggle words, so one cycle costs a fixed handful of word operations per
//! node for all lanes together, whatever the data. Each lane's value is
//! `toggles as f64 / num_nodes as f64`, undefined on the first cycle after
//! a state load — the paper's `SWA`. [`crate::seq::SeqSim`] is the
//! one-lane view of this simulator.
//!
//! # Example
//!
//! ```
//! use fbt_netlist::s27;
//! use fbt_sim::{lanes::LaneSeqSim, Bits};
//!
//! let net = s27();
//! let mut sim = LaneSeqSim::new(&net, 2);
//! sim.broadcast_state(&Bits::zeros(3));
//! let pis = [Bits::from_str01("0000"), Bits::from_str01("1111")];
//! sim.step(&pis, None);
//! assert_eq!(sim.lane_state(0).to_string(), "001");
//! assert!(sim.swa().is_none(), "SWA(0) undefined");
//! ```

use std::sync::Arc;

use fbt_netlist::Netlist;

use crate::kernel::Kernel;
use crate::Bits;

/// Extract one lane of a packed word vector as a [`Bits`] value.
pub fn extract_lane(words: &[u64], lane: usize) -> Bits {
    assert!(lane < 64, "lane out of range");
    words.iter().map(|w| (w >> lane) & 1 == 1).collect()
}

/// A bit-parallel sequential simulator evaluating up to 64 independent
/// input sequences ("lanes") against the same netlist in lockstep, on the
/// circuit's compiled [`Kernel`].
///
/// A step performs **no heap allocation**: the value buffers are
/// double-buffered and the switching-activity counters are reused, so
/// expanding a speculative batch as lanes costs one evaluation per cycle
/// for the whole batch.
#[derive(Debug, Clone)]
pub struct LaneSeqSim<'a> {
    net: &'a Netlist,
    kernel: Arc<Kernel>,
    lanes: usize,
    state: Vec<u64>,
    vals: Vec<u64>,
    prev_vals: Vec<u64>,
    have_prev: bool,
    /// Vertical counters: `counters[k]` holds bit `k` of every lane's toggle
    /// count for the current cycle.
    counters: Vec<u64>,
    swa: Vec<f64>,
    swa_ready: bool,
    out_words: Vec<u64>,
}

impl<'a> LaneSeqSim<'a> {
    /// Create a simulator for `lanes` concurrent trajectories (1..=64).
    /// The state is all-zero until [`LaneSeqSim::broadcast_state`] is
    /// called.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or greater than 64.
    pub fn new(net: &'a Netlist, lanes: usize) -> Self {
        assert!((1..=64).contains(&lanes), "lanes must be in 1..=64");
        // Enough vertical counter bits to count a toggle on every node, and
        // at least the four a Harley–Seal block accumulates into.
        let levels = ((usize::BITS - net.num_nodes().leading_zeros()) as usize).max(4);
        LaneSeqSim {
            net,
            kernel: Kernel::for_netlist(net),
            lanes,
            state: vec![0; net.num_dffs()],
            vals: vec![0; net.num_nodes()],
            prev_vals: vec![0; net.num_nodes()],
            have_prev: false,
            counters: vec![0; levels],
            swa: vec![0.0; lanes],
            swa_ready: false,
            out_words: vec![0; net.num_outputs()],
        }
    }

    /// Number of active lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Set every lane's state to `s` and clear the switching-activity
    /// history (like [`crate::seq::SeqSim::set_state`]).
    ///
    /// # Panics
    ///
    /// Panics if the width does not match.
    pub fn broadcast_state(&mut self, s: &Bits) {
        assert_eq!(s.len(), self.net.num_dffs(), "state width mismatch");
        let mask = lanes_mask(self.lanes);
        for (i, w) in self.state.iter_mut().enumerate() {
            *w = if s.get(i) { mask } else { 0 };
        }
        self.have_prev = false;
        self.swa_ready = false;
    }

    /// The packed present-state words, one per flip-flop; bit `l` is lane
    /// `l`'s state bit.
    pub fn state_words(&self) -> &[u64] {
        &self.state
    }

    /// Lane `l`'s present state.
    pub fn lane_state(&self, lane: usize) -> Bits {
        assert!(lane < self.lanes, "lane out of range");
        extract_lane(&self.state, lane)
    }

    /// The packed primary-output words of the most recent cycle.
    pub fn output_words(&self) -> &[u64] {
        &self.out_words
    }

    /// Per-lane switching activity of the most recent cycle, or `None` if
    /// it was the first cycle after construction or a state load.
    pub fn swa(&self) -> Option<&[f64]> {
        self.swa_ready.then_some(&self.swa[..])
    }

    /// The packed node words of the most recent cycle, one per node; bit
    /// `l` is lane `l`'s value. Empty until a cycle has been stepped since
    /// construction or the last state load. Bits above the active lanes
    /// carry no meaning.
    pub fn node_words(&self) -> &[u64] {
        // A step swaps its freshly evaluated buffer into `prev_vals`.
        if self.have_prev {
            &self.prev_vals
        } else {
            &[]
        }
    }

    /// The packed node words of the cycle before the most recent one —
    /// what [`LaneSeqSim::swa`] compares [`LaneSeqSim::node_words`]
    /// against. Empty exactly when `swa()` is `None`.
    pub fn prev_node_words(&self) -> &[u64] {
        if self.swa_ready {
            &self.vals
        } else {
            &[]
        }
    }

    /// Apply one clock cycle with lane `l` driven by `pis[l]`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches or if `pis.len() != self.lanes()`.
    pub fn step(&mut self, pis: &[Bits], hold: Option<&Bits>) {
        assert_eq!(pis.len(), self.lanes, "one PI vector per lane");
        self.step_with(|l| &pis[l], hold);
    }

    /// Apply one clock cycle, fetching lane `l`'s input vector via
    /// `pi_of(l)`. Flip-flops whose bit is set in `hold` keep their present
    /// value in **every** lane (the state-holding schedule of the paper's
    /// Section 4.5 depends only on the cycle index, so it is shared).
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn step_with<'b>(&mut self, pi_of: impl Fn(usize) -> &'b Bits, hold: Option<&Bits>) {
        let net = self.net;
        if let Some(h) = hold {
            assert_eq!(h.len(), net.num_dffs(), "hold mask width mismatch");
        }
        for &id in net.inputs() {
            self.vals[id.index()] = 0;
        }
        let inputs = net.inputs();
        for l in 0..self.lanes {
            let pi = pi_of(l);
            assert_eq!(pi.len(), net.num_inputs(), "PI width mismatch");
            let bit = 1u64 << l;
            // Walk only the set bits of each PI word instead of probing
            // every input through a bounds-checked `get`.
            for (wi, &w) in pi.words().iter().enumerate() {
                let mut bits = w;
                while bits != 0 {
                    let i = wi * 64 + bits.trailing_zeros() as usize;
                    self.vals[inputs[i].index()] |= bit;
                    bits &= bits - 1;
                }
            }
        }
        for (i, &id) in net.dffs().iter().enumerate() {
            self.vals[id.index()] = self.state[i];
        }
        self.kernel.eval2(&mut self.vals);

        if self.have_prev {
            self.count_toggles();
            let nodes = net.num_nodes() as f64;
            for l in 0..self.lanes {
                let mut count = 0usize;
                for (k, &c) in self.counters.iter().enumerate() {
                    count |= (((c >> l) & 1) as usize) << k;
                }
                self.swa[l] = count as f64 / nodes;
            }
            self.swa_ready = true;
        } else {
            self.swa_ready = false;
        }

        for (w, &o) in self.out_words.iter_mut().zip(net.outputs()) {
            *w = self.vals[o.index()];
        }
        for (i, &id) in net.dffs().iter().enumerate() {
            if hold.is_some_and(|h| h.get(i)) {
                continue; // held flip-flop keeps its state word
            }
            self.state[i] = self.vals[net.node(id).fanins()[0].index()];
        }
        std::mem::swap(&mut self.prev_vals, &mut self.vals);
        self.have_prev = true;
    }

    /// Count `prev_vals ^ vals` into the vertical counters: afterwards lane
    /// `l`'s toggle count is `Σ_k ((counters[k] >> l) & 1) << k`.
    ///
    /// A Harley–Seal carry-save tree folds each 16-word block of toggle
    /// words into the weight-1/2/4/8 counters and emits one weight-16 carry
    /// word, which ripples through the higher counters at a fixed depth.
    /// The trailing partial block is zero-padded. Nothing branches on the
    /// data, and every step preserves the per-lane column sums exactly.
    fn count_toggles(&mut self) {
        let (low, high) = self.counters.split_at_mut(4);
        high.fill(0);
        let mut acc = [0u64; 4];
        let mut add_block = |toggles: &[u64; 16]| {
            let mut carry = harley_seal16(&mut acc, toggles);
            for c in high.iter_mut() {
                let next = *c & carry;
                *c ^= carry;
                carry = next;
            }
            debug_assert_eq!(carry, 0, "toggle counter overflow");
        };
        let mut prev = self.prev_vals.chunks_exact(16);
        let mut cur = self.vals.chunks_exact(16);
        for (p, v) in (&mut prev).zip(&mut cur) {
            let (p, v): (&[u64; 16], &[u64; 16]) = (
                p.try_into().expect("16-word block"),
                v.try_into().expect("16-word block"),
            );
            add_block(&std::array::from_fn(|i| p[i] ^ v[i]));
        }
        let (p, v) = (prev.remainder(), cur.remainder());
        if !p.is_empty() {
            add_block(&std::array::from_fn(|i| {
                p.get(i).zip(v.get(i)).map_or(0, |(p, v)| p ^ v)
            }));
        }
        low.copy_from_slice(&acc);
    }
}

/// Carry-save adder: per bit column, `a + b + c = sum + 2 · carry`.
#[inline(always)]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    (u ^ c, (a & b) | (u & c))
}

/// Add 16 words into the vertical weight-1/2/4/8 counters `acc` and return
/// the weight-16 carry word (Harley–Seal).
#[inline(always)]
fn harley_seal16(acc: &mut [u64; 4], t: &[u64; 16]) -> u64 {
    let [ones, twos, fours, eights] = *acc;
    let (ones, twos_a) = csa(ones, t[0], t[1]);
    let (ones, twos_b) = csa(ones, t[2], t[3]);
    let (twos, fours_a) = csa(twos, twos_a, twos_b);
    let (ones, twos_a) = csa(ones, t[4], t[5]);
    let (ones, twos_b) = csa(ones, t[6], t[7]);
    let (twos, fours_b) = csa(twos, twos_a, twos_b);
    let (fours, eights_a) = csa(fours, fours_a, fours_b);
    let (ones, twos_a) = csa(ones, t[8], t[9]);
    let (ones, twos_b) = csa(ones, t[10], t[11]);
    let (twos, fours_a) = csa(twos, twos_a, twos_b);
    let (ones, twos_a) = csa(ones, t[12], t[13]);
    let (ones, twos_b) = csa(ones, t[14], t[15]);
    let (twos, fours_b) = csa(twos, twos_a, twos_b);
    let (fours, eights_b) = csa(fours, fours_a, fours_b);
    let (eights, sixteens) = csa(eights, eights_a, eights_b);
    *acc = [ones, twos, fours, eights];
    sixteens
}

fn lanes_mask(lanes: usize) -> u64 {
    if lanes == 64 {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ScalarSeqSim;
    use fbt_netlist::rng::Rng;
    use fbt_netlist::synth::{self, CircuitSpec};
    use fbt_netlist::{s27, GateKind, NetlistBuilder};

    fn random_bits(n: usize, rng: &mut Rng) -> Bits {
        (0..n).map(|_| rng.bit()).collect()
    }

    fn nets() -> Vec<Netlist> {
        let mut nets = vec![s27()];
        let mut rng = Rng::new(0x1A9E5);
        for _ in 0..3 {
            let pi = 2 + (rng.next_u64() % 5) as usize;
            let po = 1 + (rng.next_u64() % 3) as usize;
            let ff = 2 + (rng.next_u64() % 8) as usize;
            let gates = 15 + (rng.next_u64() % 90) as usize;
            let mut spec = CircuitSpec::new("lane", pi, po, ff, gates);
            spec.seed = rng.next_u64();
            nets.push(synth::generate(&spec));
        }
        nets
    }

    #[test]
    fn lanes_match_scalar_seqsim_bit_exactly() {
        let mut rng = Rng::new(7);
        for net in nets() {
            for lanes in [1usize, 7, 64] {
                let cycles = 12;
                let start = random_bits(net.num_dffs(), &mut rng);
                // Lane-major input sequences, plus a shared hold schedule.
                let pis: Vec<Vec<Bits>> = (0..lanes)
                    .map(|_| {
                        (0..cycles)
                            .map(|_| random_bits(net.num_inputs(), &mut rng))
                            .collect()
                    })
                    .collect();
                let holds: Vec<Option<Bits>> = (0..cycles)
                    .map(|c| (c % 3 == 1).then(|| random_bits(net.num_dffs(), &mut rng)))
                    .collect();

                let mut packed = LaneSeqSim::new(&net, lanes);
                packed.broadcast_state(&start);
                let mut scalars: Vec<ScalarSeqSim<'_>> = (0..lanes)
                    .map(|_| ScalarSeqSim::new(&net, &start))
                    .collect();

                // Empty before the first cycle, then the cycle before.
                let mut last_nodes: Vec<u64> = Vec::new();
                for c in 0..cycles {
                    packed.step_with(|l| &pis[l][c], holds[c].as_ref());
                    let swa = packed.swa();
                    assert_eq!(swa.is_some(), c > 0, "SWA defined from cycle 1");
                    assert_eq!(packed.prev_node_words(), &last_nodes[..]);
                    last_nodes = packed.node_words().to_vec();
                    for (l, scalar) in scalars.iter_mut().enumerate() {
                        let r = scalar.step_holding(&pis[l][c], holds[c].as_ref());
                        assert_eq!(
                            packed.lane_state(l),
                            r.next_state,
                            "{} lanes={lanes} cycle={c} lane={l}",
                            net.name()
                        );
                        assert_eq!(
                            extract_lane(packed.node_words(), l),
                            Bits::from_bools(scalar.node_values()),
                            "{} node values lanes={lanes} cycle={c} lane={l}",
                            net.name()
                        );
                        assert_eq!(
                            extract_lane(packed.output_words(), l),
                            r.outputs,
                            "{} outputs lane {l}",
                            net.name()
                        );
                        match (swa, r.switching_activity) {
                            (Some(s), Some(expect)) => assert_eq!(
                                s[l],
                                expect,
                                "{} swa lanes={lanes} cycle={c} lane={l}",
                                net.name()
                            ),
                            (None, None) => {}
                            (a, b) => panic!("swa definedness mismatch: {a:?} vs {b:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn single_lane_and_full_width_boundaries() {
        // Exactly 1 lane (degenerate word: only bit 0 live) and exactly 64
        // lanes (the `lanes_mask` all-ones special case) are the boundary
        // configurations; both must track the scalar simulator bit-exactly
        // and reject out-of-range lane queries.
        let mut rng = Rng::new(0x64_01);
        for net in nets() {
            for lanes in [1usize, 64] {
                let start = random_bits(net.num_dffs(), &mut rng);
                let mut packed = LaneSeqSim::new(&net, lanes);
                assert_eq!(packed.lanes(), lanes);
                packed.broadcast_state(&start);
                let mut scalars: Vec<ScalarSeqSim<'_>> = (0..lanes)
                    .map(|_| ScalarSeqSim::new(&net, &start))
                    .collect();
                for c in 0..6 {
                    let pis: Vec<Bits> = (0..lanes)
                        .map(|_| random_bits(net.num_inputs(), &mut rng))
                        .collect();
                    packed.step(&pis, None);
                    for (l, scalar) in scalars.iter_mut().enumerate() {
                        let r = scalar.step_holding(&pis[l], None);
                        assert_eq!(
                            packed.lane_state(l),
                            r.next_state,
                            "{} lanes={lanes} cycle={c} lane={l}",
                            net.name()
                        );
                        assert_eq!(extract_lane(packed.output_words(), l), r.outputs);
                        if let (Some(s), Some(e)) = (packed.swa(), r.switching_activity) {
                            assert_eq!(s[l], e);
                        }
                    }
                }
            }
        }
        // The lane bound asserts are inclusive at 64, exclusive above.
        let net = s27();
        let sim = LaneSeqSim::new(&net, 1);
        let result = std::panic::catch_unwind(|| sim.lane_state(1));
        assert!(result.is_err(), "lane 1 of a 1-lane sim must panic");
    }

    #[test]
    fn broadcast_state_resets_swa_history() {
        let net = s27();
        let mut sim = LaneSeqSim::new(&net, 3);
        sim.broadcast_state(&Bits::zeros(3));
        let pis = vec![Bits::from_str01("0101"); 3];
        sim.step(&pis, None);
        sim.step(&pis, None);
        assert!(sim.swa().is_some());
        sim.broadcast_state(&Bits::from_str01("111"));
        assert!(sim.node_words().is_empty() && sim.prev_node_words().is_empty());
        sim.step(&pis, None);
        assert!(sim.swa().is_none(), "history cleared by state load");
        assert!(sim.prev_node_words().is_empty());
        assert_eq!(sim.node_words().len(), net.num_nodes());
    }

    #[test]
    fn toggle_counters_handle_full_flip() {
        // Force a cycle where every node toggles in one lane and none in the
        // other: counts must be exact at both extremes.
        let net = s27();
        let mut sim = LaneSeqSim::new(&net, 2);
        sim.broadcast_state(&Bits::zeros(3));
        // Hold the state through both cycles so lane 0 (constant inputs)
        // repeats the identical cycle exactly.
        let hold = Bits::from_bools(&[true, true, true]);
        let a = [Bits::from_str01("0000"), Bits::from_str01("0000")];
        sim.step(&a, Some(&hold));
        let b = [Bits::from_str01("0000"), Bits::from_str01("1111")];
        sim.step(&b, Some(&hold));
        let swa = sim.swa().unwrap();
        assert_eq!(swa[0], 0.0, "identical cycle has zero activity");
        assert!(swa[1] > 0.0);
    }

    /// A net of exactly `n` nodes. With `all_toggle`: one input `a`, a
    /// flip-flop `q` fed by its own inverse and a NOT chain from `a`, so an
    /// alternating input toggles every node every cycle (`n >= 3`).
    /// Otherwise: four inputs, two flip-flops and random gates over earlier
    /// signals (`n >= 8`).
    fn sized_net(n: usize, all_toggle: bool, rng: &mut Rng) -> Netlist {
        let mut b = NetlistBuilder::new(format!("sized{n}"));
        if all_toggle {
            b.input("a").unwrap();
            b.dff("q", "nq").unwrap();
            b.gate(GateKind::Not, "nq", &["q"]).unwrap();
            let mut prev = "a".to_string();
            for i in 3..n {
                let g = format!("g{i}");
                b.gate(GateKind::Not, &g, &[&prev]).unwrap();
                prev = g;
            }
            b.output(&prev).unwrap();
        } else {
            let gates = n - 6;
            let mut names: Vec<String> = (0..4).map(|i| format!("i{i}")).collect();
            for name in &names {
                b.input(name).unwrap();
            }
            for i in 0..2 {
                let q = format!("q{i}");
                b.dff(&q, &format!("g{}", gates - 1 - i)).unwrap();
                names.push(q);
            }
            let kinds = [
                GateKind::And,
                GateKind::Nand,
                GateKind::Or,
                GateKind::Nor,
                GateKind::Xor,
                GateKind::Not,
            ];
            for i in 0..gates {
                let g = format!("g{i}");
                let kind = kinds[rng.below(kinds.len())];
                let x = names[rng.below(names.len())].clone();
                let y = names[rng.below(names.len())].clone();
                let fanins: &[&str] = if kind == GateKind::Not {
                    &[&x]
                } else {
                    &[&x, &y]
                };
                b.gate(kind, &g, fanins).unwrap();
                names.push(g);
            }
            b.output(names.last().unwrap()).unwrap();
        }
        let net = b.finish().unwrap();
        assert_eq!(net.num_nodes(), n);
        net
    }

    #[test]
    fn swa_equals_naive_popcount_at_block_and_power_of_two_edges() {
        // Node counts just below, at and above a 16-word Harley–Seal block
        // and a power of two (where the counters gain a bit), at 1, 8 and 64
        // lanes; on the chain nets every cycle after the first toggles every
        // node.
        let mut rng = Rng::new(0x4A_5EA1);
        for n in [
            15, 16, 17, 31, 32, 33, 63, 64, 65, 255, 256, 257, 1023, 1024, 1025,
        ] {
            for all_toggle in [false, true] {
                let net = sized_net(n, all_toggle, &mut rng);
                for lanes in [1usize, 8, 64] {
                    let mut sim = LaneSeqSim::new(&net, lanes);
                    sim.broadcast_state(&random_bits(net.num_dffs(), &mut rng));
                    let mut last: Option<Vec<u64>> = None;
                    for c in 0..6 {
                        let pis: Vec<Bits> = (0..lanes)
                            .map(|_| match all_toggle {
                                true => Bits::from_bools(&[c % 2 == 1]),
                                false => random_bits(net.num_inputs(), &mut rng),
                            })
                            .collect();
                        sim.step(&pis, None);
                        let cur = sim.node_words().to_vec();
                        if let Some(prev) = &last {
                            assert_eq!(sim.prev_node_words(), &prev[..]);
                            let swa = sim.swa().expect("defined after the first cycle");
                            for (l, &s) in swa.iter().enumerate() {
                                let toggles = prev
                                    .iter()
                                    .zip(&cur)
                                    .filter(|&(p, v)| ((p ^ v) >> l) & 1 == 1)
                                    .count();
                                let at = format!("n={n} lanes={lanes} cycle={c} lane={l}");
                                assert_eq!(s, toggles as f64 / n as f64, "{at}");
                                if all_toggle {
                                    assert_eq!(toggles, n, "{at}: every node toggles");
                                }
                            }
                        }
                        last = Some(cur);
                    }
                }
            }
        }
    }
}

//! Path sensitization classification (paper §1.2, Figs. 1.4–1.7).
//!
//! Tests for path delay faults are graded by the propagation conditions they
//! establish:
//!
//! * **robust** — detection guaranteed regardless of delays elsewhere;
//! * **strong non-robust** — a matching transition appears on every on-path
//!   line and every off-path input is non-controlling under the second
//!   pattern (these are exactly the tests for transition path delay faults,
//!   §2.2);
//! * **weak non-robust** — only the off-path non-controlling condition under
//!   the second pattern (plus the launch transition at the source);
//! * **not sensitized** — none of the above.

use fbt_netlist::{Netlist, NodeId};
use fbt_sim::comb;

use crate::{Path, Transition, TwoPatternTest};

/// How a two-pattern test sensitizes a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Sensitization {
    /// No sensitization (the test does not even launch the transition, or an
    /// off-path input blocks propagation under the second pattern).
    NotSensitized,
    /// Weak non-robust: launch transition + static sensitization under the
    /// second pattern. Valid only if no off-path signal arrives late
    /// (Fig. 1.5).
    WeakNonRobust,
    /// Strong non-robust: weak, plus a polarity-matching transition on every
    /// on-path line. Equivalent to detecting every transition fault's launch
    /// and final value along the path.
    StrongNonRobust,
    /// Robust: strong, plus steady off-path side inputs wherever the on-path
    /// transition ends at a non-controlling value (Fig. 1.4). Valid
    /// regardless of delays in the rest of the circuit.
    Robust,
}

/// Evaluate both patterns of a test (full node values per frame).
fn frame_values(net: &Netlist, test: &TwoPatternTest) -> (Vec<bool>, Vec<bool>) {
    let eval = |state: &fbt_sim::Bits, pi: &fbt_sim::Bits| {
        let mut vals = vec![false; net.num_nodes()];
        for (i, &id) in net.inputs().iter().enumerate() {
            vals[id.index()] = pi.get(i);
        }
        for (i, &id) in net.dffs().iter().enumerate() {
            vals[id.index()] = state.get(i);
        }
        comb::eval_scalar(net, &mut vals);
        vals
    };
    (eval(&test.s1, &test.v1), eval(&test.s2, &test.v2))
}

/// Classify how `test` sensitizes `path` for the given source transition.
///
/// # Example
///
/// ```
/// use fbt_fault::{classify, BroadsideTest, Path, Sensitization, Transition, TwoPatternTest};
/// use fbt_sim::Bits;
///
/// let net = fbt_netlist::s27();
/// // Path G0 -> G14 (through the input inverter).
/// let path = Path::new(&net, vec![net.find("G0").unwrap(), net.find("G14").unwrap()]);
/// let t = TwoPatternTest::from_broadside(
///     &net,
///     &BroadsideTest::new(
///         Bits::from_str01("000"),
///         Bits::from_str01("0000"),
///         Bits::from_str01("1000"),
///     ),
/// );
/// let class = classify(&net, &t, &path, Transition::Rise);
/// assert!(class >= Sensitization::WeakNonRobust);
/// ```
///
/// # Panics
///
/// Panics if the test's widths do not match `net`.
pub fn classify(
    net: &Netlist,
    test: &TwoPatternTest,
    path: &Path,
    source: Transition,
) -> Sensitization {
    let (v1, v2) = frame_values(net, test);
    let nodes = path.nodes();

    // Launch transition at the source.
    let src = nodes[0].index();
    if v1[src] != source.initial_value() || v2[src] != source.final_value() {
        return Sensitization::NotSensitized;
    }

    // Expected direction per on-path line.
    let mut dirs: Vec<Transition> = Vec::with_capacity(nodes.len());
    let mut dir = source;
    dirs.push(dir);
    for &n in &nodes[1..] {
        if net.node(n).kind().inverts() {
            dir = dir.flip();
        }
        dirs.push(dir);
    }

    // Weak non-robust: static sensitization under the second pattern —
    // every on-path line has its expected final value and every off-path
    // gate input is non-controlling under p2.
    for (i, w) in nodes.windows(2).enumerate() {
        let (on_path, gate) = (w[0], w[1]);
        let g = net.node(gate);
        if v2[gate.index()] != dirs[i + 1].final_value() {
            return Sensitization::NotSensitized;
        }
        if let Some(c) = g.kind().controlling_value() {
            for &side in g.fanins() {
                if side != on_path && v2[side.index()] == c {
                    return Sensitization::NotSensitized;
                }
            }
        }
        let _ = on_path;
    }

    // Strong non-robust: matching transitions on every on-path line.
    let strong = nodes
        .iter()
        .zip(&dirs)
        .all(|(&n, d)| v1[n.index()] == d.initial_value() && v2[n.index()] == d.final_value());
    if !strong {
        return Sensitization::WeakNonRobust;
    }

    // Robust: where the on-path input's transition ends non-controlling,
    // the side inputs must be *steady* non-controlling across both patterns
    // (otherwise a late off-path transition could mask the on-path one).
    // XOR-class gates have no controlling value: robustness demands steady
    // side inputs unconditionally.
    let robust = nodes.windows(2).enumerate().all(|(i, w)| {
        let (on_path, gate) = (w[0], w[1]);
        let g = net.node(gate);
        let steady_required = match g.kind().controlling_value() {
            // On-path transition ends at the controlling value: the output
            // change is forced by the on-path input alone; sides only need
            // the (already checked) p2 non-controlling value.
            Some(c) => dirs[i].final_value() != c,
            None => true,
        };
        if !steady_required {
            return true;
        }
        g.fanins()
            .iter()
            .all(|&side: &NodeId| side == on_path || v1[side.index()] == v2[side.index()])
    });
    if robust {
        Sensitization::Robust
    } else {
        Sensitization::StrongNonRobust
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_netlist::{GateKind, NetlistBuilder};
    use fbt_sim::Bits;

    /// The dissertation's Fig. 1.2 combinational circuit, wrapped with no
    /// state: a, b, d, f inputs; c = AND(a, b'); e = OR(c, d);
    /// g = AND(e, f').
    ///
    /// (The original figure drives c and g through inverters on b and f; the
    /// polarity bookkeeping is identical.)
    fn fig12() -> (Netlist, Path) {
        let mut bld = NetlistBuilder::new("fig12");
        for n in ["a", "b", "d", "f"] {
            bld.input(n).unwrap();
        }
        // One flip-flop so the circuit is sequential (contents irrelevant).
        bld.dff("q", "g").unwrap();
        bld.gate(GateKind::Not, "b_n", &["b"]).unwrap();
        bld.gate(GateKind::Not, "f_n", &["f"]).unwrap();
        bld.gate(GateKind::And, "c", &["a", "b_n"]).unwrap();
        bld.gate(GateKind::Or, "e", &["c", "d"]).unwrap();
        bld.gate(GateKind::And, "g", &["e", "f_n"]).unwrap();
        bld.output("g").unwrap();
        let net = bld.finish().unwrap();
        let path = Path::new(
            &net,
            ["a", "c", "e", "g"].map(|n| net.find(n).unwrap()).to_vec(),
        );
        (net, path)
    }

    fn test(_net: &Netlist, s1: &str, v1: &str, v2: &str) -> TwoPatternTest {
        // Explicit two-pattern test with s2 = s1 (state plays no role in the
        // figure circuits).
        TwoPatternTest::new(
            Bits::from_str01(s1),
            Bits::from_str01(v1),
            Bits::from_str01(s1),
            Bits::from_str01(v2),
        )
    }

    use fbt_netlist::Netlist;

    #[test]
    fn fig_1_4_robust_test() {
        // <0010, 1010> on "abdf": a rises, b = 0, d falls? — paper: d goes
        // 1 -> 0? In Fig. 1.4, "abdf" = <0010, 1010>: a 0->1, b 0->0,
        // d 1->1? The figure's robust test holds b, d, f steady.
        // Here: a rises, everything else steady at non-controlling.
        let (net, path) = fig12();
        let t = test(&net, "0", "0000", "1000"); // a rises; b=d=f=0 steady
        assert_eq!(
            classify(&net, &t, &path, Transition::Rise),
            Sensitization::Robust
        );
    }

    #[test]
    fn fig_1_5_non_robust_when_off_path_input_switches() {
        // The paper's non-robust variant lets the off-path input f change
        // (falling) while still non-controlling at p2: f' rises into the
        // final AND — a late arrival there could mask the on-path
        // transition, so the test is only strong non-robust.
        let (net, path) = fig12();
        let t = test(&net, "0", "0001", "1000"); // a rises; f falls (f' rises)
        assert_eq!(
            classify(&net, &t, &path, Transition::Rise),
            Sensitization::StrongNonRobust
        );
    }

    #[test]
    fn weak_but_not_strong_when_an_on_path_line_has_no_transition() {
        // Reconvergence kills the on-path transition while static
        // sensitization survives: h = OR(d, e), d = AND(a, b), e = NOT(b).
        // Path b-d-h rising at b: d rises, e falls, but h stays 1.
        let mut bld = NetlistBuilder::new("reconv");
        bld.input("a").unwrap();
        bld.input("b").unwrap();
        bld.dff("q", "h").unwrap();
        bld.gate(GateKind::And, "d", &["a", "b"]).unwrap();
        bld.gate(GateKind::Not, "e", &["b"]).unwrap();
        bld.gate(GateKind::Or, "h", &["d", "e"]).unwrap();
        bld.output("h").unwrap();
        let net = bld.finish().unwrap();
        let path = Path::new(&net, ["b", "d", "h"].map(|n| net.find(n).unwrap()).to_vec());
        let t = test(&net, "0", "10", "11"); // a=1 steady, b rises
        assert_eq!(
            classify(&net, &t, &path, Transition::Rise),
            Sensitization::WeakNonRobust
        );
        // And (the Fig. 1.6/1.7 point) the on-path transition fault at h is
        // NOT detected by this test, although the path delay fault is
        // weak-non-robustly sensitized.
        use crate::engine::FaultSimEngine;
        let mut fsim = crate::engine::PackedParallelSim::new(&net);
        let h = net.find("h").unwrap();
        let broadside = crate::BroadsideTest::new(t.s1.clone(), t.v1.clone(), t.v2.clone());
        assert!(!fsim.detects(
            &broadside,
            &crate::TransitionFault::new(h, Transition::Rise)
        ));
    }

    #[test]
    fn blocked_side_input_is_not_sensitized() {
        let (net, path) = fig12();
        // f = 1 under p2 makes f' = 0, a controlling 0 on the final AND.
        let t = test(&net, "0", "0000", "1001");
        assert_eq!(
            classify(&net, &t, &path, Transition::Rise),
            Sensitization::NotSensitized
        );
    }

    #[test]
    fn missing_launch_is_not_sensitized() {
        let (net, path) = fig12();
        let t = test(&net, "0", "1000", "1000"); // a steady 1: no launch
        assert_eq!(
            classify(&net, &t, &path, Transition::Rise),
            Sensitization::NotSensitized
        );
    }

    #[test]
    fn grading_is_ordered() {
        assert!(Sensitization::Robust > Sensitization::StrongNonRobust);
        assert!(Sensitization::StrongNonRobust > Sensitization::WeakNonRobust);
        assert!(Sensitization::WeakNonRobust > Sensitization::NotSensitized);
    }

    #[test]
    fn strong_tests_detect_all_on_path_transition_faults() {
        // The §2.2 equivalence, checked on the Fig. 1.2 circuit: a strong
        // non-robust (or robust) test detects the launch+final condition of
        // every on-path transition fault.
        let (net, path) = fig12();
        for (s1v, v1v, v2v) in [("0", "0000", "1000"), ("0", "0001", "1000")] {
            let t = test(&net, s1v, v1v, v2v);
            let class = classify(&net, &t, &path, Transition::Rise);
            assert!(class >= Sensitization::StrongNonRobust);
            let (f1, f2) = super::frame_values(&net, &t);
            let fault = crate::TransitionPathDelayFault::new(path.clone(), Transition::Rise);
            for tf in fault.transition_faults(&net) {
                assert_eq!(f1[tf.line.index()], tf.transition.initial_value());
                assert_eq!(f2[tf.line.index()], tf.transition.final_value());
            }
        }
    }
}

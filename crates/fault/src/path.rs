//! Structural paths and the transition path delay fault model (paper §2.2).
//!
//! A path runs from a *launch point* (primary input or flip-flop output)
//! through combinational gates to a *capture point* (a primary output driver
//! or the driver of a flip-flop D input). A path delay fault is a path plus a
//! transition direction at its source. Under the **transition path delay
//! fault** model, the fault is detected only if *every* individual transition
//! fault along the path is detected by the same test — which is what makes
//! the model sensitive to both small distributed and large lumped delays.

use std::fmt;

use fbt_netlist::{Netlist, NodeId};

use crate::{Transition, TransitionFault};

/// A structural combinational path.
///
/// `nodes[0]` is the launch point; each subsequent node is a gate fed by its
/// predecessor; the last node is a capture point.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    nodes: Vec<NodeId>,
}

impl Path {
    /// Build a path, validating connectivity.
    ///
    /// # Panics
    ///
    /// Panics if consecutive nodes are not driver/consumer pairs or the path
    /// is empty.
    pub fn new(net: &Netlist, nodes: Vec<NodeId>) -> Self {
        assert!(!nodes.is_empty(), "path must be non-empty");
        for w in nodes.windows(2) {
            assert!(
                net.node(w[1]).fanins().contains(&w[0]),
                "{} does not drive {}",
                net.node_name(w[0]),
                net.node_name(w[1])
            );
        }
        Path { nodes }
    }

    /// The nodes along the path, launch point first.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Path length (number of lines on the path).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the path is empty (never true for a constructed path).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The launch point.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// The capture point.
    #[inline]
    pub fn sink(&self) -> NodeId {
        *self.nodes.last().expect("non-empty")
    }

    /// Render as `a-b-c` using node names.
    pub fn display<'a>(&'a self, net: &'a Netlist) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Path, &'a Netlist);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                for (i, &n) in self.0.nodes.iter().enumerate() {
                    if i > 0 {
                        f.write_str("-")?;
                    }
                    f.write_str(self.1.node_name(n))?;
                }
                Ok(())
            }
        }
        D(self, net)
    }
}

/// A transition path delay fault: a path plus a transition at its source.
///
/// Per the paper's §2.2: when the source transition `v1 → v1'` propagates
/// along `p = g1-g2-…-gk`, the transition at `gi` matches `v1 → v1'` if the
/// number of inverting gates between `g1` and `gi` is even and is the
/// opposite transition otherwise. Detection requires the corresponding
/// transition fault on every `gi` to be detected by the same test.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TransitionPathDelayFault {
    /// The path.
    pub path: Path,
    /// Transition launched at the path source.
    pub source_transition: Transition,
}

impl TransitionPathDelayFault {
    /// Construct the fault.
    pub fn new(path: Path, source_transition: Transition) -> Self {
        TransitionPathDelayFault {
            path,
            source_transition,
        }
    }

    /// The set `TR(fp)` of transition faults along the path, with the
    /// polarity at each line determined by the inversion parity of the gates
    /// traversed so far.
    pub fn transition_faults(&self, net: &Netlist) -> Vec<TransitionFault> {
        let mut out = Vec::with_capacity(self.path.len());
        let mut dir = self.source_transition;
        for (i, &n) in self.path.nodes().iter().enumerate() {
            if i > 0 && net.node(n).kind().inverts() {
                dir = dir.flip();
            }
            out.push(TransitionFault::new(n, dir));
        }
        out
    }
}

/// Enumerate structural paths.
///
/// # Example
///
/// ```
/// let net = fbt_netlist::s27();
/// let paths = fbt_fault::path::enumerate_paths(&net, usize::MAX);
/// assert_eq!(paths.len(), 28); // s27's complete path set (Table 2.1)
/// ```
///
/// Performs a depth-first traversal from every launch point; a path is
/// recorded whenever the frontier node is a capture point (and the traversal
/// still continues through its other fanouts). Stops after `max_paths` paths
/// have been collected (the paper enumerates *all* paths only for small
/// circuits — Table 2.1).
pub fn enumerate_paths(net: &Netlist, max_paths: usize) -> Vec<Path> {
    walk(net, 1, max_paths)
}

/// Enumerate paths of length at least `min_len`, longest-biased, up to
/// `max_paths`.
///
/// Used for the "consider faults from the longest paths to the shorter ones"
/// strategy of Table 2.2: the walk follows only extensions that can still
/// reach total length `min_len`. The returned paths are sorted by
/// decreasing length.
pub fn enumerate_paths_at_least(net: &Netlist, min_len: usize, max_paths: usize) -> Vec<Path> {
    let mut paths = walk(net, min_len, max_paths);
    paths.sort_by_key(|p| std::cmp::Reverse(p.len()));
    paths
}

/// For each node: is it a capture point (PO driver or FF D-input driver)?
fn capture_map(net: &Netlist) -> Vec<bool> {
    let mut cap = vec![false; net.num_nodes()];
    for &o in net.outputs() {
        cap[o.index()] = true;
    }
    for &d in net.dffs() {
        cap[net.node(d).fanins()[0].index()] = true;
    }
    cap
}

/// The paths of at least `min_len` nodes, launch points in PI-then-FF
/// order, each walked depth first, stopping after `max_paths`. Every node
/// gets its longest unit-delay distance to a capture point (in nodes,
/// counting itself, 0 if none is reachable), so the walk skips extensions
/// that cannot reach `min_len` any more; at `min_len = 1` it skips only
/// launch points that reach no capture point.
fn walk(net: &Netlist, min_len: usize, max_paths: usize) -> Vec<Path> {
    let capture = capture_map(net);
    let longest = |suffix: &[usize], id: NodeId| -> usize {
        let mut best = usize::from(capture[id.index()]);
        for &fo in net.node(id).fanouts() {
            if !net.node(fo).kind().is_source() && suffix[fo.index()] > 0 {
                best = best.max(1 + suffix[fo.index()]);
            }
        }
        best
    };
    let mut suffix = vec![0usize; net.num_nodes()];
    for &id in net.eval_order().iter().rev() {
        suffix[id.index()] = longest(&suffix, id);
    }

    let mut paths = Vec::new();
    let mut stack = Vec::new();
    for &launch in net.inputs().iter().chain(net.dffs()) {
        if paths.len() >= max_paths {
            break;
        }
        if longest(&suffix, launch) < min_len {
            continue;
        }
        dfs(
            net, launch, &capture, &suffix, min_len, &mut stack, &mut paths, max_paths,
        );
    }
    paths
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    net: &Netlist,
    node: NodeId,
    capture: &[bool],
    suffix: &[usize],
    min_len: usize,
    stack: &mut Vec<NodeId>,
    paths: &mut Vec<Path>,
    max_paths: usize,
) {
    if paths.len() >= max_paths {
        return;
    }
    stack.push(node);
    if capture[node.index()] && stack.len() >= min_len {
        paths.push(Path {
            nodes: stack.clone(),
        });
    }
    for &fo in net.node(node).fanouts() {
        if net.node(fo).kind().is_source() {
            continue; // crossing into the next time frame ends the path
        }
        if stack.len() + suffix[fo.index()] < min_len {
            continue; // cannot reach the length bound any more
        }
        dfs(net, fo, capture, suffix, min_len, stack, paths, max_paths);
    }
    stack.pop();
}

/// Build the transition path delay fault list for a set of paths (two faults
/// per path, rising and falling at the source).
pub fn tpdf_list(paths: &[Path]) -> Vec<TransitionPathDelayFault> {
    paths
        .iter()
        .flat_map(|p| {
            [
                TransitionPathDelayFault::new(p.clone(), Transition::Rise),
                TransitionPathDelayFault::new(p.clone(), Transition::Fall),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbt_netlist::{s27, GateKind, NetlistBuilder};

    /// The dissertation's Fig. 1.2 circuit: path a-c-e-g.
    fn fig12() -> Netlist {
        let mut b = NetlistBuilder::new("fig12");
        for n in ["a", "b", "d", "f"] {
            b.input(n).unwrap();
        }
        b.gate(GateKind::And, "c", &["a", "b_n"]).unwrap();
        b.gate(GateKind::Not, "b_n", &["b"]).unwrap();
        b.gate(GateKind::Or, "e", &["c", "d"]).unwrap();
        b.gate(GateKind::And, "g", &["e", "f_n"]).unwrap();
        b.gate(GateKind::Not, "f_n", &["f"]).unwrap();
        b.output("g").unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn polarity_tracking_through_inverters() {
        let mut b = NetlistBuilder::new("pol");
        b.input("a").unwrap();
        b.gate(GateKind::Not, "x", &["a"]).unwrap();
        b.gate(GateKind::Buf, "y", &["x"]).unwrap();
        b.gate(GateKind::Nand, "z", &["y", "a"]).unwrap();
        b.output("z").unwrap();
        let net = b.finish().unwrap();
        let path = Path::new(
            &net,
            vec![
                net.find("a").unwrap(),
                net.find("x").unwrap(),
                net.find("y").unwrap(),
                net.find("z").unwrap(),
            ],
        );
        let f = TransitionPathDelayFault::new(path, Transition::Rise);
        let trs = f.transition_faults(&net);
        assert_eq!(trs[0].transition, Transition::Rise); // a rises
        assert_eq!(trs[1].transition, Transition::Fall); // through NOT
        assert_eq!(trs[2].transition, Transition::Fall); // through BUF
        assert_eq!(trs[3].transition, Transition::Rise); // through NAND
    }

    #[test]
    fn enumerate_fig12_paths() {
        let net = fig12();
        let paths = enumerate_paths(&net, 1000);
        // Paths to g: a-c-e-g, b-b_n-c-e-g, d-e-g, f-f_n-g -> 4 paths.
        assert_eq!(paths.len(), 4);
        let lens: Vec<usize> = paths.iter().map(Path::len).collect();
        let mut sorted = lens.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![3, 3, 4, 5]);
    }

    #[test]
    fn enumerate_respects_cap() {
        let net = s27();
        let all = enumerate_paths(&net, usize::MAX);
        let capped = enumerate_paths(&net, 5);
        assert_eq!(capped.len(), 5);
        assert!(all.len() > 5);
        // s27 has 56 transition path delay faults (Table 2.1) = 28 paths.
        assert_eq!(all.len(), 28);
        assert_eq!(tpdf_list(&all).len(), 56);
    }

    #[test]
    fn bounded_enumeration_only_long_paths() {
        let net = s27();
        let all = enumerate_paths(&net, usize::MAX);
        let longest = all.iter().map(Path::len).max().unwrap();
        let long = enumerate_paths_at_least(&net, longest, usize::MAX);
        assert!(!long.is_empty());
        assert!(long.iter().all(|p| p.len() == longest));
        let expected = all.iter().filter(|p| p.len() == longest).count();
        assert_eq!(long.len(), expected);
    }

    #[test]
    fn bounded_enumeration_sorted_by_length() {
        let net = s27();
        let paths = enumerate_paths_at_least(&net, 2, usize::MAX);
        for w in paths.windows(2) {
            assert!(w[0].len() >= w[1].len());
        }
    }

    #[test]
    fn paths_start_at_launch_and_end_at_capture() {
        let net = s27();
        for p in enumerate_paths(&net, usize::MAX) {
            let src = net.node(p.source());
            assert!(src.kind().is_source());
            let sink = p.sink();
            let is_capture = net.is_po_driver(sink)
                || net.dffs().iter().any(|&d| net.node(d).fanins()[0] == sink);
            assert!(is_capture);
        }
    }

    #[test]
    fn display_path() {
        let net = fig12();
        let p = Path::new(
            &net,
            vec![
                net.find("a").unwrap(),
                net.find("c").unwrap(),
                net.find("e").unwrap(),
                net.find("g").unwrap(),
            ],
        );
        assert_eq!(p.display(&net).to_string(), "a-c-e-g");
    }
}

//! ISCAS89 `.bench` format parsing and writing.
//!
//! The `.bench` format is the lingua franca of the ISCAS89 sequential
//! benchmark suite used throughout the paper's evaluation:
//!
//! ```text
//! # comment
//! INPUT(G0)
//! OUTPUT(G17)
//! G5 = DFF(G10)
//! G8 = AND(G14, G6)
//! ```

use std::fmt::Write as _;

use crate::frontend::{RawDoc, RawStmt};
use crate::{GateKind, Netlist, NetlistError};

/// Parse a `.bench` document to the statement level only.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for malformed lines and
/// [`NetlistError::UnknownGateKind`] for unrecognised keywords. Structural
/// problems (duplicates, cycles, undriven nets) are *not* errors at this
/// level.
pub fn parse_raw(text: &str, name: &str) -> Result<RawDoc, NetlistError> {
    let mut stmts = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let line_err = |message: String| NetlistError::Parse {
            line: lineno + 1,
            message,
        };
        if let Some(rest) = strip_call(line, "INPUT") {
            stmts.push((lineno + 1, RawStmt::Input(rest.to_string())));
        } else if let Some(rest) = strip_call(line, "OUTPUT") {
            stmts.push((lineno + 1, RawStmt::Output(rest.to_string())));
        } else if let Some(eq) = line.find('=') {
            let target = line[..eq].trim();
            let rhs = line[eq + 1..].trim();
            let open = rhs
                .find('(')
                .ok_or_else(|| line_err(format!("expected `KIND(...)`, got `{rhs}`")))?;
            if !rhs.ends_with(')') {
                return Err(line_err(format!("missing `)` in `{rhs}`")));
            }
            let kind: GateKind = rhs[..open].trim().parse()?;
            let args: Vec<String> = rhs[open + 1..rhs.len() - 1]
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
            match kind {
                GateKind::Dff if args.len() != 1 => {
                    return Err(line_err(format!(
                        "DFF takes one argument, got {}",
                        args.len()
                    )));
                }
                GateKind::Input => {
                    return Err(line_err("INPUT cannot appear on an assignment".to_string()))
                }
                _ => {}
            }
            stmts.push((
                lineno + 1,
                RawStmt::Def {
                    name: target.to_string(),
                    kind,
                    args,
                },
            ));
        } else {
            return Err(line_err(format!("unrecognised line `{line}`")));
        }
    }
    Ok(RawDoc {
        name: name.to_string(),
        stmts,
    })
}

/// Parse a `.bench` document into a [`Netlist`] named `name`.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for malformed lines and propagates the
/// structural errors of [`crate::NetlistBuilder::finish`].
///
/// # Example
///
/// ```
/// let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
/// let net = fbt_netlist::bench::parse(src, "inv").unwrap();
/// assert_eq!(net.num_gates(), 1);
/// ```
pub fn parse(text: &str, name: &str) -> Result<Netlist, NetlistError> {
    parse_raw(text, name)?.to_builder()?.finish()
}

fn strip_call<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(keyword)?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let rest = rest.strip_suffix(')')?;
    Some(rest.trim())
}

/// Render a [`Netlist`] back to `.bench` text.
///
/// The output round-trips through [`parse`]: parsing it yields a structurally
/// identical netlist.
///
/// # Example
///
/// ```
/// let net = fbt_netlist::s27();
/// let text = fbt_netlist::bench::write(&net);
/// let again = fbt_netlist::bench::parse(&text, net.name()).unwrap();
/// assert_eq!(again.num_nodes(), net.num_nodes());
/// ```
pub fn write(net: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", net.name());
    for &i in net.inputs() {
        let _ = writeln!(out, "INPUT({})", net.node_name(i));
    }
    for &o in net.outputs() {
        let _ = writeln!(out, "OUTPUT({})", net.node_name(o));
    }
    for &d in net.dffs() {
        let _ = writeln!(
            out,
            "{} = DFF({})",
            net.node_name(d),
            net.node_name(net.node(d).fanins()[0])
        );
    }
    for &g in net.eval_order() {
        let node = net.node(g);
        let args: Vec<&str> = node.fanins().iter().map(|&f| net.node_name(f)).collect();
        let _ = writeln!(
            out,
            "{} = {}({})",
            net.node_name(g),
            node.kind().bench_keyword(),
            args.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_comments_and_blanks() {
        let src = "# hello\n\nINPUT(a) # trailing\nOUTPUT(y)\ny = BUFF(a)\n";
        let n = parse(src, "c").unwrap();
        assert_eq!(n.num_inputs(), 1);
        assert_eq!(n.num_gates(), 1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let src = "INPUT(a)\ngarbage line\n";
        match parse(src, "bad") {
            Err(NetlistError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn dff_arity_enforced() {
        let src = "INPUT(a)\nq = DFF(a, a)\n";
        assert!(matches!(parse(src, "bad"), Err(NetlistError::Parse { .. })));
    }

    /// Same structure under the same names.
    fn assert_structurally_equal(n: &Netlist, m: &Netlist) {
        assert_eq!(m.num_nodes(), n.num_nodes(), "{}", n.name());
        assert_eq!(m.num_inputs(), n.num_inputs(), "{}", n.name());
        assert_eq!(m.num_dffs(), n.num_dffs(), "{}", n.name());
        assert_eq!(m.num_outputs(), n.num_outputs(), "{}", n.name());
        for id in n.node_ids() {
            let name = n.node_name(id);
            let mid = m.find(name).unwrap();
            assert_eq!(m.node(mid).kind(), n.node(id).kind(), "kind of {name}");
            let mut a: Vec<&str> = n
                .node(id)
                .fanins()
                .iter()
                .map(|&f| n.node_name(f))
                .collect();
            let mut b: Vec<&str> = m
                .node(mid)
                .fanins()
                .iter()
                .map(|&f| m.node_name(f))
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "fanins of {name}");
        }
    }

    #[test]
    fn roundtrip_s27() {
        let n = crate::s27();
        let text = write(&n);
        let m = parse(&text, "s27").unwrap();
        assert_structurally_equal(&n, &m);
    }

    /// Every circuit in the small ISCAS catalog survives a write → parse
    /// round trip structurally unchanged.
    #[test]
    fn roundtrip_every_iscas_small_circuit() {
        let specs = crate::synth::iscas_small();
        assert!(!specs.is_empty());
        for spec in &specs {
            let n = crate::synth::generate(spec);
            let text = write(&n);
            let m = parse(&text, n.name())
                .unwrap_or_else(|e| panic!("written .bench for {} failed to parse: {e}", n.name()));
            assert_structurally_equal(&n, &m);
            // A second round trip is textually identical (writer is
            // deterministic and parse preserves everything write emits).
            assert_eq!(write(&m), text, "{} is not a fixed point", n.name());
        }
    }

    #[test]
    fn unknown_kind_is_error() {
        let src = "INPUT(a)\ny = MYSTERY(a)\n";
        assert!(matches!(
            parse(src, "bad"),
            Err(NetlistError::UnknownGateKind(_))
        ));
    }
}

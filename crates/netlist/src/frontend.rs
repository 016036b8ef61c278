//! Format-neutral circuit ingestion.
//!
//! Circuits reach the workspace in two wire formats — ISCAS89 `.bench`
//! ([`crate::bench`]) and structural Verilog ([`crate::verilog`]) — and every
//! consumer above this crate (lint, generation, ATPG, SAT, the job service)
//! wants to be agnostic about which one a file happens to use. This module is
//! that seam:
//!
//! * [`Format`] — the supported wire formats, with extension- and
//!   content-based autodetection ([`Format::detect`]);
//! * [`RawStmt`] / [`RawDoc`] — the shared *tolerant* raw IR both frontends
//!   lower into. A raw document is a flat statement stream with source line
//!   numbers and **no** structural validation: it can represent the
//!   combinational cycles, undriven nets and duplicate definitions that
//!   [`crate::NetlistBuilder::finish`] rejects, which is exactly what
//!   `fbt-lint`'s tolerant analysis layer needs to see — for broken Verilog
//!   just as for broken `.bench`;
//! * [`parse_raw`] / [`parse`] / [`write()`] — format-dispatching entry
//!   points.
//!
//! Both parsers lower into the same canonical statement order — inputs,
//! outputs, flip-flops, then gates in topological order — so a circuit
//! imported from either format builds node-for-node the same [`Netlist`]:
//! re-parsing `verilog::write(net)` and re-parsing `bench::write(net)`
//! produce structurally identical netlists with equal structural digests.
//!
//! # Example
//!
//! ```
//! use fbt_netlist::frontend::{self, Format};
//!
//! let net = fbt_netlist::s27();
//! let v = frontend::write(&net, Format::Verilog);
//! let b = frontend::write(&net, Format::Bench);
//! assert_eq!(Format::sniff(&v), Format::Verilog);
//! assert_eq!(Format::sniff(&b), Format::Bench);
//! let twin = frontend::parse(&v, "s27", Format::Verilog).unwrap();
//! assert_eq!(twin.num_nodes(), net.num_nodes());
//! ```

use crate::{GateKind, Netlist, NetlistBuilder, NetlistError};

/// One syntactically valid netlist statement in the tolerant raw IR.
///
/// Both the `.bench` and Verilog frontends lower to this shape; the variant
/// names keep the `.bench` vocabulary because it maps one-to-one onto the
/// netlist model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RawStmt {
    /// A primary input declaration (`INPUT(name)` / `input name;`).
    Input(String),
    /// A primary output declaration (`OUTPUT(name)` / `output name;`).
    Output(String),
    /// A gate or flip-flop definition (`name = KIND(arg, ...)` / a gate
    /// primitive instantiation or non-blocking `<=` assignment).
    Def {
        /// The defined signal name (the left-hand side).
        name: String,
        /// The gate kind (never [`GateKind::Input`]).
        kind: GateKind,
        /// The fanin signal names, in source order.
        args: Vec<String>,
    },
}

/// A syntax-level parse of a circuit document: the statement stream with
/// 1-based line numbers, **without** structural validation.
///
/// This is the representation static analysis works on: a raw document may
/// contain combinational cycles, undriven nets or duplicate definitions that
/// [`NetlistBuilder::finish`] would reject, and `fbt-lint` needs to see all
/// of them rather than stopping at the first.
#[derive(Debug, Clone)]
pub struct RawDoc {
    /// The circuit name. For `.bench` this is supplied by the caller; for
    /// Verilog it is the module name from the document itself.
    pub name: String,
    /// Parsed statements with their 1-based source line numbers.
    pub stmts: Vec<(usize, RawStmt)>,
}

impl RawDoc {
    /// Feed the statements into a [`NetlistBuilder`], stopping at the first
    /// structural error (duplicate definition, input shadowing, bad arity).
    pub fn to_builder(&self) -> Result<NetlistBuilder, NetlistError> {
        let mut b = NetlistBuilder::new(&self.name);
        for (_, stmt) in &self.stmts {
            match stmt {
                RawStmt::Input(n) => {
                    b.input(n)?;
                }
                RawStmt::Output(n) => b.output(n)?,
                RawStmt::Def { name, kind, args } => match kind {
                    GateKind::Dff => {
                        b.dff(name, &args[0])?;
                    }
                    k => {
                        let refs: Vec<&str> = args.iter().map(String::as_str).collect();
                        b.gate(*k, name, &refs)?;
                    }
                },
            }
        }
        Ok(b)
    }
}

/// A circuit wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// ISCAS89 `.bench` (see [`crate::bench`]).
    Bench,
    /// Structural Verilog in the ISCAS89/ITC99 idiom (see
    /// [`crate::verilog`]).
    Verilog,
}

impl Format {
    /// Infer the format from a file path's extension: `.v`/`.sv`/`.vh` is
    /// Verilog, `.bench`/`.isc` is `.bench`; anything else is unknown.
    pub fn from_path(path: &str) -> Option<Format> {
        let ext = path.rsplit('.').next()?;
        match ext.to_ascii_lowercase().as_str() {
            "v" | "sv" | "vh" => Some(Format::Verilog),
            "bench" | "isc" => Some(Format::Bench),
            _ => None,
        }
    }

    /// Infer the format from document content.
    ///
    /// A document whose first non-comment, non-blank token is `module` is
    /// Verilog; everything else is treated as `.bench` (the tolerant default
    /// — `.bench` is line-oriented, so any text can at least *attempt* a
    /// `.bench` parse).
    pub fn sniff(text: &str) -> Format {
        for raw in text.lines() {
            let line = raw.trim_start();
            if line.is_empty()
                || line.starts_with('#')
                || line.starts_with("//")
                || line.starts_with('`')
            {
                continue;
            }
            if line.starts_with("/*") {
                // A block comment may span lines; a sniff does not need to
                // resolve it — Verilog sources in the wild open with one.
                return Format::Verilog;
            }
            let word: String = line
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            return if word == "module" {
                Format::Verilog
            } else {
                Format::Bench
            };
        }
        Format::Bench
    }

    /// Detect the format from an optional path hint and the content:
    /// the extension wins when it is recognised, otherwise [`Format::sniff`]
    /// decides.
    pub fn detect(path_hint: Option<&str>, text: &str) -> Format {
        path_hint
            .and_then(Format::from_path)
            .unwrap_or_else(|| Format::sniff(text))
    }

    /// The lowercase keyword naming this format (`"bench"` / `"verilog"`),
    /// as used in CLI flags and HTTP query parameters.
    pub fn keyword(self) -> &'static str {
        match self {
            Format::Bench => "bench",
            Format::Verilog => "verilog",
        }
    }

    /// Parse a format keyword (the inverse of [`Format::keyword`], also
    /// accepting the file extensions as aliases).
    pub fn from_keyword(s: &str) -> Option<Format> {
        match s.to_ascii_lowercase().as_str() {
            "bench" => Some(Format::Bench),
            "verilog" | "v" => Some(Format::Verilog),
            _ => None,
        }
    }

    /// The canonical file extension (without the dot).
    pub fn extension(self) -> &'static str {
        match self {
            Format::Bench => "bench",
            Format::Verilog => "v",
        }
    }
}

impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Parse a document to the tolerant statement level only, in the given
/// format.
///
/// `name` is the circuit name for `.bench` documents (which do not carry
/// one); Verilog documents are named by their `module` header and ignore it.
///
/// # Errors
///
/// Syntax-level failures only: [`NetlistError::Parse`] /
/// [`NetlistError::ParseAt`] for malformed input and
/// [`NetlistError::UnknownGateKind`] for unrecognised keywords. Structural
/// problems (duplicates, cycles, undriven nets) are *not* errors at this
/// level.
pub fn parse_raw(text: &str, name: &str, format: Format) -> Result<RawDoc, NetlistError> {
    match format {
        Format::Bench => crate::bench::parse_raw(text, name),
        Format::Verilog => crate::verilog::parse_raw(text),
    }
}

/// Parse a document into a validated [`Netlist`], in the given format.
///
/// # Errors
///
/// Propagates the syntax errors of [`parse_raw`] and the structural errors
/// of [`NetlistBuilder::finish`].
pub fn parse(text: &str, name: &str, format: Format) -> Result<Netlist, NetlistError> {
    parse_raw(text, name, format)?.to_builder()?.finish()
}

/// Parse a document, autodetecting the format from an optional path hint and
/// the content. Returns the detected format alongside the netlist.
pub fn parse_auto(
    text: &str,
    name: &str,
    path_hint: Option<&str>,
) -> Result<(Format, Netlist), NetlistError> {
    let format = Format::detect(path_hint, text);
    Ok((format, parse(text, name, format)?))
}

/// Render a netlist in the given format.
pub fn write(net: &Netlist, format: Format) -> String {
    match format {
        Format::Bench => crate::bench::write(net),
        Format::Verilog => crate::verilog::write(net),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_path_recognises_extensions() {
        assert_eq!(Format::from_path("a/b/s27.bench"), Some(Format::Bench));
        assert_eq!(Format::from_path("s27.isc"), Some(Format::Bench));
        assert_eq!(Format::from_path("s27.v"), Some(Format::Verilog));
        assert_eq!(Format::from_path("S27.V"), Some(Format::Verilog));
        assert_eq!(Format::from_path("s27.txt"), None);
        assert_eq!(Format::from_path("s27"), None);
    }

    #[test]
    fn sniff_distinguishes_formats() {
        assert_eq!(Format::sniff("# c\nINPUT(a)\n"), Format::Bench);
        assert_eq!(Format::sniff("// c\nmodule m (a);\n"), Format::Verilog);
        assert_eq!(
            Format::sniff("`timescale 1ns/1ps\nmodule m;"),
            Format::Verilog
        );
        assert_eq!(Format::sniff("/* header */\nmodule m;"), Format::Verilog);
        assert_eq!(Format::sniff(""), Format::Bench);
        // `modules` is not the keyword `module`.
        assert_eq!(Format::sniff("modules = AND(a, b)\n"), Format::Bench);
    }

    #[test]
    fn detect_prefers_extension_over_content() {
        // Content says Verilog, extension says bench: extension wins.
        assert_eq!(Format::detect(Some("x.bench"), "module m;"), Format::Bench);
        assert_eq!(Format::detect(Some("x.dat"), "module m;"), Format::Verilog);
        assert_eq!(Format::detect(None, "INPUT(a)"), Format::Bench);
    }

    #[test]
    fn keyword_round_trips() {
        for f in [Format::Bench, Format::Verilog] {
            assert_eq!(Format::from_keyword(f.keyword()), Some(f));
            assert_eq!(f.to_string(), f.keyword());
        }
        assert_eq!(Format::from_keyword("v"), Some(Format::Verilog));
        assert_eq!(Format::from_keyword("edif"), None);
    }

    #[test]
    fn parse_dispatches_by_format() {
        let net = crate::s27();
        for f in [Format::Bench, Format::Verilog] {
            let text = write(&net, f);
            let again = parse(&text, "s27", f).unwrap();
            assert_eq!(again.num_nodes(), net.num_nodes(), "{f}");
            let (detected, auto) = parse_auto(&text, "s27", None).unwrap();
            assert_eq!(detected, f);
            assert_eq!(auto.num_nodes(), net.num_nodes());
        }
    }
}

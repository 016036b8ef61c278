//! `fbt-lint` — static design-rule analysis for circuits and PI
//! constraints.
//!
//! ```text
//! fbt-lint [OPTIONS] SUBJECT...
//!
//! SUBJECT        a circuit file path (.bench or structural Verilog .v,
//!                autodetected from extension then content), or a circuit
//!                name from the synthetic catalog (s27 resolves to the
//!                genuine ISCAS89 benchmark)
//!
//! --json         emit one machine-readable JSON report per subject to
//!                stdout (timing goes to stderr; the report body stays
//!                bit-identical across runs — only the trailing `perf` key
//!                carries wall-clock values: the subject's time and the fix
//!                engine's miter effort)
//! --netlist      lint file subjects through the strict netlist route
//!                (name-based locations, same report a catalog subject
//!                gets) instead of the tolerant raw route with line-based
//!                locations; reports then diff byte-for-byte across wire
//!                formats. Files that do not build exit 2.
//! --constraints FILE
//!                also lint the PI constraint set in FILE against each
//!                subject (fixed `name = 0|1` lines and `a | !b` clauses)
//! --fix          repair what the structural rules can mechanically fix;
//!                every batch is certified equivalent by a SAT XOR-miter
//!                over all POs and next-state lines before it applies, the
//!                report covers the repaired circuit, and the repaired
//!                circuit is written next to the subject in the subject's
//!                own format
//! --fix-dry-run  run the fix engine and report, but write no file
//! --fix-out PATH write the repaired circuit to PATH (single subject only;
//!                the PATH extension picks the output format)
//! --deny LEVEL|RULE
//!                fail (exit 1) on diagnostics at or above LEVEL
//!                (note|warning|error; default error), or on any finding of
//!                a specific RULE; repeatable
//! --allow RULE   silence a rule entirely; repeatable
//! --scale N      divide catalog circuit sizes by N (synthetic circuits)
//! --list-rules   print the rule registry and exit
//! ```
//!
//! Exit codes: 0 clean (under the active filter), 1 findings at or above
//! the deny threshold, 2 usage or I/O error — including `--fix` on an
//! unparseable circuit, which prints the syntax diagnostics and writes no
//! output file.

use std::io::Write as _;
use std::time::Instant;

use fbt_lint::fix::{self, FixConfig, FixOutcome};
use fbt_lint::{
    constraints, lint_netlist, lint_raw, ConstraintSet, Diagnostic, LintReport, RuleFilter,
    Severity,
};
use fbt_netlist::frontend::{self, Format};
use fbt_netlist::{synth, Netlist};

struct Options {
    subjects: Vec<String>,
    json: bool,
    netlist_route: bool,
    constraints: Option<String>,
    filter: RuleFilter,
    scale: u64,
    fix: bool,
    fix_dry_run: bool,
    fix_out: Option<String>,
}

fn usage(code: i32) -> ! {
    eprintln!(
        "usage: fbt-lint [--json] [--netlist] [--constraints FILE] [--fix] \
         [--fix-dry-run] [--fix-out PATH] [--deny LEVEL|RULE]... [--allow RULE]... \
         [--scale N] [--list-rules] SUBJECT..."
    );
    std::process::exit(code)
}

fn parse_args() -> Options {
    let mut opts = Options {
        subjects: Vec::new(),
        json: false,
        netlist_route: false,
        constraints: None,
        filter: RuleFilter::default(),
        scale: 1,
        fix: false,
        fix_dry_run: false,
        fix_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--netlist" => opts.netlist_route = true,
            "--fix" => opts.fix = true,
            "--fix-dry-run" => {
                opts.fix = true;
                opts.fix_dry_run = true;
            }
            "--fix-out" => {
                let Some(path) = args.next() else { usage(2) };
                opts.fix = true;
                opts.fix_out = Some(path);
            }
            "--list-rules" => {
                let stdout = std::io::stdout();
                let mut out = stdout.lock();
                for r in fbt_lint::ALL_RULES {
                    if writeln!(
                        out,
                        "{:<22} {:<8} {}",
                        r.id,
                        r.severity.keyword(),
                        r.summary
                    )
                    .is_err()
                    {
                        // Downstream closed the pipe (e.g. `| head`).
                        std::process::exit(0);
                    }
                }
                std::process::exit(0);
            }
            "--constraints" => {
                let Some(path) = args.next() else { usage(2) };
                opts.constraints = Some(path);
            }
            "--deny" => {
                let Some(what) = args.next() else { usage(2) };
                if let Some(level) = Severity::from_keyword(&what) {
                    opts.filter.deny_level = level;
                } else if !opts.filter.deny_rule(&what) {
                    eprintln!("fbt-lint: unknown rule or level `{what}`");
                    std::process::exit(2);
                }
            }
            "--allow" => {
                let Some(rule) = args.next() else { usage(2) };
                if !opts.filter.allow(&rule) {
                    eprintln!("fbt-lint: unknown rule `{rule}`");
                    std::process::exit(2);
                }
            }
            "--scale" => {
                let Some(n) = args.next() else { usage(2) };
                match n.parse::<u64>() {
                    Ok(n) if n >= 1 => opts.scale = n,
                    _ => usage(2),
                }
            }
            "--help" | "-h" => usage(0),
            s if s.starts_with('-') => {
                eprintln!("fbt-lint: unknown option `{s}`");
                usage(2)
            }
            _ => opts.subjects.push(arg),
        }
    }
    if opts.subjects.is_empty() {
        usage(2);
    }
    if opts.fix_out.is_some() && opts.subjects.len() > 1 {
        eprintln!("fbt-lint: --fix-out requires exactly one subject");
        std::process::exit(2);
    }
    opts
}

/// Where a subject's circuit came from — the fix engine needs the raw
/// document (files) or the built netlist (catalog circuits).
enum Circuit {
    /// A catalog circuit, already valid.
    Net(Netlist),
    /// A circuit document and its wire format (may be broken; the fix
    /// engine handles that).
    Text(String, Format),
    /// The document did not even parse; `--fix` maps this to exit 2.
    Unparseable,
}

/// A resolved subject: its report, its name, its wire format, its
/// primary-input names (available even when the circuit is too broken to
/// build a [`Netlist`], so constraint linting still runs against it), and
/// its circuit source.
struct Resolved {
    report: LintReport,
    name: String,
    format: Format,
    pi_names: Vec<String>,
    circuit: Circuit,
}

fn resolve_net(net: Netlist) -> Resolved {
    let pi_names = net
        .inputs()
        .iter()
        .map(|&id| net.node_name(id).to_string())
        .collect();
    Resolved {
        name: net.name().to_string(),
        report: lint_netlist(&net),
        format: Format::Bench,
        pi_names,
        circuit: Circuit::Net(net),
    }
}

/// File-subject name: the basename with any recognised extension removed.
fn subject_stem(subject: &str) -> &str {
    let base = subject.rsplit('/').next().unwrap_or(subject);
    for ext in [".bench", ".isc", ".v", ".sv", ".vh"] {
        if let Some(stem) = base.strip_suffix(ext) {
            return stem;
        }
    }
    base
}

fn lint_subject(subject: &str, scale: u64, netlist_route: bool) -> Result<Resolved, String> {
    if Format::from_path(subject).is_some() || subject.contains('/') {
        let text = std::fs::read_to_string(subject)
            .map_err(|e| format!("cannot read `{subject}`: {e}"))?;
        let name = subject_stem(subject);
        let format = Format::detect(Some(subject), &text);
        if netlist_route {
            // Strict route: build the netlist and lint it exactly like a
            // catalog subject, so the report carries name-based locations
            // and is byte-identical across wire formats.
            return match frontend::parse(&text, name, format) {
                Ok(net) => Ok(resolve_net(net)),
                Err(e) => Err(format!("`{subject}` does not build ({format}): {e}")),
            };
        }
        return Ok(match frontend::parse_raw(&text, name, format) {
            Ok(raw) => {
                let c = fbt_lint::graph::RawCircuit::from_raw_bench(&raw);
                let pi_names = c
                    .nodes
                    .iter()
                    .filter(|n| n.kind == Some(fbt_netlist::GateKind::Input))
                    .map(|n| n.name.clone())
                    .collect();
                Resolved {
                    name: raw.name.clone(),
                    report: lint_raw(&raw),
                    format,
                    pi_names,
                    circuit: Circuit::Text(text, format),
                }
            }
            Err(_) => Resolved {
                report: fbt_lint::lint_text(&text, name, format),
                name: name.to_string(),
                format,
                pi_names: Vec::new(),
                circuit: Circuit::Unparseable,
            },
        });
    }
    if subject == "s27" {
        return Ok(resolve_net(fbt_netlist::s27()));
    }
    match synth::find(subject) {
        Some(spec) => {
            let spec = if scale > 1 {
                spec.scaled(scale as usize)
            } else {
                spec
            };
            Ok(resolve_net(synth::generate(&spec)))
        }
        None => Err(format!(
            "`{subject}` is neither a circuit file path nor a catalog circuit name"
        )),
    }
}

/// Default path for the repaired circuit of a subject, in its own format.
fn default_fix_path(subject: &str, format: Format) -> String {
    let ext = format.extension();
    let stem = subject.strip_suffix(&format!(".{ext}")).unwrap_or(subject);
    format!("{stem}.fixed.{ext}")
}

/// Turn a fix outcome into report diagnostics (`fix-applied` notes and
/// `fix-refuted` warnings with the counterexample witness attached).
fn fix_diagnostics(name: &str, outcome: &FixOutcome) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for f in &outcome.applied {
        diags.push(
            Diagnostic::new(
                "fix-applied",
                Severity::Note,
                format!("{name}:{}", f.rule),
                format!(
                    "applied {} ({} edit(s), round {}): {} [certified {}]",
                    f.rule,
                    f.edits,
                    f.round,
                    f.description,
                    f.certificate.keyword()
                ),
            )
            .with_help(
                "the repaired circuit is SAT-proven equivalent on all POs and next-state lines",
            ),
        );
    }
    for r in &outcome.refuted {
        diags.push(
            Diagnostic::new(
                "fix-refuted",
                Severity::Warning,
                format!("{name}:{}", r.rule),
                format!(
                    "refused {} (round {}): {}; counterexample: {}",
                    r.rule, r.round, r.description, r.witness
                ),
            )
            .with_help(
                "the SAT miter found a distinguishing assignment; the fix was reported, not applied",
            ),
        );
    }
    diags
}

/// Render the non-golden `perf` object appended to `--json` reports: the
/// subject's wall-clock microseconds and the fix engine's miter effort.
fn perf_json(micros: u128, outcome: Option<&FixOutcome>) -> String {
    let mut o = fbt_netlist::json::ObjWriter::new();
    o.num("micros", micros);
    o.num("miter_queries", outcome.map_or(0, |f| f.miter_queries));
    o.num("miter_micros", outcome.map_or(0, |f| f.miter_micros));
    o.finish()
}

/// Splice extra top-level keys into a rendered report object. The report
/// body stays byte-identical: consumers strip from `,"fix":`/`,"perf":`
/// to recover the golden form.
fn splice_keys(report_json: &str, extra: &[(&str, String)]) -> String {
    let mut out = report_json[..report_json.len() - 1].to_string();
    for (key, value) in extra {
        out.push_str(&format!(",{}:{}", fbt_netlist::json::escape(key), value));
    }
    out.push('}');
    out
}

fn main() {
    let opts = parse_args();

    let constraint_text = opts.constraints.as_ref().map(|path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("fbt-lint: cannot read `{path}`: {e}");
            std::process::exit(2);
        })
    });

    let mut failed = false;
    let mut parse_failed = false;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for subject in &opts.subjects {
        let t0 = Instant::now();
        let resolved = match lint_subject(subject, opts.scale, opts.netlist_route) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("fbt-lint: {e}");
                std::process::exit(2);
            }
        };
        let Resolved {
            mut report,
            name,
            format,
            pi_names,
            circuit,
        } = resolved;

        // --fix: repair, re-lint the repaired circuit, keep the fix trail.
        let mut fix_outcome: Option<FixOutcome> = None;
        if opts.fix {
            let cfg = FixConfig::default();
            match &circuit {
                Circuit::Unparseable => {
                    // Degrade gracefully: syntax diagnostics stay in the
                    // report, no output file, exit 2 after all subjects.
                    parse_failed = true;
                    eprintln!(
                        "fbt-lint: {subject}: not parseable; --fix skipped, no output written"
                    );
                }
                Circuit::Net(net) => fix_outcome = Some(fix::fix_netlist(net, &cfg)),
                Circuit::Text(text, fmt) => match fix::fix_text(text, &name, *fmt, &cfg) {
                    Ok(o) => fix_outcome = Some(o),
                    Err(_) => unreachable!("parse errors are Circuit::Unparseable"),
                },
            }
        }
        if let Some(outcome) = &fix_outcome {
            if let Some(repaired) = &outcome.repaired {
                // The report now describes the repaired circuit.
                report = lint_netlist(repaired);
                if !opts.fix_dry_run {
                    let path = opts
                        .fix_out
                        .clone()
                        .unwrap_or_else(|| default_fix_path(subject, format));
                    // The output extension picks the emitted format, so
                    // `--fix-out repaired.v` transcodes on the way out.
                    let out_format = Format::from_path(&path).unwrap_or(format);
                    let text = frontend::write(repaired, out_format);
                    if let Err(e) = std::fs::write(&path, text) {
                        eprintln!("fbt-lint: cannot write `{path}`: {e}");
                        std::process::exit(2);
                    }
                    eprintln!("fbt-lint: wrote repaired circuit to {path}");
                }
            } else if let Some(reason) = &outcome.blocked {
                eprintln!("fbt-lint: {subject}: fixes blocked: {reason}");
            }
            for d in fix_diagnostics(&name, outcome) {
                report.push(d);
            }
            report.sort();
        }

        if let Some(text) = constraint_text.as_deref() {
            let set = ConstraintSet::parse(text, &name, &mut report);
            let refs: Vec<&str> = pi_names.iter().map(String::as_str).collect();
            constraints::run_names(&name, &refs, &set, &mut report);
        }
        opts.filter.apply(&mut report);
        if opts.filter.fails(&mut report) {
            failed = true;
        }
        let wrote = if opts.json {
            let mut extra: Vec<(&str, String)> = Vec::new();
            if let Some(outcome) = &fix_outcome {
                extra.push(("fix", outcome.to_json()));
            }
            extra.push((
                "perf",
                perf_json(t0.elapsed().as_micros(), fix_outcome.as_ref()),
            ));
            writeln!(out, "{}", splice_keys(&report.to_json(), &extra))
        } else {
            write!(out, "{}", report.to_pretty())
        };
        if wrote.is_err() {
            // Downstream closed the pipe; report what we know so far.
            std::process::exit(i32::from(failed));
        }
        // Timing to stderr only: the report body must stay bit-identical
        // across runs.
        eprintln!(
            "fbt-lint: {} in {} ms ({} finding(s))",
            subject,
            t0.elapsed().as_millis(),
            report.len()
        );
    }
    if parse_failed {
        std::process::exit(2);
    }
    std::process::exit(i32::from(failed));
}

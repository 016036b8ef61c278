//! Parser and builder error-path coverage: every failure mode of both
//! frontends — `.bench` and structural Verilog — is asserted against its
//! *specific* [`NetlistError`] variant, not merely `is_err()`. The Verilog
//! parser reports column-precise [`NetlistError::ParseAt`] locations; the
//! line-oriented `.bench` parser reports [`NetlistError::Parse`].

use fbt_netlist::bench::{parse, parse_raw};
use fbt_netlist::frontend::RawStmt;
use fbt_netlist::{verilog, NetlistError};

#[test]
fn malformed_gate_line_missing_paren() {
    match parse("INPUT(a)\ny = AND(a, a\n", "bad") {
        Err(NetlistError::Parse { line, message }) => {
            assert_eq!(line, 2);
            assert!(message.contains(")"), "message was: {message}");
        }
        other => panic!("expected Parse error, got {other:?}"),
    }
}

#[test]
fn malformed_gate_line_no_call_syntax() {
    match parse("INPUT(a)\ny = a\n", "bad") {
        Err(NetlistError::Parse { line, .. }) => assert_eq!(line, 2),
        other => panic!("expected Parse error, got {other:?}"),
    }
}

#[test]
fn unrecognised_line_reports_its_number() {
    match parse("INPUT(a)\n\n# fine\nthis is not bench\n", "bad") {
        Err(NetlistError::Parse { line, .. }) => assert_eq!(line, 4),
        other => panic!("expected Parse error, got {other:?}"),
    }
}

#[test]
fn input_on_assignment_rejected() {
    match parse("a = INPUT(b)\n", "bad") {
        Err(NetlistError::Parse { line, message }) => {
            assert_eq!(line, 1);
            assert!(message.contains("INPUT"), "message was: {message}");
        }
        other => panic!("expected Parse error, got {other:?}"),
    }
}

#[test]
fn unknown_gate_kind_names_the_keyword() {
    match parse("INPUT(a)\ny = FROB(a)\n", "bad") {
        Err(NetlistError::UnknownGateKind(k)) => assert_eq!(k, "FROB"),
        other => panic!("expected UnknownGateKind, got {other:?}"),
    }
}

#[test]
fn undeclared_net_names_the_net() {
    match parse("INPUT(a)\nOUTPUT(y)\ny = NOT(ghost)\n", "bad") {
        Err(NetlistError::UndefinedName(n)) => assert_eq!(n, "ghost"),
        other => panic!("expected UndefinedName, got {other:?}"),
    }
}

#[test]
fn undeclared_output_names_the_net() {
    match parse("INPUT(a)\nOUTPUT(phantom)\ny = NOT(a)\n", "bad") {
        Err(NetlistError::UndefinedName(n)) => assert_eq!(n, "phantom"),
        other => panic!("expected UndefinedName, got {other:?}"),
    }
}

#[test]
fn duplicate_gate_definition_names_the_net() {
    match parse("INPUT(a)\ny = NOT(a)\ny = BUFF(a)\n", "bad") {
        Err(NetlistError::DuplicateName(n)) => assert_eq!(n, "y"),
        other => panic!("expected DuplicateName, got {other:?}"),
    }
}

#[test]
fn duplicate_input_declaration_names_the_net() {
    match parse("INPUT(a)\nINPUT(a)\ny = NOT(a)\n", "bad") {
        Err(NetlistError::DuplicateName(n)) => assert_eq!(n, "a"),
        other => panic!("expected DuplicateName, got {other:?}"),
    }
}

#[test]
fn gate_shadowing_input_is_shadowed_input() {
    match parse("INPUT(a)\nINPUT(b)\na = AND(a, b)\n", "bad") {
        Err(NetlistError::ShadowedInput(n)) => assert_eq!(n, "a"),
        other => panic!("expected ShadowedInput, got {other:?}"),
    }
}

#[test]
fn input_shadowing_gate_is_shadowed_input() {
    match parse("INPUT(a)\ny = NOT(a)\nINPUT(y)\n", "bad") {
        Err(NetlistError::ShadowedInput(n)) => assert_eq!(n, "y"),
        other => panic!("expected ShadowedInput, got {other:?}"),
    }
}

#[test]
fn dff_shadowing_input_is_shadowed_input() {
    match parse("INPUT(q)\nq = DFF(q)\n", "bad") {
        Err(NetlistError::ShadowedInput(n)) => assert_eq!(n, "q"),
        other => panic!("expected ShadowedInput, got {other:?}"),
    }
}

#[test]
fn bad_fanin_count_names_gate_and_count() {
    match parse("INPUT(a)\ny = NOT(a, a)\n", "bad") {
        Err(NetlistError::BadFaninCount { name, got }) => {
            assert_eq!(name, "y");
            assert_eq!(got, 2);
        }
        other => panic!("expected BadFaninCount, got {other:?}"),
    }
}

#[test]
fn empty_fanin_list_is_bad_fanin_count() {
    match parse("INPUT(a)\ny = AND()\n", "bad") {
        Err(NetlistError::BadFaninCount { name, got }) => {
            assert_eq!(name, "y");
            assert_eq!(got, 0);
        }
        other => panic!("expected BadFaninCount, got {other:?}"),
    }
}

#[test]
fn dff_arity_is_a_parse_error() {
    match parse("INPUT(a)\nq = DFF(a, a)\n", "bad") {
        Err(NetlistError::Parse { line, message }) => {
            assert_eq!(line, 2);
            assert!(message.contains("DFF"), "message was: {message}");
        }
        other => panic!("expected Parse error, got {other:?}"),
    }
}

#[test]
fn combinational_cycle_detected() {
    let src = "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = AND(a, x)\n";
    assert!(matches!(
        parse(src, "bad"),
        Err(NetlistError::CombinationalCycle(_))
    ));
}

#[test]
fn no_sources_rejected() {
    assert_eq!(parse("", "empty").unwrap_err(), NetlistError::NoSources);
}

#[test]
fn raw_parse_tolerates_structural_problems() {
    // Cycle + duplicate + undefined net: the raw layer parses the whole
    // document, while the structural layer rejects it.
    let src = "INPUT(a)\nx = AND(a, y)\ny = AND(a, x)\nx = NOT(ghost)\n";
    let raw = parse_raw(src, "rough").expect("raw parse succeeds");
    assert_eq!(raw.stmts.len(), 4);
    assert_eq!(raw.stmts[0], (1, RawStmt::Input("a".to_string())));
    assert!(matches!(
        raw.stmts[3],
        (4, RawStmt::Def { ref name, .. }) if name == "x"
    ));
    assert!(parse(src, "rough").is_err());
}

#[test]
fn raw_parse_still_rejects_syntax_errors() {
    assert!(matches!(
        parse_raw("y = AND(a\n", "bad"),
        Err(NetlistError::Parse { line: 1, .. })
    ));
    assert!(matches!(
        parse_raw("y = FROB(a)\n", "bad"),
        Err(NetlistError::UnknownGateKind(_))
    ));
}

// ---------------------------------------------------------------------------
// Verilog frontend
// ---------------------------------------------------------------------------

/// Expect a `ParseAt` at an exact (line, column) whose message contains
/// `needle`.
fn expect_parse_at(src: &str, line: usize, col: usize, needle: &str) {
    match verilog::parse(src) {
        Err(NetlistError::ParseAt {
            line: l,
            col: c,
            message,
        }) => {
            assert_eq!((l, c), (line, col), "location for: {message}");
            assert!(
                message.contains(needle),
                "message `{message}` does not mention `{needle}`"
            );
        }
        other => panic!("expected ParseAt mentioning `{needle}`, got {other:?}"),
    }
}

#[test]
fn verilog_missing_module_keyword() {
    expect_parse_at("wire w;\n", 1, 1, "module");
}

#[test]
fn verilog_missing_endmodule() {
    expect_parse_at("module m (a);\n  input a;\n", 3, 1, "endmodule");
}

#[test]
fn verilog_unterminated_block_comment() {
    expect_parse_at(
        "module m;\n/* runs off\n",
        2,
        1,
        "unterminated block comment",
    );
}

#[test]
fn verilog_unexpected_character() {
    expect_parse_at("module m (a);\n  input a%\n", 2, 10, "unexpected character");
}

#[test]
fn verilog_vector_ranges_rejected_with_column() {
    expect_parse_at(
        "module m (a);\n  input a;\n  wire [7:0] bus;\nendmodule\n",
        3,
        8,
        "vector ranges",
    );
}

#[test]
fn verilog_unknown_cell_is_unsupported_construct() {
    expect_parse_at(
        "module m (a, y);\n  input a;\n  output y;\n  mux2 u0 (y, a, a);\nendmodule\n",
        4,
        3,
        "unsupported construct `mux2`",
    );
}

#[test]
fn verilog_named_connections_rejected() {
    expect_parse_at(
        "module m (a, y);\n  input a;\n  output y;\n  not g (.O(y), .I(a));\nendmodule\n",
        4,
        10,
        "named port connections",
    );
}

#[test]
fn verilog_constant_connections_rejected() {
    expect_parse_at(
        "module m (a, y);\n  input a;\n  output y;\n  and g (y, a, 1'b1);\nendmodule\n",
        4,
        16,
        "constant connections",
    );
}

#[test]
fn verilog_blocking_assign_in_always_rejected() {
    expect_parse_at(
        "module m (c, d, q);\n  input c, d;\n  output q;\n  reg q;\n\
         always @(posedge c) q = d;\nendmodule\n",
        5,
        23,
        "non-blocking",
    );
}

#[test]
fn verilog_negedge_rejected() {
    expect_parse_at(
        "module m (c, d, q);\n  input c, d;\n  output q;\n  reg q;\n\
         always @(negedge c) q <= d;\nendmodule\n",
        5,
        10,
        "posedge",
    );
}

#[test]
fn verilog_non_reset_conditional_rejected() {
    // A clock-enable `if` is not the reset idiom: neither branch assigns
    // only constants.
    expect_parse_at(
        "module m (c, en, d, q);\n  input c, en, d;\n  output q;\n  reg q;\n\
         always @(posedge c)\n    if (en) q <= d;\nendmodule\n",
        6,
        5,
        "reset",
    );
}

#[test]
fn verilog_multiple_modules_rejected() {
    expect_parse_at(
        "module a (x);\n  input x;\nendmodule\nmodule b (y);\nendmodule\n",
        4,
        1,
        "multiple modules",
    );
}

#[test]
fn verilog_dff_arity_rejected() {
    expect_parse_at(
        "module m (c, d, q);\n  input c, d;\n  output q;\n  dff f (c, q, d, d);\nendmodule\n",
        4,
        9,
        "dff",
    );
}

#[test]
fn verilog_structural_errors_still_typed() {
    // Syntax is fine; the builder still reports its own variants.
    let src = "module m (a, y);\n  input a;\n  output y;\n  not g (y, ghost);\nendmodule\n";
    match verilog::parse(src) {
        Err(NetlistError::UndefinedName(n)) => assert_eq!(n, "ghost"),
        other => panic!("expected UndefinedName, got {other:?}"),
    }
    let src = "module m (a, y);\n  input a;\n  output y;\n\
               not g0 (y, a);\n  not g1 (y, a);\nendmodule\n";
    match verilog::parse(src) {
        Err(NetlistError::DuplicateName(n)) => assert_eq!(n, "y"),
        other => panic!("expected DuplicateName, got {other:?}"),
    }
    let src = "module m (a, x);\n  input a;\n  output x;\n\
               and g0 (x, a, y);\n  and g1 (y, a, x);\nendmodule\n";
    assert!(matches!(
        verilog::parse(src),
        Err(NetlistError::CombinationalCycle(_))
    ));
}

#[test]
fn verilog_raw_parse_tolerates_structural_problems() {
    // The tolerant layer sees the whole broken document — same contract as
    // `.bench` raw parsing — so lint can report every problem at once.
    let src = "module rough (a, x);\n  input a;\n  output x;\n\
               and g0 (x, a, y);\n  and g1 (y, a, x);\n  not g2 (x, ghost);\nendmodule\n";
    let raw = verilog::parse_raw(src).expect("raw parse succeeds");
    assert_eq!(raw.name, "rough");
    let defs = raw
        .stmts
        .iter()
        .filter(|(_, s)| matches!(s, RawStmt::Def { .. }))
        .count();
    assert_eq!(defs, 3);
    assert!(verilog::parse(src).is_err());
}

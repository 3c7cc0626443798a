import json

import pytest

import popverify as pv
from popverify import protofile
from popverify.cli import main
from popverify.semilinear import MAX_NESTING, parse_predicate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_threshold_round_trips(tmp_path, capsys):
    out = tmp_path / "tower.proto"
    code, _, _ = run(
        capsys, "build", "threshold", "--sigma", "a", "--k", "2",
        "--alphabet", "a,b", "--out", str(out),
    )
    assert code == 0
    p = protofile.parse(out.read_text())
    assert p.states == frozenset({"0", "1", "2"})


def test_build_writes_stdout_by_default(capsys):
    code, out, _ = run(
        capsys, "build", "modulo", "--coeffs", "a=1", "--r", "1", "--m", "2"
    )
    assert code == 0
    assert "[model]" in out and "kind immediate-transmission" in out


def test_verify_clean_exits_zero(tmp_path, capsys):
    proto = tmp_path / "p.proto"
    pred = tmp_path / "p.pred"
    proto.write_text(
        protofile.emit(pv.build_simple_threshold("a", 2, ("a", "b")))
    )
    pred.write_text("(count a 2)")
    code, out, _ = run(
        capsys, "verify", "--protocol", str(proto), "--predicate", str(pred),
        "--max-n", "3",
    )
    assert code == 0
    assert "all verdicts match" in out


def test_verify_mismatch_exits_one(tmp_path, capsys):
    proto = tmp_path / "p.proto"
    pred = tmp_path / "p.pred"
    proto.write_text(
        protofile.emit(pv.build_simple_threshold("a", 2, ("a", "b")))
    )
    pred.write_text("(count a 3)")
    code, out, _ = run(
        capsys, "verify", "--protocol", str(proto), "--predicate", str(pred),
        "--max-n", "3",
    )
    assert code == 1
    assert "mismatch at" in out


def test_verify_records_format(tmp_path, capsys):
    proto = tmp_path / "p.proto"
    pred = tmp_path / "p.pred"
    proto.write_text(protofile.emit(pv.build_modulo(pv.Modulo({"a": 1}, 1, 2))))
    pred.write_text("(mod (v (a 1)) 1 2)")
    code, out, _ = run(
        capsys, "verify", "--protocol", str(proto), "--predicate", str(pred),
        "--max-n", "3", "--format", "records",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 3
    assert all(r["ok"] for r in records)
    assert records[0]["input"] == "{a:1}"
    assert records[0]["verdict"] == "stably computes 1"


def test_verify_budget_exits_three(tmp_path, capsys):
    proto = tmp_path / "p.proto"
    pred = tmp_path / "p.pred"
    proto.write_text(
        protofile.emit(pv.build_simple_threshold("a", 3, ("a", "b")))
    )
    pred.write_text("(count a 3)")
    code, _, _ = run(
        capsys, "verify", "--protocol", str(proto), "--predicate", str(pred),
        "--max-n", "4", "--budget", "2",
    )
    assert code == 3


# A two-way protocol whose mixed pair settles either way: A meeting B as
# initiator makes both A (output 1), B meeting A makes both C (output 0),
# so {a:1, b:1} is not well specified.
SPLIT = """
[model]
name split
kind two-way
[states]
A B C
[inputs]
a b
[delta]
A A -> A A
A B -> A A
A C -> A C
B A -> C C
B B -> B B
B C -> B C
C A -> C A
C B -> C B
C C -> C C
[iota]
a -> A
b -> B
[output]
A -> 1
B -> 0
C -> 0
"""


def split_verify_argv(tmp_path):
    proto = tmp_path / "split.proto"
    pred = tmp_path / "split.pred"
    proto.write_text(SPLIT)
    pred.write_text("(count a 1)")
    return ["verify", "--protocol", str(proto), "--predicate", str(pred), "--max-n", "2"]


def test_verify_not_well_specified_reports_a_witness(tmp_path, capsys):
    argv = split_verify_argv(tmp_path)
    code, out, _ = run(capsys, *argv, "--format", "records")
    assert code == 1
    records = {r["input"]: r for r in map(json.loads, out.splitlines())}
    assert len(records) == 5
    bad = records.pop("{a:1, b:1}")
    assert bad["verdict"] == "not-well-specified" and bad["ok"] is False
    assert isinstance(bad["witness"], list) and len(bad["witness"]) >= 2
    assert bad["witness"][0] == "{A:1, B:1}"
    assert "error" not in bad
    assert all(r["ok"] and "witness" not in r and "error" not in r for r in records.values())

    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "  mismatch at {a:1, b:1}: expected 1, got not-well-specified\n" in out
    assert f"    witness: {' -> '.join(bad['witness'])}\n" in out + "\n"


def test_verify_records_budget_exceeded_exits_three(tmp_path, capsys):
    argv = split_verify_argv(tmp_path)
    code, out, _ = run(capsys, *argv, "--format", "records", "--budget", "2")
    assert code == 3
    records = {r["input"]: r for r in map(json.loads, out.splitlines())}
    over = records["{a:1, b:1}"]
    assert over["verdict"] == "budget-exceeded" and over["ok"] is False
    assert over["error"].startswith("exploration exceeded the node budget of 2 ")
    assert "witness" not in over


def test_analyze_budget_exits_three(tmp_path, capsys):
    proto = tmp_path / "p.proto"
    proto.write_text(protofile.emit(pv.build_simple_threshold("a", 2, ("a", "b"))))
    code, out, err = run(
        capsys, "analyze", "--protocol", str(proto), "--size-bound", "3", "--budget", "1"
    )
    assert code == 3 and not out
    assert err.startswith("error: exploration exceeded the node budget")


def test_transform_queued_and_tokens(tmp_path, capsys):
    src = tmp_path / "avg.proto"
    src.write_text(
        protofile.emit(pv.build_threshold_avg(pv.Threshold({"a": 1, "b": -1}, 1)))
    )
    out = tmp_path / "q.proto"
    code, _, _ = run(
        capsys, "transform", "--kind", "queued", "--in", str(src), "--out", str(out)
    )
    assert code == 0
    assert protofile.parse(out.read_text()).kind is pv.ModelKind.QUEUED_TRANSMISSION

    code, _, err = run(
        capsys, "transform", "--kind", "tokens", "--in", str(src), "--out", str(out)
    )
    assert code == 2 and "--sigma-tok" in err

    code, _, _ = run(
        capsys, "transform", "--kind", "tokens", "--in", str(src), "--out", str(out),
        "--sigma-tok", "a", "--k", "2",
    )
    assert code == 0
    assert protofile.parse(out.read_text()).kind is pv.ModelKind.DELAYED_TRANSMISSION


@pytest.mark.parametrize(
    "kind_args", [("queued",), ("tokens", "--sigma-tok", "a", "--k", "2")], ids=["queued", "tokens"]
)
def test_transform_refuses_a_mirrored_two_way_source(kind_args, tmp_path, capsys):
    src = tmp_path / "avg.proto"
    text = protofile.emit(pv.build_threshold_avg(pv.Threshold({"a": 1, "b": -1}, 1)))
    assert "mirrors false\n" in text
    src.write_text(text.replace("mirrors false\n", "mirrors true\n"))
    code, out, err = run(capsys, "transform", "--kind", *kind_args, "--in", str(src))
    assert code == 2 and not out
    assert "self-interactions" in err


def test_transform_mirror_rejects_wrong_kind(tmp_path, capsys):
    src = tmp_path / "avg.proto"
    src.write_text(
        protofile.emit(pv.build_threshold_avg(pv.Threshold({"a": 1}, 1)))
    )
    code, _, err = run(capsys, "transform", "--kind", "mirrors", "--in", str(src))
    assert code == 2 and "error:" in err


def test_simulate(tmp_path, capsys):
    proto = tmp_path / "p.proto"
    proto.write_text(protofile.emit(pv.build_modulo(pv.Modulo({"a": 1}, 1, 2))))
    code, out, _ = run(
        capsys, "simulate", "--protocol", str(proto), "--input", "{a:3}", "--seed", "1"
    )
    assert code == 0
    assert "converged with output 1" in out


def test_simulate_set_union(capsys):
    code, out, _ = run(
        capsys, "simulate", "--set-union-alphabet", "a,b", "--input", "{a:1, b:2}"
    )
    assert code == 0
    assert out.count("agent {a,b}") == 3


def test_analyze(tmp_path, capsys):
    proto = tmp_path / "p.proto"
    proto.write_text(
        protofile.emit(pv.build_simple_threshold("a", 2, ("a", "b")))
    )
    code, out, _ = run(capsys, "analyze", "--protocol", str(proto), "--size-bound", "3")
    assert code == 0
    assert "minimal unstable configurations" in out
    assert "implied truncation constant: 2" in out


def test_pred_eval(tmp_path, capsys):
    pred = tmp_path / "p.pred"
    pred.write_text("(and (count a 2) (not (count b 1)))")
    code, out, _ = run(capsys, "pred", "eval", "--predicate", str(pred), "--input", "{a:2}")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(
        capsys, "pred", "eval", "--predicate", str(pred), "--input", "{a:2, b:1}"
    )
    assert code == 0 and out.strip() == "false"


# Membership subtracts one period per search step, so these inputs take
# thousands of steps, past the interpreter's recursion limit.
DEEP_MEMBERS = [
    ("(sl (lin (base (a 0)) (per (a 1))))", "{a:3000}", "true"),
    ("(sl (lin (base (a 0)) (per (a 2))))", "{a:2001}", "false"),
    ("(sl (lin (base (a 0)) (per (a 2))))", "{a:3000}", "true"),
    ("(sl (lin (base (b 1)) (per (a 1)) (per (a 1) (b 1))))", "{a:2500, b:1201}", "true"),
    ("(sl (lin (base (a 0)) (per (a 1) (b 1))))", "{a:2000, b:2001}", "false"),
]


@pytest.mark.parametrize("text,x,answer", DEEP_MEMBERS)
def test_pred_eval_deep_linear_set(text, x, answer, tmp_path, capsys):
    pred = tmp_path / "deep.pred"
    pred.write_text(text)
    code, out, _ = run(capsys, "pred", "eval", "--predicate", str(pred), "--input", x)
    assert (code, out.strip()) == (0, answer)


def test_pred_eval_list_symbol_exits_two(tmp_path, capsys):
    pred = tmp_path / "bad.pred"
    pred.write_text("(count (a) 1)")
    code, _, err = run(capsys, "pred", "eval", "--predicate", str(pred), "--input", "{a:1}")
    assert code == 2 and "expected a symbol" in err


def test_predicate_nesting_bound(tmp_path, capsys):
    proto = tmp_path / "tower.proto"
    proto.write_text(protofile.emit(pv.build_simple_threshold("a", 2, ("a", "b"))))
    pred = tmp_path / "deep.pred"
    for depth in (MAX_NESTING, MAX_NESTING + 1):
        # (count a 2) under alternating and/or wrappers.
        text = "(count a 2)"
        for i in range(depth - 1):
            text = f"({('and', 'or')[i % 2]} {text})"
        pred.write_text(text)
        ok = depth == MAX_NESTING
        code, out, err = run(
            capsys, "pred", "eval", "--predicate", str(pred), "--input", "{a:2}"
        )
        assert (code, out.strip()) == ((0, "true") if ok else (2, ""))
        code, out, err = run(
            capsys, "verify", "--protocol", str(proto), "--predicate", str(pred), "--max-n", "3"
        )
        assert code == (0 if ok else 2)
        assert ("all verdicts match" in out) if ok else ("nested deeper than" in err)
    pred.write_text("(" * 3000 + "true" + ")" * 3000)
    code, _, err = run(capsys, "pred", "eval", "--predicate", str(pred), "--input", "{a:1}")
    assert code == 2 and "nested deeper than" in err


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run(capsys, "nosuch")[0] == 2
    assert run(capsys, "verify", "--protocol", "x")[0] == 2
    missing = str(tmp_path / "missing.proto")
    pred = tmp_path / "p.pred"
    pred.write_text("true")
    code, _, err = run(
        capsys, "verify", "--protocol", missing, "--predicate", str(pred), "--max-n", "2"
    )
    assert code == 2 and "error:" in err


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.proto"
    bad.write_text("[model]\nkind sideways\n")
    code, _, err = run(capsys, "analyze", "--protocol", str(bad), "--size-bound", "2")
    assert code == 2 and "unknown model kind" in err


def test_transit_cap_below_one_exits_two(tmp_path, capsys):
    # Under cap 0, dt_modulo_1_2 would report "stably computes 1" on {a:4}.
    proto = tmp_path / "dt.proto"
    proto.write_text(
        protofile.emit(pv.build_delayed_transmission(pv.Modulo({"a": 1}, 1, 2)))
    )
    pred = tmp_path / "p.pred"
    pred.write_text("(mod (v (a 1)) 1 2)")
    for cap in ("0", "-1"):
        commands = (
            ("verify", "--predicate", str(pred), "--max-n", "4"),
            ("simulate", "--input", "{a:4}"),
            ("analyze", "--size-bound", "2"),
        )
        for command, *rest in commands:
            code, out, err = run(
                capsys, command, "--protocol", str(proto), *rest, "--transit-cap", cap
            )
            assert code == 2, (command, cap)
            assert "transit cap must be at least 1" in err and not out


def test_message_output_exits_two(tmp_path, capsys):
    # Counting mA1's bit made dt_modulo_1_2 report "diverges" on {a:1}.
    spec = pv.build_delayed_transmission(pv.Modulo({"a": 1}, 1, 2))
    proto = tmp_path / "dt.proto"
    proto.write_text(protofile.emit(spec).replace("[output]\n", "[output]\nmA1 -> 0\n"))
    pred = tmp_path / "p.pred"
    pred.write_text("(mod (v (a 1)) 1 2)")
    code, out, err = run(
        capsys, "verify", "--protocol", str(proto), "--predicate", str(pred), "--max-n", "1"
    )
    assert code == 2 and not out
    assert "output given for 'mA1'" in err


def test_send_receive_without_self_delivery_exits_two(tmp_path, capsys):
    # A message can always reach its sender, so "mirrors false" would be
    # ignored; it is rejected instead.
    spec = pv.build_delayed_transmission(pv.Modulo({"a": 1}, 1, 2))
    proto = tmp_path / "dt.proto"
    proto.write_text(protofile.emit(spec).replace("mirrors true", "mirrors false"))
    pred = tmp_path / "p.pred"
    pred.write_text("(mod (v (a 1)) 1 2)")
    code, out, err = run(
        capsys, "verify", "--protocol", str(proto), "--predicate", str(pred), "--max-n", "2"
    )
    assert code == 2 and not out
    assert "mirrors cannot be false" in err


def test_empty_input_alphabet_exits_two(tmp_path, capsys):
    proto = tmp_path / "p.proto"
    proto.write_text(
        "[model]\nkind two-way\n[states]\nq\n[inputs]\n"
        "[delta]\nq q -> q q\n[output]\nq -> 0\n"
    )
    pred = tmp_path / "p.pred"
    pred.write_text("true")
    code, out, err = run(
        capsys, "verify", "--protocol", str(proto), "--predicate", str(pred), "--max-n", "2"
    )
    assert code == 2 and not out
    assert "error: the input alphabet is empty" in err


def test_repeated_input_symbol_exits_two(tmp_path, capsys):
    proto = tmp_path / "p.proto"
    proto.write_text(
        "[model]\nkind two-way\n[states]\nq\n[inputs]\na a\n"
        "[delta]\nq q -> q q\n[iota]\na -> q\n[output]\nq -> 0\n"
    )
    pred = tmp_path / "p.pred"
    pred.write_text("true")
    code, out, err = run(
        capsys, "verify", "--protocol", str(proto), "--predicate", str(pred), "--max-n", "2"
    )
    assert code == 2 and not out
    assert "error: input symbols declared more than once: ['a']" in err


TWO_WAY_Q = "[model]\nkind two-way\n[states]\nq\n[inputs]\na\n[delta]\nq q -> q q\n"
SEND_RECEIVE_Q = (
    "[model]\nkind queued-transmission\n[states]\nq r\n[messages]\nm\n[inputs]\na\n"
    "[delta]\nsend q -> m q\n[iota]\na -> q\n[output]\nq -> 0\nr -> 1\n"
)


@pytest.mark.parametrize(
    "text,message",
    [
        (TWO_WAY_Q.replace("[inputs]", "[messages]\nq\n[inputs]")
         + "[iota]\na -> q\n[output]\nq -> 0\n",
         "states and messages overlap: ['q']"),
        (TWO_WAY_Q + "[output]\nq -> 0\n", "iota undefined for input 'a'"),
        (TWO_WAY_Q + "[iota]\na -> q\n", "output undefined for state 'q'"),
        (SEND_RECEIVE_Q, "send undefined for state 'r'"),
    ],
)
def test_invalid_model_file_exits_two(text, message, tmp_path, capsys):
    proto = tmp_path / "p.proto"
    proto.write_text(text)
    pred = tmp_path / "p.pred"
    pred.write_text("true")
    code, out, err = run(
        capsys, "verify", "--protocol", str(proto), "--predicate", str(pred), "--max-n", "1"
    )
    assert code == 2 and not out
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("threshold", "--sigma", "a", "--k", "0", "--alphabet", "a,b"),
         "error: threshold must be >= 1, got 0"),
        (("modulo", "--coeffs", "a", "--r", "1", "--m", "2"),
         "argument --coeffs: expected sym=coef, got 'a'"),
        (("modulo", "--coeffs", "a=x", "--r", "1", "--m", "2"),
         "argument --coeffs: bad coefficient in 'a=x'"),
        (("modulo", "--coeffs", ",", "--r", "1", "--m", "2"),
         "argument --coeffs: empty coefficient list"),
        (("threshold", "--sigma", "a", "--k", "1", "--alphabet", ","),
         "argument --alphabet: empty alphabet"),
    ],
)
def test_build_argument_errors_exit_two(argv, message, capsys):
    code, out, err = run(capsys, "build", *argv)
    assert code == 2 and not out
    assert err.endswith(f"{message}\n")


def test_verify_over_a_wide_alphabet(tmp_path, capsys):
    # An alphabet wider than the interpreter's recursion limit.
    alphabet = ",".join(f"s{i}" for i in range(1200))
    proto = tmp_path / "wide.proto"
    code, _, _ = run(
        capsys, "build", "threshold", "--sigma", "s0", "--k", "1",
        "--alphabet", alphabet, "--out", str(proto),
    )
    assert code == 0
    pred = tmp_path / "wide.pred"
    pred.write_text("(count s0 1)")
    code, out, err = run(
        capsys, "verify", "--protocol", str(proto), "--predicate", str(pred), "--max-n", "1"
    )
    assert code == 0 and not err
    assert out == "protocol threshold_s0_1: 1200 inputs up to n=1\n  all verdicts match\n"


def test_build_rejects_repeated_alphabet_symbols(capsys):
    code, out, err = run(
        capsys, "build", "threshold", "--sigma", "a", "--k", "2", "--alphabet", "a,a,b"
    )
    assert code == 2 and not out
    assert "repeated symbols in alphabet: a" in err


def test_transform_tokens_reads_a_zero_bound(tmp_path, capsys):
    src = tmp_path / "avg.proto"
    src.write_text(
        protofile.emit(pv.build_threshold_avg(pv.Threshold({"a": 1, "b": -1}, 1)))
    )
    code, out, err = run(
        capsys, "transform", "--kind", "tokens", "--in", str(src), "--sigma-tok", "a",
    )
    assert code == 2 and not out
    assert err.startswith("error: transform --kind tokens needs --sigma-tok and --k")
    code, out, err = run(
        capsys, "transform", "--kind", "tokens", "--in", str(src), "--sigma-tok", "a",
        "--k", "0",
    )
    assert code == 2 and not out
    assert "error: token bound must be >= 2, got 0" in err


def test_simulate_without_convergence_exits_one(tmp_path, capsys):
    proto = tmp_path / "p.proto"
    proto.write_text(protofile.emit(pv.build_modulo(pv.Modulo({"a": 1}, 1, 2))))
    code, out, err = run(
        capsys, "simulate", "--protocol", str(proto), "--input", "{a:3}", "--max-steps", "0"
    )
    assert code == 1
    assert out.strip() == "{A1:3}"
    assert "did not converge after 0 steps" in err


def test_simulate_transit_cap_below_one_exits_two(tmp_path, capsys):
    # A run of no steps explores nothing, so fair_run checks the cap itself.
    proto, _ = parity_files(tmp_path)
    code, out, err = run(
        capsys, "simulate", "--protocol", proto, "--input", "{a:3}",
        "--transit-cap", "0", "--max-steps", "0",
    )
    assert code == 2 and not out
    assert "transit cap must be at least 1, got 0" in err


def test_build_rejects_repeated_coefficient_symbols(capsys):
    # The last coefficient of a symbol used to win silently.
    code, out, err = run(
        capsys, "build", "modulo", "--coeffs", "a=1,a=2", "--r", "1", "--m", "3"
    )
    assert code == 2 and not out
    assert "repeated symbol in coefficients: a" in err


def test_simulate_set_union_rejects_run_flags(capsys):
    code, out, err = run(
        capsys, "simulate", "--set-union-alphabet", "a,b", "--input", "{a:1,b:1}",
        "--max-steps", "0", "--transit-cap", "1", "--seed", "3",
    )
    assert code == 2 and not out
    assert "error:" in err
    assert all(flag in err for flag in ("--seed", "--max-steps", "--transit-cap"))


def test_simulate_protocol_defaults(tmp_path, capsys):
    proto = tmp_path / "p.proto"
    proto.write_text(protofile.emit(pv.build_modulo(pv.Modulo({"a": 1}, 1, 2))))
    base = ("simulate", "--protocol", str(proto), "--input", "{a:5}")
    default = run(capsys, *base)
    assert default[0] == 0
    assert run(capsys, *base, "--seed", "0", "--max-steps", "10000") == default


def test_build_delayed_threshold_zero_k_exits_two(capsys):
    code, out, err = run(
        capsys, "build", "delayed-threshold", "--sigma", "a", "--k", "0", "--alphabet", "a,b"
    )
    assert code == 2 and not out
    assert "error:" in err


def test_build_delayed_threshold_sigma_outside_alphabet_exits_two(capsys):
    argv = ("--sigma", "z", "--alphabet", "a,b")
    for builder, extra in (("threshold", ("--k", "1")), ("delayed-threshold", ("--k", "1")),
                           ("presence", ())):
        code, out, err = run(capsys, "build", builder, *argv, *extra)
        assert code == 2 and not out
        assert "error: 'z' is not in the alphabet ['a', 'b']" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("modulo", "--coeffs", "=3", "--r", "1", "--m", "2"),
        ("modulo", "--coeffs", "a#=1", "--r", "1", "--m", "2"),
        ("threshold", "--sigma", "a b", "--k", "1", "--alphabet", "a b,c"),
        ("presence", "--sigma", "a", "--alphabet", "a,b\tc"),
        ("avg-threshold", "--coeffs", "a->b=1", "--r", "1"),
        *(("delayed-modulo", "--coeffs", f"a{ch}=1", "--r", "1", "--m", "2")
          for ch in "{}[]():;"),
    ],
)
def test_build_rejects_symbols_files_cannot_carry(argv, tmp_path, capsys):
    # A protocol file, input multiset or predicate could not carry such a
    # symbol back, so every later command on the file would fail.
    out_file = tmp_path / "p.proto"
    code, out, err = run(capsys, "build", *argv, "--out", str(out_file))
    assert code == 2 and not out and not out_file.exists()
    assert "bad input symbol" in err


@pytest.mark.parametrize("symbol", ["a", "x_1", "b'", "A-B", "7", "a>b", "$", "\u03c3"])
def test_accepted_input_symbols_round_trip(symbol, capsys):
    for argv, spec in (
        (("presence", "--sigma", symbol, "--alphabet", f"{symbol},z"),
         pv.detect(symbol, (symbol, "z"))),
        (("modulo", "--coeffs", f"{symbol}=1", "--r", "1", "--m", "2"),
         pv.build_modulo(pv.Modulo({symbol: 1}, 1, 2))),
    ):
        code, out, _ = run(capsys, "build", *argv)
        assert code == 0
        parsed = protofile.parse(out)
        assert parsed.inputs == spec.inputs and parsed.iota == spec.iota
    x = pv.Multiset.parse("{" + symbol + ":1}")
    assert x == pv.Multiset({symbol: 1})
    psi = parse_predicate(f"(count {symbol} 1)")
    assert psi(x) and not psi(pv.Multiset({"z": 1}))


def parity_files(tmp_path):
    proto = tmp_path / "p.proto"
    proto.write_text(protofile.emit(pv.build_modulo(pv.Modulo({"a": 1}, 1, 2))))
    pred = tmp_path / "p.pred"
    pred.write_text("(mod (v (a 1)) 1 2)")
    return str(proto), str(pred)


def test_verify_max_n_below_one_exits_two(tmp_path, capsys):
    # Max-n 0 printed "0 inputs up to n=0" and "all verdicts match".
    proto, pred = parity_files(tmp_path)
    for max_n in ("0", "-3"):
        code, out, err = run(
            capsys, "verify", "--protocol", proto, "--predicate", pred, "--max-n", max_n
        )
        assert code == 2 and not out
        assert f"max_n must be at least 1, got {max_n}" in err


def test_analyze_size_bound_below_one_exits_two(tmp_path, capsys):
    proto, _ = parity_files(tmp_path)
    code, out, err = run(capsys, "analyze", "--protocol", proto, "--size-bound", "0")
    assert code == 2 and not out
    assert "size bound must be at least 1, got 0" in err


def test_budget_below_one_exits_two(tmp_path, capsys):
    # Budget -5 reported "exceeded the node budget of -5" for every input.
    proto, pred = parity_files(tmp_path)
    commands = (
        ("verify", "--predicate", pred, "--max-n", "2"),
        ("analyze", "--size-bound", "2"),
    )
    for budget in ("0", "-5"):
        for command, *rest in commands:
            code, out, err = run(
                capsys, command, "--protocol", proto, *rest, "--budget", budget
            )
            assert code == 2 and not out, (command, budget)
            assert f"node budget must be at least 1, got {budget}" in err


def test_simulate_negative_max_steps_exits_two(tmp_path, capsys):
    proto, _ = parity_files(tmp_path)
    code, out, err = run(
        capsys, "simulate", "--protocol", proto, "--input", "{a:3}", "--max-steps", "-1"
    )
    assert code == 2 and not out
    assert "max_steps must be at least 0, got -1" in err

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heightzeta.asymptotics as asymptotics
import heightzeta.cli as cli
import heightzeta.oracle as oracle
import heightzeta.zeta as zeta
from heightzeta.asymptotics import RemainderCheck
from heightzeta.cli import load_spec, main, spec_to_json
from heightzeta.gf import MAX_TEXT_DEGREE
from heightzeta.oracle import count_canonical_heights
from heightzeta.qfuncs import NumberFieldElem, QPoly, QRatFunc
from heightzeta.zeta import DecompositionResult, ProblemSpec, assemble_zeta


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


G0 = {"q": 5, "genus": 0, "d": 2, "f": "t"}
INERT = {"q": 5, "genus": 1, "d": 2, "frobenius_trace": 0, "bad_places": [{"f_v": 2, "vf": 1}]}
SPLIT_CURVE = {"q": 5, "genus": 1, "d": 2, "h": "t^3+1", "f": "t"}


def test_zeta_json_output(tmp_path, capsys):
    assert main(["zeta", "--spec", _write(tmp_path, "s.json", G0), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["combined"] == {"num": [0, 5, -5], "den": [1, -5]}
    assert out["variable"] == "w = 5^(-s/2)"


def test_zeta_json_round_trip(tmp_path, capsys):
    for payload in (G0, INERT, SPLIT_CURVE):
        main(["zeta", "--spec", _write(tmp_path, "s.json", payload), "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        rebuilt = QRatFunc(QPoly(out["combined"]["num"]), QPoly(out["combined"]["den"]))
        spec = load_spec(payload)
        assert rebuilt == assemble_zeta(spec).combined


def test_spec_json_round_trip():
    for payload in (G0, INERT, SPLIT_CURVE):
        spec = load_spec(payload)
        reparsed = load_spec(spec_to_json(spec))
        assert reparsed.q == spec.q
        assert reparsed.genus == spec.genus
        assert reparsed.d == spec.d
        assert reparsed.frobenius_trace == spec.frobenius_trace
        assert [(bp.f_v, bp.vf) for bp in reparsed.bad_places] == [
            (bp.f_v, bp.vf) for bp in spec.bad_places
        ]


def test_poles_json(tmp_path, capsys):
    assert main(["poles", "--spec", _write(tmp_path, "s.json", INERT), "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 3
    by_factor = {tuple(r["min_poly"]): r for r in records}
    real_pole = by_factor[(-1, 25)]
    assert real_pole["laurent"][0]["coeffs"] == ["8/91"]
    assert real_pole["poles"] == [[2.0, 0.0]]
    pair = by_factor[(1, 0, 5)]
    assert pair["laurent"][0]["coeffs"] == ["46/7", "30/7"]
    axis = by_factor[(1, 1)]
    assert axis["laurent"][0]["coeffs"] == ["400/13"]
    # laurent entries re-parse to quotient-field elements
    elem = NumberFieldElem(
        QPoly(pair["laurent"][0]["min_poly"]),
        QPoly([Fraction(c) for c in pair["laurent"][0]["coeffs"]]),
    )
    assert elem.trace() == Fraction(92, 7)


def test_asymptote_rows(tmp_path, capsys):
    assert (
        main(
            [
                "asymptote",
                "--spec",
                _write(tmp_path, "s.json", G0),
                "--all-up-to",
                "6",
                "--format",
                "json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    rows = payload["rows"]
    assert [r["k"] for r in rows] == list(range(7))
    assert rows[0]["difference"] == "-4/5"
    assert all(r["difference"] == "1/5" for r in rows[1:])
    assert rows[6]["oracle"] == 15625


def test_asymptote_single_and_negative(tmp_path, capsys):
    spec = _write(tmp_path, "s.json", G0)
    assert main(["asymptote", "--spec", spec, "--bound-exponent", "4"]) == 0
    capsys.readouterr()
    assert main(["asymptote", "--spec", spec, "--bound-exponent", "-1"]) == 2


def test_verify_pass(tmp_path, capsys):
    spec = _write(tmp_path, "s.json", G0)
    assert main(["verify", "--spec", spec, "--max-coeff", "10", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    names = {c["name"] for c in payload["checks"]}
    assert names == {"series_vs_oracle", "decomposition", "remainder_decay"}


def test_asymptote_past_the_oracle_budget_omits_the_oracle(tmp_path, capsys):
    spec = _write(tmp_path, "s.json", {"q": 2, "genus": 0, "d": 2, "f": "t^2+t+1"})
    assert main(["asymptote", "--spec", spec, "--all-up-to", "26", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 27
    assert not any("oracle" in row for row in rows)


def test_verify_caps_the_oracle_at_its_budget(tmp_path, capsys):
    spec = _write(tmp_path, "s.json", {"q": 5, "genus": 0, "d": 2, "f": "t^2+t"})
    assert main(["verify", "--spec", spec, "--max-coeff", "40", "--format", "json"]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["series_vs_oracle"]["max_coeff"] == 10


def test_verify_genus1(tmp_path, capsys):
    spec = _write(tmp_path, "s.json", INERT)
    assert main(["verify", "--spec", spec, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert {c["name"] for c in payload["checks"]} == {"decomposition", "remainder_decay"}


def test_verify_identity_failure_exit_code(tmp_path, monkeypatch, capsys):
    spec = _write(tmp_path, "s.json", G0)

    def broken(s):
        # verify reads Z from the result, so only the identity itself fails
        assembled = assemble_zeta(s).combined
        return DecompositionResult(ok=False, assembled=assembled, difference=assembled)

    monkeypatch.setattr(cli, "decomposition_check", broken)
    assert main(["verify", "--spec", spec, "--max-coeff", "6", "--format", "json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is False
    assert {c["name"]: c["pass"] for c in payload["checks"]} == {
        "series_vs_oracle": True, "decomposition": False, "remainder_decay": True}


def test_verify_assembles_the_zeta_function_once(tmp_path, monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return assemble_zeta(spec)

    monkeypatch.setattr(zeta, "assemble_zeta", counted)
    monkeypatch.setattr(cli, "assemble_zeta", counted)
    for payload in (G0, INERT, SPLIT_CURVE):
        calls.clear()
        assert main(["verify", "--spec", _write(tmp_path, "s.json", payload), "--max-coeff", "8"]) == 0
        assert len(calls) == 1


def test_verify_names_the_first_failing_coefficient(tmp_path, monkeypatch, capsys):
    spec = _write(tmp_path, "s.json", G0)

    def failing(report, m_max):
        return RemainderCheck(
            ok=False,
            differences_match_remainder=False,
            max_abs_difference=Fraction(1),
            first_failure=17,
        )

    def miscounted(phi, m_max, override=False):
        table = count_canonical_heights(phi, m_max, override=override)
        return replace(table, counts={**table.counts, 4: table.counts.get(4, 0) + 1})

    # cli imports these at call time, from their own modules
    monkeypatch.setattr(asymptotics, "remainder_check", failing)
    assert main(["verify", "--spec", spec, "--max-coeff", "6", "--format", "json"]) == 3
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["remainder_decay"]["pass"] is False
    assert checks["remainder_decay"]["first_failure"] == 17
    assert checks["series_vs_oracle"]["first_mismatch"] is None

    monkeypatch.setattr(oracle, "count_canonical_heights", miscounted)
    assert main(["verify", "--spec", spec, "--max-coeff", "6"]) == 3
    out = capsys.readouterr().out
    assert "  FAIL  series_vs_oracle  (first failing m = 4)\n" in out
    assert "  PASS  decomposition\n" in out
    assert "  FAIL  remainder_decay  (first failing m = 17)\n" in out
    assert out.endswith("verification FAILED\n")


M_ANCHOR = {
    "q": 5,
    "genus": 0,
    "d": 3,
    "bad_places": [{"f_v": 1, "vf": 1}, {"f_v": 1, "vf": 2}, {"f_v": 2, "vf": 1}],
}


L_ANCHOR = {
    "q": 7,
    "genus": 1,
    "d": 5,
    "frobenius_trace": 2,
    "bad_places": [
        {"f_v": 1, "vf": 1}, {"f_v": 2, "vf": 3}, {"f_v": 3, "vf": 2}, {"f_v": 1, "vf": 4},
    ],
}


def test_cli_start_up_loads_neither_sympy_nor_numpy(tmp_path):
    code = (
        "import sys\n"
        "import heightzeta.cli as cli\n"
        "names = ('sympy', 'numpy')\n"
        "loaded = [name in sys.modules for name in names]\n"
        "for argv in (['poles'], ['asymptote', '--all-up-to', '12'], ['verify']):\n"
        "    assert cli.main(argv + ['--spec', sys.argv[1], '--format', 'json']) == 0\n"
        "print(loaded, [name in sys.modules for name in names])\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", code, _write(tmp_path, "m.json", M_ANCHOR)],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert run.stdout.splitlines()[-1] == "[False, False] [False, False]"


# Submodules on each command's path; every other one must stay unloaded.
ON_EVERY_PATH = ["cli", "gf", "places", "qfuncs", "zeta"]
RUN_CLI = "from heightzeta.cli import main\nmain(sys.argv[1:])"


@pytest.mark.parametrize(
    "action, argv, spec, loaded",
    [
        ("import heightzeta", [], None, []),
        ("import heightzeta\nheightzeta.qpoly_factor(heightzeta.QPoly((-2, 0, 1)))", [], None,
         ["gf", "qfuncs"]),
        ("import heightzeta\nheightzeta.oracle", [], None, ["gf", "oracle", "places"]),
        (RUN_CLI, ["zeta"], G0, ON_EVERY_PATH),
        (RUN_CLI, ["zeta"], {"q": 6, "genus": 0, "d": 2, "f": "t"}, ON_EVERY_PATH),
        (RUN_CLI, ["poles"], M_ANCHOR, ["asymptotics", *ON_EVERY_PATH]),
        (RUN_CLI, ["asymptote", "--all-up-to", "4"], INERT, ["asymptotics", *ON_EVERY_PATH]),
        (RUN_CLI, ["curve", "--q", "5", "--h", "t^3+1", "--f", "t", "--d", "2"], None,
         ["cli", "curves", "gf", "places", "qfuncs", "zeta"]),
    ],
    ids=["import", "qpoly_factor", "submodule", "zeta", "zeta-malformed", "poles",
         "asymptote-genus1", "curve"],
)
def test_start_up_loads_only_the_modules_on_the_path(tmp_path, action, argv, spec, loaded):
    code = (
        "import sys\n"
        f"{action}\n"
        "print(sorted(m.split('.')[1] for m in sys.modules if m.startswith('heightzeta.')))\n"
    )
    if spec is not None:
        argv = [*argv, "--spec", _write(tmp_path, "s.json", spec)]
    src = str(Path(cli.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-c", code, *argv], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert run.stdout.splitlines()[-1] == str(loaded)


@pytest.mark.parametrize(
    "action, argv, spec",
    [
        ("import heightzeta.qfuncs", [], None),
        ("import heightzeta.cli", [], None),
        (RUN_CLI, ["zeta"], G0),
        (RUN_CLI, ["curve", "--q", "5", "--h", "t^3+1", "--f", "t", "--d", "2"], None),
    ],
    ids=["qfuncs", "cli", "zeta", "curve"],
)
def test_shared_path_loads_no_dataclasses(tmp_path, action, argv, spec):
    # dataclasses imports inspect, ast and dis: about 12 ms of every process's start-up
    code = f"import sys\n{action}\nprint('dataclasses' in sys.modules)\n"
    if spec is not None:
        argv = [*argv, "--spec", _write(tmp_path, "s.json", spec)]
    src = str(Path(cli.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-c", code, *argv], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert run.stdout.splitlines()[-1] == "False"


def test_closed_output_pipe_exits_141_quietly(tmp_path):
    # the reader takes one line and closes the pipe, as `| head -1` does
    src = str(Path(cli.__file__).resolve().parent.parent)
    argv = ["asymptote", "--spec", _write(tmp_path, "s.json", INERT), "--all-up-to", "3000",
            "--format", "json"]
    proc = subprocess.Popen([sys.executable, "-m", "heightzeta.cli", *argv],
                            env={**os.environ, "PYTHONPATH": src},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_poles_share_the_exact_modulus_real_part(tmp_path, capsys):
    assert main(["poles", "--spec", _write(tmp_path, "l.json", L_ANCHOR), "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    # 49w^5 - 1 has the real root 49^(-1/5): its pole stays on the Im = 0 branch
    assert records[0]["min_poly"] == [-1, 0, 0, 0, 0, 49]
    assert records[0]["poles"][0] == [2.0, 0.0]
    for rec in records:
        assert len({re for re, _ in rec["poles"]}) == 1
        if rec["modulus"] == 1.0:
            assert all(re == 0.0 for re, _ in rec["poles"])


def test_curve_command(tmp_path, capsys):
    assert main(["curve", "--q", "5", "--h", "t^3+3", "--f", "t", "--d", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "q": 5,
        "genus": 1,
        "d": 2,
        "frobenius_trace": 0,
        "bad_places": [{"f_v": 2, "vf": 1}],
        "h": "t^3+3",
    }
    spec = load_spec(payload)
    assert spec.frobenius_trace == 0
    # the emitted spec feeds the other commands
    path = _write(tmp_path, "curve.json", payload)
    capsys.readouterr()
    assert main(["zeta", "--spec", path]) == 0


def test_input_error_exit_codes(tmp_path, capsys):
    bad_f = _write(tmp_path, "badf.json", {"q": 5, "genus": 0, "d": 2, "f": "t^^3"})
    assert main(["zeta", "--spec", bad_f]) == 2
    bad_hasse = _write(
        tmp_path,
        "hasse.json",
        {"q": 5, "genus": 1, "d": 2, "frobenius_trace": 6, "bad_places": [{"f_v": 1, "vf": 1}]},
    )
    assert main(["zeta", "--spec", bad_hasse]) == 2
    # within the Hasse bound, but over F_8 a trace is odd, 0 or +-4 (Waterhouse)
    no_curve = _write(tmp_path, "f8.json", {
        "q": 8, "genus": 1, "d": 2, "frobenius_trace": 2,
        "bad_places": [{"f_v": 1, "vf": 1}], "base_modulus": "t^3+t+1"})
    assert main(["verify", "--spec", no_curve]) == 2
    both = _write(
        tmp_path,
        "both.json",
        {"q": 5, "genus": 0, "d": 2, "f": "t", "bad_places": [{"f_v": 1, "vf": 1}]},
    )
    assert main(["zeta", "--spec", both]) == 2
    assert main(["zeta", "--spec", str(tmp_path / "missing.json")]) == 2
    assert main(["curve", "--q", "5", "--h", "t^3+t", "--f", "t", "--d", "2"]) == 2
    assert main(["curve", "--q", "5", "--h", "t^3+3", "--f", "t^200+t+1", "--d", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text", ["1_1t", "\u0663t", "t^1_0"])
def test_polynomial_with_non_ascii_digits_or_underscores_exits_2(tmp_path, capsys, text):
    assert main(["zeta", "--spec", _write(tmp_path, "s.json", {**G0, "f": text})]) == 2
    assert main(["curve", "--q", "5", "--h", "t^3+1", "--f", text, "--d", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count(f"malformed polynomial {text!r}") == 2


def test_extension_field_spec_requires_modulus(tmp_path, capsys):
    payload = {"q": 9, "genus": 0, "d": 2, "f": "t"}
    assert main(["zeta", "--spec", _write(tmp_path, "f9.json", payload)]) == 2
    payload["base_modulus"] = "t^2+1"
    assert main(["zeta", "--spec", _write(tmp_path, "f9m.json", payload), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    # f = t over F_9: the telescoped closed form 9w(1-w)/(1-9w)
    assert out["combined"] == {"num": [0, 9, -9], "den": [1, -9]}


def test_verify_quadratic_bad_place(tmp_path, capsys):
    payload = {"q": 3, "genus": 0, "d": 2, "f": "t^2+1"}
    spec = _write(tmp_path, "q3.json", payload)
    assert main(["verify", "--spec", spec, "--max-coeff", "8", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_abstract_genus0_spec_verifies(tmp_path, capsys):
    payload = {"q": 3, "genus": 0, "d": 2, "bad_places": [{"f_v": 1, "vf": 1}, {"f_v": 2, "vf": 1}]}
    spec_path = _write(tmp_path, "abstract.json", payload)
    assert main(["verify", "--spec", spec_path, "--max-coeff", "8", "--format", "json"]) == 0
    payload_out = json.loads(capsys.readouterr().out)
    assert payload_out["pass"] is True
    assert "series_vs_oracle" in {c["name"] for c in payload_out["checks"]}


@pytest.mark.parametrize(
    "payload",
    [
        {**G0, "d": "2"},
        {**G0, "q": 5.0},
        {**G0, "d": 2.0},
        {**G0, "f": 7},
        {**G0, "genus": False},
        {**SPLIT_CURVE, "genus": 2},
        {**INERT, "bad_places": 3},
        {**INERT, "frobenius_trace": "0"},
        {**INERT, "bad_places": [{"f_v": 1.5, "vf": 1}]},
        {**INERT, "bad_places": [{"f_v": True, "vf": 1}]},
    ],
)
def test_wrongly_typed_spec_fields_exit_2(tmp_path, capsys, payload):
    assert main(["zeta", "--spec", _write(tmp_path, "s.json", payload)]) == 2
    assert capsys.readouterr().err.startswith("error:")


F9_SPEC = {"q": 9, "genus": 0, "d": 2, "f": "t", "base_modulus": "t^2+1"}


@pytest.mark.parametrize(
    "payload",
    [
        {**G0, "f": "t^200+t+1"},
        {**G0, "f": "t^99999999"},
        {**SPLIT_CURVE, "h": "t^200+1"},
        {**F9_SPEC, "base_modulus": "t^200+1"},
    ],
)
def test_spec_degree_above_limit_exits_2_at_once(tmp_path, capsys, payload):
    start = time.perf_counter()
    assert main(["zeta", "--spec", _write(tmp_path, "s.json", payload)]) == 2
    assert time.perf_counter() - start < 2
    assert f"t^{MAX_TEXT_DEGREE}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, limit",
    [
        ({"q": 5, "genus": 0, "d": 2, "bad_places": [{"f_v": 10**30, "vf": 1}]}, MAX_TEXT_DEGREE),
        ({"q": 5, "genus": 0, "d": 2, "bad_places": [{"f_v": MAX_TEXT_DEGREE + 1, "vf": 1}]},
         MAX_TEXT_DEGREE),
        ({**INERT, "bad_places": [{"f_v": 100000, "vf": 1}]}, 2 * MAX_TEXT_DEGREE),
        ({**INERT, "bad_places": [{"f_v": 2 * MAX_TEXT_DEGREE + 1, "vf": 1}]}, 2 * MAX_TEXT_DEGREE),
    ],
    ids=["genus0-huge", "genus0-above", "genus1-huge", "genus1-above"],
)
def test_residue_degree_above_limit_exits_2_at_once(tmp_path, capsys, payload, limit):
    start = time.perf_counter()
    assert main(["zeta", "--spec", _write(tmp_path, "s.json", payload)]) == 2
    assert time.perf_counter() - start < 2
    assert f"exceeds the supported maximum {limit}" in capsys.readouterr().err


def test_residue_degree_at_limit_loads():
    # an inert place above an irreducible f of the largest text degree
    spec = load_spec({**INERT, "bad_places": [{"f_v": 2 * MAX_TEXT_DEGREE, "vf": 1}]})
    assert spec.bad_places[0].f_v == 2 * MAX_TEXT_DEGREE
    spec = load_spec({"q": 5, "genus": 0, "d": 2, "bad_places": [{"f_v": MAX_TEXT_DEGREE, "vf": 1}]})
    assert spec.bad_places[0].f_v == MAX_TEXT_DEGREE


def test_huge_q_exits_2_at_once(tmp_path, capsys):
    q = 1000000000000000003  # prime; trial division up to sqrt(q) would not finish
    payload = {"q": q, "genus": 0, "d": 2, "bad_places": [{"f_v": 1, "vf": 1}]}
    start = time.perf_counter()
    assert main(["zeta", "--spec", _write(tmp_path, "s.json", payload)]) == 2
    assert main(["curve", "--q", str(q), "--h", "t^3+t", "--f", "t", "--d", "2"]) == 2
    assert time.perf_counter() - start < 2
    assert "2^20" in capsys.readouterr().err


def test_extension_field_of_order_4096_runs(tmp_path, capsys):
    payload = {"q": 4096, "genus": 0, "d": 3, "f": "t^3+t+1", "base_modulus": "t^12+t^3+1"}
    spec = _write(tmp_path, "s.json", payload)
    start = time.perf_counter()
    assert main(["zeta", "--spec", spec]) == 0
    assert main(["verify", "--spec", spec]) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out.endswith("all checks passed\n")


def test_extension_field_above_2_16_exits_2_at_once(tmp_path, capsys):
    payload = {"q": 2**17, "genus": 0, "d": 3, "f": "t^3+t+1", "base_modulus": "t^17+t^3+1"}
    start = time.perf_counter()
    assert main(["zeta", "--spec", _write(tmp_path, "s.json", payload)]) == 2
    assert time.perf_counter() - start < 1
    assert "2^16" in capsys.readouterr().err


def test_extension_field_size_is_checked_before_the_modulus(tmp_path, capsys):
    payload = {"q": 2**17, "genus": 0, "d": 3, "f": "t^3+t+1"}
    assert main(["zeta", "--spec", _write(tmp_path, "s.json", payload)]) == 2
    err = capsys.readouterr().err
    assert "2^16" in err and "base_modulus" not in err


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"q": 2, "genus": 0, "d": 2, "bad_places": [{"f_v": 1, "vf": 1}] * 3},
         "3 bad places of degree 1, but F_2(t) has only 2 finite places of degree 1"),
        ({"q": 2, "genus": 1, "d": 2, "frobenius_trace": 0, "bad_places": [{"f_v": 1, "vf": 1}] * 4},
         "4 bad places of degree 1, but the genus-1 field over F_2 with trace 0 has only 3 places"),
        ({"q": 7, "genus": 0, "d": 64, "bad_places": [{"f_v": 1, "vf": 1}] * 64},
         "64 bad places of degree 1, but F_7(t) has only 7 finite places of degree 1"),
    ],
    ids=["g0-q2", "g1-q2", "g0-q7-64"],
)
def test_bad_places_that_no_field_has_exit_2_at_once(tmp_path, capsys, payload, message):
    spec = _write(tmp_path, "s.json", payload)
    for command in ("zeta", "verify"):
        start = time.perf_counter()
        assert main([command, "--spec", spec]) == 2
        assert time.perf_counter() - start < 1
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("payload", [{**G0, "d": 100000}, {**INERT, "d": 129}], ids=["g0", "g1"])
def test_map_degree_above_the_cap_exits_2_at_once(tmp_path, capsys, payload):
    spec = _write(tmp_path, "s.json", payload)
    start = time.perf_counter()
    assert main(["zeta", "--spec", spec]) == 2
    assert main(["verify", "--spec", spec]) == 2
    assert main(["curve", "--q", "5", "--h", "t^3+1", "--f", "t", "--d", str(payload["d"])]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.count(f"exceeds the supported maximum {zeta.MAX_MAP_DEGREE}") == 3


def test_map_degree_at_the_cap_runs(tmp_path, capsys):
    assert zeta.MAX_MAP_DEGREE == 128
    assert main(["zeta", "--spec", _write(tmp_path, "s.json", {**G0, "d": 128}), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["combined"]["den"] == [1] + [0] * 127 + [-25]


@pytest.mark.parametrize(
    "payload",
    [{"q": 5, "genus": 0, "d": 2, "bad_places": [{"f_v": 1, "vf": 1}], "frobenius_trace": 99},
     {**G0, "frobenius_trace": 0}],
    ids=["bad_places", "f"],
)
def test_genus0_spec_with_a_frobenius_trace_exits_2(tmp_path, capsys, payload):
    spec = _write(tmp_path, "s.json", payload)
    for command in ("zeta", "verify"):
        assert main([command, "--spec", spec]) == 2
        assert "frobenius_trace applies to genus 1 only" in capsys.readouterr().err
    spec = load_spec(G0)
    with pytest.raises(ValueError, match="genus 1 only"):
        ProblemSpec(q=spec.q, genus=spec.genus, d=spec.d, bad_places=spec.bad_places,
                    frobenius_trace=0, field=spec.field, f=spec.f, curve=spec.curve)


@pytest.mark.parametrize(
    "payload, message",
    [({**G0, "h": "t^3+3"}, "h applies to genus 1 only"),
     ({"q": 5, "genus": 0, "d": 2, "bad_places": [{"f_v": 1, "vf": 1}], "h": "t^3+3"},
      "h applies to genus 1 only"),
     ({**INERT, "h": "t^3+t"}, "declared frobenius_trace 0 contradicts the curve (computed 2)"),
     ({**INERT, "h": "t^3"}, "singular cubic"),
     ({**G0, "base_modulus": "t^2+2"}, "base_modulus applies to prime-power q only"),
     ({**SPLIT_CURVE, "base_modulus": "t^2+2"}, "base_modulus applies to prime-power q only"),
     ({**G0, "unknown": 1}, "unknown key 'unknown' in the spec"),
     ({**INERT, "bad_places": [{"f_v": 2, "vf": 1, "extra": 1}]},
      "unknown key 'extra' in bad_places entry")],
    ids=["h-genus0-f", "h-genus0-bad_places", "h-wrong-trace", "h-singular", "modulus-genus0",
         "modulus-genus1", "unknown-key", "unknown-bad-place-key"],
)
def test_spec_key_the_kind_does_not_read_exits_2(tmp_path, capsys, payload, message):
    spec = _write(tmp_path, "s.json", payload)
    for command in ("zeta", "verify"):
        assert main([command, "--spec", spec]) == 2
        assert message in capsys.readouterr().err


def test_spec_degree_at_limit_runs(tmp_path, capsys):
    payload = {**G0, "f": f"t^{MAX_TEXT_DEGREE}+t+1"}
    assert main(["zeta", "--spec", _write(tmp_path, "s.json", payload)]) == 0


def _field_paths(payload):
    paths = [(key,) for key in payload]
    for i, entry in enumerate(payload.get("bad_places", [])):
        paths += [("bad_places", i, key) for key in entry]
    return paths


# Integers and strings stay small: a large q, d or exponent makes a valid but
# slow spec, which is not what this test is about.
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("specs")


@settings(max_examples=200, deadline=None)
@given(
    target=st.sampled_from(
        [(spec, path) for spec in (G0, INERT, SPLIT_CURVE, F9_SPEC) for path in _field_paths(spec)]
    ),
    value=JSON_SCALARS,
)
def test_any_scalar_in_any_field_runs_or_exits_2(spec_dir, target, value):
    spec, path = target
    payload = json.loads(json.dumps(spec))
    holder = payload
    for step in path[:-1]:
        holder = holder[step]
    holder[path[-1]] = value
    assert main(["zeta", "--spec", _write(spec_dir, "s.json", payload)]) in (0, 2)

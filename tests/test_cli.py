import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heightzeta.cli as cli
from heightzeta.cli import load_spec, main, spec_to_json
from heightzeta.gf import MAX_TEXT_DEGREE
from heightzeta.qfuncs import NumberFieldElem, QPoly, QRatFunc
from heightzeta.zeta import DecompositionResult, assemble_zeta


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


def test_verify_genus1(tmp_path, capsys):
    spec = _write(tmp_path, "s.json", INERT)
    assert main(["verify", "--spec", spec, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert {c["name"] for c in payload["checks"]} == {"decomposition", "remainder_decay"}


def test_verify_identity_failure_exit_code(tmp_path, monkeypatch, capsys):
    spec = _write(tmp_path, "s.json", G0)
    zero = QRatFunc.zero()

    def broken(s):
        return DecompositionResult(ok=False, assembled=zero, partial_sum=zero, difference=zero)

    monkeypatch.setattr(cli, "decomposition_check", broken)
    assert main(["verify", "--spec", spec, "--max-coeff", "6", "--format", "json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is False


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

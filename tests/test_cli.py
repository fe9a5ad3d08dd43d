"""Command-line interface: suites, tables, veronese, kernel, derivations."""

import json

import pytest

from okubic import cli
from okubic.albert import AlbertAlgebra, AlbertElement
from okubic.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    SUITE_NAMES,
    jordan_witness,
    main,
)
from okubic.okubo import OkuboElement, sample_okubo


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "nonsense", "--seed", "1"])
    assert exc.value.code == 2


def test_seed_is_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "composition"])
    assert exc.value.code == 2


def test_composition_suite_passes(capsys):
    code, out = run(capsys, "check", "composition", "--samples", "25", "--seed", "7")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["suite"] == "composition"
    assert report["failures"] == []


def test_division_split_reports_witness(capsys):
    code, out = run(
        capsys, "check", "division", "--flavor", "split", "--samples", "20",
        "--seed", "7",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["failures"] == []
    # i1 + i6
    coeffs = report["witness"]["coeffs"]
    assert coeffs[1] == {"a": "1", "b": "0"}
    assert coeffs[6] == {"a": "1", "b": "0"}


def test_albert_suite_reports_jordan_status(capsys):
    code, out = run(
        capsys, "check", "albert", "--q", "1/2", "--samples", "10", "--seed", "3"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["failures"] == []
    assert report["jordan"]["defect_vanished_on_samples"] is True
    assert report["jordan"]["witness_defect_nonzero"] is False
    code, out = run(
        capsys, "check", "albert", "--q", "1", "--samples", "10", "--seed", "3"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["jordan"]["defect_vanished_on_samples"] is False
    assert report["jordan"]["witness_defect_nonzero"] is True


def test_suite_names_order_is_pinned():
    # `check all` reports the suites in this order, and benchmark rounds run
    # them in it; it comes from the insertion order of SUITE_FUNCS.
    assert SUITE_NAMES == (
        "composition",
        "flexibility",
        "division",
        "octonion",
        "trivolution",
        "michel-radicati",
        "hurwitz",
        "albert",
        "veronese",
        "automorphism",
    )


def test_invariant_failure_exits_one_and_reports_the_inputs(capsys, monkeypatch):
    # x*y = x breaks n(x*y) = n(x)n(y), so every composition sample fails
    monkeypatch.setattr(cli, "okubo_mul", lambda x, y: x)
    code, out = run(capsys, "check", "composition", "--seed", "3", "--samples", "4")
    assert code == EXIT_FAILURE
    failures = json.loads(out)["failures"]
    assert len(failures) == 8
    for entry in failures:
        assert set(entry) == {"check", "flavor", "index", "x", "y"}
        rng = cli._rng_for(3, f"composition:{entry['flavor']}:{entry['index']}")
        x, y = sample_okubo(rng, entry["flavor"]), sample_okubo(rng, entry["flavor"])
        assert OkuboElement.from_json(entry["x"]) == x
        assert OkuboElement.from_json(entry["y"]) == y
    code, out = run(capsys, "check", "all", "--seed", "3", "--samples", "4")
    assert code == EXIT_FAILURE
    report = json.loads(out)
    assert report["failures_total"] == sum(len(s["failures"]) for s in report["suites"])
    assert report["failures_total"] >= 8


def test_reports_are_deterministic(capsys):
    _, first = run(capsys, "check", "trivolution", "--samples", "15", "--seed", "11")
    _, second = run(capsys, "check", "trivolution", "--samples", "15", "--seed", "11")
    assert first == second


def test_table_okubo_pinned_rows(capsys):
    code, out = run(capsys, "table", "okubo")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,k,value_a,value_b"
    assert len(lines) == 1 + 8 * 8 * 8
    assert lines[1] == "0,0,0,1,0"  # e*e = e
    assert "1,2,3,0,-1/3" in lines  # i1*i2 = -(sqrt3/3) i3


def test_table_split_octonion_has_64_rows(capsys):
    code, out = run(capsys, "table", "split-octonion")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,k,value"
    assert len(lines) == 65
    assert "2,3,7,1" in lines  # u1·u2 = v3
    assert "0,1,,0" in lines  # e1·e2 = 0


def test_table_json_tensor(capsys):
    code, out = run(capsys, "table", "petersson", "--format", "json")
    assert code == EXIT_OK
    tensor = json.loads(out)["tensor"]
    assert len(tensor) == 8 and len(tensor[0][0]) == 8


def test_veronese_embed_origin(capsys):
    code, out = run(capsys, "veronese", "embed", '{"x":0,"y":0}')
    assert code == EXIT_OK
    result = json.loads(out)
    assert result["patch"] == "affine"
    assert result["idempotent"]["lambda"][2] == {"a": "1", "b": "0"}
    assert result["idempotent"]["lambda"][0] == {"a": "0", "b": "0"}


def test_veronese_decode_scalar_idempotent_is_infinity(capsys):
    e0 = AlbertElement.scalar_idempotent(0)
    code, out = run(capsys, "veronese", "decode", json.dumps(e0.to_json()))
    assert code == EXIT_OK
    assert json.loads(out)["point"] == "infinity"


def test_veronese_decode_rejects_unit(capsys):
    unit = AlbertElement.unit()
    code, _ = run(capsys, "veronese", "decode", json.dumps(unit.to_json()))
    assert code == EXIT_VALIDATION


def test_veronese_embed_decode_roundtrip(capsys):
    payload = '{"x": "1/2", "y": "-3"}'
    code, out = run(capsys, "veronese", "embed", payload)
    assert code == EXIT_OK
    eps = json.loads(out)["idempotent"]
    code, out = run(capsys, "veronese", "decode", json.dumps(eps))
    assert code == EXIT_OK
    point = json.loads(out)["point"]
    assert point["x"]["coeffs"][0] == {"a": "1/2", "b": "0"}
    assert point["y"]["coeffs"][0] == {"a": "-3", "b": "0"}


def test_kernel_pinned_dimensions(capsys):
    code, out = run(capsys, "kernel", "e0", "--q", "1/2")
    assert code == EXIT_OK
    assert json.loads(out) == {"kernel_dim": 10, "image_dim": 17}
    code, out = run(capsys, "kernel", "unit", "--q", "1/2")
    assert code == EXIT_OK
    assert json.loads(out) == {"kernel_dim": 0, "image_dim": 27}


def test_kernel_rejects_garbage(capsys):
    code, _ = run(capsys, "kernel", "{bad json")
    assert code == EXIT_VALIDATION


def _unit_payload_with_zero_denominator():
    obj = AlbertElement.unit().to_json()
    obj["lambda"][0]["a"] = "1/0"
    return json.dumps(obj)


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "albert", "--seed", "1", "--samples", "1", "--q", "1/0"),
        ("kernel", "e0", "--q", "1/0"),
        ("kernel", _unit_payload_with_zero_denominator()),
        ("veronese", "embed", '{"x": "1/0", "y": 0}'),
        ("veronese", "decode", _unit_payload_with_zero_denominator()),
    ],
    ids=["check-q", "kernel-q", "kernel-json", "embed-json", "decode-json"],
)
def test_zero_denominator_in_input_is_a_validation_error(capsys, argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, same_as",
    [
        (
            ("veronese", "embed", '{"x": [1,0,0,0,0,0,0,0], "y": 0}'),
            ("veronese", "embed", '{"x": 1, "y": 0}'),
        ),
        (
            ("veronese", "embed", '{"slope": [0,1,0,0,0,0,0,0]}'),
            ("veronese", "embed",
             json.dumps({"slope": OkuboElement.basis(1).to_json()})),
        ),
        (
            ("kernel", '{"x": [0,0,0], "lambda": ["1","0","0"]}'),
            ("kernel", "e0"),
        ),
    ],
    ids=["embed-x-list", "embed-slope-list", "kernel-bare"],
)
def test_readme_payload_forms_are_accepted(capsys, argv, same_as):
    code, out = run(capsys, *argv)
    assert code == EXIT_OK
    assert out == run(capsys, *same_as)[1]


_ZERO = OkuboElement.zero().to_json()
_ONE = {"a": "1", "b": "0"}


@pytest.mark.parametrize(
    "argv",
    [
        ("kernel", "[1,2]"),
        ("kernel", "5"),
        ("veronese", "decode", "5"),
        ("veronese", "embed", '{"x": 0}'),
        ("kernel", json.dumps({"x": [_ZERO] * 2, "lambda": [_ONE] * 4})),
        ("kernel", json.dumps({"x": [_ZERO] * 3,
                               "lambda": [{"a": float("inf"), "b": "0"}, _ONE, _ONE]})),
    ],
    ids=["kernel-list", "kernel-int", "decode-int", "embed-no-y",
         "kernel-slot-count", "kernel-infinite"],
)
def test_malformed_payload_is_a_validation_error(capsys, argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [("table", "okubo"), ("check", "composition", "--seed", "1", "--samples", "1")],
    ids=["table", "check"],
)
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv):
    code = main([*argv, "--out", str(tmp_path / "missing" / "out.txt")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert len(err.splitlines()) == 1


def test_unwritable_out_fails_before_any_suite_runs(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_suite", lambda *args: calls.append(args))
    out = tmp_path / "missing" / "x.json"
    code = main(["check", "all", "--seed", "1", "--samples", "1", "--out", str(out)])
    assert code == EXIT_USAGE
    assert calls == []


def test_json_number_in_a_payload_is_a_decimal(capsys):
    # λ = (t, -1/10, 0): slot 2 of L_λ vanishes, giving a 9-dimensional
    # kernel, only when t is exactly 1/10
    def payload(t):
        return json.dumps({"x": [0, 0, 0], "lambda": [t, "-1/10", "0"]})

    code, out = run(capsys, "kernel", payload({"a": 0.1, "b": 0}))
    assert code == EXIT_OK
    assert out == run(capsys, "kernel", payload("1/10"))[1]
    assert json.loads(out) == {"kernel_dim": 9, "image_dim": 18}


def test_veronese_decode_validates_once(capsys, monkeypatch):
    code, out = run(capsys, "veronese", "embed", '{"x": "1/2", "y": "-3"}')
    eps = json.dumps(json.loads(out)["idempotent"])
    calls = []
    mul = AlbertAlgebra.mul
    monkeypatch.setattr(
        AlbertAlgebra, "mul", lambda self, a, b: calls.append(1) or mul(self, a, b)
    )
    code, _ = run(capsys, "veronese", "decode", eps)
    assert code == EXIT_OK
    assert len(calls) == 1  # the idempotency check, and nothing twice


@pytest.mark.parametrize("flag", ["--samples"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_counts_below_one_are_usage_errors(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["check", "composition", "--seed", "1", flag, value])
    assert exc.value.code == 2


def test_jobs_is_an_unknown_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "composition", "--seed", "1", "--jobs", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 4" in capsys.readouterr().err


def test_derivations_okubo_report(capsys):
    code, out = run(capsys, "derivations", "okubo")
    assert code == EXIT_OK
    assert json.loads(out) == {
        "dimension": 8,
        "lie_closed": True,
        "killing_signature": {"pos": 0, "neg": 8, "zero": 0},
    }


def test_jordan_witness_is_frozen():
    a, b = jordan_witness()
    from okubic.albert import ALBERT_HALF, AlbertAlgebra, jordan_defect

    assert jordan_defect(AlbertAlgebra(1), a, b)
    assert not jordan_defect(ALBERT_HALF, a, b)

"""Command-line interface: suites, tables, veronese, kernel, derivations."""

import ast
import hashlib
import json
from pathlib import Path

import pytest

from okubic import albert, cli, geometry, okubo
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
from okubic.field import C3, F3
from okubic.geometry import AffinePoint, SlopePoint
from okubic.linalg import COMPACT, SPLIT, SparseTable
from okubic.okubo import OkuboElement, sample_okubo


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# sha256 of the whole stdout of these commands; a change that is meant to
# keep every report byte-identical must keep these digests
STDOUT_SHA256 = {
    ("check", "all", "--seed", "42", "--samples", "10"):
        "b029212842e566c367a00b9a30383c2fbde8fb76ac27c4aa06f1298f44365131",
    # the one pin that prints the flavor key, and the albert suite away from q = 1/2
    ("check", "all", "--seed", "42", "--samples", "10", "--flavor", "split", "--q", "1"):
        "472977acb5d282e5e699ab33827e29157d76c7590ba0b665f1d0157473e9bded",
    # the single-flavor loops, and division without its split witness
    ("check", "all", "--seed", "7", "--samples", "5", "--flavor", "compact"):
        "0373820058c09a018c3511ad504fc8a4042073a5c3ea567d4787bc9ef5e39d75",
    # one sample: the max(samples // 5, 1) and max(samples // 2, 1) sample counts
    ("check", "all", "--seed", "11", "--samples", "1"):
        "6e5ff9e8858c26808dccd3d4d702c724e51cfa79c165fc05c31db570bc8e3f5a",
    ("table", "okubo"): "ce0b663c22bc4a95ab9dda1d05d88a8c6329e1ae384b726497bf93544cf6adf0",
    # every other table form: the Okubo tensors as a + b√3, the rational ones as p/q
    ("table", "okubo", "--format", "json"):
        "ae5125648c9165fae9fbd5976b15e0b815d939e90178588b151f64dbfeef8fab",
    ("table", "split-okubo"):
        "675fc0b97aad766eaeef38a46faffb6299fc74b0f158bebd51aef0b7e9c679b9",
    ("table", "split-okubo", "--format", "json"):
        "37a5294022d92ba7b921d6e026d77489ea38a2fb1b393a4fcb7a68c068ccf84b",
    ("table", "split-octonion"):
        "bd26fa49aef02d9b07f351ffc701cdaae96f266b1de3c0259e5953fb13847c7b",
    ("table", "split-octonion", "--format", "json"):
        "4151ba9348063f32a4788a0329182b5f89748b81b1400a0b00d6f2a7d9d35495",
    ("table", "petersson"):
        "92e08022e8a949f8248102ea91afb57b0cbfc2d7229c5524f0aef2e269e33d7b",
    ("table", "petersson", "--format", "json"):
        "eefe8e72fed766342dbc7ba6cb76f83431fb3e9b5764406a44aed8987b838da0",
    ("kernel", "e0"): "64292318a583dd0d8bc7c639c5bed9407ce02472a7864d2a792bfb236eb5e136",
    # the derivation reports print the trace-form signature; split Okubo and
    # Petersson print the same report
    ("derivations", "okubo"):
        "94ee3379bfe00e87c4a30f8de0cf561251f51803481f6909d6844ea583c5d6e7",
    ("derivations", "split-okubo"):
        "c6b5f61ee14abd6002da2b459ff5a0ab0688be229741c588418f7a5058e11799",
    ("derivations", "petersson"):
        "c6b5f61ee14abd6002da2b459ff5a0ab0688be229741c588418f7a5058e11799",
}


@pytest.mark.parametrize("argv", STDOUT_SHA256, ids=" ".join)
def test_stdout_is_pinned_byte_for_byte(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]


def test_check_all_makes_no_c3_arithmetic(capsys, monkeypatch):
    # C3 is the public scalar type and the tests' oracle; the library itself runs
    # on integer parts, the Cayley inverse included
    ops = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__neg__", "conj", "inverse", "__truediv__", "__rtruediv__"):
        op = getattr(C3, name)
        monkeypatch.setattr(C3, name, lambda *a, op=op, name=name: ops.append(name) or op(*a))
    code, _ = run(capsys, "check", "all", "--seed", "42", "--samples", "10")
    assert code == EXIT_OK
    assert ops == []


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


def test_veronese_suite_round_trips_every_point_kind(capsys, monkeypatch):
    code, out = run(capsys, "check", "veronese", "--samples", "4", "--seed", "5")
    assert code == EXIT_OK
    assert json.loads(out)["failures"] == []
    # a decode that always lands on one slope point misses all three kinds
    monkeypatch.setattr(cli, "plane_decode", lambda q: SlopePoint(OkuboElement.zero()))
    code, out = run(capsys, "check", "veronese", "--samples", "4", "--seed", "5")
    assert code == EXIT_FAILURE
    failures = json.loads(out)["failures"]
    kinds = [f["kind"] for f in failures if f["check"] == "plane-roundtrip"]
    assert sorted(kinds) == ["affine"] * 4 + ["infinity"] + ["slope"] * 4


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


# One name of cli broken per row, which the suite's other checks all let through, and
# the check that catches it: (name, broken value, suite, check).
MUTANTS = {
    "tau_triality-identity": ("tau_triality", lambda x: x, "hurwitz",
                              "petersson-through-triality"),
    "cyclic_shift-identity": ("cyclic_shift", lambda a: a, "automorphism",
                              "cyclic-shift-moves-e0"),
    "traceful_mul-projection": ("traceful_mul", lambda x, y, theta: x, "michel-radicati",
                                "traceful-symmetrization"),
    "beta-constant": ("beta", lambda v, w: F3(1), "veronese", "beta-polarization"),
    "is_rank1-true": ("is_rank1", lambda algebra, a: True, "albert", "rank1-rejects-non-point"),
    "point_from_idempotent-constant": ("point_from_idempotent",
                                       lambda a: cli.plane_embed(cli.INFINITY), "albert",
                                       "rank1-decode"),
}


@pytest.mark.parametrize("name, broken, suite, check", MUTANTS.values(), ids=MUTANTS)
def test_each_suite_fails_on_its_mutant(capsys, monkeypatch, name, broken, suite, check):
    monkeypatch.setattr(cli, name, broken)
    code, out = run(capsys, "check", suite, "--seed", "3", "--samples", "5")
    assert code == EXIT_FAILURE
    assert check in {f["check"] for f in json.loads(out)["failures"]}


@pytest.fixture
def broken_okubo_constant(monkeypatch):
    """Both Okubo tables with the constants of cell (1, 2) doubled, where ``okubo_mul``
    and the builder of the 𝔸_q tables read them; the cached 𝔸_q tables and maps of the
    idempotent are emptied before and after, so that none built on a broken table
    outlives the test."""
    broken = {}
    for flavor in (COMPACT, SPLIT):
        cells = [list(row) for row in okubo.structure_constants(flavor).cells]
        cells[1][2] = tuple((k, c + c) for k, c in cells[1][2])
        broken[flavor] = SparseTable(cells)
    for module in (okubo, albert):
        monkeypatch.setattr(module, "structure_constants", broken.get)
    for cached in (albert._table, okubo._idempotent_maps):
        cached.cache_clear()
    yield
    for cached in (albert._table, okubo._idempotent_maps):
        cached.cache_clear()


@pytest.mark.parametrize("suite", ["veronese", "albert", "all"])
def test_a_suite_that_raises_on_a_broken_product_exits_one(capsys, broken_okubo_constant, suite):
    # a plane point built with the broken product is off the Veronese cone: each such
    # sample is one veronese-cone failure and its suite goes on (albert keeps its jordan
    # extras); the split zero divisor no longer annihilates, which the division suite
    # reports as a check of its own.  No suite raises.
    code, out = run(capsys, "check", suite, "--seed", "3", "--samples", "4")
    assert code == EXIT_FAILURE
    report = json.loads(out)
    reports = report["suites"] if suite == "all" else [report]
    by_name = {r["suite"]: r for r in reports}
    for r in reports:
        assert "raised" not in [f["check"] for f in r["failures"]], r["suite"]
    cone = {name: [{k: v for k, v in f.items() if k != "check"}
                   for f in r["failures"] if f["check"] == "veronese-cone"]
            for name, r in by_name.items()}
    if "veronese" in by_name:
        assert cone["veronese"] == ([{"kind": "affine", "index": i} for i in range(4)]
                                    + [{"index": i} for i in range(4)])
    if "albert" in by_name:
        assert cone["albert"] == [{"index": 0}]
        assert set(by_name["albert"]["jordan"]) == {
            "q", "defect_vanished_on_samples", "witness_defect_nonzero"}
    if suite == "all":
        assert [r["suite"] for r in reports] == list(SUITE_NAMES)
        division = reports[SUITE_NAMES.index("division")]["failures"]
        assert "zero-divisor-annihilation" in [f["check"] for f in division]
        assert report["failures_total"] == sum(len(r["failures"]) for r in reports) >= 1


@pytest.mark.parametrize("suite, cone", [
    ("veronese", [{"kind": "affine", "index": i} for i in range(5)]
     + [{"index": i} for i in range(5)]),
    ("albert", [{"index": 0}]),
], ids=["veronese", "albert"])
def test_a_broken_adjoint_constant_fails_the_cone_checks(capsys, monkeypatch, suite, cone):
    # the cone test reads only the adjoint table: with one cross-slot constant doubled (the
    # slot-0 output of x1*y2, Okubo cell (1, 2)), each affine point built by the correct
    # product leaves the cone and is its sample's veronese-cone failure
    cells = [list(row) for row in geometry.adjoint_table().cells]
    cells[9][18] = cells[18][9] = tuple((k, c + c) for k, c in cells[9][18])
    broken = SparseTable(cells)
    monkeypatch.setattr(geometry, "adjoint_table", lambda: broken)
    code, out = run(capsys, "check", suite, "--seed", "3", "--samples", "5")
    assert code == EXIT_FAILURE
    failures = json.loads(out)["failures"]
    assert [{k: v for k, v in f.items() if k != "check"}
            for f in failures if f["check"] == "veronese-cone"] == cone
    assert "raised" not in [f["check"] for f in failures]


def test_a_broken_adjoint_scalar_fails_the_line_points_in_their_own_samples(capsys, monkeypatch):
    # λ0·μ1 → scalar 2 doubled: slot 2 of the adjoint reads 2λ0λ1 - n(x2), so every line
    # point (0, 0, x; n(x), 1, 0) with x ≠ 0, each slope point and each affine point leave
    # the cone, and (∞) = (0, 0, 0; 1, 0, 0) stays on it
    cells = [list(row) for row in geometry.adjoint_table().cells]
    cells[24][25] = cells[25][24] = tuple((k, c + c) for k, c in cells[24][25])
    broken = SparseTable(cells)
    monkeypatch.setattr(geometry, "adjoint_table", lambda: broken)
    code, out = run(capsys, "check", "veronese", "--seed", "3", "--samples", "5")
    assert code == EXIT_FAILURE
    failures = json.loads(out)["failures"]
    assert failures == (
        [{"check": "veronese-cone", "kind": "slope", "index": i} for i in range(5)]
        + [{"check": "veronese-cone", "kind": kind, "index": i}
           for i in range(5) for kind in ("line", "affine")]
        + [{"check": "veronese-cone", "index": i} for i in range(5)])


def test_a_broken_product_keeps_every_division_failure_and_the_witness(capsys,
                                                                      broken_okubo_constant):
    code, out = run(capsys, "check", "division", "--seed", "3", "--samples", "4")
    assert code == EXIT_FAILURE
    report = json.loads(out)
    checks = [f["check"] for f in report["failures"]]
    assert checks == ["left-division"] * 4 + ["zero-divisor-annihilation"]
    assert "witness" in report


def test_a_suite_keeps_the_failures_it_yielded_before_it_raised(capsys, monkeypatch):
    def suite(samples, seed, flavor, q):
        yield {"check": "found-first", "index": 0}
        raise ValueError("then raised")

    monkeypatch.setitem(cli.SUITE_FUNCS, "composition", suite)
    code, out = run(capsys, "check", "composition", "--seed", "1", "--samples", "1")
    assert code == EXIT_FAILURE
    assert json.loads(out)["failures"] == [{"check": "found-first", "index": 0},
                                           {"check": "raised", "error": "then raised"}]


def test_run_suite_lets_an_internal_assertion_through(monkeypatch):
    # only the arithmetic errors of a suite's own samples are its failures
    def suite(samples, seed, flavor, q):
        yield from ()
        raise AssertionError("internal")

    monkeypatch.setitem(cli.SUITE_FUNCS, "composition", suite)
    with pytest.raises(AssertionError, match="internal"):
        cli.run_suite("composition", 1, 1, None, 0)


def _rng_for_calls(tree):
    """(enclosing function, tag) of each ``_rng_for`` call in a parsed module; the tag
    is the literal second argument, or None when it is computed."""
    calls = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "_rng_for"):
                    tag = node.args[1]
                    calls.append((fn.name, tag.value if isinstance(tag, ast.Constant) else None))
    return calls


def test_only_the_sampler_and_two_whole_suite_substreams_call_rng_for():
    # every per-sample input is drawn through cli._draws, so the substream rule
    # (seed, f"{tag}:{i}") is stated once
    sample = "def f(seed):\n    return _rng_for(seed, 'a:b'), _rng_for(seed, f'c:{seed}')"
    assert _rng_for_calls(ast.parse(sample)) == [("f", "a:b"), ("f", None)]
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    assert sorted(_rng_for_calls(tree)) == [("_draws", None),
                                           ("suite_automorphism", "automorphism:triples"),
                                           ("suite_division", "division:zero-divisor")]


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


_E8 = [1, 0, 0, 0, 0, 0, 0, 0]
_E0_JSON = AlbertElement.scalar_idempotent(0).to_json()


# Each README payload form, the form the CLI must treat the same way, and
# a builder of the value that the types' from_json read from the first form:
# the CLI must build exactly that value from both forms.
@pytest.mark.parametrize(
    "argv, same_as, read",
    [
        (
            ("veronese", "embed", '{"x": [1,0,0,0,0,0,0,0], "y": 0}'),
            ("veronese", "embed", '{"x": 1, "y": 0}'),
            lambda: AffinePoint(OkuboElement.from_json(_E8), OkuboElement.from_json(0)),
        ),
        (
            ("veronese", "embed", '{"slope": [0,1,0,0,0,0,0,0]}'),
            ("veronese", "embed",
             json.dumps({"slope": OkuboElement.basis(1).to_json()})),
            lambda: SlopePoint(OkuboElement.from_json([0, 1, 0, 0, 0, 0, 0, 0])),
        ),
        (
            ("kernel", '{"x": [0,0,0], "lambda": ["1","0","0"]}'),
            ("kernel", "e0"),
            lambda: AlbertElement.from_json({"x": [0, 0, 0], "lambda": ["1", "0", "0"]}),
        ),
        (
            ("veronese", "embed",
             json.dumps({"x": {"flavor": "compact", "coeffs": _E8}, "y": 0})),
            ("veronese", "embed", '{"x": 1, "y": 0}'),
            lambda: AffinePoint(OkuboElement.from_json({"flavor": "compact", "coeffs": _E8}),
                                OkuboElement.from_json(0)),
        ),
        (
            ("veronese", "embed",
             '{"x": "1/2", "y": [{"a": "-3", "b": "0"}, 0, 0, 0, 0, 0, 0, 0]}'),
            ("veronese", "embed", '{"x": "1/2", "y": "-3"}'),
            lambda: AffinePoint(OkuboElement.from_json("1/2"),
                                OkuboElement.basis(0).scale(F3.from_json({"a": "-3", "b": "0"}))),
        ),
        (
            ("kernel", json.dumps(_E0_JSON)),
            ("kernel", "e0"),
            lambda: AlbertElement.from_json(_E0_JSON),
        ),
        (
            ("kernel", json.dumps({"x": [0, [0] * 8, OkuboElement.zero().to_json()],
                                   "lambda": [{"a": "1", "b": "0"}, 0, "0"]})),
            ("kernel", "e0"),
            lambda: AlbertElement(*[OkuboElement.zero()] * 3, F3.from_json({"a": "1", "b": "0"}),
                                  F3.from_json(0), F3.from_json("0")),
        ),
    ],
    ids=["embed-x-list", "embed-slope-list", "kernel-bare", "embed-coeffs-rationals",
         "embed-coeff-objects", "kernel-to-json", "kernel-mixed-forms"],
)
def test_readme_payload_forms_are_accepted(capsys, monkeypatch, argv, same_as, read):
    built = []
    for name in ("plane_embed", "left_mult_operator"):
        f = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, f=f: built.append(args[-1]) or f(*args))
    code, out = run(capsys, *argv)
    assert code == EXIT_OK
    assert out == run(capsys, *same_as)[1]
    expected = read()
    assert built == [expected, expected]


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
        ("kernel", json.dumps({"x": [_ZERO] * 4, "lambda": [_ONE] * 3})),
        ("veronese", "decode", json.dumps({"x": [_ZERO] * 3, "lambda": [_ONE] * 2})),
        ("kernel", json.dumps({"x": [_ZERO] * 3,
                               "lambda": [{"a": float("inf"), "b": "0"}, _ONE, _ONE]})),
    ],
    ids=["kernel-list", "kernel-int", "decode-int", "embed-no-y",
         "kernel-slot-count", "kernel-four-slots", "decode-two-lambda", "kernel-infinite"],
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


@pytest.mark.parametrize(
    "argv",
    [("check", "composition", "--seed", "1", "--samples", "2"),
     ("table", "split-octonion"),
     ("veronese", "embed", '{"x": "1/2", "y": "-3"}'),
     ("kernel", "e0"),
     ("derivations", "petersson")],
    ids=lambda argv: argv[0],
)
def test_out_writes_the_bytes_stdout_gets(capsys, tmp_path, argv):
    code, out = run(capsys, *argv)
    path = tmp_path / "out.txt"
    assert main([*argv, "--out", str(path)]) == code == EXIT_OK
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode()


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


def _outcome(capsys, argv):
    """(exit code, stdout, stderr without the wall-time line) of one ``main`` call."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    err = [line for line in captured.err.splitlines() if not line.startswith("wall time:")]
    return code, captured.out, err


def test_one_parser_serves_every_call_of_main(capsys, monkeypatch):
    # a good command, a bad one (exit 2) and a good one that leaves --flavor at its
    # default: the parser built once reports exactly as a fresh parser per call
    argvs = [
        ("check", "composition", "--flavor", "split", "--seed", "3", "--samples", "2"),
        ("check", "composition", "--seed", "3", "--samples", "0"),
        ("check", "composition", "--seed", "3", "--samples", "2"),
        ("kernel", "e0"),
    ]
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    reused = [_outcome(capsys, argv) for argv in argvs]
    assert len(built) == 1
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [_outcome(capsys, argv) for argv in argvs]
    assert len(built) == 1 + len(argvs)
    assert [code for code, _, _ in reused] == [EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK]
    assert reused == fresh
    assert json.loads(reused[0][1])["flavor"] == "split"
    assert "flavor" not in json.loads(reused[2][1])


def test_cayley_maps_are_built_once_per_process(capsys, monkeypatch):
    # two automorphism suites in one process build the three fixed maps once, and
    # report exactly as a run whose maps are built afresh
    built, build = [], cli.conjugation_automorphism
    monkeypatch.setattr(cli, "conjugation_automorphism", lambda s: built.append(1) or build(s))
    cli._cayley_maps.cache_clear()
    argv = ("check", "automorphism", "--seed", "3", "--samples", "5")
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert len(built) == 3
    assert first == second and first[0] == EXIT_OK
    monkeypatch.setattr(cli, "_cayley_maps", cli._cayley_maps.__wrapped__)
    assert run(capsys, *argv) == first
    assert len(built) == 6


def test_idempotent_maps_are_built_once_per_process(capsys, monkeypatch):
    # two octonion and two trivolution suites in one process build the maps of each
    # flavor once (the rows of τ and x̄ for the compact flavor, of τ for the split one),
    # and report exactly as runs whose maps are built afresh
    built, write = [], okubo._rows_from_images
    monkeypatch.setattr(okubo, "_rows_from_images", lambda images: built.append(1) or write(images))
    okubo._idempotent_maps.cache_clear()
    argvs = [("check", suite, "--seed", "3", "--samples", "5")
             for suite in ("octonion", "trivolution", "octonion", "trivolution")]
    cached = [run(capsys, *argv) for argv in argvs]
    assert len(built) == 3
    assert okubo._idempotent_maps.cache_info().misses == 2
    assert okubo._idempotent_maps(SPLIT)[1:] == (None, None)  # τ only
    assert cached[:2] == cached[2:] and {code for code, _ in cached} == {EXIT_OK}
    monkeypatch.setattr(okubo, "_idempotent_maps", okubo._idempotent_maps.__wrapped__)
    assert [run(capsys, *argv) for argv in argvs] == cached
    assert len(built) > 3  # each call built its maps afresh


def test_cached_cayley_maps_are_the_fresh_maps():
    maps = cli._cayley_maps()
    assert cli._cayley_maps() is maps
    for phi, s in zip(maps, cli._fixed_skew_matrices(), strict=True):
        fresh = okubo.conjugation_automorphism(s)
        for k in range(8):
            b = OkuboElement.basis(k)
            assert phi(b) == fresh(b)

"""Command-line interface: verification suites, structure-constant tables,
Veronese embedding/decoding, kernel dimensions, and derivation reports.

Exit codes: 0 pass, 1 invariant failure (also a suite raising on its samples),
2 usage error (an unwritable --out included), 3 validation error.
All randomized suites require an explicit --seed; per-sample inputs are
drawn by ``_draws`` from PRNG substreams derived from (seed, tag, index),
so reports are byte-identical for identical flags.  Each JSON payload format has one parser, the
``from_json`` of its type; only the plane-point format is parsed here.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import random
import sys
import time
from fractions import Fraction
from itertools import product

from .albert import (
    ALBERT_HALF,
    AlbertAlgebra,
    AlbertElement,
    cyclic_shift,
    idempotent_from_point,
    is_graded_triple,
    is_rank1,
    jordan_defect,
    left_mult_operator,
    lift_okubo_automorphism,
    point_from_idempotent,
    sample_albert,
    trace,
)
from .derivations import derivation_report, petersson_presentation
from .field import C3, F3, parse_rational, render_rational, sample_rational
from .geometry import (
    INFINITY,
    AffinePoint,
    SlopePoint,
    line_chart,
    line_embed,
    plane_decode,
    plane_embed,
    sample_affine_point,
    beta,
    vnorm,
)
from .hurwitz import (
    MUL_TABLE,
    SplitOctonion,
    oct_conj,
    oct_mul,
    oct_norm,
    para_mul,
    petersson_mul,
    sample_split_octonion,
    tau_triality,
)
from .linalg import COMPACT, SPLIT, Mat3, rank
from .okubo import (
    OkuboElement,
    THETA_OKUBO,
    basis_matrices,
    conjugation_automorphism,
    idempotent,
    is_positive_definite,
    left_divide,
    mat_norm,
    michel_radicati_mul,
    okubo_mul,
    okubo_norm,
    recovered_conj,
    recovered_oct_mul,
    sample_okubo,
    split_zero_divisor,
    structure_constants,
    traceful_mul,
    trivolution,
    trivolution_polar_form,
    zero_divisor_check,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3

# the structure constants of each algebra ``table`` and ``derivations`` name, built on first use
TABLES = {
    "okubo": functools.partial(structure_constants, COMPACT),
    "split-okubo": functools.partial(structure_constants, SPLIT),
    "split-octonion": lambda: MUL_TABLE,
    "petersson": petersson_presentation,
}

def jordan_witness():
    """The frozen Jordan-defect witness pair (a, b) = (w0(e) + w1(e), w0(i1)).

    The defect is nonzero for q ∈ {1, -1, 2} and vanishes for q = ±1/2.
    """
    w = AlbertElement.okubo_slot
    e, i1 = OkuboElement.basis(0), OkuboElement.basis(1)
    return w(0, e) + w(1, e), w(0, i1)


# Frozen Michel–Radicati witness: the matrices of i1 and i2 have
# n(x ⋆_0 y) = 0 ≠ n(x)n(y) = 1/9 at θ = 0.
MR_WITNESS_INDICES = (1, 2)


def _rng_for(seed: int, index) -> random.Random:
    return random.Random(f"{seed}:{index}")


def _draws(seed, tag, count, *draws):
    """The one sampler of the suites: (i, [draw(rng) for draw in draws]) for each
    i < count, drawn in order from the substream of (seed, f"{tag}:{i}")."""
    for i in range(count):
        rng = _rng_for(seed, f"{tag}:{i}")
        yield i, [draw(rng) for draw in draws]


def _flavors(flavor):
    return (COMPACT, SPLIT) if flavor is None else (flavor,)


def _okubo(flavor):
    return functools.partial(sample_okubo, flavor=flavor)


def _embedded(embed, *points, **where):
    """The rays ``embed`` makes of ``points``, or None after one ``veronese-cone`` failure at
    ``where`` when one is off the cone: the ray's check raises, and a plane or line point,
    with one λ equal to 1, is never the zero vector."""
    try:
        return [embed(p) for p in points]
    except ValueError:
        yield dict(check="veronese-cone", **where)


def suite_composition(samples, seed, flavor, q):
    for fl in _flavors(flavor):
        for i, (x, y) in _draws(seed, f"composition:{fl}", samples, _okubo(fl), _okubo(fl)):
            if okubo_norm(okubo_mul(x, y)) != okubo_norm(x) * okubo_norm(y):
                yield dict(check="composition", flavor=fl, index=i,
                           x=x.to_json(), y=y.to_json())


def suite_flexibility(samples, seed, flavor, q):
    for fl in _flavors(flavor):
        for i, (x, y) in _draws(seed, f"flexibility:{fl}", samples, _okubo(fl), _okubo(fl)):
            lhs = okubo_mul(x, okubo_mul(y, x))
            rhs = okubo_mul(okubo_mul(x, y), x)
            ny = y.scale(okubo_norm(x))
            if lhs != rhs or lhs != ny:
                yield dict(check="symmetric-composition", flavor=fl, index=i,
                           x=x.to_json(), y=y.to_json())


def suite_division(samples, seed, flavor, q):
    flavors = _flavors(flavor)
    if COMPACT in flavors:
        if not is_positive_definite(COMPACT):
            yield dict(check="gram-positive-definite", flavor=COMPACT)
        for i, (a, b) in _draws(seed, "division:solve", samples, sample_okubo, sample_okubo):
            if a and okubo_mul(left_divide(b, a), a) != b:
                yield dict(check="left-division", index=i, a=a.to_json(), b=b.to_json())
    if SPLIT in flavors:
        d = split_zero_divisor()
        if okubo_norm(d):
            yield dict(check="zero-divisor-norm", witness=d.to_json())
        rng = _rng_for(seed, "division:zero-divisor")
        if not zero_divisor_check(d, rng, max(samples, 20)):
            yield dict(check="zero-divisor-annihilation", witness=d.to_json())
        return {"witness": d.to_json()}


def suite_octonion(samples, seed, flavor, q):
    e = idempotent(COMPACT)
    for i, (x, y) in _draws(seed, "octonion", samples, sample_okubo, sample_okubo):
        if recovered_oct_mul(e, x) != x or recovered_oct_mul(x, e) != x:
            yield dict(check="unit", index=i, x=x.to_json())
        prod = recovered_oct_mul(x, y)
        if okubo_norm(prod) != okubo_norm(x) * okubo_norm(y):
            yield dict(check="composition", index=i, x=x.to_json(), y=y.to_json())
        if recovered_oct_mul(x, recovered_oct_mul(x, y)) != recovered_oct_mul(
            recovered_oct_mul(x, x), y
        ):
            yield dict(check="alternativity", index=i, x=x.to_json(), y=y.to_json())
        if recovered_oct_mul(x, recovered_conj(x)) != e.scale(okubo_norm(x)):
            yield dict(check="conjugate-norm", index=i, x=x.to_json())


def suite_trivolution(samples, seed, flavor, q):
    for fl in _flavors(flavor):
        for k in range(8):
            b = OkuboElement.basis(k, fl)
            if trivolution(b) != trivolution_polar_form(b):
                yield dict(check="defining-formulas-agree", flavor=fl, basis=k)
        for i, (x, y) in _draws(seed, f"trivolution:{fl}", samples, _okubo(fl), _okubo(fl)):
            if trivolution(trivolution(trivolution(x))) != x:
                yield dict(check="order-three", flavor=fl, index=i, x=x.to_json())
            if trivolution(okubo_mul(x, y)) != okubo_mul(
                trivolution(x), trivolution(y)
            ):
                yield dict(check="automorphism", flavor=fl, index=i,
                           x=x.to_json(), y=y.to_json())


def suite_michel_radicati(samples, seed, flavor, q):
    bm = basis_matrices(COMPACT)
    wx, wy = (bm[k] for k in MR_WITNESS_INDICES)
    if mat_norm(michel_radicati_mul(wx, wy, F3())) == mat_norm(wx) * mat_norm(wy):
        yield dict(check="theta-zero-defect-expected")
    thetas = (THETA_OKUBO, -THETA_OKUBO)
    matrix = lambda rng: sample_okubo(rng).to_matrix()
    traceful = lambda rng: matrix(rng) + Mat3.identity().scale(sample_rational(rng))
    for i, (x, y) in _draws(seed, "michel-radicati", samples, matrix, matrix):
        for theta in thetas:
            prod = michel_radicati_mul(x, y, theta)
            if mat_norm(prod) != mat_norm(x) * mat_norm(y):
                yield dict(check="composition-at-okubo-theta", index=i)
    for i, (x, y) in _draws(seed, "michel-radicati:traceful", max(samples // 2, 1),
                            traceful, traceful):
        sym = x @ y + y @ x
        for theta in (F3(), F3(1), THETA_OKUBO):
            xy = traceful_mul(x, y, theta)
            if xy + traceful_mul(y, x, theta) != sym:
                yield dict(check="traceful-symmetrization", index=i)
            xx = traceful_mul(x, x, theta)
            if traceful_mul(xy, xx, theta) != traceful_mul(x, traceful_mul(y, xx, theta), theta):
                yield dict(check="traceful-jordan", index=i)
    return {"theta_zero_witness": {"x": wx.to_json(), "y": wy.to_json()}}


def suite_hurwitz(samples, seed, flavor, q):
    one = SplitOctonion.unit()
    for i in range(8):
        for j in range(8):
            x, y = SplitOctonion.basis(i), SplitOctonion.basis(j)
            if oct_norm(oct_mul(x, y)) != oct_norm(x) * oct_norm(y):
                yield dict(check="basis-composition", i=i, j=j)
    for i, (x, y) in _draws(seed, "hurwitz", samples, sample_split_octonion,
                            sample_split_octonion):
        if oct_norm(oct_mul(x, y)) != oct_norm(x) * oct_norm(y):
            yield dict(check="composition", index=i)
        if oct_conj(oct_conj(x)) != x:
            yield dict(check="conjugation-involution", index=i)
        if oct_mul(x, oct_conj(x)) != one.scale(oct_norm(x)):
            yield dict(check="conjugate-norm", index=i)
        if para_mul(x, para_mul(y, x)) != y.scale(oct_norm(x)):
            yield dict(check="para-symmetric-composition", index=i)
        if tau_triality(tau_triality(tau_triality(x))) != x:
            yield dict(check="triality-order-three", index=i)
        if tau_triality(oct_mul(x, y)) != oct_mul(tau_triality(x), tau_triality(y)):
            yield dict(check="triality-automorphism", index=i)
        if petersson_mul(x, petersson_mul(y, x)) != y.scale(oct_norm(x)):
            yield dict(check="petersson-symmetric-composition", index=i)
        if petersson_mul(x, y) != oct_mul(tau_triality(oct_conj(x)),
                                          tau_triality(tau_triality(oct_conj(y)))):
            yield dict(check="petersson-through-triality", index=i)


def suite_albert(samples, seed, flavor, q):
    algebra = AlbertAlgebra(q)
    unit = AlbertElement.unit()
    jordan_clean = True
    for i, (a, b) in _draws(seed, "albert", samples, sample_albert, sample_albert):
        ab, ba = algebra.mul(a, b), algebra.mul(b, a)
        if ab != ba:
            yield dict(check="commutativity", index=i)
        if algebra.mul(ab, a) != algebra.mul(a, ba):
            yield dict(check="flexibility", index=i)
        if algebra.mul(unit, a) != a:
            yield dict(check="unit-law", index=i)
        if jordan_defect(algebra, a, b):
            jordan_clean = False
    if q == Fraction(1, 2):
        if is_rank1(algebra, unit.scale(Fraction(1, 3))):  # trace 1, but no point
            yield dict(check="rank1-rejects-non-point")
        for i, (p,) in _draws(seed, "albert:rank1", max(samples // 5, 1), sample_affine_point):
            for point in (yield from _embedded(plane_embed, p, index=i)) or ():
                eps = idempotent_from_point(point)
                if not is_rank1(algebra, eps):
                    yield dict(check="rank1-correspondence", index=i)
                elif point_from_idempotent(eps) != point:
                    yield dict(check="rank1-decode", index=i)
    wa, wb = jordan_witness()
    return {
        "jordan": {
            "q": render_rational(q),
            "defect_vanished_on_samples": jordan_clean,
            "witness_defect_nonzero": bool(jordan_defect(algebra, wa, wb)),
        }
    }


def suite_veronese(samples, seed, flavor, q):
    for line in (yield from _embedded(line_embed, INFINITY, kind="line")) or ():
        if line_chart(line) is not INFINITY:
            yield dict(check="line-infinity-roundtrip")
    for kind, draw, count in (
        ("infinity", lambda rng: INFINITY, 1),
        ("slope", lambda rng: SlopePoint(sample_okubo(rng)), samples),
        ("affine", sample_affine_point, samples),
    ):
        for i, (p,) in _draws(seed, f"veronese:{kind}", count, draw):
            if kind == "affine":
                for line in (yield from _embedded(line_embed, p.x, kind="line", index=i)) or ():
                    if line_chart(line) != p.x:
                        yield dict(check="line-roundtrip", index=i)
            emb = yield from _embedded(plane_embed, p, kind=kind, index=i)
            if emb and plane_decode(emb[0]) != p:
                yield dict(check="plane-roundtrip", kind=kind, index=i)
    for i, points in _draws(seed, "veronese:beta", samples, sample_affine_point,
                            sample_affine_point):
        emb = yield from _embedded(plane_embed, *points, index=i)
        if not emb:
            continue
        v, w = (e.rep for e in emb)
        bvw, nv = beta(v, w), vnorm(v)
        if bvw != beta(w, v):
            yield dict(check="beta-symmetry", index=i)
        if nv != trace(v) * trace(v):  # Veronese: Σ2n(x_ν) + Σλ_ν² = (Σλ_ν)²
            yield dict(check="beta-norm", index=i)
        if 2 * bvw != vnorm(v + w) - nv - vnorm(w):
            yield dict(check="beta-polarization", index=i)


def _fixed_skew_matrices():
    """Deterministic rational skew-Hermitian seeds for Cayley transforms."""
    i = C3(F3(), F3(1))
    i3 = C3(F3(), F3(Fraction(1, 3)))
    return (
        Mat3([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
        Mat3([[0, 0, Fraction(1, 2)], [0, 0, 1], [Fraction(-1, 2), -1, 0]]),
        Mat3([[i, i3, 0], [i3, C3(F3(), F3(-1)), 1], [0, -1, 0]]),
    )


@functools.cache
def _cayley_maps():
    """The Cayley maps of ``_fixed_skew_matrices``, built once per process."""
    return tuple(conjugation_automorphism(s) for s in _fixed_skew_matrices())


def suite_automorphism(samples, seed, flavor, q):
    phis = _cayley_maps()
    lifted = lift_okubo_automorphism(phis[0])
    e0 = AlbertElement.scalar_idempotent(0)
    if cyclic_shift(e0) == e0:
        yield dict(check="cyclic-shift-moves-e0")
    for i, (x, y, a, b) in _draws(seed, "automorphism", samples, sample_okubo, sample_okubo,
                                  sample_albert, sample_albert):
        xy, nx = okubo_mul(x, y), okubo_norm(x)
        for k, phi in enumerate(phis):
            px = phi(x)
            if phi(xy) != okubo_mul(px, phi(y)):
                yield dict(check="cayley-multiplicative", index=i, which=k)
            if okubo_norm(px) != nx:
                yield dict(check="cayley-isometry", index=i, which=k)
        ab = ALBERT_HALF.mul(a, b)
        if cyclic_shift(ab) != ALBERT_HALF.mul(cyclic_shift(a), cyclic_shift(b)):
            yield dict(check="cyclic-shift", index=i)
        if lifted(ab) != ALBERT_HALF.mul(lifted(a), lifted(b)):
            yield dict(check="lifted-automorphism", index=i)
    rng = _rng_for(seed, "automorphism:triples")
    if not is_graded_triple(phis[0], phis[0], phis[0], rng, 20):
        yield dict(check="diagonal-graded-triple")
    identity = lambda x: x
    if is_graded_triple(phis[0], identity, identity, rng, 20):
        yield dict(check="non-multiplicative-triple-accepted")


SUITE_FUNCS = {
    "composition": suite_composition,
    "flexibility": suite_flexibility,
    "division": suite_division,
    "octonion": suite_octonion,
    "trivolution": suite_trivolution,
    "michel-radicati": suite_michel_radicati,
    "hurwitz": suite_hurwitz,
    "albert": suite_albert,
    "veronese": suite_veronese,
    "automorphism": suite_automorphism,
}
SUITE_NAMES = tuple(SUITE_FUNCS)


def run_suite(name, samples, seed, flavor, q):
    """One suite's report: the failures its generator yields, in order, and the extras
    it returns.  A suite that raises on its own samples keeps the failures it yielded
    and fails once more, with the error."""
    suite = SUITE_FUNCS[name](samples, seed, flavor, q)
    failures, extras = [], {}
    try:
        while True:
            failures.append(next(suite))
    except StopIteration as done:
        extras = done.value or {}
    except (ValueError, ZeroDivisionError) as exc:
        failures.append({"check": "raised", "error": str(exc)})
    report = {
        "suite": name,
        "samples": samples,
        "seed": seed,
        "failures": failures,
    }
    if flavor is not None:
        report["flavor"] = flavor
    if name == "albert":
        report["q"] = render_rational(q)
    report.update(extras)
    return report


def cmd_check(args) -> int:
    q = parse_rational(args.q)
    start = time.monotonic()
    if args.suite == "all":
        reports = [
            run_suite(name, args.samples, args.seed, args.flavor, q)
            for name in SUITE_NAMES
        ]
        total = sum(len(r["failures"]) for r in reports)
        out = {"suites": reports, "failures_total": total}
    else:
        out = run_suite(args.suite, args.samples, args.seed, args.flavor, q)
        total = len(out["failures"])
    _emit(out, args.out)
    print(f"wall time: {time.monotonic() - start:.2f}s", file=sys.stderr)
    return EXIT_OK if total == 0 else EXIT_FAILURE


def _okubo_table_rows(tensor):
    for a, b, k in product(range(8), repeat=3):
        v = tensor[a][b][k]
        yield f"{a},{b},{k},{render_rational(v.a)},{render_rational(v.b)}"


def _octonion_table_rows(tensor):
    for a, b in product(range(8), repeat=2):
        prod = tensor[a][b]
        support = [k for k, v in enumerate(prod) if v]
        if not support:
            yield f"{a},{b},,0"
        for k in support:
            yield f"{a},{b},{k},{render_rational(prod[k].a)}"


def cmd_table(args) -> int:
    tensor = TABLES[args.algebra]().constants
    if args.algebra in ("okubo", "split-okubo"):
        header, rows, render = "a,b,k,value_a,value_b", _okubo_table_rows, F3.to_json
    else:  # a rational table: each value is its part a
        header, rows, render = "a,b,k,value", _octonion_table_rows, lambda v: render_rational(v.a)
    if args.format == "csv":
        args.out.write("\n".join([header, *rows(tensor)]) + "\n")
    else:
        cells = [[[render(v) for v in cell] for cell in row] for row in tensor]
        _emit({"algebra": args.algebra, "tensor": cells}, args.out)
    return EXIT_OK


def _load(text, parse):
    """Decode a JSON payload and parse it; a missing key or a value of the
    wrong JSON type is reported as the ValueError of malformed input."""
    try:
        return parse(json.loads(text))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed payload: {exc!r}") from None


def _parse_point(obj):
    """A plane point: "infinity", {"slope": s} or an affine {"x", "y"}."""
    if obj == "infinity":
        return INFINITY
    if "slope" in obj:
        return SlopePoint(OkuboElement.from_json(obj["slope"]))
    return AffinePoint(OkuboElement.from_json(obj["x"]), OkuboElement.from_json(obj["y"]))


def _point_json(p):
    """(patch, JSON) of a plane point: its chart and its coordinates there."""
    if p is INFINITY:
        return "infinity", "infinity"
    if isinstance(p, SlopePoint):
        return "slope", {"slope": p.s.to_json()}
    return "affine", p.to_json()


def cmd_veronese(args) -> int:
    if args.mode == "embed":
        point = _load(args.payload, _parse_point)
        proj = plane_embed(point)
        out = {
            "idempotent": idempotent_from_point(proj).to_json(),
            "veronese": proj.rep.to_json(),
            "patch": _point_json(point)[0],
        }
    else:
        eps = _load(args.payload, AlbertElement.from_json)
        patch, point = _point_json(plane_decode(point_from_idempotent(eps)))
        out = {"point": point, "patch": patch}
    _emit(out, args.out)
    return EXIT_OK


NAMED_ELEMENTS = {
    "e0": lambda: AlbertElement.scalar_idempotent(0),
    "e1": lambda: AlbertElement.scalar_idempotent(1),
    "e2": lambda: AlbertElement.scalar_idempotent(2),
    "unit": AlbertElement.unit,
}


def cmd_kernel(args) -> int:
    if args.element in NAMED_ELEMENTS:
        element = NAMED_ELEMENTS[args.element]()
    else:
        element = _load(args.element, AlbertElement.from_json)
    algebra = AlbertAlgebra(parse_rational(args.q))
    image = rank(left_mult_operator(algebra, element))
    out = {"kernel_dim": 27 - image, "image_dim": image}
    _emit(out, args.out)
    return EXIT_OK


def cmd_derivations(args) -> int:
    _emit(derivation_report(TABLES[args.algebra]()), args.out)
    return EXIT_OK


def _emit(obj, out) -> None:
    out.write(json.dumps(obj, indent=2) + "\n")


def _open_out(path):
    """The --out file opened for writing, or stdout when there is none."""
    if path:
        return open(path, "w", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="okubic",
        description="Exact verification suites and tables for the Okubo "
        "algebras, their projective geometry, and the deformed Albert algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a verification suite")
    check.add_argument("suite", choices=SUITE_NAMES + ("all",))
    check.add_argument("--samples", type=positive_int, default=100)
    check.add_argument("--seed", type=int, required=True)
    check.add_argument("--flavor", choices=(COMPACT, SPLIT), default=None)
    check.add_argument("--q", default="1/2")
    check.set_defaults(func=cmd_check)

    table = sub.add_parser("table", help="export structure constants")
    table.add_argument("algebra", choices=tuple(TABLES))
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.set_defaults(func=cmd_table)

    veronese = sub.add_parser(
        "veronese", help="embed plane points / decode rank-1 idempotents"
    )
    veronese.add_argument("mode", choices=("embed", "decode"))
    veronese.add_argument("payload", help="JSON payload")
    veronese.set_defaults(func=cmd_veronese)

    kernel = sub.add_parser(
        "kernel", help="kernel/image dimensions of left multiplication"
    )
    kernel.add_argument(
        "element", help='JSON AlbertElement or one of "e0", "e1", "e2", "unit"'
    )
    kernel.add_argument("--q", default="1/2")
    kernel.set_defaults(func=cmd_kernel)

    deriv = sub.add_parser("derivations", help="derivation-algebra report")
    deriv.add_argument("algebra", choices=("okubo", "split-okubo", "petersson"))
    deriv.set_defaults(func=cmd_derivations)

    for command in sub.choices.values():  # last, so it ends each --help
        command.add_argument("--out", default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: ``main`` may run once per command in one
    process, building a parser costs as much as a small command, and parsing
    leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # open --out before any work, so an unwritable path costs nothing
        with _open_out(args.out) as out:
            args.out = out
            return args.func(args)
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

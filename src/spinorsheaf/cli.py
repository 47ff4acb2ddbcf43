"""Command line front end.

Subcommands: build (print a factorization), verify (run proposition
suites), query (single answers as JSON), paper-example (certify the
printed 4x4 factorization).  Exit codes: 0 pass, 1 verification failure,
2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InvariantError, SchemaError, SpinorError
from .exactalg import LinMat, Mat
from .fixtures import FIXTURE_LABELS, _parse_matrix, get_fixture, load_fixture
from .homalg import cohomology_dim, factorization_equivalent, hom_space, is_isomorphic
from .quadform import Subspace, quotient_space
from .spinor import (
    FactorizationPair,
    build_factorization,
    build_ideal,
    cone_compare,
    restrict_compare,
    shift,
)
from .verify import SUITES, jsonable, run_suite


def _fixture_from_args(args):
    if getattr(args, "input", None):
        return load_fixture(args.input)
    if getattr(args, "fixture", None):
        return get_fixture(args.fixture)
    raise SchemaError("provide -i FILE or --fixture LABEL")


def _module_from_label(label):
    shifted = False
    base = label
    if label.endswith("-shift"):
        base = label[: -len("-shift")]
        shifted = True
    fx = get_fixture(base)
    module = build_ideal(fx.space, fx.w)
    return (shift(module) if shifted else module), fx


def cmd_build(args) -> int:
    fx = _fixture_from_args(args)
    module = build_ideal(fx.space, fx.w)
    mf = build_factorization(module)
    out = sys.stdout
    out.write(f"fixture: {fx.label}\n")
    out.write(f"n: {fx.space.n}, rank q: {fx.space.rank}, dim W: {fx.w.dim}, "
              f"codim W: {module.codim}\n")
    out.write(f"N: {mf.N} (dim I_ev = dim I_odd = 2^(codim W - 1))\n")
    for name, lm in (("phi", mf.phi), ("psi", mf.psi)):
        out.write(f"{name}:\n")
        for r in range(lm.rows):
            row = "  ".join(lm.entry_str(r, c) for c in range(lm.cols))
            out.write(f"  [{row}]\n")
    return 0


def cmd_verify(args) -> int:
    fx = _fixture_from_args(args)
    report = run_suite(fx, suite=args.suite)
    for record in report.records:
        sys.stdout.write(f"[{record['verdict'].upper():9s}] {record['op']}\n")
    ok = report.overall(strict=args.strict)
    counts = report.counts()
    sys.stdout.write(
        f"OVERALL: {'pass' if ok else 'fail'} "
        f"({counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['UNDECIDED']} undecided)\n"
    )
    sys.stderr.write(f"timing: {report.timing:.3f}s\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json(strict=args.strict))
    return 0 if ok else 1


def _data_rows(args, key, default):
    """The vectors under ``key`` in the ``--data`` JSON object, parsed as
    in a fixture file, or ``default`` when the key is absent."""
    if not getattr(args, "data", None):
        return default
    try:
        data = json.loads(args.data)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"bad JSON in --data: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError("--data must be a JSON object")
    return _parse_matrix(data[key], key) if key in data else default


def cmd_query(args) -> int:
    kind = args.kind
    want = 2 if kind in ("hom", "iso") else 1
    if len(args.args) != want:
        raise SchemaError(f"query {kind} takes {want} fixture label(s), got {len(args.args)}")
    result = {"op": kind}
    if kind == "hom":
        a, _ = _module_from_label(args.args[0])
        b, _ = _module_from_label(args.args[1])
        h = hom_space(a, b)
        if h.crosscheck_dimension != h.dimension:
            raise InvariantError(f"the Hom kernel of dimension {h.dimension}"
                                 " fails its certificate")
        result.update(source=args.args[0], target=args.args[1], dim=h.dimension)
    elif kind == "iso":
        a, _ = _module_from_label(args.args[0])
        b, _ = _module_from_label(args.args[1])
        v = is_isomorphic(a, b)
        result.update(source=args.args[0], target=args.args[1],
                      verdict=v.kind, reason=v.reason)
    elif kind == "restrict":
        module, fx = _module_from_label(args.args[0])
        rows = _data_rows(args, "section_subspace", fx.section_subspace)
        if rows is None:
            raise SchemaError("restriction needs section_subspace data")
        u = Subspace(fx.space, rows)
        v = restrict_compare(module, u)
        result.update(fixture=args.args[0], kind=v.kind, parity=v.parity)
        if v.kind == "ISOMORPHIC":
            result.update(matches=v.matches,
                          bijective=bool(v.bijective), linear=bool(v.linear))
    elif kind == "cone":
        module, fx = _module_from_label(args.args[0])
        rows = _data_rows(args, "cone_mod", fx.cone_mod)
        if rows is None:
            raise SchemaError("cone comparison needs cone_mod data")
        v = cone_compare(module, quotient_space(fx.space, Subspace(fx.space, rows)))
        result.update(fixture=args.args[0], dim_u=v.d, parity=v.parity,
                      matches=v.matches, bijective=bool(v.bijective),
                      linear=bool(v.linear))
    elif kind == "cohomology":
        module, fx = _module_from_label(args.args[0])
        mf = build_factorization(module)
        h = cohomology_dim(mf, args.index, args.twist)
        result.update(fixture=args.args[0], index=args.index,
                      twist=args.twist, dim=h)
    else:
        raise SchemaError(f"unknown query kind {kind!r}")
    sys.stdout.write(json.dumps(jsonable(result), sort_keys=True) + "\n")
    return 0


def paper_example_matrices():
    """The printed 4x4 pair for q = x0 x3 + x1 x4 + x2 x5."""
    phi_rows = [
        ["x3", "x4", "x5", "0"],
        ["-x1", "x0", "0", "x5"],
        ["-x2", "0", "x0", "-x4"],
        ["0", "-x2", "x1", "x3"],
    ]
    psi_rows = [
        ["x0", "-x4", "-x5", "0"],
        ["x1", "x3", "0", "-x5"],
        ["x2", "0", "x3", "x4"],
        ["0", "x2", "-x1", "x0"],
    ]
    return phi_rows, psi_rows


def linmat_from_strings(n, rows) -> LinMat:
    size = len(rows)
    coeff = [[[0] * size for _ in range(size)] for _ in range(n)]
    for r, row in enumerate(rows):
        for c, entry in enumerate(row):
            entry = entry.strip()
            if entry == "0":
                continue
            sign = 1
            if entry.startswith("-"):
                sign = -1
                entry = entry[1:]
            if not entry.startswith("x"):
                raise SchemaError(f"bad linear form entry {entry!r}")
            k = int(entry[1:])
            coeff[k][r][c] += sign
    return LinMat(n, [Mat.from_rows(m) for m in coeff])


def paper_example_result(phi_rows=None, psi_rows=None) -> dict:
    """Certify that the built F-H6 factorization is equivalent to the
    printed pair; injectable matrices keep the mutation path testable."""
    default_phi, default_psi = paper_example_matrices()
    phi = linmat_from_strings(6, phi_rows or default_phi)
    psi = linmat_from_strings(6, psi_rows or default_psi)
    fx = get_fixture("F-H6")
    printed = FactorizationPair(fx.space, phi, psi)
    if not printed.check_identity():
        return {"verdict": "NOT_A_FACTORIZATION"}
    found = factorization_equivalent(build_ideal(fx.space, fx.w), printed)
    if found is None:
        return {"verdict": "NOT_EQUIVALENT"}
    return {"verdict": "EQUIVALENT", "A": found[0], "B": found[1]}


def cmd_paper_example(args) -> int:
    result = paper_example_result()
    verdict = result["verdict"]
    sys.stdout.write(f"printed 4x4 factorization: {verdict}\n")
    if verdict == "EQUIVALENT":
        payload = jsonable({"A": result["A"], "B": result["B"]})
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        return 0
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinor",
        description="Spinor sheaves on quadrics: exact construction and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fixture_args(p):
        p.add_argument("-i", "--input", help="fixture JSON file")
        p.add_argument("--fixture", choices=FIXTURE_LABELS, help="built-in fixture label")

    p_build = sub.add_parser("build", help="print the matrix factorization")
    add_fixture_args(p_build)
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="run verification suites")
    add_fixture_args(p_verify)
    p_verify.add_argument("--suite", default="all", choices=("all",) + SUITES)
    p_verify.add_argument("--strict", action="store_true",
                          help="treat UNDECIDED records as failures")
    p_verify.add_argument("--out", help="write the JSON report here")
    p_verify.set_defaults(func=cmd_verify)

    p_query = sub.add_parser("query", help="single-answer queries as JSON")
    p_query.add_argument("kind", choices=("hom", "iso", "restrict", "cone", "cohomology"))
    p_query.add_argument("args", nargs="*",
                         help="fixture labels; append -shift to shift a module")
    p_query.add_argument("--data", help="inline JSON for restrict/cone subspaces")
    p_query.add_argument("--index", type=int, default=0, help="cohomology index")
    p_query.add_argument("--twist", type=int, default=0, help="cohomology twist")
    p_query.set_defaults(func=cmd_query)

    p_paper = sub.add_parser("paper-example",
                             help="certify the printed 4x4 factorization")
    p_paper.set_defaults(func=cmd_paper_example)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except InvariantError as exc:
        sys.stderr.write(f"internal check failed: {exc}\n")
        return 1
    except SpinorError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

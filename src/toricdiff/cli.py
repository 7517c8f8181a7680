"""Command line interface.

A cone file is JSON with three fields: ``lattice_rank`` (the ambient rank
n), ``rays`` (a list of nonzero integer vectors of length n), and ``space``
("N" when the rays generate the defining cone, so the exponent cone is the
dual; "M" when they generate the exponent cone directly; default "N").

Exit status: 0 when the requested computation or verification succeeds,
1 when a verification ran to completion and found a violation, 2 for bad
input (unreadable file, malformed spec, point outside the cone, composite
modulus, degenerate cone).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

# Every command builds a cone, so cones and linalg load here.  Each handler
# imports the rest of what it runs, so that `dual` and `facets` never load
# the complexes, forms or Cartier modules.  linalg is imported before cones
# and its numpy: compiled from source (with no bytecode cache) after numpy
# has loaded, it adds about 1.3 MB to the peak RSS of every request.
from .linalg import GF

# numpy runs only the integer box scan, which never calls BLAS, but OpenBLAS
# starts a thread per core when numpy loads.  The CLI owns its process, so it
# asks for one thread before cones imports numpy; a value the user set stays.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cones import Cone

__all__ = ["main", "ConeSpecError", "load_cone_spec", "exponent_cone"]


# Largest lattice_rank a cone file may ask for.  Building the cone takes an
# n x n identity through Hermite normal form, which at rank 1000 runs for
# minutes; rank 64 builds in about half a second, and every cone in the
# tests, demos and benchmark has rank at most 6.
_MAX_LATTICE_RANK = 64


class ConeSpecError(ValueError):
    """Malformed cone specification file."""


def load_cone_spec(path):
    """Read and validate a cone file; returns ``(lattice_rank, rays, space)``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConeSpecError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ConeSpecError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(data, dict):
        raise ConeSpecError(f"{path}: expected a JSON object")
    for key in ("lattice_rank", "rays"):
        if key not in data:
            raise ConeSpecError(f"{path}: missing field {key!r}")
    n = data["lattice_rank"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConeSpecError(f"{path}: lattice_rank must be a positive integer")
    if n > _MAX_LATTICE_RANK:
        raise ConeSpecError(f"{path}: lattice_rank {n} is above the limit of {_MAX_LATTICE_RANK}")
    raw = data["rays"]
    if not isinstance(raw, list):
        raise ConeSpecError(f"{path}: rays must be a list of integer vectors")
    rays = []
    for ray in raw:
        if not isinstance(ray, list) or len(ray) != n:
            raise ConeSpecError(f"{path}: each ray must be a list of {n} integers")
        for x in ray:
            if isinstance(x, bool) or not isinstance(x, int):
                raise ConeSpecError(f"{path}: ray entry {x!r} is not an integer")
        if not any(ray):
            raise ConeSpecError(f"{path}: rays must be nonzero")
        rays.append(tuple(ray))
    space = data.get("space", "N")
    if space not in ("N", "M"):
        raise ConeSpecError(f"{path}: space must be \"N\" or \"M\"")
    return n, tuple(rays), space


def exponent_cone(n, rays, space):
    """The cone of monomial exponents described by a spec."""
    cone = Cone(rays, ambient_rank=n)
    return cone.dual if space == "N" else cone


def _cone_from_args(args):
    n, rays, space = load_cone_spec(args.conefile)
    if args.space:
        space = args.space
    return exponent_cone(n, rays, space)


def _vec(v):
    return "(" + ",".join(str(x) for x in v) + ")"


def _parse_degree(text, n):
    try:
        m = tuple(int(t) for t in text.strip().strip("()").split(","))
    except ValueError as exc:
        raise ConeSpecError(f"cannot parse degree {text!r}") from exc
    if len(m) != n:
        raise ConeSpecError(f"degree {text!r} does not have {n} entries")
    return m


def _emit_json(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_dual(args):
    cone = _cone_from_args(args)
    if args.format == "json":
        _emit_json({"lattice_rank": cone.ambient_rank, "rays": [list(r) for r in cone.rays]})
    else:
        for ray in cone.rays:
            print(_vec(ray))
    return 0


def _cmd_facets(args):
    cone = _cone_from_args(args)
    facets = cone.facets
    if args.format == "json":
        _emit_json(
            {
                "facets": [
                    {
                        "index": f.index,
                        "normal": list(f.normal),
                        "span": [list(row) for row in f.span.basis],
                    }
                    for f in facets
                ]
            }
        )
    else:
        for f in facets:
            span = ", ".join(_vec(row) for row in f.span.basis)
            print(f"facet {f.index}: normal {_vec(f.normal)}, span [{span}]")
    return 0


def _cmd_vm(args):
    from .forms import degree_subspace

    cone = _cone_from_args(args)
    if args.p:
        GF(args.p)
    m = _parse_degree(args.degree, cone.ambient_rank)
    sub = degree_subspace(cone, m, args.p)
    if args.format == "json":
        _emit_json(
            {
                "degree": list(m),
                "characteristic": args.p,
                "dim": sub.dim,
                "basis": [[str(x) for x in row] for row in sub.basis],
            }
        )
    else:
        print(f"V_{_vec(m)} over {'QQ' if args.p == 0 else f'GF({args.p})'}: dim {sub.dim}")
        for row in sub.basis:
            print("  " + _vec(row))
    return 0


def _cmd_cohomology(args):
    from .complexes import cohomology_table

    cone = _cone_from_args(args)
    if args.p:
        GF(args.p)
    table = cohomology_table(cone, args.bound, args.p)
    if args.format == "json":
        print(table.to_json())
    elif args.format == "csv":
        sys.stdout.write(table.to_csv())
    else:
        for m in table.degrees():
            print(f"{_vec(m)}: h={_vec(table.entries[m])}")
    return 0


def _cmd_poincare(args):
    from .complexes import NoVertexError, poincare_check

    cone = _cone_from_args(args)
    if args.p:
        raise NoVertexError("the exactness check runs in characteristic zero; drop --p")
    report = poincare_check(cone, args.bound)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.passed else 1


def _cmd_cartier(args):
    from .cartier import inverse_cartier_generator_check, verify_isomorphism

    cone = _cone_from_args(args)
    level = None
    if args.a != "all":
        level = int(args.a)
        if level < 0 or level > cone.ambient_rank:
            raise ConeSpecError(f"wedge degree {level} out of range")
    report = verify_isomorphism(cone, args.bound, args.p)
    gen = inverse_cartier_generator_check(cone, args.bound, args.p)
    view = report
    if level is not None:
        view = dataclasses.replace(report, levels=report.levels[level : level + 1])
    if args.format == "json":
        payload = json.loads(view.to_json())
        payload["generator_identity"] = {
            "checked": gen.checked,
            "passed": gen.passed,
            "violations": list(gen.violations),
        }
        _emit_json(payload)
    else:
        print(view.to_text())
        print(gen.to_text())
    return 0 if report.passed and gen.passed else 1


def _cmd_oracle(args):
    from .complexes import _box_cohomology, oracle_full_complex

    cone = _cone_from_args(args)
    if args.p:
        GF(args.p)
    totals = oracle_full_complex(cone, args.bound, args.p)
    sums = (0,) * (cone.ambient_rank + 1)
    for _, h in _box_cohomology(cone, args.bound, args.p):
        sums = tuple(map(sum, zip(sums, h)))
    agree = totals == sums
    if args.format == "json":
        _emit_json(
            {
                "bound": args.bound,
                "characteristic": args.p,
                "oracle_totals": list(totals),
                "table_sums": list(sums),
                "agree": agree,
            }
        )
    else:
        print(f"oracle totals:    {_vec(totals)}")
        print(f"degreewise sums:  {_vec(sums)}")
        print(f"agreement: {'PASS' if agree else 'FAIL'}")
    return 0 if agree else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="toricdiff",
        description="Exact de Rham data of affine toric charts over QQ and GF(p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, formats=("text", "json"), p_flag=False, bound=False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("conefile", help="JSON cone specification")
        cmd.add_argument(
            "--space",
            choices=("N", "M"),
            default=None,
            help="override the space field of the cone file",
        )
        cmd.add_argument("--format", choices=formats, default="text")
        if p_flag:
            cmd.add_argument("--p", type=int, default=0, help="characteristic (0 for QQ)")
        if bound:
            cmd.add_argument("--bound", type=int, required=True, help="box radius B")
        cmd.set_defaults(func=func)
        return cmd

    add("dual", _cmd_dual, "print the generators of the exponent cone")
    add("facets", _cmd_facets, "print facet normals and spans of the exponent cone")
    vm = add("vm", _cmd_vm, "print the subspace attached to one degree", p_flag=True)
    vm.add_argument("--degree", required=True, help="lattice point, e.g. 1,0")
    add(
        "cohomology",
        _cmd_cohomology,
        "per-degree cohomology over a box",
        formats=("text", "json", "csv"),
        p_flag=True,
        bound=True,
    )
    add("poincare", _cmd_poincare, "characteristic-zero exactness check", p_flag=True, bound=True)
    cart = add(
        "cartier",
        _cmd_cartier,
        "characteristic-p verification suite",
        p_flag=True,
        bound=True,
    )
    cart.add_argument(
        "--a",
        default="all",
        help="wedge degree to show in the per-level summary (default all)",
    )
    add(
        "oracle",
        _cmd_oracle,
        "compare the whole-box oracle against degreewise sums",
        p_flag=True,
        bound=True,
    )
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    # ConeSpecError, NotPointedError, NotInConeError and NoVertexError are
    # all ValueErrors.
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface.

A cone file is JSON with three fields: ``lattice_rank`` (the ambient rank
n), ``rays`` (a list of nonzero integer vectors of length n), and ``space``
("N" when the rays generate the defining cone, so the exponent cone is the
dual; "M" when they generate the exponent cone directly; default "N").

This module alone decides the output bytes.  ``main`` builds the exponent
cone and hands it to the command, which returns its exit status, its JSON
document and its text lines; ``main`` prints the one that ``--format`` asks
for.  ``cohomology`` alone streams: it writes its rows in text, CSV or JSON
as the box is scanned and returns neither.

Exit status: 0 when the requested computation or verification succeeds,
1 when a verification ran to completion and found a violation, 2 for bad
input (unreadable file, malformed spec, point outside the cone, composite
modulus, degenerate cone), and 141 (128 + SIGPIPE) with nothing on stderr
when stdout is closed early, as ``| head`` does.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from functools import lru_cache

# main builds every command's cone, so cones and linalg load here.  Each handler
# imports the rest of what it runs, so that `dual` and `facets` never load
# the complexes, forms or Cartier modules.  linalg is imported before cones
# and its numpy: compiled from source (with no bytecode cache) after numpy
# has loaded, it adds about 1.3 MB to the peak RSS of every request.
from . import linalg  # noqa: F401

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


def _cmd_dual(cone, args):
    doc = {"lattice_rank": cone.ambient_rank, "rays": [list(r) for r in cone.rays]}
    return 0, doc, map(_vec, cone.rays)


def _cmd_facets(cone, args):
    facets = cone.facets
    doc = {
        "facets": [
            {
                "index": f.index,
                "normal": list(f.normal),
                "span": [list(row) for row in f.span.basis],
            }
            for f in facets
        ]
    }
    lines = (
        f"facet {f.index}: normal {_vec(f.normal)}, span [{', '.join(map(_vec, f.span.basis))}]"
        for f in facets
    )
    return 0, doc, lines


def _cmd_vm(cone, args):
    from .forms import degree_subspace

    m = _parse_degree(args.degree, cone.ambient_rank)
    sub = degree_subspace(cone, m, args.p)
    doc = {
        "degree": list(m),
        "characteristic": args.p,
        "dim": sub.dim,
        "basis": [[str(x) for x in row] for row in sub.basis],
    }
    head = f"V_{_vec(m)} over {'QQ' if args.p == 0 else f'GF({args.p})'}: dim {sub.dim}"
    return 0, doc, [head, *("  " + _vec(row) for row in sub.basis)]


def _cmd_cohomology(cone, args):
    """Write the cohomology of the box to stdout row by row as the box streams.

    The bytes are those of :class:`~toricdiff.complexes.CohomologyTable`: its
    CSV, its JSON plus a newline, or one ``(m): h=(h)`` line per degree.  The
    first row is located before anything is written, so a cone refused there
    (one that is not full dimensional) leaves stdout empty.
    """
    from .complexes import _box_cohomology, _csv_form, _csv_header

    rows = _box_cohomology(cone, args.bound, args.p)
    m, h = next(rows)
    if args.format == "json":
        payload = {
            "rays": [list(r) for r in cone.rays],
            "characteristic": args.p,
            "bound": args.bound,
            "cohomology": [None],
        }
        # the document of one placeholder row, cut around that row
        head, tail = json.dumps(payload, indent=2, sort_keys=True).split("\n    null")
        row = _json_form
        first = (row(h) % m)[1:]  # no comma before the first block
        tail += "\n"
    else:
        head = _csv_header(cone.ambient_rank) if args.format == "csv" else ""
        row = _csv_form if args.format == "csv" else _text_form
        first, tail = row(h) % m, ""
    out = sys.stdout
    out.write(head + first)
    for m, h in rows:
        out.write(row(h) % m)
    out.write(tail)
    return 0, None, ()


@lru_cache(maxsize=64)
def _text_form(h):
    """The text line of a row with this h, as a ``%d`` format for its m."""
    return "(" + ",".join(["%d"] * (len(h) - 1)) + "): h=(" + ",".join(map(str, h)) + ")\n"


@lru_cache(maxsize=64)
def _json_form(h):
    """The JSON block of a row with this h and its leading comma, a ``%d`` format for its m.

    The block is the encoder's own output for the row, so its bytes are those
    of :meth:`~toricdiff.complexes.CohomologyTable.to_json`.
    """
    block = json.dumps({"degree": ["%d"] * (len(h) - 1), "h": list(h)}, indent=2, sort_keys=True)
    return ",\n    " + block.replace('"%d"', "%d").replace("\n", "\n    ")


def _cmd_poincare(cone, args):
    from .complexes import poincare_check

    if args.p:
        raise ConeSpecError("the exactness check runs in characteristic zero; drop --p")
    report = poincare_check(cone, args.bound)
    return (0 if report.passed else 1), report.payload(), [report.to_text()]


def _cmd_cartier(cone, args):
    from .cartier import verify_isomorphism

    level = None
    if args.a != "all":
        try:
            level = int(args.a)
        except ValueError:
            raise ConeSpecError(f"wedge degree {args.a!r} is not an integer or all") from None
        if level < 0 or level > cone.ambient_rank:
            raise ConeSpecError(f"wedge degree {level} out of range")
    report = verify_isomorphism(cone, args.bound, args.p)
    view = report
    if level is not None:
        view = dataclasses.replace(report, levels=report.levels[level : level + 1])
    lines = (r.to_text() for r in (view, report.generator))
    return (0 if report.passed else 1), view.payload(), lines


def _cmd_oracle(cone, args):
    from .complexes import _oracle

    totals, sums = _oracle(cone, args.bound, args.p)
    agree = totals == sums
    doc = {
        "bound": args.bound,
        "characteristic": args.p,
        "oracle_totals": list(totals),
        "table_sums": list(sums),
        "agree": agree,
    }
    lines = [
        f"oracle totals:    {_vec(totals)}",
        f"degreewise sums:  {_vec(sums)}",
        f"agreement: {'PASS' if agree else 'FAIL'}",
    ]
    return (0 if agree else 1), doc, lines


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


def _join_negative_degree(argv):
    """``--degree -1,0`` as ``--degree=-1,0``.

    argparse takes a word that starts with "-" for an option unless it reads
    as a negative number, and ``-1,0`` does not; joined by "=" it is the
    value of ``--degree`` on every Python version.  Words after ``--`` stay.
    """
    out = []
    for word in argv:
        negative = word[:1] == "-" and word[1:2].isdigit()
        if negative and out and out[-1] == "--degree" and "--" not in out:
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(_join_negative_degree(sys.argv[1:] if argv is None else argv))
    # ConeSpecError, NotPointedError, NotInConeError and NoVertexError are
    # all ValueErrors.
    try:
        code, doc, lines = args.func(_cone_from_args(args), args)
        if doc is not None and args.format == "json":
            lines = (json.dumps(doc, indent=2, sort_keys=True),)
        for line in lines:
            print(line)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; /dev/null takes it
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

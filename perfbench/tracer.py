"""Run one toricdiff CLI request with a span around every call into a layer.

usage: python tracer.py SPAN_FILE REQUEST_ID -- CLI_ARGS...

The child imports ``toricdiff.cli`` (timed as its own span), wraps the
public functions listed in ``TARGETS`` and then calls
``toricdiff.cli.main(CLI_ARGS)``, so stdout and the exit status are those
of ``python -m toricdiff CLI_ARGS``.  A wrapped function is patched in every
``toricdiff`` module that imported it, so for example ``rank`` is traced
when called from ``cones``, ``complexes`` and ``cartier`` alike.

Spans live in memory as (name id, start ns, end ns, parent index) and are
written once, when the request ends: SPAN_FILE gets one JSON line (request
id, span names, counters) followed by the spans as native int64 values.
This file imports only the standard library, so the ``cli.import_s`` span
sees the program's own import cost.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter

IMPORT_SPAN = "cli.import"

# (module, attribute, self-time metric, call-count metric); the span name is
# "module.attribute".  Names missing from the program are skipped, so their
# metrics read zero instead of breaking the benchmark.
TARGETS = (
    ("cones", "Cone.__init__", "cones.construct_s", None),
    ("cones", "Cone.dual", "cones.construct_s", None),
    ("cones", "Cone.facets", "cones.construct_s", None),
    ("cones", "Cone.lattice_points", "cones.scan_s", None),
    ("cones", "Cone.facets_containing", "cones.classify_s", "cones.classify_calls"),
    ("cones", "Cone.contains", "cones.classify_s", "cones.classify_calls"),
    ("forms", "degree_subspace", "forms.vm_s", "forms.vm_calls"),
    ("forms", "facet_subspace", "forms.vm_s", None),
    ("complexes", "degree_complex", "complexes.assemble_s", "complexes.assemble_calls"),
    ("complexes", "oracle_full_complex", "complexes.assemble_s", None),
    ("complexes", "cohomology", "complexes.cohomology_s", None),
    ("complexes", "cohomology_table", "complexes.cohomology_s", None),
    ("complexes", "poincare_check", "complexes.cohomology_s", None),
    ("complexes", "CohomologyTable.to_json", "complexes.serialize_s", None),
    ("complexes", "CohomologyTable.to_csv", "complexes.serialize_s", None),
    ("complexes", "CohomologyTable.table_hash", "complexes.serialize_s", None),
    ("complexes", "PoincareReport.to_json", "complexes.serialize_s", None),
    ("cartier", "CartierReport.to_json", "complexes.serialize_s", None),
    ("cartier", "phi", "cartier.phi_s", "cartier.phi_calls"),
    ("cartier", "verify_isomorphism", "cartier.verify_s", None),
    ("cartier", "inverse_cartier_generator_check", "cartier.generator_s", None),
    ("linalg", "rank", "linalg.rank_s", None),
    ("linalg", "mat_mul", "linalg.mat_mul_s", None),
    ("linalg", "Subspace.coordinates_of", "linalg.coordinates_s", "linalg.coordinates_calls"),
    ("linalg", "intersect", "linalg.intersect_s", None),
    ("linalg", "sparse_rank", "linalg.sparse_rank_s", None),
    ("cli", "load_cone_spec", "cli.load_s", None),
    ("cli", "main", "cli.main_s", None),
)

# Lazy attributes: a call that only reads the instance cache records no span.
CACHED_IN = {"Cone.dual": "dual", "Cone.facets": "_facets"}


def _count_box(recorder, args, result):
    # the box (2B+1)^n is scanned once per cone and bound, later calls hit a cache
    cone, bound = args[0], args[1]
    if (id(cone), bound) not in recorder.boxes:
        recorder.boxes.add((id(cone), bound))
        recorder.counters["cones.box_points"] += (2 * bound + 1) ** cone.ambient_rank


def _count_rank(recorder, args, result):
    counters = recorder.counters
    field, M = args[0], args[1]
    field_name = "gfp" if getattr(field, "characteristic", 0) else "qq"
    counters[f"linalg.rank_calls.{field_name}"] += 1
    shape = getattr(M, "shape", None)
    if shape is None:
        shape = (len(M), len(M[0]) if len(M) else 0)
    counters["linalg.rank_entries"] += int(shape[0]) * int(shape[1])


def _count_sparse(recorder, args, result):
    columns = args[1]
    if hasattr(columns, "__len__"):
        recorder.counters["linalg.sparse_columns"] += len(columns)


def _count_table(recorder, args, result):
    recorder.counters["complexes.table_degrees"] += len(result.entries)


COUNTERS = {
    "cones.Cone.lattice_points": _count_box,
    "linalg.rank": _count_rank,
    "linalg.sparse_rank": _count_sparse,
    "complexes.cohomology_table": _count_table,
}


class Recorder:
    """In-memory spans of one request, plus counters kept at the same calls."""

    def __init__(self):
        self.names = []
        self.spans = array("q")
        self.stack = [-1]
        self.counters = Counter()
        self.boxes = set()

    def name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def add(self, name, start, end):
        self.spans.extend((self.name_id(name), start, end, self.stack[-1]))

    def wrap(self, name, fn, cached_key=None):
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if cached_key is not None and cached_key in args[0].__dict__:
                return fn(*args, **kwargs)
            idx = len(spans) // 4
            spans.extend((nid, 0, 0, stack[-1]))
            stack.append(idx)
            spans[4 * idx + 1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[4 * idx + 2] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def install(self):
        """Patch every target; returns the wrapped ``cli.main``."""
        for module_name, attr, _, _ in TARGETS:
            module = importlib.import_module(f"toricdiff.{module_name}")
            name = f"{module_name}.{attr}"
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(member) if owner is not None else None
                if raw is None:
                    continue
                if isinstance(raw, property):
                    wrapped = property(self.wrap(name, raw.fget, CACHED_IN.get(attr)))
                else:
                    wrapped = self.wrap(name, raw)
                setattr(owner, member, wrapped)
                continue
            original = getattr(module, member, None)
            if original is None:
                continue
            wrapped = self.wrap(name, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name == "toricdiff" or loaded_name.startswith("toricdiff."):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, wrapped)
        return sys.modules["toricdiff.cli"].main

    def write(self, path, request_id):
        forms = sys.modules.get("toricdiff.forms")
        info = getattr(getattr(forms, "_facet_intersection", None), "cache_info", None)
        if info is not None:
            stats = info()
            self.counters["forms.intersection_hits"] = stats.hits
            self.counters["forms.intersection_misses"] = stats.misses
        meta = {"request": request_id, "names": self.names, "counters": self.counters}
        with open(path, "wb") as fh:
            fh.write(json.dumps(meta).encode() + b"\n")
            self.spans.tofile(fh)


def main(argv):
    span_file, request_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPAN_FILE REQUEST_ID -- CLI_ARGS...")
    recorder = Recorder()
    start = time.perf_counter_ns()
    importlib.import_module("toricdiff.cli")
    recorder.add(IMPORT_SPAN, start, time.perf_counter_ns())
    cli_main = recorder.install()
    try:
        code = cli_main(cli_args)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        recorder.write(span_file, request_id)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

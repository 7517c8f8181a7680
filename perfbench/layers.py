"""Per-layer metrics from the span files written by ``tracer.py``.

A span's self time is its duration minus the time covered by its child
spans.  All spans of one request come from one thread, so the children of a
span are disjoint and the covered time is the sum of their durations.
Each ``*_s`` metric is the summed self time of the spans mapped to it in
``tracer.TARGETS``; each ``*_calls`` metric counts those spans.
"""

from __future__ import annotations

import json
from array import array

from tracer import IMPORT_SPAN, TARGETS

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("cones.construct_s", "s"),
    ("cones.scan_s", "s"),
    ("cones.classify_s", "s"),
    ("cones.classify_calls", "count"),
    ("cones.box_points", "count"),
    ("forms.vm_s", "s"),
    ("forms.vm_calls", "count"),
    ("forms.intersection_hit_ratio", "ratio"),
    ("complexes.assemble_s", "s"),
    ("complexes.assemble_calls", "count"),
    ("complexes.cohomology_s", "s"),
    ("complexes.distinct_ratio", "ratio"),
    ("complexes.serialize_s", "s"),
    ("cartier.phi_s", "s"),
    ("cartier.phi_calls", "count"),
    ("cartier.verify_s", "s"),
    ("cartier.generator_s", "s"),
    ("linalg.rank_s", "s"),
    ("linalg.rank_calls.qq", "count"),
    ("linalg.rank_calls.gfp", "count"),
    ("linalg.rank_entries", "count"),
    ("linalg.mat_mul_s", "s"),
    ("linalg.coordinates_s", "s"),
    ("linalg.coordinates_calls", "count"),
    ("linalg.intersect_s", "s"),
    ("linalg.sparse_rank_s", "s"),
    ("linalg.sparse_columns", "count"),
    ("cli.import_s", "s"),
    ("cli.load_s", "s"),
    ("cli.main_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

SELF_TIME = {f"{module}.{attr}": time_metric for module, attr, time_metric, _ in TARGETS}
SELF_TIME[IMPORT_SPAN] = "cli.import_s"
CALLS = {f"{module}.{attr}": calls for module, attr, _, calls in TARGETS if calls}


def read_spans(path):
    """``(meta, spans)``: the JSON header and a flat int64 array of rows (name, start, end, parent)."""
    spans = array("q")
    with open(path, "rb") as fh:
        meta = json.loads(fh.readline())
        spans.frombytes(fh.read())
    return meta, spans


def self_times(spans):
    """Self time in ns of each span row of the flat rows (name, start, end, parent)."""
    own = [spans[i + 2] - spans[i + 1] for i in range(0, len(spans), 4)]
    for i in range(0, len(spans), 4):
        parent = spans[i + 3]
        if parent >= 0:
            own[parent] -= spans[i + 2] - spans[i + 1]
    return own


def request_totals(meta, spans):
    """Summed self time (s), call counts and counters of one traced request."""
    totals = dict(meta["counters"])
    names = meta["names"]
    for row, own in enumerate(self_times(spans)):
        name = names[spans[4 * row]]
        if name in SELF_TIME:
            metric = SELF_TIME[name]
            totals[metric] = totals.get(metric, 0.0) + own / 1e9
        if name in CALLS:
            metric = CALLS[name]
            totals[metric] = totals.get(metric, 0) + 1
    return totals


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(acc, passes, overhead):
    """Per-pass values of every per-layer metric from summed request totals."""
    out = {}
    for name, unit in PER_LAYER:
        if unit == "ratio":
            continue
        value = acc.get(name, 0.0 if unit == "s" else 0)
        if isinstance(value, int) and value % passes == 0:
            out[name] = value // passes
        else:
            out[name] = value / passes
    hits = acc.get("forms.intersection_hits", 0)
    out["forms.intersection_hit_ratio"] = _ratio(hits, hits + acc.get("forms.intersection_misses", 0))
    out["complexes.distinct_ratio"] = _ratio(
        acc.get("complexes.assemble_calls", 0), acc.get("complexes.table_degrees", 0)
    )
    out["trace.overhead_frac"] = overhead
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER}

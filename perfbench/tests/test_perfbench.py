"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

import hashlib
import json
import math

from array import array

import pytest

import layers
import run
import workloads


def test_self_time_subtracts_the_time_covered_by_children():
    # rows: (name id, start, end, parent index)
    spans = array(
        "q",
        [
            *(0, 0, 100, -1),  # root, children cover 10..40 and 50..70
            *(1, 10, 40, 0),  # child with a grandchild covering 15..25
            *(1, 50, 70, 0),
            *(2, 15, 25, 1),
        ],
    )
    assert layers.self_times(spans) == [50, 20, 20, 10]


def test_request_totals_map_spans_to_layer_metrics():
    spans = array(
        "q",
        [
            *(0, 0, 1_000_000_000, -1),
            *(1, 100, 250_000_100, 0),
            *(1, 300_000_000, 400_000_000, 0),
            *(2, 500_000_000, 600_000_000, 0),
        ],
    )
    meta = {
        "names": ["cli.main", "cartier.phi", "linalg.rank"],
        "counters": {"linalg.rank_calls.gfp": 1},
    }
    totals = layers.request_totals(meta, spans)
    assert totals["cli.main_s"] == pytest.approx(0.55)
    assert totals["cartier.phi_s"] == pytest.approx(0.35)
    assert totals["cartier.phi_calls"] == 2
    assert totals["linalg.rank_s"] == pytest.approx(0.1)
    assert totals["linalg.rank_calls.gfp"] == 1


def test_layer_metrics_are_per_pass_and_ratios_come_from_totals():
    acc = {
        "cartier.phi_calls": 10,
        "cartier.phi_s": 3.0,
        "forms.intersection_hits": 3,
        "forms.intersection_misses": 1,
        "complexes.assemble_calls": 5,
        "complexes.table_degrees": 20,
    }
    out = layers.layer_metrics(acc, passes=2, overhead=0.1)
    assert [name for name, _ in layers.PER_LAYER] == list(out)
    assert out["cartier.phi_calls"]["value"] == 5
    assert out["cartier.phi_s"]["value"] == pytest.approx(1.5)
    assert out["forms.intersection_hit_ratio"]["value"] == pytest.approx(0.75)
    assert out["complexes.distinct_ratio"]["value"] == pytest.approx(0.25)
    assert out["linalg.sparse_rank_s"]["value"] == 0


@pytest.mark.parametrize("samples, q", [(20, 50), (32, 68), (40, 75), (45, 77), (48, 79), (100, 90)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(samples, q):
    assert run.tail_percentile(samples) == q


def test_tail_rule_holds_for_every_sample_count():
    for n in range(11, 400):
        q = run.tail_percentile(n)
        assert n - math.ceil(q * n / 100) >= run.TAIL_BEYOND
        assert q == 99 or n - math.ceil((q + 1) * n / 100) < run.TAIL_BEYOND
    with pytest.raises(ValueError):
        run.tail_percentile(10)


def test_percentile_is_nearest_rank():
    values = list(range(1, 41))
    assert run.percentile(values, 75) == 30
    assert run.percentile(values, 50) == 20
    assert run.percentile([3.0], 90) == 3.0


def _outcome(stdout=b"", stderr=b"", status=0):
    return run.Outcome(0.1, status, 1000, stdout, stderr)


def test_digest_check_counts_a_tampered_reference_as_failure():
    request = workloads.Request("poincare x.json", ("poincare", "x.json"))
    stdout = json.dumps({"passed": True, "table_hash": "ab"}).encode()
    outcome = _outcome(stdout)
    pinned = run.pin(request, outcome)
    assert pinned["verdict"] == {"passed": True, "table_hash": "ab"}
    assert run.check(request, outcome, pinned) is None
    tampered = dict(pinned, stdout_sha256=hashlib.sha256(b"other").hexdigest())
    assert "digest" in run.check(request, outcome, tampered)
    assert "verdict" in run.check(request, outcome, dict(pinned, verdict={"passed": False}))
    assert "exit status" in run.check(request, outcome, dict(pinned, status=1))
    assert run.check(request, outcome, None) == "no pinned reference"


def test_control_must_fail_with_an_error_line_and_no_traceback():
    request = workloads.Request("cartier x.json --p 4", ("cartier", "x.json", "--p", "4"), control=True)
    good = _outcome(stderr=b"error: 4 is not prime\n", status=2)
    pinned = run.pin(request, good)
    assert run.check(request, good, pinned) is None
    silent = _outcome(status=2)
    assert "control" in run.check(request, silent, pinned)
    crashed = _outcome(stderr=b"Traceback (most recent call last):\nerror: x\n", status=2)
    assert "traceback" in run.check(request, crashed, pinned)


def test_a_peak_rss_within_the_harness_own_is_refused():
    with pytest.raises(SystemExit, match="harness"):
        run.request_peak_kb([{"maxrss_kb": 1}])
    huge = 1 << 40
    assert run.request_peak_kb([{"maxrss_kb": 1}, {"maxrss_kb": huge}])[0] == huge


def test_every_request_is_pinned_and_every_control_exits_2():
    reference = json.loads(run.REFERENCE.read_text())
    assert set(reference) == set(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS.values():
        assert {r.id for r in workload.requests} == set(reference[workload.name])
        for request in workload.requests:
            assert (reference[workload.name][request.id]["status"] == 2) == request.control


def test_menus_are_permutations_fixed_by_the_seed():
    workload = workloads.WORKLOADS["cartier-gfp"]
    first = workloads.shuffled(workload, 1)
    assert first == workloads.shuffled(workload, 1)
    assert first != workloads.shuffled(workload, 2)
    assert sorted(first, key=lambda r: r.id) == sorted(workload.requests, key=lambda r: r.id)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    names = [m["name"] for m in spec["end_to_end"]]
    assert set(names) == {"setup_s", "latency_s.p50", "latency_s.tail", "throughput_rps", "peak_rss_mb"}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.fixture()
def inputs(tmp_path):
    workloads.write_inputs(run.ROOT / "cones", tmp_path)
    return tmp_path


def _traced(inputs, request):
    spans = inputs / "spans.bin"
    argv = [run.sys.executable, str(run.HERE / "tracer.py"), str(spans), request.id, "--", *request.argv]
    outcome = run.spawn(argv, inputs, run.child_env(), inputs)
    return outcome, layers.request_totals(*layers.read_spans(spans))


def test_traced_request_matches_the_pinned_output_and_repeats_its_counts(inputs):
    workload = workloads.WORKLOADS["cartier-gfp"]
    request = next(r for r in workload.requests if r.id == "cartier a1-quadric.json --p 2 --bound 3 --format json")
    pinned = json.loads(run.REFERENCE.read_text())[workload.name][request.id]
    first, totals = _traced(inputs, request)
    second, again = _traced(inputs, request)
    assert run.check(request, first, pinned) is None
    assert run.check(request, second, pinned) is None
    counts = {k: v for k, v in totals.items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in again.items() if not k.endswith("_s")}
    assert counts["cartier.phi_calls"] > 0 and counts["cones.box_points"] == 13**2 + 7**2
    assert totals["cartier.phi_s"] > 0 and "linalg.sparse_rank_s" not in totals


def test_plain_request_with_tampered_reference_fails(inputs):
    workload = workloads.WORKLOADS["oracle-unsplit"]
    request = next(r for r in workload.requests if r.id == "vm orthant-2.json --degree=-1,0 --format json")
    pinned = json.loads(run.REFERENCE.read_text())[workload.name][request.id]
    outcome = run.spawn([run.sys.executable, "-m", "toricdiff", *request.argv], inputs, run.child_env(), inputs)
    assert run.check(request, outcome, pinned) is None
    assert "digest" in run.check(request, outcome, dict(pinned, stdout_sha256="0" * 64))

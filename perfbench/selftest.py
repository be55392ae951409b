"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

They run requests in-process on small rings, so they take seconds, and they
are kept out of the package's own test suite.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import ebring  # noqa: E402
from oracles import check, label_free, load_goldens  # noqa: E402
from run import Bench  # noqa: E402
from tracing import LAYERS, Tracer, layer_totals  # noqa: E402
from worker import run_pass  # noqa: E402
from workloads import WORKLOADS, Request, generate  # noqa: E402

SMALL = [
    Request("invariants", atoms=(("Z", 12),), exact=True),
    Request("invariants", atoms=(("poly", 2, (0, 0, 1)), ("GF", 3)), exact=True,
            relabel=False),
    Request("davenport", factors=(2, 4)),
    Request("crosscheck-poly", p=3, f=(0, 0, 1, 1)),
    Request("inspect-maxideals", p=2, f=(0, 0, 0, 1, 1)),
]


def _run_generated(requests, seed, tmp_path):
    gens, files = generate("small", requests, seed, 0, str(tmp_path))
    for path, text in files.items():
        Path(path).write_text(text, encoding="utf-8")
    doc = run_pass([g.argv for g in gens])
    return gens, doc


def test_generator_keeps_label_free_invariants(tmp_path):
    gens, doc = _run_generated(SMALL, 0, tmp_path)
    goldens = {g.source.key: r["stdout"] for g, r in zip(gens, doc["requests"])}
    for seed in (1, 2, 3, 4):
        gens, doc = _run_generated(SMALL, seed, tmp_path)
        assert not any(g.canonical for g in gens
                       if g.source.kind == "invariants" and g.source.relabel)
        for gen, res in zip(gens, doc["requests"]):
            assert res["code"] == 0, res["stderr"]
            kind = gen.source.kind
            assert label_free(kind, res["stdout"]) == label_free(kind, goldens[gen.source.key])
            assert check(gen, res, goldens) == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_golden_fails_one_request(workload, tmp_path):
    goldens = load_goldens()
    gens, _ = generate(workload, WORKLOADS[workload], 0, 0, str(tmp_path))
    doc = {"requests": [{"code": 0, "stdout": goldens[g.source.key]} for g in gens]}
    bench = Bench(workload, 0, tmp_path)
    bench.record("clean", gens, doc)
    assert (bench.attempted, bench.failed) == (len(gens), 0)

    key = gens[-1].source.key
    bench.goldens = dict(goldens, **{key: goldens[key].replace("1", "2", 1)})
    bench.record("corrupt", gens, doc)
    assert (bench.attempted, bench.failed) == (2 * len(gens), 1)


def test_self_times_sum_to_traced_wall(tmp_path):
    gens, files = generate("small", SMALL, 1, 0, str(tmp_path))
    for path, text in files.items():
        Path(path).write_text(text, encoding="utf-8")
    original = ebring.ideals.ideal_product
    tracer = Tracer()
    doc = run_pass([g.argv for g in gens], tracer)
    assert ebring.ideals.ideal_product is original
    assert all(r["code"] == 0 for r in doc["requests"])
    totals = layer_totals(doc["spans"])
    assert set(totals) == set(LAYERS)
    assert totals["cli"]["calls"] == len(gens)
    assert totals["search"]["calls"] >= 3
    self_sum = sum(row["self_s"] for row in totals.values())
    # What lies outside the request spans is the client loop itself.
    assert doc["wall_s"] * 0.95 - 0.01 <= self_sum <= doc["wall_s"]


def test_reference_job_runs_around_requests_not_inside(tmp_path):
    gens, _ = generate("small", SMALL[3:], 0, 0, str(tmp_path))
    calls = []

    def gauge():
        calls.append(len(calls))
        return 1.0, 1.0

    doc = run_pass([g.argv for g in gens], gauge=gauge)
    assert len(doc["gauges"]) == len(calls) == len(gens) + 1
    assert doc["wall_s"] == sum(r["seconds"] for r in doc["requests"])
    assert 0 < doc["peak_rss_mb"] < 4096

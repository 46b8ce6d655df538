"""The benchmark's own checks: oracle, metric names, short runs."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import workload as wl
from perfbench.oracle import check_answers, max_truth, sum_truth, visible_sum_truth

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _records(n: int = 5000) -> wl.Records:
    return wl.make_records(7, n)


def test_sum_and_max_truth_match_brute_force():
    records = _records()
    rng = np.random.default_rng(0)
    lows, highs = wl.query_ranges(rng, records.keys, 300)
    sums = sum_truth(records.keys, records.sums, lows, highs)
    maxima = max_truth(records.keys, records.walk, lows, highs)
    for i in range(lows.size):
        inside = (records.keys >= lows[i]) & (records.keys <= highs[i])
        assert sums[i] == records.sums[inside].sum()
        expected = records.walk[inside].max() if inside.any() else np.nan
        assert maxima[i] == expected or (np.isnan(expected) and np.isnan(maxima[i]))


def test_visible_truth_counts_only_acknowledged_chunks():
    records = _records()
    keys, sums = wl.ingest_rows(3, 4)
    lows = np.array([0.0, wl.KEY_SPAN])
    highs = np.array([wl.KEY_SPAN * 2, wl.KEY_SPAN * 2])
    truth = visible_sum_truth(records.keys, records.sums, keys, sums, wl.INGEST_CHUNK,
                              np.array([0, 2]), lows, highs)
    assert truth[0] == records.sums.sum()
    assert truth[1] == sums[: 2 * wl.INGEST_CHUNK].sum()


def test_oracle_rejects_a_perturbed_answer():
    truth = np.array([1000.0, 5.0, 40000.0, np.nan])
    bounds = np.array([200.0, 0.0, 200.0, np.nan])
    guaranteed = np.ones(4, dtype=bool)
    fallback = np.array([False, True, False, True])
    values = np.array([1150.0, 5.0, 40100.0, np.nan])
    misses, verdict = check_answers(values, guaranteed, fallback, bounds, truth, None)
    assert not misses.any() and verdict.misses == 0

    for i, bad in ((0, 1201.0), (1, 5.5), (3, 1.0)):
        perturbed = values.copy()
        perturbed[i] = bad
        misses, verdict = check_answers(perturbed, guaranteed, fallback, bounds, truth, None)
        assert misses.tolist() == [j == i for j in range(4)]
        assert verdict.misses == 1
    # Within the absolute bound but outside the relative one.
    misses, _ = check_answers(values, guaranteed, fallback, bounds, truth, 0.1)
    assert misses.tolist() == [True, False, False, False]


def test_metric_names_are_well_formed_and_match_the_code():
    from perfbench.layers import PER_LAYER_UNITS
    from perfbench.run import E2E_UNITS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    assert all(NAME.fullmatch(name) for name in e2e + layers)
    assert e2e == list(E2E_UNITS) and layers == list(PER_LAYER_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert units == {**E2E_UNITS, **PER_LAYER_UNITS}


def _short_run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--n", "5000"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_short_run_completes_and_is_correct(workload):
    from perfbench.run import E2E_UNITS

    result = _short_run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(E2E_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_short_traced_run_reports_every_layer():
    from perfbench.layers import PER_LAYER_UNITS

    result = _short_run("ingest-mixed", 1)
    assert result["correct"]
    assert set(result["metrics"]) == set(PER_LAYER_UNITS)

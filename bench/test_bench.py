"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import lubm  # noqa: E402
import run  # noqa: E402
from parteval import parse_sparql  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)


def inputs(workload, seed):
    spec = lubm.WORKLOADS[workload]
    data = lubm.generate(seed, spec["scale"])
    pool = lubm.query_pool(data, seed, spec["mix"], spec["pool"])
    return data.ntriples, json.dumps(pool).encode("utf-8")


@pytest.mark.parametrize("workload", sorted(lubm.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    assert inputs(workload, 3) == inputs(workload, 3)
    data_a, queries_a = inputs(workload, 3)
    data_b, queries_b = inputs(workload, 4)
    assert data_a != data_b
    assert queries_a != queries_b


def test_workloads_match_contract():
    assert sorted(w["name"] for w in CONTRACT["workloads"]) == \
        sorted(lubm.WORKLOADS)


@pytest.mark.parametrize("seed", [1, 2])
def test_every_generated_query_parses(seed):
    for spec in lubm.WORKLOADS.values():
        data = lubm.generate(seed, spec["scale"])
        for _, text in lubm.query_pool(data, seed, spec["mix"], spec["pool"]):
            parse_sparql(text)
    oracle_data = lubm.generate(seed, lubm.ORACLE_SCALE)
    dealer = lubm.Dealer(__import__("random").Random(seed))
    for name in lubm.BGP_TEMPLATES:
        gq = parse_sparql(lubm.instantiate(name, oracle_data, dealer))
        assert gq.node.graph.n <= 8


def bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py"] + args, cwd=cwd,
        capture_output=True, text=True, timeout=300)


def test_timings_scale_by_the_nearby_calibrations():
    # the host runs at half speed for the last three queries: scaled by
    # the median calibration around them, all six read the same
    cals = [run.CAL_REF_S] * 3 + [2 * run.CAL_REF_S] * 3
    seconds = [0.010] * 3 + [0.020] * 3
    scaled = run.at_reference_speed(seconds, cals, 1)
    assert scaled == pytest.approx([0.010, 0.010, 0.010, 0.010, 0.010,
                                    0.010])
    assert run.at_reference_speed([0.5], [0.5 * run.CAL_REF_S], 0) == \
        pytest.approx([1.0])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_smoke_run_reports_exactly_the_contract_metrics(trace, section):
    out = bench(["--workload", "lubm-central", "--seed", "1",
                 "--seconds", "1", "--trace", str(trace)])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in CONTRACT[section]}
    got = {name: cell["unit"] for name, cell in result["metrics"].items()}
    assert got == want


def test_a_query_that_raises_fails_the_run():
    work = run.work_dir("selftest")
    try:
        pool = run.prepare(work, "lubm-central", 1, pool_size=4)
        ref = run.reference(work)
        pool[1] = [pool[1][0], "SELECT ?x WHERE { ?x"]
        with open(os.path.join(work, "queries.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(pool, fh)
        result, problems = run.judge(
            pool, ref, run.timed(work, pool, ref, 0.0, 0), 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert result["failed"] == 1
    assert result["correct"] is False
    assert any(line.startswith("query 1 raised") for line in problems)


def test_a_query_that_outlives_the_watchdog_is_killed(monkeypatch):
    monkeypatch.setattr(run, "QUERY_LIMIT_S", 1e-3)
    work = run.work_dir("selftest")
    try:
        pool = run.prepare(work, "lubm-central", 1, pool_size=4)
        result = run.timed(work, pool, None, 0.0, 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert len(result["killed"]) == 1
    assert result["attempted"] == len(result["latencies"]) + 1


def test_without_sources_exits_nonzero_and_prints_no_result():
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in CONTRACT["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        out = bench(["--workload", "lubm-central", "--seed", "1",
                     "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout

"""Query benchmark for parteval on seeded LUBM-shaped data.

    python3 bench/run.py --workload lubm-central --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

The parent process generates the inputs from --seed, computes reference
answers in one child process, then runs the timed closed loop in another
child under a watchdog, checks every answer and prints one JSON object as
the last line of standard output.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import lubm  # noqa: E402
from lubm import WORKLOADS  # noqa: E402

QUERY_LIMIT_S = 30.0       # watchdog: one query
SETUP_LIMIT_S = 60.0       # watchdog: start-up and set-up
REFERENCE_LIMIT_S = 120.0  # watchdog: the whole reference process

# Timings are reported at a reference host speed: each is multiplied by
# CAL_REF_S over the time the worker's calibration work took next to it
# (see worker.calibrate), so the figures read as if that work took
# exactly CAL_REF_S.  Between queries it takes 1.0-1.3 ms on a quiet
# 2 GHz Xeon vCPU, and twice that when the host is busy.
CAL_REF_S = 0.001
CAL_WINDOW = 10   # a query's host speed: median over the 2*10+1 nearest

E2E_UNITS = {"setup_s": "s", "query_p50_ms": "ms", "query_p90_ms": "ms",
             "throughput_qps": "1/s", "peak_rss_mb": "MB",
             "setup_peak_mb": "MB"}


class Child:
    """A worker process whose JSON-line events are read with a timeout."""

    def __init__(self, args):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")] + args,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
            text=True)
        self.events = queue.Queue()
        self.stderr = []
        self._readers = [
            threading.Thread(target=self._pump, args=(self.proc.stdout, True)),
            threading.Thread(target=self._pump, args=(self.proc.stderr, False)),
        ]
        for t in self._readers:
            t.start()

    def _pump(self, stream, is_events):
        for line in stream:
            if is_events:
                self.events.put(json.loads(line))
            else:
                self.stderr.append(line)
        if is_events:
            self.events.put(None)

    def next(self, timeout):
        """The next event, None at end of stream; raises queue.Empty when
        nothing arrives within timeout seconds."""
        return self.events.get(timeout=timeout)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for t in self._readers:
            t.join()
        self.proc.stdout.close()
        self.proc.stderr.close()


class BenchError(Exception):
    pass


def prepare(work, workload, seed, scale=None, pool_size=None):
    """Write the generated inputs to work; scale and pool_size override
    the workload's own."""
    spec = WORKLOADS[workload]
    data = lubm.generate(seed, scale or spec["scale"])
    pool = lubm.query_pool(data, seed, spec["mix"], pool_size or spec["pool"])
    with open(os.path.join(work, "input.nt"), "wb") as fh:
        fh.write(data.ntriples)
    with open(os.path.join(work, "queries.json"), "w", encoding="utf-8") as fh:
        json.dump(pool, fh)
    with open(os.path.join(work, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump({"root": ROOT, "workload": workload, "seed": seed}, fh)
    return pool


def reference(work):
    child = Child(["reference", work])
    try:
        deadline = time.monotonic() + REFERENCE_LIMIT_S
        while True:
            event = child.next(max(0.0, deadline - time.monotonic()))
            if event is None:
                raise BenchError("reference process failed:\n"
                                 + "".join(child.stderr[-20:]))
            if event["event"] == "reference":
                return event
    except queue.Empty:
        raise BenchError("reference process timed out") from None
    finally:
        child.stop()


def timed(work, pool, ref, seconds, trace):
    """Run the closed loop in a worker under the watchdog; returns the
    collected run.  A query that does not report back within
    QUERY_LIMIT_S gets the worker killed and ends the run.  Without ref,
    answers are not checked."""
    run = {"setup": None, "setup_cals": None, "latencies": [], "cals": [],
           "attempted": 0, "errors": [], "wrong": [], "killed": [],
           "rss_mb": 0.0, "setup_peak_mb": 0.0, "layers": None}
    child = Child(["timed", work, "--seconds", repr(seconds),
                   "--trace", str(trace)])
    next_i = 0   # the worker answers the pool in order, from its start
    try:
        limit = SETUP_LIMIT_S
        while True:
            event = child.next(limit)
            if event is None:
                break
            kind = event["event"]
            if kind == "setup":
                run["setup"] = event["seconds"]
                run["setup_cals"] = event.get("cals")
                run["setup_peak_mb"] = event.get("peak_mb", 0.0)
                limit = QUERY_LIMIT_S
            elif kind == "done":
                i = event["i"]
                next_i = (i + 1) % len(pool)
                run["attempted"] += 1
                if "error" in event:
                    run["errors"].append((i, event["error"]))
                elif ref is not None and event["digest"] != ref["digests"][i]:
                    run["wrong"].append(i)
                else:
                    run["latencies"].append(event["seconds"])
                    run["cals"].append(event.get("cal"))
            elif kind == "end":
                run["setup"] = event.get("setup_seconds", run["setup"])
                run["setup_cals"] = event.get("setup_cals", run["setup_cals"])
                run["rss_mb"] = event.get("rss_mb", 0.0)
                run["layers"] = event.get("metrics")
                return run
    except queue.Empty:
        if run["setup"] is not None:
            # the query after the last one answered outlived the watchdog
            run["attempted"] += 1
            run["killed"].append(next_i)
            return run
    finally:
        child.stop()
    raise BenchError("worker %s:\n%s"
                     % ("failed during set-up" if run["setup"] is None
                        else "died", "".join(child.stderr[-20:])))


def at_reference_speed(seconds, cals, window):
    """Each timing times CAL_REF_S over the median of the calibrations
    taken within window places of it."""
    return [s * CAL_REF_S
            / statistics.median(cals[max(0, i - window):i + window + 1])
            for i, s in enumerate(seconds)]


def metrics_of(run):
    if len(run["latencies"]) < 2:
        raise BenchError("fewer than two answered queries")
    lat = sorted(at_reference_speed(run["latencies"], run["cals"],
                                    CAL_WINDOW))
    setups = at_reference_speed(run["setup"], run["setup_cals"], 0)
    values = {
        "setup_s": statistics.median(setups),
        "query_p50_ms": 1000.0 * statistics.median(lat),
        "query_p90_ms": 1000.0 * statistics.quantiles(lat, n=10)[8],
        "throughput_qps": len(lat) / sum(lat),
        "peak_rss_mb": run["rss_mb"],
        "setup_peak_mb": run["setup_peak_mb"],
    }
    return {name: {"value": v, "unit": E2E_UNITS[name]}
            for name, v in values.items()}


def work_dir(tag):
    """A fresh directory for one run's files, inside the checkout."""
    path = os.path.join(ROOT, ".bench_work", "%s-%d" % (tag, os.getpid()))
    os.makedirs(path)
    return path


def run_workload(workload, seed, seconds, trace):
    """One benchmark run; returns (result dict, problems list, run)."""
    work = work_dir("%s-%d" % (workload, seed))
    try:
        pool = prepare(work, workload, seed)
        ref = reference(work)
        run = timed(work, pool, ref, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return judge(pool, ref, run, trace) + (run,)


def host_note(run):
    """The run's raw wall-clock median and host speed, for the reader."""
    return ("# wall clock: query p50 %.6g ms, calibration median %.4g ms "
            "(reference %g ms)"
            % (1000.0 * statistics.median(run["latencies"]),
               1000.0 * statistics.median(run["cals"]), 1000.0 * CAL_REF_S))


def judge(pool, ref, run, trace):
    """The result of a run: correct only if the oracle cross-check held
    and no query was wrong, raised or was killed."""
    problems = []
    if not ref["oracle"]["ok"]:
        problems.append("oracle mismatch: %s" % json.dumps(ref["oracle"]))
    for i in run["wrong"]:
        problems.append("query %d differs from reference: %s"
                        % (i, pool[i][1].strip()))
    for i, err in run["errors"]:
        problems.append("query %d raised %s" % (i, err))
    for i in run["killed"]:
        problems.append("query %d killed by the watchdog after %g s"
                        % (i, QUERY_LIMIT_S))
    failed = len(run["wrong"]) + len(run["errors"]) + len(run["killed"])
    if trace and run["layers"] is None:
        raise BenchError("traced run did not finish: " + "; ".join(problems))
    metrics = run["layers"] if trace else metrics_of(run)
    result = {"correct": ref["oracle"]["ok"] and failed == 0,
              "attempted": run["attempted"], "failed": failed,
              "metrics": metrics}
    return result, problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "parteval", "engine.py")):
        print("error: no parteval sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    status = 0
    for name in names:
        try:
            result, problems, run = run_workload(name, args.seed,
                                                 args.seconds, args.trace)
        except BenchError as exc:
            print("error: %s: %s" % (name, exc), file=sys.stderr)
            return 2
        for line in problems:
            print("%s: %s" % (name, line), file=sys.stderr)
        if not result["correct"]:
            status = 1
        results[name] = result
        print("# %s: attempted %d, failed %d, correct %s"
              % (name, result["attempted"], result["failed"],
                 result["correct"]))
        for metric, cell in sorted(result["metrics"].items()):
            print("#   %-36s %14.6g %s" % (metric, cell["value"], cell["unit"]))
        if not args.trace:
            print(host_note(run))
    last = results[names[0]] if len(names) == 1 else results
    print(json.dumps(last, sort_keys=True))
    return status


if __name__ == "__main__":
    sys.exit(main())

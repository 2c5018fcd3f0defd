"""Scale report: the lubm-central query mix on graphs of doubling size.

    python3 bench/scale.py [--seed 1]

Each size runs one pass over a 20-query pool of the lubm-central mix
(k=4 uniform hash, centralized assembly), under the benchmark's own
per-query watchdog (run.QUERY_LIMIT_S).  Sizes double (departments 1, 2,
4, ...) until a query outlives the watchdog; that size is reported as a
timeout, and larger sizes are not tried.  The slope is a least-squares fit of
log(mean query latency) against log(triples) over the sizes that
finished: 1 means linear growth, 2 quadratic.

Diagnostic only, not gated: answers are not checked against a reference
here.  The report is printed and written to bench/out/scale-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import lubm  # noqa: E402
import run  # noqa: E402

WORKLOAD = "lubm-central"
POOL = 20


def measure(departments, seed):
    scale = lubm.Scale(departments=departments)
    work = run.work_dir("scale-%d" % departments)
    try:
        pool = run.prepare(work, WORKLOAD, seed, scale=scale, pool_size=POOL)
        result = run.timed(work, pool, None, 0.0, 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    row = {"departments": departments,
           "triples": lubm.generate(seed, scale).n_triples,
           "queries": len(result["latencies"])}
    if result["killed"] or result["errors"]:
        row["timeout"] = bool(result["killed"])
        row["errors"] = [err for _, err in result["errors"]]
        return row
    lat = result["latencies"]
    row.update(mean_ms=1000.0 * statistics.mean(lat),
               p50_ms=1000.0 * statistics.median(lat),
               max_ms=1000.0 * max(lat))
    return row


def slope(rows):
    """Least-squares slope of log(mean latency) over log(triples)."""
    pts = [(math.log(r["triples"]), math.log(r["mean_ms"]))
           for r in rows if "mean_ms" in r]
    if len(pts) < 2:
        return None
    mx = statistics.mean(x for x, _ in pts)
    my = statistics.mean(y for _, y in pts)
    num = sum((x - mx) * (y - my) for x, y in pts)
    den = sum((x - mx) ** 2 for x, _ in pts)
    return num / den


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    rows = []
    departments = 1
    while True:
        row = measure(departments, args.seed)
        rows.append(row)
        if "mean_ms" in row:
            print("departments %3d  triples %6d  mean %9.1f ms  p50 %9.1f ms"
                  "  max %9.1f ms" % (departments, row["triples"],
                                      row["mean_ms"], row["p50_ms"],
                                      row["max_ms"]), flush=True)
        else:
            print("departments %3d  triples %6d  %s after %d queries"
                  % (departments, row["triples"],
                     "TIMEOUT" if row.get("timeout") else "ERROR",
                     row["queries"]), flush=True)
            break
        departments *= 2
    fit = slope(rows)
    first_timeout = next((r["triples"] for r in rows if r.get("timeout")),
                         None)
    report = {"workload": WORKLOAD, "seed": args.seed,
              "query_limit_s": run.QUERY_LIMIT_S, "sizes": rows,
              "slope_latency_vs_triples": fit,
              "first_timeout_triples": first_timeout}
    print("log-log slope of mean latency against triples: %s"
          % ("n/a" if fit is None else "%.2f" % fit))
    print("first size that timed out: %s"
          % ("none" if first_timeout is None else
             "%d triples" % first_timeout))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "scale-%d.json" % args.seed), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of loosegeo: one workload per process, every output checked.

Run from the repository root:

    env PYTHONHASHSEED=0 python3 perfbench/run.py --workload stabilizer \
        --seed 1 --seconds 30 --trace 0

With --trace 0 the run repeats whole rounds of the workload's cells, each after
SETUPS_PER_ROUND fresh set-ups, until --seconds is used up, and reports wall_s
(the sum over cells of each cell's fastest time in the run), setup_s (median
set-up) and peak_rss_mib.  With --trace 1 it does the same untraced, then sets
up once more and runs one round with every public function of loosegeo's
layers wrapped (see tracing.py), and reports the per-layer metrics.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

import tracing
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SETUPS_PER_ROUND = 3
MODULES = ("gfq", "formats", "graphs", "scheme", "permgroup", "autsearch", "matrices",
           "theorems", "cli")


class Loosegeo:
    """A fresh import of the package under src/, one attribute per module."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "loosegeo" or n.startswith("loosegeo.")]:
            del sys.modules[name]
        for short in MODULES:
            setattr(self, short, importlib.import_module(f"loosegeo.{short}"))
        where = [os.path.abspath(p) for p in sys.modules["loosegeo"].__path__]
        if where != [os.path.join(SRC, "loosegeo")]:
            raise SystemExit(f"error: loosegeo imported from {where}, not from {SRC}")


def setup(workload, tracer=None):
    """Import loosegeo, parse the workload's graphs and build its field tables."""
    lg = Loosegeo()
    if tracer is not None:
        tracer.install("loosegeo")
    graphs = workload.parse(lg)
    for q in workload.qs:
        lg.gfq.get_field(q)
    workload.capture(lg)
    return lg, graphs


def run_round(workload, lg, graphs) -> tuple[float, dict, list, int]:
    """All cells once: (wall seconds, outputs by cell, seconds per cell, failed ops)."""
    outputs, cell_s, failed = {}, [], 0
    t0 = perf_counter()
    for cell in workload.cells():
        c0 = perf_counter()
        try:
            outputs[cell] = workload.run_cell(lg, graphs, cell)
        except Exception:
            traceback.print_exc()
            # a suite cell holds every report of the suite
            failed += workload.ops_per_round() // len(workload.cells())
        cell_s.append(perf_counter() - c0)
    return perf_counter() - t0, outputs, cell_s, failed


def measure(workload, seconds: float) -> dict:
    """Whole rounds until the next one would end after `seconds`.  Before
    each round the run sets up SETUPS_PER_ROUND times and the round uses the
    last set-up, so set-up times are sampled across the whole run.  The
    garbage the set-ups leave is collected before the round starts, so every
    round starts from the same heap.  Round 1's outputs are kept for the
    checks; every later round must repeat them."""
    rounds, cells, setups, first = [], [], [], None
    failed = 0
    repeats_ok = True
    begin = perf_counter()
    while True:
        for _ in range(SETUPS_PER_ROUND):
            t0 = perf_counter()
            lg, graphs = setup(workload)
            setups.append(perf_counter() - t0)
        gc.collect()
        wall, outputs, cell_s, nfail = run_round(workload, lg, graphs)
        rounds.append(wall)
        cells.append(cell_s)
        failed += nfail
        if first is None:
            first = outputs
        elif outputs != first:
            repeats_ok = False
        del outputs
        if perf_counter() - begin + wall > seconds:
            break
    return {"rounds": rounds, "cell_s": cells, "setup_s": setups, "outputs": first,
            "failed": failed, "attempted": len(rounds) * workload.ops_per_round(),
            "repeats_ok": repeats_ok}


def round_time(cell_s: list[list[float]]) -> float:
    """One round's wall time, as the sum over cells of each cell's fastest
    time in the run.  Every round does the same work (its outputs must repeat
    exactly and it starts from a collected heap), so time above a cell's
    fastest is interference from other load on the host, which comes in
    bursts of seconds to minutes; the fastest time of each cell keeps such
    bursts out even when they cover most of a round."""
    return sum(min(times) for times in zip(*cell_s))


def layer_metrics(tracer, check_ids, overhead: float) -> tuple[dict, dict]:
    s = tracer.summary()
    spans = s["spans"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def incl(name):
        return spans.get(name, {}).get("incl_s", 0.0)

    profile_calls = calls("scheme.SchemeModel.profile")
    stab_calls = calls("autsearch.collineation_stabilizes")
    counts = s["counts"]
    m = {
        "gfq.echelon.calls": (calls("gfq.echelon"), "count"),
        "gfq.echelon.self_s": (self_s("gfq.echelon"), "s"),
        "gfq.get_field.s": (incl("gfq.get_field"), "s"),
        "formats.parse.s": (s["formats_top_s"], "s"),
        "scheme.build_scheme.s": (incl("scheme.build_scheme"), "s"),
        "scheme.profile.calls": (profile_calls, "count"),
        "scheme.profile.self_s": (self_s("scheme.SchemeModel.profile"), "s"),
        "scheme.profile.misses": (s["profile_misses"], "count"),
        "scheme.profile.hit_ratio":
            (1 - s["profile_misses"] / profile_calls if profile_calls else 0.0, "ratio"),
        "scheme.count_in_subspace.self_s": (self_s("scheme.SchemeModel.count_in_subspace"), "s"),
        "scheme.classify_lines.self_s": (self_s("scheme.classify_lines"), "s"),
        "scheme.enumerate_subspaces.self_s": (self_s("scheme.enumerate_subspaces"), "s"),
        "autsearch.proj_aut_group.self_s": (self_s("autsearch.proj_aut_group"), "s"),
        "autsearch.collineation_stabilizes.calls": (stab_calls, "count"),
        "autsearch.collineation_stabilizes.self_s":
            (self_s("autsearch.collineation_stabilizes"), "s"),
        "autsearch.collineation_stabilizes.accept_ratio":
            (counts.get("collineation_stabilizes.accepted", 0) / stab_calls if stab_calls else 0.0,
             "ratio"),
        "autsearch.comb_aut_group.self_s": (self_s("autsearch.comb_aut_group"), "s"),
        "autsearch.comb_aut_group.perms": (counts.get("comb_aut_group.perms", 0), "count"),
        "autsearch.configurations.self_s":
            (self_s("autsearch.enumerate_roots", "autsearch.enumerate_fundaments"), "s"),
        "permgroup.generators_in": (counts.get("permgroup.generators_in", 0), "count"),
        "permgroup.chain.self_s": (self_s("permgroup.PermGroup.order", "permgroup.PermGroup.contains",
                                          "permgroup.PermGroup.sift"), "s"),
        "permgroup.pointwise_stabilizer.self_s": (self_s("permgroup.pointwise_stabilizer"), "s"),
        "permgroup.verify_central_product.self_s":
            (self_s("permgroup.verify_central_product"), "s"),
        "matrices.compose_check.calls": (calls("matrices.compose_check"), "count"),
        "matrices.compose_check.self_s": (self_s("matrices.compose_check"), "s"),
        "graphs.graph_aut_group_perms.self_s": (self_s("graphs.graph_aut_group_perms"), "s"),
    }
    for check in check_ids:
        m[f"theorems.{check}.s"] = (s["per_check_s"].get(check, 0.0), "s")
    m["trace.overhead_s"] = (overhead, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "loosegeo", "cli.py")):
        print(f"error: no loosegeo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload](ROOT, args.seed)

    run = measure(workload, args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = round_time(run["cell_s"])
    t0 = perf_counter()
    fails = workload.check(run["outputs"])
    check_s = perf_counter() - t0
    if not run["repeats_ok"]:
        fails.append("a later round's outputs differ from the first round's")
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "setup_s": run["setup_s"], "rounds_s": run["rounds"], "check_s": check_s,
              "cells": [list(c) for c in workload.cells()], "cell_s": run["cell_s"]}
    os.makedirs(OUT, exist_ok=True)

    if args.trace:
        tracer = tracing.Tracer()
        lg, graphs = setup(workload, tracer)
        gc.collect()
        traced_wall, outputs, cell_s, nfail = run_round(workload, lg, graphs)
        run["failed"] += nfail
        run["attempted"] += workload.ops_per_round()
        fails += [f"traced: {f}" for f in workload.check(outputs)]
        if outputs != run["outputs"]:
            fails.append("the traced round's outputs differ from the untraced ones")
        metrics, summary = layer_metrics(tracer, lg.theorems.CHECK_IDS, traced_wall - wall_s)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}"),
                     {"summary": summary, "metrics": metrics, "traced_cell_s": cell_s,
                      "traced_wall_s": traced_wall, "untraced_wall_s": wall_s})
    else:
        metrics = {"wall_s": {"value": wall_s, "unit": "s"},
                   "setup_s": {"value": statistics.median(run["setup_s"]), "unit": "s"},
                   "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"}}

    for f in fails:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    line = {"correct": not fails, "attempted": run["attempted"], "failed": run["failed"],
            "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**result, **line, "check_failures": fails}, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashing must repeat so that traced counts repeat run to run
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  {**os.environ, "PYTHONHASHSEED": "0"})
    raise SystemExit(main())

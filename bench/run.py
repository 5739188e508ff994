#!/usr/bin/env python3
"""timopigp benchmark: one workload, timed end to end or traced per layer.

Run from the root of a source checkout (the directory holding ``src/``
and ``BENCHMARK.json``):

    python3 bench/run.py --workload identify|sweep|place --seed N \
        --seconds S --trace 0|1

The run sets up its inputs several times (each time importing the package
in a fresh interpreter, then generating the inputs), runs rounds of the
workload's commands through ``timopigp.cli.main`` for about S seconds,
checks every round's outputs, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are BENCHMARK.json's end_to_end list; with
``--trace 1`` they are its per_layer list, from one traced round that
follows one untraced reference round.  Files go to ``.bench_out/``; the
run record of each run is ``run.json`` there.

Round times are scaled to a reference host speed: each is multiplied by
``PROBE_REF_S`` over the time of a fixed probe job measured around it
(see ``record.host_probe_s``).  The raw times are in ``run.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import record

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 5          # set-ups per run; setup_s is their median
WORKLOADS = ("identify", "sweep", "place")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_environment(args):
    """Single-threaded BLAS everywhere; serial sweeps when tracing."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if args.trace:
        # The study's pool would run its chains in other processes, whose
        # spans this process cannot see.
        os.environ["TIMO_PIGP_THREADS"] = "1"
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))


def fresh_import_s() -> float:
    """Wall time of importing the package's CLI in a new interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import timopigp.cli"],
                   check=True, env=os.environ.copy())
    return time.perf_counter() - t0


def probe(rec) -> float:
    with rec.phase("probe"):
        return record.host_probe_s()


def run_rounds(wl, seconds, min_rounds, rec, phase, errors):
    """Whole rounds, at least ``min_rounds``, ending nearest ``seconds``.

    The host probe runs before the first round and after each round, and
    each round keeps the mean of the two probes around it.
    """
    rounds = []
    t0 = time.perf_counter()
    before = probe(rec)
    while len(rounds) < min_rounds or (
            time.perf_counter() - t0
            + statistics.median(r.wall_s for r in rounds) / 2 < seconds):
        with rec.phase(phase):
            rnd = wl.run_round()
        after = probe(rec)
        rnd.extra["host_probe_s"] = (before + after) / 2
        before = after
        rounds.append(rnd)
        with rec.phase("check"):
            errors += wl.check(rnd)
    return rounds


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "timopigp" / "__init__.py").is_file():
        print(f"error: {SRC}/timopigp not found; run from the root of a "
              "timopigp source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pin_environment(args)

    import numpy
    import scipy

    import workloads

    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, out)
    rec = record.RunRecord(workload=args.workload, seed=args.seed,
                           seconds=args.seconds, trace=args.trace,
                           probe_ref_s=record.PROBE_REF_S)
    rec.data["host"].update(numpy=numpy.__version__, scipy=scipy.__version__)
    rec.data["env"] = {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "TIMO_PIGP_THREADS")}

    setups = []
    for _ in range(SETUPS):
        with rec.phase("setup"):
            t_import = fresh_import_s()
            t0 = time.perf_counter()
            wl.generate()
            setups.append({"import_s": t_import,
                           "generate_s": time.perf_counter() - t0})
    rec.data["setups"] = setups

    errors = []
    if args.trace:
        import spans
        # One untraced reference round, then the traced round.  A traced
        # sweep runs serially, so each of its rounds takes about 40 s.
        ref, = run_rounds(wl, 0, 1, rec, "reference", errors)
        tracer = spans.Tracer()
        tracer.install()
        try:
            with rec.phase("traced"):
                traced = wl.run_round()
        finally:
            tracer.uninstall()
        with rec.phase("check"):
            errors += wl.check(traced)
        all_rounds = [ref, traced]
        values = {"trace.overhead_ratio": traced.wall_s / ref.wall_s - 1.0}
        for key in ("identify.ess_min", "identify.ess_per_s",
                    "predict.draws_per_s", "place.greedy_s"):
            values[f"cli.{key}"] = ref.extra.get(key, 0.0)
        listed = spec["per_layer"]
        values.update(tracer.layer_metrics(
            [m["name"] for m in listed if m["name"] not in values]))
        with rec.phase("write_spans"):
            tracer.write_spans(out / "spans.csv")
        rec.data["functions"] = tracer.function_table()
    else:
        # Two rounds at least, so that every run compares a rerun's bytes.
        all_rounds = run_rounds(wl, args.seconds, 2, rec, "measure", errors)
        ref_s = record.PROBE_REF_S
        values = {
            "setup_s": statistics.median(s["import_s"] + s["generate_s"]
                                         for s in setups),
            "peak_rss_mb": record.peak_rss_mb(),
            "round_s": statistics.median(
                r.wall_s * ref_s / r.extra["host_probe_s"]
                for r in all_rounds),
            "work_per_s": statistics.median(
                r.work_per_s * r.extra["host_probe_s"] / ref_s
                for r in all_rounds),
        }
        listed = spec["end_to_end"]

    attempted = sum(r.attempted for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    rec.data.update(
        run_wall_s=time.perf_counter() - t_start,
        attempted=attempted, failed=failed, errors=errors,
        rounds=[{"wall_s": r.wall_s, "work_per_s": r.work_per_s,
                 "command_s": r.command_s, "attempted": r.attempted,
                 "failed": r.failed, **r.extra} for r in all_rounds],
        metrics=metrics)
    with open(out / "run.json", "w", encoding="utf-8") as fh:
        json.dump(rec.data, fh, indent=2)

    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"run record: {out / 'run.json'}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""weldlab benchmark: four seeded workloads, checked outputs, one JSON result.

Run from the repository root, against ./src, with no install:

    python3 bench/run.py --workload surface-sweep --seed 1 --seconds 15 --trace 0

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds, prints the per-layer metrics and the tracing overhead, and
writes the spans to bench/out/.  The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the line
before it counts the failed operations per fault label.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads as wk
from spans import Tracer

#: set-ups before the first round; before every later round one more runs,
#: and more while the set-ups since the first round have taken less than
#: SETUP_SHARE of the run, so a cheap set-up gets tens of samples a run
SETUP_REPEATS = 5
SETUP_SHARE = 0.1
LAYER_MODULES = ("hyperbolic", "fuchsian", "bowen_series", "mating_schema",
                 "welding", "correspondence")


class Lab:
    """The weldlab package and its layer modules, as imported for this run."""

    def __init__(self):
        self.package = importlib.import_module("weldlab")
        for name in LAYER_MODULES:
            setattr(self, name, importlib.import_module(f"weldlab.{name}"))


def _weldlab_modules() -> dict:
    return {k: v for k, v in sys.modules.items()
            if k == "weldlab" or k.startswith("weldlab.")}


def _set_up(args, ctx):
    """Import weldlab afresh and make the workload's inputs; return both and
    the time taken."""
    for name in _weldlab_modules():
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    lab = Lab()
    inputs = wk.make_inputs(lab, args.workload, args.seed, ctx)
    return lab, inputs, time.perf_counter() - t0


def _set_up_aside(args, ctx) -> float:
    """Time one more set-up, then put back the modules the run is using."""
    kept = _weldlab_modules()
    try:
        return _set_up(args, ctx)[2]
    finally:
        for name in _weldlab_modules():
            del sys.modules[name]
        sys.modules.update(kept)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wk.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-gallery" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _end_to_end(tally, setup_s, peak_mb):
    """Each timing from every operation's trimmed mean over its repeats in
    the run, scaled to the reference host by the run's pace (pace.py)."""
    loop, child = tally.pace.scale("loop"), tally.pace.scale("child")

    def means(metric, scale):
        return [t * scale for t in tally.means(metric)]
    surface = means("surface", loop)
    evals = means("eval", loop)
    tiles = means("tiles", loop)
    cli = means("cli", child)
    return {
        "setup_s": (setup_s * loop, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "surfaces_per_s": (len(surface) / sum(surface), "1/s"),
        "surface_p50_ms": (statistics.median(surface) * 1e3, "ms"),
        "surface_p90_ms": (statistics.quantiles(surface, n=10)[8] * 1e3, "ms"),
        "conj_ready_s": (sum(means("ready", loop)), "s"),
        "conj_evals_per_s": (len(evals) / sum(evals), "1/s"),
        "tiling_s": (sum(means("tiling", loop)), "s"),
        "bs_tiles_per_s": (sum(tally.made.values()) / sum(tiles), "1/s"),
        "cli_p50_ms": (statistics.median(cli) * 1e3, "ms"),
        "cli_total_s": (sum(cli), "s"),
    }


LAYER_UNITS = {"_s": "s", "_ms": "ms", "_bytes": "bytes", "_yield": "ratio"}


def _unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _per_layer(per_round, untraced, traced):
    """Median over traced rounds; counts repeat exactly from round to round."""
    out = {}
    for name in per_round[0]:
        out[name] = (statistics.median(r[name] for r in per_round), _unit(name))
    base = statistics.median(untraced)
    overhead = statistics.median(traced) - base
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_pct"] = (100.0 * overhead / base, "%")
    return out


def _round_layers(tracer: Tracer) -> dict:
    m = tracer.layer_metrics()
    m["cli.interp_floor_ms"] = statistics.median(tracer.samples["cli.interp_floor_ms"])
    m["cli.import_ms"] = statistics.median(tracer.samples["cli.import_ms"])
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    bench = Path(__file__).resolve().parent
    src = root / "src"
    if not (src / "weldlab" / "__init__.py").is_file():
        print("bench: ./src/weldlab not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = {k: v for k, v in os.environ.items() if k != "WELDLAB_TOL"}
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + ([env["PYTHONPATH"]]
                                                      if env.get("PYTHONPATH") else []))
    out_dir = bench / "out"
    out_dir.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        return _run(args, root, bench, src, out_dir,
                    wk.Context(root, bench, tmpdir, sys.executable, env))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _run(args, root, bench, src, out_dir, ctx) -> int:
    # byte-compile up front, so neither set-up nor the first child pays for it
    compileall.compile_dir(str(src / "weldlab"), quiet=1)
    setup = []
    for _ in range(SETUP_REPEATS):
        lab, inputs, dt = _set_up(args, ctx)
        setup.append(dt)
    if not Path(lab.package.__file__).resolve().is_relative_to(src.resolve()):
        print(f"bench: weldlab imported from {lab.package.__file__}, not ./src",
              file=sys.stderr)
        return 2

    tally = wk.Tally()
    start = time.perf_counter()
    untraced, traced, layers, iterations = [], [], [], []
    first_tracer = None
    aside_s = 0.0
    while True:
        t0 = time.perf_counter()
        # set-ups spread over the run meet the host as busy as the rounds do
        while untraced:
            setup.append(_set_up_aside(args, ctx))
            aside_s += setup[-1]
            if aside_s >= SETUP_SHARE * (time.perf_counter() - start):
                break
        t1 = time.perf_counter()
        wk.run_round(lab, args.workload, inputs, tally, ctx)
        untraced.append(time.perf_counter() - t1)
        if args.trace:
            tracer = Tracer()
            tally.tracer = tracer
            tracer.install(lab.package)
            t2 = time.perf_counter()
            try:
                wk.run_round(lab, args.workload, inputs, tally, ctx)
            finally:
                tracer.uninstall()
                tally.tracer = None
            traced.append(time.perf_counter() - t2)
            layers.append(_round_layers(tracer))
            if first_tracer is None:
                first_tracer = tracer
        iterations.append(time.perf_counter() - t0)
        # stop before a round that would end after --seconds
        if time.perf_counter() - start + statistics.median(iterations) > args.seconds:
            break

    if args.trace:
        metrics = _per_layer(layers, untraced, traced)
        first_tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl",
                           {"workload": args.workload, "seed": args.seed,
                            "round": 1, "traced_rounds": len(traced)})
    else:
        metrics = _end_to_end(tally, statistics.median(setup),
                              _peak_rss_mb(args.workload))

    for note in tally.notes:
        print(f"bench: {note}", file=sys.stderr)
    failed = sum(tally.failed.values())
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": len(untraced) + len(traced),
                      "round_s": statistics.median(untraced),
                      "pace_s": tally.pace.means(),
                      "failed_by_fault": {k: tally.failed.get(k, 0)
                                          for k in ("F1", "F2", "F3", "other")}},
                     sort_keys=True))
    print(json.dumps({"correct": tally.failed.get("other", 0) == 0,
                      "attempted": tally.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: inputs made from a seed, and rounds of checked operations.

Every workload runs all four families of operations, so that each run
reports every end-to-end metric.  One family is the workload's own and gets
its full input set; the other three get a small fixed-size probe set without
known faults, so the workload's load stays on the layers it was chosen for.

A round runs the workload's own operations once, split into chunks of about
0.1 to 0.3 s, with a pass over the in-process probe sets after each chunk
and a CLI probe after every third chunk.  Metrics rest on each operation's
mean over its repeats in the run, so the probe sets are small and run
often, and the largest own operations are kept to about a tenth of a
second: both get tens to hundreds of repeats a run.  Every round of a run
attempts the same operations.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import reference as ref
from pace import Pace, trimmed_mean

TAU = 2.0 * math.pi
#: seed of the probe sets, the same in every run
PROBE_SEED = 0
FAMILIES = ("surface", "circle", "tiling", "cli")

#: workload -> (its own family, chunks per round, each followed by a probe pass)
WORKLOADS = {
    "surface-sweep": ("surface", 3),
    "circle-dynamics": ("circle", 6),
    "tessellation": ("tiling", 6),
    "cli-gallery": ("cli", 22),
}
#: the CLI probe runs after every third chunk: once a round on
#: surface-sweep, twice on circle-dynamics and tessellation, so its mean
#: rests on some 25 invocations a run
CLI_PROBE_EVERY = 3

# -- surface sweep -------------------------------------------------------------

NEWTON_FULL = (3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 24, 32, 48, 64, 96, 128, 192,
               256, 384, 500)
NEWTON_PROBE = (3, 4, 5, 6)
RANDOM_FULL = 600
RANDOM_PROBE = 14

# -- circle dynamics -------------------------------------------------------------

ANGLES_FULL = 24
ANGLES_PROBE = 4
CIRCLE_PROBE = ((1, 3, "I"), (3, 1, "I"))
#: seeded evaluations stop where the nominal arc 2 pi / d^k would pass 2^-12
#: and 2^-20 of the circle; the narrowest arc seen there is ~1e-10, far from
#: double-precision collapse, so no seed can reach fault F2
SHALLOW_BITS, SHALLOW_CAP = 12, 12
DEEP_BITS, DEEP_CAP = 20, 30
#: fault F2: fixed angles at the depths ROADMAP quotes, where arcs collapse
F2_ANGLES = (1.0, 2.0, 3.0, 4.0, 5.0)
F2_DEPTHS = (12, 30)
#: the fixed (n, p, case, angle) pairs whose check passes today; a failure
#: there is a regression and counts under "other", every other pair is F2
F2_PASSING = frozenset(
    [(1, 3, "I", a) for a in F2_ANGLES] + [(3, 1, "I", a) for a in F2_ANGLES]
    + [(1, 4, "I", 4.0), (1, 4, "II", 2.0)])

# -- tessellation ------------------------------------------------------------------

#: (n, p, case, word length); group_elements matches the free-product ball here
TILINGS_FULL = ((3, 1, "I", 6), (1, 3, "I", 4), (1, 4, "I", 3), (1, 4, "II", 3),
                (4, 1, "I", 5), (3, 2, "I", 3), (5, 1, "I", 4))
TILINGS_PROBE = ((3, 1, "I", 3), (1, 3, "I", 3))
#: (n, p, case, factor, rank)
BS_TILES_FULL = ((1, 3, "I", False, 8), (1, 4, "I", False, 7), (1, 4, "II", False, 7),
                 (1, 5, "I", False, 5), (1, 6, "I", False, 5), (3, 1, "I", True, 8),
                 (4, 1, "I", True, 7), (3, 2, "I", True, 5), (5, 1, "I", True, 5),
                 (4, 2, "I", True, 3))
BS_TILES_PROBE = ((1, 3, "I", False, 5), (3, 1, "I", True, 5))
#: fault F1: the factor maps whose tiles are not merged today; factor
#: (3, 1) passes, and a failure there counts under "other"
F1_MAPS = frozenset({(4, 1, "I"), (3, 2, "I"), (5, 1, "I"), (4, 2, "I")})


def safe_depth(d: int, cap: int, bits: int) -> int:
    """Largest k <= cap with d^k <= 2^bits (at least 1)."""
    k = 1
    while k < cap and d ** (k + 1) <= 2 ** bits:
        k += 1
    return k


class Tally:
    """Operations attempted and failed, per fault label, and timings.

    ``times`` maps an operation's key (its family's metric name first) to
    its time in every repeat.  A metric sums or pools each operation's
    trimmed mean time in the run.  ``pace`` times the host between
    operations.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = Counter()
        self.notes = []
        self.times = defaultdict(list)
        self.made = {}          # bs tiles operation -> tiles it produced
        self.pace = Pace()
        self.tracer = None

    def means(self, metric):
        return [trimmed_mean(v) for k, v in self.times.items() if k[0] == metric]

    def run(self, name, fn, fault=None):
        """Run one operation; a failed check counts under its fault label."""
        self.attempted += 1
        frame = self.tracer.open(f"bench.{name}") if self.tracer else None
        try:
            fn()
        except ref.Mismatch as exc:
            self._fail(fault or "other", name, exc)
        except Exception as exc:  # the run goes on; the failure is counted
            self._fail("other", name, exc)
        finally:
            if frame is not None:
                self.tracer.close(frame)
            self.pace.tick()

    def _fail(self, label, name, exc):
        self.failed[label] += 1
        if len(self.notes) < 20:
            self.notes.append(f"{label} {name}: {type(exc).__name__}: {exc}")


# -- inputs --------------------------------------------------------------------------

def make_inputs(lab, workload: str, seed: int, ctx):
    """All inputs of a workload, numbered per family; the same seed gives
    the same inputs.  Probe sets are the same for every seed: drawn from
    the seed, their 14 random schemas alone varied in cost by a quarter."""
    own = WORKLOADS[workload][0]
    rng, fixed = random.Random(seed), random.Random(PROBE_SEED)
    return {fam: list(enumerate(MAKERS[fam](
                lab, fam == own,
                random.Random((rng if fam == own else fixed).getrandbits(64)), ctx)))
            for fam in FAMILIES}


def _surface_inputs(lab, full, rng, ctx):
    ms = lab.mating_schema
    out = [("gallery", name, *ms.paper_example(name)[:2]) for name in ms.PAPER_EXAMPLES]
    out += [("newton", n, *ms.newton_schema(n))
            for n in (NEWTON_FULL if full else NEWTON_PROBE)]
    out += [("random", i, *ms.random_schema(rng))
            for i in range(RANDOM_FULL if full else RANDOM_PROBE)]
    return out


def _circle_inputs(lab, full, rng, ctx):
    # every legal preset admits a conjugacy: n = 1 unfactored, n >= 3 factored
    presets = lab.fuchsian.legal_presets() if full else CIRCLE_PROBE
    k = ANGLES_FULL if full else ANGLES_PROBE
    out = []
    for (n, p, case) in presets:
        # one angle in the middle 80% of each of k equal strata keeps the
        # angles apart, so no two share a deep itinerary
        angles = [TAU * (i + 0.1 + 0.8 * rng.random()) / k for i in range(k)]
        d = n * p - 1
        out.append({"n": n, "p": p, "case": case, "angles": angles,
                    "shallow": safe_depth(d, SHALLOW_CAP, SHALLOW_BITS),
                    "deep": safe_depth(d, DEEP_CAP, DEEP_BITS),
                    "fault_angles": F2_ANGLES if full else ()})
    return out


def _tiling_inputs(lab, full, rng, ctx):
    ops = ([("tiling", t) for t in (TILINGS_FULL if full else TILINGS_PROBE)]
           + [("tiles", t) for t in (BS_TILES_FULL if full else BS_TILES_PROBE)])
    rng.shuffle(ops)
    return ops


class Command(NamedTuple):
    name: str
    argv: list
    svg: Path | None = None       # file the command writes, checked as XML
    twice: bool = False           # run again and require identical bytes
    check: Callable[[dict], None] | None = None   # spot check on the parsed JSON
    error: bool = False           # malformed: one weldlab: line, exit 1 or 2
    fault: str | None = None


def _cli_inputs(lab, full, rng, ctx):
    tmp = ctx.tmpdir
    if not full:
        return [Command("corr-tiling-probe",
                        ["corr", "tiling", "--n", "3", "--p", "1", "--len", "2",
                         "--svg", str(tmp / "probe.svg")], svg=tmp / "probe.svg",
                        check=lambda doc: ref.check_ball(3, 1, "I", 2, doc["tiles"]))]
    fixtures = sorted(p.relative_to(ctx.root).as_posix() for p in
                      (ctx.root / "src" / "weldlab" / "fixtures").glob("*.json"))
    schema = rng.choice(fixtures)
    gallery = rng.choice(["5.1", "5.2", "5.3", "5.4", "5.5", "final"])
    theta = [repr(rng.uniform(0.1, TAU - 0.1)) for _ in range(3)]
    w_re = repr(rng.uniform(0.05, 0.9))
    return [
        Command("group-info", ["group", "info", "--n", "3", "--p", "1", "--case", "I"],
                check=lambda doc: ref.check_signature(doc, 0, 1, (2, 3))),
        Command("group-check", ["group", "check", "--n", "1", "--p", "4"]),
        Command("bs-partition", ["bs", "partition", "--n", "3", "--p", "1", "--factor"],
                check=lambda doc: ref.check_degree(3, 1, doc["degree"])),
        Command("bs-eval", ["bs", "eval", "--n", "1", "--p", "4", "--theta", theta[0]]),
        Command("bs-orbit", ["bs", "orbit", "--n", "1", "--p", "4", "--theta", theta[1],
                             "--steps", "12"]),
        Command("bs-conjugacy", ["bs", "conjugacy", "--n", "3", "--p", "1", "--factor",
                                 "--theta", theta[2], "--depth", "12"],
                check=lambda doc: ref.check_radius(doc["radius"])),
        Command("bs-tiles", ["bs", "tiles", "--n", "1", "--p", "4", "--rank", "3",
                             "--svg", str(tmp / "tiles.svg")],
                svg=tmp / "tiles.svg", twice=True),
        Command("mate-build", ["mate", "build", schema]),
        Command("mate-report", ["mate", "report", schema]),
        Command("mate-verify-poly", ["mate", "verify-poly", "deg7_symmetric"]),
        Command("surface-report", ["surface", "report", "5.4"],
                check=lambda doc: ref.check_gallery(
                    "5.4", [c["genus"] for c in doc["components"]])),
        Command("surface-graph", ["surface", "graph", gallery, "--svg", str(tmp / "graph.svg")],
                svg=tmp / "graph.svg", twice=True),
        Command("surface-zip", ["surface", "zip", schema]),
        Command("corr-fibers", ["corr", "fibers", "--n", "3", "--p", "1", "--w-re", w_re]),
        Command("corr-branches", ["corr", "branches", "--n", "3", "--p", "1"]),
        Command("corr-tiling", ["corr", "tiling", "--n", "3", "--p", "1", "--len", "4",
                                "--svg", str(tmp / "tess.svg")],
                svg=tmp / "tess.svg", twice=True,
                check=lambda doc: ref.check_ball(3, 1, "I", 4, doc["tiles"])),
        Command("corr-recover", ["corr", "recover", "--n", "1", "--p", "4"]),
        Command("bad-theta-inf", ["bs", "eval", "--n", "1", "--p", "4", "--theta", "inf"],
                error=True, fault="F3"),
        Command("bad-newton-name", ["surface", "report", "5.6:x"], error=True, fault="F3"),
        Command("bad-case", ["group", "info", "--n", "2", "--p", "3"], error=True),
        Command("bad-rank", ["bs", "tiles", "--n", "1", "--p", "4", "--rank", "9"],
                error=True),
        Command("bad-file", ["surface", "report", "no-such-schema.json"], error=True),
    ]


MAKERS = {"surface": _surface_inputs, "circle": _circle_inputs,
          "tiling": _tiling_inputs, "cli": _cli_inputs}


# -- rounds ---------------------------------------------------------------------------

def run_round(lab, workload: str, inputs, tally: Tally, ctx):
    own, chunks = WORKLOADS[workload]
    ops = inputs[own]
    for k in range(chunks):
        ROUNDS[own](lab, ops[k * len(ops) // chunks:(k + 1) * len(ops) // chunks],
                    tally, ctx)
        for fam in FAMILIES:
            if fam not in (own, "cli"):
                ROUNDS[fam](lab, inputs[fam], tally, ctx)
        if own == "cli":
            if k % 2 == 0:
                tally.pace.time_child(ctx)
        elif k % CLI_PROBE_EVERY == CLI_PROBE_EVERY - 1:
            ROUNDS["cli"](lab, inputs["cli"], tally, ctx)
            tally.pace.time_child(ctx)
    if tally.tracer is not None:
        for _ in range(3):
            t0 = time.perf_counter()
            subprocess.run([ctx.python, "-c", "pass"], cwd=ctx.root, env=ctx.env,
                           check=True, timeout=60)
            tally.tracer.samples["cli.interp_floor_ms"].append(
                (time.perf_counter() - t0) * 1e3)


def _surface_round(lab, inputs, tally, ctx):
    ms, wl = lab.mating_schema, lab.welding

    for i, (kind, key, slots, contact) in inputs:
        def op():
            t0 = time.perf_counter()
            sr = wl.surface_report(wl.weld(ms.assemble(slots, contact)))
            tally.times["surface", i].append(time.perf_counter() - t0)
            ref.check_riemann_hurwitz([(c.euler_characteristic, c.genus, c.eta_invariant,
                                        c.fix_eta) for c in sr.components])
            ref.check_zipped([z["euler_characteristic"] for z in sr.zipped])
            genera = [c.genus for c in sr.components]
            if kind == "gallery":
                ref.check_gallery(key, genera)
            elif kind == "newton":
                ref.check_newton(key, genera)
        tally.run(f"surface.{kind}", op)


def _circle_round(lab, inputs, tally, ctx):
    bs = lab.bowen_series

    for i, case in inputs:
        n, p = case["n"], case["p"]
        state = {}

        def timed_value(h, theta, depth):
            t0 = time.perf_counter()
            v = h.value(theta, depth)
            tally.times["eval", i, theta, depth].append(time.perf_counter() - t0)
            return v

        def build():
            t0 = time.perf_counter()
            m = bs.bowen_series_map(n, p, case["case"], factor=n >= 3)
            h = bs.ConjugacyH(m)
            tally.times["ready", i].append(time.perf_counter() - t0)
            state["h"] = h
            ref.check_degree(n, p, bs.circle_degree(m))
            ref.check_markov(n, p, bs.markov_partition(m).transition)
            ref.check_cuts(n, p, h.cuts, h.base,
                           [bs.eval_circle_one_sided(m, c, side)
                            for c in h.cuts for side in (1, -1)])
        tally.run("circle.build", build)

        deep_values = []
        for theta in case["angles"]:
            def evaluate():
                h = state["h"]
                shallow = timed_value(h, theta, case["shallow"])
                deep = timed_value(h, theta, case["deep"])
                deep_values.append(deep[0])
                ref.check_nested(shallow, deep)
            tally.run("circle.eval", evaluate)

        tally.run("circle.order",
                  lambda: ref.check_circular_order(state["h"].base, deep_values))

        for theta in case["fault_angles"]:
            def collapse():
                h = state["h"]
                ref.check_nested(*(timed_value(h, theta, k) for k in F2_DEPTHS))
            tally.run("circle.fixed-angle", collapse,
                      fault=None if (n, p, case["case"], theta) in F2_PASSING else "F2")


def _tiling_round(lab, inputs, tally, ctx):
    bs, co, fu = lab.bowen_series, lab.correspondence, lab.fuchsian

    for i, (kind, params) in inputs:
        if kind == "tiling":
            n, p, case, length = params

            def tiling():
                preset = fu.build_group(n, p, case)
                t0 = time.perf_counter()
                rep = co.group_tiling(preset, length)
                tally.times["tiling", i].append(time.perf_counter() - t0)
                ref.check_ball(n, p, case, length, rep["count"])
                ref.check_distinct([t["word"] for t in rep["tiles"]])
                ref.check_tiles_disjoint(n, p, [(g.a, g.b, g.c, g.d) for g in
                                                (t["map"] for t in rep["tiles"])])
            tally.run("tiling.group", tiling)
        else:
            n, p, case, factor, rank = params

            def tiles():
                m = bs.bowen_series_map(n, p, case, factor=factor)
                t0 = time.perf_counter()
                levels = bs.tiles(m, rank)
                tally.times["tiles", i].append(time.perf_counter() - t0)
                counts = [len(level) for level in levels]
                tally.made[i] = sum(counts)
                ref.check_tile_counts(n, p, factor, rank, counts)
            tally.run("tiling.bs-tiles", tiles,
                      fault="F1" if factor and (n, p, case) in F1_MAPS else None)


def _cli_round(lab, inputs, tally, ctx):
    def invoke(key, argv, svg):
        if svg is not None and svg.exists():
            svg.unlink()
        if tally.tracer is not None:
            out = ctx.tmpdir / "child-trace.json"
            cmd = [ctx.python, str(ctx.bench / "launch.py"), str(out)] + argv
        else:
            cmd = [ctx.python, "-m", "weldlab.cli"] + argv
        t0 = time.perf_counter()
        r = subprocess.run(cmd, cwd=ctx.root, env=ctx.env, capture_output=True,
                           timeout=120)
        tally.times[key].append(time.perf_counter() - t0)
        if tally.tracer is not None:
            child = json.loads(out.read_text(encoding="utf-8"))
            tally.tracer.merge(child["aggregates"], child["spans"],
                               parent=tally.tracer.stack[-1][1])
        return r, (svg.read_bytes() if svg is not None and svg.exists() else None)

    for _, cmd in inputs:
        def op():
            r, image = invoke(("cli", cmd.name), cmd.argv, cmd.svg)
            stderr = r.stderr.decode("utf-8", "replace")
            if cmd.error:
                ref.check_cli_error(r.returncode, stderr)
                return
            if r.returncode != 0:
                raise ref.Mismatch(f"exit {r.returncode}: {stderr.strip()[-200:]}")
            doc = ref.check_cli_json(r.stdout.decode("utf-8"))
            if cmd.svg is not None:
                if image is None:
                    raise ref.Mismatch(f"{cmd.svg.name} was not written")
                ref.check_svg(image)
            if cmd.twice:
                r2, image2 = invoke(("cli", cmd.name, 2), cmd.argv, cmd.svg)
                if (r2.returncode, r2.stdout, image2) != (r.returncode, r.stdout, image):
                    raise ref.Mismatch("second run differs")
            if cmd.check is not None:
                cmd.check(doc)
        tally.run(f"cli.{cmd.name}", op, fault=cmd.fault)


ROUNDS = {"surface": _surface_round, "circle": _circle_round,
          "tiling": _tiling_round, "cli": _cli_round}


@dataclass(frozen=True)
class Context:
    """Where the run lives: checkout root, benchmark dir, scratch dir, child env."""

    root: Path
    bench: Path
    tmpdir: Path
    python: str
    env: dict

"""weldlab command-line driver.

Subcommands: group {info,check}, bs {eval,orbit,partition,conjugacy,tiles},
mate {build,report,verify-poly}, surface {report,graph,zip},
corr {fibers,branches,tiling,recover}.  JSON goes to stdout with sorted keys;
--svg writes figures.  Each command imports only the layers it runs.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import math
import os
import re
import sys

from . import MAX_DEPTH, SCHEMA_VERSION
from .errors import RankLimit, UsageError, WeldlabError


def _emit(doc):
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    if sys.stdout is None:      # file descriptor 1 was closed at start-up
        raise OSError(errno.EBADF, "stdout is closed")
    # json.dumps's encoder, in batches; a closed pipe can cut a write short
    # unreported, so the newline is a write of its own, which then fails
    chunks = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False).iterencode(doc)
    while batch := "".join(itertools.islice(chunks, 65536)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")
    sys.stdout.flush()          # inside main's guard, not at exit


def _write_svg(path, elements):
    """Write the SVG document element by element as the scene makes them; a
    path that cannot be written is a usage error."""
    from . import render
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(render.svg_document(elements))
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _mobius_json(m):
    return [[m.a.real, m.a.imag], [m.b.real, m.b.imag],
            [m.c.real, m.c.imag], [m.d.real, m.d.imag]]


def _preset(args):
    from . import fuchsian
    return fuchsian.build_group(args.n, args.p, args.case)


def _load_schema_arg(path):
    from . import mating_schema as ms
    if not os.path.exists(path):
        if path in ms.PAPER_EXAMPLES or ms.NEWTON_NAME.fullmatch(path):
            return ms.paper_example(path)
        raise UsageError(f"file not found: {path}")
    try:
        return ms.load_schema(path)
    except (OSError, ValueError, RecursionError) as exc:    # too deeply nested
        raise UsageError(f"cannot read schema {path}: {exc}") from exc


# -- group ------------------------------------------------------------------

def cmd_group_info(args):
    from . import fuchsian
    preset = _preset(args)
    sig = fuchsian.orbifold_signature(preset, extended=not args.plain)
    return {
        "group": preset.name,
        "n": preset.n, "p": preset.p, "case": preset.case,
        "signature": {"genus": sig.genus, "punctures": sig.punctures,
                      "cone_orders": list(sig.cone_orders)},
        "generators": {f"g{s}": _mobius_json(preset.first_sector[s - 1])
                       for s in range(1, preset.p + 1)},
        "rotation": _mobius_json(preset.rotation),
        "sigma": {str(s): preset.sigma[s] for s in preset.sigma},
    }


def cmd_group_check(args):
    from . import fuchsian
    preset = _preset(args)
    pairing = fuchsian.side_pairing_check(preset)
    poincare = fuchsian.poincare_check(preset)
    return {
        "group": preset.name,
        "pairing_max_residual": pairing["max_residual"],
        "cycles": [{"vertices": c["vertices"],
                    "log_multiplier_residual": c["log_multiplier_residual"]}
                   for c in poincare["cycles"]],
        "rotation_order": poincare["rotation_order"],
        "ok": True,
    }


# -- bs ---------------------------------------------------------------------

def _bsmap(args):
    from . import bowen_series as bs
    preset = _preset(args)
    return bs.bowen_series_from_preset(preset, factor=args.factor)


def cmd_bs_eval(args):
    from . import bowen_series as bs
    m = _bsmap(args)
    return {"map": m.name, "theta": args.theta,
            "image": bs.eval_circle(m, args.theta)}


def cmd_bs_orbit(args):
    from . import bowen_series as bs
    m = _bsmap(args)
    return {"map": m.name, "theta": args.theta, "steps": args.steps,
            "orbit": bs.circle_orbit(m, args.theta, args.steps)}


def cmd_bs_partition(args):
    from . import bowen_series as bs
    m = _bsmap(args)
    part = bs.markov_partition(m)
    return {
        "map": m.name,
        "degree": bs.circle_degree(m),
        "breakpoints": list(part.breakpoints),
        "transition": [list(r) for r in part.transition],
    }


def cmd_bs_conjugacy(args):
    from . import bowen_series as bs
    if args.depth > MAX_DEPTH:
        raise UsageError(f"--depth must be <= {MAX_DEPTH}")
    m = _bsmap(args)
    h = bs.ConjugacyH(m)
    val, rad = h.value(args.theta, args.depth)
    return {"map": m.name, "theta": args.theta, "depth": args.depth,
            "value": val, "radius": rad, "cuts": list(h.cuts)}


def cmd_bs_tiles(args):
    from . import bowen_series as bs
    from . import render
    if args.rank > bs.MAX_RANK:
        raise UsageError(f"--rank must be <= {bs.MAX_RANK}")
    m = _bsmap(args)
    levels = bs.tiles(m, args.rank)
    if args.svg is not None:
        _write_svg(args.svg, render.tiles_scene(levels, factor=m.factor,
                                                n=m.preset.n))
    return {
        "map": m.name, "rank": args.rank,
        "counts": [len(lv) for lv in levels],
        "tiles": [[{"word": ["%d,%d" % rs for rs in t.word],
                    "vertices": [[v.real, v.imag] for v in t.vertices]}
                   for t in lv] for lv in levels],
    }


# -- mate ---------------------------------------------------------------------

def _complex_json(bc):
    return {
        # a face cycle walks each of its arcs backward: dart [arc, -1]
        "faces": [[[[a, -1] for a in cyc] for cyc in face] for face in bc.faces],
        "arcs": [{"index": i, "hole": a.hole, "side": a.side,
                  "piece": a.piece, "start": a.start, "end": a.end}
                 for i, a in enumerate(bc.arcs)],
        "involution": {str(a): b for a, b in enumerate(bc.s_action)},
        "vertices": [{"kind": "corner", "incidences": [list(i) for i in cls]}
                     for cls in bc.corners]
                    + [{"kind": "midpoint", "incidences": [[a.hole, a.side]]}
                       for a in bc.arcs if a.piece],
        "components": bc.components,
        "s_fixed_boundary_points": bc.s_fixed_boundary_points(),
        "order2_points": bc.order2_total(),
    }


def cmd_mate_build(args):
    from . import mating_schema as ms
    from . import render
    slots, contact, poly = _load_schema_arg(args.schema)
    bc = ms.assemble(slots, contact)
    doc = {"schema": ms.schema_to_dict(slots, contact, poly),
           "complex": _complex_json(bc)}
    if args.svg is not None:
        _write_svg(args.svg, render.hole_diagram_scene(bc))
    return doc


def cmd_mate_report(args):
    from . import mating_schema as ms
    slots, contact, poly = _load_schema_arg(args.schema)
    report = ms.validate_degrees(slots)
    return {"schema": ms.schema_to_dict(slots, contact, poly),
            "degrees": report}


def cmd_mate_verify_poly(args):
    from . import mating_schema as ms
    reg = ms.polynomial_registry()
    if args.name not in reg:
        raise UsageError(f"unknown polynomial {args.name!r}; "
                         f"known: {sorted(reg)}")
    return ms.verify_polynomial(reg[args.name])


# -- surface ---------------------------------------------------------------------

def _surface(args):
    from . import mating_schema as ms
    from . import welding
    slots, contact, _ = _load_schema_arg(args.schema)
    return welding.surface_report(welding.weld(ms.assemble(slots, contact)))


def cmd_surface_report(args):
    sr = _surface(args)
    return {
        "components": [{
            "euler_characteristic": c.euler_characteristic,
            "genus": c.genus,
            "eta_invariant": c.eta_invariant,
            "fix_eta": c.fix_eta,
            "faces": [list(fc) for fc in c.faces],
        } for c in sr.components],
        "connected": sr.connected(),
        "welding_graph": {
            "vertices": [f"v{i}{'+' if s > 0 else '-'}"
                         for (i, s) in sr.welding_graph.vertices()],
            "edges": sorted([f"v{a}-", f"v{b}+"] for (a, b) in sr.welding_graph.edges),
            "components": len(sr.components),
        },
        "zipped": list(sr.zipped),
    }


def cmd_surface_graph(args):
    from . import render
    sr = _surface(args)
    if args.svg is not None:
        _write_svg(args.svg, render.welding_graph_scene(sr.welding_graph))
    return {"edges": sorted([a, b] for (a, b) in sr.welding_graph.edges),
            "components": len(sr.components)}


def cmd_surface_zip(args):
    from . import mating_schema as ms
    from . import welding
    slots, contact, _ = _load_schema_arg(args.schema)
    return {"zipped": welding.zipped_report(ms.assemble(slots, contact))}


# -- corr ---------------------------------------------------------------------

def cmd_corr_fibers(args):
    from . import correspondence as corr
    if not 1 <= args.j <= args.p:
        raise UsageError(f"--j must be a sheet in 1..{args.p}")
    m = corr.ModelMaps(args.n, args.p)
    pt = m.point(complex(args.w_re, args.w_im), args.j)
    fib = corr.fiber(m, pt)
    return {"n": args.n, "p": args.p,
            "point": {"w": [args.w_re, args.w_im], "j": args.j},
            "fiber": [{"w": [q.value(args.n).real, q.value(args.n).imag], "j": q.j}
                      for q in fib],
            "cardinality": len(fib)}


def cmd_corr_branches(args):
    from . import correspondence as corr
    mt = corr.model_tiling_set(args.n, args.p, args.case)
    words = corr.branch_words(mt)
    return {"n": args.n, "p": args.p, "case": args.case,
            "branches": words,
            "count": len(words),
            # (tau^2 eta)(tau eta)^-1 = tau^2 eta eta tau^-1 = tau, as eta^2 = 1
            "tau_generating_identity": True,
            "k_exponents": list(mt.k_exponents)}


def cmd_corr_tiling(args):
    from . import correspondence as corr
    from . import render
    preset = _preset(args)
    if args.length > corr.MAX_WORD_LENGTH:
        raise UsageError(f"--len must be <= {corr.MAX_WORD_LENGTH}")
    rep = corr.group_tiling(preset, args.length)
    if args.svg is not None:
        attrs = render.style(stroke="#1f77b4", width=0.8)
        # the 17 samples of each side of the polygon, carried into every tile
        samples = [side.points_at([i / 16 for i in range(17)]) for side in preset.sides]
        tiles = (render.polyline([g(z) for z in pts], attrs)
                 for g in (tile["map"] for tile in rep["tiles"]) for pts in samples)
        _write_svg(args.svg, itertools.chain(render.polygon_scene(preset), tiles))
    return {"group": preset.name, "length": args.length,
            "tiles": rep["count"], "overlaps": rep["overlaps"],
            "words": ["".join(t["word"]) if t["word"] else "1"
                      for t in rep["tiles"]]}


def cmd_corr_recover(args):
    from . import correspondence as corr
    mt = corr.model_tiling_set(args.n, args.p, args.case)
    rep = corr.recover_representation(mt)
    return {
        "n": args.n, "p": args.p, "case": args.case,
        "generators": [{
            "side": g.j, "k": g.k, "word": g.word,
            # by construction: see correspondence.recover_representation
            "stabilizes_component_1": True,
            "order": g.order,
        } for g in rep["generators"]],
        "rotation_word": rep["rotation_word"],
        "rotation_order": rep["rotation_order"],
    }


# -- parser ---------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # an argument that starts with a minus and a digit, with or without a
        # point between, is a value: argparse's own pattern has no exponents,
        # so it took -1e-3 for an option
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        # argparse drops the errors of its own write and leaves the flush to
        # exit; here both happen inside main's guard
        out = file or sys.stdout or sys.stderr
        out.write(self.format_help())
        out.flush()


def _at_least(lo):
    def parse(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"{value} < {lo}")
        return value
    parse.__name__ = "int"      # argparse names the type in its messages
    return parse


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text} is not a finite number")
    return value


_finite.__name__ = "float"


#: the argument specs that commands share, each a name and its add_argument
#: keywords: the preset (n, p, case), the factor map, the angle, the drawing
#: and the schema file or example name
_PRESET = (("--n", {"type": int, "required": True}),
           ("--p", {"type": int, "required": True}),
           ("--case", {"default": "I", "choices": ["I", "II"]}))
_FACTOR = ("--factor", {"action": "store_true"})
_THETA = ("--theta", {"type": _finite, "required": True})
_SVG = ("--svg", {})
_SCHEMA = ("schema", {})

#: group -> command -> (handler, argument specs in help order)
_COMMANDS = {
    "group": {
        "info": (cmd_group_info, *_PRESET,
                 ("--plain", {"action": "store_true",
                              "help": "signature of D/Gamma instead of D/Gamma-hat"})),
        "check": (cmd_group_check, *_PRESET),
    },
    "bs": {
        "eval": (cmd_bs_eval, *_PRESET, _FACTOR, _THETA),
        "orbit": (cmd_bs_orbit, *_PRESET, _FACTOR, _THETA,
                  ("--steps", {"type": _at_least(0), "default": 10})),
        "partition": (cmd_bs_partition, *_PRESET, _FACTOR),
        "conjugacy": (cmd_bs_conjugacy, *_PRESET, _FACTOR, _THETA,
                      ("--depth", {"type": int, "default": 10})),
        "tiles": (cmd_bs_tiles, *_PRESET, _FACTOR,
                  ("--rank", {"type": _at_least(0), "default": 2}), _SVG),
    },
    "mate": {
        "build": (cmd_mate_build, _SCHEMA, _SVG),
        "report": (cmd_mate_report, _SCHEMA),
        "verify-poly": (cmd_mate_verify_poly, ("name", {})),
    },
    "surface": {
        "report": (cmd_surface_report, _SCHEMA),
        "graph": (cmd_surface_graph, _SCHEMA, _SVG),
        "zip": (cmd_surface_zip, _SCHEMA),
    },
    "corr": {
        "fibers": (cmd_corr_fibers,
                   ("--n", {"type": _at_least(1), "required": True}),
                   ("--p", {"type": _at_least(1), "required": True}),
                   ("--w-re", {"type": _finite, "default": 0.5}),
                   ("--w-im", {"type": _finite, "default": 0.0}),
                   ("--j", {"type": int, "default": 1})),
        "branches": (cmd_corr_branches, *_PRESET),
        "tiling": (cmd_corr_tiling, *_PRESET,
                   ("--len", {"dest": "length", "type": _at_least(0), "default": 4}), _SVG),
        "recover": (cmd_corr_recover, *_PRESET),
    },
}


def build_parser(argv=()):
    """The parser of every command, or of what argv can reach: when argv[0]
    names a group, the other groups are built bare, and when argv[1] names
    one of its commands, that command alone gets its arguments.  argparse
    reads only the parsers on argv's path, so each argv parses, and fails,
    as under the full build."""
    chosen = argv[0] if argv and argv[0] in _COMMANDS else None
    command = argv[1] if chosen and len(argv) > 1 and argv[1] in _COMMANDS[chosen] else None
    top = _Parser(prog="weldlab", description=__doc__)
    groups = top.add_subparsers(dest="cmd", required=True)
    for group, commands in _COMMANDS.items():
        group_parser = groups.add_parser(group)
        if chosen not in (None, group):
            continue
        sub = group_parser.add_subparsers(dest="sub", required=True)
        for name, (fn, *specs) in commands.items():
            parser = sub.add_parser(name)
            if command in (None, name):
                for flag, options in specs:
                    parser.add_argument(flag, **options)
            parser.set_defaults(fn=fn)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
        _emit(args.fn(args))
        return 0
    except (UsageError, RankLimit) as exc:
        # the handlers check --rank and --len, so RankLimit is an output budget
        print(f"weldlab: usage error: {exc}", file=sys.stderr)
        return 2
    except WeldlabError as exc:
        print(f"weldlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:      # stdout is closed or full; devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        print(f"weldlab: cannot write output: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("weldlab: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())

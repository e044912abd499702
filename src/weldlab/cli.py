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
import sys

from . import MAX_DEPTH, SCHEMA_VERSION
from .errors import RankLimit, UsageError, WeldlabError


def _emit(doc):
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    if sys.stdout is None:      # file descriptor 1 was closed at start-up
        raise OSError(errno.EBADF, "stdout is closed")
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False))
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
    except (OSError, ValueError, KeyError) as exc:
        raise UsageError(f"cannot read schema {path}: {exc}") from exc


# -- group ------------------------------------------------------------------

def cmd_group_info(args):
    from . import fuchsian
    preset = _preset(args)
    sig = fuchsian.orbifold_signature(preset, extended=not args.plain)
    _emit({
        "group": preset.name,
        "n": preset.n, "p": preset.p, "case": preset.case,
        "signature": {"genus": sig.genus, "punctures": sig.punctures,
                      "cone_orders": list(sig.cone_orders)},
        "generators": {f"g{s}": _mobius_json(preset.first_sector[s - 1])
                       for s in range(1, preset.p + 1)},
        "rotation": _mobius_json(preset.rotation),
        "sigma": {str(s): preset.sigma[s] for s in preset.sigma},
    })
    return 0


def cmd_group_check(args):
    from . import fuchsian
    preset = _preset(args)
    pairing = fuchsian.side_pairing_check(preset)
    poincare = fuchsian.poincare_check(preset)
    _emit({
        "group": preset.name,
        "pairing_max_residual": pairing["max_residual"],
        "cycles": [{"vertices": c["vertices"],
                    "log_multiplier_residual": c["log_multiplier_residual"]}
                   for c in poincare["cycles"]],
        "rotation_order": poincare["rotation_order"],
        "ok": True,
    })
    return 0


# -- bs ---------------------------------------------------------------------

def _bsmap(args):
    from . import bowen_series as bs
    preset = _preset(args)
    return bs.bowen_series_from_preset(preset, factor=args.factor)


def cmd_bs_eval(args):
    from . import bowen_series as bs
    m = _bsmap(args)
    _emit({"map": m.name, "theta": args.theta,
           "image": bs.eval_circle(m, args.theta)})
    return 0


def cmd_bs_orbit(args):
    from . import bowen_series as bs
    m = _bsmap(args)
    _emit({"map": m.name, "theta": args.theta, "steps": args.steps,
           "orbit": bs.circle_orbit(m, args.theta, args.steps)})
    return 0


def cmd_bs_partition(args):
    from . import bowen_series as bs
    m = _bsmap(args)
    part = bs.markov_partition(m)
    _emit({
        "map": m.name,
        "degree": bs.circle_degree(m),
        "breakpoints": list(part.breakpoints),
        "transition": [list(r) for r in part.transition],
    })
    return 0


def cmd_bs_conjugacy(args):
    from . import bowen_series as bs
    if args.depth > MAX_DEPTH:
        raise UsageError(f"--depth must be <= {MAX_DEPTH}")
    m = _bsmap(args)
    h = bs.ConjugacyH(m)
    val, rad = h.value(args.theta, args.depth)
    _emit({"map": m.name, "theta": args.theta, "depth": args.depth,
           "value": val, "radius": rad, "cuts": list(h.cuts)})
    return 0


def cmd_bs_tiles(args):
    from . import bowen_series as bs
    from . import render
    if args.rank > bs.MAX_RANK:
        raise UsageError(f"--rank must be <= {bs.MAX_RANK}")
    m = _bsmap(args)
    levels = bs.tiles(m, args.rank)
    if args.svg:
        _write_svg(args.svg, render.tiles_scene(levels, factor=m.factor,
                                                n=m.preset.n))
    _emit({
        "map": m.name, "rank": args.rank,
        "counts": [len(lv) for lv in levels],
        "tiles": [[{"word": ["%d,%d" % rs for rs in t.word],
                    "vertices": [[v.real, v.imag] for v in t.vertices]}
                   for t in lv] for lv in levels],
    })
    return 0


# -- mate ---------------------------------------------------------------------

def _complex_json(bc):
    return {
        "faces": [[[[a, d] for (a, d) in cyc] for cyc in face] for face in bc.faces],
        "arcs": [{"index": a.index, "hole": a.hole, "side": a.side,
                  "piece": a.piece, "start": a.start, "end": a.end}
                 for a in bc.arcs],
        "involution": {str(a): b for a, b in bc.s_action.items()},
        "vertices": [{"kind": v["kind"], "incidences": [list(i) for i in v["incidences"]]}
                     for v in bc.vertices],
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
    if args.svg:
        _write_svg(args.svg, render.hole_diagram_scene(bc))
    _emit(doc)
    return 0


def cmd_mate_report(args):
    from . import mating_schema as ms
    slots, contact, poly = _load_schema_arg(args.schema)
    report = ms.validate_degrees(slots)
    _emit({"schema": ms.schema_to_dict(slots, contact, poly),
           "degrees": report})
    return 0


def cmd_mate_verify_poly(args):
    from . import mating_schema as ms
    reg = ms.polynomial_registry()
    if args.name not in reg:
        raise UsageError(f"unknown polynomial {args.name!r}; "
                         f"known: {sorted(reg)}")
    rep = ms.verify_polynomial(reg[args.name])
    _emit(rep)
    return 0


# -- surface ---------------------------------------------------------------------

def _surface(args):
    from . import mating_schema as ms
    from . import welding
    slots, contact, poly = _load_schema_arg(args.schema)
    bc = ms.assemble(slots, contact)
    wc = welding.weld(bc)
    return bc, wc, welding.surface_report(wc)


def cmd_surface_report(args):
    bc, wc, sr = _surface(args)
    _emit({
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
    })
    return 0


def cmd_surface_graph(args):
    from . import render
    bc, wc, sr = _surface(args)
    if args.svg:
        _write_svg(args.svg, render.welding_graph_scene(sr.welding_graph))
    _emit({"edges": sorted([a, b] for (a, b) in sr.welding_graph.edges),
           "components": len(sr.components)})
    return 0


def cmd_surface_zip(args):
    from . import mating_schema as ms
    from . import welding
    slots, contact, poly = _load_schema_arg(args.schema)
    bc = ms.assemble(slots, contact)
    _emit({"zipped": welding.zipped_report(bc)})
    return 0


# -- corr ---------------------------------------------------------------------

def cmd_corr_fibers(args):
    from . import correspondence as corr
    if not 1 <= args.j <= args.p:
        raise UsageError(f"--j must be a sheet in 1..{args.p}")
    m = corr.ModelMaps(args.n, args.p)
    pt = m.point(complex(args.w_re, args.w_im), args.j)
    fib = corr.fiber(m, pt)
    _emit({"n": args.n, "p": args.p,
           "point": {"w": [args.w_re, args.w_im], "j": args.j},
           "fiber": [{"w": [q.value(args.n).real, q.value(args.n).imag], "j": q.j}
                     for q in fib],
           "cardinality": len(fib)})
    return 0


def cmd_corr_branches(args):
    from . import correspondence as corr
    mt = corr.model_tiling_set(args.n, args.p, args.case)
    words = corr.branch_words(mt)
    _emit({"n": args.n, "p": args.p, "case": args.case,
           "branches": words,
           "count": len(words),
           # (tau^2 eta)(tau eta)^-1 = tau^2 eta eta tau^-1 = tau, as eta^2 = 1
           "tau_generating_identity": True,
           "k_exponents": list(mt.k_exponents)})
    return 0


def cmd_corr_tiling(args):
    from . import correspondence as corr
    from . import render
    preset = _preset(args)
    if args.length > corr.MAX_WORD_LENGTH:
        raise UsageError(f"--len must be <= {corr.MAX_WORD_LENGTH}")
    rep = corr.group_tiling(preset, args.length)
    if args.svg:
        attrs = render.style(stroke="#1f77b4", width=0.8)
        tiles = (render.polyline([g(side.point_at(i / 16)) for i in range(17)], attrs)
                 for g in (tile["map"] for tile in rep["tiles"]) for side in preset.sides)
        _write_svg(args.svg, itertools.chain(render.polygon_scene(preset), tiles))
    _emit({"group": preset.name, "length": args.length,
           "tiles": rep["count"], "overlaps": rep["overlaps"],
           "words": ["".join(t["word"]) if t["word"] else "1"
                     for t in rep["tiles"]]})
    return 0


def cmd_corr_recover(args):
    from . import correspondence as corr
    mt = corr.model_tiling_set(args.n, args.p, args.case)
    rep = corr.recover_representation(mt)
    _emit({
        "n": args.n, "p": args.p, "case": args.case,
        "generators": [{
            "side": g.j, "k": g.k, "word": g.word,
            # by construction: see correspondence.recover_representation
            "stabilizes_component_1": True,
            "order": g.order,
        } for g in rep["generators"]],
        "rotation_word": rep["rotation_word"],
        "rotation_order": rep["rotation_order"],
    })
    return 0


# -- parser ---------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
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


def _add_group_args(p, factor=False):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--case", default="I", choices=["I", "II"])
    if factor:
        p.add_argument("--factor", action="store_true")


def build_parser():
    top = _Parser(prog="weldlab", description=__doc__)
    sub = top.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("group").add_subparsers(dest="sub", required=True)
    gi = g.add_parser("info")
    _add_group_args(gi)
    gi.add_argument("--plain", action="store_true",
                    help="signature of D/Gamma instead of D/Gamma-hat")
    gi.set_defaults(fn=cmd_group_info)
    gc = g.add_parser("check")
    _add_group_args(gc)
    gc.set_defaults(fn=cmd_group_check)

    b = sub.add_parser("bs").add_subparsers(dest="sub", required=True)
    for name, fn, extra in [
        ("eval", cmd_bs_eval, [("--theta", _finite, True, None)]),
        ("orbit", cmd_bs_orbit, [("--theta", _finite, True, None),
                                 ("--steps", _at_least(0), False, 10)]),
        ("partition", cmd_bs_partition, []),
        ("conjugacy", cmd_bs_conjugacy, [("--theta", _finite, True, None),
                                         ("--depth", int, False, 10)]),
        ("tiles", cmd_bs_tiles, [("--rank", _at_least(0), False, 2)]),
    ]:
        sp = b.add_parser(name)
        _add_group_args(sp, factor=True)
        for flag, typ, req, dflt in extra:
            sp.add_argument(flag, type=typ, required=req, default=dflt)
        if name == "tiles":
            sp.add_argument("--svg")
        sp.set_defaults(fn=fn)

    m = sub.add_parser("mate").add_subparsers(dest="sub", required=True)
    mb = m.add_parser("build")
    mb.add_argument("schema")
    mb.add_argument("--svg")
    mb.set_defaults(fn=cmd_mate_build)
    mr = m.add_parser("report")
    mr.add_argument("schema")
    mr.set_defaults(fn=cmd_mate_report)
    mv = m.add_parser("verify-poly")
    mv.add_argument("name")
    mv.set_defaults(fn=cmd_mate_verify_poly)

    s = sub.add_parser("surface").add_subparsers(dest="sub", required=True)
    for name, fn, svg in [("report", cmd_surface_report, False),
                          ("graph", cmd_surface_graph, True),
                          ("zip", cmd_surface_zip, False)]:
        sp = s.add_parser(name)
        sp.add_argument("schema")
        if svg:
            sp.add_argument("--svg")
        sp.set_defaults(fn=fn)

    c = sub.add_parser("corr").add_subparsers(dest="sub", required=True)
    cf = c.add_parser("fibers")
    cf.add_argument("--n", type=_at_least(1), required=True)
    cf.add_argument("--p", type=_at_least(1), required=True)
    cf.add_argument("--w-re", type=_finite, default=0.5)
    cf.add_argument("--w-im", type=_finite, default=0.0)
    cf.add_argument("--j", type=int, default=1)
    cf.set_defaults(fn=cmd_corr_fibers)
    cb = c.add_parser("branches")
    _add_group_args(cb)
    cb.set_defaults(fn=cmd_corr_branches)
    ct = c.add_parser("tiling")
    _add_group_args(ct)
    ct.add_argument("--len", dest="length", type=_at_least(0), default=4)
    ct.add_argument("--svg")
    ct.set_defaults(fn=cmd_corr_tiling)
    cr = c.add_parser("recover")
    _add_group_args(cr)
    cr.set_defaults(fn=cmd_corr_recover)
    return top


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.fn(args)
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

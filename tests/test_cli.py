import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import weldlab
from weldlab import cli
from weldlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_info(capsys):
    code, out, err = run(capsys, "group", "info", "--n", "3", "--p", "1",
                         "--case", "I")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["signature"] == {"genus": 0, "punctures": 1, "cone_orders": [2, 3]}
    assert "g1" in doc["generators"]


def test_group_check_exit_zero(capsys):
    code, out, _ = run(capsys, "group", "check", "--n", "1", "--p", "4")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_unknown_flag_usage_error(capsys):
    code, out, err = run(capsys, "group", "info", "--n", "3", "--p", "1",
                         "--bogus")
    assert code == 2
    assert err.strip().count("\n") == 0 and "usage error" in err


def test_missing_file(capsys):
    code, out, err = run(capsys, "surface", "report", "missing.json")
    assert code == 2
    assert "not found" in err


def test_rank_guard(capsys):
    code, out, err = run(capsys, "bs", "tiles", "--n", "1", "--p", "4",
                         "--rank", "99")
    assert code == 2


def test_invalid_case_domain_error(capsys):
    code, out, err = run(capsys, "group", "info", "--n", "3", "--p", "3",
                         "--case", "II")
    assert code == 1
    assert "InvalidCase" in err


def test_surface_report_5_4(capsys):
    code, out, _ = run(capsys, "surface", "report", "5.4")
    assert code == 0
    doc = json.loads(out)
    assert doc["components"][0]["genus"] == 1
    assert doc["connected"] is True
    assert doc["zipped"][0]["euler_characteristic"] == 2


def test_surface_report_5_1_graph(capsys):
    code, out, _ = run(capsys, "surface", "report", "5.1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["welding_graph"]["vertices"]) == 8
    assert doc["welding_graph"]["components"] == 4


def test_mate_build_fixture_file(capsys, tmp_path):
    import weldlab.mating_schema as ms
    slots, contact, poly = ms.paper_example("5.5")
    p = tmp_path / "s.json"
    p.write_text(json.dumps(ms.schema_to_dict(slots, contact, poly)))
    code, out, _ = run(capsys, "mate", "build", str(p))
    assert code == 0
    doc = json.loads(out)
    assert doc["complex"]["order2_points"] == 4


def test_mate_report(capsys):
    code, out, _ = run(capsys, "mate", "report", "5.5")
    assert code == 0
    assert json.loads(out)["degrees"]["polynomial_degree"] == 4


def test_verify_poly(capsys):
    code, out, _ = run(capsys, "mate", "verify-poly", "cubic_two_basins")
    assert code == 0
    doc = json.loads(out)
    assert all(c["ok"] for c in doc["critical_points"])


def test_verify_poly_unknown(capsys):
    code, out, err = run(capsys, "mate", "verify-poly", "nope")
    assert code == 2


def test_bs_partition(capsys):
    code, out, _ = run(capsys, "bs", "partition", "--n", "1", "--p", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 3
    assert all(sum(r) == 3 for r in doc["transition"])


def test_bs_conjugacy(capsys):
    code, out, _ = run(capsys, "bs", "conjugacy", "--n", "3", "--p", "1",
                       "--factor", "--theta", "1.0", "--depth", "8")
    assert code == 0
    doc = json.loads(out)
    assert 0 <= doc["value"] < 6.3
    assert doc["radius"] >= 0


def test_bs_conjugacy_depth_bound(capsys):
    from weldlab.cli import MAX_DEPTH
    argv = ("bs", "conjugacy", "--n", "3", "--p", "1", "--factor", "--theta", "1.0",
            "--depth")
    code, out, _ = run(capsys, *argv, str(MAX_DEPTH))
    assert code == 0 and json.loads(out)["radius"] > 0
    code, out, err = run(capsys, *argv, str(MAX_DEPTH + 1))
    assert code == 2 and out == "" and err.count("\n") == 1 and "usage error" in err
    code, out, err = run(capsys, *argv, "2000")
    assert code == 2
    # too shallow is a domain error (exit 1), not a usage error
    code, out, err = run(capsys, *argv, "0")
    assert code == 1 and "DepthTooSmall" in err


def test_corr_commands(capsys):
    code, out, _ = run(capsys, "corr", "fibers", "--n", "3", "--p", "1",
                       "--w-re", "0.5")
    assert code == 0
    assert json.loads(out)["cardinality"] == 3
    code, out, _ = run(capsys, "corr", "branches", "--n", "3", "--p", "1")
    assert json.loads(out)["count"] == 2
    code, out, _ = run(capsys, "corr", "recover", "--n", "1", "--p", "4")
    assert code == 0


def test_json_deterministic(capsys):
    _, out1, _ = run(capsys, "surface", "report", "5.4")
    _, out2, _ = run(capsys, "surface", "report", "5.4")
    assert out1 == out2


def test_svg_deterministic(capsys, tmp_path):
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    run(capsys, "bs", "tiles", "--n", "1", "--p", "4", "--rank", "2",
        "--svg", str(p1))
    run(capsys, "bs", "tiles", "--n", "1", "--p", "4", "--rank", "2",
        "--svg", str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().startswith("<?xml")


def test_svg_welding_graph(capsys, tmp_path):
    p = tmp_path / "g.svg"
    code, _, _ = run(capsys, "surface", "graph", "5.1", "--svg", str(p))
    assert code == 0 and p.exists()


def test_svg_tiling(capsys, tmp_path):
    p = tmp_path / "t.svg"
    code, _, _ = run(capsys, "corr", "tiling", "--n", "3", "--p", "1",
                     "--len", "3", "--svg", str(p))
    assert code == 0 and p.exists()


def test_newton_by_name(capsys):
    code, out, _ = run(capsys, "surface", "report", "5.6:4")
    assert code == 0
    assert json.loads(out)["components"][0]["genus"] == 1


def test_fixture_files_load(capsys):
    import weldlab
    fdir = os.path.join(os.path.dirname(weldlab.__file__), "fixtures")
    for name in sorted(os.listdir(fdir)):
        code, out, _ = run(capsys, "surface", "report", os.path.join(fdir, name))
        assert code == 0, name


FIXTURE_DIR = os.path.join(os.path.dirname(weldlab.__file__), "fixtures")


@pytest.mark.parametrize("filename", sorted(os.listdir(FIXTURE_DIR)))
def test_fixture_file_is_its_gallery_schema(filename):
    # a gallery name builds its schema in code and its fixture file is read
    # as written, so the two must hold the same document: example_<x>.json
    # is the gallery name x (5_4 -> 5.4), newton_<n>.json the Newton schema
    from weldlab.mating_schema import paper_example, schema_to_dict
    stem = filename.removesuffix(".json")
    name = {"newton_3": "5.6", "newton_6": "5.6:6"}.get(
        stem, stem.removeprefix("example_").replace("_", "."))
    with open(os.path.join(FIXTURE_DIR, filename), encoding="utf-8") as fh:
        assert json.load(fh) == schema_to_dict(*paper_example(name))


@pytest.mark.parametrize("cmd,error", [(("mate", "build"), "DegenerateInput"),
                                       (("surface", "report"), "DegenerateInput"),
                                       (("surface", "zip"), "DegenerateInput"),
                                       (("mate", "report"), "DegreeMismatch")])
def test_two_unbounded_slots_are_refused(capsys, tmp_path, cmd, error):
    # assemble and validate_degrees each allow at most one unbounded slot
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"slots": [
        {"kind": "group", "n": 1, "p": 4, "placement": "unbounded"},
        {"kind": "group", "n": 3, "p": 1, "placement": "unbounded"}]}))
    code, out, err = run(capsys, *cmd, str(path))
    assert (code, out, err) == (1, "", f"weldlab: {error}: at most one unbounded slot\n")


@pytest.mark.parametrize("argv", [
    ["corr", "tiling", "--n", "3", "--p", "1", "--len", "-1"],
    ["bs", "orbit", "--n", "1", "--p", "4", "--theta", "1.0", "--steps", "-5"],
    ["corr", "fibers", "--n", "3", "--p", "1", "--j", "5"],
    ["corr", "fibers", "--n", "0", "--p", "1"],
    ["corr", "fibers", "--n", "3", "--p", "1", "--w-re", "nan"],
    ["bs", "eval", "--n", "1", "--p", "4", "--theta", "inf"],
    ["bs", "tiles", "--n", "1", "--p", "4", "--rank", "-1"],
    ["corr", "fibers", "--n", "1000", "--p", "1000"],
    # a negative number in any spelling is a value, but not a finite one
    *(["bs", "eval", "--n", "1", "--p", "4", "--theta", text]
      for text in ("-inf", "-nan", "-Infinity", "-1e999")),
])
def test_out_of_range_arguments_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("weldlab: usage error:")


@pytest.mark.parametrize("argv", [
    ["corr", "tiling", "--n", "5", "--p", "6", "--len", "8"],
    ["bs", "tiles", "--n", "5", "--p", "6", "--factor", "--rank", "8"],
    ["group", "info", "--n", "3", "--p", "100000"],
    ["surface", "report", "5.6:99999999"],
    ["bs", "orbit", "--n", "1", "--p", "4", "--theta", "1.0", "--steps", "1000000"],
    ["corr", "branches", "--n", "3", "--p", "1000000000"],
    ["corr", "recover", "--n", "3", "--p", "1000000000"],
])
def test_tile_budget_is_a_usage_error(capsys, monkeypatch, argv):
    # the refusal comes before any table past the budget is built: the
    # sigma_side table of p = 1e9 sides once ran out of memory
    from weldlab import correspondence, fuchsian
    table = fuchsian.sigma_side

    def guarded(p, case):
        if p > fuchsian.TILE_BUDGET:
            raise AssertionError(f"sigma_side({p}, {case!r}) called")
        return table(p, case)

    monkeypatch.setattr(fuchsian, "sigma_side", guarded)
    monkeypatch.setattr(correspondence, "sigma_side", guarded)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("weldlab: usage error:")
    assert "budget" in err


#: SHA-256 of the SVG each command writes; the figures are byte-stable
SVG_DIGESTS = [
    (["corr", "tiling", "--n", "3", "--p", "1", "--len", "4"],
     "1321c9022b2ff6e242203474c1bc4cafbecb87b087b0c891e9fb7600a11f8a63"),
    (["bs", "tiles", "--n", "1", "--p", "4", "--rank", "3"],
     "7c5b7fa984171292a815a25292b17e1df9f1e0839dc5feb7c440cbc456dea5d5"),
    # both welding graphs are one face glued to itself
    (["surface", "graph", "5.4"],
     "7530fe348824c779785ac918482ab3f8e9d8f5d8fe830f866245b634c143853c"),
    (["surface", "graph", "final"],
     "7530fe348824c779785ac918482ab3f8e9d8f5d8fe830f866245b634c143853c"),
    (["bs", "tiles", "--n", "1", "--p", "4", "--case", "II", "--rank", "3"],
     "7ef3ad43f3258e222ec72d02a055afc92ecb1b9fa2fdb7138b8b86810cb25dad"),
    # a larger polygon: its rotation words are products with |ad| <= 16, once
    # renormalised by MobiusMap.compose, and its generator words are not
    (["corr", "tiling", "--n", "4", "--p", "4", "--len", "4"],
     "66f4589b730af0020c8221799e257e662d9d4094c7ece7a4c4d45dc953bfbbd2"),
    # a hole diagram: three holes, one wedge class
    (["mate", "build", "5.3"],
     "c77f47fb6c46dadba6473ce95027b25aeb31352516b2df9fa91970c709288277"),
]


@pytest.mark.parametrize("argv,digest", SVG_DIGESTS)
def test_svg_bytes_pinned(capsys, tmp_path, argv, digest):
    path = tmp_path / "out.svg"
    code, _, _ = run(capsys, *argv, "--svg", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


#: the four commands that write an SVG
SVG_COMMANDS = [("bs", "tiles", "--n", "1", "--p", "4", "--rank", "2"),
                ("corr", "tiling", "--n", "3", "--p", "1", "--len", "2"),
                ("mate", "build", "5.4"), ("surface", "graph", "5.4")]


@pytest.mark.parametrize("argv", SVG_COMMANDS, ids=lambda argv: " ".join(argv[:2]))
@pytest.mark.parametrize("target", ["directory", "missing", "empty"])
def test_unwritable_svg_is_a_usage_error(capsys, tmp_path, argv, target):
    # open() used to end the run in a FileNotFoundError or IsADirectoryError,
    # and an empty path was taken for no --svg: exit 0, and nothing written
    path = {"directory": tmp_path, "missing": tmp_path / "missing" / "out.svg",
            "empty": ""}[target]
    code, out, err = run(capsys, *argv, "--svg", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"weldlab: usage error: cannot write {path}: ")


def test_command_builds_only_the_parsers_it_reaches(capsys, monkeypatch):
    # the full tree is 23 parsers: the top, 5 groups and 17 commands; a
    # command needs the top, the groups (their names are the top's choices)
    # and its own group's commands, of which it alone gets arguments
    made = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counted)
    assert run(capsys, "surface", "report", "5.4")[0] == 0
    assert len(made) <= 9
    made.clear()
    cli.build_parser()
    assert len(made) == 23


@pytest.mark.parametrize("w", [("2", "0"), ("1", "0"), ("0", "-1"), ("0.8", "0.8"),
                               ("1.7e308", "1.7e308")])
def test_fiber_outside_the_disk_is_refused(capsys, w):
    # 1.7e308 + 1.7e308i rotated to an infinite fiber value, which json.dumps
    # refused with a raw ValueError; the model is D x {1..p}
    code, out, err = run(capsys, "corr", "fibers", "--n", "3", "--p", "1",
                         "--w-re", w[0], "--w-im", w[1])
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("weldlab: InvalidArgument: w must lie in")


#: SHA-256 of the JSON each command prints; the `bs tiles` digests follow the
#: last bits of the generators, so a change of their arithmetic re-pins them
JSON_DIGESTS = [
    (["bs", "tiles", "--n", "4", "--p", "2", "--factor", "--rank", "3"],
     "5d8bcdec4abd60c62816c5e81de92667a21f1419d1aa536ca818688ff575265f"),
    (["bs", "tiles", "--n", "5", "--p", "1", "--factor", "--rank", "5"],
     "b73a38648fb30293f226adef784f884eb5944da0ac07fd03ffef17ced3f89538"),
    (["bs", "tiles", "--n", "1", "--p", "6", "--rank", "3"],
     "46a88152985bc69b83e9212ccc50157146c2108a7839a9c552768f6202f24336"),
    (["corr", "tiling", "--n", "4", "--p", "1", "--len", "5"],
     "7fe3721030e9c057c5c3dd10bfdd7ae842d7a68589e2e71e2ce056684206ab30"),
    # Case II and a deep unfactored map, printed in level order
    (["bs", "tiles", "--n", "1", "--p", "4", "--case", "II", "--rank", "4"],
     "4e96ef29f8d75d035cb2314f345f6f218534ecc495ccb0b0f49f6b53de0819e0"),
    (["bs", "tiles", "--n", "1", "--p", "3", "--rank", "6"],
     "005a468ec2e6d8e6c9953d60a8fc770a03aa1b19a963861972febad71fc937f7"),
    # faces and components as the traced rotation system printed them
    (["mate", "build", "5.1"],
     "6e382b2e01898c69863fbacb3d427379c5f51c844f94cec3245a552d597fd4d6"),
    (["mate", "build", "5.5"],
     "3b158376bbe9145964aeba93d5e3cc4d673d550ee36d53919c66a72ce4d294a9"),
    (["mate", "build", "final"],
     "8235d60e5ff6a6b09c139a25fcd6dc11e211b6ca29f807e7c785e9fd049b8eae"),
    (["mate", "build", "5.6:7"],
     "ceff2b55ce25dd5649c123c17c9266f416261e753990f341f1188218e167ad03"),
    (["surface", "report", "5.1"],
     "65d2e755a6a3fd933fdd825632b811f32343e72e8d13d1aca3961c49fbda4e07"),
    # 5.5 and final both weld to one genus-2 component with the same graph
    (["surface", "report", "5.5"],
     "6014b774f0f9397d81e511366dcf0fb55e1bbdac9f2072c0af9ba59baad6e098"),
    (["surface", "report", "final"],
     "6014b774f0f9397d81e511366dcf0fb55e1bbdac9f2072c0af9ba59baad6e098"),
    (["surface", "report", "5.6:7"],
     "ba79f1860a59a964d943b253a7187a769738634987852b17db8a1d9d4e912fc0"),
    # two free holes, so one merged face, its cycles ordered by the roots of
    # the vertex union-find; the digest was taken while the dict-keyed
    # union-finds still built the complex, before the integer one
    (["mate", "build", "5.4"],
     "de561d16ef8b85672417b3f1682e49e8c7f1c5bd2d21a095d27df067d3a34020"),
]


@pytest.mark.parametrize("argv,digest", JSON_DIGESTS)
def test_json_bytes_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_surface_pipeline_bytes_pinned(capsys, monkeypatch):
    # the complex JSON of `mate build` and the `surface report` JSON of 300
    # seeded random schemas, as the vertex union-find and the arc dict
    # printed them, hashed together
    import random

    from weldlab import cli
    from weldlab import mating_schema as ms
    rng = random.Random(20261019)
    schemas = [ms.random_schema(rng) for _ in range(300)]
    monkeypatch.setattr(cli, "_load_schema_arg", lambda key: (*schemas[int(key)], None))
    digest = hashlib.sha256()
    for i, (slots, contact) in enumerate(schemas):
        doc = cli._complex_json(ms.assemble(slots, contact))
        digest.update(json.dumps(doc, sort_keys=True).encode())
        code, out, _ = run(capsys, "surface", "report", str(i))
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == (
        "d54f9400e7b984099a26c119ce4f6822eb2785c36b4227b60b6b9f800efde787")


def test_emit_writes_a_large_document_in_batches(monkeypatch):
    # the `mate build 5.6:3000` document (2.5 MB) takes more than one write
    # before its newline, and the writes join to what json.dumps makes of it
    import argparse

    from weldlab import SCHEMA_VERSION, cli
    doc = cli.cmd_mate_build(argparse.Namespace(schema="5.6:3000", svg=None))
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Recorder())
    cli._emit(doc)
    want = json.dumps({"schema_version": SCHEMA_VERSION, **doc}, sort_keys=True, indent=2,
                      allow_nan=False)
    assert "".join(writes) == want + "\n"
    assert len(writes[:-1]) > 1 and writes[-1] == "\n"


def test_disconnected_mate_build_bytes_pinned(capsys, tmp_path):
    # two free holes: the merged face lists hole 1's cycle first
    from weldlab import mating_schema as ms
    slots = (ms.group_slot(3, 1), ms.group_slot(1, 3))
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(ms.schema_to_dict(slots, ms.ContactData(()))))
    code, out, _ = run(capsys, "mate", "build", str(path))
    assert code == 0
    faces = json.loads(out)["complex"]["faces"]
    assert [[arc for arc, _ in cyc] for cyc in faces[0]] == [[2, 5, 4, 3], [0, 1]]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cfdb712f289a750e5c075cf1244498ac20bd7652af76df483b9a606c466a93d3")


#: Blaschke slots before and between the holes, so hole h is slot h and not
#: the h-th hole: a wedge of three holes and a lone corner class
_MIXED_SCHEMA = {
    "slots": [{"kind": "blaschke", "degree": 2}, {"kind": "group", "n": 1, "p": 4},
              {"kind": "group", "n": 3, "p": 1}, {"kind": "blaschke", "degree": 3},
              {"kind": "group", "n": 1, "p": 5}],
    "identifications": [{"corners": [[1, 0], [2, 0], [4, 0]]}, {"corners": [[1, 2]]}],
}


@pytest.mark.parametrize("cmd,svg,digest", [
    (("mate", "build"), False, "69fc7842bd065226a2cb108030cc823edc60b64644d6aa255ab09d0ea33ff6bb"),
    (("mate", "build"), True, "cc50ddffb54c31879dad1f969bd051dd2209fb7d588fc392acdaa3228f15e399"),
    (("surface", "report"), False,
     "282eeefae9d1630db7331915e58cac5e6afffb6a0276233382d0a4787a924240"),
], ids=["mate-build", "mate-build-svg", "surface-report"])
def test_blaschke_slots_between_holes_bytes_pinned(capsys, tmp_path, cmd, svg, digest):
    path, out_svg = tmp_path / "schema.json", tmp_path / "out.svg"
    path.write_text(json.dumps(_MIXED_SCHEMA))
    code, out, err = run(capsys, *cmd, str(path), *(["--svg", str(out_svg)] if svg else []))
    assert (code, err) == (0, "")
    pinned = out_svg.read_bytes() if svg else out.encode()
    assert hashlib.sha256(pinned).hexdigest() == digest


#: SHA-256 of the JSON `bs conjugacy` prints; like the `bs tiles` digests they
#: follow the last bits of the generators
CONJUGACY_DIGESTS = [
    (["--n", "1", "--p", "4", "--theta", "1.0", "--depth", "12"],
     "d2001d669b747852c5333fea0173340265765cfd02f2ad802914b95199167c45"),
    (["--n", "1", "--p", "4", "--case", "II", "--theta", "2.5", "--depth", "30"],
     "919799abe52009fd1f5af44910da1f7786b729ca1a322b52d3a14a5a44d364d5"),
    (["--n", "3", "--p", "1", "--factor", "--theta", "1.0", "--depth", "64"],
     "2ed09c98e249ed65fa283f04d32febed48595ce6af5eaf0f130e495bef17b689"),
    (["--n", "5", "--p", "6", "--factor", "--theta", "4.0", "--depth", "12"],
     "8f9f19bdf16852896826b47d9c9a4fa6ec41e04e3ebe615067b32f7b68f2f33d"),
]


@pytest.mark.parametrize("argv,digest", CONJUGACY_DIGESTS)
def test_bs_conjugacy_bytes_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "bs", "conjugacy", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_recover_on_polygons_of_thousands_of_sides(capsys):
    # a side of (37,37) is hyperbolic with entries 436, so |tr| > 2 and it
    # has no order.  The self-paired sides of (37,85) have entries about 1000
    # and trace 0, so order 2; the output is pinned
    code, out, err = run(capsys, "corr", "recover", "--n", "37", "--p", "37")
    assert code == 0 and err == ""
    code, out, _ = run(capsys, "corr", "recover", "--n", "37", "--p", "85")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5414bafdcc32b904901925f679797760c1ca0b5ea5d48797e509999ad6366321")


@pytest.mark.parametrize("argv", [("group", "check", "--n", "3", "--p", "1000"),
                                  ("group", "check", "--n", "16", "--p", "64"),
                                  ("group", "check", "--n", "64", "--p", "64"),
                                  ("group", "check", "--n", "100", "--p", "100"),
                                  ("group", "check", "--n", "3", "--p", "20000"),
                                  ("corr", "recover", "--n", "37", "--p", "173")])
def test_relations_hold_on_large_polygons(capsys, argv):
    # cycle products reach entries of 8e4 on (64,64), and the self-paired
    # sides of (37,173) entries of 2000, so their relations are decided by
    # multipliers and traces, not by matrix products.  (100,100) and
    # (3,20000) pass only with generators accurate to about 1e-11: their
    # cycle residuals are 1e-12 and 3e-11, against TOL_PARABOLIC = 1e-7
    code, _, err = run(capsys, *argv)
    assert code == 0 and err == ""


_GROUP_SLOT = {"kind": "group", "n": 3, "p": 1}
_HOLE_SLOT = {"kind": "group", "n": 1, "p": 4}

#: corner lists int() would truncate or coerce to a schema that builds
#: (corners (0, 0) and (0, 2) of one (1, 4) hole); only JSON integers count
_NON_INTEGER_CORNERS = [[[0.9, 0.5], ["0", "2"]], [[0, 0], [0, 2.0]],
                        [[0, 0], ["0", 2]], [[False, 0], [0, 2]], [[0, 1e400], [0, 2]]]


@pytest.mark.parametrize("doc", [
    {"slots": 5},
    {"slots": [5]},
    {"slots": "ab"},
    {"slots": [{"kind": "group", "n": "3", "p": 1}]},
    {"slots": [{"kind": "group", "n": 3.0, "p": 1}]},
    {"slots": [{"kind": "blaschke", "degree": None}]},
    {"slots": [_GROUP_SLOT], "identifications": 7},
    {"slots": [_GROUP_SLOT], "identifications": [5]},
    {"slots": [_GROUP_SLOT], "identifications": [{"corners": 5}]},
    {"slots": [_GROUP_SLOT], "identifications": [{"corners": [[None, 0]]}]},
    {"slots": [_GROUP_SLOT], "identifications": [{"corners": [[0]]}]},
    {"slots": [{"kind": "group", "p": 1}]},
    [],
] + [{"slots": [_HOLE_SLOT], "identifications": [{"corners": c}]}
     for c in _NON_INTEGER_CORNERS])
@pytest.mark.parametrize("cmd", [("surface", "report"), ("mate", "build")])
def test_malformed_schema_is_refused(capsys, tmp_path, doc, cmd):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *cmd, str(path))
    assert code in (1, 2) and out == ""
    assert err.count("\n") == 1 and err.startswith("weldlab: ")


@pytest.mark.parametrize("doc,message", [
    # an incidence that is not a pair used to be a raw unpacking error
    ({"slots": [_GROUP_SLOT], "identifications": [{"corners": [[0, 0, 1]]}]},
     "'identifications' needs an array of {\"corners\": [[slot, corner], ...]}"),
    ({"slots": [_GROUP_SLOT], "identifications": [{"corners": [[0]]}]},
     "'identifications' needs an array of"),
    ({"slots": [_GROUP_SLOT], "identifications": [{"corners": "ab"}]},
     "'identifications' needs an array of"),
    # and a missing field its bare name
    ({"slots": [_GROUP_SLOT], "identifications": [{"corner": [[0, 0]]}]},
     "'identifications' needs an array of"),
    ({"slots": [{"kind": "group", "p": 1}]}, "a group slot needs 'n'"),
    ({"slots": [{"kind": "group", "n": 3}]}, "a group slot needs 'p'"),
    ({"slots": [_GROUP_SLOT, {"kind": "blaschke"}]}, "a blaschke slot needs 'degree'"),
])
@pytest.mark.parametrize("cmd", [("surface", "report"), ("mate", "build")])
def test_wrong_shaped_schema_is_degenerate_input(capsys, tmp_path, doc, message, cmd):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *cmd, str(path))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("weldlab: DegenerateInput: ")
    assert message in err


@pytest.mark.parametrize("slot,message", [
    # an unbounded Blaschke slot was echoed back as bounded
    ({"kind": "blaschke", "degree": 2, "placement": "unbounded"},
     "Blaschke slots sit inside the domain"),
    # a misspelled placement was read as bounded
    ({"kind": "group", "n": 1, "p": 4, "placement": "unbouned"},
     "placement must be \"bounded\" or \"unbounded\", not 'unbouned'"),
    ({"kind": "blaschke", "degree": 2, "placement": None}, "placement must be"),
])
def test_bad_placement_is_refused(capsys, tmp_path, slot, message):
    path = tmp_path / "s.json"
    doc = {"slots": [_GROUP_SLOT, {"kind": "blaschke", "degree": 2}]}
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "mate", "report", str(path))
    assert code == 0 and '"placement": "bounded"' in out
    doc["slots"][1] = slot
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "mate", "report", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("weldlab: DegenerateInput: ") and message in err


@pytest.mark.parametrize("cmd", [("surface", "report"), ("mate", "build")])
def test_empty_identification_class_is_named(capsys, tmp_path, cmd):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"slots": [_HOLE_SLOT],
                                "identifications": [{"corners": [[0, 0], [0, 2]]},
                                                    {"corners": []}]}))
    assert run(capsys, *cmd, str(path)) == (
        1, "", "weldlab: InconsistentInvolution: identification class 1 is empty\n")


@pytest.mark.parametrize("corners", _NON_INTEGER_CORNERS)
def test_non_integer_corner_is_a_usage_error(capsys, tmp_path, corners):
    # with integer corners the same document builds
    path = tmp_path / "s.json"
    doc = {"slots": [_HOLE_SLOT], "identifications": [{"corners": [[0, 0], [0, 2]]}]}
    path.write_text(json.dumps(doc))
    assert run(capsys, "mate", "build", str(path))[0] == 0
    doc["identifications"][0]["corners"] = corners
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "mate", "build", str(path))
    # json.dumps writes 1e400 as Infinity, which is not JSON
    want = "Infinity is not JSON" if "Infinity" in path.read_text() else \
        "corner index must be an integer"
    assert (code, out) == (2, "") and want in err


@pytest.mark.parametrize("slot,name", [
    # true and false are no JSON integers; Python reads them as 1 and 0
    ({"kind": "group", "n": True, "p": 4}, "n"),
    ({"kind": "group", "n": 3, "p": False}, "p"),
    ({"kind": "blaschke", "degree": True}, "degree"),
])
@pytest.mark.parametrize("cmd", [("surface", "report"), ("mate", "build")])
def test_boolean_slot_count_is_invalid(capsys, tmp_path, slot, name, cmd):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"slots": [_GROUP_SLOT, slot]}))
    code, out, err = run(capsys, *cmd, str(path))
    assert (code, out) == (1, "") and err.count("\n") == 1
    assert err.startswith(f"weldlab: InvalidArgument: {name} must be an integer")


@pytest.mark.parametrize("text", [
    "[" * 200_000 + "]" * 200_000,
    '{"slots": ' + "[" * 5_000 + "]" * 5_000 + "}",
], ids=["bare", "in-slots"])
def test_deeply_nested_schema_is_a_usage_error(capsys, tmp_path, text):
    # json.load raises RecursionError past its nesting limit
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, "surface", "report", str(path))
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err.startswith("weldlab: usage error: cannot read schema ")


@pytest.mark.parametrize("text,constant", [
    ('{"slots": [{"kind": "group", "n": 3, "p": 1}], "polynomial": NaN}', "NaN"),
    ('{"slots": [{"kind": "group", "n": 3, "p": 1}], "polynomial": {"a": [1, Infinity]}}',
     "Infinity"),
    ('{"slots": [{"kind": "group", "n": -Infinity, "p": 1}]}', "-Infinity"),
])
@pytest.mark.parametrize("cmd", [("mate", "build"), ("mate", "report"), ("surface", "report")])
def test_non_json_constant_is_a_usage_error(capsys, tmp_path, text, constant, cmd):
    # json.load takes NaN and Infinity; a NaN polynomial reached the output
    # encoder, which ended the run in a ValueError traceback
    path = tmp_path / "s.json"
    path.write_text(text)
    assert run(capsys, *cmd, str(path)) == (
        2, "", f"weldlab: usage error: cannot read schema {path}: {constant} is not JSON\n")


@pytest.mark.parametrize("polynomial", [5, None, 2.5, True, ["cubic_power"], {"a": [1, 2]}])
@pytest.mark.parametrize("cmd", [("mate", "build"), ("mate", "report")])
def test_polynomial_must_be_a_string(capsys, tmp_path, polynomial, cmd):
    # a polynomial of any other kind was copied into the output
    path = tmp_path / "s.json"
    doc = {"slots": [_GROUP_SLOT], "polynomial": "cubic_power"}
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, *cmd, str(path))
    assert code == 0 and json.loads(out)["schema"]["polynomial"] == "cubic_power"
    doc["polynomial"] = polynomial
    path.write_text(json.dumps(doc))
    assert run(capsys, *cmd, str(path)) == (
        1, "", f"weldlab: DegenerateInput: 'polynomial' must be a string, not {polynomial!r}\n")


def test_bad_newton_name_is_a_bad_schema_name(capsys):
    code, _, err = run(capsys, "surface", "report", "no-such-schema")
    assert code == 2
    for name in ("5.6:x", "5.6x"):
        assert run(capsys, "surface", "report", name) == (
            code, "", err.replace("no-such-schema", name))


def test_non_ascii_newton_name_is_a_bad_schema_name(capsys):
    # "5.6:" with an Arabic-Indic 4 was read as 5.6:4
    code, _, err = run(capsys, "surface", "report", "no-such-schema")
    for name in ("5.6:\u0664", "5.60", "5.6:4:5"):
        assert run(capsys, "surface", "report", name) == (
            code, "", err.replace("no-such-schema", name))

# -- help and usage errors, pinned -----------------------------------------------

#: a smallest argv each command runs on
_MINIMAL = {
    ("group", "info"): ["--n", "3", "--p", "1"],
    ("group", "check"): ["--n", "3", "--p", "1"],
    ("bs", "eval"): ["--n", "1", "--p", "4", "--theta", "1"],
    ("bs", "orbit"): ["--n", "1", "--p", "4", "--theta", "1"],
    ("bs", "partition"): ["--n", "1", "--p", "4"],
    ("bs", "conjugacy"): ["--n", "1", "--p", "4", "--theta", "1"],
    ("bs", "tiles"): ["--n", "1", "--p", "4"],
    ("mate", "build"): ["5.1"],
    ("mate", "report"): ["5.1"],
    ("mate", "verify-poly"): ["cubic_power"],
    ("surface", "report"): ["5.1"],
    ("surface", "graph"): ["5.1"],
    ("surface", "zip"): ["5.1"],
    ("corr", "fibers"): ["--n", "3", "--p", "1"],
    ("corr", "branches"): ["--n", "3", "--p", "1"],
    ("corr", "tiling"): ["--n", "3", "--p", "1"],
    ("corr", "recover"): ["--n", "3", "--p", "1"],
}
_GROUPS = ["group", "bs", "mate", "surface", "corr"]
#: the --help of all 23 parsers, every bare group and command, --bogus after
#: each command's smallest argv, and one of each kind of malformed value
HELP_AND_USAGE = (
    [["--help"], []]
    + [[g, "--help"] for g in _GROUPS] + [[g] for g in _GROUPS]
    + [[*cmd, "--help"] for cmd in _MINIMAL] + [list(cmd) for cmd in _MINIMAL]
    + [[*cmd, *args, "--bogus"] for cmd, args in _MINIMAL.items()]
    + [["nogroup"], ["group", "nocmd"],
       ["group", "info", "--n", "3", "--p", "1", "--case", "III"],
       ["bs", "eval", "--n", "1", "--p", "4", "--theta", "x"],
       ["bs", "eval", "--n", "1", "--p", "4", "--theta", "-inf"],
       ["bs", "eval", "--n", "1", "--p", "4", "--theta", "-nan"],
       ["bs", "orbit", "--n", "1", "--p", "4", "--theta", "1", "--steps", "-1"],
       ["corr", "tiling", "--n", "3", "--p", "1", "--len", "-1"]])
#: SHA-256 of the JSON list [argv, exit code, stdout, stderr] of each argv
#: above, at 80 columns; argparse words its help and errors a little
#: differently from one Python release to the next, so the digests are for 3.11
HELP_AND_USAGE_DIGESTS = {
    "--help": "062bfecfb4d618364be650c2488a4601c375127cf9d398ad480c690f9545df88",
    "": "9c46cf4e2048a7e20cc41ddce0a20915e27509dbd031029e7f419a5306ad0192",
    "group --help": "f700fd885a14df4a0d0481d1e5173c9e160e3f637547ff4810bb8a751f4300c8",
    "bs --help": "ccae76a0c3c5e0a31ae5cdc38e593d3984901ea82585a12d17f76cee530ed090",
    "mate --help": "5727306bde40e0c4ae9b40e6c606d6e310fb88bdaa05251299017c9788435956",
    "surface --help": "cdc4fc7cf04bf78cb4fa2519aaf6770031a855b5e16611b425c8eb1e0915a4cb",
    "corr --help": "55c64c2e3ce28aed1ad6cd85734aae78e722085e520ede8fc8dc9347529fb39b",
    "group": "55d0e0cfcb4e4e1ba4d9923bc96af2c8b64f69e0b13ca26c40342214255ba42d",
    "bs": "9a3d0d5401cf12f1babf313d486bb891449a1fc35ef9db3c85ccb51847a1b761",
    "mate": "accff86f416cbc86e583f504d0f0a97cb4e706550fb21ea4842ebd27d2768e74",
    "surface": "e1562c0785738e4609151cac6407f2f8ac6be613771256dc6e9d657d4c229234",
    "corr": "df97c57648ab4b4fc747ce2d95c4c470bdffcb0e2a5287b1a258dfc9397722e0",
    "group info --help": "241cbc4a3957fa151f9eacc4a878684ac5390524b710ec88a296321b212eecab",
    "group check --help": "44b4ade4e666fd596cd06831a11eb28f7b031ffc242877ac182aad70c1d1c05a",
    "bs eval --help": "892a2d7310fd4ea329dda9129bcf160a5a3a025b82d175b1b45f14d87a8fb86b",
    "bs orbit --help": "3f134efe54097668f289852b0f2e08508d89c51fa6c72e7bf4db414c8bcbb42d",
    "bs partition --help": "5eebd16ae1d95fe644feb5993ed6dea24760c478a400835455f56571c4f25446",
    "bs conjugacy --help": "7b09130a7e2ec6686611ccc6bc0b18caec42cea1b928711b8c29b40b428f91bc",
    "bs tiles --help": "c6b7271aa6884f52b1f314db6e0e8111e5021c02da18e89cf8a9384800cb5eca",
    "mate build --help": "2679daa05be7441e7a30e3981cfbce1d0c6d7557466ccbe29162864ccfd1d0cf",
    "mate report --help": "79963dc5679f1f22a9a2df9748b45a0f8c9e68f24dadb2467ac130dc65690916",
    "mate verify-poly --help": "d63e790b56b10ad580f840a2f3eb92e71db5128c7740073b0dd0939fc701c097",
    "surface report --help": "6c0dc8ae486f7458a23a2c580d5fedfc24ac67f4a12dd0d7a3254e3c8821262f",
    "surface graph --help": "b43f71fd2b63aac6ddade549a24f87f115781c755c9381ead101f843a9f1fe17",
    "surface zip --help": "ca7224781baef4c8f9acd40362a8a7f00309ee61f0030746fb2969c9a4f91781",
    "corr fibers --help": "08b1c603bdc06c8fbd96f6b0522b830df7d9afc2f75de31aa3b405dcb19b7f4c",
    "corr branches --help": "c5683d09cff7aac394dacb2e0dcc43c4e2ff31767d7ff22923d455833dc54bc5",
    "corr tiling --help": "552d6717a1dc0d591b0ce38c49245a10b348cee2678b0a525bb54dd8018be385",
    "corr recover --help": "5088188d52d92015e50c73b312e8f6f582c35b1830a395212bf755bccc97b59d",
    "group info": "2d12f4176b37264bb5a81d517efffcaf7cbcc079d5ff4b9b096eb7d6aebb7c35",
    "group check": "a304405752013f7f855823c9fafc8931ba92eb1652a13486663ae7928e8ba001",
    "bs eval": "1327dd6c6e9493d1f7de978877be89e584baefe17e123e039fcba13155ea77be",
    "bs orbit": "71124dd9f4f39adcca3af41729806de1b9cadf8f4286dbc055eba6f48ba7e9ab",
    "bs partition": "3716883fa82cf79b83bcaf6d808d0c57e25d680330166163c80e472170cf82a5",
    "bs conjugacy": "f26390ddae8d1301044d38aa68b2eef89211cac517feb805a3058c79b0d2217d",
    "bs tiles": "bb8b267405ff89fdbfc86fd0bc4759d9923a370bbff76998c542f932847fde3a",
    "mate build": "504d7e902fe9088a0dc49045ef6b1978cd276665358a7b9d0fa00f48e5d8f2c3",
    "mate report": "4a88615e88784366450658cca4b65a519e41f401608302a4758fa83136913462",
    "mate verify-poly": "1b64534d0daccc36f32abaecbf192d0068602d3cd9ffc45dbe2664c19bacb094",
    "surface report": "f72e4c14f23e8b28b9e120a1657de4d79e402b4ba4a392870d55e324917639fe",
    "surface graph": "f3e3ea2c31e79df46fde76fccd6227182a6453392c72435e1b676fc3d02f0205",
    "surface zip": "918a4741c17b51633c20c60eaa3e2082061b54e234c04492006526a69dd3d68c",
    "corr fibers": "c167bedcd291a8cf17a59fefd7e03ec575463de82422d5a21bac80ad90d25ea2",
    "corr branches": "610a8bfb82ff8a2429e95b730e2031284e3d104727ce5c68af7a006e22dd9e55",
    "corr tiling": "0ffc81ac0e88a3ef470734da73eae48acadc66f2f15e841b9c7b0ccc1f2bbd7a",
    "corr recover": "838cfd4fb83faf23d28b202c6a43c05d9e29925c232f0318fd0d42328634c173",
    "group info --n 3 --p 1 --bogus": "d7873bb5740f399b62544478c8c757548e1b26fd56488a729ebab24bd74db3d5",
    "group check --n 3 --p 1 --bogus": "760608f0b94715070e8651821e0d0d3cc353e456dc91761bb24009a4d3d08935",
    "bs eval --n 1 --p 4 --theta 1 --bogus": "47ba2b0ffb3267b6a3acd7b0479cd51e1bf6e0fbf62d6e7460590540887cc77d",
    "bs orbit --n 1 --p 4 --theta 1 --bogus": "f878d06018ccd35bde4651a35b9813d06f03e38410791711d88d6b124892c47b",
    "bs partition --n 1 --p 4 --bogus": "91ac7e33f6fab3d6016ad09511f55e9001e5e9de417c3a52863a95c7345236eb",
    "bs conjugacy --n 1 --p 4 --theta 1 --bogus": "baa1dd01d584502dc8462e391bf59b2fefe9cdc4c2a42e51f56b571d29d83061",
    "bs tiles --n 1 --p 4 --bogus": "09515a564c02729bd0e175c1cc27ecbf82ecce77ab01fdb54db36d3b199016c4",
    "mate build 5.1 --bogus": "32030e01c8413bbee45071b668b6bd33fa0a6eeddb571c24199189123c8f5b56",
    "mate report 5.1 --bogus": "15586a2b0731d6e6cf890f55ffef2c1e113e0e42f60f18866e610dff5734f20e",
    "mate verify-poly cubic_power --bogus": "0a333aa493b931c5bf971c982fa35efb40861a4280302e3db9b90ab3ccbad809",
    "surface report 5.1 --bogus": "e4a7ee4d7e28ee97efb1e07dc863255385ed88608fd6640d3a7e2169b5d4e5d9",
    "surface graph 5.1 --bogus": "d7d5d8c114ae63a0daa36835d6e19eec5e8b210b7908060ee6e6bdb3b6a8f97b",
    "surface zip 5.1 --bogus": "a134a22764fb8637fde9f6671d6aecc80ba4526dc4548312083a81f18be080f6",
    "corr fibers --n 3 --p 1 --bogus": "8ad86141c8ef9553284223bd1ef74e7df03f24b14bcb087ec994f128bb2f4491",
    "corr branches --n 3 --p 1 --bogus": "19ee47e451dff5e37b0067a8b1ebfdffb01f1668a196a26398f14aa77c1b961d",
    "corr tiling --n 3 --p 1 --bogus": "da2304105168788a339334502d6cd2f4010a7030cd59fceafdd3b09e16e5880e",
    "corr recover --n 3 --p 1 --bogus": "78f49b848347f4e72911587b98cc6551666013a0b253128afcac9b603c09625f",
    "nogroup": "68bc393ac038af9dc98d38e79502f87ab766dc7069f52f78d3a92854feb65bc1",
    "group nocmd": "c5caa5dbb00c41b5641662bb1ee1df7d9e8f2b00bc30de12a00f48e5aed9cd3e",
    "group info --n 3 --p 1 --case III": "3a3dd4a8c2a6bbdd9aa4e849d91e92c349f38607e382b2bc92025819b0de9626",
    "bs eval --n 1 --p 4 --theta x": "c6d6bb9022e86e5485584c99eb72bc5363cbb33d902db17f5215ee39d7623aa4",
    "bs eval --n 1 --p 4 --theta -inf": "a9a288fc40b143f371bdc735cb6bcc887dfb7ccf40fb59ceba097174bf8d7174",
    "bs eval --n 1 --p 4 --theta -nan": "b57721cfd789c296d7672151f2ffbf3e7d4357b3177d7c9c34f4f1bfeec26e85",
    "bs orbit --n 1 --p 4 --theta 1 --steps -1": "11e46b1305df58a4b2afa6779053c5ecea3b9d19369acc4e3c5b58234d9d21a6",
    "corr tiling --n 3 --p 1 --len -1": "17a138a7ae1a1c59f8e270080deba4ad6dd7325b695855ee6cbcc131ce36c65b",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="digests made with Python 3.11")
@pytest.mark.parametrize("argv", HELP_AND_USAGE, ids=" ".join)
def test_help_and_usage_errors_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(argv))
    except SystemExit as exc:       # argparse exits after printing help
        code = exc.code
    out = capsys.readouterr()
    text = json.dumps([argv, code, out.out, out.err])
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_AND_USAGE_DIGESTS[" ".join(argv)]


@pytest.mark.parametrize("argv,spellings", [
    (["bs", "eval", "--n", "1", "--p", "4", "--theta"], ["-0.001", "-1e-3", "-1E-3", "-.1e-2"]),
    (["bs", "conjugacy", "--n", "3", "--p", "1", "--factor", "--theta"], ["-2.5", "-25e-1", "-2_5e-1"]),
    (["corr", "fibers", "--n", "3", "--p", "2", "--w-im", "0", "--w-re"], ["-0.5", "-5e-1", "-5.E-1"]),
    (["corr", "fibers", "--n", "3", "--p", "2", "--w-re", "0", "--w-im"], ["-0.25", "-2.5e-1"]),
])
def test_negative_numbers_parse_in_every_spelling(capsys, argv, spellings):
    # argparse took -1e-3 for an option: "--theta: expected one argument"
    outs = {run(capsys, *argv, text) for text in spellings}
    assert len(outs) == 1
    (code, out, err), = outs
    assert code == 0 and err == ""


# -- every argv exits 0, 1 or 2 ---------------------------------------------------

_SIZE = st.integers(-2, 64).map(str)
_NUMBER = st.one_of(st.floats().map(repr), st.integers(-10**6, 10**6).map(str),
                    st.sampled_from(["1e999", "-0", "x", ""]))
_SCHEMA = st.one_of(st.sampled_from(["5.1", "5.2", "5.3", "5.4", "5.5", "final",
                                     "5.6", "no-such-schema", "5.6:x"]),
                    st.integers(-2, 64).map(lambda k: f"5.6:{k}"))
_GROUP = [("group", "info"), ("group", "check"), ("corr", "branches"),
          ("corr", "recover")]
_BS = [("bs", "eval"), ("bs", "orbit"), ("bs", "partition"), ("bs", "conjugacy"),
       ("bs", "tiles")]
#: per option, the values drawn.  --rank and --len stop at 1 and 2, plus one
#: value past each cap, and rank-1 tiles at about 300,000 vertices: larger
#: outputs the budgets admit take seconds and up to gigabytes each, and the
#: budget tests cover their bounds
_OPTIONS = {"--theta": _NUMBER, "--steps": st.integers(-2, 20).map(str),
            "--depth": st.integers(-2, 70).map(str),
            "--rank": st.sampled_from(["-2", "-1", "0", "1", "9"]),
            "--len": st.sampled_from(["-2", "-1", "0", "1", "2", "9"]),
            "--w-re": _NUMBER, "--w-im": _NUMBER, "--j": st.integers(-2, 70).map(str)}
_COMMAND_OPTIONS = {("bs", "eval"): ["--theta"], ("bs", "orbit"): ["--theta", "--steps"],
                    ("bs", "conjugacy"): ["--theta", "--depth"], ("bs", "tiles"): ["--rank"],
                    ("corr", "tiling"): ["--len"],
                    ("corr", "fibers"): ["--w-re", "--w-im", "--j"]}


#: the commands that take --svg, and the paths it is drawn from, made in a
#: test's tmp_path: a file, the directory itself and a file under a missing
#: directory
_SVG_CMDS = [argv[:2] for argv in SVG_COMMANDS]
_SVG_TARGETS = {"<file>": lambda d: d / "out.svg", "<dir>": lambda d: d,
                "<missing>": lambda d: d / "missing" / "out.svg"}


def _svg_option(draw, cmd):
    if cmd in _SVG_CMDS and draw(st.booleans()):
        return ["--svg", draw(st.sampled_from(sorted(_SVG_TARGETS)))]
    return []


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(_GROUP + _BS + [("corr", "tiling"), ("corr", "fibers"),
                                               ("mate", "build"), ("mate", "report"),
                                               ("mate", "verify-poly"), ("surface", "report"),
                                               ("surface", "graph"), ("surface", "zip")]))
    argv = list(cmd)
    if cmd[0] in ("mate", "surface"):
        if cmd[1] == "verify-poly":
            argv.append(draw(st.sampled_from(["cubic_power", "deg7_symmetric", "nope"])))
        else:
            argv.append(draw(_SCHEMA))
        return argv + _svg_option(draw, cmd)
    argv += ["--n", draw(_SIZE), "--p", draw(_SIZE)]
    if cmd != ("corr", "fibers"):
        argv += ["--case", draw(st.sampled_from(["I", "II", "III"]))]
    if cmd in _BS and draw(st.booleans()):
        argv.append("--factor")
    for opt in _COMMAND_OPTIONS.get(cmd, []):
        if opt in ("--rank", "--len") or draw(st.booleans()):
            argv += [opt, draw(_OPTIONS[opt])]
    if cmd == ("bs", "tiles") and argv[-1] == "1":
        np_ = int(argv[3]) * int(argv[5])
        assume(np_ * (np_ + 1) <= 300_000)
    argv += _svg_option(draw, cmd)
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-1", "x"])))
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
@example(argv=["corr", "fibers", "--n", "3", "--p", "1", "--w-re", "1.7e308",
               "--w-im", "1.7e308"])
@example(argv=["bs", "tiles", "--n", "1", "--p", "4", "--rank", "1", "--svg", "<missing>"])
@example(argv=["corr", "tiling", "--n", "3", "--p", "1", "--len", "1", "--svg", "<dir>"])
def test_every_argv_exits_0_1_or_2(capsys, tmp_path, argv):
    argv = [str(_SVG_TARGETS[a](tmp_path)) if a in _SVG_TARGETS else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2), argv
    if code:
        assert out == "" and err.count("\n") == 1 and err.startswith("weldlab: "), argv


# -- every schema document exits 0, 1 or 2 ------------------------------------------

#: the commands that read a schema file
_SCHEMA_CMDS = [("mate", "build"), ("mate", "report"), ("surface", "report"),
                ("surface", "graph"), ("surface", "zip")]
#: slots that build, to mix with broken ones
_SLOT_POOL = [_GROUP_SLOT, _HOLE_SLOT, {"kind": "group", "n": 1, "p": 4, "case": "II"},
              {"kind": "group", "n": 1, "p": 6, "placement": "unbounded"},
              {"kind": "group", "n": 4, "p": 2}, {"kind": "blaschke", "degree": 2}]
#: JSON values of every kind, small counts, the words a schema uses, and the
#: NaN and infinities that json.dumps writes as constants json.load takes
_JSON_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-2, 8), st.floats(-9, 9),
                       st.sampled_from([math.nan, math.inf, -math.inf, 3.0]),
                       st.sampled_from(["I", "II", "III", "group", "blaschke", "bounded",
                                        "unbounded", "cubic_power", "", "3"]))
_JSON = st.recursive(_JSON_LEAF, lambda kids: st.one_of(
    st.lists(kids, max_size=3), st.dictionaries(st.sampled_from(
        ["kind", "n", "p", "case", "degree", "placement", "corners", "x"]), kids, max_size=3)),
    max_leaves=6)


@st.composite
def _schema_slot(draw):
    """A pool slot, perhaps with one field set to any JSON value or dropped,
    or any JSON value."""
    if draw(st.integers(0, 5)) == 0:
        return draw(_JSON)
    slot = dict(draw(st.sampled_from(_SLOT_POOL)))
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(slot) + ["case", "placement", "x"]))
        if draw(st.booleans()):
            slot[key] = draw(_JSON)
        else:
            slot.pop(key, None)
    return slot


@st.composite
def _schema_doc(draw):
    """A schema document: slots, identifications of corners, a polynomial
    and an unknown key, each perhaps of the wrong type; or any JSON value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON)
    doc = {"slots": draw(st.lists(_schema_slot(), max_size=3))}
    corner = st.one_of(st.lists(st.integers(-1, 6), min_size=2, max_size=2), _JSON)
    classes = st.lists(st.one_of(st.fixed_dictionaries({"corners": st.lists(corner, max_size=4)}),
                                 _JSON), max_size=3)
    for key, value in [("identifications", classes),
                       ("polynomial", st.one_of(st.sampled_from(["cubic_power", "nope"]), _JSON)),
                       ("schema_version", _JSON), ("x", _JSON)]:
        if draw(st.booleans()):
            doc[key] = draw(value)
    return doc


@settings(max_examples=120, deadline=5000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_schema_doc(), cmd=st.sampled_from(_SCHEMA_CMDS), svg=st.booleans(),
       junk=st.sampled_from([None, "--bogus", "x"]))
@example(doc={"slots": [_GROUP_SLOT], "polynomial": math.nan}, cmd=("mate", "build"),
         svg=False, junk=None)
@example(doc={"slots": [_GROUP_SLOT], "polynomial": 5}, cmd=("mate", "report"), svg=False,
         junk=None)
def test_every_schema_document_exits_0_1_or_2(capsys, tmp_path, doc, cmd, svg, junk):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    argv = [*cmd, str(path)]
    if svg and cmd in _SVG_CMDS:
        argv += ["--svg", str(tmp_path / "out.svg")]
    if junk:
        argv.append(junk)
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2), argv
    if code:
        assert out == "" and err.count("\n") == 1 and err.startswith("weldlab: "), (doc, err)
    else:
        assert err == "" and json.loads(out)["schema_version"] == 1


# -- the output side, in a child process ---------------------------------------------

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(weldlab.__file__)))


def _child_env(base=None):
    """base (os.environ by default) with weldlab imported from this tree."""
    base = os.environ if base is None else base
    path = os.pathsep.join([_SRC] + ([base["PYTHONPATH"]] if base.get("PYTHONPATH") else []))
    return {**base, "PYTHONPATH": path}


def _child(*args, env=None, **kwargs):
    """A fresh interpreter that imports weldlab from this tree."""
    return subprocess.Popen([sys.executable, *args], text=True, env=_child_env(env),
                            **kwargs)


def test_a_pipe_closed_early_is_one_line():
    # `bs tiles --n 1 --p 4 --rank 6 | head -c 100`: 764 KB, far more than a
    # pipe holds, so the writer is still writing when the reader goes
    proc = _child("-m", "weldlab.cli", "bs", "tiles", "--n", "1", "--p", "4", "--rank", "6",
                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == "weldlab: cannot write output: [Errno 32] Broken pipe\n"


def test_a_pipe_closed_between_batches_is_one_line():
    # `mate build 5.6:3000` is written in several batches: a batch the closed
    # pipe cuts short is not reported, and the next write fails
    proc = _child("-m", "weldlab.cli", "mate", "build", "5.6:3000",
                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == "weldlab: cannot write output: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_device_is_one_line():
    with open("/dev/full", "w") as full:
        proc = _child("-m", "weldlab.cli", "group", "info", "--n", "3", "--p", "2",
                      stdout=full, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == "weldlab: cannot write output: [Errno 28] No space left on device\n"


def test_a_closed_stdout_is_one_line():
    # the interpreter sets sys.stdout to None when file descriptor 1 is closed
    proc = subprocess.run(["sh", "-c", '"$0" -m weldlab.cli group info --n 3 --p 2 >&-',
                           sys.executable], text=True, capture_output=True, timeout=60,
                          env=_child_env())
    assert proc.returncode == 1
    assert proc.stderr == "weldlab: cannot write output: [Errno 9] stdout is closed\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["group", "info", "--help"]],
                         ids=["top", "group-info"])
def test_help_to_a_full_device_is_one_line(argv, unbuffered):
    # argparse drops the error of an unbuffered write, and leaves buffered
    # help to the flush at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = _child("-m", "weldlab.cli", *argv, stdout=full, stderr=subprocess.PIPE,
                      env=env)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == "weldlab: cannot write output: [Errno 28] No space left on device\n"


def test_an_interrupt_is_one_line():
    # a child of a shell's background job ignores SIGINT, so the child puts
    # Python's own handler back; it says when it reaches main, whose tiling
    # then runs for seconds
    code = ("import signal, sys\n"
            "from weldlab.cli import main\n"
            "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
            "print('ready', flush=True)\n"
            "sys.exit(main(['corr', 'tiling', '--n', '5', '--p', '6', '--len', '6']))\n")
    proc = _child("-c", code, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == "ready\n"
    time.sleep(0.2)
    proc.send_signal(signal.SIGINT)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 130
    assert out == "" and err == "weldlab: interrupted\n"


def _peak_rss_mb(*argv):
    """Peak resident set of one child running the CLI, from its own rusage."""
    proc = _child("-m", "weldlab.cli", *argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, argv
    return usage.ru_maxrss / 1024      # kilobytes on Linux


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
@pytest.mark.parametrize("argv", [["corr", "tiling", "--n", "3", "--p", "4", "--len", "5"],
                                  ["bs", "tiles", "--n", "1", "--p", "8", "--rank", "4"]],
                         ids=["corr-tiling", "bs-tiles"])
def test_svg_adds_little_to_the_peak(tmp_path, argv):
    # the SVG is written element by element: 17 and 13 MB of it here, which
    # held whole took 107 MB against 18 MB and 83 MB against 36 MB
    plain = _peak_rss_mb(*argv)
    drawn = _peak_rss_mb(*argv, "--svg", str(tmp_path / "out.svg"))
    assert drawn - plain < 10, (plain, drawn)

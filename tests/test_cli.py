import hashlib
import json
import os

import pytest

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


@pytest.mark.parametrize("argv", [
    ["corr", "tiling", "--n", "3", "--p", "1", "--len", "-1"],
    ["bs", "orbit", "--n", "1", "--p", "4", "--theta", "1.0", "--steps", "-5"],
    ["corr", "fibers", "--n", "3", "--p", "1", "--j", "5"],
    ["corr", "fibers", "--n", "0", "--p", "1"],
    ["corr", "fibers", "--n", "3", "--p", "1", "--w-re", "nan"],
    ["bs", "eval", "--n", "1", "--p", "4", "--theta", "inf"],
    ["bs", "tiles", "--n", "1", "--p", "4", "--rank", "-1"],
])
def test_out_of_range_arguments_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("weldlab: usage error:")


@pytest.mark.parametrize("argv", [
    ["corr", "tiling", "--n", "5", "--p", "6", "--len", "8"],
    ["bs", "tiles", "--n", "5", "--p", "6", "--factor", "--rank", "8"],
])
def test_tile_budget_is_a_usage_error(capsys, argv):
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
]


@pytest.mark.parametrize("argv,digest", SVG_DIGESTS)
def test_svg_bytes_pinned(capsys, tmp_path, argv, digest):
    path = tmp_path / "out.svg"
    code, _, _ = run(capsys, *argv, "--svg", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_bad_newton_name_is_a_bad_schema_name(capsys):
    code, _, err = run(capsys, "surface", "report", "no-such-schema")
    assert code == 2
    for name in ("5.6:x", "5.6x"):
        assert run(capsys, "surface", "report", name) == (
            code, "", err.replace("no-such-schema", name))

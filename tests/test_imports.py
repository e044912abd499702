"""The import floor: a command loads only the layers it runs, and nothing
loads numpy.  Each check runs in a fresh interpreter."""

import builtins
import importlib
import json
import os
import subprocess
import symtable
import sys

import pytest

import weldlab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(weldlab.__file__)))

#: the layer modules a tracer looks up on the package by name
LAYERS = ("hyperbolic", "fuchsian", "bowen_series", "mating_schema", "welding",
          "correspondence", "render", "cli")


def fresh(code: str):
    """Run code in a new interpreter that imports weldlab from this tree;
    return what it printed, parsed as JSON."""
    path = os.pathsep.join([SRC] + ([os.environ["PYTHONPATH"]]
                                    if os.environ.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    return json.loads(out.stdout)


def modules_after_command(*argv):
    """(exit code, loaded module names) of one CLI command run in-process."""
    code, modules = fresh(
        "import contextlib, io, json, sys\n"
        "from weldlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({list(argv)!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n")
    return code, set(modules)


def test_import_loads_no_layer():
    loaded = fresh("import json, sys, weldlab\n"
                   "print(json.dumps(sorted(sys.modules)))")
    assert not [m for m in loaded if m.startswith("weldlab.")]


def test_cli_import_loads_no_numpy():
    loaded = fresh("import json, sys, weldlab.cli\n"
                   "print(json.dumps(sorted(sys.modules)))")
    assert "numpy" not in loaded
    assert not {"weldlab.bowen_series", "weldlab.correspondence",
                "weldlab.render"} & set(loaded)


def test_group_info_loads_no_numpy():
    code, loaded = modules_after_command("group", "info", "--n", "3", "--p", "1")
    assert code == 0
    assert "numpy" not in loaded
    assert "weldlab.fuchsian" in loaded and "weldlab.mating_schema" not in loaded


def test_surface_report_loads_only_its_layers():
    code, loaded = modules_after_command("surface", "report", "5.4")
    assert code == 0
    assert {"weldlab.mating_schema", "weldlab.welding"} <= loaded
    assert not {"weldlab.bowen_series", "weldlab.correspondence",
                "weldlab.render", "numpy"} & loaded


#: stdlib modules that cost milliseconds to import: dataclasses pulls in
#: inspect, which pulls in ast, dis and tokenize
HEAVY = {"dataclasses", "inspect"}


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_import_loads_no_dataclasses(layer):
    loaded = fresh(f"import json, sys, weldlab.{layer}\n"
                   "print(json.dumps(sorted(sys.modules)))")
    assert f"weldlab.{layer}" in loaded
    assert not HEAVY & set(loaded)


@pytest.mark.parametrize("argv", [
    ["group", "info", "--n", "3", "--p", "1"],
    ["surface", "report", "5.4"],
    ["bs", "tiles", "--n", "1", "--p", "4", "--rank", "3"],
    ["corr", "tiling", "--n", "3", "--p", "1", "--svg"],
])
def test_command_loads_no_dataclasses(tmp_path, argv):
    if argv[-1] == "--svg":
        argv = argv + [str(tmp_path / "out.svg")]
    code, loaded = modules_after_command(*argv)
    assert code == 0
    assert not HEAVY & loaded


def test_every_public_name_resolves():
    missing = fresh(
        "import json, weldlab\n"
        "print(json.dumps([n for n in weldlab.__all__ "
        "if getattr(weldlab, n, None) is None]))")
    assert missing == []
    for name in weldlab.__all__:
        obj = getattr(weldlab, name)
        assert getattr(sys.modules[f"weldlab.{weldlab._HOME[name]}"], name) is obj
    assert set(weldlab.__all__) <= set(dir(weldlab))


def test_layer_lookup_imports_the_submodule():
    same = fresh(
        "import json, sys, weldlab\n"
        f"print(json.dumps([getattr(weldlab, m) is sys.modules['weldlab.' + m] "
        f"for m in {list(LAYERS)!r}]))")
    assert same == [True] * len(LAYERS)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        weldlab.no_such_name
    assert not hasattr(weldlab, "no_such_name")


def test_one_schema_version():
    import weldlab.mating_schema as ms
    assert ms.SCHEMA_VERSION is weldlab.SCHEMA_VERSION == 1


def test_one_max_depth():
    import weldlab.bowen_series as bs
    import weldlab.cli as cli
    assert bs.MAX_DEPTH is cli.MAX_DEPTH is weldlab.MAX_DEPTH == 64


def _global_reads(table):
    """Names that table and the scopes nested in it read from module scope."""
    for sym in table.get_symbols():
        if sym.is_referenced() and (table.get_type() == "module" or sym.is_global()):
            yield sym.get_name()
    for child in table.get_children():
        yield from _global_reads(child)


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_reads_only_defined_globals(layer):
    # a layer once raised an error class it never imported
    module = importlib.import_module(f"weldlab.{layer}")
    with open(module.__file__, encoding="utf-8") as fh:
        table = symtable.symtable(fh.read(), module.__file__, "exec")
    undefined = {name for name in _global_reads(table)
                 if not hasattr(module, name) and not hasattr(builtins, name)}
    assert not undefined

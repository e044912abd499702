"""The `package` job of the CI workflow, run from this tree: each `weldlab`
line of the job as `python -m weldlab.cli` from a temporary directory, and
the package data that the installed console script reads."""

import ast
import glob
import os
import re
import shlex
import string
import subprocess
import sys

import weldlab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(weldlab.__file__)))
ROOT = os.path.dirname(SRC)
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tests.yml")
#: shell lines of the job that neither run weldlab nor set a variable
BOOKKEEPING = re.compile(r"(code=0|cat \S+|test .*)$")
#: a shell operator: what follows it is not part of the weldlab argv
OPERATORS = {">", "2>", "|", "||", "&&", ";"}


def package_blocks():
    """The job's `run: |` blocks, each a list of shell lines with backslash
    continuations joined.  The workflow is read as text, so no YAML parser is
    needed."""
    lines = open(WORKFLOW, encoding="utf-8").read().splitlines()
    job = lines[lines.index("  package:") + 1:]
    job = job[:next((i for i, line in enumerate(job) if line[:4].strip()), len(job))]
    blocks, indent = [], None
    for line in job:
        depth = len(line) - len(line.lstrip())
        if line.rstrip().endswith("run: |"):
            blocks.append([])
            indent = line.index("run:")
        elif indent is not None and line.strip() and depth > indent:
            blocks[-1].append(line.strip())
        else:
            indent = None
    joined = []
    for block in blocks:
        joined.append([])
        for line in block:
            if joined[-1] and joined[-1][-1].endswith("\\"):
                joined[-1][-1] = joined[-1][-1][:-1] + line
            else:
                joined[-1].append(line)
    return joined


def _env():
    path = os.pathsep.join([SRC] + ([os.environ["PYTHONPATH"]]
                                    if os.environ.get("PYTHONPATH") else []))
    return {**os.environ, "PYTHONPATH": path}


def test_package_job_commands_run_from_this_tree(tmp_path):
    env, names = _env(), {"RUNNER_TEMP": str(tmp_path)}
    ran = 0
    for block in package_blocks():
        want = re.search(r'test "\$code" -eq (\d+)', " ".join(block))
        want = int(want.group(1)) if want else 0
        for line in block:
            assign = re.fullmatch(r"(\w+)=\$\((.*)\)", line)
            if assign:
                argv = shlex.split(assign.group(2))
                argv[0] = sys.executable if argv[0] == "python" else argv[0]
                names[assign.group(1)] = subprocess.run(
                    argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                    check=True).stdout.strip()
                continue
            if not line.startswith("weldlab "):
                assert BOOKKEEPING.match(line), f"unknown line in the package job: {line}"
                continue
            words = shlex.split(line)[1:]
            words = words[:next((i for i, w in enumerate(words) if w in OPERATORS),
                                len(words))]
            argv = [string.Template(w).substitute(names) for w in words]
            out = subprocess.run([sys.executable, "-m", "weldlab.cli", *argv], cwd=tmp_path,
                                 env=env, capture_output=True, text=True)
            assert out.returncode == want, (line, out.stderr)
            assert "Traceback" not in out.stderr, line
            if want:
                assert out.stdout == "" and out.stderr.startswith("weldlab: "), line
            ran += 1
    # 33 commands in the first block, among them the fixture read by its path,
    # the merged face of `mate build 5.4`, the hole diagram of `mate build
    # 5.2` beside its Blaschke slots, the 16 MB `mate build 5.6:20000` written
    # in several batches, the degree-19,999, 59,999 and 129,999 conjugacies,
    # the (64, 399) conjugacy at an angle whose pull-backs pass just inside
    # piece ends, the 64 root lifts of the (64, 7) factor degree and the
    # two-digit letter names of the (1, 20) tiling, and then the unwritable
    # and the empty --svg
    assert ran >= 35


def test_package_data_holds_every_fixture():
    text = open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8").read()
    section = text.split("[tool.setuptools.package-data]", 1)[1].split("\n[", 1)[0]
    patterns = ast.literal_eval(re.search(r"^weldlab\s*=\s*(\[.*\])", section, re.M).group(1))
    package = os.path.join(SRC, "weldlab")
    shipped = {path for pattern in patterns for path in glob.glob(os.path.join(package, pattern))}
    fixtures = glob.glob(os.path.join(package, "fixtures", "**", "*"), recursive=True)
    missed = [path for path in fixtures if os.path.isfile(path) and path not in shipped]
    assert fixtures and not missed

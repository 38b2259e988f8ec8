import ast
import importlib
import inspect
import itertools
import re
import subprocess
import sys
from pathlib import Path

import pytest

import seprec

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "perfbench" / "layers.py"


def test_star_import_exports_every_listed_name():
    # a stale __all__ entry makes the star import raise AttributeError
    namespace: dict[str, object] = {}
    exec("from seprec import *", namespace)
    assert len(set(seprec.__all__)) == len(seprec.__all__)
    for name in seprec.__all__:
        assert namespace[name] is getattr(seprec, name), name


def test_every_export_is_the_object_of_its_home_module():
    # each name is looked up in its home module on access, so a patch there
    # reaches the package name too
    assert sorted(name for names in seprec._EXPORTS.values() for name in names) == seprec.__all__
    for name, module in seprec._HOME.items():
        obj = getattr(seprec, name)
        assert obj is getattr(importlib.import_module(f"seprec.{module}"), name), name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == f"seprec.{module}", name
    assert set(seprec.__all__) <= set(dir(seprec))
    with pytest.raises(AttributeError, match="no_such_name"):
        seprec.no_such_name  # noqa: B018


def test_importing_the_package_loads_no_module_of_it():
    script = "import sys\nimport seprec\nprint(sorted(m for m in sys.modules if m.startswith('seprec')))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['seprec']\n"


def _literal(tree: ast.Module, name: str):
    value, = (node.value for node in tree.body if isinstance(node, ast.Assign)
              and [ast.unparse(t) for t in node.targets] == [name])
    return ast.literal_eval(value)


def test_benchmark_trace_names_resolve():
    # perfbench/layers.py looks seprec names up by string and patches them in
    # place; read it without importing it, so that a deletion here cannot
    # break the traced benchmark unseen
    tree = ast.parse(LAYERS.read_text())
    modules = set(_literal(tree, "MODULES"))

    def resolve(dotted: str):
        root, *rest = dotted.split(".")
        obj = importlib.import_module(f"seprec.{root}")
        for part in rest:
            obj = getattr(obj, part)
        return obj

    for mod, names in _literal(tree, "SPANNED").items():
        for name in names:
            assert callable(resolve(f"{mod}.{name}")), f"{mod}.{name}"
    for name in _literal(tree, "STREAMS"):
        assert callable(resolve(f"setpart.{name}")), name
    # every module attribute the file reads, and the keywords it passes
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node).split(".")[0] in modules:
            resolve(ast.unparse(node))
        if isinstance(node, ast.Call) and node.keywords and ast.unparse(node.func).split(".")[0] in modules:
            inspect.signature(resolve(ast.unparse(node.func))).bind_partial(
                **{kw.arg: None for kw in node.keywords})
    from seprec import cli, oracle, series, stats, verify
    assert cli._SUITES is verify.SUITES
    # the counters are installed into this dict and into the class itself
    assert isinstance(cli._PLAIN_STATS, dict)
    assert any(fn is stats.sep for fn in cli._PLAIN_STATS.values())
    assert "__mul__" in vars(series.QPoly)
    assert "workers" in inspect.signature(oracle.brute_totals_by_k).parameters


def test_readme_budget_table_matches_the_constants():
    # the size-budget table of README.md: each Budget cell holds the value of
    # the module.CONSTANT in its Constant cell (the costs stay prose)
    text = (ROOT / "README.md").read_text()
    header = "| Input | Budget | Constant | Cost at the budget |"
    lines = text[text.index(header):].splitlines()
    rows = list(itertools.takewhile(lambda line: line.lstrip().startswith("|"), lines))[2:]
    assert len(rows) >= 10
    for row in rows:
        _, budget, constant = (cell.strip() for cell in row.strip().strip("|").split("|")[:3])
        module, name = constant.strip("`").split(".")
        want = getattr(importlib.import_module(f"seprec.{module}"), name)
        value, = re.findall(r"\d[\d,]*", budget)
        assert int(value.replace(",", "")) == want, row

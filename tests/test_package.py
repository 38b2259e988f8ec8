import ast
import importlib
import inspect
import itertools
import json
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


# defined in src/seprec but referenced in no program file, with the reason
UNREFERENCED = {
    "formulas.bell_egf": "spanned by perfbench/layers.py; deleted after the benchmark re-freeze",
    "series.word_sum_factor": "spanned by perfbench/layers.py; deleted after the benchmark re-freeze",
    "series.word_count_factor": "spanned by perfbench/layers.py; deleted after the benchmark re-freeze",
    "series.QPoly.deriv_at_one": "public method, the reference of the q-derivative test",
}


def test_every_function_is_referenced_by_the_program():
    # a dead-code ledger: every top-level function and every method of
    # src/seprec is named in src/seprec (outside __init__.py), demos/ or
    # scripts/, or is exempt above; dunders are called by the interpreter
    defined = {}
    for path in sorted((ROOT / "src" / "seprec").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for fn in [node, *methods]:
                if isinstance(fn, ast.FunctionDef) and not fn.name[:2] == fn.name[-2:] == "__":
                    owner = "" if fn is node else f"{node.name}."
                    defined[f"{path.stem}.{owner}{fn.name}"] = fn.name
    programs = [path for path in (ROOT / "src" / "seprec").glob("*.py") if path.name != "__init__.py"]
    programs += [*(ROOT / "demos").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    named = set()
    for path in programs:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):  # from m import f as g
                named.add(node.name)
    assert {dotted for dotted, name in defined.items() if name not in named} == set(UNREFERENCED)


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


def test_every_cited_benchmark_record_is_kept():
    # a figure cited from BENCH_<n>.json keeps its record at the repo root
    cited = {name for doc in ("README.md", "ROADMAP.md", "CHANGES.md")
             for name in re.findall(r"BENCH_\d+\.json", (ROOT / doc).read_text())}
    assert cited
    for name in sorted(cited):
        json.loads((ROOT / name).read_text())

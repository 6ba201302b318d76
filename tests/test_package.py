"""The package's public surface: the export rule, the caller rule, the
version and README's library example."""

import ast
import inspect
import re
import sys
import types
from pathlib import Path

import cochange
from cochange import Recommendation, save_snapshot
from cochange.cli import main

from synthgen import generic_graph

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


class TestExports:
    """``__all__`` is derived from ``__init__``'s imports; these check the
    rule that derives it, not a copy of the list."""

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from cochange import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == cochange.__all__
        assert cochange.__all__ == sorted(set(cochange.__all__))

    def test_every_export_is_defined_in_a_cochange_module(self):
        for name in cochange.__all__:
            value = getattr(cochange, name)
            assert not name.startswith("_"), name
            assert not isinstance(value, types.ModuleType), name
            assert value.__module__.startswith("cochange."), name

    def test_recommend_is_the_function_not_the_module(self):
        assert cochange.recommend is sys.modules["cochange.recommend"].recommend

    def test_every_exported_function_has_a_caller(self, monkeypatch):
        # ROADMAP aim 2: an export needs a caller in src/, the acceptance
        # tests, bench/ or README's examples.  A call inside the function's
        # own def does not count, nor one inside an export that has no
        # caller itself.  Classes are exempt.  single_consequent_rules is
        # the unit tests' reference for the ranker and bench/ reports its
        # calls by name; ROADMAP item 15 says when it leaves.
        monkeypatch.chdir(ROOT)
        KEPT = {"single_consequent_rules"}
        public = {n for n in cochange.__all__ if inspect.isfunction(getattr(cochange, n))}
        calls = set()  # (callee, the src/ def it is called from, or None)
        for path in [*Path("src/cochange").glob("*.py"), Path("tests/test_acceptance.py"),
                     *Path("bench").glob("*.py"), Path("README.md")]:
            if path.name == "__init__.py":
                continue
            text = path.read_text(encoding="utf-8")
            blocks = re.findall(r"```python\n(.*?)```", text, re.S) if path.suffix == ".md" else [text]
            for tree in map(ast.parse, blocks):
                for top in tree.body:
                    owner = getattr(top, "name", None) if path.parts[0] == "src" else None
                    calls |= {(getattr(n.func, "id", getattr(n.func, "attr", None)), owner)
                              for n in ast.walk(top) if isinstance(n, ast.Call)}
        uncalled = set()
        while uncalled != (found := public - {c for c, o in calls if o != c and o not in uncalled}):
            uncalled = found
        assert not uncalled - KEPT, (
            f"exported but never called: {', '.join(sorted(uncalled - KEPT))}")


def test_package_cli_and_pyproject_declare_one_version(capsys):
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.findall(r'^version = "(.*)"$', pyproject, re.M)
    assert main(["--version"]) == 0
    assert declared == [cochange.__version__] == [capsys.readouterr().out.strip()]


def test_readme_library_example_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library use\n"):]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    save_snapshot(generic_graph(7, 70), tmp_path / "myproject.jsonl")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert isinstance(namespace["rec"], Recommendation)

"""The package's public surface: the export rule and README's library example."""

import re
import sys
import types
from pathlib import Path

import cochange
from cochange import Recommendation, save_snapshot

from synthgen import generic_graph

README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_readme_library_example_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library use\n"):]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    save_snapshot(generic_graph(7, 70), tmp_path / "myproject.jsonl")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert isinstance(namespace["rec"], Recommendation)

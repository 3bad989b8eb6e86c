"""The one writer of CSV and JSON artifacts, that no other module writes,
and that the package defines only what its own code names."""

import ast
import json
from pathlib import Path

import numpy as np

from rtstab import artifacts
from rtstab.artifacts import write_csv, write_json


def test_csv_formats_each_column_by_its_cells(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "f,b,i,s", [[0.1, 1.0, -0.0], [True, False, True], [7, -2, 0],
                                ["minus", "plus", "x"]])
    assert path.read_text(encoding="utf-8") == (
        "f,b,i,s\n0.10000000000000001,true,7,minus\n1,false,-2,plus\n-0,true,0,x\n")


def test_csv_takes_numpy_columns(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "f,i,b,s", [np.array([np.pi, 1e-300]), np.arange(2),
                                np.array([False, True]), np.array(["a", "b"])])
    assert path.read_text(encoding="utf-8") == (
        "f,i,b,s\n3.1415926535897931,0,false,a\n1e-300,1,true,b\n")
    cells = path.read_text(encoding="utf-8").splitlines()[1].split(",")
    assert float(cells[0]) == np.pi  # %.17g round-trips


def test_csv_header_may_span_lines_and_a_table_may_be_empty(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "N1,N2\n2,2", np.eye(2).T)
    assert path.read_text(encoding="utf-8") == "N1,N2\n2,2\n1,0\n0,1\n"
    write_csv(path, "a,b", [[], []])
    assert path.read_text(encoding="utf-8") == "a,b\n"
    write_csv(path, "a,b", zip(*[]))  # no rows at all, as from an empty curve
    assert path.read_text(encoding="utf-8") == "a,b\n"


def test_json_sorts_keys_and_closes_with_a_newline(tmp_path):
    path = tmp_path / "t.json"
    write_json({"b": [1, None], "a": np.float64(0.1), "c": True, "d": "inf"}, path)
    text = path.read_text(encoding="utf-8")
    assert text == ('{\n  "a": 0.1,\n  "b": [\n    1,\n    null\n  ],\n'
                    '  "c": true,\n  "d": "inf"\n}\n')
    assert json.loads(text)["a"] == 0.1


def _writes(node) -> bool:
    """Whether node calls open with a writing mode or a file writer."""
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    if name == "open":
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        return any(not (isinstance(m, ast.Constant) and set(m.value) <= set("rbt"))
                   for m in modes)
    return name in {"dump", "dumps", "write_text", "write_bytes", "savetxt", "tofile"}


def test_only_artifacts_writes_files():
    # every artifact goes through write_csv or write_json: no other module
    # of the package opens a file for writing or serializes JSON
    writing = {path.name for path in Path(artifacts.__file__).parent.glob("*.py")
               if any(map(_writes, ast.walk(ast.parse(path.read_text(encoding="utf-8")))))}
    assert writing == {"artifacts.py"}


# module-level names of the package that no package code names, each a
# library entry point kept for its reason
ENTRY_POINTS = {
    "check_admissibility": "the admissibility report that run.json is to carry",
    "write_field_csv": "the writer half of the field CSV format that extend reads",
}


def test_every_definition_is_named_in_package_code():
    # a module-level function or class that no code of the package names (a
    # docstring mention does not count) serves tests only: it belongs in tests/
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(artifacts.__file__).parent.glob("*.py")]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert defined - named == set(ENTRY_POINTS)

"""No floats in the program: an ast scan of every module of src/raytheta."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "raytheta"
EXACT_MATH = {"gcd", "isqrt", "lcm"}
# the one float of the program: report.py's row timer, seconds to milliseconds
TIMER = ("report.py", 1000.0)


def inexact(path: Path):
    """Float literals, float() calls and inexact math imports in one file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            if (path.name, node.value) != TIMER:
                yield f"{where}: float literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield f"{where}: float() call"
        elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
            yield f"{where}: import math"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for name in sorted({a.name for a in node.names} - EXACT_MATH):
                yield f"{where}: from math import {name}"


def test_program_has_no_floats():
    files = sorted(SRC.glob("*.py"))
    assert {f.name for f in files} >= {"quadfield.py", "qseries.py", "rayclass.py", "report.py"}
    assert [hit for f in files for hit in inexact(f)] == []


def test_guard_sees_each_kind_of_float(tmp_path):
    sample = tmp_path / "quadfield.py"
    sample.write_text("from math import gcd, sqrt\nimport math\nx = 0.5 + 1000.0\ny = float(3)\n")
    assert sorted(inexact(sample)) == [
        "quadfield.py:1: from math import sqrt",
        "quadfield.py:2: import math",
        "quadfield.py:3: float literal 0.5",
        "quadfield.py:3: float literal 1000.0",
        "quadfield.py:4: float() call",
    ]

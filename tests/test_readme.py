"""The README's library quick start runs against the current API."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_library_quick_start_runs_and_matches_its_comments():
    # Every statement runs; an expression whose trailing comment is a Python
    # literal must evaluate to that literal.
    source = _quick_start()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        expr = compile(ast.Expression(stmt.value), "README.md", "eval")
        value = eval(expr, namespace)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        try:
            expected = ast.literal_eval(comment)
        except (SyntaxError, ValueError):
            continue
        assert value == expected, (ast.unparse(stmt), value)
        checked += 1
    assert checked >= 4

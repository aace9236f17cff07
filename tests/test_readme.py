"""The README's library quick tour runs and shows the values its comments claim."""

import ast
import re
from pathlib import Path

import deferral as d

_README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    text = _README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_tour_values_match_their_comments():
    source = _quick_tour()
    lines = source.splitlines()
    namespace: dict = {}
    checked = {}
    for statement in ast.parse(source).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        try:
            claimed = ast.literal_eval(lines[statement.end_lineno - 1].partition("#")[2].strip())
        except (ValueError, SyntaxError):
            continue  # a prose comment, not a value
        if isinstance(value, d.ClosedInterval):
            value = [value.lo, value.hi]
        checked[ast.get_source_segment(source, statement)] = (value, claimed)
    assert len(checked) == 3, checked
    for got, claimed in checked.values():
        assert got == claimed

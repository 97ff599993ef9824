"""The README's library example runs, and every exported name resolves."""

from pathlib import Path

import lieranders

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(heading):
    """The first ```python block under the README heading ``## heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs(capsys):
    exec(compile(python_block("Library example"), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "RandersClass.NON_BERWALD_DOUGLAS"
    assert lines[1].startswith("FlagCurvatureResult(")
    assert lines[2] == lines[1]
    assert lines[3].startswith("(Fraction(")


def test_every_export_resolves():
    names = lieranders.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(lieranders, name)] == []

"""The README's library quick start runs as written."""
import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

# The quick start removes a 3 x 4 x 6 m box: 72 m^3.
ANALYTIC_VOLUME = 72.0


def library_quick_start() -> str:
    """Source of the first python block under "Quick start (library)"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (library)", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under 'Quick start (library)'"
    return match.group(1)


def test_library_quick_start_runs_and_estimates_volume():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_quick_start(), str(README), "exec"), {})
    last = out.getvalue().strip().splitlines()[-1]
    match = re.fullmatch(r"(\S+) m\^3 removed; analytic: (\S+)", last)
    assert match, f"unexpected last line: {last!r}"
    estimate, analytic = float(match.group(1)), float(match.group(2))
    # Criterion 8's volume oracle: within 5 % of analytic truth.
    assert analytic == pytest.approx(ANALYTIC_VOLUME)
    assert estimate == pytest.approx(ANALYTIC_VOLUME, rel=0.05)

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_prints_what_its_comments_say():
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    outcome, residual, radius = out.getvalue().splitlines()
    assert outcome == "converged 8"
    commented = float(re.search(r"records\[-1\]\.residual\)\s+# ~(\S+)", block).group(1))
    assert commented / 10 <= float(residual) <= commented * 10
    assert radius == "0.24662654670688983"

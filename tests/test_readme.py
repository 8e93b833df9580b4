"""The README's Python examples run as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_examples_run_in_one_namespace(capsys):
    # the second example reads names the first one defines
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    cross, distance, passed = capsys.readouterr().out.splitlines()
    assert "0.5" in cross
    assert 0.0 <= float(distance) < 0.05
    assert passed == "True"

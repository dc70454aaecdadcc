"""The library example in README.md runs and prints what its comment says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_as_documented(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.M | re.S)
    assert len(blocks) == 1
    code = blocks[0]
    # The comment on the print line: "# 2.0, ~1e-17, True".
    expected_k = float(re.search(r"print\(.*\)\s+#\s*([-+.\deE]+),", code)[1])
    exec(compile(code, str(README), "exec"), {})
    k, h_dot_h, trapped = capsys.readouterr().out.split()
    assert abs(float(k) - expected_k) <= 1e-12
    assert abs(float(h_dot_h)) <= 1e-12
    assert trapped == "True"

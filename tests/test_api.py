import re
from pathlib import Path

import myoctl

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    for name in myoctl.__all__:
        assert getattr(myoctl, name) is not None, name


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library example"):]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(example, str(README), "exec"), {})
    assert "round-trip RMSE" in capsys.readouterr().out

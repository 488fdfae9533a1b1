import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import myoctl

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    for name in myoctl.__all__:
        assert getattr(myoctl, name) is not None, name


SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(myoctl.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("submodule", SUBMODULES)
def test_every_submodule_export_resolves(submodule):
    module = importlib.import_module(f"myoctl.{submodule}")
    assert module.__all__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library example"):]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(example, str(README), "exec"), {})
    assert "round-trip RMSE" in capsys.readouterr().out

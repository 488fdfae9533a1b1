import ast
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


SOURCES = sorted(Path(myoctl.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module-level import binds that the module never references and
    its ``__all__`` does not list; a statement whose first line carries
    ``# noqa: F401`` (an import kept for the benchmark tracer) is skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound, exported = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" not in lines[node.lineno - 1]:
                bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used - exported)


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == []

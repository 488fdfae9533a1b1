"""Every name the benchmark tracer patches must exist in the program.

``bench/spans.py`` wraps module attributes by name; a renamed or removed
function would make traced benchmark runs fail at start-up.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_patch_points():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCH_POINTS


def test_every_patch_point_resolves():
    points = load_patch_points()
    assert points
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _, _ in points
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []

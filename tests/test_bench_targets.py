"""The benchmark's wrap points are bound in the program.

``perfbench/layers.py`` names the module-level cstm functions that a traced
benchmark run (``--trace 1``) replaces with timing wrappers.  A name the
program stops binding, for example an import that ``cstm.experiments`` no
longer needs, would make that run fail with ``AttributeError``.  This test
only reads the target list; it runs no benchmark.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402


def test_every_wrap_point_resolves():
    targets = layers.all_targets()
    assert targets
    missing = [
        f"{t.module.__name__}.{t.attr}"
        for t in targets
        if not callable(getattr(t.module, t.attr, None))
    ]
    assert missing == []

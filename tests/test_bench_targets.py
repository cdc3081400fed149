"""The benchmark's wrap points are bound in the program, and reached by it.

``perfbench/layers.py`` names the module-level cstm functions that a traced
benchmark run (``--trace 1``) replaces with timing wrappers.  A name the
program stops binding, for example an import that ``cstm.experiments`` no
longer needs, would make that run fail with ``AttributeError``; a name the
program still binds but no longer calls would make its metrics read 0.
The first test only reads the target list; the second runs a tiny study
under the wrappers.
"""

import sys
from collections import Counter
from pathlib import Path

from cstm import experiments
from cstm.acmtf import AcmtfHyperParams

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402


def test_every_wrap_point_resolves():
    targets = layers.all_targets()
    assert targets
    missing = [
        f"{t.module.__name__}.{t.attr}"
        for t in targets
        if not callable(getattr(t.module, t.attr, None))
    ]
    assert missing == []


def test_the_study_path_reaches_the_wrapped_names():
    cfg = experiments.ExperimentConfig(
        case=3, n_per_class=6, repetitions=2, seed=5,
        acmtf=AcmtfHyperParams(rank=3, cg_tol=1e-4, max_iters=40),
    )
    tracer = spans.Tracer()
    with tracer.installed(layers.all_targets()):
        experiments.run_experiment(cfg)
    calls = Counter(s.name for s in tracer.spans)
    fits = len(cfg.methods) * cfg.repetitions
    # Each repetition fits every method once, and each fit's dual solve is
    # the one stm.solve_qp call the output checks read.
    assert calls["stm.fit"] == calls["stm.solve_qp"] == fits
    assert all(tracer.spans[s.parent].name == "stm.fit"
               for s in tracer.spans if s.name == "stm.solve_qp")
    reached = ("kernels.gram_matrix", "kernels.cp_gram", "kernels.default_coupled_spec",
               "kernels.default_cp_specs", "kernels.gram_cross", "kernels.cp_gram_cross",
               "stm.decision_many")
    assert [name for name in reached if not calls[name]] == []

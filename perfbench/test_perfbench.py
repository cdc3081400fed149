"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Span, Target, Tracer, self_times, tail_percentile  # noqa: E402
from workloads import COUPLED_RANKS, make_factor_sets  # noqa: E402


def _span(start, end, parent=None):
    return Span("x", "bench", start, end, parent)


class TestSelfTimes:
    def test_nested_children_count_only_direct_children(self):
        spans = [
            _span(0, 10),
            _span(1, 4, parent=0),
            _span(2, 3, parent=1),
            _span(5, 6, parent=0),
        ]
        assert self_times(spans) == [6, 2, 1, 1]

    def test_overlapping_children_are_counted_once(self):
        spans = [_span(0, 10), _span(1, 5, parent=0), _span(3, 7, parent=0)]
        assert self_times(spans)[0] == 4

    def test_children_are_clipped_to_the_parent(self):
        spans = [_span(0, 10), _span(8, 12, parent=0), _span(-1, 1, parent=0)]
        assert self_times(spans)[0] == 7

    def test_disjoint_tree_self_times_sum_to_root_duration(self):
        spans = [
            _span(0, 100),
            _span(10, 20, parent=0),
            _span(30, 60, parent=0),
            _span(35, 40, parent=2),
            _span(45, 50, parent=2),
        ]
        assert self_times(spans) == [60, 10, 20, 5, 5]
        assert sum(self_times(spans)) == 100


class TestTailPercentile:
    @pytest.mark.parametrize("n", [0, 1, 10])
    def test_none_without_ten_samples_beyond(self, n):
        assert tail_percentile(range(n)) is None

    @pytest.mark.parametrize("n", [11, 12, 30, 40, 99, 100, 101, 1000, 1234])
    def test_highest_percentile_with_ten_beyond(self, n):
        values = list(np.random.default_rng(n).permutation(n))
        p, v = tail_percentile(values)
        xs = sorted(values)
        rank = xs.index(v) + 1
        assert n - rank >= 10
        # The next whole percentile would leave fewer than ten beyond it.
        assert n - (-(-(p + 1) * n // 100)) < 10

    def test_known_values(self):
        assert tail_percentile(range(1, 41)) == (75, 30)
        assert tail_percentile(range(1, 12)) == (9, 1)


class TestTracer:
    def test_wraps_records_parents_and_restores(self):
        class Mod:
            @staticmethod
            def outer(x):
                return Mod.inner(x) + 1

            @staticmethod
            def inner(x):
                return 2 * x

        original = Mod.inner, Mod.outer
        tracer = Tracer()
        tracer.pass_id = 7
        targets = [Target(Mod, "outer", "stm"),
                   Target(Mod, "inner", "kernels", lambda a, k, r: {"out": r})]
        with tracer.installed(targets):
            assert Mod.outer(3) == 7
        assert (Mod.inner, Mod.outer) == original
        outer, inner = tracer.spans
        assert (outer.name, outer.parent, outer.pass_id) == ("stm.outer", None, 7)
        assert (inner.name, inner.parent, inner.attrs) == ("kernels.inner", 0, {"out": 6})
        assert outer.start <= inner.start <= inner.end <= outer.end


class TestFactorSets:
    def test_same_seed_same_sets(self):
        a, b = make_factor_sets(5), make_factor_sets(5)
        assert np.array_equal(a.labels, b.labels)
        for fa, fb in zip(a.coupled, b.coupled):
            assert fa.rank == fb.rank
            for x, y in zip(fa.u1.factors + fa.u2.factors, fb.u1.factors + fb.u2.factors):
                assert np.array_equal(x, y)
        for pa, pb in ((a.cp_tensor, b.cp_tensor), (a.cp_matrix, b.cp_matrix)):
            for ta, tb in zip(pa, pb):
                assert all(np.array_equal(x, y) for x, y in zip(ta.factors, tb.factors))

    def test_other_seed_other_sets(self):
        a, b = make_factor_sets(5), make_factor_sets(6)
        assert not np.array_equal(a.coupled[0].u1.factors[0], b.coupled[0].u1.factors[0])

    def test_shapes_labels_and_rank_mix(self):
        s = make_factor_sets(0)
        assert s.labels.tolist() == [-1.0] * 50 + [1.0] * 50
        ranks = [f.rank for f in s.coupled]
        assert set(ranks) <= set(COUPLED_RANKS) and len(set(ranks)) > 1
        assert {t.rank for t in s.cp_tensor + s.cp_matrix} == {5}
        assert s.coupled[0].dims == (30, 20, 10, 50)
        for f in s.coupled[:5]:
            for m in f.u1.factors + f.u2.factors:
                assert np.allclose(np.linalg.norm(m, axis=0), 1.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in layers.PER_LAYER
    ]
    assert {w["name"] for w in spec["workloads"]} == {"study", "classify", "fit-predict"}


class _FakeWorkload:
    name, units, cycle = "fake", 2, 1

    def op(self, inputs, index, serial):
        if index == 1:
            raise RuntimeError("boom")
        return index

    def evaluate(self, inputs, index, raw, spans):
        from workloads import Outcome

        return Outcome(units=self.units, failed=0, fingerprint=int(raw == 2))


def test_runner_counts_errors_and_changed_outputs():
    runner = run.Runner(_FakeWorkload(), None, Tracer())
    for i in range(4):
        runner.run_op(i)
    assert [o.failed for o in runner.outcomes] == [0, 2, 2, 0]
    assert "boom" in runner.outcomes[1].problems[0]
    assert "differ" in runner.outcomes[2].problems[0]


class _CountingSetup:
    def __init__(self):
        self.dirs = []

    def setup(self, seed, workdir):
        self.dirs.append(workdir)
        return (seed, workdir)


def test_setups_spread_over_the_run_each_in_its_own_directory(tmp_path):
    wl = _CountingSetup()
    setups = run.Setups(wl, 3, tmp_path)
    assert setups.inputs == (3, wl.dirs[0]) and len(setups.times) == 1
    setups.catch_up(0.5)
    assert len(setups.times) == -(-run.SETUP_CALLS // 2)
    setups.catch_up(2.0)
    assert len(setups.times) == len(wl.dirs) == run.SETUP_CALLS
    assert len(set(wl.dirs)) == len(wl.dirs)
    # Only the first call's directory, which holds the inputs, is kept.
    assert [p.name for p in tmp_path.iterdir()] == [Path(wl.dirs[0]).name]


def test_git_commit_reads_loose_and_packed_refs(tmp_path, monkeypatch):
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    (git / "packed-refs").write_text("# pack-refs\nabc123 refs/heads/main\n")
    assert run.git_commit() == "abc123"
    (git / "refs" / "heads" / "main").write_text("def456\n")
    assert run.git_commit() == "def456"
    (git / "HEAD").write_text("0123abcd\n")
    assert run.git_commit() == "0123abcd"
    monkeypatch.setattr(run, "ROOT", tmp_path / "none")
    assert run.git_commit() is None


class _Steps:
    """A workload, runner and set-ups that only record what measure does."""

    cycle = 3

    def __init__(self, workers):
        self.workers = workers
        self.cpus = []
        self.setup_shares = []

    def run_op(self, index):
        self.cpus.append(run.os.sched_getaffinity(0))
        return 0.01, index

    def catch_up(self, share):
        self.setup_shares.append(share)


@pytest.mark.parametrize("workers", [1, 2])
def test_measure_takes_cpus_in_turn_only_without_workers(monkeypatch, workers):
    affinity = [{0, 1}]
    monkeypatch.setattr(run.os, "sched_getaffinity", lambda pid: set(affinity[-1]))
    monkeypatch.setattr(run.os, "sched_setaffinity", lambda pid, cpus: affinity.append(set(cpus)))
    steps = _Steps(workers)
    op_times = run.measure(steps, steps, Tracer(), 0.05, steps)
    assert len(op_times) >= steps.cycle
    if workers == 1:
        assert steps.cpus[:3] == [{0}, {1}, {0}]
    else:
        assert all(c == {0, 1} for c in steps.cpus)
    assert affinity[-1] == {0, 1}
    assert steps.setup_shares[-1] == 1.0

"""One rule per kind of setting, applied where the setting enters.

Every integer count goes through ``tensor_core._integer``: a float or a
bool is refused as well as a value below the count's least, with a
``ValueError`` naming the setting.  Every lambda grid goes through
``stm._check_grid``: a grid whose box 1 / (2 n lambda) overflows at n = 1
is refused before any dual is solved, since the box only shrinks as n grows.
"""

import re

import numpy as np
import pytest

from cstm import stm
from cstm.config import ConfigError, parse_config
from cstm.experiments import ExperimentConfig, gen_case
from cstm.kernels import KernelSpec
from cstm.stm import QpProblem, matrix_to_kruskal, select_lambda, solve_qp_many
from cstm.tensor_core import cp_als_many

TENSOR = np.arange(24.0).reshape(2, 3, 4)
PROBLEM = QpProblem(np.eye(2), np.array([1.0, -1.0]), 0.1)
LABELS = np.array([1.0, -1.0] * 4)

# (setting name, call with the value put in for that setting)
INTEGER_SITES = {
    "ExperimentConfig.case": ("case", lambda v: ExperimentConfig(case=v)),
    "ExperimentConfig.n_per_class": ("n_per_class", lambda v: ExperimentConfig(n_per_class=v)),
    "ExperimentConfig.repetitions": ("repetitions", lambda v: ExperimentConfig(repetitions=v)),
    "ExperimentConfig.seed": ("seed", lambda v: ExperimentConfig(seed=v)),
    "ExperimentConfig.threads": ("threads", lambda v: ExperimentConfig(threads=v)),
    "ExperimentConfig.cv_folds": ("cv_folds", lambda v: ExperimentConfig(cv_folds=v)),
    "ExperimentConfig.kernel_degree": (
        "polynomial degree",
        lambda v: ExperimentConfig(kernel_kind="polynomial", kernel_degree=v)),
    "KernelSpec.degree": ("polynomial degree", lambda v: KernelSpec("polynomial", degree=v)),
    "cp_als_many.rank": ("rank", lambda v: cp_als_many([TENSOR], v, [0])),
    "cp_als_many.max_iter": ("max_iter", lambda v: cp_als_many([TENSOR], 2, [0], max_iter=v)),
    "solve_qp_many.max_passes": ("max_passes", lambda v: solve_qp_many([PROBLEM], max_passes=v)),
    "gen_case.case": ("case", lambda v: gen_case(v, 2, 0)),
    "gen_case.n_per_class": ("n_per_class", lambda v: gen_case(3, v, 0)),
    "select_lambda.k": ("k", lambda v: select_lambda(np.eye(8), LABELS, k=v)),
    "matrix_to_kruskal.rank": ("rank", lambda v: matrix_to_kruskal(np.eye(3), v)),
}


@pytest.mark.parametrize("value", [2.5, 3.0, True], ids=["float", "integral float", "bool"])
@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_integer_setting_must_be_an_integer(site, value):
    # Without the rule a float or a bool passed these sites and failed
    # later (a numpy TypeError, a NaN kernel value) or ran as the integer
    # it equals: gen_case ran case 1 for True and case 3 for 3.0.
    name, call = INTEGER_SITES[site]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        call(value)


@pytest.mark.parametrize("value", [np.int64(3), 3])
def test_numpy_and_python_integers_pass(value):
    cfg = ExperimentConfig(case=value, repetitions=value, threads=value, cv_folds=value)
    assert cfg.repetitions == 3
    assert cp_als_many([TENSOR], value, [0], max_iter=value)[0].rank == 3


@pytest.mark.parametrize("site, name, least", [
    ("ExperimentConfig.n_per_class", "n_per_class", 1),
    ("ExperimentConfig.cv_folds", "cv_folds", 2),
    ("KernelSpec.degree", "polynomial degree", 1),
    ("gen_case.case", "case", 1),
    ("matrix_to_kruskal.rank", "rank", 1),
    ("select_lambda.k", "k", 2),
])
def test_integer_setting_below_its_least(site, name, least):
    # select_lambda with k = 1 returned the first grid value.
    with pytest.raises(ValueError, match=re.escape(f"{name} must be >= {least}, got {least - 1}")):
        INTEGER_SITES[site][1](least - 1)


TINY = "lambda 1e-320 is too small: 1 / (2 n lambda) overflows"
GRID = (1.0, 1e-320)
GRID_SITES = {
    "ExperimentConfig": (ValueError, lambda: ExperimentConfig(case=3, lambda_grid=GRID)),
    "parse_config": (ConfigError,
                     lambda: parse_config("case = 3\n[stm]\nlambda_grid = 1, 1e-320\n")),
    "select_lambda": (ValueError,
                      lambda: select_lambda(np.eye(8), np.array([1.0, -1.0] * 4), GRID, k=2)),
}


@pytest.mark.parametrize("site", sorted(GRID_SITES))
def test_grid_with_overflowing_box_refused_where_it_enters(monkeypatch, site):
    # Without the rule the grid passed and the first fold's dual raised.
    def no_solve(*args, **kwargs):
        raise AssertionError("a dual was solved before the grid was checked")

    monkeypatch.setattr(stm, "solve_qp_many", no_solve)
    error, call = GRID_SITES[site]
    with pytest.raises(error, match=re.escape(TINY)):
        call()


def test_smallest_grid_value_that_passes_gives_finite_boxes():
    # Just above the overflow edge at n = 1 the box is finite at every n.
    lam = np.nextafter(0.5 / np.finfo(float).max, 1.0)
    assert stm._check_grid([lam, 1.0]) == (lam, 1.0)
    assert all(np.isfinite(stm.box_bound(n, lam)) for n in (1, 2, 7, 10**6))

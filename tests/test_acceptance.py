"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 5 runs the reduced-scale simulation study (8 cases, 50 samples
per class, 20 repetitions) and dominates the runtime of the whole suite.
"""

import time

import numpy as np
import pytest

from cstm.acmtf import (
    AcmtfFactors,
    AcmtfHyperParams,
    CoupledSample,
    acmtf_decompose,
    acmtf_gradient,
    acmtf_objective,
    pack,
    unpack,
)
from cstm.cli import main
from cstm.experiments import ExperimentConfig, run_experiment
from cstm.kernels import (
    CoupledKernelSpec,
    KernelSpec,
    coupled_kernel,
    cp_kernel,
    gram_matrix,
    vector_kernel,
)
from cstm.stm import QpProblem, box_bound, default_lambda, solve_qp
from cstm.tensor_core import KruskalTensor


def report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert passed, detail


# -----------------------------------------------------------------------
# Criterion 1: analytic gradient vs central finite differences
# -----------------------------------------------------------------------

def test_criterion_1_gradient_oracle():
    rng = np.random.default_rng(101)
    dims = (4, 3, 5, 6)
    rank = 2
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        sample = CoupledSample(
            rng.standard_normal((4, 3, 5)), rng.standard_normal((6, 5)), 1
        )
        h = AcmtfHyperParams(
            gamma=float(rng.uniform(0.5, 2.0)),
            beta=float(rng.uniform(0.0, 0.01)),
            xi=float(rng.uniform(0.1, 2.0)),
            theta=float(rng.uniform(0.1, 2.0)),
            rank=rank,
        )
        u1 = KruskalTensor(
            rng.uniform(0.5, 1.5, rank) * rng.choice([-1.0, 1.0], rank),
            tuple(rng.standard_normal((d, rank)) for d in (4, 3, 5)),
        )
        u2 = KruskalTensor(
            rng.uniform(0.5, 1.5, rank) * rng.choice([-1.0, 1.0], rank),
            tuple(rng.standard_normal((d, rank)) for d in (6, 5)),
        )
        factors = AcmtfFactors.from_kruskals(u1, u2)
        grad = acmtf_gradient(sample, factors, h)
        x = pack((*u1.factors, *u2.factors, u1.weights, u2.weights))
        step = 1e-6
        fd = np.empty_like(x)
        for k in range(x.size):
            e = np.zeros_like(x)
            e[k] = step
            blocks_p = unpack(x + e, dims, rank)
            blocks_m = unpack(x - e, dims, rank)
            f_p = acmtf_objective(
                sample,
                AcmtfFactors.from_kruskals(
                    KruskalTensor(blocks_p[5], blocks_p[:3]),
                    KruskalTensor(blocks_p[6], blocks_p[3:5]),
                ),
                h,
            )
            f_m = acmtf_objective(
                sample,
                AcmtfFactors.from_kruskals(
                    KruskalTensor(blocks_m[5], blocks_m[:3]),
                    KruskalTensor(blocks_m[6], blocks_m[3:5]),
                ),
                h,
            )
            fd[k] = (f_p - f_m) / (2 * step)
        rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-4 and elapsed < 30.0,
        f"gradient vs central differences: worst rel err {worst:.2e} "
        f"(limit 1e-4), runtime {elapsed:.1f}s (limit 30s)",
    )


# -----------------------------------------------------------------------
# Criterion 2: SMO dual solve vs projected-gradient oracle
# -----------------------------------------------------------------------

def _project(v, y, c):
    lo, hi = -1e8, 1e8
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(y @ np.clip(v - mid * y, 0, c)) > 0:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi) * y, 0, c)


def _pg_objective(gram, y, lam, iters=100_000, tol=1e-13):
    c = box_bound(y.size, lam)
    q = gram * np.outer(y, y)
    lip = max(float(np.linalg.eigvalsh(q).max()), 1e-12)
    a = _project(np.zeros(y.size), y, c)
    f_prev = np.inf
    for it in range(iters):
        a = _project(a - (q @ a - 1.0) / lip, y, c)
        if it % 50 == 0:
            f = float(0.5 * a @ q @ a - a.sum())
            if f_prev - f < tol * max(1.0, abs(f)):
                break
            f_prev = f
    return float(0.5 * a @ q @ a - a.sum())


def test_criterion_2_qp_oracle():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst_gap = 0.0
    worst_resid = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 21))
        x = rng.standard_normal((n, n + 5))
        gram = x @ x.T
        y = np.ones(n)
        y[rng.permutation(n)[: n // 2]] = -1.0
        lam = float(10 ** rng.uniform(-2, 0.5))
        p = QpProblem(gram, y, lam)
        sol = solve_qp(p, tol=1e-9, max_passes=5000)
        f_pg = _pg_objective(gram, y, lam)
        worst_gap = max(worst_gap, abs(sol.objective(p) - f_pg))
        worst_resid = max(
            worst_resid,
            abs(float(sol.alpha @ y)),
            float(max(0.0, -sol.alpha.min())),
            float(max(0.0, sol.alpha.max() - p.box)),
            sol.kkt_violation,
        )
    elapsed = time.perf_counter() - start
    report(
        2,
        worst_gap < 1e-6 and worst_resid < 1e-6 and elapsed < 60.0,
        f"dual objective gap {worst_gap:.2e} (limit 1e-6), residuals "
        f"{worst_resid:.2e} (limit 1e-6), runtime {elapsed:.1f}s (limit 60s)",
    )


# -----------------------------------------------------------------------
# Criterion 3: kernel double-loop oracles and Gram PSD
# -----------------------------------------------------------------------

def _random_factors(rng, rank):
    u1 = KruskalTensor(
        rng.uniform(0.5, 2.0, rank),
        tuple(rng.standard_normal((d, rank)) for d in (4, 3, 5)),
    ).normalized()
    u2 = KruskalTensor(
        rng.uniform(0.5, 2.0, rank),
        tuple(rng.standard_normal((d, rank)) for d in (6, 5)),
    ).normalized()
    return AcmtfFactors.from_kruskals(u1, u2)


def test_criterion_3_kernel_oracles():
    rng = np.random.default_rng(303)
    cp_specs = (KernelSpec("rbf", 0.8), KernelSpec("linear"),
                KernelSpec("polynomial", degree=2, offset=0.5))
    coupled_spec = CoupledKernelSpec(
        KernelSpec("rbf", 0.9), KernelSpec("rbf", 1.2),
        KernelSpec("rbf", 1.0), KernelSpec("linear"), (0.5, 0.3, 0.2),
    )
    worst = 0.0
    for _ in range(100):
        rank_a = int(rng.integers(1, 4))
        rank_b = int(rng.integers(1, 4))
        ka = KruskalTensor(
            np.ones(rank_a), tuple(rng.standard_normal((d, rank_a)) for d in (4, 3, 5))
        )
        kb = KruskalTensor(
            np.ones(rank_b), tuple(rng.standard_normal((d, rank_b)) for d in (4, 3, 5))
        )
        got = cp_kernel(ka, kb, cp_specs)
        want = 0.0
        for k in range(rank_a):
            for l in range(rank_b):
                prod = 1.0
                for j, spec in enumerate(cp_specs):
                    prod *= vector_kernel(ka.factors[j][:, k], kb.factors[j][:, l], spec)
                want += prod
        worst = max(worst, abs(got - want))

        fa = _random_factors(rng, rank_a)
        fb = _random_factors(rng, rank_b)
        got_c = coupled_kernel(fa, fb, coupled_spec)
        want_c = 0.0
        w1, w2, w3 = coupled_spec.weights
        for k in range(rank_a):
            for l in range(rank_b):
                want_c += w1 * vector_kernel(
                    fa.u1.factors[0][:, k], fb.u1.factors[0][:, l], coupled_spec.k1_mode1
                ) * vector_kernel(
                    fa.u1.factors[1][:, k], fb.u1.factors[1][:, l], coupled_spec.k1_mode2
                )
                want_c += w2 * vector_kernel(
                    fa.shared[:, k], fb.shared[:, l], coupled_spec.k2
                )
                want_c += w3 * vector_kernel(
                    fa.u2.factors[0][:, k], fb.u2.factors[0][:, l], coupled_spec.k3
                )
        worst = max(worst, abs(got_c - want_c))

    fs = [_random_factors(rng, 3) for _ in range(10)]
    gram = gram_matrix(fs, coupled_spec)
    sym = float(np.abs(gram - gram.T).max())
    ev = np.linalg.eigvalsh(gram)
    psd_ok = ev.min() >= -1e-8 * ev.max()
    report(
        3,
        worst < 1e-12 and sym == 0.0 and psd_ok,
        f"kernel loop-oracle gap {worst:.2e} (limit 1e-12), gram asymmetry "
        f"{sym:.1e}, min eig {ev.min():.2e} vs -1e-8*max {-1e-8 * ev.max():.2e}",
    )


# -----------------------------------------------------------------------
# Criterion 4: noiseless rank-1 recovery
# -----------------------------------------------------------------------

def test_criterion_4_exact_recovery():
    rng = np.random.default_rng(404)
    cols = {}
    for name, d in (("a", 6), ("b", 5), ("c", 7), ("u", 8)):
        v = rng.standard_normal((d, 1))
        cols[name] = v / np.linalg.norm(v)
    tensor = 2.5 * np.einsum("ir,jr,kr->ijk", cols["a"], cols["b"], cols["c"])
    matrix = 1.7 * cols["u"] @ cols["c"].T
    sample = CoupledSample(tensor, matrix, 1)
    h = AcmtfHyperParams(beta=0.0, rank=1, cg_tol=1e-14, max_iters=3000)
    factors = acmtf_decompose(sample, h, seed=7)
    est = factors.shared[:, 0]
    truth = cols["c"][:, 0]
    cos = abs(float(est @ truth)) / (np.linalg.norm(est) * np.linalg.norm(truth))
    final = factors.objective_history[-1]
    report(
        4,
        cos > 0.999 and final < 1e-6,
        f"shared-factor |cosine| {cos:.6f} (limit 0.999), final objective "
        f"{final:.2e} (limit 1e-6)",
    )


# -----------------------------------------------------------------------
# Criterion 5: reduced-scale simulation study orderings
# -----------------------------------------------------------------------

def _spearman(x, y):
    def ranks(v):
        order = np.argsort(v)
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1)
        return r

    rx, ry = ranks(np.asarray(x, float)), ranks(np.asarray(y, float))
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))


@pytest.mark.slow
def test_criterion_5_simulation_orderings():
    start = time.perf_counter()
    acc = {}
    for case in range(1, 9):
        cfg = ExperimentConfig(
            case=case,
            n_per_class=50,
            repetitions=20,
            seed=1234,
            acmtf=AcmtfHyperParams(rank=5, cg_tol=1e-9, max_iters=400),
            threads=2,
        )
        summary = run_experiment(cfg)
        acc[case] = {m: summary.mean(m, "accuracy") for m in cfg.methods}
    elapsed = time.perf_counter() - start

    failures = []
    for case in (1, 2, 3, 4, 5, 8):
        c = acc[case]["cstm"]
        t = acc[case]["cpstm_tensor"]
        m = acc[case]["cpstm_matrix"]
        if not (c >= t + 0.02 and c >= m + 0.02):
            failures.append(f"case {case}: cstm {c:.3f} vs tensor {t:.3f} / matrix {m:.3f}")
    rho = _spearman([1, 2, 3, 4, 5], [acc[c]["cstm"] for c in range(1, 6)])
    if not rho > 0:
        failures.append(f"spearman(case, cstm accuracy) = {rho:.3f} not > 0")
    for case in (6, 7):
        c = acc[case]["cstm"]
        best = max(acc[case]["cpstm_tensor"], acc[case]["cpstm_matrix"])
        if not c >= best - 0.05:
            failures.append(f"case {case}: cstm {c:.3f} vs best baseline {best:.3f}")
    if elapsed > 1800:
        failures.append(f"runtime {elapsed:.0f}s exceeds 30 min")

    lines = "; ".join(
        f"case {c}: " + ", ".join(f"{m}={v:.3f}" for m, v in acc[c].items())
        for c in range(1, 9)
    )
    report(
        5,
        not failures,
        (f"orderings hold, spearman {rho:.2f}, runtime {elapsed / 60:.1f} min; {lines}"
         if not failures else "; ".join(failures)),
    )


# -----------------------------------------------------------------------
# Criterion 6: byte-identical benchmark reruns
# -----------------------------------------------------------------------

def test_criterion_6_determinism(tmp_path):
    cfg_text = (
        "[experiment]\ncase = 2\nn_per_class = 5\ntest_fraction = 0.2\n"
        "repetitions = 2\nseed = 99\n\n[acmtf]\nrank = 3\ncg_tol = 1e-4\n"
        "max_iters = 60\n\n[stm]\nlambda_grid = 0.01, 1\ncv_folds = 2\n"
    )
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(cfg_text)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = main(["benchmark", "--config", str(cfg_path), "--out", str(out1)])
    rc2 = main(["benchmark", "--config", str(cfg_path), "--out", str(out2)])
    same = (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    report(
        6,
        rc1 == 0 and rc2 == 0 and same,
        "benchmark reruns with identical seed produce byte-identical results.csv"
        if same else "results.csv differs between reruns",
    )


# -----------------------------------------------------------------------
# Criterion 7: consistency preconditions (kernel bound, lambda schedule)
# -----------------------------------------------------------------------

def test_criterion_7_consistency_preconditions():
    rng = np.random.default_rng(707)
    spec = CoupledKernelSpec(
        KernelSpec("rbf", 0.8), KernelSpec("rbf", 1.1),
        KernelSpec("rbf", 0.9), KernelSpec("rbf", 1.3), (0.4, 0.35, 0.25),
    )
    bound_ok = True
    r = 3
    cap = r * r * sum(spec.weights)
    for _ in range(50):
        fa = _random_factors(rng, r)
        fb = _random_factors(rng, r)
        val = coupled_kernel(fa, fb, spec)
        if not 0.0 <= val <= cap + 1e-12:
            bound_ok = False
    ns = np.unique(np.logspace(1, 4, 60).astype(int))
    lams = np.array([default_lambda(int(n)) for n in ns])
    schedule_ok = (
        bool(np.all(np.diff(lams) < 0))
        and lams[-1] < 0.011
        and bool(np.all(np.diff(ns * lams) > 0))
        and (ns * lams)[-1] >= 100.0
    )
    report(
        7,
        bound_ok and schedule_ok,
        f"rbf coupled kernel bounded by r^2*(w1+w2+w3)={cap:.2f} on unit-norm "
        f"factors; lambda_n=n^-0.5 decreasing to {lams[-1]:.4f} with "
        f"n*lambda_n increasing to {(ns * lams)[-1]:.0f}",
    )
